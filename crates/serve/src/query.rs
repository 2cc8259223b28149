//! The declarative query description a client submits.
//!
//! A query names an engine, a pipeline, a catalog dataset and the cluster
//! size the plan should be admission-checked against. The service lowers
//! it through the existing engine analogs ([`scibench_core::lower`]), so
//! a query is exactly as expressible as the paper's systems were: asking
//! TensorFlow for the full neuroscience pipeline, or SciDB for the full
//! astronomy pipeline, is rejected the same way the paper reports "NA".

use scibench_core::lower::Engine;
use scibench_core::registry::UseCase;

/// The pipelines the service can execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipeline {
    /// Step 1N alone: b0 filter, mean, median-otsu mask.
    NeuroSegment,
    /// Steps 1N–2N: segmentation then masked NLM denoising.
    NeuroDenoise,
    /// The full neuroscience pipeline 1N–3N, ending in the FA map.
    NeuroFa,
    /// The full astronomy pipeline: calibrate, patch, coadd, detect.
    AstroFull,
    /// The SciDB-style clipped coadd over a pre-ingested patch cube.
    AstroCoadd,
    /// A deliberately-unsafe plan whose operator binds to `parexec`'s
    /// ambient thread-count probe: statically uncertifiable, so every
    /// request must take the cache bypass path. Kept for the gate's own
    /// regression coverage.
    FixtureAmbient,
}

impl Pipeline {
    /// Stable name, used in query keys and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Pipeline::NeuroSegment => "neuro-segment",
            Pipeline::NeuroDenoise => "neuro-denoise",
            Pipeline::NeuroFa => "neuro-fa",
            Pipeline::AstroFull => "astro-full",
            Pipeline::AstroCoadd => "astro-coadd",
            Pipeline::FixtureAmbient => "fixture-ambient",
        }
    }

    /// The registry use case whose capability decides which engines may
    /// run this pipeline; `None` for the engine-independent fixture.
    pub fn use_case(&self) -> Option<UseCase> {
        match self {
            Pipeline::NeuroSegment | Pipeline::NeuroDenoise => Some(UseCase::NeuroSteps),
            Pipeline::NeuroFa => Some(UseCase::NeuroE2e),
            Pipeline::AstroFull => Some(UseCase::AstroE2e),
            Pipeline::AstroCoadd => Some(UseCase::AstroCoadd),
            Pipeline::FixtureAmbient => None,
        }
    }
}

/// Myria's memory-management mode for [`Pipeline::AstroFull`] (ignored by
/// every other engine/pipeline combination).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AstroMode {
    /// Fully pipelined: fastest, but can exhaust memory (Figure 15).
    Pipelined,
    /// Materialize intermediates to disk between stages.
    Materialized,
    /// Split into independently-run sub-queries.
    MultiQuery,
}

impl AstroMode {
    /// Stable name, used in query keys and reports.
    pub fn name(&self) -> &'static str {
        match self {
            AstroMode::Pipelined => "pipelined",
            AstroMode::Materialized => "materialized",
            AstroMode::MultiQuery => "multiquery",
        }
    }

    /// The engine-rel execution mode this lowers to.
    pub fn execution_mode(&self) -> engine_rel::ExecutionMode {
        match self {
            AstroMode::Pipelined => engine_rel::ExecutionMode::Pipelined,
            AstroMode::Materialized => engine_rel::ExecutionMode::Materialized,
            AstroMode::MultiQuery => engine_rel::ExecutionMode::MultiQuery { pieces: 4 },
        }
    }
}

/// One declarative query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryDesc {
    /// Which engine analog plans (and is admission-checked for) the run.
    pub engine: Engine,
    /// Which pipeline to execute.
    pub pipeline: Pipeline,
    /// Catalog dataset name.
    pub dataset: String,
    /// Catalog dataset version.
    pub version: u32,
    /// Cluster size the plan is admission-checked against.
    pub nodes: usize,
    /// Myria memory-management mode for the full astronomy pipeline.
    pub mode: AstroMode,
}

impl QueryDesc {
    /// A query with the workspace defaults: 16 nodes, materialized mode.
    pub fn new(engine: Engine, pipeline: Pipeline, dataset: &str, version: u32) -> QueryDesc {
        QueryDesc {
            engine,
            pipeline,
            dataset: dataset.to_string(),
            version,
            nodes: 16,
            mode: AstroMode::Materialized,
        }
    }

    /// Admission-check against `nodes` instead of the default 16.
    pub fn with_nodes(mut self, nodes: usize) -> QueryDesc {
        self.nodes = nodes;
        self
    }

    /// Set Myria's memory-management mode for [`Pipeline::AstroFull`].
    pub fn with_mode(mut self, mode: AstroMode) -> QueryDesc {
        self.mode = mode;
        self
    }

    /// Canonical key: two queries with equal keys lower to the same plan
    /// against the same input. The Myria mode participates only where it
    /// changes the plan (the full astronomy pipeline on Myria).
    pub fn key(&self) -> String {
        let mode = if self.pipeline == Pipeline::AstroFull && self.engine == Engine::Myria {
            format!(" {}", self.mode.name())
        } else {
            String::new()
        };
        format!(
            "{} {} {}@v{} nodes={}{mode}",
            self.pipeline.name(),
            self.engine.name(),
            self.dataset,
            self.version,
            self.nodes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_distinguish_everything_that_changes_the_plan_or_input() {
        let base = QueryDesc::new(Engine::Spark, Pipeline::NeuroFa, "dmri", 1);
        assert_eq!(base.key(), "neuro-fa Spark dmri@v1 nodes=16");
        assert_ne!(base.key(), base.clone().with_nodes(64).key());
        let v2 = QueryDesc::new(Engine::Spark, Pipeline::NeuroFa, "dmri", 2);
        assert_ne!(base.key(), v2.key());
        let dask = QueryDesc::new(Engine::Dask, Pipeline::NeuroFa, "dmri", 1);
        assert_ne!(base.key(), dask.key());
    }

    #[test]
    fn myria_mode_participates_only_where_it_changes_the_plan() {
        let spark = QueryDesc::new(Engine::Spark, Pipeline::AstroFull, "hits", 1);
        assert_eq!(
            spark.key(),
            spark.clone().with_mode(AstroMode::Pipelined).key()
        );
        let myria = QueryDesc::new(Engine::Myria, Pipeline::AstroFull, "hits", 1);
        assert_ne!(
            myria.key(),
            myria.clone().with_mode(AstroMode::Pipelined).key()
        );
        assert!(myria.key().ends_with("materialized"));
    }
}
