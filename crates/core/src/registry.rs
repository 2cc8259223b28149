//! The engine registry: per engine analog, its names, its Table 1
//! capability per use case, its end-to-end lowerings, the test-scale
//! shape its eager analog runs at, and its profile accessors.
//!
//! Data lives in the const [`ENGINES`] table; behaviour in exhaustive
//! `match`es here — never fn-pointer tables or trait objects, which
//! sciflow's call graph cannot see (DESIGN.md §3.12). Adding an engine is
//! one [`Engine`] variant, its crate, a row in [`ENGINES`] and one arm per
//! `match` here. Engine-specific cost modelling is not dispatch and stays
//! in the lowering bodies of [`crate::lower`].

use crate::experiments::{tuned_partitions, Setup};
use crate::lower::{astro, neuro, Engine, EngineProfiles, SHARED_OP_BINDINGS};
use crate::usecases::{astro as astro_uc, neuro as neuro_uc};
use crate::workload::{AstroWorkload, NeuroWorkload};
use engine_rel::ExecutionMode;
use marray::NdArray;
use simcluster::{ClusterSpec, SchedPolicy, TaskGraph};
use std::collections::BTreeMap;

/// A use case, or the part of one, an engine may be asked to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UseCase {
    /// Neuroscience steps 1N–2N: segmentation and denoising.
    NeuroSteps,
    /// The full neuroscience pipeline, through model fitting.
    NeuroE2e,
    /// The full astronomy pipeline: pre-processing, patches, co-addition
    /// and source detection.
    AstroE2e,
    /// The array-native sigma-clipped coadd over a pre-ingested patch cube
    /// (SciDB's AQL formulation, Figure 12d).
    AstroCoadd,
}

/// Whether an engine can run a use case, with the paper's reason when not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Capability {
    /// The engine runs it.
    Runnable,
    /// The engine cannot express a step of it (Table 1's NA).
    NotApplicable(&'static str),
    /// Expressible in principle, not runnable in practice (Table 1's X).
    Impossible(&'static str),
}

impl Capability {
    /// True for [`Capability::Runnable`].
    pub fn is_runnable(self) -> bool {
        self == Capability::Runnable
    }
}

impl std::fmt::Display for Capability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Capability::Runnable => write!(f, "runnable"),
            Capability::NotApplicable(why) => write!(f, "NA: {why}"),
            Capability::Impossible(why) => write!(f, "X: {why}"),
        }
    }
}

/// The test-scale parallelism an eager analog runs at in the end-to-end
/// bench and the service. Fields an analog does not take are 0.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Spark partitions, Dask workers, Myria nodes or SciDB instances.
    pub par: usize,
    /// Myria workers per node, or the SciDB chunk edge in pixels.
    pub aux: usize,
}

/// One engine analog's row of the registry.
#[derive(Debug, Clone, Copy)]
pub struct EngineEntry {
    /// The engine.
    pub engine: Engine,
    /// Display name (figure legends, lint rows, query keys).
    pub name: &'static str,
    /// Lower-case key used in bench artifacts.
    pub key: &'static str,
    /// Table 1's Segmentation and Denoising rows.
    pub neuro_steps: Capability,
    /// Table 1's Model Fitting row decides the full neuroscience pipeline.
    pub neuro_e2e: Capability,
    /// Every Table 1 Astronomy row must be runnable.
    pub astro_e2e: Capability,
    /// The cube coadd of [`UseCase::AstroCoadd`].
    pub astro_coadd: Capability,
    /// Shape of [`run_neuro`].
    pub neuro_shape: Shape,
    /// Shape of [`run_astro_e2e`] and [`run_astro_coadd`].
    pub astro_shape: Shape,
}

const NO_SHAPE: Shape = Shape { par: 0, aux: 0 };
const CUBE_COADD_IS_SCIDB: Capability = Capability::NotApplicable(
    "the pre-ingested cube coadd is SciDB's AQL formulation; the UDF engines co-add inside \
     the full astronomy pipeline",
);

/// The registry, in [`Engine`] declaration order.
pub const ENGINES: [EngineEntry; 5] = [
    EngineEntry {
        engine: Engine::Spark,
        name: "Spark",
        key: "spark",
        neuro_steps: Capability::Runnable,
        neuro_e2e: Capability::Runnable,
        astro_e2e: Capability::Runnable,
        astro_coadd: CUBE_COADD_IS_SCIDB,
        neuro_shape: Shape { par: 8, aux: 0 },
        astro_shape: Shape { par: 6, aux: 0 },
    },
    EngineEntry {
        engine: Engine::Myria,
        name: "Myria",
        key: "myria",
        neuro_steps: Capability::Runnable,
        neuro_e2e: Capability::Runnable,
        astro_e2e: Capability::Runnable,
        astro_coadd: CUBE_COADD_IS_SCIDB,
        neuro_shape: Shape { par: 4, aux: 2 },
        astro_shape: Shape { par: 4, aux: 1 },
    },
    EngineEntry {
        engine: Engine::Dask,
        name: "Dask",
        key: "dask",
        neuro_steps: Capability::Runnable,
        neuro_e2e: Capability::Runnable,
        astro_e2e: Capability::Impossible(astro_uc::DASK_ASTRO_STATUS),
        astro_coadd: CUBE_COADD_IS_SCIDB,
        neuro_shape: Shape { par: 8, aux: 0 },
        astro_shape: NO_SHAPE,
    },
    EngineEntry {
        engine: Engine::TensorFlow,
        name: "TensorFlow",
        key: "tensorflow",
        neuro_steps: Capability::Runnable,
        neuro_e2e: Capability::NotApplicable(
            "model fitting (step 3N) is not expressible as whole-tensor graph ops",
        ),
        astro_e2e: Capability::NotApplicable(
            "not attempted (the paper's TensorFlow implementation covers only the \
             neuroscience use case)",
        ),
        astro_coadd: CUBE_COADD_IS_SCIDB,
        neuro_shape: NO_SHAPE,
        astro_shape: NO_SHAPE,
    },
    EngineEntry {
        engine: Engine::SciDb,
        name: "SciDB",
        key: "scidb",
        neuro_steps: Capability::Runnable,
        neuro_e2e: Capability::NotApplicable(
            "model fitting (step 3N) is not expressible in native array operations",
        ),
        astro_e2e: Capability::Impossible(
            "pre-processing and patch creation need the reference UDFs, which the array \
             engine cannot run natively",
        ),
        astro_coadd: Capability::Runnable,
        neuro_shape: NO_SHAPE,
        astro_shape: Shape { par: 4, aux: 8 },
    },
];

// `Engine::entry` indexes by discriminant.
const _: () = {
    let mut i = 0;
    while i < ENGINES.len() {
        assert!(
            ENGINES[i].engine as usize == i,
            "ENGINES must follow Engine order"
        );
        i += 1;
    }
};

impl Engine {
    /// This engine's registry row.
    pub fn entry(self) -> &'static EngineEntry {
        &ENGINES[self as usize]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        self.entry().name
    }

    /// What the registry says this engine can do with `use_case`.
    pub fn capability(self, use_case: UseCase) -> Capability {
        let e = self.entry();
        match use_case {
            UseCase::NeuroSteps => e.neuro_steps,
            UseCase::NeuroE2e => e.neuro_e2e,
            UseCase::AstroE2e => e.astro_e2e,
            UseCase::AstroCoadd => e.astro_coadd,
        }
    }

    /// Every engine, in registry order.
    pub fn all() -> impl Iterator<Item = Engine> {
        ENGINES.iter().map(|e| e.engine)
    }

    /// The engines that can run `use_case`, in registry order.
    pub fn runnable(use_case: UseCase) -> Vec<Engine> {
        Engine::all()
            .filter(|e| e.capability(use_case).is_runnable())
            .collect()
    }

    /// The engines able to run the full neuroscience use case end-to-end
    /// (the paper: Dask, Myria, Spark).
    pub fn neuro_e2e() -> Vec<Engine> {
        Engine::runnable(UseCase::NeuroE2e)
    }

    /// The engines able to run the full astronomy use case end-to-end
    /// (the paper: Spark and Myria; Dask froze, SciDB/TensorFlow could
    /// not express it).
    pub fn astro_e2e() -> Vec<Engine> {
        Engine::runnable(UseCase::AstroE2e)
    }
}

impl EngineProfiles {
    /// The scheduling policy an engine runs under.
    pub fn policy(&self, engine: Engine) -> SchedPolicy {
        match engine {
            Engine::Spark => SchedPolicy::LocalityFifo {
                per_task_overhead: self.rdd.per_task_overhead,
            },
            Engine::Myria => SchedPolicy::LocalityFifo {
                per_task_overhead: self.rel.per_task_overhead,
            },
            Engine::Dask => SchedPolicy::WorkStealing {
                per_task_overhead: self.tg.per_task_overhead,
                steal_cost: self.tg.steal_cost,
            },
            Engine::TensorFlow => SchedPolicy::Static {
                per_task_overhead: self.df.step_dispatch_fixed,
            },
            Engine::SciDb => SchedPolicy::Static {
                per_task_overhead: self.arr.chunk_op_overhead,
            },
        }
    }

    /// The static invariants [`plancheck::check`] should enforce against an
    /// engine's lowered task graphs.
    pub fn invariants(&self, engine: Engine) -> plancheck::InvariantProfile {
        match engine {
            Engine::Spark => self.rdd.invariants(),
            Engine::Myria => self.rel.invariants(),
            Engine::Dask => self.tg.invariants(),
            Engine::TensorFlow => self.df.invariants(),
            Engine::SciDb => self.arr.invariants(),
        }
    }

    /// The operator → kernel binding tables for `engine`'s lowerings, for
    /// the scimemo cacheability certifier: the engine's own table first,
    /// then [`SHARED_OP_BINDINGS`] for the labels the cross-engine
    /// lowerings (`astro:*`, `ingest:*`, bare step names) emit. First
    /// match wins; an unlisted label is deliberately unbound and the
    /// certifier treats it as unsafe.
    pub fn op_bindings(&self, engine: Engine) -> [&'static [plancheck::OpBinding]; 2] {
        let own = match engine {
            Engine::Spark => self.rdd.op_bindings(),
            Engine::Myria => self.rel.op_bindings(),
            Engine::Dask => self.tg.op_bindings(),
            Engine::TensorFlow => self.df.op_bindings(),
            Engine::SciDb => self.arr.op_bindings(),
        };
        [own, SHARED_OP_BINDINGS]
    }
}

impl Setup {
    /// The cluster an engine runs on, with its tuned worker-slot count
    /// (Myria: 4 workers/node after Figure 13; SciDB: 4 instances/node per
    /// vendor guidance; Spark/Dask/TF: one slot per vCPU).
    pub fn cluster_for(&self, engine: Engine, nodes: usize) -> ClusterSpec {
        let base = ClusterSpec::r3_2xlarge(nodes);
        match engine {
            // Myria's Figure 13 optimum; Dask's thread count was manually
            // tuned the same way (the kernels are memory-bandwidth-bound,
            // so hyperthreads do not help).
            Engine::Myria | Engine::Dask => base.with_worker_slots(4),
            Engine::SciDb => base.with_worker_slots(self.profiles.arr.instances_per_node),
            Engine::Spark | Engine::TensorFlow => base,
        }
    }
}

/// Lower `engine`'s neuroscience pipeline onto `cluster` (Figure 10c/g):
/// end to end where [`UseCase::NeuroE2e`] is runnable, the expressible
/// steps elsewhere.
pub fn lower_neuro_e2e(
    setup: &Setup,
    engine: Engine,
    w: &NeuroWorkload,
    cluster: &ClusterSpec,
) -> TaskGraph {
    let (cm, p) = (&setup.cm, &setup.profiles);
    match engine {
        Engine::Spark => neuro::spark(w, cm, p, cluster, Some(tuned_partitions(cluster)), true),
        Engine::Myria => neuro::myria(w, cm, p, cluster),
        Engine::Dask => neuro::dask(w, cm, p, cluster),
        Engine::TensorFlow => neuro::tensorflow(w, cm, p, cluster),
        Engine::SciDb => neuro::scidb_steps(w, cm, p, cluster, true),
    }
}

/// Lower `engine`'s full astronomy pipeline onto `cluster` (Figure
/// 10d/h), returning the graph and whether it must run memory-strict.
/// `mode` is Myria's memory-management mode; Spark has none and spills.
/// `None` where [`UseCase::AstroE2e`] is not runnable.
pub fn lower_astro_e2e(
    setup: &Setup,
    engine: Engine,
    w: &AstroWorkload,
    cluster: &ClusterSpec,
    mode: ExecutionMode,
) -> Option<(TaskGraph, bool)> {
    let (cm, p) = (&setup.cm, &setup.profiles);
    match engine {
        Engine::Spark => Some((astro::spark(w, cm, p, cluster), false)),
        Engine::Myria => Some(astro::myria(w, cm, p, cluster, mode)),
        Engine::Dask | Engine::TensorFlow | Engine::SciDb => None,
    }
}

/// What an engine's eager neuroscience analog produced.
pub enum NeuroRun {
    /// The full pipeline: per-subject FA maps.
    Fa(BTreeMap<u32, NdArray<f64>>),
    /// The expressible steps only: per-subject mean b0 and denoised data.
    Steps {
        /// Mean b0 volume per subject.
        mean_b0: BTreeMap<u32, NdArray<f64>>,
        /// Denoised data per subject.
        denoised: BTreeMap<u32, NdArray<f64>>,
    },
}

/// Run `engine`'s eager neuroscience analog at its registry shape: the
/// full pipeline where [`UseCase::NeuroE2e`] is runnable, the expressible
/// steps elsewhere.
pub fn run_neuro(engine: Engine, subjects: &[neuro_uc::Subject]) -> NeuroRun {
    let s = engine.entry().neuro_shape;
    match engine {
        Engine::Spark => NeuroRun::Fa(neuro_uc::spark(subjects, s.par)),
        Engine::Myria => NeuroRun::Fa(neuro_uc::myria(subjects, s.par, s.aux)),
        Engine::Dask => NeuroRun::Fa(neuro_uc::dask(subjects, s.par)),
        Engine::TensorFlow => {
            let out = neuro_uc::tensorflow(subjects);
            NeuroRun::Steps {
                mean_b0: out.mean_b0,
                denoised: out.denoised0,
            }
        }
        Engine::SciDb => {
            let out = neuro_uc::scidb(subjects);
            NeuroRun::Steps {
                mean_b0: out.mean_b0,
                denoised: out.denoised,
            }
        }
    }
}

/// Run `engine`'s eager full astronomy analog at its registry shape;
/// `None` where [`UseCase::AstroE2e`] is not runnable.
pub fn run_astro_e2e(
    engine: Engine,
    survey: &sciops::synth::sky::SkySurvey,
) -> Option<astro_uc::AstroResult> {
    let s = engine.entry().astro_shape;
    match engine {
        Engine::Spark => Some(astro_uc::spark(survey, s.par)),
        Engine::Myria => Some(astro_uc::myria(survey, s.par, s.aux)),
        Engine::Dask | Engine::TensorFlow | Engine::SciDb => None,
    }
}

/// Run `engine`'s cube coadd over a `(visit, rows, cols)` cube at its
/// registry shape; `None` where [`UseCase::AstroCoadd`] is not runnable.
pub fn run_astro_coadd(
    engine: Engine,
    cube: &NdArray<f64>,
) -> Option<Result<NdArray<f64>, engine_array::ArrayDbError>> {
    let s = engine.entry().astro_shape;
    match engine {
        Engine::SciDb => Some(astro_uc::scidb_coadd_cube(
            &engine_array::ArrayDb::connect(s.par),
            cube,
            s.aux,
        )),
        Engine::Spark | Engine::Myria | Engine::Dask | Engine::TensorFlow => None,
    }
}
