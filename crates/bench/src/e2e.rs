//! End-to-end pipeline benchmarks with copy accounting: each engine
//! analog's full use-case pipeline, run twice — once under
//! [`CopyMode::Eager`] (every chunk-handle clone deep-copies, the
//! copy-everywhere baseline this workspace shipped before the shared data
//! plane) and once under [`CopyMode::Shared`] (clones are refcount bumps;
//! only COW mutations and sanctioned architectural copies touch memory).
//!
//! The two runs must produce bit-identical outputs (the fingerprints are
//! compared), so the copy counts and wall times are measurements of the
//! data plane alone, not of a different computation. Results serialize as
//! `BENCH_e2e.json` (schema `scibench-bench-e2e/v1`).

use marray::{with_copy_mode, CopyCounter, CopyMode, CopyStats, NdArray};
use scibench_core::lower::Engine;
use scibench_core::registry::{self, NeuroRun, UseCase, ENGINES};
use scibench_core::usecases::astro as astro_uc;
use scibench_core::usecases::neuro as neuro_uc;
use scilint::json::{arr, float, obj, Json};
use sciops::synth::sky::{SkySpec, SkySurvey};
use sciserve::Fingerprint;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The pre-built inputs every case of one suite shares.
struct Inputs {
    subjects: Vec<neuro_uc::Subject>,
    survey: SkySurvey,
    cube: NdArray<f64>,
}

/// One end-to-end benchmarkable pipeline on one engine analog, run at the
/// registry's test-scale shape.
pub struct E2eCase {
    /// Use case: `"neuro"` or `"astro"`.
    pub pipeline: &'static str,
    /// Engine analog: `spark`, `myria`, `dask`, `tensorflow` or `scidb`.
    pub engine: &'static str,
    id: Engine,
    use_case: UseCase,
    inputs: Arc<Inputs>,
}

impl E2eCase {
    /// Run the pipeline once; returns the output fingerprint.
    pub fn run(&self) -> u64 {
        let inputs = &self.inputs;
        match self.use_case {
            UseCase::NeuroSteps | UseCase::NeuroE2e => {
                fingerprint_neuro(&registry::run_neuro(self.id, &inputs.subjects))
            }
            UseCase::AstroE2e => fingerprint_astro(
                &registry::run_astro_e2e(self.id, &inputs.survey)
                    .expect("suite lists runnable cases"),
            ),
            UseCase::AstroCoadd => {
                let out = registry::run_astro_coadd(self.id, &inputs.cube)
                    .expect("suite lists runnable cases")
                    .expect("cube coadd runs");
                let mut fp = Fingerprint::new();
                fp.push_f64_slice(out.data());
                fp.finish()
            }
        }
    }
}

/// A pipeline/engine combination the paper reports as absent, carried in
/// the JSON so the gap is documented rather than silent.
#[derive(Debug, Clone)]
pub struct E2eSkip {
    /// Use case.
    pub pipeline: &'static str,
    /// Engine analog.
    pub engine: &'static str,
    /// Why there is no measurement (the paper's reason).
    pub status: String,
}

/// One engine's before/after measurement.
#[derive(Debug, Clone)]
pub struct E2eResult {
    /// Use case.
    pub pipeline: &'static str,
    /// Engine analog.
    pub engine: &'static str,
    /// Deep copies under the eager (copy-everywhere) baseline.
    pub copies_before: u64,
    /// Bytes deep-copied under the eager baseline.
    pub bytes_before: u64,
    /// Wall milliseconds for the eager run.
    pub ms_before: f64,
    /// Deep copies on the shared data plane (COW + sanctioned only).
    pub copies_after: u64,
    /// Bytes deep-copied on the shared data plane.
    pub bytes_after: u64,
    /// Wall milliseconds for the shared run.
    pub ms_after: f64,
    /// `1 - after/before` (0 when the baseline itself made no copies).
    pub copy_drop: f64,
    /// The copies that remain, by reason tag (the architectural ones).
    pub reasons_after: Vec<(String, u64)>,
    /// Eager and shared fingerprints matched bit for bit.
    pub outputs_identical: bool,
}

pub(crate) fn fingerprint_neuro(run: &NeuroRun) -> u64 {
    let mut fp = Fingerprint::new();
    let mut fold = |vols: &BTreeMap<u32, NdArray<f64>>| {
        for (id, v) in vols {
            fp.push_usize(*id as usize);
            fp.push_f64_slice(v.data());
        }
    };
    match run {
        NeuroRun::Fa(fa) => fold(fa),
        NeuroRun::Steps { mean_b0, denoised } => {
            fold(mean_b0);
            fold(denoised);
        }
    }
    fp.finish()
}

pub(crate) fn fingerprint_astro(r: &astro_uc::AstroResult) -> u64 {
    let mut fp = Fingerprint::new();
    for (patch, flux) in &r.coadd_flux {
        fp.push_usize(patch.0 as usize);
        fp.push_usize(patch.1 as usize);
        fp.push_f64_slice(flux.data());
    }
    for sources in r.catalogs.values() {
        fp.push_usize(sources.len());
        for s in sources {
            fp.push_f64(s.centroid.0);
            fp.push_f64(s.centroid.1);
            fp.push_f64(s.flux);
            fp.push_f64(s.peak);
            fp.push_usize(s.npix);
        }
    }
    fp.finish()
}

/// The runnable pipeline/engine matrix, read from the engine registry:
/// neuroscience on all five analogs (end to end where the engine can,
/// its expressible steps elsewhere); astronomy end to end where runnable,
/// else the cube coadd where runnable, else a documented skip. `quick`
/// shrinks the subject count for CI.
pub fn suite(quick: bool) -> (Vec<E2eCase>, Vec<E2eSkip>) {
    let survey = SkySurvey::generate(99, &SkySpec::test_scale());
    let inputs = Arc::new(Inputs {
        subjects: sciserve::demo_subjects(7000, if quick { 1 } else { 2 }),
        cube: sciserve::cube_for_survey(&survey),
        survey,
    });
    let case = |pipeline, e: &registry::EngineEntry, use_case| E2eCase {
        pipeline,
        engine: e.key,
        id: e.engine,
        use_case,
        inputs: Arc::clone(&inputs),
    };
    let mut cases = Vec::new();
    for e in &ENGINES {
        // `run_neuro` goes end to end wherever the engine can.
        cases.push(case("neuro", e, UseCase::NeuroSteps));
    }
    let mut skipped = Vec::new();
    for e in &ENGINES {
        if e.astro_e2e.is_runnable() {
            cases.push(case("astro", e, UseCase::AstroE2e));
        } else if e.astro_coadd.is_runnable() {
            cases.push(case("astro", e, UseCase::AstroCoadd));
        } else {
            skipped.push(E2eSkip {
                pipeline: "astro",
                engine: e.key,
                status: e.astro_e2e.to_string(),
            });
        }
    }
    (cases, skipped)
}

/// A whole `scibench bench e2e` run.
#[derive(Debug, Clone)]
pub struct E2eRun {
    /// One row per runnable pipeline/engine case.
    pub results: Vec<E2eResult>,
    /// The combinations the paper reports as absent.
    pub skipped: Vec<E2eSkip>,
    /// Acceptance failures (empty on a green run).
    pub violations: Vec<String>,
}

/// Run `case` once under `mode`, returning (fingerprint, copy delta, ms).
fn measure(case: &E2eCase, mode: CopyMode) -> (u64, CopyStats, f64) {
    with_copy_mode(mode, || {
        let before = CopyCounter::snapshot();
        let t = Instant::now();
        let fp = case.run();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        (fp, CopyCounter::snapshot().since(&before), ms)
    })
}

/// Run the whole matrix: every case under the eager baseline, then under
/// the shared data plane, asserting fingerprint equality between modes.
pub fn run_e2e(quick: bool) -> E2eRun {
    let (cases, skipped) = suite(quick);
    let mut results = Vec::new();
    for case in &cases {
        let (fp_eager, eager, ms_before) = measure(case, CopyMode::Eager);
        let (fp_shared, shared, ms_after) = measure(case, CopyMode::Shared);
        let copy_drop = if eager.copies > 0 {
            1.0 - shared.copies as f64 / eager.copies as f64
        } else {
            0.0
        };
        results.push(E2eResult {
            pipeline: case.pipeline,
            engine: case.engine,
            copies_before: eager.copies,
            bytes_before: eager.bytes,
            ms_before,
            copies_after: shared.copies,
            bytes_after: shared.bytes,
            ms_after,
            copy_drop,
            reasons_after: shared
                .by_reason
                .iter()
                .map(|(k, v)| (k.clone(), v.copies))
                .collect(),
            outputs_identical: fp_eager == fp_shared,
        });
    }
    E2eRun {
        violations: violations(&results),
        results,
        skipped,
    }
}

/// The e2e gate: eager and shared runs must agree bit for bit.
fn violations(results: &[E2eResult]) -> Vec<String> {
    results
        .iter()
        .filter(|r| !r.outputs_identical)
        .map(|r| format!("{}/{} diverged between copy modes", r.pipeline, r.engine))
        .collect()
}

/// Render an e2e run as the `BENCH_e2e.json` document
/// (schema `scibench-bench-e2e/v1`).
pub fn results_to_json(run: &E2eRun, host_parallelism: usize, quick: bool) -> String {
    let results = run.results.iter().map(|r| {
        let reasons = r
            .reasons_after
            .iter()
            .map(|(k, v)| (k.as_str(), Json::from(*v)));
        obj([
            ("pipeline", r.pipeline.into()),
            ("engine", r.engine.into()),
            ("copies_before", r.copies_before.into()),
            ("bytes_before", r.bytes_before.into()),
            ("ms_before", float(r.ms_before, 2)),
            ("copies_after", r.copies_after.into()),
            ("bytes_after", r.bytes_after.into()),
            ("ms_after", float(r.ms_after, 2)),
            ("copy_drop", float(r.copy_drop, 4)),
            ("outputs_identical", r.outputs_identical.into()),
            ("reasons_after", obj(reasons)),
        ])
    });
    let skipped = run.skipped.iter().map(|s| {
        obj([
            ("pipeline", s.pipeline.into()),
            ("engine", s.engine.into()),
            ("status", s.status.as_str().into()),
        ])
    });
    obj([
        ("schema", "scibench-bench-e2e/v1".into()),
        ("host", crate::hostinfo::host_block(host_parallelism)),
        ("quick", quick.into()),
        ("results", arr(results)),
        ("skipped", arr(skipped)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_all_five_engines_on_neuro_and_documents_astro_gaps() {
        let (cases, skipped) = suite(true);
        let neuro: Vec<&str> = cases
            .iter()
            .filter(|c| c.pipeline == "neuro")
            .map(|c| c.engine)
            .collect();
        assert_eq!(neuro, ["spark", "myria", "dask", "tensorflow", "scidb"]);
        let astro: Vec<&str> = cases
            .iter()
            .filter(|c| c.pipeline == "astro")
            .map(|c| c.engine)
            .collect();
        assert_eq!(astro, ["spark", "myria", "scidb"]);
        assert!(skipped
            .iter()
            .any(|s| s.pipeline == "astro" && s.engine == "dask"));
        assert!(skipped
            .iter()
            .any(|s| s.pipeline == "astro" && s.engine == "tensorflow"));
    }

    fn sample_result() -> E2eResult {
        E2eResult {
            pipeline: "neuro",
            engine: "spark",
            copies_before: 100,
            bytes_before: 800_000,
            ms_before: 12.5,
            copies_after: 10,
            bytes_after: 80_000,
            ms_after: 9.0,
            copy_drop: 0.9,
            reasons_after: vec![("cow".to_string(), 10)],
            outputs_identical: true,
        }
    }

    #[test]
    fn gate_flags_a_fingerprint_divergence() {
        let mut diverged = sample_result();
        diverged.outputs_identical = false;
        assert!(violations(&[sample_result()]).is_empty());
        assert_eq!(
            violations(&[sample_result(), diverged]),
            ["neuro/spark diverged between copy modes"]
        );
    }

    #[test]
    fn json_schema_and_fields_are_stable() {
        let results = vec![sample_result()];
        let skipped = vec![E2eSkip {
            pipeline: "astro",
            engine: "dask",
            status: "frozen".to_string(),
        }];
        let run = E2eRun {
            results,
            skipped,
            violations: Vec::new(),
        };
        let json = results_to_json(&run, 1, true);
        assert!(json.contains("\"schema\": \"scibench-bench-e2e/v1\""));
        assert!(json.contains("\"single_core_host\": true"));
        assert!(json.contains("\"copies_before\": 100"));
        assert!(json.contains("\"copy_drop\": 0.9000"));
        assert!(json.contains("\"reasons_after\": {\"cow\": 10}"));
        assert!(json.contains("\"skipped\""));
        assert!(!json.contains(",\n  ]"), "no trailing comma:\n{json}");
    }
}
