//! `perfbench`: the repository benchmark.
//!
//! One command runs one seeded workload against the workspace's public
//! crate APIs, checks every output, and prints one JSON result line:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload neuro-batch --seed 1 --seconds 12 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` reports the
//! per-layer metrics, read from spans the benchmark records around its
//! calls into each layer and from the program's public ledgers. Metric
//! names, units and directions live in [`metrics`] and must match
//! `BENCHMARK.json` (a unit test enforces it). See `perfbench/README.md`.

mod batch;
mod host;
mod metrics;
mod serve;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use metrics::Values;

/// The benchmark's workloads (see README.md for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Dense, kernel-bound dMRI passes on every neuro engine analog.
    NeuroBatch,
    /// Many small astronomy kernels over runny mask/variance planes.
    AstroBatch,
    /// A resident service whose working set fits the result cache.
    ServeHot,
    /// A resident service whose working set overflows cache and memory.
    ServeChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::NeuroBatch,
        Workload::AstroBatch,
        Workload::ServeHot,
        Workload::ServeChurn,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NeuroBatch => "neuro-batch",
            Workload::AstroBatch => "astro-batch",
            Workload::ServeHot => "serve-hot",
            Workload::ServeChurn => "serve-churn",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed: the same seed generates the same inputs.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Report per-layer metrics from a traced run instead of end-to-end.
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <neuro-batch|astro-batch|serve-hot|serve-churn> \
     --seed <u64> --seconds <1..=600> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("bad --seed `{value}`: {e}"))?,
                );
            }
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|e| format!("bad --seconds `{value}`: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=600"));
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The workspace root: the benchmark package sits one level below it.
/// Serve set-up runs the purity analysis over the workspace sources.
pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the workspace")
        .to_path_buf()
}

/// What a workload run hands back to `main`.
pub struct Outcome {
    /// Operations and checks attempted, and the failures among them.
    pub checks: util::Checks,
    /// Every metric the run measured, by name.
    pub values: Values,
    /// Workload-specific provenance (engine worker counts, budgets, ...).
    pub provenance: Vec<(&'static str, String)>,
    /// Spans recorded by a traced run (empty otherwise).
    pub tracer: trace::Tracer,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The memory governor's spill file goes to the temp directory; keep
    // it, like every other file the run writes, inside the checkout.
    // Set before any thread starts.
    let tmp = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out/tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    std::env::set_var("TMPDIR", &tmp);
    let workers = util::workers();
    let mut out = match args.workload {
        Workload::NeuroBatch => batch::run_neuro(&args, workers),
        Workload::AstroBatch => batch::run_astro(&args, workers),
        Workload::ServeHot => serve::run(&args, workers, serve::Kind::Hot),
        Workload::ServeChurn => serve::run(&args, workers, serve::Kind::Churn),
    };
    if !args.trace {
        out.values.set("peak_rss_mb", host::peak_rss_mib());
    }
    let attempted = out.checks.attempted();
    let failed = out.checks.failed();
    out.values
        .set("fail_ratio", failed as f64 / attempted.max(1) as f64);

    let provenance = host::provenance(&args, workers, &out.provenance);
    println!("{{\"provenance\": {provenance}}}");
    if args.trace {
        match out.tracer.write(&args, &provenance) {
            Ok(path) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: writing spans failed: {e}");
                out.checks.fail("span file write".to_string());
            }
        }
    }
    let (line, missing) = metrics::result_line(&out.checks, &out.values, args.trace);
    for m in &missing {
        eprintln!("perfbench: end-to-end metric `{m}` was not measured");
    }
    for f in out.checks.failures() {
        eprintln!("perfbench: FAILED: {f}");
    }
    println!("{line}");
    if out.checks.failed() == 0 && missing.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv(
            "--workload serve-churn --seed 7 --seconds 12 --trace 1",
        ))
        .expect("valid");
        assert_eq!(a.workload, Workload::ServeChurn);
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, Duration::from_secs(12));
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload serve-hot --seed x --seconds 1 --trace 0",
            "--workload serve-hot --seed 1 --seconds 0 --trace 0",
            "--workload serve-hot --seed 1 --seconds 1 --trace 2",
            "--workload serve-hot --seed 1 --seconds 1",
            "--workload serve-hot --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted `{bad}`");
        }
    }
}
