//! Static-verification sweep: every shipped lowering, across the paper's
//! full data-size sweeps at 16 and 64 nodes, must produce a
//! `plancheck`-clean task graph — zero error-severity findings — with one
//! documented exception: Myria's pipelined astronomy configuration at 24
//! visits on 16 nodes (Figure 15) MUST trip the memory-budget pass, and
//! its disk-backed fallbacks must not. This pins the paper's OOM story to
//! the static checker, not just to the simulator.

use engine_rel::ExecutionMode;
use plancheck::{check, Code};
use scibench_core::experiments::Setup;
use scibench_core::lower::{astro, Engine};
use scibench_core::plans::{shipped_configs, ShippedConfig};
use scibench_core::workload::AstroWorkload;

fn is_memory(code: Code) -> bool {
    matches!(code, Code::M001 | Code::M002 | Code::M003 | Code::M004)
}

/// Check every shipped configuration of `family`: clean, except that a
/// memory-expected one must carry M001 and nothing but memory errors.
fn sweep(family: &str) -> Vec<ShippedConfig> {
    let setup = Setup::default();
    let configs: Vec<ShippedConfig> = shipped_configs(&setup)
        .into_iter()
        .filter(|c| c.family == family)
        .collect();
    for c in &configs {
        let report = check(&c.graph, &c.cluster, &setup.profiles.invariants(c.engine));
        let name = &c.name;
        if c.memory_expected {
            assert!(
                report.has(Code::M001),
                "{name} must statically reproduce the Figure 15 OOM"
            );
            assert!(
                report.errors().all(|d| is_memory(d.code)),
                "{name} may only carry memory errors"
            );
        } else {
            let clean = report.errors().next().is_none();
            assert!(
                clean,
                "{name} should lint clean:\n{}",
                report.render_table()
            );
        }
    }
    configs
}

#[test]
fn catalog_covers_the_full_evaluation_matrix() {
    let configs = shipped_configs(&Setup::default());
    assert_eq!(configs.len(), 137);
    let fam = |f: &str| configs.iter().filter(|c| c.family == f).count();
    assert_eq!(fam("neuro"), 60);
    assert_eq!(fam("astro"), 50);
    assert_eq!(fam("ingest"), 12);
    assert_eq!(fam("steps"), 15);
    assert_eq!(
        configs.iter().filter(|c| c.memory_expected).count(),
        1,
        "exactly the Figure 15 configuration expects an OOM"
    );
}

#[test]
fn neuro_sweep_is_clean_for_every_engine() {
    let configs = sweep("neuro");
    for engine in Engine::all() {
        assert!(configs.iter().any(|c| c.engine == engine), "{engine:?}");
    }
}

#[test]
fn astro_sweep_reproduces_figure_15_and_nothing_else() {
    // Only the full-scale pipelined plan on 16 nodes may (and must)
    // overrun: two ~31 GB coadd stacks land on one node.
    let oom: Vec<String> = sweep("astro")
        .into_iter()
        .filter(|c| c.memory_expected)
        .map(|c| c.name.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect();
    assert_eq!(oom, ["astro pipelined Myria visits=24 nodes=16"]);
    let setup = Setup::default();
    let cluster = setup.cluster_for(Engine::Myria, 16);
    let w = AstroWorkload { visits: 24 };
    let (_, strict) = astro::myria(
        &w,
        &setup.cm,
        &setup.profiles,
        &cluster,
        ExecutionMode::Pipelined,
    );
    assert!(strict, "pipelined execution has no spill fallback");
}

#[test]
fn ingest_sweep_is_clean_for_all_six_systems() {
    assert_eq!(sweep("ingest").len(), 12, "six systems at two node counts");
}
