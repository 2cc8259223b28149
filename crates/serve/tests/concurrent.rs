//! Concurrent-determinism contract for the resident service: N clients
//! replaying the same schedule concurrently must receive byte-identical
//! responses to a serial replay — hits, misses, interleavings and
//! evictions may differ, payload bytes may not.

use std::path::Path;

use parexec::Parallelism;
use scibench_core::lower::Engine;
use sciserve::{demo_catalog, Pipeline, QueryDesc, ServeOutcome, Server};

fn server(par: Parallelism) -> Server {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/serve sits two levels below the workspace root");
    let purity = scilint::purity::analyze_workspace(root).expect("workspace readable");
    Server::new(demo_catalog(true), purity).with_parallelism(par)
}

/// A small mixed schedule: repeated hot queries, a cold prefix-sharing
/// chain, an uncertified fixture and a rejected plan, interleaved.
fn schedule() -> Vec<QueryDesc> {
    let base = [
        QueryDesc::new(Engine::Spark, Pipeline::NeuroSegment, "dmri", 1),
        QueryDesc::new(Engine::Dask, Pipeline::NeuroSegment, "dmri", 1),
        QueryDesc::new(Engine::Spark, Pipeline::NeuroDenoise, "dmri", 1),
        QueryDesc::new(Engine::Spark, Pipeline::FixtureAmbient, "dmri", 1),
        QueryDesc::new(Engine::Spark, Pipeline::NeuroSegment, "dmri", 2),
        QueryDesc::new(Engine::TensorFlow, Pipeline::NeuroFa, "dmri", 1),
    ];
    (0..4).flat_map(|_| base.iter().cloned()).collect()
}

fn fingerprints(outcomes: &[ServeOutcome]) -> Vec<Option<u64>> {
    outcomes
        .iter()
        .map(|o| o.response().map(|r| r.fingerprint))
        .collect()
}

#[test]
fn concurrent_replay_matches_serial_byte_for_byte() {
    let schedule = schedule();
    let serial = server(Parallelism::Serial);
    let serial_out = serial.serve_batch(&schedule);

    let concurrent = server(Parallelism::threads(4));
    let concurrent_out = concurrent.serve_batch(&schedule);

    assert_eq!(serial_out.len(), concurrent_out.len());
    assert_eq!(
        fingerprints(&serial_out),
        fingerprints(&concurrent_out),
        "concurrent replay must be byte-identical to serial"
    );
    // The same requests must be rejected in both worlds.
    for (s, c) in serial_out.iter().zip(&concurrent_out) {
        assert_eq!(s.is_rejected(), c.is_rejected());
    }
    // The concurrent server really did share its cache: far fewer misses
    // than requests.
    let stats = concurrent.cache_stats();
    assert!(stats.hits > 0, "repeated queries must hit");
    assert!(stats.misses < schedule.len() as u64);
}

#[test]
fn concurrent_cache_off_replay_is_also_deterministic() {
    let schedule = schedule();
    let on = server(Parallelism::threads(4));
    let off = server(Parallelism::threads(4)).with_caching(false);
    assert_eq!(
        fingerprints(&on.serve_batch(&schedule)),
        fingerprints(&off.serve_batch(&schedule)),
        "the cache must never change a single payload byte"
    );
    assert_eq!(off.cache_len(), 0);
}

#[test]
fn concurrent_requests_under_different_compress_modes_stay_bit_identical() {
    use marray::{compress_mode, with_compress_mode, CodecCounter, CompressMode};
    use std::sync::Barrier;

    let q = QueryDesc::new(Engine::Spark, Pipeline::AstroFull, "hits", 1);
    let servers = [server(Parallelism::Serial), server(Parallelism::Serial)];
    // Both requests start together, so their runs overlap.
    let start = Barrier::new(2);
    let serve = |srv: &Server, mode| {
        with_compress_mode(mode, || {
            start.wait();
            let before = CodecCounter::snapshot();
            let out = srv.serve_one(&q);
            let encodes: u64 = CodecCounter::snapshot()
                .since(&before)
                .by_codec
                .values()
                .map(|s| s.encodes)
                .sum();
            (
                out.response().map(|r| r.fingerprint),
                encodes,
                compress_mode(),
            )
        })
    };
    let (off, auto) = std::thread::scope(|s| {
        let off = s.spawn(|| serve(&servers[0], CompressMode::Off));
        let auto = serve(&servers[1], CompressMode::Auto);
        (off.join().expect("Off request"), auto)
    });
    assert!(off.0.is_some(), "the query is served");
    assert_eq!(off.0, auto.0, "compression must not change a payload bit");
    assert_eq!(off.1, 0, "no encodes under CompressMode::Off");
    assert!(auto.1 > 0, "CompressMode::Auto encodes the mask planes");
    assert_eq!((off.2, auto.2), (CompressMode::Off, CompressMode::Auto));
}
