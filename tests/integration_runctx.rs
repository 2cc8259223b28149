//! Run scoping: a run's copy mode and copy ledger belong to the run, not
//! to the process. A scoped run sees only the copies it (and the workers
//! it spawns) makes, whatever other threads do meanwhile, and every
//! engine's worker threads join the run that spawned them.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use scibench::engine_rdd::SparkContext;
use scibench::engine_rel::{MyriaConnection, Query, Schema, Value, ValueType};
use scibench::engine_taskgraph::DaskClient;
use scibench::marray::{copy_mode, with_copy_mode, CopyCounter, CopyMode, NdArray};

/// One copy-on-write unshare: clone a buffer, then write through it.
fn cow_copy() {
    let a = NdArray::full(&[8], 0.0f64);
    let mut b = a.clone();
    b.data_mut()[0] = 1.0;
}

#[test]
fn a_scoped_run_does_not_see_copies_made_on_other_threads() {
    const N: u64 = 24;
    const M: u64 = 3;
    // Two rendezvous points fix the interleaving: thread B's N copies
    // land strictly between thread A's two snapshots.
    let barrier = Barrier::new(2);
    let (delta, (root_delta, b_mode)) = thread::scope(|s| {
        let b = s.spawn(|| {
            let root0 = CopyCounter::snapshot();
            barrier.wait();
            let mode = copy_mode();
            for _ in 0..N {
                cow_copy();
            }
            barrier.wait();
            (CopyCounter::snapshot().since(&root0), mode)
        });
        let delta = with_copy_mode(CopyMode::Eager, || {
            let before = CopyCounter::snapshot();
            barrier.wait();
            for _ in 0..M {
                let a = NdArray::full(&[8], 0.0f64);
                let _eager = a.clone();
            }
            barrier.wait();
            CopyCounter::snapshot().since(&before)
        });
        (delta, b.join().expect("thread B"))
    });
    assert_eq!(
        b_mode,
        CopyMode::Shared,
        "A's Eager mode leaked to thread B"
    );
    assert_eq!(
        delta.copies, M,
        "A's delta {delta:?} counts copies made by B"
    );
    assert_eq!(delta.by_reason.keys().collect::<Vec<_>>(), ["eager-clone"]);
    // The root ledger still totals the process: B's copies and A's.
    assert!(root_delta.copies >= N + M, "root delta {root_delta:?}");
    assert!(root_delta.by_reason["cow"].copies >= N);
}

/// Runs the work item `n` times on one engine's worker threads.
type SpawnSite = fn(Arc<dyn Fn() + Send + Sync>, usize);

fn parexec_pool(work: Arc<dyn Fn() + Send + Sync>, n: usize) {
    let items: Vec<usize> = (0..n).collect();
    parexec::par_map_slabs(&items, parexec::Parallelism::threads(2), |_, _| work());
}

fn rdd_collect(work: Arc<dyn Fn() + Send + Sync>, n: usize) {
    let rdd = SparkContext::new(2).parallelize((0..n).collect::<Vec<_>>(), 4);
    let out = rdd.map(move |_| work()).collect();
    assert_eq!(out.len(), n);
}

fn rel_query(work: Arc<dyn Fn() + Send + Sync>, n: usize) {
    let conn = MyriaConnection::connect(1, 2);
    let rows = (0..n).map(|i| vec![Value::Int(i as i64)]).collect();
    conn.ingest("T", Schema::new(&[("k", ValueType::Int)]), rows, 0);
    conn.create_function("Work", move |_| {
        work();
        Value::Int(0)
    });
    let out = Query::scan("T")
        .apply("Work", &["k"], &["k"], "w", ValueType::Int)
        .execute(&conn)
        .expect("query runs");
    assert_eq!(out.len(), n);
}

fn taskgraph_client(work: Arc<dyn Fn() + Send + Sync>, n: usize) {
    let client = DaskClient::new(2);
    let tasks: Vec<_> = (0..n)
        .map(|_| {
            let work = Arc::clone(&work);
            client.delayed(move || work())
        })
        .collect();
    assert_eq!(client.compute_many(&tasks).len(), n);
}

#[test]
fn worker_copies_are_charged_to_the_run_that_spawned_them() {
    const N: usize = 16;
    let sites: [(&str, SpawnSite); 4] = [
        ("parexec pool", parexec_pool),
        ("rdd collect", rdd_collect),
        ("rel query", rel_query),
        ("taskgraph client", taskgraph_client),
    ];
    for (name, site) in sites {
        let src = NdArray::full(&[16], 1.0f64);
        let caller = thread::current().id();
        let off_thread = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&off_thread);
        // Under the run's Eager mode each clone is one counted deep copy.
        let work: Arc<dyn Fn() + Send + Sync> = Arc::new(move || {
            let _copy = src.clone();
            if thread::current().id() != caller {
                seen.fetch_add(1, Ordering::Relaxed);
            }
        });
        let delta = with_copy_mode(CopyMode::Eager, || {
            let before = CopyCounter::snapshot();
            site(work, N);
            CopyCounter::snapshot().since(&before)
        });
        assert!(
            off_thread.load(Ordering::Relaxed) > 0,
            "{name}: no item ran on a worker thread"
        );
        let eager = delta.by_reason.get("eager-clone").map_or(0, |r| r.copies);
        assert_eq!(eager, N as u64, "{name}: {delta:?}");
    }
}
