//! The serve workloads: closed-loop clients against one resident
//! [`sciserve::Server`].
//!
//! - `serve-hot`: a demo-style catalog and the 12-query `bench serve`
//!   mix with its fixed weights. The result cache holds the whole working
//!   set and a warm-up pass over every distinct query is part of set-up,
//!   so the timed phase is memo probes, the plan cache and client
//!   concurrency. The mix keeps the uncertified fixture (always bypasses)
//!   and the Figure 15 plan (refused at admission, refusal cached).
//! - `serve-churn`: six versions of the dMRI pair and of the deep
//!   survey give 42 distinct queries drawn Zipf(1). The result cache
//!   (1 MiB) is far below the distinct working set, and a 256 KiB
//!   process memory budget is set, so the Figure 15 plan is admitted and
//!   runs through the spill tier: misses, inserts, evictions, the
//!   governor valve and spill/reload. Its untraced timed phase has one
//!   client (see [`timed_clients`]).
//!
//! Every response is checked against a cache-off serial computation made
//! during set-up.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use marray::{CopyCounter, MemoryGovernor, NdArray};
use parexec::{MorselPool, Parallelism};
use plancheck::combine_fingerprints;
use scibench_core::experiments::{tuned_partitions, Setup};
use scibench_core::lower::Engine;
use scibench_core::lower::{astro as lower_astro, neuro as lower_neuro, steps as lower_steps};
use scibench_core::usecases::neuro::Subject;
use scibench_core::workload::{AstroWorkload, NeuroWorkload};
use scilint::purity::PurityTable;
use scimemo::{MemoStats, SharedMemoTable};
use sciops::synth::dmri::{DmriPhantom, DmriSpec};
use sciops::synth::sky::{SkySpec, SkySurvey};
use sciserve::{AstroMode, Catalog, DatasetPayload, Pipeline, QueryDesc, ServeOutcome, Server};
use simcluster::TaskGraph;

use crate::batch::morsel_call_us;
use crate::host::mib;
use crate::metrics::Values;
use crate::trace::Tracer;
use crate::util::{derive_seed, median, percentile, ratio, sorted, tail_quantile, Checks, Rng};
use crate::{workspace_root, Args, Outcome};

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Working set inside the result cache.
    Hot,
    /// Working set far beyond the result cache and the memory budget.
    Churn,
}

/// Result-cache budget of `serve-hot`: holds every result.
const HOT_CACHE_BYTES: u64 = 256 << 20;
/// Result-cache budget of `serve-churn`.
const CHURN_CACHE_BYTES: u64 = 1 << 20;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Process memory budget of `serve-churn`.
const CHURN_MEM_BYTES: u64 = 256 << 10;
/// Dataset versions per name in `serve-churn`.
const CHURN_VERSIONS: u32 = 6;

/// How one request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Hit,
    Miss,
    Bypass,
    Refused,
}

fn classify(o: &ServeOutcome) -> Class {
    match o.response() {
        None => Class::Refused,
        Some(r) if r.any_miss() => Class::Miss,
        Some(r) if r.all_hits() => Class::Hit,
        Some(_) => Class::Bypass,
    }
}

/// One distinct query, its draw weight, and what it must return.
struct Query {
    q: QueryDesc,
    weight: f64,
    /// `None`: must be refused. Filled from the cache-off computation.
    expect: Option<u64>,
    /// The query is the uncertified fixture: every stage must bypass.
    fixture: bool,
}

fn figure15(version: u32) -> QueryDesc {
    QueryDesc::new(Engine::Myria, Pipeline::AstroFull, "hits-deep", version)
        .with_mode(AstroMode::Pipelined)
}

/// The distinct queries and their weights.
fn queries(kind: Kind, seed: u64) -> Vec<Query> {
    let q = |engine, pipeline, dataset, version| QueryDesc::new(engine, pipeline, dataset, version);
    let mix: Vec<(QueryDesc, f64)> = match kind {
        // The `bench serve` mix and weights.
        Kind::Hot => vec![
            (q(Engine::Spark, Pipeline::NeuroSegment, "dmri", 1), 18.0),
            (q(Engine::Dask, Pipeline::NeuroSegment, "dmri", 1), 8.0),
            (
                q(Engine::TensorFlow, Pipeline::NeuroSegment, "dmri", 1),
                5.0,
            ),
            (q(Engine::Spark, Pipeline::NeuroDenoise, "dmri", 1), 12.0),
            (q(Engine::Spark, Pipeline::NeuroFa, "dmri", 1), 14.0),
            (q(Engine::Myria, Pipeline::NeuroFa, "dmri", 1), 6.0),
            (q(Engine::Dask, Pipeline::NeuroFa, "dmri", 2), 5.0),
            (q(Engine::Spark, Pipeline::AstroFull, "hits", 1), 10.0),
            (q(Engine::Myria, Pipeline::AstroFull, "hits", 1), 6.0),
            (q(Engine::SciDb, Pipeline::AstroCoadd, "hits-cube", 1), 6.0),
            (q(Engine::Spark, Pipeline::FixtureAmbient, "dmri", 1), 6.0),
            (figure15(1), 4.0),
        ],
        // Seven templates x six versions, Zipf(1) by rank. Ranks cycle
        // through the templates in a fixed order, so each template's
        // share of the load is the same for every seed; the seed picks
        // which version holds each rank. A full miss costs about the same
        // on the four dMRI templates and several times more on the three
        // deep-survey ones, so the median request falls inside the dMRI
        // misses. With cheap misses in the mix (segmentation, the 6-visit
        // survey, the coadd) it fell in the gap between hits and misses,
        // and its interquartile spread over ten runs reached 28%.
        Kind::Churn => {
            let templates: [fn(u32) -> QueryDesc; 7] = [
                |v| QueryDesc::new(Engine::Spark, Pipeline::NeuroDenoise, "dmri", v),
                |v| QueryDesc::new(Engine::Spark, Pipeline::NeuroFa, "dmri", v),
                |v| QueryDesc::new(Engine::Myria, Pipeline::NeuroFa, "dmri", v),
                |v| QueryDesc::new(Engine::Dask, Pipeline::NeuroFa, "dmri", v),
                |v| QueryDesc::new(Engine::Spark, Pipeline::AstroFull, "hits-deep", v),
                |v| QueryDesc::new(Engine::Myria, Pipeline::AstroFull, "hits-deep", v),
                figure15,
            ];
            let mut rng = Rng::new(derive_seed(seed, 4000));
            let mut versions: Vec<u32> = (1..=CHURN_VERSIONS).collect();
            for i in (1..versions.len()).rev() {
                versions.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
            }
            let mut mix = Vec::new();
            for (band, &v) in versions.iter().enumerate() {
                for (t, template) in templates.iter().enumerate() {
                    let rank = band * templates.len() + t + 1;
                    mix.push((template(v), 1.0 / rank as f64));
                }
            }
            mix
        }
    };
    mix.into_iter()
        .map(|(q, weight)| Query {
            fixture: q.pipeline == Pipeline::FixtureAmbient,
            q,
            weight,
            expect: None,
        })
        .collect()
}

/// Generate every dataset of the workload's catalog from the seed.
fn datasets(kind: Kind, seed: u64) -> Vec<(&'static str, u32, DatasetPayload)> {
    let (dmri, others) = match kind {
        Kind::Hot => (2, 1),
        Kind::Churn => (CHURN_VERSIONS, CHURN_VERSIONS),
    };
    let mut out = Vec::new();
    for v in 1..=dmri {
        let spec = DmriSpec::test_scale();
        let subjects: Vec<Subject> = (0..2u32)
            .map(|i| {
                let s = derive_seed(seed, 1000 + u64::from(v) * 10 + u64::from(i));
                Subject::from_phantom(i, &DmriPhantom::generate(s, &spec))
            })
            .collect();
        out.push(("dmri", v, DatasetPayload::Neuro(Arc::new(subjects))));
    }
    for v in 1..=others {
        // `serve-churn` queries only the deep survey.
        if kind == Kind::Hot {
            let survey = SkySurvey::generate(
                derive_seed(seed, 2000 + u64::from(v)),
                &SkySpec::test_scale(),
            );
            let cube = sciserve::cube_for_survey(&survey);
            out.push(("hits", v, DatasetPayload::AstroSurvey(Arc::new(survey))));
            out.push(("hits-cube", v, DatasetPayload::AstroCube(Arc::new(cube))));
        }
        let deep = SkySpec {
            n_visits: 24,
            ..SkySpec::test_scale()
        };
        let survey = SkySurvey::generate(derive_seed(seed, 3000 + u64::from(v)), &deep);
        out.push((
            "hits-deep",
            v,
            DatasetPayload::AstroSurvey(Arc::new(survey)),
        ));
    }
    out
}

fn catalog(data: &[(&'static str, u32, DatasetPayload)]) -> Catalog {
    let mut cat = Catalog::new();
    for (name, v, payload) in data {
        cat.register(name, *v, payload.clone());
    }
    cat
}

/// Everything set-up produces.
struct Ready {
    kind: Kind,
    purity: PurityTable,
    data: Vec<(&'static str, u32, DatasetPayload)>,
    queries: Vec<Query>,
    /// Cumulative draw weights over `queries`.
    cumulative: Vec<f64>,
    server: Server,
    purity_s: f64,
}

/// Clients of the untraced timed phase, which gives the end-to-end
/// metrics. `serve-churn` has one: with `nproc`, a miss's latency
/// depended on whether the other client was computing a miss on the
/// same cores, and `op_p50_ms` spread 30% between runs. The traced run
/// keeps `nproc` clients, so concurrent cold misses still show in
/// `scimemo.redundant_misses` and `serve.concurrency_gain`.
fn timed_clients(kind: Kind, workers: usize) -> usize {
    match kind {
        Kind::Hot => workers,
        Kind::Churn => 1,
    }
}

fn cache_bytes(kind: Kind) -> u64 {
    match kind {
        Kind::Hot => HOT_CACHE_BYTES,
        Kind::Churn => CHURN_CACHE_BYTES,
    }
}

/// A server over `data`. On `serve-hot` one serial pass over every
/// distinct query, each checked, warms its plan cache and result cache.
/// `serve-churn` starts cold, like a restarted service: its cache holds
/// a small share of the results, and warming it would double the set-up
/// cost of the Figure 15 plans.
fn start_server(
    kind: Kind,
    purity: &PurityTable,
    data: &[(&'static str, u32, DatasetPayload)],
    qs: &[Query],
    chk: &mut Checks,
) -> Server {
    let server = Server::new(catalog(data), purity.clone()).with_cache_budget(cache_bytes(kind));
    if kind == Kind::Hot {
        for q in qs {
            let o = server.serve_one(&q.q);
            check(q, &o, chk, "warm-up");
        }
    }
    server
}

/// Purity analysis, catalog, cache-off reference fingerprints, server
/// start and warm-up.
fn setup(kind: Kind, seed: u64, chk: &mut Checks) -> std::io::Result<Ready> {
    let t = Instant::now();
    let purity = scilint::purity::analyze_workspace(&workspace_root())?;
    let purity_s = t.elapsed().as_secs_f64();
    let data = datasets(kind, seed);
    let mut queries = queries(kind, seed);

    let reference = Server::new(catalog(&data), purity.clone()).with_caching(false);
    for q in &mut queries {
        let o = reference.serve_one(&q.q);
        q.expect = o.response().map(|r| r.fingerprint);
        let figure15 = q.q == figure15(q.q.version);
        let refused_ok = match kind {
            Kind::Hot => o.is_rejected() == figure15,
            Kind::Churn => !o.is_rejected(),
        };
        chk.check(refused_ok, || {
            format!(
                "set-up: `{}` refused={} in {kind:?}",
                q.q.key(),
                o.is_rejected()
            )
        });
    }
    drop(reference);

    let server = start_server(kind, &purity, &data, &queries, chk);
    let mut acc = 0.0;
    let cumulative = queries
        .iter()
        .map(|q| {
            acc += q.weight;
            acc
        })
        .collect();
    Ok(Ready {
        kind,
        purity,
        data,
        queries,
        cumulative,
        server,
        purity_s,
    })
}

/// Check one response against the cache-off computation.
fn check(q: &Query, o: &ServeOutcome, chk: &mut Checks, phase: &str) {
    let got = o.response().map(|r| r.fingerprint);
    chk.check(got == q.expect, || {
        format!(
            "{phase}: `{}` returned {got:?}, cache-off computed {:?}",
            q.q.key(),
            q.expect
        )
    });
    if q.fixture {
        let bypassed = o
            .response()
            .is_some_and(|r| r.any_bypass() && !r.any_miss());
        chk.check(bypassed, || {
            format!("{phase}: the uncertified fixture did not bypass")
        });
    }
}

/// One completed request of a traced phase.
#[derive(Clone, Copy)]
struct Req {
    start_ns: u64,
    us: f32,
    query: u16,
    class: Class,
}

/// Latencies kept per client: a uniform sample of at most this many, so
/// the benchmark's own memory stays flat however fast the server is.
const RESERVOIR: usize = 1 << 16;

/// Spans recorded per traced phase, about: request spans are sampled
/// 1-in-k with k set from the untraced phase's request count.
const SPAN_TARGET: u64 = 100_000;

/// How a timed phase records.
#[derive(Clone, Copy)]
struct Recording {
    /// Record a span for every `span_every`-th request.
    span_every: u64,
    /// Keep every request's [`Req`] (traced runs replay them).
    keep_requests: bool,
}

const UNTRACED: Recording = Recording {
    span_every: u64::MAX,
    keep_requests: false,
};

/// A timed phase: a latency sample, the requests in start order (when
/// kept), its wall time, and the cache traffic it caused.
struct Phase {
    count: u64,
    latency_us: Vec<f64>,
    reqs: Vec<Req>,
    wall_s: f64,
    cache: MemoStats,
}

impl Phase {
    fn rps(&self) -> f64 {
        ratio(self.count as f64, self.wall_s)
    }

    fn latencies_us(&self, keep: impl Fn(Class) -> bool) -> Vec<f64> {
        sorted(
            self.reqs
                .iter()
                .filter(|r| keep(r.class))
                .map(|r| f64::from(r.us))
                .collect(),
        )
    }
}

fn stats_since(now: MemoStats, before: MemoStats) -> MemoStats {
    MemoStats {
        hits: now.hits - before.hits,
        misses: now.misses - before.misses,
        bypasses: now.bypasses - before.bypasses,
        evictions: now.evictions - before.evictions,
        evicted_bytes: now.evicted_bytes - before.evicted_bytes,
    }
}

/// What one client thread brings back.
struct ClientLog {
    count: u64,
    sample: Vec<f32>,
    reqs: Vec<Req>,
    chk: Checks,
}

/// Length of one slice of a timed phase. Each slice starts fresh client
/// threads: how two clients contend for the server's shared state
/// depends on where their threads land, which stays fixed for a
/// thread's life, so a phase samples several placements instead of one.
const SLICE: Duration = Duration::from_millis(1000);

/// Run `clients` closed-loop clients for `length`, in slices of about
/// [`SLICE`]; client `c` of slice `s` draws its queries from its own
/// seeded stream.
fn timed_phase(
    r: &Ready,
    seed: u64,
    clients: usize,
    length: Duration,
    tracer: &Tracer,
    rec: Recording,
    chk: &mut Checks,
) -> Phase {
    let epoch = Instant::now();
    let cache0 = r.server.cache_stats();
    let ops = AtomicU64::new(0);
    let client = |stream: u64, until: Duration, mut log: ClientLog| {
        let mut rng = Rng::new(derive_seed(seed, stream));
        while epoch.elapsed() < until {
            let qi = rng.weighted(&r.cumulative);
            let q = &r.queries[qi];
            let op = ops.fetch_add(1, Ordering::Relaxed);
            let start = Instant::now();
            let o = if op.is_multiple_of(rec.span_every) {
                tracer
                    .run("serve.request", op, None, |_| r.server.serve_one(&q.q))
                    .0
            } else {
                r.server.serve_one(&q.q)
            };
            let us = start.elapsed().as_secs_f64() * 1e6;
            let class = classify(&o);
            check(q, &o, &mut log.chk, "timed");
            if r.kind == Kind::Hot && class == Class::Miss {
                log.chk.fail(format!(
                    "timed: `{}` missed a cache that holds every result",
                    q.q.key()
                ));
            }
            // Reservoir sampling (Algorithm R) of the latencies.
            log.count += 1;
            if log.sample.len() < RESERVOIR {
                log.sample.push(us as f32);
            } else {
                let j = rng.next_u64() % log.count;
                if let Some(slot) = log.sample.get_mut(j as usize) {
                    *slot = us as f32;
                }
            }
            if rec.keep_requests {
                log.reqs.push(Req {
                    start_ns: start.duration_since(epoch).as_nanos() as u64,
                    us: us as f32,
                    query: qi as u16,
                    class,
                });
            }
        }
        log
    };
    let mut logs: Vec<ClientLog> = (0..clients)
        .map(|_| ClientLog {
            count: 0,
            sample: Vec::with_capacity(RESERVOIR),
            reqs: Vec::new(),
            chk: Checks::default(),
        })
        .collect();
    let slices = (length.as_secs_f64() / SLICE.as_secs_f64())
        .round()
        .max(1.0) as u32;
    for s in 1..=slices {
        let until = length * s / slices;
        logs = std::thread::scope(|scope| {
            let handles: Vec<_> = logs
                .into_iter()
                .enumerate()
                .map(|(c, log)| {
                    let stream = 5000 + u64::from(s) * 64 + c as u64;
                    scope.spawn(move || client(stream, until, log))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a client thread panicked"))
                .collect()
        });
    }
    let wall_s = epoch.elapsed().as_secs_f64();
    let mut phase = Phase {
        count: 0,
        latency_us: Vec::new(),
        reqs: Vec::new(),
        wall_s,
        cache: stats_since(r.server.cache_stats(), cache0),
    };
    for log in logs {
        phase.count += log.count;
        phase
            .latency_us
            .extend(log.sample.iter().map(|&us| f64::from(us)));
        phase.reqs.extend(log.reqs);
        chk.merge(log.chk);
    }
    phase.latency_us = sorted(phase.latency_us);
    phase.reqs.sort_by_key(|r| r.start_ns);
    phase
}

/// Run `serve-hot` or `serve-churn`.
pub fn run(args: &Args, workers: usize, kind: Kind) -> Outcome {
    if kind == Kind::Churn {
        marray::set_mem_budget(Some(CHURN_MEM_BYTES));
    }
    let mut checks = Checks::default();
    let mut values = Values::default();
    let tracer = Tracer::new(false);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut purity_s = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for _ in 0..SETUPS {
        drop(ready.take());
        let t = Instant::now();
        match setup(kind, args.seed, &mut checks) {
            Ok(r) => {
                purity_s.push(r.purity_s);
                ready = Some(r);
            }
            Err(e) => {
                checks.fail(format!("set-up: workspace purity analysis failed: {e}"));
                return Outcome {
                    checks,
                    values,
                    provenance: Vec::new(),
                    tracer,
                };
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let r = ready.expect("at least one set-up");
    values.set("setup_s", median(&setup_s));

    if args.trace {
        traced(args, workers, &r, &tracer, &mut checks, &mut values);
        values.set("scilint.purity_s", median(&purity_s));
    } else {
        let phase = timed_phase(
            &r,
            args.seed,
            timed_clients(kind, workers),
            args.seconds,
            &tracer,
            UNTRACED,
            &mut checks,
        );
        values.set("ops_per_s", phase.rps());
        values.set("op_p50_ms", percentile(&phase.latency_us, 0.5) / 1e3);
        let tail = tail_quantile(phase.count);
        values.set("op_tail_ms", percentile(&phase.latency_us, tail) / 1e3);
    }
    let provenance = vec![
        (
            "clients",
            format!(
                "{} closed-loop ({workers} in the traced run)",
                timed_clients(kind, workers)
            ),
        ),
        ("distinct_queries", r.queries.len().to_string()),
        ("result_cache_budget_bytes", cache_bytes(kind).to_string()),
        (
            "memory_budget",
            marray::mem_budget().map_or("none".to_string(), |b| format!("{b} bytes")),
        ),
        ("setups", SETUPS.to_string()),
        (
            "engine_workers",
            "fixed by the server's analog shapes (spark 6, myria 4x1, scidb 4)".to_string(),
        ),
    ];
    Outcome {
        checks,
        values,
        provenance,
        tracer,
    }
}

/// The traced run: an unrecorded half and a recorded half of the timed
/// phase, a one-client replay of the recorded half, and direct layer
/// measurements.
fn traced(
    args: &Args,
    workers: usize,
    r: &Ready,
    tracer: &Tracer,
    chk: &mut Checks,
    values: &mut Values,
) {
    let half = args.seconds / 2;
    let plain = timed_phase(r, args.seed, workers, half, tracer, UNTRACED, chk);
    let rec = Recording {
        span_every: (plain.count / SPAN_TARGET).max(1),
        keep_requests: true,
    };
    tracer.set_recording(true);
    let gov0 = MemoryGovernor::snapshot();
    MemoryGovernor::reset_peak();
    let phase = timed_phase(
        r,
        derive_seed(args.seed, 1),
        workers,
        half,
        tracer,
        rec,
        chk,
    );
    let gov = MemoryGovernor::snapshot().since(&gov0);
    tracer.set_recording(false);

    values.set("trace.overhead", ratio(plain.rps(), phase.rps()) - 1.0);
    // Sampled spans stand for `span_every` requests each.
    let busy: f64 =
        tracer.durations_ms("serve.request").iter().sum::<f64>() / 1e3 * rec.span_every as f64;
    values.set("trace.coverage", ratio(busy, workers as f64 * phase.wall_s));
    let hits = phase.latencies_us(|c| c == Class::Hit);
    let hit_p50 = percentile(&hits, 0.5);
    values.set("hit_p50_us", hit_p50);
    values.set(
        "miss_p50_us",
        percentile(&phase.latencies_us(|c| c == Class::Miss), 0.5),
    );

    let c = phase.cache;
    values.set("scimemo.probes", (c.hits + c.misses + c.bypasses) as f64);
    values.set("scimemo.hits", c.hits as f64);
    values.set("scimemo.misses", c.misses as f64);
    values.set("scimemo.bypasses", c.bypasses as f64);
    values.set("scimemo.evictions", c.evictions as f64);
    values.set("scimemo.evicted_mb", mib(c.evicted_bytes));
    values.set(
        "scimemo.hit_ratio",
        ratio(c.hits as f64, (c.hits + c.misses) as f64),
    );
    values.set("serve.resident_mb", mib(r.server.cache_bytes()));
    values.set("marray.spill.spills", gov.spills as f64);
    values.set("marray.spill.reloads", gov.reloads as f64);
    values.set("marray.spill.spilled_mb", mib(gov.spilled_bytes));
    values.set("marray.spill.reloaded_mb", mib(gov.reloaded_bytes));
    values.set("marray.spill.peak_resident_mb", mib(gov.peak_resident));

    // One client replaying the recorded half's requests in start order
    // on a freshly started server: the serial baseline for concurrency
    // gain and for misses that only concurrency causes.
    let replay = start_server(r.kind, &r.purity, &r.data, &r.queries, chk);
    let mut hit_copies = 0u64;
    let mut hit_stages = Vec::new();
    let start = Instant::now();
    let mut replayed = 0usize;
    let mut replay_misses = 0usize;
    for req in &phase.reqs {
        if start.elapsed() >= half {
            break;
        }
        let q = &r.queries[usize::from(req.query)];
        let before = CopyCounter::snapshot();
        let o = replay.serve_one(&q.q);
        let copies = CopyCounter::snapshot().since(&before).copies;
        let class = classify(&o);
        replay_misses += usize::from(class == Class::Miss);
        if class == Class::Hit {
            hit_copies += copies;
            hit_stages.push(o.response().map_or(0, |r| r.stages.len()) as f64);
        }
        check(q, &o, chk, "replay");
        replayed += 1;
    }
    let replay_s = start.elapsed().as_secs_f64();
    drop(replay);
    let concurrent_misses = phase.reqs[..replayed]
        .iter()
        .filter(|q| q.class == Class::Miss)
        .count() as f64;
    let rps_1 = ratio(replayed as f64, replay_s);
    values.set("serve.rps_1client", rps_1);
    values.set("serve.concurrency_gain", ratio(plain.rps(), rps_1));
    values.set(
        "scimemo.redundant_misses",
        concurrent_misses - replay_misses as f64,
    );
    values.set("marray.copies.serve_hit", hit_copies as f64);

    let probe_ns = memo_probe_ns();
    values.set("scimemo.probe_ns", probe_ns);
    let stages = if hit_stages.is_empty() {
        0.0
    } else {
        hit_stages.iter().sum::<f64>() / hit_stages.len() as f64
    };
    values.set("serve.hit_self_us", hit_p50 - stages * probe_ns / 1e3);

    let (check_us, refused) = admission(r);
    values.set("plancheck.check_us", check_us);
    values.set("plancheck.refused", refused as f64);

    values.set("parexec.call_us", morsel_call_us(workers));
    let batch: Vec<QueryDesc> = phase
        .reqs
        .iter()
        .take(8 * workers)
        .map(|q| r.queries[usize::from(q.query)].q.clone())
        .collect();
    let pool = MorselPool::new(Parallelism::threads(workers));
    let (outs, stats) = pool.map_with_stats(&batch, |_, q| r.server.serve_one(q));
    for (q, o) in batch.iter().zip(&outs) {
        let query = r
            .queries
            .iter()
            .find(|x| &x.q == q)
            .expect("drawn from the mix");
        check(query, o, chk, "pool batch");
    }
    values.set("parexec.pool.steals", stats.steals as f64);
    values.set("parexec.pool.imbalance", stats.imbalance());

    if marray::mem_budget().is_some() {
        values.set("marray.spill.roundtrip_mb_s", spill_roundtrip_mib_s());
    }
}

/// Median nanoseconds of one hit on a [`SharedMemoTable`].
fn memo_probe_ns() -> f64 {
    let table: SharedMemoTable<u64> = SharedMemoTable::new();
    let key = combine_fingerprints(1, 2);
    table.get_or_compute(key, true, || 7, |_| 8);
    let mut ns = Vec::with_capacity(50);
    for _ in 0..50 {
        let t = Instant::now();
        for _ in 0..1000 {
            std::hint::black_box(table.get_or_compute(
                std::hint::black_box(key),
                true,
                || 0,
                |_| 8,
            ));
        }
        ns.push(t.elapsed().as_nanos() as f64 / 1000.0);
    }
    median(&ns)
}

/// Lower every distinct query's stage graphs as the server does and time
/// `plancheck::check` on each. Returns (median µs per check, distinct
/// queries with at least one refused graph).
fn admission(r: &Ready) -> (f64, usize) {
    let setup = Setup::default();
    let cat = catalog(&r.data);
    let mut us = Vec::new();
    let mut refused = 0;
    for q in &r.queries {
        let q = &q.q;
        let cluster = setup.cluster_for(q.engine, q.nodes);
        let mut inv = setup.profiles.invariants(q.engine);
        inv.spills = marray::mem_budget().is_some();
        let mut any_error = false;
        for g in stage_graphs(&setup, q, &cat) {
            let t = Instant::now();
            let report = plancheck::check(&g, &cluster, &inv);
            us.push(t.elapsed().as_secs_f64() * 1e6);
            any_error |= report.errors().count() > 0;
        }
        refused += usize::from(any_error);
    }
    (median(&us), refused)
}

/// The graphs the server lowers for `q`, in stage order.
fn stage_graphs(setup: &Setup, q: &QueryDesc, cat: &Catalog) -> Vec<TaskGraph> {
    let cluster = setup.cluster_for(q.engine, q.nodes);
    let (cm, profiles) = (&setup.cm, &setup.profiles);
    let Some(dataset) = cat.get(&q.dataset, q.version) else {
        return Vec::new();
    };
    match (q.pipeline, &dataset.payload) {
        (
            Pipeline::NeuroSegment | Pipeline::NeuroDenoise | Pipeline::NeuroFa,
            DatasetPayload::Neuro(s),
        ) => {
            let w = NeuroWorkload { subjects: s.len() };
            let mut out = vec![lower_steps::mean_step(q.engine, &w, cm, profiles, &cluster)];
            if q.pipeline != Pipeline::NeuroSegment {
                out.push(lower_steps::denoise_step(
                    q.engine, &w, cm, profiles, &cluster,
                ));
            }
            if q.pipeline == Pipeline::NeuroFa {
                out.push(match q.engine {
                    Engine::Spark => lower_neuro::spark(
                        &w,
                        cm,
                        profiles,
                        &cluster,
                        Some(tuned_partitions(&cluster)),
                        true,
                    ),
                    Engine::Myria => lower_neuro::myria(&w, cm, profiles, &cluster),
                    _ => lower_neuro::dask(&w, cm, profiles, &cluster),
                });
            }
            out
        }
        (Pipeline::FixtureAmbient, _) => vec![sciserve::server::fixture_graph()],
        (Pipeline::AstroFull, DatasetPayload::AstroSurvey(sv)) => {
            let w = AstroWorkload {
                visits: sv.visits.len(),
            };
            vec![match q.engine {
                Engine::Spark => lower_astro::spark(&w, cm, profiles, &cluster),
                _ => lower_astro::myria(&w, cm, profiles, &cluster, q.mode.execution_mode()).0,
            }]
        }
        (Pipeline::AstroCoadd, DatasetPayload::AstroCube(c)) => {
            let w = AstroWorkload {
                visits: c.dims()[0],
            };
            vec![lower_astro::scidb_coadd(&w, cm, profiles, &cluster, 1000)]
        }
        _ => Vec::new(),
    }
}

/// Spill and reload throughput of the governor under the active budget:
/// incompressible 1 MiB arrays, governed, forced out, read back.
fn spill_roundtrip_mib_s() -> f64 {
    let mut bytes = 0u64;
    let mut secs = 0.0;
    for rep in 0..5u64 {
        let data: Vec<f64> = (0..1u64 << 17)
            .map(|i| derive_seed(rep, i) as f64)
            .collect();
        let arr = NdArray::from_vec(&[data.len()], data).expect("1-D shape matches");
        let mut governed = arr.govern();
        drop(arr);
        governed.release();
        let before = MemoryGovernor::snapshot();
        let t = Instant::now();
        MemoryGovernor::enforce();
        std::hint::black_box(governed.data()[0]);
        secs += t.elapsed().as_secs_f64();
        let d = MemoryGovernor::snapshot().since(&before);
        bytes += d.spilled_bytes + d.reloaded_bytes;
    }
    ratio(mib(bytes), secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(data: &[(&'static str, u32, DatasetPayload)]) -> Vec<(String, u64)> {
        catalog(data)
            .iter()
            .map(|d| (format!("{}@{}", d.name, d.version), d.fingerprint))
            .collect()
    }

    #[test]
    fn same_seed_same_catalog_and_schedule_other_seed_differs() {
        for kind in [Kind::Hot, Kind::Churn] {
            let a = fingerprint(&datasets(kind, 11));
            assert_eq!(a, fingerprint(&datasets(kind, 11)));
            assert_ne!(a, fingerprint(&datasets(kind, 12)));
        }
        let keys = |seed| -> Vec<(String, u64)> {
            queries(Kind::Churn, seed)
                .iter()
                .map(|q| (q.q.key(), q.weight.to_bits()))
                .collect()
        };
        assert_eq!(keys(11), keys(11));
        assert_ne!(keys(11), keys(12));
        let churn = queries(Kind::Churn, 11);
        assert_eq!(churn.len(), 42);
        let mut distinct: Vec<String> = churn.iter().map(|q| q.q.key()).collect();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), 42);
        assert_eq!(queries(Kind::Hot, 11).len(), 12);
    }
}
