//! The in-memory span recorder of the traced run.
//!
//! Spans are recorded in the benchmark's own code, around its calls into
//! each layer's public functions (tracing inside the program is a
//! separate change). Each span carries a name, start and end, the span
//! that caused it, and the id of the operation it belongs to (a batch
//! round or a serve request). Spans stay in memory and are written out
//! once, when the run ends.
//!
//! [`Tracer::run`] always times its closure, so the benchmark's own
//! timings cost the same with tracing on or off; only the recording
//! (an id and a push under a mutex) differs, and `trace.overhead`
//! measures that difference.

use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::Args;

/// A span's id; ids start at 1 and are unique within a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// This span's id.
    pub id: SpanId,
    /// Layer boundary name, e.g. `sciops.denoise` or `engine.spark`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that caused this one, if any.
    pub parent: Option<SpanId>,
    /// The operation (round or request) the span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// The recorder. Cheap to share across client threads.
pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder, initially recording iff `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on: AtomicBool::new(on),
            epoch: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Turn recording on or off (the traced run alternates).
    pub fn set_recording(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Run `f` as span `name` of operation `op` under `parent`, passing
    /// `f` the new span's id (when recording) for its children. Returns
    /// `f`'s result and its wall time.
    pub fn run<T>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> (T, Duration) {
        let id = self
            .on
            .load(Ordering::Relaxed)
            .then(|| SpanId(self.next.fetch_add(1, Ordering::Relaxed)));
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        if let Some(id) = id {
            let span = Span {
                id,
                name,
                start_ns: self.nanos(start),
                end_ns: self.nanos(end),
                parent,
                op,
            };
            self.lock().push(span);
        }
        (out, end - start)
    }

    fn nanos(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // A push never leaves the vector half-updated, so a guard
        // recovered from a panicked client thread is still valid.
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.lock()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Sum of the child spans' durations over the sum of the parents'
    /// durations, over every span called `parent`: how much of the
    /// parent's wall time the recorded layer spans explain.
    pub fn coverage(&self, parent: &str) -> f64 {
        let spans = self.lock();
        let parents: Vec<&Span> = spans.iter().filter(|s| s.name == parent).collect();
        let whole: f64 = parents.iter().map(|s| s.ms()).sum();
        let covered: f64 = spans
            .iter()
            .filter(|c| parents.iter().any(|p| c.parent == Some(p.id)))
            .map(Span::ms)
            .sum();
        crate::util::ratio(covered, whole)
    }

    /// Write the provenance block and every span as JSON to
    /// `perfbench/out/trace-<workload>-seed<seed>.json`.
    pub fn write(&self, args: &Args, provenance: &str) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!(
            "trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(w, "{{\"provenance\": {provenance},")?;
        writeln!(w, "\"spans\": [")?;
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.0.to_string());
            writeln!(
                w,
                "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}}}{}",
                s.id.0,
                s.name,
                s.start_ns,
                s.end_ns,
                s.op,
                if i + 1 < spans.len() { "," } else { "" }
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_parents_ops_and_coverage_only_when_on() {
        let t = Tracer::new(false);
        let (v, _) = t.run("off", 0, None, |id| {
            assert!(id.is_none());
            1
        });
        assert_eq!(v, 1);
        assert!(t.spans().is_empty());

        t.set_recording(true);
        t.run("row", 7, None, |id| {
            t.run("child", 7, id, |_| {
                std::thread::sleep(Duration::from_millis(2))
            });
            t.run("child", 7, id, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let row = spans.iter().find(|s| s.name == "row").expect("row span");
        assert!(row.parent.is_none());
        assert!(spans
            .iter()
            .filter(|s| s.name == "child")
            .all(|c| c.parent == Some(row.id) && c.op == 7 && c.end_ns >= c.start_ns));
        let cov = t.coverage("row");
        assert!(cov > 0.5 && cov <= 1.0, "coverage {cov}");
        assert_eq!(t.durations_ms("child").len(), 2);
    }
}
