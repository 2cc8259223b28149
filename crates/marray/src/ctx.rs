//! Run contexts: the settings a run executes under and the ledgers it
//! charges (the run scoping described in `chunkstore`'s module docs).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex};

use crate::chunkstore::{CopyMode, ReasonStats};
use crate::codec::{CodecReprStats, CompressMode};

/// One run: its settings, its ledger of deep copies, codec calls and spill
/// I/O, and the run it was opened in (`None`: the root run).
#[derive(Default)]
pub(crate) struct Ctx {
    parent: Option<Arc<Ctx>>,
    pub(crate) copy: CopyMode,
    pub(crate) compress: CompressMode,
    /// Bytes, 0 = unbounded. Only the root's changes after creation.
    pub(crate) budget: AtomicU64,
    /// Inside a [`crate::with_mem_budget`] section, whose outermost frame
    /// holds the section lock for every nested frame and worker.
    pub(crate) budget_section: bool,
    pub(crate) copies: AtomicU64,
    pub(crate) copied_bytes: AtomicU64,
    pub(crate) by_reason: Mutex<BTreeMap<String, ReasonStats>>,
    pub(crate) by_codec: Mutex<BTreeMap<String, CodecReprStats>>,
    pub(crate) spills: AtomicU64,
    pub(crate) reloads: AtomicU64,
    pub(crate) spilled_bytes: AtomicU64,
    pub(crate) reloaded_bytes: AtomicU64,
}

/// The root run: process defaults, and a ledger of process totals.
pub(crate) static ROOT: LazyLock<Ctx> = LazyLock::new(Ctx::default);

thread_local! {
    /// This thread's current run; `None` = [`ROOT`].
    static CURRENT: RefCell<Option<Arc<Ctx>>> = const { RefCell::new(None) };
}

/// Read the calling thread's current run.
pub(crate) fn with_current<R>(f: impl FnOnce(&Ctx) -> R) -> R {
    CURRENT.with(|c| f(c.borrow().as_deref().unwrap_or(&ROOT)))
}

/// Apply `f` to the current run's ledger and to every enclosing run's
/// (ignoring what `f` returns).
pub(crate) fn charge<R>(f: impl Fn(&Ctx) -> R) {
    CURRENT.with(|c| {
        let cur = c.borrow();
        let mut next = cur.as_deref();
        while let Some(ctx) = next {
            f(ctx);
            next = ctx.parent.as_deref();
        }
    });
    f(&ROOT);
}

/// Run `f` in a child of the current run: the current settings with `set`
/// applied, and a fresh ledger.
pub(crate) fn scoped<R>(set: impl FnOnce(&mut Ctx), f: impl FnOnce() -> R) -> R {
    let RunCtx(parent) = RunCtx::current();
    let p = parent.as_deref().unwrap_or(&ROOT);
    let mut child = Ctx {
        copy: p.copy,
        compress: p.compress,
        budget: AtomicU64::new(p.budget.load(Ordering::Relaxed)),
        budget_section: p.budget_section,
        parent,
        ..Ctx::default()
    };
    set(&mut child);
    let _run = RunCtx(Some(Arc::new(child))).enter();
    f()
}

/// A handle on a thread's run, so the threads a run spawns can join it:
/// they read its copy mode, compress mode and budget, and their copies,
/// codec calls and spills are charged to it.
#[derive(Clone)]
pub struct RunCtx(Option<Arc<Ctx>>);

impl RunCtx {
    /// The calling thread's current run.
    pub fn current() -> RunCtx {
        RunCtx(CURRENT.with(|c| c.borrow().as_ref().map(Arc::clone)))
    }

    /// Join this run on the calling thread until the guard drops, which
    /// restores the thread's previous run. Enter a handle only while the
    /// run it came from is in progress, e.g. on a scoped worker thread.
    pub fn enter(&self) -> Entered {
        let prev = CURRENT.with(|c| c.replace(self.0.as_ref().map(Arc::clone)));
        Entered(prev, PhantomData)
    }
}

/// The guard [`RunCtx::enter`] returns; it cannot leave its thread.
#[must_use = "the thread leaves the run when the guard drops"]
pub struct Entered(Option<Arc<Ctx>>, PhantomData<*const ()>);

impl Drop for Entered {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.0.take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        compress_mode, copy_mode, mem_budget, record_copy, with_compress_mode, with_copy_mode,
        with_mem_budget, CopyCounter,
    };

    #[test]
    fn records_reach_the_current_run_and_every_enclosing_run() {
        with_copy_mode(CopyMode::Eager, || {
            let outer = CopyCounter::snapshot();
            let inner = with_compress_mode(CompressMode::Off, || {
                // The child overrides one setting and inherits the rest.
                assert_eq!(
                    (copy_mode(), compress_mode()),
                    (CopyMode::Eager, CompressMode::Off)
                );
                let before = CopyCounter::snapshot();
                record_copy("ctx.test", 8);
                CopyCounter::snapshot().since(&before)
            });
            assert_eq!((inner.copies, inner.bytes), (1, 8));
            let seen = CopyCounter::snapshot().since(&outer);
            assert_eq!(seen.by_reason.get("ctx.test").map(|r| r.copies), Some(1));
            // A sibling run starts from an empty ledger.
            let sibling = with_compress_mode(CompressMode::Off, CopyCounter::snapshot);
            assert_eq!(sibling.copies, 0);
        });
    }

    #[test]
    fn budget_sections_nest_on_workers_and_stay_invisible_elsewhere() {
        with_mem_budget(Some(1 << 20), || {
            let ctx = RunCtx::current();
            std::thread::scope(|s| {
                // A worker of the section nests a section without blocking
                // on the lock its spawner holds.
                s.spawn(|| {
                    let _run = ctx.enter();
                    with_mem_budget(None, mem_budget)
                })
                .join()
                .expect("nested section");
                // A thread outside the run reads the root budget.
                let outside = s.spawn(mem_budget).join().expect("root read");
                assert_eq!(outside, None);
            });
            assert_eq!(mem_budget(), Some(1 << 20));
        });
    }
}
