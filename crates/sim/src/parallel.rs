//! Deterministic scatter/gather across worker threads, and the
//! crash-resumable sweep.
//!
//! This module vendors a small work-queue pool built from
//! `std::thread::scope` plus an `mpsc` gather channel — no external
//! dependencies. [`scatter_gather`] applies a function to every item on up
//! to `jobs` workers and returns the results in item order; the flow uses
//! it to run the plain and EE variants of a design side by side. On top of
//! the engine this module exposes two sweep entry points:
//!
//! * [`sweep_resumable`] ([`resume`]) — ONE long vector stream as one
//!   continuous run made crash-resumable, bit-identical to
//!   [`crate::PlSimulator::run_stream`]. It is one sequential pass on the
//!   calling thread, with memory and checkpoint size O(in-flight rounds).
//!   A continuous stream has no parallelism of its own: every window
//!   depends on the state the previous one left, and merely advancing
//!   that state costs as much as simulating it.
//! * [`sweep_resumable_with_faults`] — the same sweep under a
//!   [`FaultPlan`] that halts it at a chosen window boundary, for the
//!   kill/resume tests.
//!
//! Determinism is structural, not incidental: workers only *pull* work
//! (item indices from an atomic counter); every result is sent back
//! tagged with its index and the gather side reorders into index order.
//! The engine itself is single-threaded and deterministic, so identical
//! inputs give identical outputs regardless of scheduling.
//! `tests/engine_equivalence.rs` pins independent streams run through
//! [`scatter_gather`] at 1/2/4/8 workers across the ITC'99 suite and
//! randomized netlists.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

pub mod resume;

pub use resume::{
    sweep_resumable, sweep_resumable_with_faults, FaultPlan, ResumableOptions, ResumableOutcome,
    SweepRecovery,
};

/// Resolves a `--jobs`-style request into a concrete worker count:
/// `0` means "ask the OS" ([`std::thread::available_parallelism`]), and
/// the result is clamped to `[1, items]` so no thread is ever spawned
/// without work.
#[must_use]
pub fn effective_jobs(requested: usize, items: usize) -> usize {
    let jobs = if requested == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        requested
    };
    jobs.clamp(1, items.max(1))
}

/// Applies `work` to every item on up to `jobs` worker threads and
/// returns the results **in item order**, regardless of which worker ran
/// what when.
///
/// Scatter is a shared atomic cursor (each worker pulls the next
/// unclaimed index — no pre-partitioning, so an expensive item cannot
/// strand a worker's whole static share); gather is an `mpsc` channel of
/// `(index, result)` pairs reordered into a dense `Vec`. With `jobs <= 1`
/// the items run inline on the caller's thread.
///
/// # Panics
///
/// A panic in `work` is re-raised on the calling thread with its original
/// payload; when several items panic, the lowest item index wins, so the
/// surfaced failure is deterministic across worker counts.
pub fn scatter_gather<T, R, F>(jobs: usize, items: &[T], work: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = effective_jobs(jobs, items.len());
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| work(i, t)).collect();
    }
    // Worker panics are caught and shipped through the gather channel so
    // the caller sees the `work` payload itself (e.g. "flow failed for
    // b14"), not a gather-side unwind about a missing slot. Rethrowing
    // makes AssertUnwindSafe sound here: no caller observes any state the
    // panic may have left half-updated.
    type Caught<R> = std::thread::Result<R>;
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Caught<R>)>();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let cursor = &cursor;
            let work = &work;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(i, item)));
                if tx.send((i, result)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut slots: Vec<Option<Caught<R>>> = (0..items.len()).map(|_| None).collect();
        for (i, r) in rx {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|s| {
                s.expect("every index was claimed exactly once")
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DelayModel, PlSimulator, SimError, StreamOutcome};
    use pl_core::PlNetlist;

    #[test]
    fn shared_sweep_types_cross_threads() {
        fn ok<T: Send + Sync>() {}
        ok::<PlNetlist>();
        ok::<pl_core::PlAdjacency>();
        ok::<DelayModel>();
        ok::<StreamOutcome>();
        ok::<SimError>();
        fn ok_send<T: Send>() {}
        ok_send::<PlSimulator<'_>>();
    }

    #[test]
    fn scatter_gather_orders_results_by_index() {
        let items: Vec<usize> = (0..100).collect();
        for jobs in [1, 2, 4, 8] {
            let out = scatter_gather(jobs, &items, |i, &x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn worker_panic_payload_reaches_caller_with_lowest_index() {
        let items: Vec<usize> = (0..16).collect();
        let caught = std::panic::catch_unwind(|| {
            scatter_gather(4, &items, |i, &x| {
                if x % 5 == 3 {
                    panic!("item {x} exploded");
                }
                i
            })
        })
        .expect_err("a worker panicked");
        // The original payload — not a gather-side slot invariant — and
        // deterministically the lowest panicking index (3, not 8 or 13).
        let msg = caught
            .downcast_ref::<String>()
            .expect("panic! with format produces a String payload");
        assert_eq!(msg, "item 3 exploded");
    }

    #[test]
    fn effective_jobs_clamps_and_resolves_auto() {
        assert_eq!(effective_jobs(4, 2), 2);
        assert_eq!(effective_jobs(4, 100), 4);
        assert_eq!(effective_jobs(1, 0), 1);
        assert!(effective_jobs(0, 64) >= 1);
    }

    /// Degenerate inputs: no items, one item, and far more workers than
    /// items must all resolve without spawning useless threads and without
    /// changing results.
    #[test]
    fn effective_jobs_degenerate_inputs() {
        // 0 items: still 1 (a worker count of 0 is never returned)...
        assert_eq!(effective_jobs(8, 0), 1);
        assert_eq!(effective_jobs(0, 0), 1);
        // 1 item: exactly one worker regardless of the request.
        assert_eq!(effective_jobs(8, 1), 1);
        assert_eq!(effective_jobs(0, 1), 1);
        // jobs ≫ items: clamped to the item count.
        assert_eq!(effective_jobs(1024, 3), 3);
    }

    #[test]
    fn scatter_gather_degenerate_inputs() {
        // 0 items: no work, no threads, empty result for any jobs value.
        let empty: [usize; 0] = [];
        for jobs in [0, 1, 8] {
            assert!(scatter_gather(jobs, &empty, |_, &x| x).is_empty());
        }
        // 1 item: runs inline on the caller's thread.
        assert_eq!(
            scatter_gather(8, &[41usize], |i, &x| (i, x + 1)),
            vec![(0, 42)]
        );
        // jobs ≫ items: every item claimed exactly once, in order.
        let items: Vec<usize> = (0..3).collect();
        assert_eq!(scatter_gather(64, &items, |_, &x| x * 2), vec![0, 2, 4]);
    }
}
