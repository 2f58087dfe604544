//! Parallel multi-vector sweeps: deterministic scatter/gather across
//! worker threads.
//!
//! The paper's headline numbers come from sweeping many input vectors over
//! each benchmark; independent sweeps are the classic embarrassingly
//! parallel discrete-event speedup. This module vendors a small
//! work-queue pool built from `std::thread::scope` plus an `mpsc` gather
//! channel — no external dependencies — and exposes three sweep entry
//! points on top of it:
//!
//! * [`sweep_streams`] — N independent vector streams, each simulated from
//!   the initial marking over a shared `&`[`PlNetlist`], configured by one
//!   [`SweepConfig`] (engine lane width, worker threads, event-queue
//!   backend). At `lanes: 1` every stream runs on a **private**
//!   [`PlSimulator`]; at `lanes: 64` the streams are packed 64 to a block
//!   and each block is marched through one [`BatchSimulator`] event flow
//!   with `u64` lane words, so the unit of parallel work becomes 64
//!   streams instead of one. Results come back in stream order.
//! * [`sweep_resumable`] ([`resume`]) — ONE long vector stream as one
//!   continuous run made crash-resumable, bit-identical to
//!   [`PlSimulator::run_stream`]. It is one sequential pass on the calling
//!   thread, with memory and checkpoint size O(in-flight rounds). A
//!   continuous stream has no parallelism of its own: every window depends
//!   on the state the previous one left, and merely advancing that state
//!   costs as much as simulating it.
//! * [`sweep_resumable_with_faults`] — the same sweep under a
//!   [`FaultPlan`] that halts it at a chosen window boundary, for the
//!   kill/resume tests.
//!
//! The lane width and the event-queue backend
//! ([`crate::queue::QueueKind`]) never change output words, only the cost
//! profile; the lane width does change the timing fields, which then
//! describe a block's shared schedule (see [`crate::lane`]).
//!
//! Determinism is structural, not incidental: workers only *pull* work
//! (item indices from an atomic counter); every result is sent back
//! tagged with its index and the gather side reorders into index order.
//! The engine itself is single-threaded and deterministic, so identical
//! (netlist, delays, streams, config) inputs give identical outputs
//! regardless of scheduling. `tests/engine_equivalence.rs` pins
//! [`sweep_streams`] at 1/2/4/8 workers across the ITC'99 suite and
//! randomized netlists.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use pl_core::PlNetlist;

use crate::delay::DelayModel;
use crate::engine::{BatchSimulator, PlSimulator, StreamOutcome};
use crate::error::SimError;
use crate::queue::QueueKind;

pub mod resume;

pub use resume::{
    sweep_resumable, sweep_resumable_with_faults, FaultPlan, ResumableOptions, ResumableOutcome,
    SweepRecovery,
};

/// How a sweep runs: the engine's lane width, the worker threads, and
/// the event-queue backend. None of the three changes an output word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepConfig {
    /// Engine width: `1` runs every stream on its own scalar
    /// [`PlSimulator`]; `64` packs the streams 64 to a
    /// [`BatchSimulator`] block. No other width exists.
    pub lanes: usize,
    /// Worker threads; `0` asks the OS ([`effective_jobs`]).
    pub jobs: usize,
    /// Event-queue backend of every simulator the sweep builds.
    pub queue: QueueKind,
}

impl Default for SweepConfig {
    /// Scalar engines, one worker, the default queue.
    fn default() -> Self {
        Self {
            lanes: 1,
            jobs: 1,
            queue: QueueKind::default(),
        }
    }
}

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

/// Simulates each independent vector stream from the initial marking
/// over the shared netlist, on up to `config.jobs` workers, at
/// `config.lanes` lanes (see [`SweepConfig`]). Outcomes come back in
/// stream order. Their output words are bit-identical to running the
/// same streams one by one through [`PlSimulator::run_stream`], for any
/// worker count and lane width; at `lanes: 1` the whole outcome is,
/// timing included. At `lanes: 64` the timing fields describe the shared
/// schedule of the stream's 64-stream block
/// ([`BatchSimulator::run_lanes`]).
///
/// # Errors
///
/// Propagates the first failing stream's error — by stream index at
/// `lanes: 1`, by block index at `lanes: 64` — so the reported error is
/// deterministic even when several streams fail.
///
/// # Panics
///
/// Panics if `config.lanes` is neither 1 nor 64.
pub fn sweep_streams<S>(
    pl: &PlNetlist,
    delays: &DelayModel,
    streams: &[S],
    config: SweepConfig,
) -> Result<Vec<StreamOutcome>, SimError>
where
    S: AsRef<[Vec<bool>]> + Sync,
{
    match config.lanes {
        1 => scatter_gather(config.jobs, streams, |_, stream| {
            PlSimulator::with_queue(pl, delays.clone(), config.queue)?.run_stream(stream.as_ref())
        })
        .into_iter()
        .collect(),
        64 => {
            let blocks: Vec<&[S]> = streams.chunks(64).collect();
            let per_block = scatter_gather(config.jobs, &blocks, |_, block| {
                let lanes: Vec<&[Vec<bool>]> = block.iter().map(AsRef::as_ref).collect();
                BatchSimulator::with_queue(pl, delays.clone(), config.queue)?.run_lanes(&lanes)
            });
            let mut outcomes = Vec::with_capacity(streams.len());
            for block in per_block {
                outcomes.extend(block?);
            }
            Ok(outcomes)
        }
        lanes => panic!("a sweep runs at 1 or 64 lanes, not {lanes}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_netlist::Netlist;

    fn scalar_config(jobs: usize) -> SweepConfig {
        SweepConfig {
            jobs,
            ..SweepConfig::default()
        }
    }

    fn batch_config(jobs: usize) -> SweepConfig {
        SweepConfig {
            lanes: 64,
            jobs,
            ..SweepConfig::default()
        }
    }

    fn xor_netlist() -> PlNetlist {
        let mut n = Netlist::new("xor");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_xor2(a, b).unwrap();
        n.set_output("y", g);
        PlNetlist::from_sync(&n).unwrap()
    }

    fn vectors(count: usize, seed: u64) -> Vec<Vec<bool>> {
        let mut x = seed;
        (0..count)
            .map(|_| {
                (0..2)
                    .map(|_| {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        x >> 63 == 1
                    })
                    .collect()
            })
            .collect()
    }

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

    #[test]
    fn sweep_streams_matches_sequential_for_all_worker_counts() {
        let pl = xor_netlist();
        let delays = DelayModel::default();
        let streams: Vec<Vec<Vec<bool>>> =
            (0..6).map(|k| vectors(5 + k, 0xA11CE + k as u64)).collect();
        let sequential: Vec<StreamOutcome> = streams
            .iter()
            .map(|s| {
                PlSimulator::new(&pl, delays.clone())
                    .unwrap()
                    .run_stream(s)
                    .unwrap()
            })
            .collect();
        for jobs in [1, 2, 4, 8] {
            let par = sweep_streams(&pl, &delays, &streams, scalar_config(jobs)).unwrap();
            assert_eq!(par, sequential, "jobs={jobs} diverged");
        }
    }

    /// The batch sweep must reproduce the scalar sweep bit for bit — for
    /// any worker count, and across a 64-stream block boundary (65
    /// streams → two blocks, the second holding a single lane) with
    /// ragged stream lengths.
    #[test]
    fn batch_sweep_matches_scalar_sweep_across_block_boundary() {
        let pl = xor_netlist();
        let delays = DelayModel::default();
        let streams: Vec<Vec<Vec<bool>>> = (0..65)
            .map(|k| vectors(1 + k % 5, 0x1A4E + k as u64))
            .collect();
        let scalar = sweep_streams(&pl, &delays, &streams, scalar_config(1)).unwrap();
        for jobs in [1, 2, 4] {
            let batch = sweep_streams(&pl, &delays, &streams, batch_config(jobs)).unwrap();
            assert_eq!(batch.len(), scalar.len());
            for (i, (b, s)) in batch.iter().zip(&scalar).enumerate() {
                assert_eq!(b.outputs, s.outputs, "stream {i} diverged at jobs={jobs}");
            }
        }
    }

    #[test]
    fn batch_sweep_empty_and_single_stream() {
        let pl = xor_netlist();
        let delays = DelayModel::default();
        let empty: Vec<Vec<Vec<bool>>> = Vec::new();
        assert!(sweep_streams(&pl, &delays, &empty, batch_config(4))
            .unwrap()
            .is_empty());
        let one = vec![vectors(7, 0xF00)];
        let batch = sweep_streams(&pl, &delays, &one, batch_config(4)).unwrap();
        let scalar = sweep_streams(&pl, &delays, &one, scalar_config(1)).unwrap();
        assert_eq!(batch[0].outputs, scalar[0].outputs);
    }

    #[test]
    fn batch_errors_propagate_deterministically_by_block() {
        let pl = xor_netlist();
        let delays = DelayModel::default();
        // Lane 1 of the first block is malformed; its arity error must
        // win for every worker count.
        let streams: Vec<Vec<Vec<bool>>> = vec![
            vectors(3, 1),
            vec![vec![true]],
            vectors(3, 2),
            vec![vec![false; 5]],
        ];
        for jobs in [1, 2, 4] {
            match sweep_streams(&pl, &delays, &streams, batch_config(jobs)) {
                Err(SimError::InputArityMismatch {
                    got: 1,
                    expected: 2,
                }) => {}
                other => panic!("jobs={jobs}: expected the arity error, got {other:?}"),
            }
        }
    }

    #[test]
    fn errors_propagate_deterministically_by_index() {
        let pl = xor_netlist();
        let delays = DelayModel::default();
        // Streams 1 and 3 are malformed (wrong arity); stream 1's error
        // must win for every worker count.
        let streams: Vec<Vec<Vec<bool>>> = vec![
            vectors(3, 1),
            vec![vec![true]],
            vectors(3, 2),
            vec![vec![false; 5]],
        ];
        for jobs in [1, 2, 4, 8] {
            match sweep_streams(&pl, &delays, &streams, scalar_config(jobs)) {
                Err(SimError::InputArityMismatch {
                    got: 1,
                    expected: 2,
                }) => {}
                other => panic!("jobs={jobs}: expected stream 1's arity error, got {other:?}"),
            }
        }
    }
}
