//! Discrete-event simulation of phased-logic netlists.
//!
//! This crate measures what the paper's Table 3 reports: "the average delay
//! time between the presence of a stable input vector and a stable output
//! word" (§4), for phased-logic netlists with and without early evaluation.
//!
//! * [`PlSimulator`] plays the marked-graph token game event-by-event under
//!   a configurable [`DelayModel`] (Muller C-element, LUT4, latches, wires,
//!   and the EE overhead C-element). Early-evaluation masters follow the
//!   paper's Figure 2 semantics: when the paired trigger fires with value 1
//!   the master produces its output before its slow inputs arrive, then
//!   performs the token cleanup when they do. Safety (an arc never holds
//!   two tokens) is asserted dynamically on every delivery.
//!
//!   The engine core is integer-timed: events are keyed on `u64`
//!   femtosecond ticks ([`TICKS_PER_NS`], quantized once via
//!   [`DelayModel::to_ticks`]) in one [`queue::EventQueue`], a binary
//!   min-heap ordered by `(tick, seq)` (steady-state allocation-free:
//!   capacity is retained across rounds); topology queries go through
//!   the frozen CSR adjacency
//!   ([`pl_core::PlAdjacency`]: pin-indexed data-in arcs, ack in-arcs,
//!   out-arcs pre-split into value/ack lists); and firing readiness is
//!   tracked incrementally in per-gate pin bitsets plus an ack counter, so
//!   no arc list is ever re-scanned. One firing's simultaneous token
//!   deliveries dispatch as a single batched queue event. See
//!   [`reference`](mod@reference) for the retained pre-refactor engine
//!   that pins these semantics differentially
//!   (`tests/engine_equivalence.rs`) and anchors the speedup numbers in
//!   `BENCH_sim.json`.
//! * [`parallel`] holds [`scatter_gather`], which runs independent work
//!   items on worker threads and returns the results in item order, and
//!   the two sweep entry points. [`sweep_resumable`] (and its
//!   fault-injecting twin [`sweep_resumable_with_faults`]) runs one long
//!   stream as a single continuous pass made crash-resumable:
//!   window-boundary checkpoints ([`checkpoint::wire`]) plus a
//!   completed-window journal on disk, and kill/resume recovery — still
//!   bit-identical to [`PlSimulator::run_stream`].
//! * [`SimCheckpoint`] captures a simulator's complete dynamic state
//!   between vectors ([`PlSimulator::snapshot`]); a simulator resumed from
//!   it ([`PlSimulator::resume_from`] / [`PlSimulator::restore`]) is
//!   bit-identical to the uninterrupted run — the restart point behind
//!   the resumable sweep.
//! * [`SyncSimulator`] is the cycle-accurate synchronous reference; the
//!   [`verify_equivalence`] helper proves that PL mapping and early
//!   evaluation change *timing only*, never values.
//! * [`LatencyStats`] aggregates per-vector latencies into the numbers the
//!   benchmark harness prints.
//!
//! # Word-parallel batch simulation
//!
//! The engine is generic over a [`LaneWord`] payload: [`PlSimulator`] is
//! the 1-lane (`bool`) instantiation, [`BatchSimulator`] the 64-lane
//! (`u64`) one, which marches 64 independent input vectors through a
//! *single* event flow — one schedule, one queue, with every gate
//! evaluation computing all 64 lanes at once by bitwise cofactor
//! reduction over the packed LUT truth table. This works because the
//! token game (which gate fires when) is value-independent in a marked
//! graph, so all lanes share the schedule and only the values are
//! per-lane; see [`lane`] and the engine module docs for the invariants.
//! [`BatchSimulator::run_lanes`] packs up to 64 scalar streams, runs them
//! in lockstep, and unpacks per-lane outcomes that are bit-identical,
//! vector for vector, to 64 sequential scalar runs.
//!
//! # Example
//!
//! ```
//! use pl_core::PlNetlist;
//! use pl_netlist::Netlist;
//! use pl_sim::{DelayModel, PlSimulator};
//!
//! let mut n = Netlist::new("andgate");
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let g = n.add_and2(a, b)?;
//! n.set_output("y", g);
//! let pl = PlNetlist::from_sync(&n)?;
//! let mut sim = PlSimulator::new(&pl, DelayModel::default())?;
//! let out = sim.run_vector(&[true, true])?;
//! assert_eq!(out.outputs, vec![true]);
//! assert!(out.latency > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
mod delay;
mod engine;
mod error;
pub mod lane;
pub mod parallel;
pub mod queue;
pub mod reference;
mod stats;
mod sync;
pub mod trace;

pub use checkpoint::{Fnv64, SimCheckpoint};
pub use delay::{ns_to_ticks, ticks_to_ns, DelayModel, TickDelays, TICKS_PER_NS};
pub use engine::{BatchSimulator, LaneSimulator, PlSimulator, StreamOutcome, VectorOutcome};
pub use error::{DecodeError, SimError};
pub use lane::{pack_lanes, LaneWord};
pub use parallel::{
    scatter_gather, sweep_resumable, sweep_resumable_with_faults, FaultPlan, ResumableOptions,
    ResumableOutcome, SweepRecovery,
};
pub use queue::{EventQueue, QueueKind};
pub use reference::ReferenceSimulator;
pub use stats::{measure_latency, measure_latency_on, random_vectors, LatencyStats};
pub use sync::{verify_equivalence, Mismatch, SyncSimulator};
