//! Checkpoint/resume for the discrete-event engine: capture a simulator's
//! complete dynamic state between vectors and rebuild a bit-identical
//! simulator from it later — on this thread or another.
//!
//! A [`SimCheckpoint`] is the quiescent inter-vector state of a
//! [`PlSimulator`]: the marking (per-arc token presence and values), the
//! per-gate incremental bookkeeping (pin bitsets, ack counters, scheduling
//! flags, EE round generations), the pending environment inputs, the
//! recorded-but-uncollected output words, the integer clock, and the
//! in-flight event queue. It does **not** borrow the netlist — the
//! checkpoint is an owned, `Send` value, so it can cross threads while the
//! workers share the same `&PlNetlist` (which is `Sync`).
//!
//! The contract, pinned differentially in `tests/engine_equivalence.rs`:
//! a simulator restored from a checkpoint and driven with the remaining
//! vectors produces **bit-identical** outcomes (output words, record
//! timestamps, latencies) to the uninterrupted run, and taking a snapshot
//! never perturbs the snapshotted simulator. This is the restart point
//! behind [`crate::sweep_resumable`], which writes one checkpoint at
//! every window boundary of a long stream; a killed run resumes from the
//! latest one.
//!
//! Checkpoints are **queue-kind-portable**: the in-flight event queue is
//! canonicalized to a sorted `(tick, seq)` event list regardless of the
//! source simulator's [`crate::queue::QueueKind`], so a snapshot taken on
//! a heap-engine simulator resumes bit-identically on a ladder-engine one
//! and vice versa (the restoring simulator keeps its own backend).
//!
//! What is deliberately *not* captured: the waveform trace
//! ([`PlSimulator::enable_tracing`] recordings are a debugging artifact,
//! not simulation state — [`PlSimulator::restore`] clears any recorded
//! trace events so a resumed trace never mixes two timelines), and the
//! netlist/delay model themselves. The caller must resume against the
//! same netlist and delays; a different netlist — diverging gate/arc/
//! output counts, arc topology, or gate logic functions — is rejected
//! with [`SimError::CheckpointMismatch`]. The delay model cannot be
//! cross-checked (it is not part of the netlist) and stays the caller's
//! responsibility.
//!
//! [`PlSimulator`]: crate::PlSimulator
//! [`PlSimulator::enable_tracing`]: crate::PlSimulator::enable_tracing
//! [`PlSimulator::restore`]: crate::PlSimulator::restore

pub mod wire;

use std::collections::VecDeque;

use pl_core::{PlArcKind, PlNetlist};

use crate::delay::{ticks_to_ns, DelayModel};
use crate::engine::{Event, LaneSimulator};
use crate::error::SimError;
use crate::lane::LaneWord;

/// A tiny FNV-1a folder over `u64` words — the one digest definition the
/// workspace shares (netlist fingerprints here, output digests in `plc`
/// and the golden-fingerprint tests) so the mixing constants can never
/// drift apart between copies.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// The FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one word into the state.
    pub fn mix(&mut self, x: u64) {
        self.0 ^= x;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
    }

    /// The accumulated digest.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a over the netlist's arc topology (per arc: source gate,
/// destination gate, kind, destination pin), per-gate logic functions,
/// and the input-port / output-slot gate orders — the design identity a
/// checkpoint is bound to. Two different designs that merely share
/// gate/arc/output *counts* hash differently, so a checkpoint cannot be
/// replayed onto them; covering the port/slot orders explicitly keeps
/// the slot-indexed state (record queues, pending inputs) bound to the
/// right gates even for a builder whose port order could diverge from
/// gate-creation order (arc topology alone would not see that). Computed
/// once per simulator ([`LaneSimulator::new`]) and carried, so the
/// resumable sweep's per-window snapshots never re-walk the netlist.
pub(crate) fn netlist_fingerprint(pl: &PlNetlist) -> u64 {
    let mut h = Fnv64::new();
    h.mix(pl.gates().len() as u64);
    for gate in pl.gates() {
        h.mix(gate.table().map_or(u64::MAX, |t| t.bits()));
    }
    for arc in pl.arcs() {
        h.mix(arc.src().index() as u64);
        h.mix(arc.dst().index() as u64);
        h.mix(match arc.kind() {
            PlArcKind::Data => 0,
            PlArcKind::Ack => 1,
            PlArcKind::Efire => 2,
        });
        h.mix(arc.dst_pin().map_or(u64::MAX, u64::from));
    }
    for g in pl.input_gates() {
        h.mix(g.index() as u64);
    }
    for (_, g) in pl.output_gates() {
        h.mix(g.index() as u64);
    }
    h.finish()
}

/// The complete dynamic state of a simulator, detached from the netlist
/// borrow. Create with [`LaneSimulator::snapshot`]; rebuild with
/// [`LaneSimulator::resume_from`] or [`LaneSimulator::restore`], or
/// serialize across the process boundary with
/// [`SimCheckpoint::to_bytes`] / [`SimCheckpoint::from_bytes`]
/// ([`wire`]). `PartialEq` compares the full dynamic state — the
/// encode→decode identity the wire format's property tests pin.
///
/// The lane parameter mirrors the simulator's: a checkpoint carries the
/// per-lane value state at the width it was captured at, and restores
/// only into a simulator of the same width (the wire format rejects a
/// cross-width decode with [`SimError::CheckpointLaneMismatch`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SimCheckpoint<L: LaneWord = bool> {
    /// Shape of the source netlist (gates, arcs, outputs) plus its arc
    /// topology fingerprint — checked on restore so a checkpoint can
    /// never be replayed onto a structurally different design.
    pub(crate) gates: usize,
    pub(crate) arcs: usize,
    pub(crate) outputs: usize,
    pub(crate) fingerprint: u64,
    pub(crate) now: u64,
    pub(crate) seq: u64,
    pub(crate) events: u64,
    pub(crate) rounds: u64,
    /// In-flight events, sorted by `(tick, seq)` key (a canonical order —
    /// the live heap's internal layout is not).
    pub(crate) queue: Vec<Event<L>>,
    pub(crate) tokens: Vec<u8>,
    pub(crate) values: Vec<L>,
    pub(crate) pin_tokens: Vec<u8>,
    pub(crate) pin_vals: Vec<L::PinVals>,
    pub(crate) ack_missing: Vec<u32>,
    pub(crate) pending_input: Vec<Option<L>>,
    pub(crate) flags: Vec<u8>,
    pub(crate) gen: Vec<u64>,
    pub(crate) records: Vec<VecDeque<(L, u64)>>,
}

impl<L: LaneWord> SimCheckpoint<L> {
    /// Simulation time (ns) at which the snapshot was taken.
    #[must_use]
    pub fn time(&self) -> f64 {
        ticks_to_ns(self.now)
    }

    /// Simulation time in integer ticks (femtoseconds).
    #[must_use]
    pub fn time_ticks(&self) -> u64 {
        self.now
    }

    /// Completed (collected) vectors at snapshot time.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Number of in-flight events captured with the state.
    #[must_use]
    pub fn queued_events(&self) -> usize {
        self.queue.len()
    }
}

impl<'a, L: LaneWord> LaneSimulator<'a, L> {
    /// Captures the simulator's complete dynamic state as an owned
    /// [`SimCheckpoint`]. The simulator itself is untouched — continuing
    /// to drive it produces exactly the run it would have produced without
    /// the snapshot.
    ///
    /// Call between vectors (after [`Self::run_vector`] /
    /// [`Self::feed_vector`] returns); the in-flight event queue is
    /// captured too, so tokens still propagating are part of the state.
    #[must_use]
    pub fn snapshot(&self) -> SimCheckpoint<L> {
        let queue: Vec<Event<L>> = self
            .queue
            .sorted_events()
            .into_iter()
            .map(|(key, kind)| Event { key, kind })
            .collect();
        SimCheckpoint {
            gates: self.pl.gates().len(),
            arcs: self.pl.arcs().len(),
            outputs: self.pl.output_gates().len(),
            fingerprint: self.fingerprint,
            now: self.now,
            seq: self.seq,
            events: self.events,
            rounds: self.rounds,
            queue,
            tokens: self.tokens.clone(),
            values: self.values.clone(),
            pin_tokens: self.pin_tokens.clone(),
            pin_vals: self.pin_vals.clone(),
            ack_missing: self.ack_missing.clone(),
            pending_input: self.pending_input.clone(),
            flags: self.flags.clone(),
            gen: self.gen.clone(),
            records: self.records.clone(),
        }
    }

    /// Overwrites this simulator's dynamic state with a checkpoint's. The
    /// netlist this simulator was built over must structurally match the
    /// one the checkpoint was taken from — same gate/arc/output counts
    /// AND the same arc topology fingerprint (resuming is only meaningful
    /// against the *same* netlist and delay model; the delay model is the
    /// caller's responsibility). Any recorded trace events are cleared;
    /// the tracing on/off setting is kept.
    ///
    /// # Errors
    ///
    /// [`SimError::CheckpointMismatch`] when the netlists differ.
    pub fn restore(&mut self, ck: &SimCheckpoint<L>) -> Result<(), SimError> {
        if ck.gates != self.pl.gates().len()
            || ck.arcs != self.pl.arcs().len()
            || ck.outputs != self.pl.output_gates().len()
            || ck.fingerprint != self.fingerprint
        {
            return Err(SimError::CheckpointMismatch {
                snapshot_gates: ck.gates,
                snapshot_arcs: ck.arcs,
                snapshot_outputs: ck.outputs,
                netlist_gates: self.pl.gates().len(),
                netlist_arcs: self.pl.arcs().len(),
                netlist_outputs: self.pl.output_gates().len(),
            });
        }
        self.now = ck.now;
        self.seq = ck.seq;
        self.events = ck.events;
        self.rounds = ck.rounds;
        self.queue.clear();
        for e in &ck.queue {
            self.queue.push(e.key, e.kind);
        }
        self.tokens.clone_from(&ck.tokens);
        self.values.clone_from(&ck.values);
        self.pin_tokens.clone_from(&ck.pin_tokens);
        self.pin_vals.clone_from(&ck.pin_vals);
        self.ack_missing.clone_from(&ck.ack_missing);
        self.pending_input.clone_from(&ck.pending_input);
        self.flags.clone_from(&ck.flags);
        self.gen.clone_from(&ck.gen);
        self.records.clone_from(&ck.records);
        if let Some(trace) = &mut self.trace {
            trace.clear();
        }
        Ok(())
    }

    /// Builds a fresh simulator over `pl` and restores `ck` into it — the
    /// one-call resume path. For restoring many checkpoints against the
    /// same netlist, build one simulator with [`Self::new`] and
    /// call [`Self::restore`] per checkpoint instead: that reuses
    /// the frozen adjacency.
    ///
    /// # Errors
    ///
    /// [`SimError::Structural`] if `pl` fails the liveness pre-check;
    /// [`SimError::CheckpointMismatch`] when the netlist shapes differ.
    pub fn resume_from(
        pl: &'a PlNetlist,
        delays: DelayModel,
        ck: &SimCheckpoint<L>,
    ) -> Result<Self, SimError> {
        let mut sim = Self::new(pl, delays)?;
        sim.restore(ck)?;
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PlSimulator;
    use pl_netlist::Netlist;

    fn counter() -> PlNetlist {
        let mut n = Netlist::new("cnt");
        let q0 = n.add_dff(false);
        let q1 = n.add_dff(false);
        let n0 = n.add_not(q0).unwrap();
        let t1 = n.add_xor2(q1, q0).unwrap();
        n.set_dff_input(q0, n0).unwrap();
        n.set_dff_input(q1, t1).unwrap();
        n.set_output("q0", q0);
        n.set_output("q1", q1);
        PlNetlist::from_sync(&n).unwrap()
    }

    fn xor_gate() -> PlNetlist {
        let mut n = Netlist::new("xor");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_xor2(a, b).unwrap();
        n.set_output("y", g);
        PlNetlist::from_sync(&n).unwrap()
    }

    /// Outcomes after a resume are bit-identical to the uninterrupted run —
    /// on a stateful, autonomously firing circuit (the event queue is never
    /// empty between vectors, so the in-flight events must round-trip).
    #[test]
    fn resume_is_bit_identical_on_stateful_circuit() {
        let pl = counter();
        let delays = DelayModel::default();
        let mut base = PlSimulator::new(&pl, delays.clone()).unwrap();
        let reference: Vec<_> = (0..8)
            .map(|_| {
                let r = base.run_vector(&[]).unwrap();
                (r.outputs, r.latency.to_bits(), r.completed_at.to_bits())
            })
            .collect();

        let mut first = PlSimulator::new(&pl, delays.clone()).unwrap();
        for expect in &reference[..3] {
            let r = first.run_vector(&[]).unwrap();
            assert_eq!(
                &(r.outputs, r.latency.to_bits(), r.completed_at.to_bits()),
                expect
            );
        }
        let ck = first.snapshot();
        assert_eq!(ck.rounds(), 3);
        assert!(ck.queued_events() > 0, "the counter free-runs");
        assert!((ck.time() - first.time()).abs() < f64::EPSILON);

        // The resumed simulator continues the same run exactly...
        let mut resumed = PlSimulator::resume_from(&pl, delays.clone(), &ck).unwrap();
        for expect in &reference[3..] {
            let r = resumed.run_vector(&[]).unwrap();
            assert_eq!(
                &(r.outputs, r.latency.to_bits(), r.completed_at.to_bits()),
                expect
            );
        }
        // ...and taking the snapshot did not perturb the original.
        for expect in &reference[3..] {
            let r = first.run_vector(&[]).unwrap();
            assert_eq!(
                &(r.outputs, r.latency.to_bits(), r.completed_at.to_bits()),
                expect
            );
        }
    }

    #[test]
    fn restore_reuses_one_simulator_across_checkpoints() {
        let pl = xor_gate();
        let delays = DelayModel::default();
        let mut a = PlSimulator::new(&pl, delays.clone()).unwrap();
        let ck0 = a.snapshot();
        let r1 = a.run_vector(&[true, false]).unwrap();
        let ck1 = a.snapshot();
        let r2 = a.run_vector(&[true, true]).unwrap();

        let mut b = PlSimulator::new(&pl, delays).unwrap();
        b.restore(&ck1).unwrap();
        let r2b = b.run_vector(&[true, true]).unwrap();
        assert_eq!(r2b, r2);
        b.restore(&ck0).unwrap();
        let r1b = b.run_vector(&[true, false]).unwrap();
        assert_eq!(r1b, r1);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let small = xor_gate();
        let big = counter();
        let ck = PlSimulator::new(&small, DelayModel::default())
            .unwrap()
            .snapshot();
        match PlSimulator::resume_from(&big, DelayModel::default(), &ck) {
            Err(SimError::CheckpointMismatch { .. }) => {}
            other => panic!("expected CheckpointMismatch, got {other:?}"),
        }
    }

    /// Counts are not identity: a different design with the SAME
    /// gate/arc/output counts must still be rejected (the fingerprint
    /// covers arc topology and gate functions, not just sizes).
    #[test]
    fn same_counts_different_design_is_rejected() {
        fn two_input(
            table_of: fn(
                &mut Netlist,
                pl_netlist::NodeId,
                pl_netlist::NodeId,
            ) -> pl_netlist::NodeId,
        ) -> PlNetlist {
            let mut n = Netlist::new("g");
            let a = n.add_input("a");
            let b = n.add_input("b");
            let g = table_of(&mut n, a, b);
            n.set_output("y", g);
            PlNetlist::from_sync(&n).unwrap()
        }
        let xor = two_input(|n, a, b| n.add_xor2(a, b).unwrap());
        let and = two_input(|n, a, b| n.add_and2(a, b).unwrap());
        assert_eq!(xor.gates().len(), and.gates().len());
        assert_eq!(xor.arcs().len(), and.arcs().len());
        let ck = PlSimulator::new(&xor, DelayModel::default())
            .unwrap()
            .snapshot();
        match PlSimulator::resume_from(&and, DelayModel::default(), &ck) {
            Err(SimError::CheckpointMismatch { .. }) => {}
            other => panic!("expected CheckpointMismatch, got {other:?}"),
        }
        // The genuinely same design (a separate but identical build) is
        // accepted: the fingerprint identifies the design, not the object.
        let xor_again = two_input(|n, a, b| n.add_xor2(a, b).unwrap());
        assert!(PlSimulator::resume_from(&xor_again, DelayModel::default(), &ck).is_ok());
    }

    #[test]
    fn checkpoint_crosses_threads() {
        fn ok<T: Send + Sync + Clone + std::fmt::Debug>() {}
        ok::<SimCheckpoint>();
    }

    #[test]
    fn restore_clears_recorded_trace() {
        let pl = xor_gate();
        let mut sim = PlSimulator::new(&pl, DelayModel::default()).unwrap();
        sim.enable_tracing();
        sim.run_vector(&[true, true]).unwrap();
        assert!(!sim.trace().is_empty());
        let ck = sim.snapshot();
        sim.restore(&ck).unwrap();
        assert!(
            sim.trace().is_empty(),
            "a resumed trace must not mix timelines"
        );
    }
}
