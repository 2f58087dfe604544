//! The discrete-event marked-graph simulator (integer-tick core).
//!
//! Gates are marked-graph transitions; arcs hold at most one token. A gate
//! *fires* by consuming one token from every in-arc and producing one on
//! every out-arc after its component delays. Early-evaluation masters split
//! this atomic firing into *production* (possibly early, when the trigger
//! says the output is forced) and *cleanup* (when the late tokens arrive),
//! exactly as the extra Muller C-elements of the paper's Figure 2 do in
//! hardware.
//!
//! # Engine architecture
//!
//! This is the allocation-free rewrite of the original engine (which is
//! retained verbatim in [`crate::reference`] as a differential baseline):
//!
//! * **Integer time** — events are keyed on `u64` femtosecond ticks
//!   ([`crate::delay::TICKS_PER_NS`]) quantized once from the [`DelayModel`]
//!   via [`DelayModel::to_ticks`]. Tick keys compare exactly; there is no
//!   `f64::total_cmp` heap ordering and no accumulated rounding drift.
//! * **Pluggable event queue** — pending events live in a
//!   [`crate::queue::EventQueue`] over packed `(tick, seq)` keys (`seq`
//!   makes the order total and deterministic), enum-dispatched over two
//!   backends selected at construction
//!   ([`PlSimulator::with_queue`] / [`crate::queue::QueueKind`]):
//!
//!   * `Heap` (the default) — a flat `Vec`-backed binary min-heap,
//!     O(log n) per operation, fully general, and free of steady-state
//!     allocation (capacity is retained across rounds; the ladder trades
//!     that for small per-bucket allocations).
//!   * `Ladder` — a calendar/ladder queue bucketed by integer tick with
//!     FIFO (`seq`) order inside buckets and automatic refinement /
//!     resize rungs. Amortized O(1) push/pop. It wins when the pending
//!     set is large and the tick distribution is dense and
//!     near-monotonic — exactly what this engine produces, since every
//!     scheduled event lies at most one maximum component delay
//!     (~3.1 ns on the default model) ahead of the current time, and
//!     the larger ITC'99 designs keep hundreds of events in flight. For
//!     tiny designs (tens of events pending) the heap's lower constant
//!     factor wins instead; `BENCH_queue.json` tracks the measured
//!     crossover on streamed b14/b15.
//!
//!   The backend is an implementation detail, never semantics: both pop
//!   in exactly ascending `(tick, seq)` order, results are bit-identical
//!   (differentially pinned across the whole equivalence suite), and
//!   [`crate::SimCheckpoint`]s canonicalize the in-flight queue to a
//!   sorted event list, so a checkpoint taken on one backend resumes on
//!   the other.
//! * **CSR adjacency** — all topology questions go through
//!   [`pl_core::PlAdjacency`]: per-gate contiguous slices of pin-indexed
//!   data-in arcs, ack in-arcs, and out-arcs pre-split into value-carrying
//!   and acknowledge lists. Firing never scans arc `Vec`s or allocates.
//! * **Incremental readiness** — per-gate bitsets (`pin_tokens`, one bit
//!   per LUT pin) and an `ack_missing` counter are updated on every
//!   deliver/consume, so the firing checks in `try_schedule` are O(1)
//!   mask compares instead of arc re-scans.
//!
//! # The lane model
//!
//! The simulator is generic over a [`LaneWord`] `L` — the value payload
//! riding each token. [`PlSimulator`] is the 1-lane (`L = bool`)
//! instantiation; [`BatchSimulator`] (`L = u64`) marches **64 independent
//! input vectors in lockstep through one event flow**, each gate
//! evaluation computing all 64 lanes with bitwise ops over the packed
//! truth table.
//!
//! What is shared and what is per-lane:
//!
//! * **Shared (lane-invariant):** the whole token game — arc token
//!   presence (`tokens`), per-gate readiness (`pin_tokens`,
//!   `ack_missing`), scheduling flags, round generations, the event
//!   queue, and therefore simulated time itself. The marked graph is a
//!   Kahn network: *which* round's token an arc carries is decided by
//!   token availability alone, never by token values, so 64 lanes fed in
//!   lockstep always agree on the schedule.
//! * **Per-lane:** token *values* — `values`, `pin_vals`,
//!   `pending_input`, and the recorded output words. Each lane's value
//!   stream is exactly what a scalar run fed that lane's vectors would
//!   produce: per-round output values are a pure function of per-round
//!   input values (Kahn determinism again), so the batch engine is
//!   pinned bit-identical, lane by lane, to 64 sequential scalar runs
//!   (`tests/engine_equivalence.rs`).
//!
//! The one lane-sensitive decision is early evaluation: the early path
//! fires only when the trigger is true **in every lane**
//! ([`LaneWord::all`]), so event *timing* in a batch run follows the
//! worst lane of the block. Values are unaffected — any lane whose
//! trigger fired true has a forced output no matter which path produces
//! it — which is exactly the latitude the determinism contract leaves
//! open (values bit-identical; makespans may differ from scalar runs).
//!
//! Observable semantics (output streams, event ordering, latencies up to
//! the femtosecond quantization of the clock) are identical to the
//! reference engine; `tests/engine_equivalence.rs` enforces this
//! differentially on the ITC'99 suite and on randomized netlists.

use std::collections::VecDeque;

use pl_core::adjacency::{GateClass, NO_ARC};
use pl_core::{PlAdjacency, PlArcId, PlArcKind, PlGateId, PlNetlist};

use crate::delay::{ticks_to_ns, DelayModel, TickDelays};
use crate::error::SimError;
use crate::lane::LaneWord;
use crate::queue::{EventQueue, QueueKind};

/// Result of simulating one input vector to a stable output word.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorOutcome<L: LaneWord = bool> {
    /// Output values, in output-port order (one lane word per output).
    pub outputs: Vec<L>,
    /// Delay from vector application to the last output token (ns).
    pub latency: f64,
    /// Absolute simulation time at which the output word was complete.
    pub completed_at: f64,
}

/// Result of a pipelined [`PlSimulator::run_stream`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOutcome<L: LaneWord = bool> {
    /// Output words, one per injected vector, in injection order.
    pub outputs: Vec<Vec<L>>,
    /// Time from the first injection to the last output token (ns).
    pub makespan: f64,
    /// Sustained rate, vectors per nanosecond.
    pub throughput: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum EventKind<L: LaneWord = bool> {
    /// Batched token delivery: every out-arc of `gate`'s firing shares the
    /// same wire delay, so all its deliveries land as ONE queue event
    /// (heap traffic per firing is O(1) instead of O(fanout)). Dispatch
    /// order is identical to per-arc events: the per-arc events carried
    /// consecutive `seq`s, so nothing could interleave between them.
    Tokens {
        gate: u32,
        value: L,
        data: bool,
        acks: bool,
    },
    Fire {
        gate: u32,
    },
    /// EE-master output production (either path). `gen` guards against
    /// stale events from a previous round.
    Produce {
        gate: u32,
        gen: u64,
    },
    /// EE-master token cleanup rendezvous.
    Cleanup {
        gate: u32,
        gen: u64,
    },
}

/// One canonicalized in-flight event as a checkpoint stores it. The live
/// queue itself is a [`crate::queue::EventQueue`] over `(key, kind)`
/// pairs; this struct only exists so [`crate::SimCheckpoint`] can carry a
/// queue-kind-portable sorted event list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Event<L: LaneWord = bool> {
    /// `(tick << 64) | seq` — a strict total order (seq is unique).
    pub(crate) key: u128,
    pub(crate) kind: EventKind<L>,
}

// Per-gate scheduling flags (round-trip state of the firing automaton).
const F_FIRE_SCHED: u8 = 1 << 0;
const F_PRODUCED: u8 = 1 << 1;
const F_NORMAL_SCHED: u8 = 1 << 2;
const F_EARLY_SCHED: u8 = 1 << 3;

/// Event-driven simulator over a [`PlNetlist`], generic over the
/// [`LaneWord`] its token payloads carry (see the
/// [lane model](crate::lane)).
///
/// Use the [`PlSimulator`] alias for ordinary scalar simulation and
/// [`BatchSimulator`] for the 64-lane batch engine; the generic name only
/// appears when writing code that works at either width.
#[derive(Debug, Clone)]
pub struct LaneSimulator<'a, L: LaneWord = bool> {
    pub(crate) pl: &'a PlNetlist,
    adj: PlAdjacency,
    delays: DelayModel,
    ticks: TickDelays,
    /// The netlist's design fingerprint
    /// ([`crate::checkpoint::netlist_fingerprint`]), computed once here so
    /// per-window snapshot/restore never re-walks the netlist.
    pub(crate) fingerprint: u64,
    pub(crate) now: u64,
    pub(crate) seq: u64,
    pub(crate) events: u64,
    pub(crate) queue: EventQueue<EventKind<L>>,
    /// Per-arc token presence (0/1) — shared by all lanes.
    pub(crate) tokens: Vec<u8>,
    /// Per-arc token value (data/efire arcs), one lane word per arc.
    pub(crate) values: Vec<L>,
    /// Per-gate bit-per-pin token presence (incremental `data_ready`) —
    /// shared by all lanes.
    pub(crate) pin_tokens: Vec<u8>,
    /// Per-gate per-lane token values on the input pins (for the scalar
    /// word this is the partial LUT minterm index, as before).
    pub(crate) pin_vals: Vec<L::PinVals>,
    /// Per-gate count of unmarked acknowledge in-arcs (efire excluded).
    pub(crate) ack_missing: Vec<u32>,
    pub(crate) pending_input: Vec<Option<L>>,
    pub(crate) flags: Vec<u8>,
    /// EE masters: per-gate round generation (stale-event guard).
    pub(crate) gen: Vec<u64>,
    pub(crate) records: Vec<VecDeque<(L, u64)>>,
    pub(crate) rounds: u64,
    pub(crate) trace: Option<Vec<crate::trace::TraceEvent>>,
}

/// The scalar (1-lane) simulator — the engine every existing caller uses,
/// pinned bit-identical to the pre-lane engine and to
/// [`crate::reference`].
pub type PlSimulator<'a> = LaneSimulator<'a, bool>;

/// The 64-lane batch simulator: token payloads are `u64` words carrying
/// 64 independent vectors through one event flow. See
/// [`BatchSimulator::run_lanes`] for the packing front end and the
/// [lane model](crate::lane) for the determinism contract.
pub type BatchSimulator<'a> = LaneSimulator<'a, u64>;

impl<'a, L: LaneWord> LaneSimulator<'a, L> {
    /// Prepares a simulator: checks structural liveness, freezes the flat
    /// adjacency, and places the initial marking. Events schedule through
    /// the default [`QueueKind::Heap`] backend; use
    /// [`PlSimulator::with_queue`] to select another.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Structural`] if the netlist is not live.
    pub fn new(pl: &'a PlNetlist, delays: DelayModel) -> Result<Self, SimError> {
        Self::with_queue(pl, delays, QueueKind::default())
    }

    /// [`PlSimulator::new`] with an explicit event-queue backend. The
    /// backend is a pure implementation choice — simulation results are
    /// bit-identical across kinds (see [`crate::queue`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Structural`] if the netlist is not live.
    pub fn with_queue(
        pl: &'a PlNetlist,
        delays: DelayModel,
        queue: QueueKind,
    ) -> Result<Self, SimError> {
        pl.check_pins()?;
        pl_core::marked::check_liveness(pl)?;
        let adj = pl.adjacency();
        let n = pl.gates().len();
        let ticks = delays.to_ticks();
        let mut sim = Self {
            pl,
            delays,
            ticks,
            fingerprint: crate::checkpoint::netlist_fingerprint(pl),
            now: 0,
            seq: 0,
            events: 0,
            queue: EventQueue::new(queue),
            tokens: pl.arcs().iter().map(pl_core::PlArc::init_tokens).collect(),
            values: pl.arcs().iter().map(|a| L::splat(a.init_value())).collect(),
            pin_tokens: vec![0; n],
            pin_vals: vec![L::pv_empty(); n],
            ack_missing: vec![0; n],
            pending_input: vec![None; n],
            flags: vec![0; n],
            gen: vec![0; n],
            records: vec![VecDeque::new(); pl.output_gates().len()],
            rounds: 0,
            trace: None,
            adj,
        };
        // Derive the incremental readiness state from the initial marking.
        for g in 0..n {
            sim.ack_missing[g] = sim
                .adj
                .ack_in_arcs(g)
                .iter()
                .filter(|&&a| sim.tokens[a as usize] == 0)
                .count() as u32;
            for (pin, &a) in sim.adj.pin_arcs(g).iter().enumerate() {
                if a != NO_ARC && sim.tokens[a as usize] == 1 {
                    sim.pin_tokens[g] |= 1 << pin;
                    let v = sim.values[a as usize];
                    L::pv_set(&mut sim.pin_vals[g], pin as u8, v);
                }
            }
        }
        // Gates fed entirely by initial tokens (e.g. autonomous next-state
        // logic) may fire right away.
        for g in 0..n {
            sim.try_schedule(g);
        }
        Ok(sim)
    }

    /// Current simulation time (ns).
    #[must_use]
    pub fn time(&self) -> f64 {
        ticks_to_ns(self.now)
    }

    /// Current simulation time in integer ticks (femtoseconds).
    #[must_use]
    pub fn time_ticks(&self) -> u64 {
        self.now
    }

    /// The delay model this simulator was built with (the engine runs on
    /// its [`DelayModel::to_ticks`] quantization).
    #[must_use]
    pub fn delay_model(&self) -> &DelayModel {
        &self.delays
    }

    /// The event-queue backend this simulator schedules through.
    #[must_use]
    pub fn queue_kind(&self) -> QueueKind {
        self.queue.kind()
    }

    /// Number of completed vectors.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Number of events dispatched so far (the engine-throughput unit
    /// reported as events/sec by the benchmark harness).
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Starts recording token deliveries for [`crate::trace::to_vcd`].
    /// In a batch simulator only lane 0 is traced.
    pub fn enable_tracing(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// The recorded trace (empty unless tracing was enabled).
    #[must_use]
    pub fn trace(&self) -> &[crate::trace::TraceEvent] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Applies one input vector (input-port order) and runs until every
    /// output has produced its token for this round.
    ///
    /// # Errors
    ///
    /// [`SimError::InputArityMismatch`] for a wrong-size vector;
    /// [`SimError::Deadlock`] if the token game stalls;
    /// [`SimError::SafetyViolation`] / [`SimError::UnsoundTrigger`] indicate
    /// internal invariant breaches.
    pub fn run_vector(&mut self, inputs: &[L]) -> Result<VectorOutcome<L>, SimError> {
        let mut outputs = Vec::new();
        let (latency, completed_at) = self.run_vector_into(inputs, &mut outputs)?;
        Ok(VectorOutcome {
            outputs,
            latency,
            completed_at,
        })
    }

    /// [`PlSimulator::run_vector`] writing the output word into a
    /// caller-owned scratch buffer instead of allocating one — the
    /// hot-loop primitive for digest/compare passes that run millions of
    /// vectors and never keep the words. `out` is cleared first; its
    /// capacity is reused across calls. Returns `(latency, completed_at)`
    /// in ns, exactly the timing fields of [`VectorOutcome`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`PlSimulator::run_vector`].
    pub fn run_vector_into(
        &mut self,
        inputs: &[L],
        out: &mut Vec<L>,
    ) -> Result<(f64, f64), SimError> {
        let ports = self.pl.input_gates();
        if inputs.len() != ports.len() {
            return Err(SimError::InputArityMismatch {
                got: inputs.len(),
                expected: ports.len(),
            });
        }
        // If a previous vector was never consumed (outputs independent of
        // that input), let the wave drain first.
        self.drain_pending_inputs()?;
        let start = self.now;
        for (k, &g) in ports.iter().enumerate() {
            self.pending_input[g.index()] = Some(inputs[k]);
            self.try_schedule(g.index());
        }
        self.record_constant_outputs();
        // Run until each output's record queue has an entry for this round.
        while !self.round_complete() {
            let Some((key, kind)) = self.queue.pop() else {
                return Err(SimError::Deadlock {
                    at_time: self.time(),
                    missing_outputs: self.missing_outputs(),
                });
            };
            self.now = crate::queue::tick_of(key);
            self.dispatch(kind)?;
        }
        out.clear();
        out.reserve(self.records.len());
        let mut completed_at = start;
        for q in &mut self.records {
            let (v, t) = q.pop_front().expect("round_complete guarantees a record");
            out.push(v);
            completed_at = completed_at.max(t);
        }
        self.rounds += 1;
        Ok((ticks_to_ns(completed_at - start), ticks_to_ns(completed_at)))
    }

    /// Streams vectors through the netlist *pipelined*: each vector is
    /// injected as soon as the environment's input gates are re-armed,
    /// without waiting for the previous output word — measuring sustained
    /// throughput rather than per-vector latency (the paper's framing of
    /// early evaluation as a *throughput* optimization, §1).
    ///
    /// Returns the outputs per vector plus the makespan from the first
    /// injection to the last output token.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PlSimulator::run_vector`].
    pub fn run_stream(&mut self, vectors: &[Vec<L>]) -> Result<StreamOutcome<L>, SimError> {
        let start = self.now;
        for v in vectors {
            self.feed_vector(v)?;
        }
        // Run to completion of every vector's output word.
        let mut outputs = Vec::with_capacity(vectors.len());
        let last = self.collect_rounds(vectors.len(), &mut outputs)?.max(start);
        let makespan = ticks_to_ns(last - start);
        Ok(StreamOutcome {
            outputs,
            makespan,
            throughput: if makespan > 0.0 {
                vectors.len() as f64 / makespan
            } else {
                f64::INFINITY
            },
        })
    }

    /// Queues one vector into a pipelined stream: waits (in simulated time)
    /// only for the environment's input gates to be re-armed, applies the
    /// vector, and returns **without waiting for any output word** — exactly
    /// one injection step of [`PlSimulator::run_stream`]. Output words
    /// accumulate in the per-output record queues and are collected by
    /// `run_stream`'s completion loop (or window by window by
    /// [`crate::sweep_resumable`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`PlSimulator::run_vector`].
    pub fn feed_vector(&mut self, inputs: &[L]) -> Result<(), SimError> {
        let ports = self.pl.input_gates();
        if inputs.len() != ports.len() {
            return Err(SimError::InputArityMismatch {
                got: inputs.len(),
                expected: ports.len(),
            });
        }
        // Wait only for the *input* queue to free, not for outputs.
        self.drain_pending_inputs()?;
        for (i, &g) in ports.iter().enumerate() {
            self.pending_input[g.index()] = Some(inputs[i]);
            self.try_schedule(g.index());
        }
        self.record_constant_outputs();
        Ok(())
    }

    /// Runs events until `n` more output words are recorded, moves them
    /// into `out` oldest first, and returns their latest record tick (0
    /// when `n` is 0). This is the completion loop of
    /// [`PlSimulator::run_stream`]; the resumable sweep calls it once per
    /// window. Words already recorded are taken without dispatching an
    /// event, and nothing in event dispatch reads the record queues, so
    /// collecting a window early never changes the event schedule.
    pub(crate) fn collect_rounds(
        &mut self,
        n: usize,
        out: &mut Vec<Vec<L>>,
    ) -> Result<u64, SimError> {
        let mut last = 0;
        for _ in 0..n {
            while !self.round_complete() {
                let Some((key, kind)) = self.queue.pop() else {
                    return Err(SimError::Deadlock {
                        at_time: self.time(),
                        missing_outputs: self.missing_outputs(),
                    });
                };
                self.now = crate::queue::tick_of(key);
                self.dispatch(kind)?;
            }
            let mut word = Vec::with_capacity(self.records.len());
            for q in &mut self.records {
                let (v, t) = q.pop_front().expect("round complete");
                word.push(v);
                last = last.max(t);
            }
            out.push(word);
            self.rounds += 1;
        }
        Ok(last)
    }

    /// Rounds whose output words are all recorded but not yet collected:
    /// the shortest record queue's length (`usize::MAX` for a netlist
    /// without outputs, whose rounds are always complete).
    pub(crate) fn recorded_rounds(&self) -> usize {
        self.records
            .iter()
            .map(VecDeque::len)
            .min()
            .unwrap_or(usize::MAX)
    }

    /// Outputs tied to constants have no token traffic; record their value
    /// for the round directly.
    fn record_constant_outputs(&mut self) {
        for (slot, (_, og)) in self.pl.output_gates().iter().enumerate() {
            let gate = &self.pl.gates()[og.index()];
            if gate.data_in().is_empty() {
                if let Some(v) = gate.const_pin(0) {
                    self.records[slot].push_back((L::splat(v), self.now));
                }
            }
        }
    }

    fn round_complete(&self) -> bool {
        self.records.iter().all(|q| !q.is_empty())
    }

    fn missing_outputs(&self) -> Vec<String> {
        self.pl
            .output_gates()
            .iter()
            .zip(&self.records)
            .filter(|(_, q)| q.is_empty())
            .map(|((name, _), _)| name.clone())
            .collect()
    }

    fn drain_pending_inputs(&mut self) -> Result<(), SimError> {
        while self.pending_input.iter().any(Option::is_some) {
            let Some((key, kind)) = self.queue.pop() else {
                return Err(SimError::Deadlock {
                    at_time: self.time(),
                    missing_outputs: vec!["<pending input never consumed>".into()],
                });
            };
            self.now = crate::queue::tick_of(key);
            self.dispatch(kind)?;
        }
        Ok(())
    }

    // ---- event machinery -------------------------------------------------

    fn post(&mut self, delay: u64, kind: EventKind<L>) {
        let key = crate::queue::pack_key(self.now + delay, self.seq);
        self.seq += 1;
        self.queue.push(key, kind);
    }

    fn dispatch(&mut self, kind: EventKind<L>) -> Result<(), SimError> {
        match kind {
            EventKind::Tokens {
                gate,
                value,
                data,
                acks,
            } => self.deliver_all(gate as usize, value, data, acks),
            EventKind::Fire { gate } => {
                self.events += 1;
                self.fire(gate as usize)
            }
            EventKind::Produce { gate, gen } => {
                self.events += 1;
                self.ee_produce(gate as usize, gen)
            }
            EventKind::Cleanup { gate, gen } => {
                self.events += 1;
                self.ee_cleanup(gate as usize, gen)
            }
        }
    }

    /// Delivers one firing's batched tokens (value-carrying and/or ack
    /// out-arcs of `g`). Each delivered token counts as one event.
    fn deliver_all(&mut self, g: usize, value: L, data: bool, acks: bool) -> Result<(), SimError> {
        if data {
            for k in 0..self.adj.out_value_arcs(g).len() {
                let arc = self.adj.out_value_arcs(g)[k];
                self.deliver(arc as usize, value)?;
            }
        }
        if acks {
            for k in 0..self.adj.out_ack_arcs(g).len() {
                let arc = self.adj.out_ack_arcs(g)[k];
                self.deliver(arc as usize, value)?;
            }
        }
        Ok(())
    }

    fn deliver(&mut self, arc: usize, value: L) -> Result<(), SimError> {
        self.events += 1;
        if self.tokens[arc] >= 1 {
            return Err(SimError::SafetyViolation {
                arc: PlArcId::from_index(arc),
                producer: PlGateId::from_index(self.adj.arc_src(arc) as usize),
            });
        }
        self.tokens[arc] = 1;
        self.values[arc] = value;
        let dst = self.adj.arc_dst(arc) as usize;
        match self.adj.arc_kind(arc) {
            PlArcKind::Data => {
                let pin = self.adj.arc_dst_pin(arc);
                self.pin_tokens[dst] |= 1u8 << pin;
                L::pv_set(&mut self.pin_vals[dst], pin, value);
            }
            PlArcKind::Ack => self.ack_missing[dst] -= 1,
            PlArcKind::Efire => {}
        }
        if let Some(trace) = &mut self.trace {
            if self.adj.arc_kind(arc) != PlArcKind::Ack {
                trace.push(crate::trace::TraceEvent {
                    time: ticks_to_ns(self.now),
                    arc,
                    value: value.lane(0),
                });
            }
        }
        self.try_schedule(dst);
        Ok(())
    }

    /// Checks a gate's firing conditions and posts Fire/Produce events.
    /// All checks are O(1) against the incrementally maintained masks.
    fn try_schedule(&mut self, g: usize) {
        match self.adj.gate_class(g) {
            GateClass::Constant => {}
            GateClass::Input => {
                if self.flags[g] & F_FIRE_SCHED == 0
                    && self.pending_input[g].is_some()
                    && self.ack_missing[g] == 0
                {
                    self.flags[g] |= F_FIRE_SCHED;
                    self.post(0, EventKind::Fire { gate: g as u32 });
                }
            }
            GateClass::Output => {
                // Constant-driven outputs have no token traffic; run_vector
                // records them directly.
                if self.adj.data_full_mask(g) != 0
                    && self.flags[g] & F_FIRE_SCHED == 0
                    && self.data_ready(g)
                {
                    self.flags[g] |= F_FIRE_SCHED;
                    self.post(self.ticks.c_element, EventKind::Fire { gate: g as u32 });
                }
            }
            GateClass::Logic => {
                let efire = self.adj.efire_arc(g);
                if efire != NO_ARC {
                    let efire = efire as usize;
                    let efire_ready = self.tokens[efire] == 1;
                    let acks_ready = self.ack_missing[g] == 0;
                    let gen = self.gen[g];
                    let flags = self.flags[g];
                    // Normal production: all data inputs present. The extra
                    // EE C-element costs `ee_overhead` on this path, but the
                    // trigger is NOT waited for (its token is collected at
                    // cleanup) — the paper's "slight degradation" only.
                    if flags & (F_PRODUCED | F_NORMAL_SCHED) == 0
                        && self.data_ready(g)
                        && acks_ready
                    {
                        self.flags[g] |= F_NORMAL_SCHED;
                        self.post(
                            self.ticks.ee_master,
                            EventKind::Produce {
                                gate: g as u32,
                                gen,
                            },
                        );
                    }
                    // Early production: trigger fired true (in EVERY lane —
                    // the shared event flow can only commit to the early
                    // path when all lanes' outputs are forced), fast pins
                    // here.
                    if self.flags[g] & (F_PRODUCED | F_EARLY_SCHED) == 0
                        && efire_ready
                        && self.values[efire].all()
                        && self.subset_ready(g)
                        && acks_ready
                    {
                        self.flags[g] |= F_EARLY_SCHED;
                        self.post(
                            self.ticks.ee_early,
                            EventKind::Produce {
                                gate: g as u32,
                                gen,
                            },
                        );
                    }
                    // Cleanup rendezvous: output gone, every token here.
                    if self.flags[g] & F_PRODUCED != 0
                        && self.flags[g] & F_FIRE_SCHED == 0
                        && self.data_ready(g)
                        && efire_ready
                    {
                        self.flags[g] |= F_FIRE_SCHED;
                        self.post(
                            self.ticks.c_element,
                            EventKind::Cleanup {
                                gate: g as u32,
                                gen,
                            },
                        );
                    }
                } else if self.flags[g] & F_FIRE_SCHED == 0
                    && self.data_ready(g)
                    && self.ack_missing[g] == 0
                {
                    self.flags[g] |= F_FIRE_SCHED;
                    self.post(self.ticks.gate, EventKind::Fire { gate: g as u32 });
                }
            }
        }
    }

    fn data_ready(&self, g: usize) -> bool {
        self.pin_tokens[g] == self.adj.data_full_mask(g)
    }

    fn subset_ready(&self, g: usize) -> bool {
        let m = self.adj.subset_mask(g);
        self.pin_tokens[g] & m == m
    }

    /// Evaluates the gate's function from its (complete) pins for every
    /// lane at once — for the scalar word this is the LUT shift-lookup of
    /// the pre-lane engine, verbatim.
    fn evaluate(&self, g: usize) -> L {
        debug_assert!(self.data_ready(g), "evaluate needs every pin token");
        L::eval(
            self.adj.eval_bits(g),
            &self.pin_vals[g],
            self.pin_tokens[g],
            self.adj.const_pin_mask(g),
            self.adj.const_value_bits(g),
        )
    }

    /// Consumes gate `g`'s data in-arcs (clearing its pin-token bits).
    fn consume_data(&mut self, g: usize) {
        for k in 0..self.adj.pin_arcs(g).len() {
            let a = self.adj.pin_arcs(g)[k];
            if a != NO_ARC {
                debug_assert_eq!(self.tokens[a as usize], 1, "consuming an unmarked arc");
                self.tokens[a as usize] = 0;
            }
        }
        self.pin_tokens[g] = 0;
    }

    /// Consumes gate `g`'s acknowledge in-arcs.
    fn consume_acks(&mut self, g: usize) {
        let mut consumed = 0;
        for k in 0..self.adj.ack_in_arcs(g).len() {
            let a = self.adj.ack_in_arcs(g)[k];
            debug_assert_eq!(self.tokens[a as usize], 1, "consuming an unmarked ack");
            self.tokens[a as usize] = 0;
            consumed += 1;
        }
        self.ack_missing[g] += consumed;
    }

    /// Sends tokens on out-arcs; `data_value` is placed on value-carrying
    /// (data + efire) arcs, acks carry pure timing tokens. One batched
    /// queue event covers the whole firing (all arcs share the wire delay).
    fn produce(&mut self, g: usize, data_value: L, include_data: bool, include_acks: bool) {
        self.post(
            self.ticks.wire,
            EventKind::Tokens {
                gate: g as u32,
                value: data_value,
                data: include_data,
                acks: include_acks,
            },
        );
    }

    fn fire(&mut self, g: usize) -> Result<(), SimError> {
        self.flags[g] &= !F_FIRE_SCHED;
        match self.adj.gate_class(g) {
            GateClass::Input => {
                self.consume_acks(g);
                let v = self.pending_input[g]
                    .take()
                    .expect("input armed before firing");
                self.produce(g, v, true, true);
            }
            GateClass::Output => {
                let arc = self.adj.pin_arc(g, 0);
                debug_assert_ne!(arc, NO_ARC, "token-driven outputs have a pin-0 arc");
                let v = self.values[arc as usize];
                self.consume_data(g);
                let slot = self.adj.output_slot(g);
                debug_assert_ne!(slot, NO_ARC, "output gate is registered");
                self.records[slot as usize].push_back((v, self.now));
                self.produce(g, v, true, true);
            }
            GateClass::Logic => {
                debug_assert_eq!(
                    self.adj.efire_arc(g),
                    NO_ARC,
                    "EE masters use Produce/Cleanup events, not Fire"
                );
                let v = self.evaluate(g);
                self.consume_data(g);
                self.consume_acks(g);
                self.produce(g, v, true, true);
            }
            GateClass::Constant => unreachable!("constants never fire"),
        }
        // Consuming in-arcs can re-enable this gate only via future
        // deliveries, but producers of freshly-acked arcs may now be ready.
        // (Those are woken by the Deliver events posted above.)
        self.try_schedule(g);
        Ok(())
    }

    /// EE-master output production — normal or early path, whichever event
    /// lands first this round wins; the loser aborts on the `produced` flag.
    fn ee_produce(&mut self, g: usize, gen: u64) -> Result<(), SimError> {
        if gen != self.gen[g] || self.flags[g] & F_PRODUCED != 0 {
            return Ok(()); // stale event or the other path already produced
        }
        debug_assert_eq!(self.ack_missing[g], 0, "acks were ready at scheduling");
        let v = if self.data_ready(g) {
            // Normal path (or early with everything present anyway).
            self.evaluate(g)
        } else {
            // Early path: the trigger promised the known pins force the
            // output (in every lane); verify that promise by enumerating
            // the completions of the missing pins.
            let Some(v) = L::forced(
                self.adj.eval_bits(g),
                &self.pin_vals[g],
                self.pin_tokens[g],
                self.adj.data_full_mask(g),
                self.adj.const_pin_mask(g),
                self.adj.const_value_bits(g),
            ) else {
                return Err(SimError::UnsoundTrigger {
                    master: PlGateId::from_index(g),
                });
            };
            v
        };
        self.consume_acks(g);
        self.flags[g] |= F_PRODUCED;
        self.produce(g, v, true, false);
        // The cleanup rendezvous may already be satisfiable.
        self.try_schedule(g);
        Ok(())
    }

    /// EE-master cleanup: all data tokens and the efire token are consumed,
    /// source acknowledges go out, and the round generation advances.
    fn ee_cleanup(&mut self, g: usize, gen: u64) -> Result<(), SimError> {
        if gen != self.gen[g] {
            return Ok(());
        }
        debug_assert!(
            self.flags[g] & F_PRODUCED != 0,
            "cleanup only scheduled after production"
        );
        self.consume_data(g);
        let efire = self.adj.efire_arc(g) as usize;
        debug_assert_eq!(self.tokens[efire], 1, "cleanup consumes the efire token");
        self.tokens[efire] = 0;
        self.flags[g] = 0;
        self.gen[g] += 1;
        self.produce(g, L::splat(false), false, true);
        self.try_schedule(g);
        Ok(())
    }
}

impl<'a> BatchSimulator<'a> {
    /// Runs up to 64 independent vector streams in lockstep through this
    /// one engine: stream `l` becomes lane `l`, round `r` of the shared
    /// event flow carries round `r` of every stream, and each stream's
    /// outputs come back as plain `bool` words, truncated to its own
    /// length (streams may be ragged; exhausted lanes are padded with
    /// all-false vectors, which never perturbs other lanes' values).
    ///
    /// Each returned [`StreamOutcome`]'s output words are bit-identical
    /// to a scalar [`PlSimulator::run_stream`] over the same stream. The
    /// timing fields describe the *shared* block schedule (one makespan
    /// for the whole block; per-stream throughput is the stream's own
    /// length over that makespan), which can differ from a scalar run's
    /// timing — see the [lane model](crate::lane).
    ///
    /// # Panics
    ///
    /// Panics if `streams` is empty or holds more than 64 streams.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PlSimulator::run_stream`];
    /// [`SimError::InputArityMismatch`] if any vector of any stream has
    /// the wrong arity.
    pub fn run_lanes(&mut self, streams: &[&[Vec<bool>]]) -> Result<Vec<StreamOutcome>, SimError> {
        assert!(
            !streams.is_empty() && streams.len() <= 64,
            "a batch runs 1..=64 streams, got {}",
            streams.len()
        );
        let n_in = self.pl.input_gates().len();
        let rounds = streams.iter().map(|s| s.len()).max().unwrap_or(0);
        let mut packed = Vec::with_capacity(rounds);
        for r in 0..rounds {
            let mut word = vec![0u64; n_in];
            for (l, s) in streams.iter().enumerate() {
                if r >= s.len() {
                    continue; // exhausted lane: all-false padding
                }
                if s[r].len() != n_in {
                    return Err(SimError::InputArityMismatch {
                        got: s[r].len(),
                        expected: n_in,
                    });
                }
                for (p, &bit) in s[r].iter().enumerate() {
                    word[p] |= u64::from(bit) << l;
                }
            }
            packed.push(word);
        }
        let wide = self.run_stream(&packed)?;
        Ok(streams
            .iter()
            .enumerate()
            .map(|(l, s)| {
                let outputs = wide.outputs[..s.len()]
                    .iter()
                    .map(|word| word.iter().map(|&w| w.lane(l)).collect())
                    .collect();
                StreamOutcome {
                    outputs,
                    makespan: wide.makespan,
                    throughput: if wide.makespan > 0.0 {
                        s.len() as f64 / wide.makespan
                    } else {
                        f64::INFINITY
                    },
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferenceSimulator;
    use pl_boolfn::TruthTable;
    use pl_core::ee::EeOptions;
    use pl_netlist::Netlist;

    fn and_gate() -> PlNetlist {
        let mut n = Netlist::new("and");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_and2(a, b).unwrap();
        n.set_output("y", g);
        PlNetlist::from_sync(&n).unwrap()
    }

    #[test]
    fn and_gate_values_and_timing() {
        let pl = and_gate();
        let mut sim = PlSimulator::new(&pl, DelayModel::default()).unwrap();
        let r = sim.run_vector(&[true, true]).unwrap();
        assert_eq!(r.outputs, vec![true]);
        // wire + gate + wire + output C-element = 0.3 + 2.4 + 0.3 + 0.6
        assert!((r.latency - 3.6).abs() < 1e-9, "latency {}", r.latency);
        let r = sim.run_vector(&[true, false]).unwrap();
        assert_eq!(r.outputs, vec![false]);
        assert_eq!(sim.rounds(), 2);
        assert!(sim.events_processed() > 0);
    }

    #[test]
    fn counter_free_runs() {
        let mut n = Netlist::new("cnt");
        let q0 = n.add_dff(false);
        let q1 = n.add_dff(false);
        let n0 = n.add_not(q0).unwrap();
        let t1 = n.add_xor2(q1, q0).unwrap();
        n.set_dff_input(q0, n0).unwrap();
        n.set_dff_input(q1, t1).unwrap();
        n.set_output("q0", q0);
        n.set_output("q1", q1);
        let pl = PlNetlist::from_sync(&n).unwrap();
        let mut sim = PlSimulator::new(&pl, DelayModel::default()).unwrap();
        let mut seq = Vec::new();
        for _ in 0..4 {
            let r = sim.run_vector(&[]).unwrap();
            seq.push((u8::from(r.outputs[1]) << 1) | u8::from(r.outputs[0]));
        }
        assert_eq!(seq, vec![0, 1, 2, 3]);
    }

    #[test]
    fn zero_delay_model_still_orders_correctly() {
        let pl = and_gate();
        let mut sim = PlSimulator::new(&pl, DelayModel::zero()).unwrap();
        let r = sim.run_vector(&[true, true]).unwrap();
        assert_eq!(r.outputs, vec![true]);
        assert_eq!(r.latency, 0.0);
    }

    /// Ripple-carry adder cells: EE should cut latency when trigger hits.
    fn ripple(bits: usize) -> Netlist {
        let mut n = Netlist::new("rca");
        let a: Vec<_> = (0..bits).map(|i| n.add_input(format!("a{i}"))).collect();
        let b: Vec<_> = (0..bits).map(|i| n.add_input(format!("b{i}"))).collect();
        let mut carry = n.add_const(false);
        for i in 0..bits {
            let sum_t = TruthTable::from_fn(3, |m| m.count_ones() % 2 == 1);
            let cry_t = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
            let s = n.add_lut(sum_t, vec![a[i], b[i], carry]).unwrap();
            let c = n.add_lut(cry_t, vec![a[i], b[i], carry]).unwrap();
            n.set_output(format!("s{i}"), s);
            carry = c;
        }
        n.set_output("cout", carry);
        n
    }

    fn adder_vectors(bits: usize) -> Vec<Vec<bool>> {
        // kill/generate-rich patterns so triggers fire often
        let mut v = Vec::new();
        let mut x: u64 = 99;
        for _ in 0..24 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = x & ((1 << bits) - 1);
            let b = (x >> 17) & ((1 << bits) - 1);
            let mut ins = Vec::new();
            for i in 0..bits {
                ins.push((a >> i) & 1 == 1);
            }
            for i in 0..bits {
                ins.push((b >> i) & 1 == 1);
            }
            v.push(ins);
        }
        v
    }

    #[test]
    fn adder_ee_is_functionally_identical_and_faster_on_average() {
        let bits = 6;
        let sync = ripple(bits);
        let plain = PlNetlist::from_sync(&sync).unwrap();
        let ee = PlNetlist::from_sync(&sync)
            .unwrap()
            .with_early_evaluation(&EeOptions::default())
            .into_netlist();
        let mut s_plain = PlSimulator::new(&plain, DelayModel::default()).unwrap();
        let mut s_ee = PlSimulator::new(&ee, DelayModel::default()).unwrap();
        let (mut sum_p, mut sum_e) = (0.0, 0.0);
        for ins in adder_vectors(bits) {
            let rp = s_plain.run_vector(&ins).unwrap();
            let re = s_ee.run_vector(&ins).unwrap();
            assert_eq!(rp.outputs, re.outputs, "EE changed functionality");
            sum_p += rp.latency;
            sum_e += re.latency;
        }
        assert!(
            sum_e < sum_p,
            "EE should speed up the ripple adder: {sum_e} vs {sum_p}"
        );
    }

    #[test]
    fn streaming_matches_serialized_outputs_and_is_no_slower() {
        let sync = ripple(5);
        let pl = PlNetlist::from_sync(&sync).unwrap();
        let vectors = adder_vectors(5);

        // Serialized reference.
        let mut serial = PlSimulator::new(&pl, DelayModel::default()).unwrap();
        let mut serial_outputs = Vec::new();
        for v in &vectors {
            serial_outputs.push(serial.run_vector(v).unwrap().outputs);
        }
        let serial_makespan = serial.time();

        // Pipelined stream.
        let mut stream = PlSimulator::new(&pl, DelayModel::default()).unwrap();
        let out = stream.run_stream(&vectors).unwrap();
        assert_eq!(
            out.outputs, serial_outputs,
            "pipelining must not reorder results"
        );
        assert!(
            out.makespan <= serial_makespan + 1e-9,
            "pipelined makespan {} must not exceed serialized {serial_makespan}",
            out.makespan
        );
        assert!(out.throughput > 0.0);
    }

    #[test]
    fn streaming_with_ee_keeps_results() {
        let sync = ripple(4);
        let plain = PlNetlist::from_sync(&sync).unwrap();
        let ee = PlNetlist::from_sync(&sync)
            .unwrap()
            .with_early_evaluation(&EeOptions::default())
            .into_netlist();
        let vectors = adder_vectors(4);
        let mut a = PlSimulator::new(&plain, DelayModel::default()).unwrap();
        let mut b = PlSimulator::new(&ee, DelayModel::default()).unwrap();
        let ra = a.run_stream(&vectors).unwrap();
        let rb = b.run_stream(&vectors).unwrap();
        assert_eq!(
            ra.outputs, rb.outputs,
            "EE must not change streamed results"
        );
    }

    #[test]
    fn wrong_arity_reported() {
        let pl = and_gate();
        let mut sim = PlSimulator::new(&pl, DelayModel::default()).unwrap();
        assert!(matches!(
            sim.run_vector(&[true]),
            Err(SimError::InputArityMismatch {
                got: 1,
                expected: 2
            })
        ));
    }

    #[test]
    fn deterministic_replay() {
        let sync = ripple(4);
        let pl = PlNetlist::from_sync(&sync).unwrap();
        let run = || {
            let mut sim = PlSimulator::new(&pl, DelayModel::default()).unwrap();
            adder_vectors(4)
                .iter()
                .map(|v| {
                    let r = sim.run_vector(v).unwrap();
                    (r.outputs.clone(), r.latency.to_bits())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn constant_output_circuit() {
        let mut n = Netlist::new("konst");
        let a = n.add_input("a");
        let k = n.add_const(true);
        let g = n.add_and2(a, k).unwrap();
        n.set_output("y", g);
        let pl = PlNetlist::from_sync(&n).unwrap();
        let mut sim = PlSimulator::new(&pl, DelayModel::default()).unwrap();
        assert_eq!(sim.run_vector(&[false]).unwrap().outputs, vec![false]);
        assert_eq!(sim.run_vector(&[true]).unwrap().outputs, vec![true]);
    }

    #[test]
    fn run_vector_into_reuses_buffer_and_matches_run_vector() {
        let pl = and_gate();
        let mut sim_a = PlSimulator::new(&pl, DelayModel::default()).unwrap();
        let mut sim_b = PlSimulator::new(&pl, DelayModel::default()).unwrap();
        let mut scratch = Vec::new();
        for ins in [[true, true], [true, false], [false, true], [true, true]] {
            let r = sim_a.run_vector(&ins).unwrap();
            let (latency, completed_at) = sim_b.run_vector_into(&ins, &mut scratch).unwrap();
            assert_eq!(scratch, r.outputs);
            assert_eq!(latency.to_bits(), r.latency.to_bits());
            assert_eq!(completed_at.to_bits(), r.completed_at.to_bits());
        }
    }

    /// Differential: new engine vs the retained pre-refactor baseline, with
    /// and without EE, per-vector and streamed.
    #[test]
    fn matches_reference_engine_on_adder() {
        let sync = ripple(5);
        let vectors = adder_vectors(5);
        for netlist in [
            PlNetlist::from_sync(&sync).unwrap(),
            PlNetlist::from_sync(&sync)
                .unwrap()
                .with_early_evaluation(&EeOptions::default())
                .into_netlist(),
        ] {
            let mut new_sim = PlSimulator::new(&netlist, DelayModel::default()).unwrap();
            let mut ref_sim = ReferenceSimulator::new(&netlist, DelayModel::default()).unwrap();
            for v in &vectors {
                let rn = new_sim.run_vector(v).unwrap();
                let rr = ref_sim.run_vector(v).unwrap();
                assert_eq!(rn.outputs, rr.outputs, "outputs diverged");
                assert!(
                    (rn.latency - rr.latency).abs() < 1e-6,
                    "latency diverged: {} vs {}",
                    rn.latency,
                    rr.latency
                );
            }
            let mut new_sim = PlSimulator::new(&netlist, DelayModel::default()).unwrap();
            let mut ref_sim = ReferenceSimulator::new(&netlist, DelayModel::default()).unwrap();
            let sn = new_sim.run_stream(&vectors).unwrap();
            let sr = ref_sim.run_stream(&vectors).unwrap();
            assert_eq!(sn.outputs, sr.outputs, "streamed outputs diverged");
            assert!((sn.makespan - sr.makespan).abs() < 1e-6);
        }
    }

    /// The 64-lane batch engine vs sequential scalar runs on the ripple
    /// adder, plain and EE, with ragged stream lengths.
    #[test]
    fn batch_lanes_match_sequential_scalar_on_adder() {
        let bits = 5;
        let sync = ripple(bits);
        for netlist in [
            PlNetlist::from_sync(&sync).unwrap(),
            PlNetlist::from_sync(&sync)
                .unwrap()
                .with_early_evaluation(&EeOptions::default())
                .into_netlist(),
        ] {
            let all = adder_vectors(bits);
            // Ragged: stream l gets a different prefix length.
            let streams: Vec<&[Vec<bool>]> =
                (0..7).map(|l| &all[..all.len() - 2 * (l % 4)]).collect();
            let mut batch = BatchSimulator::new(&netlist, DelayModel::default()).unwrap();
            let got = batch.run_lanes(&streams).unwrap();
            assert_eq!(got.len(), streams.len());
            for (s, out) in streams.iter().zip(&got) {
                let mut scalar = PlSimulator::new(&netlist, DelayModel::default()).unwrap();
                let want = scalar.run_stream(s).unwrap();
                assert_eq!(out.outputs, want.outputs, "a lane diverged from scalar");
            }
        }
    }

    #[test]
    fn batch_counter_shares_the_schedule() {
        // A pure-DFF free-runner has no inputs: every lane must see the
        // identical count sequence.
        let mut n = Netlist::new("cnt");
        let q0 = n.add_dff(false);
        let n0 = n.add_not(q0).unwrap();
        n.set_dff_input(q0, n0).unwrap();
        n.set_output("q0", q0);
        let pl = PlNetlist::from_sync(&n).unwrap();
        let mut sim = BatchSimulator::new(&pl, DelayModel::default()).unwrap();
        let stream: Vec<Vec<bool>> = vec![vec![]; 4];
        let got = sim.run_lanes(&[&stream, &stream, &stream]).unwrap();
        for out in &got {
            let flat: Vec<bool> = out.outputs.iter().map(|w| w[0]).collect();
            assert_eq!(flat, vec![false, true, false, true]);
        }
    }
}
