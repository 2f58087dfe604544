//! The **pre-refactor** discrete-event simulator, retained verbatim as a
//! differential baseline.
//!
//! This is the original `f64`-time, allocation-per-firing engine that the
//! integer-tick engine ([`crate::LaneSimulator`]) replaced. It is kept for two
//! purposes:
//!
//! 1. **Equivalence testing** — `tests/engine_equivalence.rs` (every
//!    catalog design, b01–b15) and the in-crate tests drive both engines
//!    over the same vectors and assert bit-identical outputs (and
//!    latencies equal to within the femtosecond quantization of the new
//!    engine's clock).
//! 2. **Speedup accounting** — the `bench_report` binary measures
//!    events/sec against this baseline on streamed b14/b15 and records the
//!    ratio in `BENCH_sim.json`.
//!
//! Do not extend this module; new simulator features belong in the
//! integer-tick engine.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use pl_core::{PlArcId, PlArcKind, PlGateId, PlGateKind, PlNetlist};

use crate::delay::DelayModel;
use crate::engine::{StreamOutcome, VectorOutcome};
use crate::error::SimError;

#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    Deliver {
        arc: u32,
        value: bool,
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

#[derive(Debug, Clone, Copy)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Event-driven simulator over a [`PlNetlist`].
///
/// See the [crate documentation](crate) for an example. Time is continuous
/// across vectors: [`ReferenceSimulator::run_vector`] injects a vector at the
/// current time and runs until the output word is stable.
#[derive(Debug, Clone)]
pub struct ReferenceSimulator<'a> {
    pl: &'a PlNetlist,
    delays: DelayModel,
    time: f64,
    seq: u64,
    queue: BinaryHeap<Event>,
    tokens: Vec<u8>,
    values: Vec<bool>,
    pending_input: Vec<Option<bool>>,
    produced: Vec<bool>,
    fire_scheduled: Vec<bool>,
    /// EE masters: a normal-path Produce is in flight this round.
    normal_scheduled: Vec<bool>,
    /// EE masters: an early-path Produce is in flight this round.
    early_scheduled: Vec<bool>,
    /// EE masters: per-gate round generation (stale-event guard).
    gen: Vec<u64>,
    records: Vec<VecDeque<(bool, f64)>>,
    rounds: u64,
    events: u64,
    trace: Option<Vec<crate::trace::TraceEvent>>,
}

impl<'a> ReferenceSimulator<'a> {
    /// Prepares a simulator: checks structural liveness and places the
    /// initial marking.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Structural`] if the netlist is not live.
    pub fn new(pl: &'a PlNetlist, delays: DelayModel) -> Result<Self, SimError> {
        pl.check_pins()?;
        pl_core::marked::check_liveness(pl)?;
        let mut sim = Self {
            pl,
            delays,
            time: 0.0,
            seq: 0,
            queue: BinaryHeap::new(),
            tokens: pl.arcs().iter().map(pl_core::PlArc::init_tokens).collect(),
            values: pl.arcs().iter().map(pl_core::PlArc::init_value).collect(),
            pending_input: vec![None; pl.gates().len()],
            produced: vec![false; pl.gates().len()],
            fire_scheduled: vec![false; pl.gates().len()],
            normal_scheduled: vec![false; pl.gates().len()],
            early_scheduled: vec![false; pl.gates().len()],
            gen: vec![0; pl.gates().len()],
            records: vec![VecDeque::new(); pl.output_gates().len()],
            rounds: 0,
            events: 0,
            trace: None,
        };
        // Gates fed entirely by initial tokens (e.g. autonomous next-state
        // logic) may fire right away.
        for g in 0..pl.gates().len() {
            sim.try_schedule(g);
        }
        Ok(sim)
    }

    /// Current simulation time (ns).
    #[must_use]
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Number of completed vectors.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Number of events dispatched so far (for events/sec accounting
    /// against the rewritten engine).
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Starts recording token deliveries for [`crate::trace::to_vcd`].
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
    pub fn run_vector(&mut self, inputs: &[bool]) -> Result<VectorOutcome, SimError> {
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
        let start = self.time;
        for (k, &g) in ports.iter().enumerate() {
            self.pending_input[g.index()] = Some(inputs[k]);
            self.try_schedule(g.index());
        }
        // Outputs tied to constants produce their value immediately.
        for (slot, (_, og)) in self.pl.output_gates().iter().enumerate() {
            let gate = &self.pl.gates()[og.index()];
            if gate.data_in().is_empty() {
                if let Some(v) = gate.const_pin(0) {
                    self.records[slot].push_back((v, self.time));
                }
            }
        }
        // Run until each output's record queue has an entry for this round.
        while !self.round_complete() {
            let Some(ev) = self.queue.pop() else {
                return Err(SimError::Deadlock {
                    at_time: self.time,
                    missing_outputs: self.missing_outputs(),
                });
            };
            self.time = ev.time;
            self.dispatch(ev.kind)?;
        }
        let mut outputs = Vec::with_capacity(self.records.len());
        let mut completed_at = start;
        for q in &mut self.records {
            let (v, t) = q.pop_front().expect("round_complete guarantees a record");
            outputs.push(v);
            completed_at = completed_at.max(t);
        }
        self.rounds += 1;
        Ok(VectorOutcome {
            outputs,
            latency: (completed_at - start).max(0.0),
            completed_at,
        })
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
    /// Same conditions as [`ReferenceSimulator::run_vector`].
    pub fn run_stream(&mut self, vectors: &[Vec<bool>]) -> Result<StreamOutcome, SimError> {
        let ports = self.pl.input_gates();
        let start = self.time;
        let mut completed = 0usize;
        for (k, v) in vectors.iter().enumerate() {
            if v.len() != ports.len() {
                return Err(SimError::InputArityMismatch {
                    got: v.len(),
                    expected: ports.len(),
                });
            }
            // Wait only for the *input* queue to free, not for outputs.
            self.drain_pending_inputs()?;
            for (i, &g) in ports.iter().enumerate() {
                self.pending_input[g.index()] = Some(v[i]);
                self.try_schedule(g.index());
            }
            for (slot, (_, og)) in self.pl.output_gates().iter().enumerate() {
                let gate = &self.pl.gates()[og.index()];
                if gate.data_in().is_empty() {
                    if let Some(cv) = gate.const_pin(0) {
                        self.records[slot].push_back((cv, self.time));
                    }
                }
            }
            let _ = k;
        }
        // Run to completion of every vector's output word.
        let mut outputs = Vec::with_capacity(vectors.len());
        let mut last = start;
        while completed < vectors.len() {
            while !self.round_complete() {
                let Some(ev) = self.queue.pop() else {
                    return Err(SimError::Deadlock {
                        at_time: self.time,
                        missing_outputs: self.missing_outputs(),
                    });
                };
                self.time = ev.time;
                self.dispatch(ev.kind)?;
            }
            let mut word = Vec::with_capacity(self.records.len());
            for q in &mut self.records {
                let (v, t) = q.pop_front().expect("round complete");
                word.push(v);
                last = last.max(t);
            }
            outputs.push(word);
            completed += 1;
            self.rounds += 1;
        }
        let makespan = (last - start).max(0.0);
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
            let Some(ev) = self.queue.pop() else {
                return Err(SimError::Deadlock {
                    at_time: self.time,
                    missing_outputs: vec!["<pending input never consumed>".into()],
                });
            };
            self.time = ev.time;
            self.dispatch(ev.kind)?;
        }
        Ok(())
    }

    // ---- event machinery -------------------------------------------------

    fn post(&mut self, delay: f64, kind: EventKind) {
        let ev = Event {
            time: self.time + delay,
            seq: self.seq,
            kind,
        };
        self.seq += 1;
        self.queue.push(ev);
    }

    fn dispatch(&mut self, kind: EventKind) -> Result<(), SimError> {
        self.events += 1;
        match kind {
            EventKind::Deliver { arc, value } => self.deliver(arc as usize, value),
            EventKind::Fire { gate } => self.fire(gate as usize),
            EventKind::Produce { gate, gen } => self.ee_produce(gate as usize, gen),
            EventKind::Cleanup { gate, gen } => self.ee_cleanup(gate as usize, gen),
        }
    }

    fn deliver(&mut self, arc: usize, value: bool) -> Result<(), SimError> {
        if self.tokens[arc] >= 1 {
            return Err(SimError::SafetyViolation {
                arc: PlArcId::from_index(arc),
                producer: self.pl.arcs()[arc].src(),
            });
        }
        self.tokens[arc] = 1;
        self.values[arc] = value;
        if let Some(trace) = &mut self.trace {
            if self.pl.arcs()[arc].kind() != pl_core::PlArcKind::Ack {
                trace.push(crate::trace::TraceEvent {
                    time: self.time,
                    arc,
                    value,
                });
            }
        }
        self.try_schedule(self.pl.arcs()[arc].dst().index());
        Ok(())
    }

    /// Checks a gate's firing conditions and posts Fire/EarlyProduce events.
    fn try_schedule(&mut self, g: usize) {
        let gate = &self.pl.gates()[g];
        match gate.kind() {
            PlGateKind::Constant { .. } => {}
            PlGateKind::Input { .. } => {
                if !self.fire_scheduled[g]
                    && self.pending_input[g].is_some()
                    && self.all_marked(gate.control_in())
                {
                    self.fire_scheduled[g] = true;
                    self.post(0.0, EventKind::Fire { gate: g as u32 });
                }
            }
            PlGateKind::Output { .. } => {
                // Constant-driven outputs have no token traffic; run_vector
                // records them directly.
                if !gate.data_in().is_empty() && !self.fire_scheduled[g] && self.data_ready(g) {
                    self.fire_scheduled[g] = true;
                    self.post(self.delays.c_element, EventKind::Fire { gate: g as u32 });
                }
            }
            PlGateKind::Compute { .. } | PlGateKind::Register { .. } => {
                if let Some(ee) = gate.ee() {
                    let efire = ee.efire_arc.index();
                    let efire_ready = self.tokens[efire] == 1;
                    let acks_ready = gate
                        .control_in()
                        .iter()
                        .all(|a| a.index() == efire || self.tokens[a.index()] == 1);
                    let gen = self.gen[g];
                    // Normal production: all data inputs present. The extra
                    // EE C-element costs `ee_overhead` on this path, but the
                    // trigger is NOT waited for (its token is collected at
                    // cleanup) — the paper's "slight degradation" only.
                    if !self.produced[g]
                        && !self.normal_scheduled[g]
                        && self.data_ready(g)
                        && acks_ready
                    {
                        self.normal_scheduled[g] = true;
                        self.post(
                            self.delays.ee_master_delay(),
                            EventKind::Produce {
                                gate: g as u32,
                                gen,
                            },
                        );
                    }
                    // Early production: trigger fired true, fast pins here.
                    if !self.produced[g]
                        && !self.early_scheduled[g]
                        && efire_ready
                        && self.values[efire]
                        && self.subset_ready(g)
                        && acks_ready
                    {
                        self.early_scheduled[g] = true;
                        self.post(
                            self.delays.ee_early_delay(),
                            EventKind::Produce {
                                gate: g as u32,
                                gen,
                            },
                        );
                    }
                    // Cleanup rendezvous: output gone, every token here.
                    if self.produced[g]
                        && !self.fire_scheduled[g]
                        && self.data_ready(g)
                        && efire_ready
                    {
                        self.fire_scheduled[g] = true;
                        self.post(
                            self.delays.c_element,
                            EventKind::Cleanup {
                                gate: g as u32,
                                gen,
                            },
                        );
                    }
                } else if !self.fire_scheduled[g]
                    && self.data_ready(g)
                    && self.all_marked(gate.control_in())
                {
                    self.fire_scheduled[g] = true;
                    self.post(self.delays.gate_delay(), EventKind::Fire { gate: g as u32 });
                }
            }
        }
    }

    fn all_marked(&self, arcs: &[PlArcId]) -> bool {
        arcs.iter().all(|a| self.tokens[a.index()] == 1)
    }

    fn data_ready(&self, g: usize) -> bool {
        self.all_marked(self.pl.gates()[g].data_in())
    }

    fn subset_ready(&self, g: usize) -> bool {
        let gate = &self.pl.gates()[g];
        let ee = gate.ee().expect("subset_ready only called for EE masters");
        gate.data_in().iter().all(|a| {
            let arc = &self.pl.arcs()[a.index()];
            match arc.dst_pin() {
                Some(p) if ee.subset_pins.contains(&p) => self.tokens[a.index()] == 1,
                _ => true,
            }
        })
    }

    /// Value on the gate's pin `pin` (token value or constant tie-off).
    fn pin_value(&self, g: usize, pin: u8) -> Option<bool> {
        let gate = &self.pl.gates()[g];
        if let Some(v) = gate.const_pin(pin as usize) {
            return Some(v);
        }
        gate.data_in()
            .iter()
            .find(|a| self.pl.arcs()[a.index()].dst_pin() == Some(pin))
            .and_then(|a| (self.tokens[a.index()] == 1).then(|| self.values[a.index()]))
    }

    /// Evaluates the gate's function from its (complete) pins.
    fn evaluate(&self, g: usize) -> bool {
        let gate = &self.pl.gates()[g];
        match gate.kind() {
            PlGateKind::Register { .. } => self.pin_value(g, 0).expect("register pin ready"),
            PlGateKind::Compute { table } => {
                let mut m = 0u32;
                for pin in 0..table.num_vars() {
                    if self
                        .pin_value(g, pin as u8)
                        .expect("all pins ready at fire")
                    {
                        m |= 1 << pin;
                    }
                }
                table.eval(m)
            }
            _ => unreachable!("evaluate called on logic gates only"),
        }
    }

    fn consume(&mut self, arcs: &[PlArcId]) {
        for a in arcs {
            debug_assert_eq!(self.tokens[a.index()], 1, "consuming an unmarked arc");
            self.tokens[a.index()] = 0;
        }
    }

    /// Sends tokens on out-arcs; `data_value` is placed on data arcs, acks
    /// carry pure timing tokens.
    fn produce(&mut self, g: usize, data_value: bool, include_data: bool, include_acks: bool) {
        let out: Vec<PlArcId> = self.pl.gates()[g].out_arcs().to_vec();
        for a in out {
            let arc = &self.pl.arcs()[a.index()];
            let is_data = matches!(arc.kind(), PlArcKind::Data | PlArcKind::Efire);
            if (is_data && include_data) || (!is_data && include_acks) {
                self.post(
                    self.delays.wire,
                    EventKind::Deliver {
                        arc: a.index() as u32,
                        value: data_value,
                    },
                );
            }
        }
    }

    fn fire(&mut self, g: usize) -> Result<(), SimError> {
        self.fire_scheduled[g] = false;
        let gate = &self.pl.gates()[g];
        match gate.kind().clone() {
            PlGateKind::Input { .. } => {
                let control: Vec<PlArcId> = gate.control_in().to_vec();
                self.consume(&control);
                let v = self.pending_input[g]
                    .take()
                    .expect("input armed before firing");
                self.produce(g, v, true, true);
            }
            PlGateKind::Output { name: _ } => {
                let data: Vec<PlArcId> = gate.data_in().to_vec();
                let v = self.values[data[0].index()];
                self.consume(&data);
                let slot = self
                    .pl
                    .output_gates()
                    .iter()
                    .position(|(_, og)| og.index() == g)
                    .expect("output gate is registered");
                self.records[slot].push_back((v, self.time));
                self.produce(g, v, true, true);
            }
            PlGateKind::Compute { .. } | PlGateKind::Register { .. } => {
                debug_assert!(
                    gate.ee().is_none(),
                    "EE masters use Produce/Cleanup events, not Fire"
                );
                let data: Vec<PlArcId> = gate.data_in().to_vec();
                let control: Vec<PlArcId> = gate.control_in().to_vec();
                let v = self.evaluate(g);
                self.consume(&data);
                self.consume(&control);
                self.produce(g, v, true, true);
            }
            PlGateKind::Constant { .. } => unreachable!("constants never fire"),
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
        if gen != self.gen[g] || self.produced[g] {
            return Ok(()); // stale event or the other path already produced
        }
        let gate = &self.pl.gates()[g];
        let ee = gate
            .ee()
            .cloned()
            .expect("Produce events target EE masters");
        let efire = ee.efire_arc.index();
        let acks: Vec<PlArcId> = gate
            .control_in()
            .iter()
            .copied()
            .filter(|a| a.index() != efire)
            .collect();
        debug_assert!(self.all_marked(&acks), "acks were ready at scheduling");

        let v = if self.data_ready(g) {
            // Normal path (or early with everything present anyway).
            self.evaluate(g)
        } else {
            // Early path: the trigger promised the known pins force the
            // output; verify that promise.
            let table = gate.table().expect("EE masters are logic gates");
            let mut vars: u8 = 0;
            let mut asg: u32 = 0;
            let mut k = 0;
            for pin in 0..table.num_vars() {
                if let Some(val) = self.pin_value(g, pin as u8) {
                    vars |= 1 << pin;
                    if val {
                        asg |= 1 << k;
                    }
                    k += 1;
                }
            }
            let Some(v) = table.forced_value(vars, asg) else {
                return Err(SimError::UnsoundTrigger {
                    master: PlGateId::from_index(g),
                });
            };
            v
        };
        self.consume(&acks);
        self.produced[g] = true;
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
        debug_assert!(self.produced[g], "cleanup only scheduled after production");
        let gate = &self.pl.gates()[g];
        let ee = gate
            .ee()
            .cloned()
            .expect("Cleanup events target EE masters");
        let data: Vec<PlArcId> = gate.data_in().to_vec();
        self.consume(&data);
        self.consume(&[ee.efire_arc]);
        self.produced[g] = false;
        self.fire_scheduled[g] = false;
        self.normal_scheduled[g] = false;
        self.early_scheduled[g] = false;
        self.gen[g] += 1;
        self.produce(g, false, false, true);
        self.try_schedule(g);
        Ok(())
    }
}
