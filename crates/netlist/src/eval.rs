//! Cycle-accurate reference evaluator for synchronous netlists.
//!
//! [`Evaluator`] simulates a [`Netlist`] exactly as a clocked circuit: each
//! [`Evaluator::step`] presents one primary-input vector, evaluates the
//! combinational logic, samples the primary outputs, and then clocks every
//! flip-flop. The phased-logic simulator in `pl-sim` is verified against
//! this evaluator — PL mapping and early evaluation must never change the
//! produced output stream, only its timing.
//!
//! The evaluator is generic over the [`Word`] it computes with: `bool`
//! (the default) runs one vector per step, `u64` runs 64 independent
//! vectors per step, one per bit ("lane"), each with its own flip-flop
//! state. The topological sweep and the clock edge are the same for both;
//! only constants and LUT evaluation depend on the word. The `u64` LUT is
//! a Shannon mux over the truth table, so the 64-lane reference shares no
//! code with `pl-sim`'s word-parallel engine.

use pl_boolfn::TruthTable;

use crate::analyze::comb_topo_order;
use crate::error::NetlistError;
use crate::graph::{Netlist, NodeId};
use crate::node::{NodeKind, MAX_LUT_ARITY};

/// A word the [`Evaluator`] computes with: [`Word::LANES`] independent
/// Boolean vectors side by side.
///
/// # Example
///
/// ```
/// use pl_netlist::{eval::{Evaluator, Word}, Netlist};
///
/// let mut n = Netlist::new("andgate");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let g = n.add_and2(a, b)?;
/// n.set_output("y", g);
/// // 64 vectors in one step: lane l of `a` is bit l of the first word.
/// let mut sim = Evaluator::<u64>::new_lanes(&n)?;
/// let y = sim.step(&[0b1100, 0b1010])?;
/// assert_eq!(y, vec![0b1000]);
/// assert!(y[0].lane(3) && !y[0].lane(2));
/// # Ok::<(), pl_netlist::NetlistError>(())
/// ```
pub trait Word: Copy + Eq + std::fmt::Debug {
    /// Independent vectors one word carries.
    const LANES: usize;

    /// The word whose every lane is `bit`.
    fn splat(bit: bool) -> Self;

    /// Lane `lane`'s bit.
    fn lane(self, lane: usize) -> bool;

    /// Sets lane `lane` to `bit`.
    fn set_lane(&mut self, lane: usize, bit: bool);

    /// `table` evaluated lane by lane; the `i`-th fanin word is variable
    /// `i`, and there are exactly `table.num_vars()` of them.
    fn lut(table: &TruthTable, fanins: impl Iterator<Item = Self>) -> Self;
}

/// One vector per step.
impl Word for bool {
    const LANES: usize = 1;

    fn splat(bit: bool) -> Self {
        bit
    }

    fn lane(self, lane: usize) -> bool {
        debug_assert_eq!(lane, 0, "a bool word has one lane");
        self
    }

    fn set_lane(&mut self, lane: usize, bit: bool) {
        debug_assert_eq!(lane, 0, "a bool word has one lane");
        *self = bit;
    }

    fn lut(table: &TruthTable, fanins: impl Iterator<Item = Self>) -> Self {
        let m = fanins
            .enumerate()
            .fold(0u32, |m, (i, v)| m | (u32::from(v) << i));
        table.eval(m)
    }
}

/// 64 independent vectors per step, vector `l` in bit `l`.
impl Word for u64 {
    const LANES: usize = 64;

    fn splat(bit: bool) -> Self {
        0u64.wrapping_sub(u64::from(bit))
    }

    fn lane(self, lane: usize) -> bool {
        (self >> lane) & 1 == 1
    }

    fn set_lane(&mut self, lane: usize, bit: bool) {
        *self = (*self & !(1 << lane)) | (u64::from(bit) << lane);
    }

    /// A Shannon mux, lowest variable first: the minterm words start as
    /// the table's bits spread over every lane, and each fanin halves them
    /// by selecting, lane by lane, between adjacent minterms that differ
    /// only in its variable.
    fn lut(table: &TruthTable, fanins: impl Iterator<Item = Self>) -> Self {
        let bits = table.bits();
        let mut words = [0u64; 1 << MAX_LUT_ARITY];
        let mut len = table.num_minterms() as usize;
        for (m, w) in words[..len].iter_mut().enumerate() {
            *w = Self::splat((bits >> m) & 1 == 1);
        }
        for x in fanins {
            len /= 2;
            for j in 0..len {
                words[j] = (words[2 * j] & !x) | (words[2 * j + 1] & x);
            }
        }
        debug_assert_eq!(len, 1, "one fanin word per table variable");
        words[0]
    }
}

/// Cycle-based simulator of a [`Netlist`], [`Word::LANES`] vectors per
/// step (one for the default `bool` word).
///
/// # Example
///
/// ```
/// use pl_netlist::{eval::Evaluator, Netlist};
///
/// let mut n = Netlist::new("andgate");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let g = n.add_and2(a, b)?;
/// n.set_output("y", g);
/// let mut sim = Evaluator::new(&n)?;
/// assert_eq!(sim.step(&[true, true])?, vec![true]);
/// assert_eq!(sim.step(&[true, false])?, vec![false]);
/// # Ok::<(), pl_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Evaluator<'a, W = bool> {
    netlist: &'a Netlist,
    order: Vec<NodeId>,
    /// Current value of every node's output.
    values: Vec<W>,
    /// Current flip-flop contents, parallel to `netlist.dffs()`.
    state: Vec<W>,
    cycles: u64,
}

impl<'a> Evaluator<'a> {
    /// Prepares a one-vector evaluator; flip-flops take their declared
    /// initial values.
    ///
    /// # Errors
    ///
    /// Fails if the netlist does not validate.
    pub fn new(netlist: &'a Netlist) -> Result<Self, NetlistError> {
        Self::new_lanes(netlist)
    }
}

impl<'a, W: Word> Evaluator<'a, W> {
    /// Prepares an evaluator of [`Word::LANES`] vectors per step; every
    /// lane's flip-flops take their declared initial values.
    ///
    /// # Errors
    ///
    /// Fails if the netlist does not validate.
    pub fn new_lanes(netlist: &'a Netlist) -> Result<Self, NetlistError> {
        netlist.validate()?;
        let order = comb_topo_order(netlist)?;
        let state = netlist
            .dffs()
            .iter()
            .map(|&d| match netlist.node(d).kind() {
                NodeKind::Dff { init, .. } => W::splat(*init),
                _ => unreachable!("dffs() only lists flip-flops"),
            })
            .collect();
        Ok(Self {
            netlist,
            order,
            values: vec![W::splat(false); netlist.len()],
            state,
            cycles: 0,
        })
    }

    /// Number of clock cycles executed so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Current flip-flop contents (parallel to `netlist.dffs()`).
    #[must_use]
    pub fn state(&self) -> &[W] {
        &self.state
    }

    /// Overwrites the flip-flop contents (for checkpoint/rollback tests).
    ///
    /// # Panics
    ///
    /// Panics if `state.len()` differs from the flip-flop count.
    pub fn set_state(&mut self, state: &[W]) {
        assert_eq!(state.len(), self.state.len(), "state width mismatch");
        self.state.copy_from_slice(state);
    }

    /// Runs one clock cycle: applies `inputs` (in primary-input declaration
    /// order), returns the primary outputs (in output declaration order),
    /// then updates every flip-flop.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputArityMismatch`] for a wrong-size vector.
    pub fn step(&mut self, inputs: &[W]) -> Result<Vec<W>, NetlistError> {
        let outputs = self.eval_outputs(inputs)?;
        // Clock edge: sample D pins computed by eval_outputs.
        let next: Vec<W> = self
            .netlist
            .dffs()
            .iter()
            .map(|&d| match self.netlist.node(d).kind() {
                NodeKind::Dff { d: Some(src), .. } => self.values[src.index()],
                _ => unreachable!("validated netlist has driven flip-flops"),
            })
            .collect();
        self.state = next;
        self.cycles += 1;
        Ok(outputs)
    }

    /// Evaluates the combinational logic for `inputs` *without* clocking the
    /// flip-flops (Mealy-style output inspection).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputArityMismatch`] for a wrong-size vector.
    pub fn eval_outputs(&mut self, inputs: &[W]) -> Result<Vec<W>, NetlistError> {
        let pis = self.netlist.inputs();
        if inputs.len() != pis.len() {
            return Err(NetlistError::InputArityMismatch {
                got: inputs.len(),
                expected: pis.len(),
            });
        }
        for (&pi, &v) in pis.iter().zip(inputs) {
            self.values[pi.index()] = v;
        }
        for (k, &dff) in self.netlist.dffs().iter().enumerate() {
            self.values[dff.index()] = self.state[k];
        }
        for &id in &self.order {
            match self.netlist.node(id).kind() {
                NodeKind::Const { value } => self.values[id.index()] = W::splat(*value),
                NodeKind::Lut { table, inputs } => {
                    let fanins = inputs.iter().map(|src| self.values[src.index()]);
                    self.values[id.index()] = W::lut(table, fanins);
                }
                NodeKind::Input { .. } | NodeKind::Dff { .. } => {}
            }
        }
        Ok(self
            .netlist
            .outputs()
            .iter()
            .map(|(_, id)| self.values[id.index()])
            .collect())
    }

    /// The most recently computed value of an arbitrary node.
    #[must_use]
    pub fn value(&self, id: NodeId) -> W {
        self.values[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_bit_counter_counts() {
        // q0 toggles every cycle; q1 toggles when q0 was 1.
        let mut n = Netlist::new("count2");
        let q0 = n.add_dff(false);
        let q1 = n.add_dff(false);
        let n0 = n.add_not(q0).unwrap();
        let t1 = n.add_xor2(q1, q0).unwrap();
        n.set_dff_input(q0, n0).unwrap();
        n.set_dff_input(q1, t1).unwrap();
        n.set_output("q0", q0);
        n.set_output("q1", q1);
        let mut sim = Evaluator::new(&n).unwrap();
        let mut seq = Vec::new();
        for _ in 0..5 {
            let o = sim.step(&[]).unwrap();
            seq.push((u8::from(o[1]) << 1) | u8::from(o[0]));
        }
        assert_eq!(seq, vec![0, 1, 2, 3, 0]);
        assert_eq!(sim.cycles(), 5);
    }

    #[test]
    fn wrong_input_arity_is_reported() {
        let mut n = Netlist::new("pi");
        let _ = n.add_input("a");
        let mut sim = Evaluator::new(&n).unwrap();
        assert!(matches!(
            sim.step(&[]),
            Err(NetlistError::InputArityMismatch {
                got: 0,
                expected: 1
            })
        ));
    }

    #[test]
    fn constants_drive_logic() {
        let mut n = Netlist::new("const");
        let one = n.add_const(true);
        let a = n.add_input("a");
        let g = n.add_and2(one, a).unwrap();
        n.set_output("y", g);
        let mut sim = Evaluator::new(&n).unwrap();
        assert_eq!(sim.step(&[true]).unwrap(), vec![true]);
        assert_eq!(sim.step(&[false]).unwrap(), vec![false]);
    }

    #[test]
    fn eval_outputs_does_not_clock() {
        let mut n = Netlist::new("hold");
        let a = n.add_input("a");
        let d = n.add_dff(false);
        n.set_dff_input(d, a).unwrap();
        n.set_output("q", d);
        let mut sim = Evaluator::new(&n).unwrap();
        assert_eq!(sim.eval_outputs(&[true]).unwrap(), vec![false]);
        assert_eq!(sim.eval_outputs(&[true]).unwrap(), vec![false]); // unchanged
        assert_eq!(sim.step(&[true]).unwrap(), vec![false]);
        assert_eq!(sim.eval_outputs(&[false]).unwrap(), vec![true]); // clocked once
    }

    #[test]
    fn set_state_overrides() {
        let mut n = Netlist::new("s");
        let d = n.add_dff(false);
        let i = n.add_not(d).unwrap();
        n.set_dff_input(d, i).unwrap();
        n.set_output("q", d);
        let mut sim = Evaluator::new(&n).unwrap();
        sim.set_state(&[true]);
        assert_eq!(sim.step(&[]).unwrap(), vec![true]);
    }
}
