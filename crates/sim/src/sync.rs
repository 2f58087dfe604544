//! Synchronous reference simulation and PL equivalence checking.

use pl_core::PlNetlist;
use pl_netlist::eval::{Evaluator, Word};
use pl_netlist::Netlist;

use crate::delay::DelayModel;
use crate::engine::PlSimulator;
use crate::error::SimError;

/// Cycle-accurate synchronous simulator (thin wrapper over the netlist
/// evaluator, mirroring [`PlSimulator`]'s vector-at-a-time interface).
///
/// Generic over the evaluator's [`Word`]: the default `bool` steps one
/// vector at a time; `SyncSimulator<u64>` steps 64 independent vectors,
/// one per bit, which is how `Pipeline::verify` replays the lane
/// protocol's 64 substreams on one reference.
#[derive(Debug, Clone)]
pub struct SyncSimulator<'a, W = bool> {
    eval: Evaluator<'a, W>,
}

impl<'a> SyncSimulator<'a> {
    /// Prepares a one-vector simulator over a validated netlist.
    ///
    /// # Errors
    ///
    /// Propagates netlist validation failures.
    pub fn new(netlist: &'a Netlist) -> Result<Self, pl_netlist::NetlistError> {
        Self::new_lanes(netlist)
    }
}

impl<'a, W: Word> SyncSimulator<'a, W> {
    /// Prepares a simulator of [`Word::LANES`] vectors per step over a
    /// validated netlist.
    ///
    /// # Errors
    ///
    /// Propagates netlist validation failures.
    pub fn new_lanes(netlist: &'a Netlist) -> Result<Self, pl_netlist::NetlistError> {
        Ok(Self {
            eval: Evaluator::new_lanes(netlist)?,
        })
    }

    /// Runs one clock cycle, returning the primary outputs.
    ///
    /// # Errors
    ///
    /// Propagates evaluator errors (wrong input arity).
    pub fn step(&mut self, inputs: &[W]) -> Result<Vec<W>, pl_netlist::NetlistError> {
        self.eval.step(inputs)
    }

    /// Completed cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.eval.cycles()
    }
}

/// The first divergence found by [`verify_equivalence`].
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    /// Zero-based vector index at which the divergence occurred.
    pub vector: usize,
    /// Synchronous reference outputs.
    pub sync_outputs: Vec<bool>,
    /// Phased-logic outputs.
    pub pl_outputs: Vec<bool>,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "outputs diverged at vector {}: sync {:?} vs pl {:?}",
            self.vector, self.sync_outputs, self.pl_outputs
        )
    }
}

/// Verifies that a phased-logic netlist produces, vector for vector, the
/// same output stream as its synchronous source — the core correctness
/// property of the PL mapping and of early evaluation (which must change
/// *when* outputs appear, never *what* they are).
///
/// # Errors
///
/// Returns the first [`Mismatch`] wrapped in `Ok(Err(..))`-style result:
/// the outer error covers simulator failures (deadlock, arity).
///
/// # Panics
///
/// Panics if `sync` fails validation (programming error in the caller).
pub fn verify_equivalence(
    sync: &Netlist,
    pl: &PlNetlist,
    delays: &DelayModel,
    vectors: &[Vec<bool>],
) -> Result<Result<(), Mismatch>, SimError> {
    let mut ssim = SyncSimulator::new(sync).expect("sync netlist must validate");
    let mut psim = PlSimulator::new(pl, delays.clone())?;
    for (i, v) in vectors.iter().enumerate() {
        let so = ssim.step(v).map_err(|_| SimError::InputArityMismatch {
            got: v.len(),
            expected: sync.inputs().len(),
        })?;
        let po = psim.run_vector(v)?.outputs;
        if so != po {
            return Ok(Err(Mismatch {
                vector: i,
                sync_outputs: so,
                pl_outputs: po,
            }));
        }
    }
    Ok(Ok(()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_core::ee::EeOptions;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_vectors(n_inputs: usize, count: usize, seed: u64) -> Vec<Vec<bool>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| (0..n_inputs).map(|_| rng.gen()).collect())
            .collect()
    }

    #[test]
    fn sequential_design_equivalence_with_and_without_ee() {
        // A small datapath+FSM mix.
        let mut m = pl_rtl::Module::new("mix");
        let x = m.input_word("x", 4);
        let en = m.input_bit("en");
        let acc = m.reg_word("acc", 4, 5);
        let sum = m.add(&acc.q(), &x);
        let top = m.lt_u(&acc.q(), &x);
        let sel = m.mux_w(top, &sum, &x);
        m.next_when(&acc, en, &sel);
        m.output_word("acc", &acc.q());
        m.output_bit("top", top);
        let gates = m.elaborate().unwrap();
        let mapped = pl_techmap::map_to_lut4(&gates, &pl_techmap::MapOptions::default()).unwrap();
        let vectors = random_vectors(mapped.inputs().len(), 60, 7);

        let plain = PlNetlist::from_sync(&mapped).unwrap();
        verify_equivalence(&mapped, &plain, &DelayModel::default(), &vectors)
            .unwrap()
            .unwrap();

        let ee = PlNetlist::from_sync(&mapped)
            .unwrap()
            .with_early_evaluation(&EeOptions::default())
            .into_netlist();
        verify_equivalence(&mapped, &ee, &DelayModel::default(), &vectors)
            .unwrap()
            .unwrap();
    }

    #[test]
    fn mismatch_displays() {
        let m = Mismatch {
            vector: 3,
            sync_outputs: vec![true],
            pl_outputs: vec![false],
        };
        assert!(m.to_string().contains("vector 3"));
    }
}
