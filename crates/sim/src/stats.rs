//! Latency measurement and aggregation.

use pl_core::PlNetlist;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::delay::DelayModel;
use crate::engine::PlSimulator;
use crate::error::SimError;

/// Aggregate of per-vector latencies (ns).
///
/// Table 3 of the paper reports the *average* of this distribution over
/// 100 random vectors per benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyStats {
    /// Per-vector latencies in injection order.
    pub per_vector: Vec<f64>,
}

impl LatencyStats {
    /// Builds stats from raw samples.
    #[must_use]
    pub fn new(per_vector: Vec<f64>) -> Self {
        Self { per_vector }
    }

    /// Number of vectors measured.
    #[must_use]
    pub fn len(&self) -> usize {
        self.per_vector.len()
    }

    /// Whether any samples exist.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.per_vector.is_empty()
    }

    /// Mean latency.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.per_vector.is_empty() {
            0.0
        } else {
            self.per_vector.iter().sum::<f64>() / self.per_vector.len() as f64
        }
    }

    /// Smallest sample; `0.0` when there are no samples, agreeing with
    /// [`LatencyStats::max`] on the n=0 case (an empty run used to report
    /// the fold identity `min inf, max 0.00`).
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.per_vector.is_empty() {
            return 0.0;
        }
        self.per_vector
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Largest sample; `0.0` when there are no samples (latencies are
    /// non-negative, so `0.0` is the fold identity).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.per_vector.iter().copied().fold(0.0, f64::max)
    }

    /// **Population** standard deviation (divides the squared deviations
    /// by `n`, not the sample estimator's `n - 1`): the per-vector
    /// latencies are the complete population of the run being reported,
    /// not a sample from a larger one. `0.0` for fewer than two samples.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        if self.per_vector.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var = self
            .per_vector
            .iter()
            .map(|x| (x - m) * (x - m))
            .sum::<f64>()
            / self.per_vector.len() as f64;
        var.sqrt()
    }
}

impl std::fmt::Display for LatencyStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return write!(f, "no vectors measured (n=0)");
        }
        write!(
            f,
            "mean {:.2} ns (min {:.2}, max {:.2}, σ {:.2}, n={})",
            self.mean(),
            self.min(),
            self.max(),
            self.std_dev(),
            self.len()
        )
    }
}

/// The measurement protocol's input vectors: `count` uniformly random
/// vectors of `n_inputs` bits from a seeded [`StdRng`]. This is the one
/// definition of the vector stream — [`measure_latency`] draws from it,
/// and callers that need the vectors themselves (e.g. to cross-check
/// against a reference simulator) use it instead of replicating the RNG
/// recipe.
#[must_use]
pub fn random_vectors(n_inputs: usize, count: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| (0..n_inputs).map(|_| rng.gen()).collect())
        .collect()
}

/// Runs the given input vectors through a netlist on one simulator (state
/// carries across vectors) and returns the outputs per vector plus
/// latency statistics.
///
/// # Errors
///
/// Propagates simulator failures.
pub fn measure_latency_on(
    pl: &PlNetlist,
    delays: &DelayModel,
    vectors: &[Vec<bool>],
) -> Result<(Vec<Vec<bool>>, LatencyStats), SimError> {
    let mut sim = PlSimulator::new(pl, delays.clone())?;
    let mut outputs = Vec::with_capacity(vectors.len());
    let mut lat = Vec::with_capacity(vectors.len());
    for v in vectors {
        let r = sim.run_vector(v)?;
        outputs.push(r.outputs);
        lat.push(r.latency);
    }
    Ok((outputs, LatencyStats::new(lat)))
}

/// Runs `count` uniformly random input vectors (seeded) through a netlist
/// and returns the outputs per vector plus latency statistics — the paper's
/// measurement protocol ("average statistics of 100 simulations where the
/// input vectors were randomly generated", §4).
///
/// # Errors
///
/// Propagates simulator failures.
pub fn measure_latency(
    pl: &PlNetlist,
    delays: &DelayModel,
    count: usize,
    seed: u64,
) -> Result<(Vec<Vec<bool>>, LatencyStats), SimError> {
    let vectors = random_vectors(pl.input_gates().len(), count, seed);
    measure_latency_on(pl, delays, &vectors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_netlist::Netlist;

    #[test]
    fn stats_arithmetic() {
        let s = LatencyStats::new(vec![1.0, 2.0, 3.0]);
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 3.0);
        assert!(s.std_dev() > 0.0);
        assert_eq!(s.len(), 3);
        assert!(s.to_string().contains("mean 2.00"));
    }

    /// The n=0 case must be internally consistent: every aggregate is 0.0
    /// (`min()` used to leak its fold identity, `f64::INFINITY`) and the
    /// Display form says so instead of printing `min inf, max 0.00`.
    #[test]
    fn empty_stats() {
        let s = LatencyStats::new(vec![]);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0, "min() must agree with max() on n=0");
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        let shown = s.to_string();
        assert_eq!(shown, "no vectors measured (n=0)");
        assert!(!shown.contains("inf"), "no infinity may leak: {shown}");
    }

    #[test]
    fn single_sample_stats() {
        let s = LatencyStats::new(vec![7.25]);
        assert!(!s.is_empty());
        assert_eq!(s.len(), 1);
        assert_eq!(s.mean(), 7.25);
        assert_eq!(s.min(), 7.25);
        assert_eq!(s.max(), 7.25);
        assert_eq!(s.std_dev(), 0.0, "one sample has no spread");
        assert_eq!(
            s.to_string(),
            "mean 7.25 ns (min 7.25, max 7.25, σ 0.00, n=1)"
        );
    }

    /// Population (not sample) deviation: divides by n, so [2, 4] has
    /// σ = 1, not the sample estimator's √2.
    #[test]
    fn std_dev_is_population() {
        let s = LatencyStats::new(vec![2.0, 4.0]);
        assert!((s.std_dev() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measure_runs_seeded_and_reproducibly() {
        let mut n = Netlist::new("xor");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_xor2(a, b).unwrap();
        n.set_output("y", g);
        let pl = PlNetlist::from_sync(&n).unwrap();
        let (o1, s1) = measure_latency(&pl, &DelayModel::default(), 20, 42).unwrap();
        let (o2, s2) = measure_latency(&pl, &DelayModel::default(), 20, 42).unwrap();
        assert_eq!(o1, o2);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 20);
        assert!(s1.mean() > 0.0);
    }
}
