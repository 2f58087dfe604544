//! Benchmark harness regenerating the DATE 2002 paper's exhibits.
//!
//! Since the pipeline moved into the `pl-flow` crate, this harness is a
//! thin presentation layer over it: [`run_flow`] runs one ITC99 catalog
//! entry through [`pl_flow::Pipeline::run`] and folds the artifacts into
//! one row of the paper's Table 3; [`run_flows_parallel`] scatters a list
//! of benchmarks across worker threads (one benchmark per work item,
//! bit-identical rows, deterministic order); [`format_table3`] prints the
//! rows in the paper's column layout. The `table3`, `sweep`, `ee_stats`
//! and `table1_2` binaries expose these from the command line (`table3`,
//! `sweep` and `ee_stats` take `--jobs N` to select the worker count,
//! `0` = auto). The `bench_report` binary times the two frozen
//! differential baselines against production code; the repository
//! benchmark under `perfbench/` measures everything else.
//!
//! [`FlowOptions`], [`FlowError`], [`Lcg`] and [`lcg_vectors`] are
//! re-exported from `pl-flow` so existing harness callers keep compiling
//! unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pl_core::PlNetlist;
use pl_flow::{CircuitSource, Pipeline};
use pl_itc99::Benchmark;

pub use pl_flow::{lcg_vectors, FlowError, FlowOptions, Lcg};

/// One row of the paper's Table 3.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// Benchmark id (`"b01"` …).
    pub id: &'static str,
    /// Table 3's circuit description.
    pub description: &'static str,
    /// PL gates without EE (LUTs + registers after mapping).
    pub pl_gates: usize,
    /// EE master/trigger pairs added ("EE Gates").
    pub ee_gates: usize,
    /// Average stable-input→stable-output delay without EE (ns).
    pub delay_no_ee: f64,
    /// Average delay with EE (ns).
    pub delay_ee: f64,
    /// Vectors simulated per variant.
    pub vectors: usize,
}

impl FlowResult {
    /// Delay difference (positive = EE is faster), ns.
    #[must_use]
    pub fn delay_diff(&self) -> f64 {
        self.delay_no_ee - self.delay_ee
    }

    /// Percent area increase: EE gates over PL gates.
    #[must_use]
    pub fn area_increase_pct(&self) -> f64 {
        if self.pl_gates == 0 {
            0.0
        } else {
            100.0 * self.ee_gates as f64 / self.pl_gates as f64
        }
    }

    /// Percent delay decrease (negative = slowdown).
    #[must_use]
    pub fn delay_decrease_pct(&self) -> f64 {
        if self.delay_no_ee == 0.0 {
            0.0
        } else {
            100.0 * self.delay_diff() / self.delay_no_ee
        }
    }
}

/// Runs the full reproduction flow for one benchmark — a thin wrapper
/// over [`pl_flow::Pipeline::run`] with the catalog source, keeping EE
/// enabled (a Table 3 row always compares plain against EE).
///
/// # Errors
///
/// Propagates failures from any pipeline stage; `Mismatch` if the PL
/// netlists ever disagree with each other or the synchronous reference.
pub fn run_flow(bench: &Benchmark, opts: &FlowOptions) -> Result<FlowResult, FlowError> {
    let pipeline = Pipeline::new(FlowOptions {
        ee_enabled: true,
        ..opts.clone()
    });
    let art = pipeline.run(&CircuitSource::Catalog(*bench))?;
    Ok(FlowResult {
        id: bench.id,
        description: bench.description,
        pl_gates: art.report.phased.logic_gates,
        ee_gates: art.pairs.len(),
        delay_no_ee: art.stats_plain.mean(),
        delay_ee: art.stats_ee.as_ref().expect("EE forced on").mean(),
        vectors: opts.vectors,
    })
}

/// Builds one benchmark's phased-logic netlists (plain, with-EE) through
/// the `pl-flow` stage chain (ingest → optimize → techmap → phased →
/// early_eval), stopping before simulation.
///
/// # Panics
///
/// Panics on unknown ids or flow failures (bench harness context).
#[must_use]
pub fn prepared_netlists(id: &str) -> (PlNetlist, PlNetlist) {
    let pipeline = Pipeline::new(FlowOptions::default());
    let src = CircuitSource::catalog(id).expect("benchmark exists");
    let ingested = pipeline.ingest(&src).expect("elaborates");
    let optimized = pipeline.optimize(ingested).expect("optimizes");
    let mapped = pipeline.techmap(optimized).expect("maps");
    let phased = pipeline.phased(&mapped).expect("PL maps");
    let early = pipeline.early_eval(phased);
    let ee = early.ee.expect("EE enabled by default");
    (early.plain, ee)
}

/// The per-compute-gate trigger-search stream `with_early_evaluation`
/// issues for the given benchmarks — the netlist-shaped workload on which
/// `bench_report` times the memoized search against
/// `search_triggers_baseline`.
///
/// # Panics
///
/// Panics on unknown ids or flow failures (bench harness context).
#[must_use]
pub fn trigger_search_workload(ids: &[&str]) -> Vec<(pl_boolfn::TruthTable, Vec<u32>)> {
    let mut workload = Vec::new();
    for id in ids {
        let (plain, _) = prepared_netlists(id);
        let levels = plain.arrival_levels();
        for (idx, gate) in plain.gates().iter().enumerate() {
            if let pl_core::PlGateKind::Compute { table } = gate.kind() {
                let arr = plain.pin_arrivals(pl_core::PlGateId::from_index(idx), &levels);
                workload.push((*table, arr));
            }
        }
    }
    workload
}

/// Fans [`run_flow`] out across up to `jobs` worker threads (`0` = auto),
/// one benchmark per work item. Each flow runs unchanged on a private
/// worker, so every row is bit-identical to the one a sequential
/// [`run_flow`] call gives; rows come back in `benches` order.
///
/// # Errors
///
/// Reports the first failing benchmark **by suite order** (not by wall
/// clock), so the error is deterministic across worker counts.
pub fn run_flows_parallel(
    benches: &[Benchmark],
    opts: &FlowOptions,
    jobs: usize,
) -> Result<Vec<FlowResult>, FlowError> {
    pl_sim::parallel::scatter_gather(jobs, benches, |_, b| run_flow(b, opts))
        .into_iter()
        .collect()
}

/// Formats results in the paper's Table 3 column layout.
#[must_use]
pub fn format_table3(rows: &[FlowResult]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    writeln!(
        s,
        "{:<36} {:>8} {:>8} {:>10} {:>10} {:>10} {:>7} {:>7}",
        "Description", "PL Gates", "EE Gates", "Avg (ns)", "Avg EE", "Diff", "%Area", "%Delay"
    )
    .expect("string write");
    writeln!(s, "{}", "-".repeat(103)).expect("string write");
    for r in rows {
        writeln!(
            s,
            "{:<36} {:>8} {:>8} {:>10.1} {:>10.1} {:>10.1} {:>6.0}% {:>6.0}%",
            r.description,
            r.pl_gates,
            r.ee_gates,
            r.delay_no_ee,
            r.delay_ee,
            r.delay_diff(),
            r.area_increase_pct(),
            r.delay_decrease_pct(),
        )
        .expect("string write");
    }
    if !rows.is_empty() {
        let avg_delay: f64 =
            rows.iter().map(FlowResult::delay_decrease_pct).sum::<f64>() / rows.len() as f64;
        let avg_area: f64 =
            rows.iter().map(FlowResult::area_increase_pct).sum::<f64>() / rows.len() as f64;
        writeln!(s, "{}", "-".repeat(103)).expect("string write");
        writeln!(
            s,
            "{:<36} {:>66.0}% {:>6.0}%",
            "Average", avg_area, avg_delay
        )
        .expect("string write");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_runs_small_benchmark_end_to_end() {
        let bench = pl_itc99::by_id("b02").unwrap();
        let opts = FlowOptions {
            vectors: 20,
            ..FlowOptions::default()
        };
        let r = run_flow(&bench, &opts).unwrap();
        assert!(r.pl_gates > 0);
        assert!(r.delay_no_ee > 0.0);
        assert_eq!(r.vectors, 20);
    }

    #[test]
    fn parallel_flows_match_sequential_rows() {
        let opts = FlowOptions {
            vectors: 5,
            verify: false,
            ..FlowOptions::default()
        };
        let benches: Vec<_> = pl_itc99::catalog()
            .into_iter()
            .filter(|b| b.id == "b01" || b.id == "b02" || b.id == "b06")
            .collect();
        let sequential: Vec<FlowResult> = benches
            .iter()
            .map(|b| run_flow(b, &opts).unwrap())
            .collect();
        for jobs in [1, 4] {
            let par = run_flows_parallel(&benches, &opts, jobs).unwrap();
            assert_eq!(par.len(), sequential.len());
            for (p, s) in par.iter().zip(&sequential) {
                assert_eq!(p.id, s.id, "rows out of order at jobs={jobs}");
                assert_eq!(p.delay_no_ee.to_bits(), s.delay_no_ee.to_bits());
                assert_eq!(p.delay_ee.to_bits(), s.delay_ee.to_bits());
                assert_eq!((p.pl_gates, p.ee_gates), (s.pl_gates, s.ee_gates));
            }
        }
    }

    #[test]
    fn flow_error_crosses_threads() {
        fn ok<T: Send + Sync>() {}
        ok::<FlowError>();
        ok::<FlowResult>();
        ok::<FlowOptions>();
        ok::<Benchmark>();
    }

    #[test]
    fn run_flow_matches_hand_rolled_pipeline() {
        // The thin wrapper must reproduce the pre-refactor recipe exactly:
        // elaborate → LUT4-map → PL-map → EE → measure both variants with
        // the same seeded vectors. Bit-compare the delays.
        use pl_core::ee::EeOptions;
        use pl_core::PlNetlist;
        use pl_techmap::{map_with_report, MapOptions};

        let bench = pl_itc99::by_id("b06").unwrap();
        let opts = FlowOptions {
            vectors: 12,
            ..FlowOptions::default()
        };

        let gates = (bench.build)().elaborate().unwrap();
        let mapped = map_with_report(&gates, &MapOptions::default())
            .unwrap()
            .netlist;
        let plain = PlNetlist::from_sync(&mapped).unwrap();
        let pl_gates = plain.num_logic_gates();
        let report = PlNetlist::from_sync(&mapped)
            .unwrap()
            .with_early_evaluation(&EeOptions::default());
        let ee_gates = report.pairs().len();
        let ee_netlist = report.into_netlist();
        let (_, stats_plain) =
            pl_sim::measure_latency(&plain, &opts.delays, opts.vectors, opts.seed).unwrap();
        let (_, stats_ee) =
            pl_sim::measure_latency(&ee_netlist, &opts.delays, opts.vectors, opts.seed).unwrap();

        let r = run_flow(&bench, &opts).unwrap();
        assert_eq!(r.pl_gates, pl_gates);
        assert_eq!(r.ee_gates, ee_gates);
        assert_eq!(r.delay_no_ee.to_bits(), stats_plain.mean().to_bits());
        assert_eq!(r.delay_ee.to_bits(), stats_ee.mean().to_bits());
    }

    #[test]
    fn formatting_contains_all_rows() {
        let rows = vec![FlowResult {
            id: "b01",
            description: "FSM that compares serial flows",
            pl_gates: 25,
            ee_gates: 9,
            delay_no_ee: 49.0,
            delay_ee: 43.0,
            vectors: 100,
        }];
        let s = format_table3(&rows);
        assert!(s.contains("FSM that compares serial flows"));
        assert!(s.contains("36%")); // 9/25
        assert!(s.contains("12%")); // 6/49
    }

    #[test]
    fn percentages_match_paper_arithmetic() {
        // The paper's own b01 row: 25 gates, 9 EE, 49 -> 43 ns.
        let r = FlowResult {
            id: "b01",
            description: "",
            pl_gates: 25,
            ee_gates: 9,
            delay_no_ee: 49.0,
            delay_ee: 43.0,
            vectors: 100,
        };
        assert!((r.area_increase_pct() - 36.0).abs() < 0.01);
        assert!((r.delay_decrease_pct() - 12.24).abs() < 0.1);
        assert!((r.delay_diff() - 6.0).abs() < 1e-9);
    }
}
