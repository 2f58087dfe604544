//! The paper's Table 3, pinned whole: for every catalog design (b01–b15)
//! the PL gate count, the EE pair count, and for the plain and the EE
//! netlist both the per-vector latency sum and the streamed makespan, in
//! integer ticks (1 tick = 1 fs), so the pin is exact.
//!
//! Both figures come through [`Pipeline::simulate`] with Table 3's 400
//! vectors at the default seed: `window: None` for the per-vector
//! protocol, `window: Some(400)` for the streamed one. A change to the
//! simulate path, the EE selection or the mapper that moves any latency
//! fails here. After an intentional change, regenerate the golden with
//! `UPDATE_GOLDEN=1 cargo test --test table3_golden`.

use std::fmt::Write as _;
use std::path::PathBuf;

use pl_flow::{CircuitSource, EarlyEvaled, FlowOptions, Pipeline, Simulated};
use pl_sim::ns_to_ticks;

const CATALOG: [&str; 15] = [
    "b01", "b02", "b03", "b04", "b05", "b06", "b07", "b08", "b09", "b10", "b11", "b12", "b13",
    "b14", "b15",
];
const VECTORS: usize = 400;

/// Compares `actual` against the checked-in golden; with `UPDATE_GOLDEN`
/// set in the environment, rewrites the golden instead and passes.
fn check_golden(actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/table3.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); create it with \
             `UPDATE_GOLDEN=1 cargo test --test table3_golden`",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "Table 3 drifted from {}; if the change is intentional, regenerate \
         with `UPDATE_GOLDEN=1 cargo test --test table3_golden`",
        path.display()
    );
}

fn simulate(early: &EarlyEvaled, window: Option<usize>) -> Simulated {
    Pipeline::new(FlowOptions {
        vectors: VECTORS,
        jobs: 1,
        window,
        ..FlowOptions::default()
    })
    .simulate(early)
    .unwrap_or_else(|e| panic!("{}: simulate failed: {e}", early.name))
}

fn latency_sum(per_vector: &[f64]) -> u64 {
    per_vector.iter().map(|&ns| ns_to_ticks(ns)).sum()
}

fn makespan(stream: Option<&pl_sim::StreamOutcome>) -> u64 {
    ns_to_ticks(stream.expect("streamed protocol ran").makespan)
}

fn row(id: &str) -> String {
    let pipeline = Pipeline::new(FlowOptions::default());
    let source = CircuitSource::catalog(id).unwrap();
    let ingested = pipeline.ingest(&source).unwrap();
    let mapped = pipeline
        .techmap(pipeline.optimize(ingested).unwrap())
        .unwrap();
    let phased = pipeline.phased(&mapped).unwrap();
    let gates = phased.report.logic_gates;
    let early = pipeline.early_eval(phased);

    let per_vector = simulate(&early, None);
    let streamed = simulate(&early, Some(VECTORS));
    let ee_stats = per_vector.stats_ee.as_ref().expect("EE is on by default");
    format!(
        "{id} {gates:>5} {:>5} {:>16} {:>16} {:>16} {:>16}",
        early.pairs.len(),
        latency_sum(&per_vector.stats_plain.per_vector),
        latency_sum(&ee_stats.per_vector),
        makespan(streamed.stream_plain.as_ref()),
        makespan(streamed.stream_ee.as_ref()),
    )
}

#[test]
fn table3_matches_golden() {
    let rows = pl_sim::parallel::scatter_gather(0, &CATALOG, |_, id| row(id));
    let mut table = format!(
        "# Table 3: {VECTORS} vectors, seed {:#x}; latency sums and makespans in ticks (1 fs)\n",
        FlowOptions::default().seed
    );
    let _ = writeln!(
        table,
        "#id {:>5} {:>5} {:>16} {:>16} {:>16} {:>16}",
        "gates", "pairs", "plain_latency", "ee_latency", "plain_makespan", "ee_makespan"
    );
    for r in rows {
        let _ = writeln!(table, "{r}");
    }
    check_golden(&table);
}
