//! Machine-readable speed report of the two frozen differential baselines
//! against production code: `BENCH_sim.json` and `BENCH_ee_search.json`.
//!
//! The repository benchmark (`perfbench/`) is the end-to-end and
//! per-layer record of the pipeline's speed, and `tests/table3_golden.rs`
//! pins Table 3's latencies. This report keeps what neither gives: how
//! fast the retained pre-refactor baselines run against the code that
//! replaced them, each measured only after an equivalence gate passes.
//!
//! * **Simulator** (`BENCH_sim.json`) — events/sec of the integer-tick
//!   engine vs `pl_sim::reference`, streaming random vectors through the
//!   large ITC'99 designs (b14 "viper", b15 "i386 subset"). Outputs and
//!   makespans are asserted equal first; each engine is then timed five
//!   times, alternating which runs first, and the medians are reported.
//! * **Trigger search** (`BENCH_ee_search.json`) — LUT4 trigger
//!   searches/sec of the word-parallel search vs
//!   `search_triggers_baseline`, on random LUT4s and on the per-gate
//!   search stream of b14/b15 (memoized); candidate counts are asserted
//!   equal.
//!
//! Every file records the host CPU count and the `rustc -V` line it was
//! measured under, so a cross-PR trajectory diff can tell a code change
//! from a host change. Output files land in the current directory. Usage:
//!
//! ```text
//! cargo run --release -p pl-bench --bin bench_report [--quick]
//! ```
//!
//! `--quick` shrinks vector/repetition counts (CI smoke mode). Run with
//! `--help` for the full flag list.

use std::fmt::Write as _;
use std::time::Instant;

use pl_bench::{lcg_vectors, prepared_netlists, trigger_search_workload};
use pl_boolfn::TruthTable;
use pl_core::trigger::{search_triggers, search_triggers_baseline, TriggerCache};
use pl_sim::{DelayModel, PlSimulator, ReferenceSimulator};

/// Timed runs per engine in the simulator section.
const SIM_REPS: usize = 5;

struct SimRow {
    id: String,
    vectors: usize,
    events: u64,
    ref_events: u64,
    ref_secs: f64,
    new_secs: f64,
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn measure_sim(id: &str, vectors: usize) -> SimRow {
    let (_, pl) = prepared_netlists(id);
    let vecs = lcg_vectors(
        pl.input_gates().len(),
        vectors,
        0x5EED_0000 + vectors as u64,
    );
    // Each closure streams `vecs` through a fresh engine and returns the
    // outcome, the events processed and the seconds `run_stream` took.
    let run_ref = || {
        let mut sim = ReferenceSimulator::new(&pl, DelayModel::default()).expect("live");
        let t0 = Instant::now();
        let out = sim.run_stream(&vecs).expect("simulates");
        (out, sim.events_processed(), t0.elapsed().as_secs_f64())
    };
    let run_new = || {
        let mut sim = PlSimulator::new(&pl, DelayModel::default()).expect("live");
        let t0 = Instant::now();
        let out = sim.run_stream(&vecs).expect("simulates");
        (out, sim.events_processed(), t0.elapsed().as_secs_f64())
    };

    // The equivalence gate, which doubles as the warm-up.
    let (ref_out, ref_events, _) = run_ref();
    let (new_out, events, _) = run_new();
    assert_eq!(ref_out.outputs, new_out.outputs, "{id}: engines diverged");
    assert!(
        (ref_out.makespan - new_out.makespan).abs() < 1e-6,
        "{id}: makespans diverged beyond quantization: {} vs {}",
        ref_out.makespan,
        new_out.makespan
    );
    // Event counts may differ by a handful: at exact-tie times the f64
    // engine's rounding noise picks one EE produce path while the tick
    // engine sees a true tie — values and timestamps are unaffected, only
    // the count of stale (no-op) events differs. Report each engine against
    // its own count.

    // Alternate which engine runs first, so neither always inherits the
    // other's cache and frequency state.
    let (mut ref_secs, mut new_secs) = (Vec::new(), Vec::new());
    for rep in 0..SIM_REPS {
        if rep % 2 == 0 {
            ref_secs.push(run_ref().2);
            new_secs.push(run_new().2);
        } else {
            new_secs.push(run_new().2);
            ref_secs.push(run_ref().2);
        }
    }
    SimRow {
        id: id.to_string(),
        vectors,
        events,
        ref_events,
        ref_secs: median(ref_secs),
        new_secs: median(new_secs),
    }
}

fn random_masters(count: usize) -> Vec<TruthTable> {
    let mut x: u64 = 0x5EED_CAFE;
    (0..count)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            TruthTable::from_bits(4, x & 0xFFFF)
        })
        .collect()
}

/// The host-context lines every `BENCH_*.json` carries — CPU count and
/// the toolchain the measurement was compiled with — so the cross-PR
/// trajectory files can separate code regressions from host changes.
fn host_meta_json() -> String {
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    format!("  \"host_cpus\": {host_cpus},\n  \"rustc\": \"{rustc}\",\n")
}

const SPEC: pl_flow::cli::CliSpec = pl_flow::cli::CliSpec {
    bin: "bench_report",
    about: "write BENCH_sim.json and BENCH_ee_search.json",
    positional: None,
    options: &[pl_flow::cli::OptSpec {
        long: "--quick",
        value: None,
        help: "shrink vector/repetition counts (CI smoke mode)",
    }],
};

fn main() {
    let args = SPEC.parse_env();
    let quick = args.flag("--quick");
    let host_meta = host_meta_json();

    // ---- BENCH_sim.json -------------------------------------------------
    let stream_vectors = if quick { 20 } else { 200 };
    let mut rows = Vec::new();
    for id in ["b14", "b15"] {
        let row = measure_sim(id, stream_vectors);
        println!(
            "{}: {} events, reference {:.3}s ({:.0} ev/s), engine {:.3}s ({:.0} ev/s), speedup {:.2}x (medians of {SIM_REPS})",
            row.id,
            row.events,
            row.ref_secs,
            row.ref_events as f64 / row.ref_secs,
            row.new_secs,
            row.events as f64 / row.new_secs,
            row.ref_secs / row.new_secs,
        );
        rows.push(row);
    }

    let mut sim_json = format!("{{\n{host_meta}  \"reps\": {SIM_REPS},\n  \"streamed\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            sim_json,
            "    {{\"bench\": \"{}\", \"vectors\": {}, \"events\": {}, \"reference_secs\": {:.6}, \"engine_secs\": {:.6}, \"reference_events_per_sec\": {:.1}, \"engine_events_per_sec\": {:.1}, \"speedup\": {:.3}}}{}",
            r.id,
            r.vectors,
            r.events,
            r.ref_secs,
            r.new_secs,
            r.ref_events as f64 / r.ref_secs,
            r.events as f64 / r.new_secs,
            r.ref_secs / r.new_secs,
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    sim_json.push_str("  ]\n}\n");
    std::fs::write("BENCH_sim.json", &sim_json).expect("write BENCH_sim.json");
    println!("wrote BENCH_sim.json");

    // ---- BENCH_ee_search.json ------------------------------------------
    let masters = random_masters(if quick { 64 } else { 512 });
    let arrivals = [1u32, 2, 3, 4];
    let reps = if quick { 2 } else { 20 };

    let t0 = Instant::now();
    let mut found_base = 0usize;
    for _ in 0..reps {
        for m in &masters {
            found_base += search_triggers_baseline(std::hint::black_box(m), &arrivals).len();
        }
    }
    let base_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let mut found_new = 0usize;
    for _ in 0..reps {
        for m in &masters {
            found_new += search_triggers(std::hint::black_box(m), &arrivals).len();
        }
    }
    let new_secs = t0.elapsed().as_secs_f64();
    assert_eq!(
        found_base, found_new,
        "search rewrite changed the candidate count"
    );

    let searches = (reps * masters.len()) as f64;
    println!(
        "trigger search: baseline {:.0}/s, word-parallel {:.0}/s, speedup {:.2}x",
        searches / base_secs,
        searches / new_secs,
        base_secs / new_secs
    );

    // Netlist-shaped workload: the exact per-gate search stream the EE
    // transformation issues on the large designs, where structurally
    // repeated LUT classes let the memo cache answer most searches. This
    // is the trigger-search throughput that matters end-to-end.
    let workload = trigger_search_workload(&["b14", "b15"]);
    let wl_reps = if quick { 2 } else { 20 };
    let t0 = Instant::now();
    let mut base_n = 0usize;
    for _ in 0..wl_reps {
        for (t, arr) in &workload {
            base_n += search_triggers_baseline(std::hint::black_box(t), arr).len();
        }
    }
    let wl_base_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let mut memo_n = 0usize;
    for _ in 0..wl_reps {
        let mut cache = TriggerCache::new();
        for (t, arr) in &workload {
            memo_n += cache.search(std::hint::black_box(t), arr).len();
        }
    }
    let wl_memo_secs = t0.elapsed().as_secs_f64();
    assert_eq!(
        base_n, memo_n,
        "memoized workload changed the candidate count"
    );
    let wl_searches = (wl_reps * workload.len()) as f64;
    println!(
        "netlist workload ({} gate searches): baseline {:.0}/s, word-parallel+memo {:.0}/s, speedup {:.2}x",
        workload.len(),
        wl_searches / wl_base_secs,
        wl_searches / wl_memo_secs,
        wl_base_secs / wl_memo_secs
    );

    let mut ee_json = format!("{{\n{host_meta}");
    let _ = writeln!(
        ee_json,
        "  \"trigger_search_random_luts\": {{\"masters\": {}, \"reps\": {reps}, \"baseline_searches_per_sec\": {:.1}, \"word_parallel_searches_per_sec\": {:.1}, \"speedup\": {:.3}}},",
        masters.len(),
        searches / base_secs,
        searches / new_secs,
        base_secs / new_secs,
    );
    let _ = writeln!(
        ee_json,
        "  \"trigger_search_netlist_workload\": {{\"gate_searches\": {}, \"reps\": {wl_reps}, \"baseline_searches_per_sec\": {:.1}, \"memoized_searches_per_sec\": {:.1}, \"speedup\": {:.3}}}",
        workload.len(),
        wl_searches / wl_base_secs,
        wl_searches / wl_memo_secs,
        wl_base_secs / wl_memo_secs,
    );
    ee_json.push_str("}\n");
    std::fs::write("BENCH_ee_search.json", &ee_json).expect("write BENCH_ee_search.json");
    println!("wrote BENCH_ee_search.json");
}
