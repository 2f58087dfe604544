//! Machine-readable performance report: `BENCH_sim.json`,
//! `BENCH_ee_search.json`, `BENCH_batch.json` and `BENCH_eco.json`.
//!
//! This is the cross-PR perf trajectory tracker. It measures, in one run:
//!
//! * **Simulator throughput** (`BENCH_sim.json`) — events/sec of the
//!   integer-tick engine vs the retained pre-refactor baseline
//!   (`pl_sim::reference`) streaming random vectors through the large
//!   ITC'99 designs (b14 "viper", b15 "i386 subset"), plus Table 3 latency
//!   ratios per benchmark from the standard flow (100 vectors, the
//!   paper's protocol).
//! * **Trigger-search throughput** (`BENCH_ee_search.json`) — LUT4 trigger
//!   searches/sec of the word-parallel search vs the per-assignment
//!   baseline, and the memoized netlist-level EE transformation time.
//! * **Word-parallel batch engine** (`BENCH_batch.json`) — events/sec and
//!   vectors/sec of `pl_sim::BatchSimulator` marching 64 substreams
//!   through one event flow with `u64` lane words, vs the same 64
//!   substreams run back to back on scalar simulators, on streamed
//!   b14/b15 — every lane asserted bit-identical to its scalar run
//!   before any timing is reported.
//! * **Incremental recompilation** (`BENCH_eco.json`) — wall-clock of a
//!   single-gate ECO edit recompiled through `pl_flow::EcoSession`
//!   (cone-limited re-techmap, trigger-cache reuse, downstream skip) vs
//!   a full `Pipeline::run` on the same edited netlist, on b14/b15 —
//!   the session's artifacts asserted bit-identical to the scratch
//!   compile before any timing is reported.
//!
//! Every file records the host CPU count and the `rustc -V` line it was
//! measured under, so a cross-PR trajectory diff can tell a code change
//! from a host change. Output files land in the current directory. Usage:
//!
//! ```text
//! cargo run --release -p pl-bench --bin bench_report [--quick] [--jobs J]
//! ```
//!
//! `--quick` shrinks vector/repetition counts (CI smoke mode); `--jobs J`
//! fans the Table 3 ratio flows out across J worker threads (`0` = one
//! per core) — rows are bit-identical at any J. Run with `--help` for the
//! full flag list.

use std::fmt::Write as _;
use std::time::Instant;

use pl_bench::{lcg_vectors, prepared_netlists, run_flow, trigger_search_workload, FlowOptions};
use pl_boolfn::TruthTable;
use pl_core::ee::EeOptions;
use pl_core::trigger::{search_triggers, search_triggers_baseline, TriggerCache};
use pl_core::PlNetlist;
use pl_sim::{BatchSimulator, DelayModel, PlSimulator, ReferenceSimulator};
use pl_techmap::{map_to_lut4, MapOptions};

struct SimRow {
    id: String,
    vectors: usize,
    events: u64,
    ref_events: u64,
    ref_secs: f64,
    new_secs: f64,
}

struct RatioRow {
    id: String,
    delay_no_ee: f64,
    delay_ee: f64,
}

fn measure_sim(id: &str, vectors: usize) -> SimRow {
    let (_, pl) = prepared_netlists(id);
    let vecs = lcg_vectors(
        pl.input_gates().len(),
        vectors,
        0x5EED_0000 + vectors as u64,
    );

    let mut ref_sim = ReferenceSimulator::new(&pl, DelayModel::default()).expect("live");
    let t0 = Instant::now();
    let ref_out = ref_sim.run_stream(&vecs).expect("simulates");
    let ref_secs = t0.elapsed().as_secs_f64();

    let mut new_sim = PlSimulator::new(&pl, DelayModel::default()).expect("live");
    let t0 = Instant::now();
    let new_out = new_sim.run_stream(&vecs).expect("simulates");
    let new_secs = t0.elapsed().as_secs_f64();

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
    SimRow {
        id: id.to_string(),
        vectors,
        events: new_sim.events_processed(),
        ref_events: ref_sim.events_processed(),
        ref_secs,
        new_secs,
    }
}

fn measure_ratios(quick: bool, jobs: usize) -> Vec<RatioRow> {
    let opts = FlowOptions {
        // Full runs use the paper's 100-vector protocol; the `--jobs`
        // fan-out keeps the doubled workload inside the wall-time budget
        // on multi-core hosts.
        vectors: if quick { 10 } else { 100 },
        verify: false,
        ..FlowOptions::default()
    };
    let catalog = pl_itc99::catalog();
    pl_sim::parallel::scatter_gather(jobs, &catalog, |_, b| {
        // A failing flow must abort the report loudly: silently dropping
        // a row would make the cross-PR trajectory file read as complete
        // while a benchmark vanished.
        let row = run_flow(b, &opts).unwrap_or_else(|e| panic!("flow failed for {}: {e}", b.id));
        RatioRow {
            id: row.id.to_string(),
            delay_no_ee: row.delay_no_ee,
            delay_ee: row.delay_ee,
        }
    })
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
    about: "write BENCH_sim.json, BENCH_ee_search.json, BENCH_batch.json and BENCH_eco.json",
    positional: None,
    options: &[
        pl_flow::cli::OptSpec {
            long: "--quick",
            value: None,
            help: "shrink vector/repetition counts (CI smoke mode)",
        },
        pl_flow::cli::OptSpec {
            long: "--jobs",
            value: Some("J"),
            help: "worker threads for the Table 3 ratio flows (0 = one per core)",
        },
    ],
};

fn main() {
    let args = SPEC.parse_env();
    let quick = args.flag("--quick");
    let jobs: usize = args.value_or("--jobs", 1);
    let host_meta = host_meta_json();

    // ---- BENCH_sim.json -------------------------------------------------
    let stream_vectors = if quick { 20 } else { 200 };
    let mut rows = Vec::new();
    for id in ["b14", "b15"] {
        let row = measure_sim(id, stream_vectors);
        println!(
            "{}: {} events, reference {:.3}s ({:.0} ev/s), engine {:.3}s ({:.0} ev/s), speedup {:.2}x",
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
    let ratios = measure_ratios(quick, jobs);

    let mut sim_json = format!("{{\n{host_meta}  \"streamed\": [\n");
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
    sim_json.push_str("  ],\n  \"table3_latency_ratios\": [\n");
    for (i, r) in ratios.iter().enumerate() {
        let _ = writeln!(
            sim_json,
            "    {{\"bench\": \"{}\", \"delay_no_ee_ns\": {:.4}, \"delay_ee_ns\": {:.4}, \"ratio\": {:.4}}}{}",
            r.id,
            r.delay_no_ee,
            r.delay_ee,
            if r.delay_ee > 0.0 { r.delay_no_ee / r.delay_ee } else { 0.0 },
            if i + 1 < ratios.len() { "," } else { "" },
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

    // Memoized netlist-level transformation (the per-netlist LUT-class
    // cache) measured on the largest designs.
    let mut memo_lines = Vec::new();
    for id in ["b14", "b15"] {
        let bench = pl_itc99::by_id(id).expect("exists");
        let gates = (bench.build)().elaborate().expect("elaborates");
        let mapped = map_to_lut4(&gates, &MapOptions::default()).expect("maps");
        let pl = PlNetlist::from_sync(&mapped).expect("PL maps");
        let t0 = Instant::now();
        let report = pl.with_early_evaluation(&EeOptions::default());
        let secs = t0.elapsed().as_secs_f64();
        let (hits, misses) = (report.cache_hits(), report.cache_misses());
        println!(
            "{id}: ee transform {:.3}s, {} pairs, cache {} hits / {} misses",
            secs,
            report.pairs().len(),
            hits,
            misses
        );
        memo_lines.push(format!(
            "    {{\"bench\": \"{id}\", \"transform_secs\": {:.6}, \"pairs\": {}, \"cache_hits\": {hits}, \"cache_misses\": {misses}}}",
            secs,
            report.pairs().len(),
        ));
    }

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
        "  \"trigger_search_netlist_workload\": {{\"gate_searches\": {}, \"reps\": {wl_reps}, \"baseline_searches_per_sec\": {:.1}, \"memoized_searches_per_sec\": {:.1}, \"speedup\": {:.3}}},",
        workload.len(),
        wl_searches / wl_base_secs,
        wl_searches / wl_memo_secs,
        wl_base_secs / wl_memo_secs,
    );
    ee_json.push_str("  \"ee_transform\": [\n");
    ee_json.push_str(&memo_lines.join(",\n"));
    ee_json.push_str("\n  ]\n}\n");
    std::fs::write("BENCH_ee_search.json", &ee_json).expect("write BENCH_ee_search.json");
    println!("wrote BENCH_ee_search.json");

    // ---- BENCH_batch.json ----------------------------------------------
    // Word-parallel batch engine vs sequential scalar runs: 64 substreams
    // of `batch_rounds` vectors each on the streamed b14/b15 workload. The
    // batch engine marches all 64 substreams through ONE event flow with
    // u64 lane words (every gate evaluation computes all 64 lanes bitwise),
    // while the scalar pass runs the same 64 substreams back to back on
    // fresh PlSimulators. Every lane is asserted bit-identical to its
    // substream's scalar run, vector for vector, BEFORE any timing is
    // recorded — so the only thing this section measures is the lane win.
    // Timing follows the other sections' protocol (warm-up pass, then
    // interleaved reps with the minimum kept).
    let batch_rounds: usize = if quick { 2 } else { 4 };
    let batch_reps = if quick { 2 } else { 5 };
    let mut batch_lines = Vec::new();
    for id in ["b14", "b15"] {
        let (_, pl) = prepared_netlists(id);
        let total = 64 * batch_rounds;
        let all = lcg_vectors(pl.input_gates().len(), total, 0x5EED_0000 + total as u64);
        let streams: Vec<&[Vec<bool>]> = all.chunks(batch_rounds).collect();
        let delays = DelayModel::default();
        // Warm-up + the lane-equivalence gate.
        let mut scalar_events = 0u64;
        let scalar_outs: Vec<_> = streams
            .iter()
            .map(|s| {
                let mut sim = PlSimulator::new(&pl, delays.clone()).expect("live");
                let r = sim.run_stream(s).expect("streams");
                scalar_events += sim.events_processed();
                r.outputs
            })
            .collect();
        let mut batch_sim = BatchSimulator::new(&pl, delays.clone()).expect("live");
        let batch_outs = batch_sim.run_lanes(&streams).expect("runs");
        let batch_events = batch_sim.events_processed();
        for (lane, (b, s)) in batch_outs.iter().zip(&scalar_outs).enumerate() {
            assert_eq!(
                &b.outputs, s,
                "{id}: lane {lane} diverged from its scalar run"
            );
        }
        let (mut scalar_secs, mut batch_secs) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..batch_reps {
            let t0 = Instant::now();
            for s in &streams {
                let r = PlSimulator::new(&pl, delays.clone())
                    .expect("live")
                    .run_stream(s)
                    .expect("streams");
                std::hint::black_box(&r);
            }
            scalar_secs = scalar_secs.min(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            let r = BatchSimulator::new(&pl, delays.clone())
                .expect("live")
                .run_lanes(&streams)
                .expect("runs");
            batch_secs = batch_secs.min(t0.elapsed().as_secs_f64());
            std::hint::black_box(&r);
        }
        println!(
            "{id}: batch engine (64 substreams x {batch_rounds} vectors, min of {batch_reps}) scalar {scalar_secs:.3}s ({:.0} vec/s), 64-lane {batch_secs:.3}s ({:.0} vec/s), speedup {:.2}x, all lanes bit-identical",
            total as f64 / scalar_secs,
            total as f64 / batch_secs,
            scalar_secs / batch_secs,
        );
        batch_lines.push(format!(
            "    {{\"bench\": \"{id}\", \"substreams\": 64, \"rounds_per_substream\": {batch_rounds}, \"vectors\": {total}, \"reps\": {batch_reps}, \"scalar_secs\": {scalar_secs:.6}, \"batch_secs\": {batch_secs:.6}, \"scalar_events\": {scalar_events}, \"batch_events\": {batch_events}, \"scalar_events_per_sec\": {:.1}, \"batch_events_per_sec\": {:.1}, \"scalar_vectors_per_sec\": {:.1}, \"batch_vectors_per_sec\": {:.1}, \"speedup\": {:.3}, \"bit_identical\": true}}",
            scalar_events as f64 / scalar_secs,
            batch_events as f64 / batch_secs,
            total as f64 / scalar_secs,
            total as f64 / batch_secs,
            scalar_secs / batch_secs,
        ));
    }
    let mut batch_json = format!("{{\n{host_meta}");
    let _ = writeln!(
        batch_json,
        "  \"note\": \"64 independent substreams run once through the u64-lane batch engine (one event flow, all lanes per gate eval) vs back to back on scalar simulators; secs are the min over reps after a warm-up; bit_identical asserts every lane equals its substream's scalar run vector for vector before timing; batch_events counts the single shared schedule, so events/sec compares per-schedule dispatch cost while vectors/sec compares end-to-end throughput\","
    );
    batch_json.push_str("  \"batch_streams\": [\n");
    batch_json.push_str(&batch_lines.join(",\n"));
    batch_json.push_str("\n  ]\n}\n");
    std::fs::write("BENCH_batch.json", &batch_json).expect("write BENCH_batch.json");
    println!("wrote BENCH_batch.json");

    // ---- BENCH_eco.json ------------------------------------------------
    // Incremental recompilation vs from-scratch: a single-gate table edit
    // on the two largest catalog designs, applied through an `EcoSession`
    // (cone-limited re-techmap + trigger-cache reuse) and timed against a
    // full `Pipeline::run` on the same edited netlist. Bit-identity of
    // the session's artifacts with the scratch compile is asserted BEFORE
    // any timing, so the file can only ever report a speedup on results
    // that are exactly equal. Each timed rep alternates the table between
    // the original and the flipped bits — re-applying an identical table
    // would hit the downstream-skip path and time nothing.
    let eco_vectors = if quick { 4 } else { 16 };
    let eco_reps = if quick { 2 } else { 5 };
    let mut eco_lines = Vec::new();
    for id in ["b14", "b15"] {
        let pipeline = pl_flow::Pipeline::new(FlowOptions {
            vectors: eco_vectors,
            verify: false,
            ..FlowOptions::default()
        });
        let source = pl_flow::CircuitSource::catalog(id).expect("catalog id");
        let mut session = pipeline.eco_session(&source).expect("compiles");
        let lut = live_lut(session.netlist());
        let orig = session
            .netlist()
            .node(lut)
            .lut_table()
            .expect("is a LUT")
            .bits();
        let edit = |bits: u64| {
            [pl_flow::EcoEdit::ReplaceTable {
                node: pl_flow::NodeRef::Id(lut.index()),
                bits,
            }]
        };

        // The equivalence gate: flip once, compare against scratch.
        let out = session.apply_eco(&edit(orig ^ 1)).expect("eco applies");
        let scratch = pipeline
            .run(&pl_flow::CircuitSource::Netlist {
                name: id.to_string(),
                netlist: session.netlist().clone(),
            })
            .expect("scratch compile");
        let art = session.artifacts();
        assert_eq!(art.mapped, scratch.mapped, "{id}: mapped diverged");
        assert_eq!(art.outputs, scratch.outputs, "{id}: outputs diverged");
        assert_eq!(art.pairs, scratch.pairs, "{id}: EE pairs diverged");
        let (cuts_reused, two_nodes) = (out.eco.cuts_reused, out.eco.two_nodes);
        let (hits, misses) = (out.eco.trigger_hits, out.eco.trigger_misses);

        let (mut inc_secs, mut full_secs) = (f64::INFINITY, f64::INFINITY);
        for rep in 0..eco_reps {
            let bits = if rep % 2 == 0 { orig } else { orig ^ 1 };
            let t0 = Instant::now();
            let o = session.apply_eco(&edit(bits)).expect("eco applies");
            inc_secs = inc_secs.min(t0.elapsed().as_secs_f64());
            std::hint::black_box(&o);
            let t0 = Instant::now();
            let r = pipeline
                .run(&pl_flow::CircuitSource::Netlist {
                    name: id.to_string(),
                    netlist: session.netlist().clone(),
                })
                .expect("full recompile");
            full_secs = full_secs.min(t0.elapsed().as_secs_f64());
            std::hint::black_box(&r);
        }
        println!(
            "{id}: eco single-gate edit ({eco_vectors} vectors, min of {eco_reps}) incremental {inc_secs:.3}s, full {full_secs:.3}s, speedup {:.2}x, cuts reused {cuts_reused}/{two_nodes}, cache {hits}h/{misses}m, bit-identical",
            full_secs / inc_secs,
        );
        eco_lines.push(format!(
            "    {{\"bench\": \"{id}\", \"vectors\": {eco_vectors}, \"reps\": {eco_reps}, \"incremental_secs\": {inc_secs:.6}, \"full_secs\": {full_secs:.6}, \"speedup\": {:.3}, \"cuts_reused\": {cuts_reused}, \"two_input_nodes\": {two_nodes}, \"trigger_cache_hits\": {hits}, \"trigger_cache_misses\": {misses}, \"bit_identical\": true}}",
            full_secs / inc_secs,
        ));
    }
    let mut eco_json = format!("{{\n{host_meta}");
    let _ = writeln!(
        eco_json,
        "  \"note\": \"one single-gate table edit recompiled incrementally (EcoSession: cone-limited re-techmap, trigger-cache reuse) vs a full Pipeline::run on the same edited netlist; secs are the min over reps; bit_identical asserts the session's mapped netlist, outputs and EE pairs equal the scratch compile's before timing; the timed edit alternates tables so every apply recompiles instead of hitting the downstream-skip path\","
    );
    eco_json.push_str("  \"eco\": [\n");
    eco_json.push_str(&eco_lines.join(",\n"));
    eco_json.push_str("\n  ]\n}\n");
    std::fs::write("BENCH_eco.json", &eco_json).expect("write BENCH_eco.json");
    println!("wrote BENCH_eco.json");
}

/// The edit target for the ECO section: the highest-id LUT reachable
/// backwards from the primary outputs and DFF data pins, so the flip is
/// guaranteed to land in the mapper's demand cone.
fn live_lut(n: &pl_netlist::Netlist) -> pl_netlist::NodeId {
    let mut stack: Vec<pl_netlist::NodeId> = n.outputs().iter().map(|(_, id)| *id).collect();
    stack.extend(n.dffs().iter().copied());
    let mut seen = vec![false; n.len()];
    let mut best: Option<pl_netlist::NodeId> = None;
    while let Some(id) = stack.pop() {
        if std::mem::replace(&mut seen[id.index()], true) {
            continue;
        }
        if n.node(id).is_lut() && best.is_none_or(|b| id > b) {
            best = Some(id);
        }
        stack.extend(n.node(id).fanins());
    }
    best.expect("design has a live LUT")
}
