//! Differential equivalence suite for the integer-tick engine rewrite.
//!
//! The rewritten simulator (`pl_sim::PlSimulator`) must be
//! semantics-preserving against the retained pre-refactor engine
//! (`pl_sim::reference::ReferenceSimulator`):
//!
//! * output streams **bit-identical**, per-vector and pipelined,
//! * per-vector latencies equal up to the femtosecond quantization of the
//!   integer clock (tolerance 1e-6 ns = 1 tick),
//!
//! across the ITC'99 suite (with and without early evaluation) and across
//! randomized netlists. The memoized word-parallel trigger search is also
//! pinned candidate-for-candidate to the pre-refactor per-assignment
//! search on every compute gate of real designs.

use pl_bench::{lcg_vectors as vectors, prepared_netlists as itc99_netlists, Lcg};
use pl_core::ee::EeOptions;
use pl_core::trigger::{search_triggers_baseline, TriggerCache};
use pl_core::{PlGateId, PlGateKind, PlNetlist};
use pl_netlist::Netlist;
use pl_sim::{DelayModel, PlSimulator, ReferenceSimulator, ResumableOptions};
use pl_techmap::{map_to_lut4, MapOptions};

mod common;
use common::TempDir;

const LATENCY_TOL_NS: f64 = 1e-6; // one femtosecond tick

/// Distinct deterministic seed per benchmark id (the ids share a length,
/// so hashing the bytes — not the length — is what varies the streams).
fn seed_for(id: &str, salt: u64) -> u64 {
    id.bytes().fold(salt, |h, b| {
        h.wrapping_mul(0x100000001B3).wrapping_add(u64::from(b))
    })
}

/// Asserts both engines agree on `pl` for `vecs`, per-vector and streamed.
fn assert_engines_agree(pl: &PlNetlist, vecs: &[Vec<bool>], context: &str) {
    let delays = DelayModel::default();
    let mut new_sim = PlSimulator::new(pl, delays.clone()).expect("new engine builds");
    let mut ref_sim = ReferenceSimulator::new(pl, delays.clone()).expect("reference builds");
    for (i, v) in vecs.iter().enumerate() {
        let rn = new_sim.run_vector(v).expect("new engine simulates");
        let rr = ref_sim.run_vector(v).expect("reference simulates");
        assert_eq!(
            rn.outputs, rr.outputs,
            "{context}: outputs diverged at vector {i}"
        );
        assert!(
            (rn.latency - rr.latency).abs() < LATENCY_TOL_NS,
            "{context}: latency diverged at vector {i}: {} vs {}",
            rn.latency,
            rr.latency
        );
    }
    // Pipelined stream from a fresh state.
    let mut new_sim = PlSimulator::new(pl, delays.clone()).expect("new engine builds");
    let mut ref_sim = ReferenceSimulator::new(pl, delays).expect("reference builds");
    let sn = new_sim.run_stream(vecs).expect("new engine streams");
    let sr = ref_sim.run_stream(vecs).expect("reference streams");
    assert_eq!(
        sn.outputs, sr.outputs,
        "{context}: streamed outputs diverged"
    );
    assert!(
        (sn.makespan - sr.makespan).abs() < LATENCY_TOL_NS,
        "{context}: makespan diverged: {} vs {}",
        sn.makespan,
        sr.makespan
    );
}

#[test]
fn itc99_small_benchmarks_bit_identical() {
    for id in ["b01", "b02", "b03", "b06", "b08", "b09", "b10", "b13"] {
        let (plain, ee) = itc99_netlists(id);
        let vecs = vectors(plain.input_gates().len(), 16, seed_for(id, 0xA5A5));
        assert_engines_agree(&plain, &vecs, &format!("{id} plain"));
        assert_engines_agree(&ee, &vecs, &format!("{id} ee"));
    }
}

#[test]
fn itc99_medium_benchmarks_bit_identical() {
    for id in ["b04", "b05", "b07", "b11", "b12", "b14", "b15"] {
        let (plain, ee) = itc99_netlists(id);
        let vecs = vectors(plain.input_gates().len(), 6, seed_for(id, 0xB0B0));
        assert_engines_agree(&plain, &vecs, &format!("{id} plain"));
        assert_engines_agree(&ee, &vecs, &format!("{id} ee"));
    }
}

/// One random mapped netlist from the LCG stream — the exact generator
/// behind `pl_flow::CircuitSource::Random` (one definition, so this
/// suite's workload can never desynchronize from the flow's), LUT4-mapped
/// — or `None` when the draw fails validation.
fn random_mapped_netlist(rng: &mut Lcg) -> Option<Netlist> {
    let n = pl_flow::random_netlist_draw(rng)?;
    Some(map_to_lut4(&n, &MapOptions::default()).expect("maps"))
}

/// Random synchronous circuits (the `prop_flow` recipe generator, driven
/// by a plain LCG so the whole suite stays deterministic without dev-deps).
#[test]
fn randomized_netlists_bit_identical() {
    let mut rng = Lcg::new(0xF00D_FACE_CAFE_0001);
    let mut tested = 0;
    while tested < 25 {
        let Some(mapped) = random_mapped_netlist(&mut rng) else {
            continue;
        };
        let plain = PlNetlist::from_sync(&mapped).expect("PL maps");
        let ee = PlNetlist::from_sync(&mapped)
            .expect("PL maps")
            .with_early_evaluation(&EeOptions::default())
            .into_netlist();
        let vecs = vectors(mapped.inputs().len(), 12, rng.next_u64());
        assert_engines_agree(&plain, &vecs, "random plain");
        assert_engines_agree(&ee, &vecs, "random ee");
        tested += 1;
    }
}

/// The memoized word-parallel search must return candidate lists identical
/// to the pre-refactor per-assignment search on every compute gate of a
/// real design (the exact stream `with_early_evaluation` issues).
#[test]
fn memoized_search_identical_on_itc99_gates() {
    for id in ["b05", "b11"] {
        let (plain, _) = itc99_netlists(id);
        let levels = plain.arrival_levels();
        let mut cache = TriggerCache::new();
        let mut gates_checked = 0;
        for (idx, gate) in plain.gates().iter().enumerate() {
            if let PlGateKind::Compute { table } = gate.kind() {
                let arr = plain.pin_arrivals(PlGateId::from_index(idx), &levels);
                let memoized = cache.search(table, &arr).to_vec();
                let direct = search_triggers_baseline(table, &arr);
                assert_eq!(memoized, direct, "{id}: gate {idx} candidates diverged");
                gates_checked += 1;
            }
        }
        assert!(gates_checked > 0, "{id}: no compute gates checked");
        assert!(
            cache.hits() > 0,
            "{id}: netlist workload should repeat LUT classes"
        );
    }
}

/// Memoized search equals direct search on random LUT4 masters (the
/// acceptance wording: identical candidates for random LUT4s).
#[test]
fn memoized_search_identical_on_random_lut4s() {
    let mut rng = Lcg::new(0x7121_66E2);
    let mut cache = TriggerCache::new();
    for _ in 0..300 {
        let master = pl_boolfn::TruthTable::from_bits(4, rng.next_u64() & 0xFFFF);
        let arrivals: Vec<u32> = (0..4).map(|_| rng.below(6) as u32).collect();
        assert_eq!(
            cache.search(&master, &arrivals).to_vec(),
            search_triggers_baseline(&master, &arrivals),
            "candidates diverged for {master:?} arrivals {arrivals:?}"
        );
    }
}

// ---- parallel-vs-sequential determinism -------------------------------
//
// Running independent streams on worker threads
// (`pl_sim::scatter_gather`) must be a pure wall-clock optimization: for
// every worker count the gathered results are bit-identical — outputs
// AND f64 makespans compared exactly, no tolerance — to the sequential
// run of the same streams.

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Asserts that running each stream on its own simulator from the
/// initial marking, the streams spread over worker threads, is
/// bit-identical to running them one by one, at every worker count.
fn assert_parallel_matches_sequential(pl: &PlNetlist, streams: &[Vec<Vec<bool>>], context: &str) {
    let run = |_: usize, s: &Vec<Vec<bool>>| {
        PlSimulator::new(pl, DelayModel::default())
            .expect("builds")
            .run_stream(s)
            .expect("streams")
    };
    let sequential: Vec<_> = streams.iter().enumerate().map(|(i, s)| run(i, s)).collect();
    for jobs in WORKER_COUNTS {
        // StreamOutcome derives PartialEq over outputs, makespan and
        // throughput — this is an exact (bitwise f64) comparison.
        let par = pl_sim::scatter_gather(jobs, streams, run);
        assert_eq!(par, sequential, "{context}: jobs={jobs} diverged");
    }
}

/// Per-benchmark deterministic stream set (a few independent streams of
/// varying length, like a multi-seed sweep would issue).
fn parallel_streams_for(pl: &PlNetlist, id: &str) -> Vec<Vec<Vec<bool>>> {
    (0..3)
        .map(|k| {
            vectors(
                pl.input_gates().len(),
                4 + 2 * k,
                seed_for(id, 0xC0DE + k as u64),
            )
        })
        .collect()
}

/// The full ITC'99 suite — b01 through b15, plain and with EE — swept in
/// parallel at 1/2/4/8 workers must be bit-identical to the sequential
/// engine.
#[test]
fn parallel_sweep_bit_identical_on_itc99_suite() {
    for bench in pl_itc99::catalog() {
        let (plain, ee) = itc99_netlists(bench.id);
        let streams = parallel_streams_for(&plain, bench.id);
        assert_parallel_matches_sequential(&plain, &streams, &format!("{} plain", bench.id));
        assert_parallel_matches_sequential(&ee, &streams, &format!("{} ee", bench.id));
    }
}

/// Randomized netlists through the same parallel-vs-sequential harness.
#[test]
fn parallel_sweep_bit_identical_on_random_netlists() {
    let mut rng = Lcg::new(0x5CA7_7E86_A7DE_0002);
    let mut tested = 0;
    while tested < 12 {
        let Some(mapped) = random_mapped_netlist(&mut rng) else {
            continue;
        };
        let plain = PlNetlist::from_sync(&mapped).expect("PL maps");
        let ee = PlNetlist::from_sync(&mapped)
            .expect("PL maps")
            .with_early_evaluation(&EeOptions::default())
            .into_netlist();
        let streams: Vec<Vec<Vec<bool>>> = (0..4)
            .map(|k| vectors(mapped.inputs().len(), 3 + k, rng.next_u64()))
            .collect();
        assert_parallel_matches_sequential(&plain, &streams, "random plain");
        assert_parallel_matches_sequential(&ee, &streams, "random ee");
        tested += 1;
    }
}

// ---- checkpoint/resume + resumable single-stream determinism -----------
//
// The checkpoint subsystem (`pl_sim::SimCheckpoint`) must be invisible to
// the simulation: a run resumed from a snapshot is bit-identical to the
// uninterrupted run, and the crash-resumable sweep built on it
// (`pl_sim::sweep_resumable` — window checkpoints plus a journal on disk)
// must reproduce a plain `run_stream` exactly — outputs AND f64
// makespans/throughputs compared bitwise — at every window size, fresh
// and after a kill and resume.

/// Asserts that snapshotting `pl` after `split` vectors and resuming on a
/// fresh simulator reproduces the uninterrupted per-vector run exactly,
/// and that the snapshot did not perturb the snapshotted simulator.
fn assert_checkpoint_resume_identical(pl: &PlNetlist, vecs: &[Vec<bool>], context: &str) {
    let delays = DelayModel::default();
    let split = vecs.len() / 2;
    let mut base = PlSimulator::new(pl, delays.clone()).expect("builds");
    let reference: Vec<_> = vecs
        .iter()
        .map(|v| {
            let r = base.run_vector(v).expect("simulates");
            (r.outputs, r.latency.to_bits(), r.completed_at.to_bits())
        })
        .collect();

    let mut first = PlSimulator::new(pl, delays.clone()).expect("builds");
    for (v, expect) in vecs[..split].iter().zip(&reference) {
        let r = first.run_vector(v).expect("simulates");
        assert_eq!(
            &(r.outputs, r.latency.to_bits(), r.completed_at.to_bits()),
            expect,
            "{context}: prefix diverged before the snapshot"
        );
    }
    let ck = first.snapshot();
    assert_eq!(ck.rounds(), split as u64, "{context}: rounds miscounted");

    let mut resumed =
        PlSimulator::resume_from(pl, delays.clone(), &ck).expect("checkpoint resumes");
    for (i, (v, expect)) in vecs[split..].iter().zip(&reference[split..]).enumerate() {
        let r = resumed.run_vector(v).expect("simulates");
        assert_eq!(
            &(r.outputs, r.latency.to_bits(), r.completed_at.to_bits()),
            expect,
            "{context}: resumed run diverged at vector {}",
            split + i
        );
    }
    // The snapshot must be a pure read: the original continues identically.
    for (i, (v, expect)) in vecs[split..].iter().zip(&reference[split..]).enumerate() {
        let r = first.run_vector(v).expect("simulates");
        assert_eq!(
            &(r.outputs, r.latency.to_bits(), r.completed_at.to_bits()),
            expect,
            "{context}: snapshot perturbed the original at vector {}",
            split + i
        );
    }
}

/// Asserts the resumable sweep reproduces `run_stream` bitwise on `pl`
/// at every window size given — on a fresh run, and on a run killed
/// after its first journal append and then resumed.
fn assert_resumable_matches_run_stream(
    pl: &PlNetlist,
    vecs: &[Vec<bool>],
    windows: &[usize],
    context: &str,
) {
    let delays = DelayModel::default();
    let baseline = PlSimulator::new(pl, delays.clone())
        .expect("builds")
        .run_stream(vecs)
        .expect("streams");
    for &window in windows {
        let opts = ResumableOptions {
            window,
            ..ResumableOptions::default()
        };
        let dir = TempDir::new("eq");
        let fresh = pl_sim::sweep_resumable(pl, &delays, vecs, dir.path(), &opts)
            .unwrap_or_else(|e| panic!("{context}: sweep failed at window={window}: {e}"));
        // StreamOutcome's PartialEq covers outputs, makespan and
        // throughput — an exact f64 comparison, no tolerance.
        assert_eq!(
            fresh.outcome, baseline,
            "{context}: window={window} diverged from run_stream"
        );

        let dir = TempDir::new("eq");
        let faults = pl_sim::FaultPlan::new();
        faults.halt_after_journal_appends(1);
        let halted =
            pl_sim::sweep_resumable_with_faults(pl, &delays, vecs, dir.path(), &opts, &faults);
        // A stream of one window completes before a second append.
        assert_eq!(halted.is_err(), vecs.len() > window, "{context}: halt");
        if halted.is_err() {
            let resume = ResumableOptions {
                resume: true,
                ..opts
            };
            let resumed = pl_sim::sweep_resumable(pl, &delays, vecs, dir.path(), &resume)
                .unwrap_or_else(|e| panic!("{context}: resume failed at window={window}: {e}"));
            assert_eq!(
                resumed.outcome, baseline,
                "{context}: window={window} resumed run diverged from run_stream"
            );
        }
    }
}

/// Checkpoint/resume across the full ITC'99 suite, plain and with EE.
#[test]
fn checkpoint_resume_bit_identical_on_itc99_suite() {
    for bench in pl_itc99::catalog() {
        let (plain, ee) = itc99_netlists(bench.id);
        let vecs = vectors(plain.input_gates().len(), 6, seed_for(bench.id, 0xCEC4));
        assert_checkpoint_resume_identical(&plain, &vecs, &format!("{} plain", bench.id));
        assert_checkpoint_resume_identical(&ee, &vecs, &format!("{} ee", bench.id));
    }
}

/// Resumable-vs-sequential across the full ITC'99 suite (plain + EE) at
/// several window sizes.
#[test]
fn resumable_sweep_bit_identical_on_itc99_suite() {
    for bench in pl_itc99::catalog() {
        let (plain, ee) = itc99_netlists(bench.id);
        let vecs = vectors(plain.input_gates().len(), 9, seed_for(bench.id, 0x9199));
        for (netlist, label) in [(&plain, "plain"), (&ee, "ee")] {
            assert_resumable_matches_run_stream(
                netlist,
                &vecs,
                &[2, 5],
                &format!("{} {label}", bench.id),
            );
        }
    }
}

/// The small benchmarks additionally sweep the full window grid,
/// including the degenerate single-vector window and a window larger than
/// the whole stream.
#[test]
fn resumable_sweep_full_grid_on_small_benchmarks() {
    for id in ["b01", "b03", "b06", "b09"] {
        let (plain, ee) = itc99_netlists(id);
        let vecs = vectors(plain.input_gates().len(), 10, seed_for(id, 0x6121D));
        let windows = [1, 2, 3, vecs.len() + 5];
        for (netlist, label) in [(&plain, "plain"), (&ee, "ee")] {
            let context = format!("{id} {label}");
            assert_resumable_matches_run_stream(netlist, &vecs, &windows, &context);
        }
    }
}

/// Randomized netlists through the checkpoint and resumable harnesses.
#[test]
fn checkpoint_and_resumable_bit_identical_on_random_netlists() {
    let mut rng = Lcg::new(0xC4EC_4501_21D0_0003);
    let mut tested = 0;
    while tested < 8 {
        let Some(mapped) = random_mapped_netlist(&mut rng) else {
            continue;
        };
        let plain = PlNetlist::from_sync(&mapped).expect("PL maps");
        let ee = PlNetlist::from_sync(&mapped)
            .expect("PL maps")
            .with_early_evaluation(&EeOptions::default())
            .into_netlist();
        let vecs = vectors(mapped.inputs().len(), 8, rng.next_u64());
        assert_checkpoint_resume_identical(&plain, &vecs, "random plain");
        assert_checkpoint_resume_identical(&ee, &vecs, "random ee");
        assert_resumable_matches_run_stream(&plain, &vecs, &[1, 3], "random plain");
        assert_resumable_matches_run_stream(&ee, &vecs, &[1, 3], "random ee");
        tested += 1;
    }
}

/// A checkpoint holds only the rounds still in flight, so its size does
/// not grow with the stream position: on a long b14 stream the largest
/// `window-*.ck` stays within 25 % of the smallest.
#[test]
fn resumable_checkpoints_do_not_grow_with_stream_position() {
    let (plain, _) = itc99_netlists("b14");
    let vecs = vectors(plain.input_gates().len(), 400, seed_for("b14", 0x5123));
    let dir = TempDir::new("eq");
    let opts = ResumableOptions {
        window: 10,
        ..ResumableOptions::default()
    };
    pl_sim::sweep_resumable(&plain, &DelayModel::default(), &vecs, dir.path(), &opts)
        .expect("sweeps");
    let sizes: Vec<u64> = std::fs::read_dir(dir.path())
        .expect("lists")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ck"))
        .map(|p| std::fs::metadata(p).expect("stat").len())
        .collect();
    assert_eq!(sizes.len(), 39, "one checkpoint per inner window boundary");
    let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
    assert!(
        *max * 4 <= *min * 5,
        "checkpoints grew with the stream: {min} B to {max} B"
    );
}

// ---- word-parallel batch-engine determinism ----------------------------
//
// The 64-lane batch engine (`pl_sim::BatchSimulator`) must be a pure
// throughput optimization: `run_lanes` over up to 64 substreams is
// bit-identical, output word for output word, to running each substream
// on its own scalar simulator from the initial marking. (The contract
// covers values only — the wide EE trigger fires only when *all* lanes
// agree, so per-lane timing may differ from a scalar run.)

use pl_sim::BatchSimulator;
use proptest::prelude::*;

/// Per-benchmark deterministic substream set: `lanes` substreams with
/// ragged lengths (so short lanes exercise the all-false padding).
fn lane_streams_for(pl: &PlNetlist, id: &str, lanes: usize) -> Vec<Vec<Vec<bool>>> {
    (0..lanes)
        .map(|k| {
            vectors(
                pl.input_gates().len(),
                1 + k % 2,
                seed_for(id, 0xBA7C_4000 + k as u64),
            )
        })
        .collect()
}

/// Asserts one `run_lanes` call over `streams` reproduces, lane for lane,
/// the per-substream scalar runs exactly.
fn assert_batch_matches_scalar(pl: &PlNetlist, streams: &[Vec<Vec<bool>>], context: &str) {
    let delays = DelayModel::default();
    let lanes: Vec<&[Vec<bool>]> = streams.iter().map(Vec::as_slice).collect();
    let batch = BatchSimulator::new(pl, delays.clone())
        .expect("batch engine builds")
        .run_lanes(&lanes)
        .unwrap_or_else(|e| panic!("{context}: batch run failed: {e}"));
    assert_eq!(batch.len(), streams.len(), "{context}: outcome count");
    for (lane, (b, s)) in batch.iter().zip(streams).enumerate() {
        let scalar = PlSimulator::new(pl, delays.clone())
            .expect("builds")
            .run_stream(s)
            .expect("streams");
        assert_eq!(
            b.outputs, scalar.outputs,
            "{context}: lane {lane} diverged from its scalar run"
        );
    }
}

/// Full 64-lane blocks across the whole ITC'99 suite — b01 through b15,
/// plain and with EE — must match 64 sequential scalar runs bit for bit.
#[test]
fn batch_engine_bit_identical_on_itc99_suite() {
    for bench in pl_itc99::catalog() {
        let (plain, ee) = itc99_netlists(bench.id);
        let streams = lane_streams_for(&plain, bench.id, 64);
        assert_batch_matches_scalar(&plain, &streams, &format!("{} plain", bench.id));
        assert_batch_matches_scalar(&ee, &streams, &format!("{} ee", bench.id));
    }
}

/// Randomized netlists through the batch-vs-scalar harness, at partial
/// lane occupancy (including empty substreams).
#[test]
fn batch_engine_bit_identical_on_random_netlists() {
    let mut rng = Lcg::new(0xBA7C_4AE5_0000_0007);
    let mut tested = 0;
    while tested < 10 {
        let Some(mapped) = random_mapped_netlist(&mut rng) else {
            continue;
        };
        let plain = PlNetlist::from_sync(&mapped).expect("PL maps");
        let ee = PlNetlist::from_sync(&mapped)
            .expect("PL maps")
            .with_early_evaluation(&EeOptions::default())
            .into_netlist();
        let lanes = 1 + (rng.next_u64() % 64) as usize;
        let streams: Vec<Vec<Vec<bool>>> = (0..lanes)
            .map(|k| vectors(mapped.inputs().len(), k % 5, rng.next_u64()))
            .collect();
        assert_batch_matches_scalar(&plain, &streams, "random plain");
        assert_batch_matches_scalar(&ee, &streams, "random ee");
        tested += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A batch run over a vector count NOT divisible by 64 never
    /// panics: the ragged last round (substreams of unequal length) must
    /// still match each substream's own scalar run exactly.
    #[test]
    fn ragged_batch_sweep_matches_scalar(
        seed in any::<u64>(),
        total in 1usize..200,
    ) {
        prop_assume!(total % 64 != 0);
        let mut rng = Lcg::new(seed);
        let mapped = random_mapped_netlist(&mut rng);
        prop_assume!(mapped.is_some());
        let mapped = mapped.unwrap();
        let pl = PlNetlist::from_sync(&mapped).expect("PL maps");
        let delays = DelayModel::default();
        // Stripe `total` vectors 64 ways like the flow's lane protocol
        // does — the last round is ragged by construction.
        let all = vectors(mapped.inputs().len(), total, rng.next_u64());
        let mut subs: Vec<Vec<Vec<bool>>> = vec![Vec::new(); 64];
        for (i, v) in all.iter().enumerate() {
            subs[i % 64].push(v.clone());
        }
        let lanes: Vec<&[Vec<bool>]> = subs.iter().map(Vec::as_slice).collect();
        let batch = BatchSimulator::new(&pl, delays.clone())
            .expect("batch engine builds")
            .run_lanes(&lanes)
            .expect("batch run");
        prop_assert_eq!(batch.len(), subs.len());
        for (b, s) in batch.iter().zip(&subs) {
            let scalar = PlSimulator::new(&pl, delays.clone())
                .expect("builds")
                .run_stream(s)
                .expect("streams");
            prop_assert_eq!(&b.outputs, &scalar.outputs);
        }
    }
}

/// One `Pipeline::simulate` run of `spec` at `vectors` under `lanes`,
/// with the mapped netlist `Pipeline::verify` checks it against and the
/// netlists it simulated.
struct FlowRun {
    pipeline: pl_flow::Pipeline,
    mapped: Netlist,
    early: pl_flow::EarlyEvaled,
    sim: pl_flow::Simulated,
}

fn flow_run(spec: &str, vectors: usize, lanes: Option<usize>) -> FlowRun {
    use pl_flow::{CircuitSource, FlowOptions, Pipeline};
    let pipeline = Pipeline::new(FlowOptions {
        vectors,
        lanes,
        ..FlowOptions::default()
    });
    let ingested = pipeline
        .ingest(&CircuitSource::from_spec(spec))
        .expect("ingests");
    let mapped = pipeline
        .techmap(pipeline.optimize(ingested).expect("optimizes"))
        .expect("maps");
    let early = pipeline.early_eval(pipeline.phased(&mapped).expect("phases"));
    let sim = pipeline.simulate(&early).expect("simulates");
    FlowRun {
        pipeline,
        mapped: mapped.netlist,
        early,
        sim,
    }
}

/// The flow's lane protocol end to end: `Pipeline::simulate` at
/// `lanes: Some(64)`, then `Pipeline::verify`. The outputs must equal 64
/// striped scalar `run_stream`s of each variant, reassembled in vector
/// order, and hash to the lane digests `plc --lanes 64` prints. b06 at
/// 100 vectors ends in a ragged round (100 = 64 + 36).
#[test]
fn flow_lane_protocol_matches_striped_scalar_runs() {
    let b06 = concat!(env!("CARGO_MANIFEST_DIR"), "/assets/blif/b06.blif");
    for (spec, vectors, digest) in [
        (b06, 100, 0xfc3f_2091_862c_67ed_u64),
        ("b14", 1000, 0x7822_a19b_8f36_8e76),
    ] {
        let FlowRun {
            pipeline,
            mapped,
            early,
            sim,
        } = flow_run(spec, vectors, Some(64));
        pipeline.verify(&mapped, &sim).expect("verifies");
        assert_eq!(sim.outputs.len(), vectors, "{spec}");

        let mut stripes: Vec<Vec<Vec<bool>>> = vec![Vec::new(); 64];
        for (i, v) in sim.inputs.iter().enumerate() {
            stripes[i % 64].push(v.clone());
        }
        let ee = early.ee.as_ref().expect("EE is on by default");
        for (pl, label) in [(&early.plain, "plain"), (ee, "ee")] {
            let runs: Vec<Vec<Vec<bool>>> = stripes
                .iter()
                .map(|s| {
                    PlSimulator::new(pl, DelayModel::default())
                        .expect("builds")
                        .run_stream(s)
                        .expect("streams")
                        .outputs
                })
                .collect();
            let reassembled: Vec<Vec<bool>> =
                (0..vectors).map(|i| runs[i % 64][i / 64].clone()).collect();
            assert_eq!(sim.outputs, reassembled, "{spec} {label}");
        }
        assert_eq!(
            pl_serve::outputs_digest(&sim.outputs),
            digest,
            "{spec}: lane digest"
        );
    }
}

/// `Pipeline::verify`'s verdict as one comparable line.
fn verify_verdict(
    pipeline: &pl_flow::Pipeline,
    mapped: &Netlist,
    sim: &pl_flow::Simulated,
) -> String {
    use pl_flow::FlowError;
    match pipeline.verify(mapped, sim) {
        Ok(report) => format!("ok {}", report.vectors),
        Err(FlowError::Mismatch { context }) => format!("mismatch: {context}"),
        Err(FlowError::Netlist(pl_netlist::NetlistError::InputArityMismatch { got, expected })) => {
            format!("arity: got {got}, expected {expected}")
        }
        Err(other) => format!("other: {other}"),
    }
}

/// Flips one output bit of vector `i`.
fn flip_output(sim: &mut pl_flow::Simulated, i: usize) {
    let word = &mut sim.outputs[i];
    let b = i % word.len();
    word[b] = !word[b];
}

/// Plants faults in a clean `Simulated` and pins `Pipeline::verify`'s
/// exact verdict for each: the first diverging vector in vector order,
/// whichever lane and round it sits in, a short input vector's arity
/// error unless an earlier vector already diverged, and both lengths
/// when the input vectors and output words differ in number.
fn assert_verify_verdicts(spec: &str, vectors: usize, lanes: Option<usize>) {
    let FlowRun {
        pipeline,
        mapped,
        sim: clean,
        ..
    } = flow_run(spec, vectors, lanes);
    let ok = format!("ok {vectors}");
    assert_eq!(verify_verdict(&pipeline, &mapped, &clean), ok, "{spec}");
    let name = clean.name.clone();
    let width = mapped.inputs().len();
    let mismatch = |i: usize| format!("mismatch: {name} vector {i} (sync vs PL)");
    let arity = format!("arity: got {}, expected {width}", width - 1);
    let last = vectors - 1;
    let planted = |plant: &dyn Fn(&mut pl_flow::Simulated)| {
        let mut sim = clean.clone();
        plant(&mut sim);
        verify_verdict(&pipeline, &mapped, &sim)
    };
    let mut cases: Vec<(String, String, String)> = Vec::new();
    let mut single = vec![0, 63, 64, 17, 64 + 17, last];
    if vectors > 64 * 15 + 17 {
        single.push(64 * 15 + 17);
    }
    for i in single {
        cases.push((
            format!("flip {i}"),
            planted(&|s| flip_output(s, i)),
            mismatch(i),
        ));
    }
    for (a, b) in [(64, 63), (81, 70), (last, 0)] {
        cases.push((
            format!("flips {a} and {b}"),
            planted(&|s| {
                flip_output(s, a);
                flip_output(s, b);
            }),
            mismatch(a.min(b)),
        ));
    }
    cases.push((
        "short output word 81".into(),
        planted(&|s| {
            s.outputs[81].pop();
        }),
        mismatch(81),
    ));
    cases.push((
        "short input vector 81".into(),
        planted(&|s| {
            s.inputs[81].pop();
        }),
        arity.clone(),
    ));
    cases.push((
        "flip 70, short input vector 81".into(),
        planted(&|s| {
            flip_output(s, 70);
            s.inputs[81].pop();
        }),
        mismatch(70),
    ));
    cases.push((
        "short input vector 81, flip 90".into(),
        planted(&|s| {
            s.inputs[81].pop();
            flip_output(s, 90);
        }),
        arity,
    ));
    let lengths = |inputs: usize, outputs: usize| {
        format!("mismatch: {name} ({inputs} input vectors vs {outputs} output words)")
    };
    cases.push((
        "inputs cut by 10, flip after the cut".into(),
        planted(&|s| {
            s.inputs.truncate(vectors - 10);
            flip_output(s, vectors - 5);
        }),
        lengths(vectors - 10, vectors),
    ));
    cases.push((
        "last output word dropped".into(),
        planted(&|s| {
            s.outputs.pop();
        }),
        lengths(vectors, vectors - 1),
    ));
    for (fault, got, want) in cases {
        assert_eq!(got, want, "{spec} lanes {lanes:?}: {fault}");
    }
}

/// `Pipeline::verify` names the same first divergence under the lane
/// protocol (b06 ends in a ragged round of 36 lanes, b14's 1000 vectors
/// in one of 40) as under the per-vector protocol.
#[test]
fn verify_pins_planted_fault_verdicts() {
    let b06 = concat!(env!("CARGO_MANIFEST_DIR"), "/assets/blif/b06.blif");
    assert_verify_verdicts(b06, 100, Some(64));
    assert_verify_verdicts("b14", 1000, Some(64));
    assert_verify_verdicts(b06, 100, None);
}

/// Golden tripwire: fixed vectors through b01 and b06 (plain + EE) must
/// keep producing exactly these output/latency fingerprints. Guards future
/// engine changes against silent semantic drift even if both engines are
/// touched in lockstep.
#[test]
fn golden_fingerprints_hold() {
    fn fingerprint(pl: &PlNetlist, vecs: &[Vec<bool>]) -> u64 {
        let mut sim = PlSimulator::new(pl, DelayModel::default()).expect("builds");
        let mut h = pl_sim::Fnv64::new();
        for v in vecs {
            let r = sim.run_vector(v).expect("simulates");
            for &b in &r.outputs {
                h.mix(u64::from(b));
            }
            h.mix(pl_sim::ns_to_ticks(r.latency));
        }
        h.finish()
    }
    let mut prints = Vec::new();
    for id in ["b01", "b06"] {
        let (plain, ee) = itc99_netlists(id);
        let vecs = vectors(plain.input_gates().len(), 20, 0x601D);
        prints.push(fingerprint(&plain, &vecs));
        prints.push(fingerprint(&ee, &vecs));
    }
    assert_eq!(
        prints,
        vec![
            0x4768_6560_de16_a7ca,
            0x6553_292b_f2aa_bcea,
            0xb4f7_1eb7_c316_7941,
            0x0511_7133_0a02_e981,
        ],
        "golden fingerprints drifted: {prints:#018x?}"
    );
}
