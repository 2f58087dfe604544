//! Failure injection: deliberately corrupt phased-logic netlists,
//! checkpoint encodings, and in-flight resumable sweeps, and prove that
//! the structural checkers, the simulator's dynamic guards, and the
//! crash-recovery machinery catch every class of fault the paper's
//! correctness argument depends on.

use pl_boolfn::TruthTable;
use pl_core::ee::EeOptions;
use pl_core::marked::{check_liveness, check_safety};
use pl_core::{PlArcKind, PlError, PlNetlist};
use pl_netlist::Netlist;
use pl_sim::{
    DelayModel, FaultPlan, PlSimulator, ReferenceSimulator, ResumableOptions, SimCheckpoint,
    SimError,
};

mod common;
use common::TempDir;

fn small_pipeline() -> Netlist {
    let mut n = Netlist::new("pipe");
    let a = n.add_input("a");
    let b = n.add_input("b");
    let g1 = n.add_and2(a, b).unwrap();
    let g2 = n.add_xor2(g1, a).unwrap();
    n.set_output("y", g2);
    n
}

fn ripple(bits: usize) -> Netlist {
    let mut n = Netlist::new("rca");
    let a: Vec<_> = (0..bits).map(|i| n.add_input(format!("a{i}"))).collect();
    let b: Vec<_> = (0..bits).map(|i| n.add_input(format!("b{i}"))).collect();
    let mut carry = n.add_const(false);
    for i in 0..bits {
        let cry_t = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
        let c = n.add_lut(cry_t, vec![a[i], b[i], carry]).unwrap();
        carry = c;
    }
    n.set_output("cout", carry);
    n
}

/// Finds an ack arc whose destination gate has no other in-arc — removing
/// it provably disconnects that gate from every directed circuit.
fn load_bearing_ack(pl: &PlNetlist) -> usize {
    pl.arcs()
        .iter()
        .position(|a| {
            a.kind() == PlArcKind::Ack && {
                let dst = &pl.gates()[a.dst().index()];
                dst.data_in().is_empty() && dst.control_in().len() == 1
            }
        })
        .expect("an input gate with a single consumer exists")
}

/// Removing a load-bearing acknowledge arc breaks the "every signal on a
/// circuit" liveness condition, and the structural checker says so.
/// (Removing a *redundant* ack is harmless — the checker evaluates the
/// whole graph, not the construction's certificates; see
/// `redundant_ack_removal_is_tolerated`.)
#[test]
fn missing_ack_fails_liveness() {
    let sync = small_pipeline();
    let mut pl = PlNetlist::from_sync(&sync).unwrap();
    check_liveness(&pl).expect("intact netlist is live");
    let victim = load_bearing_ack(&pl);
    pl.inject_remove_arc(pl_core::PlArcId::from_index(victim));
    let err = check_liveness(&pl).expect_err("broken net must fail");
    assert!(matches!(err, PlError::ArcNotOnCircuit(_)), "got {err}");
}

/// The same fault blocks simulation at construction time.
#[test]
fn missing_ack_is_caught_at_runtime() {
    let sync = small_pipeline();
    let mut pl = PlNetlist::from_sync(&sync).unwrap();
    let victim = load_bearing_ack(&pl);
    pl.inject_remove_arc(pl_core::PlArcId::from_index(victim));
    match PlSimulator::new(&pl, DelayModel::default()) {
        Err(SimError::Structural(_)) => {}
        other => panic!("expected structural rejection, got {other:?}"),
    }
}

/// Some acknowledge arcs are made redundant by circuits through *other*
/// acks; removing one keeps the graph live and safe and the circuit still
/// computes correctly — demonstrating the checker reasons about the graph
/// itself rather than how it was built.
#[test]
fn redundant_ack_removal_is_tolerated() {
    let sync = small_pipeline();
    let mut pl = PlNetlist::from_sync(&sync).unwrap();
    // The ack g2→g0 (for input a's arc into the AND gate) is covered by
    // the circuit a→AND→XOR→(ack)→a.
    let victim = pl
        .arcs()
        .iter()
        .position(|a| {
            a.kind() == PlArcKind::Ack && !pl.gates()[a.dst().index()].data_in().is_empty()
                || (a.kind() == PlArcKind::Ack
                    && pl.gates()[a.dst().index()].control_in().len() > 1)
        })
        .expect("a redundant ack exists in this topology");
    pl.inject_remove_arc(pl_core::PlArcId::from_index(victim));
    if check_liveness(&pl).is_ok() && check_safety(&pl).is_ok() {
        let mut sim = PlSimulator::new(&pl, DelayModel::default()).unwrap();
        for k in 0..8u32 {
            let v = vec![k & 1 == 1, k & 2 == 2];
            let out = sim.run_vector(&v).unwrap();
            assert_eq!(out.outputs[0], (v[0] && v[1]) ^ v[0]);
        }
    }
}

/// Removing a *data* arc starves a gate: deadlock, not silence.
#[test]
fn missing_data_arc_deadlocks() {
    let sync = small_pipeline();
    let mut pl = PlNetlist::from_sync(&sync).unwrap();
    let victim = pl
        .arcs()
        .iter()
        .position(|a| a.kind() == PlArcKind::Data)
        .expect("pipeline has data arcs");
    pl.inject_remove_arc(pl_core::PlArcId::from_index(victim));
    // The floating pin is rejected at construction (check_pins), or if a
    // different topology slipped through, the run must deadlock — never
    // produce a wrong answer.
    match PlSimulator::new(&pl, DelayModel::default()) {
        Err(SimError::Structural(e)) => {
            assert!(
                matches!(
                    e,
                    PlError::MissingPinDriver { .. } | PlError::ArcNotOnCircuit(_)
                ),
                "got {e}"
            );
        }
        Ok(mut sim) => match sim.run_vector(&[true, true]) {
            Err(SimError::Deadlock { .. }) => {}
            other => panic!("expected deadlock, got {other:?}"),
        },
        Err(other) => panic!("unexpected construction failure: {other}"),
    }
}

/// An intentionally unsound trigger (fires when the output is NOT forced)
/// trips the simulator's forced-value assertion rather than producing a
/// wrong answer.
#[test]
fn unsound_trigger_is_detected() {
    let sync = ripple(4);
    let report = PlNetlist::from_sync(&sync)
        .unwrap()
        .with_early_evaluation(&EeOptions::default());
    assert!(!report.pairs().is_empty(), "carry chain pairs up");
    // Use the deepest pair: its slow carry arrives well after the trigger,
    // so the early path actually executes (the first pair's carry beats
    // its trigger and would mask the fault behind the normal path).
    let deepest = report.pairs().last().expect("non-empty");
    let master = deepest.master;
    let arity = deepest.candidate.table.num_vars();
    let mut pl = report.into_netlist();
    // Constant-1 trigger: always claims the output is forced.
    pl.inject_trigger_table(master, TruthTable::ones(arity));
    let mut sim = PlSimulator::new(&pl, DelayModel::default()).unwrap();
    let n_inputs = pl.input_gates().len();
    let mut saw_unsound = false;
    for k in 0..32u32 {
        let v: Vec<bool> = (0..n_inputs).map(|i| (k >> (i % 8)) & 1 == 1).collect();
        match sim.run_vector(&v) {
            Ok(_) => {}
            Err(SimError::UnsoundTrigger { master: m }) => {
                assert_eq!(m, master);
                saw_unsound = true;
                break;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(
        saw_unsound,
        "the always-fire trigger must eventually be caught"
    );
}

/// An early-evaluation master produces its output before it consumes its
/// inputs, which the plain marked-graph model behind `check_safety` does
/// not capture. In b03's EE netlist, removing the ack arc a237 (g35 → g5)
/// leaves a graph that passes `check_liveness` and `check_safety`, yet a
/// run double-marks arc a86: the simulators' dynamic safety check is what
/// catches it, at vector 4 of the default seed's 400 on both per-vector
/// engines and in the streamed run.
#[test]
fn ee_double_marking_escapes_the_static_safety_check() {
    let (_, mut ee) = pl_bench::prepared_netlists("b03");
    let arc = &ee.arcs()[237];
    assert_eq!(
        (arc.kind(), arc.src().index(), arc.dst().index()),
        (PlArcKind::Ack, 35, 5),
        "b03's EE arc numbering moved"
    );
    ee.inject_remove_arc(pl_core::PlArcId::from_index(237));
    check_liveness(&ee).expect("still live");
    check_safety(&ee).expect("statically safe");
    let seed = pl_flow::FlowOptions::default().seed;
    let vecs = pl_sim::random_vectors(ee.input_gates().len(), 400, seed);
    let is_violation = |e: &SimError| {
        matches!(
            e,
            SimError::SafetyViolation { arc, producer }
                if arc.index() == 86 && producer.index() == 5
        )
    };
    let delays = DelayModel::default();
    let mut scalar = PlSimulator::new(&ee, delays.clone()).unwrap();
    let mut reference = ReferenceSimulator::new(&ee, delays.clone()).unwrap();
    for (name, first_error) in [
        (
            "PlSimulator::run_vector",
            vecs.iter()
                .enumerate()
                .find_map(|(i, v)| scalar.run_vector(v).err().map(|e| (i, e))),
        ),
        (
            "ReferenceSimulator::run_vector",
            vecs.iter()
                .enumerate()
                .find_map(|(i, v)| reference.run_vector(v).err().map(|e| (i, e))),
        ),
    ] {
        let (i, e) = first_error.unwrap_or_else(|| panic!("{name}: all 400 vectors ran"));
        assert_eq!(i, 4, "{name}: failed at vector {i} with {e}");
        assert!(is_violation(&e), "{name}: {e}");
    }
    let streamed = PlSimulator::new(&ee, delays)
        .unwrap()
        .run_stream(&vecs)
        .expect_err("the stream double-marks a86 too");
    assert!(is_violation(&streamed), "run_stream: {streamed}");
}

/// A mid-stream checkpoint of the ripple carry chain with a busy event
/// queue (vectors injected but not yet collected).
fn mid_stream_checkpoint(pl: &PlNetlist) -> SimCheckpoint {
    let mut sim = PlSimulator::new(pl, DelayModel::default()).unwrap();
    let n_inputs = pl.input_gates().len();
    for k in 0..3u32 {
        let v: Vec<bool> = (0..n_inputs).map(|i| (k >> (i % 8)) & 1 == 1).collect();
        sim.feed_vector(&v).unwrap();
    }
    sim.snapshot()
}

/// Every corruption class of the checkpoint wire format maps to its own
/// typed error — truncation, foreign magic, version skew, bit rot
/// (checksum), and replay onto the wrong netlist (digest mismatch) —
/// and none of them panics.
#[test]
fn corrupt_checkpoint_bytes_are_rejected_typed() {
    let pl = PlNetlist::from_sync(&ripple(4)).unwrap();
    let delays = DelayModel::default();
    let bytes = mid_stream_checkpoint(&pl).to_bytes(&delays);
    SimCheckpoint::<bool>::from_bytes(&bytes, &pl, &delays).expect("pristine bytes decode");

    // A cut inside the fixed magic+version header is reported as
    // truncation; a longer cut still carries a (stale) trailer and is
    // caught by the whole-file CRC instead — rejected either way.
    assert!(matches!(
        SimCheckpoint::<bool>::from_bytes(&bytes[..7], &pl, &delays),
        Err(SimError::CheckpointTruncated { .. })
    ));
    assert!(matches!(
        SimCheckpoint::<bool>::from_bytes(&bytes[..bytes.len() / 2], &pl, &delays),
        Err(SimError::CheckpointTruncated { .. } | SimError::CheckpointChecksum { .. })
    ));

    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        SimCheckpoint::<bool>::from_bytes(&bad_magic, &pl, &delays),
        Err(SimError::CheckpointBadMagic { .. })
    ));

    // The version field sits right after the 8-byte magic; a skew there
    // is reported as such (before any CRC, so no repair needed).
    let mut skewed = bytes.clone();
    skewed[8] = 0xEE;
    assert!(matches!(
        SimCheckpoint::<bool>::from_bytes(&skewed, &pl, &delays),
        Err(SimError::CheckpointVersionSkew { .. })
    ));

    let mut flipped = bytes.clone();
    let mid = bytes.len() / 2;
    flipped[mid] ^= 0x10;
    assert!(matches!(
        SimCheckpoint::<bool>::from_bytes(&flipped, &pl, &delays),
        Err(SimError::CheckpointChecksum { .. })
    ));

    // Pristine bytes, wrong design: the embedded netlist fingerprint
    // refuses the replay.
    let other = PlNetlist::from_sync(&small_pipeline()).unwrap();
    assert!(matches!(
        SimCheckpoint::<bool>::from_bytes(&bytes, &other, &delays),
        Err(SimError::CheckpointDigestMismatch { .. })
    ));
}

/// A resumable sweep killed at a window boundary (simulated by an
/// injected I/O fault on the journal) resumes to a stream bit-identical
/// to the uninterrupted sequential run.
#[test]
fn mid_sweep_kill_then_resume_matches_sequential() {
    let sync = ripple(4);
    let pl = PlNetlist::from_sync(&sync).unwrap();
    let delays = DelayModel::default();
    let n_inputs = pl.input_gates().len();
    let vectors: Vec<Vec<bool>> = (0..20u32)
        .map(|k| (0..n_inputs).map(|i| (k >> (i % 8)) & 1 == 1).collect())
        .collect();
    let baseline = PlSimulator::new(&pl, delays.clone())
        .unwrap()
        .run_stream(&vectors)
        .unwrap();

    let dir = TempDir::new("kill_resume");
    let opts = ResumableOptions {
        window: 4,
        ..ResumableOptions::default()
    };
    // First run dies after 2 windows durably complete.
    let faults = FaultPlan::new();
    faults.halt_after_journal_appends(2);
    let err =
        pl_sim::sweep_resumable_with_faults(&pl, &delays, &vectors, dir.path(), &opts, &faults)
            .expect_err("the injected halt must surface");
    assert!(matches!(err, SimError::CheckpointIo { .. }), "got {err}");

    // Second run picks up the journal and finishes the stream.
    let resumed = pl_sim::sweep_resumable(
        &pl,
        &delays,
        &vectors,
        dir.path(),
        &ResumableOptions {
            resume: true,
            ..opts
        },
    )
    .unwrap();
    assert!(resumed.recovery.replayed_from_journal >= 2);
    assert_eq!(resumed.outcome.outputs, baseline.outputs);
    assert_eq!(resumed.outcome.makespan, baseline.makespan);
}

/// Sanity: the uncorrupted versions of the same nets pass everything,
/// proving the tests above fail for the injected reason only.
#[test]
fn control_group_passes() {
    for sync in [small_pipeline(), ripple(4)] {
        let pl = PlNetlist::from_sync(&sync).unwrap();
        check_liveness(&pl).unwrap();
        check_safety(&pl).unwrap();
        let mut sim = PlSimulator::new(&pl, DelayModel::default()).unwrap();
        let n_inputs = pl.input_gates().len();
        for k in 0..8u32 {
            let v: Vec<bool> = (0..n_inputs).map(|i| (k >> (i % 8)) & 1 == 1).collect();
            sim.run_vector(&v).unwrap();
        }
    }
}
