//! Integration coverage for `pl_sim::trace` (VCD waveform export) and
//! `pl_sim::sync` (the cycle-accurate synchronous reference): a byte-exact
//! VCD golden check and synchronous cross-checks on a tiny free-running
//! counter — so engine refactors cannot silently change what these
//! observability layers emit.

use pl_core::PlNetlist;
use pl_netlist::Netlist;
use pl_sim::{verify_equivalence, BatchSimulator, DelayModel, PlSimulator, SyncSimulator};

fn xor_netlist() -> (Netlist, PlNetlist) {
    let mut n = Netlist::new("golden");
    let a = n.add_input("a");
    let b = n.add_input("b");
    let g = n.add_xor2(a, b).unwrap();
    n.set_output("y", g);
    let pl = PlNetlist::from_sync(&n).unwrap();
    (n, pl)
}

/// A 2-bit free-running counter (no primary inputs; DFF state advances
/// every vector) — tiny, stateful, and timing-sensitive.
fn counter_netlist() -> (Netlist, PlNetlist) {
    let mut n = Netlist::new("cnt2");
    let q0 = n.add_dff(false);
    let q1 = n.add_dff(false);
    let n0 = n.add_not(q0).unwrap();
    let t1 = n.add_xor2(q1, q0).unwrap();
    n.set_dff_input(q0, n0).unwrap();
    n.set_dff_input(q1, t1).unwrap();
    n.set_output("q0", q0);
    n.set_output("q1", q1);
    let pl = PlNetlist::from_sync(&n).unwrap();
    (n, pl)
}

fn traced_vcd(pl: &PlNetlist) -> String {
    let mut sim = PlSimulator::new(pl, DelayModel::default()).unwrap();
    sim.enable_tracing();
    sim.run_vector(&[true, false]).unwrap();
    sim.run_vector(&[true, true]).unwrap();
    pl_sim::trace::to_vcd(pl, sim.trace(), "golden")
}

/// Byte-exact golden: the VCD emitted for a fixed XOR run is pinned in
/// full — header, variable declarations (arc naming and id codes), and
/// the timestamped change stream with its picosecond quantization.
#[test]
fn vcd_emission_matches_golden() {
    let (_, pl) = xor_netlist();
    let expected = "\
$date reproduction run $end
$version phased-logic-ee pl-sim $end
$timescale 1ps $end
$scope module golden $end
$var wire 1 ! data_g0_to_g2_p0 $end
$var wire 1 \" data_g1_to_g2_p1 $end
$var wire 1 # data_g2_to_g3_p0 $end
$upscope $end
$enddefinitions $end
$dumpvars
#300
1!
0\"
#3000
1#
#3900
1!
1\"
#6600
0#
";
    assert_eq!(
        traced_vcd(&pl),
        expected,
        "VCD emission drifted from the golden document"
    );
}

/// The synchronous reference on the tiny counter: cycle-by-cycle outputs
/// follow the 0,1,2,3 wraparound and the cycle counter tracks steps.
#[test]
fn sync_simulator_counts_cycles_on_counter() {
    let (sync, _) = counter_netlist();
    let mut sim = SyncSimulator::new(&sync).unwrap();
    assert_eq!(sim.cycles(), 0);
    let mut seq = Vec::new();
    for step in 1..=8u64 {
        let out = sim.step(&[]).unwrap();
        assert_eq!(out.len(), 2);
        seq.push((u8::from(out[1]) << 1) | u8::from(out[0]));
        assert_eq!(sim.cycles(), step);
    }
    assert_eq!(seq, vec![0, 1, 2, 3, 0, 1, 2, 3]);
}

/// Cross-check: the phased-logic token game reproduces the synchronous
/// counter's output stream exactly, on both engine widths (the scalar
/// engine and the 64-lane batch engine, every lane alike), both through
/// `verify_equivalence` and by direct lockstep comparison.
#[test]
fn sync_cross_check_on_counter_for_both_backends() {
    let (sync, pl) = counter_netlist();
    let vectors: Vec<Vec<bool>> = (0..10).map(|_| Vec::new()).collect();
    verify_equivalence(&sync, &pl, &DelayModel::default(), &vectors)
        .expect("simulates")
        .expect("PL diverged from the synchronous counter");

    let mut ssim = SyncSimulator::new(&sync).unwrap();
    let mut scalar = PlSimulator::new(&pl, DelayModel::default()).unwrap();
    let mut batch = BatchSimulator::new(&pl, DelayModel::default()).unwrap();
    for cycle in 0..10 {
        let so = ssim.step(&[]).unwrap();
        let po = scalar.run_vector(&[]).unwrap().outputs;
        assert_eq!(so, po, "scalar: counter diverged at cycle {cycle}");
        let words = batch.run_vector(&[]).unwrap().outputs;
        let splat: Vec<u64> = so.iter().map(|&b| if b { u64::MAX } else { 0 }).collect();
        assert_eq!(words, splat, "batch: counter diverged at cycle {cycle}");
    }
}

/// `verify_equivalence` actually catches divergence: a deliberately wrong
/// reference (inverted output) must produce a `Mismatch` naming the first
/// bad vector, not silently pass.
#[test]
fn verify_equivalence_reports_mismatch() {
    let (_, pl) = xor_netlist();
    // A sync netlist computing XNOR instead of XOR.
    let mut wrong = Netlist::new("golden");
    let a = wrong.add_input("a");
    let b = wrong.add_input("b");
    let x = wrong.add_xor2(a, b).unwrap();
    let y = wrong.add_not(x).unwrap();
    wrong.set_output("y", y);

    let vectors = vec![vec![false, false], vec![true, false]];
    let mismatch = verify_equivalence(&wrong, &pl, &DelayModel::default(), &vectors)
        .expect("simulates")
        .expect_err("an inverted reference must be caught");
    assert_eq!(mismatch.vector, 0, "first diverging vector is reported");
    assert_ne!(mismatch.sync_outputs, mismatch.pl_outputs);
    let shown = mismatch.to_string();
    assert!(
        shown.contains("vector 0"),
        "display names the vector: {shown}"
    );
}
