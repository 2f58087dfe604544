//! Property-based tests over the whole flow: random circuits must survive
//! mapping, phased-logic conversion and early evaluation with behaviour
//! intact and the marked graph live and safe.

use pl_boolfn::TruthTable;
use pl_core::ee::EeOptions;
use pl_core::marked::{check_liveness, check_safety};
use pl_core::PlNetlist;
use pl_netlist::{Netlist, NodeId};
use pl_sim::{verify_equivalence, DelayModel};
use pl_techmap::{map_to_lut4, MapOptions};
use proptest::prelude::*;

/// Recipe for one random synchronous circuit.
#[derive(Debug, Clone)]
struct CircuitRecipe {
    num_inputs: usize,
    num_dffs: usize,
    luts: Vec<(u64, Vec<usize>)>, // (truth bits, fanin references)
    num_outputs: usize,
}

fn arb_recipe() -> impl Strategy<Value = CircuitRecipe> {
    (2usize..5, 1usize..4, 3usize..24, 1usize..5).prop_flat_map(
        |(num_inputs, num_dffs, num_luts, num_outputs)| {
            let lut = (
                any::<u64>(),
                proptest::collection::vec(any::<usize>(), 1..4),
            );
            proptest::collection::vec(lut, num_luts).prop_map(move |luts| CircuitRecipe {
                num_inputs,
                num_dffs,
                luts,
                num_outputs,
            })
        },
    )
}

/// Deterministically materializes a recipe into a valid netlist: each LUT's
/// fanins reference earlier nodes (modulo), each DFF is driven by some
/// node, outputs tap the last nodes.
fn build(recipe: &CircuitRecipe) -> Netlist {
    let mut n = Netlist::new("random");
    let mut pool: Vec<NodeId> = Vec::new();
    for i in 0..recipe.num_inputs {
        pool.push(n.add_input(format!("i{i}")));
    }
    let dffs: Vec<NodeId> = (0..recipe.num_dffs)
        .map(|k| n.add_dff(k % 2 == 0))
        .collect();
    pool.extend(&dffs);
    for (bits, fanins) in &recipe.luts {
        let srcs: Vec<NodeId> = fanins.iter().map(|&r| pool[r % pool.len()]).collect();
        let table = TruthTable::from_bits(srcs.len(), *bits);
        let id = n
            .add_lut(table, srcs)
            .expect("arity matches by construction");
        pool.push(id);
    }
    for (k, &d) in dffs.iter().enumerate() {
        let src = pool[(k * 7 + 3) % pool.len()];
        n.set_dff_input(d, src).expect("valid ids");
    }
    for k in 0..recipe.num_outputs {
        let src = pool[pool.len() - 1 - (k % pool.len().min(4))];
        n.set_output(format!("o{k}"), src);
    }
    n
}

fn vectors(n_inputs: usize, count: usize, seed: u64) -> Vec<Vec<bool>> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| (0..n_inputs).map(|_| rng.gen()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random circuits: LUT4 mapping preserves behaviour.
    #[test]
    fn mapping_preserves_behaviour(recipe in arb_recipe()) {
        let sync = build(&recipe);
        prop_assume!(sync.validate().is_ok());
        let mapped = map_to_lut4(&sync, &MapOptions::default()).expect("maps");
        let vecs = vectors(sync.inputs().len(), 24, 99);
        let mut a = pl_netlist::eval::Evaluator::new(&sync).expect("validates");
        let mut b = pl_netlist::eval::Evaluator::new(&mapped).expect("validates");
        for v in &vecs {
            prop_assert_eq!(a.step(v).expect("steps"), b.step(v).expect("steps"));
        }
    }

    /// Random circuits: the PL marked graph is live and safe, and the token
    /// game reproduces the synchronous output stream.
    #[test]
    fn pl_mapping_is_live_safe_equivalent(recipe in arb_recipe()) {
        let sync = build(&recipe);
        prop_assume!(sync.validate().is_ok());
        let mapped = map_to_lut4(&sync, &MapOptions::default()).expect("maps");
        let pl = PlNetlist::from_sync(&mapped).expect("PL maps");
        check_liveness(&pl).expect("live");
        check_safety(&pl).expect("safe");
        let vecs = vectors(mapped.inputs().len(), 16, 7);
        let ok = verify_equivalence(&mapped, &pl, &DelayModel::default(), &vecs)
            .expect("simulates");
        prop_assert!(ok.is_ok(), "diverged: {:?}", ok.err());
    }

    /// Random circuits + EE: still live, safe and equivalent — the core
    /// soundness claim of the transformation.
    #[test]
    fn ee_preserves_everything(recipe in arb_recipe()) {
        let sync = build(&recipe);
        prop_assume!(sync.validate().is_ok());
        let mapped = map_to_lut4(&sync, &MapOptions::default()).expect("maps");
        let report = PlNetlist::from_sync(&mapped)
            .expect("PL maps")
            .with_early_evaluation(&EeOptions::default());
        check_liveness(report.netlist()).expect("live after EE");
        check_safety(report.netlist()).expect("safe after EE");
        let vecs = vectors(mapped.inputs().len(), 16, 13);
        let ok = verify_equivalence(&mapped, report.netlist(), &DelayModel::default(), &vecs)
            .expect("simulates");
        prop_assert!(ok.is_ok(), "EE diverged: {:?}", ok.err());
    }

    /// Random LUT4 masters: every selected trigger is sound (trigger=1
    /// forces the master's output).
    #[test]
    fn triggers_are_sound(bits in any::<u64>(), arr in proptest::collection::vec(0u32..6, 4)) {
        let master = TruthTable::from_bits(4, bits);
        for cand in pl_core::trigger::search_triggers(&master, &arr) {
            let k = cand.support.count_ones();
            for asg in 0..(1u32 << k) {
                if cand.table.eval(asg) {
                    prop_assert!(master.forced_value(cand.support, asg).is_some());
                }
            }
            // Coverage accounting matches the trigger's forced count.
            let forced: u32 = (0..(1u32 << k))
                .filter(|&a| cand.table.eval(a))
                .count() as u32;
            let sup = master.support_size();
            let expect =
                f64::from(forced << (sup - k)) / f64::from(1u32 << sup);
            prop_assert!((cand.coverage - expect).abs() < 1e-12);
        }
    }

    /// The event queue pops in exactly ascending `(tick, seq)` order —
    /// the order of an ordered-set model — under randomized interleaved
    /// push/pop sequences, across adversarial tick spreads (dense
    /// same-tick collisions up to the full u64 tick domain): the
    /// in-isolation determinism contract the engine's queue rests on.
    #[test]
    fn event_queue_pops_in_key_order(
        ops in proptest::collection::vec((any::<u64>(), 0u32..8), 1..250),
        spread_sel in 0u32..4,
    ) {
        use pl_sim::EventQueue;
        use std::collections::BTreeMap;
        // Small spreads force dense same-tick bursts (FIFO-within-tick is
        // the contract under test).
        let spread = [8u64, 1 << 12, 1 << 30, u64::MAX][spread_sel as usize];
        let mut queue = EventQueue::<usize>::new();
        let mut model = BTreeMap::new();
        for (i, &(raw, action)) in ops.iter().enumerate() {
            let tick = if spread == u64::MAX { raw } else { raw % spread };
            // seq = i keeps keys unique and monotone, as the engine does.
            let key = pl_sim::queue::pack_key(tick, i as u64);
            queue.push(key, i);
            model.insert(key, i);
            if action < 3 {
                // Interleaved pop on ~3/8 of the pushes.
                prop_assert_eq!(queue.pop(), model.pop_first());
            }
            prop_assert_eq!(queue.len(), model.len());
        }
        // Drain: the full remaining pop order must match.
        loop {
            let got = queue.pop();
            let done = got.is_none();
            prop_assert_eq!(got, model.pop_first());
            if done {
                break;
            }
        }
    }

    /// EE with random delay scalings never changes functional results
    /// (delay insensitivity of the transformed netlist).
    #[test]
    fn delay_insensitivity(scale in 1u32..6) {
        let bench = pl_itc99::by_id("b02").expect("exists");
        let gates = (bench.build)().elaborate().expect("elaborates");
        let mapped = map_to_lut4(&gates, &MapOptions::default()).expect("maps");
        let report = PlNetlist::from_sync(&mapped)
            .expect("PL maps")
            .with_early_evaluation(&EeOptions::default());
        let delays = DelayModel::default().scaled(f64::from(scale) * 0.37);
        let vecs = vectors(mapped.inputs().len(), 20, u64::from(scale));
        let ok = verify_equivalence(&mapped, report.netlist(), &delays, &vecs)
            .expect("simulates");
        prop_assert!(ok.is_ok());
    }
}
