//! Property-based tests of the checkpoint wire format
//! (`pl_sim::checkpoint::wire`): encode→decode identity on mid-stream
//! snapshots of random circuits, and typed rejection — never a panic —
//! under random corruption (byte flips, truncation, garbage, wrong
//! delay model).

use pl_boolfn::TruthTable;
use pl_core::PlNetlist;
use pl_netlist::{Netlist, NodeId};
use pl_sim::checkpoint::wire::crc32;
use pl_sim::{DelayModel, PlSimulator, SimCheckpoint, SimError};
use pl_techmap::{map_to_lut4, MapOptions};
use proptest::prelude::*;

/// Byte offsets of each section's length field (the u64 right after the
/// tag byte) in a pristine encoding, in wire order: HEADER, STATE,
/// QUEUE, ARCS, GATES, RECORDS.
fn section_len_offsets(bytes: &[u8]) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut pos = 12; // magic (8) + version (4)
    let end = bytes.len() - 4; // whole-file trailer CRC
    while pos < end {
        offsets.push(pos + 1);
        let len = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().expect("8 bytes")) as usize;
        pos += 1 + 8 + len + 4; // tag + length + payload + section CRC
    }
    offsets
}

/// Recomputes the whole-file trailer CRC after a deliberate mutation,
/// so corrupted-length frames reach the section walk instead of being
/// caught by the file checksum.
fn refix_trailer(bytes: &mut [u8]) {
    let body = bytes.len() - 4;
    let crc = crc32(&bytes[..body]);
    bytes[body..].copy_from_slice(&crc.to_le_bytes());
}

/// Recipe for one random synchronous circuit (same scheme as
/// `prop_flow`, scaled down: the wire format is shape-generic, the
/// interesting variation is queue/record content, not netlist size).
#[derive(Debug, Clone)]
struct CircuitRecipe {
    num_inputs: usize,
    num_dffs: usize,
    luts: Vec<(u64, Vec<usize>)>,
    num_outputs: usize,
}

fn arb_recipe() -> impl Strategy<Value = CircuitRecipe> {
    (2usize..4, 1usize..3, 3usize..14, 1usize..4).prop_flat_map(
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

/// Materializes a recipe into a PL netlist and snapshots a simulator
/// mid-stream: `n_feed` vectors injected without collecting rounds, so
/// the checkpoint holds a non-trivial event queue, in-flight tokens and
/// partially-filled output records — the hardest state to round-trip.
fn mid_stream(
    recipe: &CircuitRecipe,
    n_feed: usize,
    seed: u64,
) -> Option<(PlNetlist, SimCheckpoint)> {
    let sync = build(recipe);
    sync.validate().ok()?;
    let mapped = map_to_lut4(&sync, &MapOptions::default()).ok()?;
    let pl = PlNetlist::from_sync(&mapped).ok()?;
    let mut sim = PlSimulator::new(&pl, DelayModel::default()).ok()?;
    let n_inputs = pl.input_gates().len();
    for k in 0..n_feed {
        let v: Vec<bool> = (0..n_inputs)
            .map(|i| (seed >> ((k * 7 + i) % 64)) & 1 == 1)
            .collect();
        sim.feed_vector(&v).ok()?;
    }
    let ck = sim.snapshot();
    Some((pl, ck))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Encode→decode is the identity on mid-stream snapshots of random
    /// circuits (full dynamic state: queue, tokens, records, counters).
    #[test]
    fn roundtrip_is_identity(recipe in arb_recipe(), n_feed in 1usize..6, seed in any::<u64>()) {
        let built = mid_stream(&recipe, n_feed, seed);
        prop_assume!(built.is_some());
        let (pl, ck) = built.unwrap();
        let delays = DelayModel::default();
        let bytes = ck.to_bytes(&delays);
        let back = SimCheckpoint::from_bytes(&bytes, &pl, &delays)
            .expect("a pristine encoding must decode");
        prop_assert_eq!(back, ck);
    }

    /// Every single-byte flip anywhere in the encoding is rejected with
    /// a typed error — the whole-file CRC guarantees no flip can slip
    /// into a decoded checkpoint, and decoding never panics.
    #[test]
    fn any_byte_flip_is_rejected(
        recipe in arb_recipe(),
        seed in any::<u64>(),
        pos_sel in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let built = mid_stream(&recipe, 2, seed);
        prop_assume!(built.is_some());
        let (pl, ck) = built.unwrap();
        let delays = DelayModel::default();
        let mut bytes = ck.to_bytes(&delays);
        let pos = pos_sel % bytes.len();
        bytes[pos] ^= mask;
        prop_assert!(
            SimCheckpoint::<bool>::from_bytes(&bytes, &pl, &delays).is_err(),
            "flip at byte {pos} (mask {mask:#04x}) decoded successfully"
        );
    }

    /// Every proper-prefix truncation is rejected (typed, no panic) —
    /// including cuts inside length fields and section frames.
    #[test]
    fn any_truncation_is_rejected(recipe in arb_recipe(), seed in any::<u64>(), len_sel in any::<usize>()) {
        let built = mid_stream(&recipe, 2, seed);
        prop_assume!(built.is_some());
        let (pl, ck) = built.unwrap();
        let delays = DelayModel::default();
        let bytes = ck.to_bytes(&delays);
        let len = len_sel % bytes.len(); // strictly shorter than the full encoding
        prop_assert!(
            SimCheckpoint::<bool>::from_bytes(&bytes[..len], &pl, &delays).is_err(),
            "truncation to {len} of {} bytes decoded successfully",
            bytes.len()
        );
    }

    /// Arbitrary garbage never decodes and never panics.
    #[test]
    fn garbage_never_decodes(recipe in arb_recipe(), bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let built = mid_stream(&recipe, 1, 1);
        prop_assume!(built.is_some());
        let (pl, _) = built.unwrap();
        let delays = DelayModel::default();
        prop_assert!(SimCheckpoint::<bool>::from_bytes(&bytes, &pl, &delays).is_err());
    }

    /// A pristine encoding refuses to decode under a different delay
    /// model (the embedded digest binds the checkpoint to the quantized
    /// tick schedule it was taken under).
    #[test]
    fn delay_model_skew_is_rejected(recipe in arb_recipe(), seed in any::<u64>(), scale in 2u32..6) {
        let built = mid_stream(&recipe, 2, seed);
        prop_assume!(built.is_some());
        let (pl, ck) = built.unwrap();
        let delays = DelayModel::default();
        let bytes = ck.to_bytes(&delays);
        let skewed = delays.scaled(f64::from(scale));
        prop_assert!(SimCheckpoint::<bool>::from_bytes(&bytes, &pl, &skewed).is_err());
    }

    /// An absurd section length — larger than the file, larger than any
    /// 32-bit usize, or `u64::MAX` — survives the whole-file CRC (the
    /// trailer is re-fixed after the mutation) and must be rejected as a
    /// typed truncation by the bound-before-narrow check in
    /// `read_section`, with no attempt to allocate or slice by the raw
    /// value. A bare `as usize` narrowing would instead wrap lengths
    /// like `1 << 32` to ~0 on 32-bit targets and mis-slice the walk.
    #[test]
    fn oversized_section_length_is_rejected(
        recipe in arb_recipe(),
        seed in any::<u64>(),
        section_sel in any::<usize>(),
        shape in 0usize..3,
    ) {
        let built = mid_stream(&recipe, 2, seed);
        prop_assume!(built.is_some());
        let (pl, ck) = built.unwrap();
        let delays = DelayModel::default();
        let mut bytes = ck.to_bytes(&delays);
        let offsets = section_len_offsets(&bytes);
        let at = offsets[section_sel % offsets.len()];
        let original =
            u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        let huge = match shape {
            0 => u64::MAX,
            1 => (1u64 << 32) + original, // wraps back to `original` under 32-bit `as usize`
            _ => bytes.len() as u64,      // fits usize but overruns the buffer
        };
        bytes[at..at + 8].copy_from_slice(&huge.to_le_bytes());
        refix_trailer(&mut bytes);
        match SimCheckpoint::<bool>::from_bytes(&bytes, &pl, &delays) {
            Err(SimError::CheckpointTruncated { .. }) => {}
            other => prop_assert!(
                false,
                "length {huge:#x} at offset {at}: expected CheckpointTruncated, got {other:?}"
            ),
        }
    }

    /// An absurd element count inside a section payload (here the queue
    /// event count, the first u64 of SEC_QUEUE) is rejected as typed
    /// out-of-range before any allocation sized by it — both the section
    /// CRC and the trailer are re-fixed so only the count check can
    /// catch it.
    #[test]
    fn oversized_queue_count_is_rejected(
        recipe in arb_recipe(),
        seed in any::<u64>(),
        excess in 1u64..=u64::MAX / 2,
    ) {
        let built = mid_stream(&recipe, 2, seed);
        prop_assume!(built.is_some());
        let (pl, ck) = built.unwrap();
        let delays = DelayModel::default();
        let mut bytes = ck.to_bytes(&delays);
        let offsets = section_len_offsets(&bytes);
        let len_at = offsets[2]; // QUEUE is the third section
        let len = u64::from_le_bytes(bytes[len_at..len_at + 8].try_into().expect("8 bytes"))
            as usize;
        let payload = len_at + 8..len_at + 8 + len;
        // Saturate the count far past what the payload could hold: the
        // in-bounds limit is at most `len / 21` events, so any value of
        // at least `len` is guaranteed out of range.
        let count_at = payload.start;
        bytes[count_at..count_at + 8]
            .copy_from_slice(&(len as u64).saturating_add(excess).to_le_bytes());
        let crc = crc32(&bytes[payload.clone()]);
        bytes[payload.end..payload.end + 4].copy_from_slice(&crc.to_le_bytes());
        refix_trailer(&mut bytes);
        match SimCheckpoint::<bool>::from_bytes(&bytes, &pl, &delays) {
            Err(SimError::CheckpointOutOfRange { .. }) => {}
            other => prop_assert!(
                false,
                "queue count +{excess}: expected CheckpointOutOfRange, got {other:?}"
            ),
        }
    }
}
