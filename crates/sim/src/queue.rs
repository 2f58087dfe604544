//! The pending-event queue of the discrete-event engine.
//!
//! The engine schedules every token through one priority queue keyed on
//! packed `(tick, seq)` `u128` keys (tick in the high 64 bits, a unique
//! monotone sequence number in the low 64 — a strict total order).
//! [`EventQueue`] is a `Vec`-backed binary min-heap over those keys:
//! O(log n) push/pop, and free of steady-state allocation, since it keeps
//! its capacity across rounds. It pops in exactly ascending key order,
//! and [`EventQueue::sorted_events`] gives checkpoints a canonical event
//! list that does not depend on the heap's internal layout.
//!
//! The queue is generic over its payload so the engine can store bare
//! event descriptors (no ordering bound on `T` — order lives in the key
//! alone) and so tests can drive the queue in isolation.

use std::collections::BinaryHeap;

/// Packs an integer tick and a unique sequence number into one ordering
/// key: `(tick << 64) | seq`, so keys compare as `(tick, seq)` tuples.
/// The one definition of the key layout — the engine and the queue go
/// through this pair of helpers.
#[must_use]
pub fn pack_key(tick: u64, seq: u64) -> u128 {
    (u128::from(tick) << 64) | u128::from(seq)
}

/// The tick half of a packed key (see [`pack_key`]).
#[must_use]
pub fn tick_of(key: u128) -> u64 {
    (key >> 64) as u64
}

/// The event-queue implementation a simulator schedules through. There
/// is one, the binary heap of [`EventQueue`], so this choice is ignored
/// everywhere it is taken. Kept only so existing callers still compile;
/// it is slated for deletion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueueKind {
    /// Binary min-heap over packed keys (O(log n) push/pop).
    #[default]
    Heap,
}

/// One heap entry: ordering is by the packed key alone (reversed, so the
/// max-heap pops the smallest `(tick, seq)` first); the payload carries no
/// ordering bound.
#[derive(Debug, Clone)]
struct HeapEntry<T> {
    key: u128,
    item: T,
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key.cmp(&self.key)
    }
}

/// The pending-event queue: a min-queue over packed `(tick, seq)` keys
/// with a payload per event.
///
/// Keys must be unique (the engine's monotone `seq` guarantees this);
/// [`EventQueue::pop`] returns events in strictly ascending key order.
#[derive(Debug, Clone)]
pub struct EventQueue<T>(BinaryHeap<HeapEntry<T>>);

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self(BinaryHeap::new())
    }

    /// Inserts an event under a packed `(tick, seq)` key.
    pub fn push(&mut self, key: u128, item: T) {
        self.0.push(HeapEntry { key, item });
    }

    /// Removes and returns the event with the smallest key.
    pub fn pop(&mut self) -> Option<(u128, T)> {
        self.0.pop().map(|e| (e.key, e.item))
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Drops every pending event, keeping the allocation. Used by
    /// checkpoint restore before re-inserting the captured events.
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

impl<T: Clone> EventQueue<T> {
    /// Every pending event in canonical ascending-key order, without
    /// disturbing the queue — the serialization a checkpoint stores (the
    /// heap's internal layout is not canonical; this is).
    #[must_use]
    pub fn sorted_events(&self) -> Vec<(u128, T)> {
        let mut events: Vec<(u128, T)> = self.0.iter().map(|e| (e.key, e.item.clone())).collect();
        events.sort_unstable_by_key(|(k, _)| *k);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn key(tick: u64, seq: u64) -> u128 {
        pack_key(tick, seq)
    }

    /// Tiny deterministic LCG for the model-checked drivers.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// The queue beside its specification: an ordered map from key to
    /// payload, whose first entry is what `pop` must return.
    struct Checked {
        queue: EventQueue<u64>,
        model: BTreeMap<u128, u64>,
    }

    impl Checked {
        fn new() -> Self {
            Self {
                queue: EventQueue::new(),
                model: BTreeMap::new(),
            }
        }

        fn push(&mut self, tick: u64, seq: u64) {
            self.queue.push(key(tick, seq), seq);
            self.model.insert(key(tick, seq), seq);
            assert_eq!(self.queue.len(), self.model.len(), "lengths diverged");
        }

        fn pop(&mut self, context: &str) -> Option<(u128, u64)> {
            let got = self.queue.pop();
            assert_eq!(got, self.model.pop_first(), "{context}: pop diverged");
            got
        }
    }

    /// Drives the queue with an interleaved push/pop sequence and asserts
    /// every pop, including the final drain, is the model's minimum.
    /// `ticks` yields the tick of each pushed event in order.
    fn assert_pops_in_key_order(ticks: &[u64], pop_every: usize, context: &str) {
        let mut q = Checked::new();
        for (i, &t) in ticks.iter().enumerate() {
            q.push(t, i as u64);
            if pop_every > 0 && i % pop_every == pop_every - 1 {
                q.pop(context);
            }
        }
        while q.pop(context).is_some() {}
        assert!(q.queue.is_empty());
    }

    #[test]
    fn dense_same_tick_bursts_agree() {
        // Long runs of identical ticks: FIFO (seq) order inside a tick is
        // the whole contract.
        let mut ticks = Vec::new();
        let mut rng = Lcg(0xDE5E);
        let mut t = 0u64;
        for _ in 0..40 {
            t += rng.below(3);
            for _ in 0..rng.below(20) + 1 {
                ticks.push(t);
            }
        }
        assert_pops_in_key_order(&ticks, 3, "dense same-tick bursts");
    }

    #[test]
    fn sparse_far_future_agree() {
        // Huge tick jumps, up to the extreme end of the tick domain.
        let mut ticks = Vec::new();
        let mut rng = Lcg(0x5BA2);
        let mut t = 0u64;
        for _ in 0..120 {
            t = t.saturating_add(rng.below(1 << 40) + 1);
            ticks.push(t);
        }
        ticks.push(u64::MAX);
        ticks.push(u64::MAX - 1);
        assert_pops_in_key_order(&ticks, 5, "sparse far future");
    }

    #[test]
    fn decreasing_then_increasing_agree() {
        // Non-causal pushes (ticks behind the last pop) must still pop in
        // global order.
        let mut ticks: Vec<u64> = (0..60).rev().map(|i| i * 1000).collect();
        ticks.extend((0..60).map(|i| i * 777));
        assert_pops_in_key_order(&ticks, 4, "decreasing then increasing");
    }

    #[test]
    fn near_monotonic_simulation_shape_agree() {
        // The engine's actual shape: now advances, events land at
        // now + one of a few component delays.
        const DELAYS: [u64; 5] = [0, 300_000, 600_000, 2_400_000, 3_100_000];
        let mut rng = Lcg(0x51A1);
        let mut q = Checked::new();
        let mut seq = 0u64;
        for _ in 0..6 {
            q.push(0, seq);
            seq += 1;
        }
        while let Some((k, _)) = q.pop("simulation shape") {
            let now = tick_of(k);
            // Growth phase: 1..=2 successors per dispatch (supercritical,
            // so the pending set builds up); then stop scheduling and
            // drain.
            let successors = if seq < 3000 { 1 + rng.below(2) } else { 0 };
            for _ in 0..successors {
                q.push(now + DELAYS[rng.below(5) as usize], seq);
                seq += 1;
            }
        }
        assert!(seq >= 3000, "workload degenerated: only {seq} events");
    }

    #[test]
    fn randomized_interleavings_agree() {
        let mut rng = Lcg(0x1A77E);
        for round in 0..20 {
            let n = 30 + rng.below(200) as usize;
            let spread = [10u64, 1_000, 1 << 20, 1 << 50][round % 4];
            let ticks: Vec<u64> = (0..n).map(|_| rng.below(spread)).collect();
            let pop_every = (rng.below(6) + 1) as usize;
            assert_pops_in_key_order(&ticks, pop_every, &format!("random round {round}"));
        }
    }

    #[test]
    fn sorted_events_is_canonical_and_nondestructive() {
        let ticks = [5u64, 1, 1, 9, 3, 3, 3, 7];
        let mut q = EventQueue::<u64>::new();
        for (seq, &t) in ticks.iter().enumerate() {
            q.push(key(t, seq as u64), seq as u64);
        }
        let snap = q.sorted_events();
        assert_eq!(snap.len(), q.len());
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0), "not sorted");
        // The snapshot is a pure read: popping still yields the same
        // ascending stream.
        let mut popped = Vec::new();
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        assert_eq!(popped, snap, "snapshot diverged from pops");
    }

    #[test]
    fn clear_resets_consumption_state() {
        let mut q = EventQueue::<u64>::new();
        for seq in 0..100u64 {
            q.push(key(seq * 1_000_000, seq), seq);
        }
        for _ in 0..50 {
            q.pop();
        }
        q.clear();
        assert!(q.is_empty());
        // Events far behind the pre-clear pops are served first again.
        q.push(key(3, 0), 0);
        q.push(key(1, 1), 1);
        assert_eq!(q.pop(), Some((key(1, 1), 1)));
        assert_eq!(q.pop(), Some((key(3, 0), 0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn empty_queue_pops_none() {
        let mut q = EventQueue::<()>::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "pop on empty must stay None");
    }
}
