//! Pluggable pending-event queues for the discrete-event engine.
//!
//! The engine schedules every token through one priority queue keyed on
//! packed `(tick, seq)` `u128` keys (tick in the high 64 bits, a unique
//! monotone sequence number in the low 64 — a strict total order). This
//! module provides that queue behind an enum-dispatched abstraction
//! ([`EventQueue`]) with two backends selected by [`QueueKind`]:
//!
//! * [`QueueKind::Heap`] — the classic `Vec`-backed binary min-heap.
//!   O(log n) push/pop, fully general, the engine's historical backend.
//! * [`QueueKind::Ladder`] — a calendar/ladder queue bucketed by integer
//!   tick. Events land in tick-range buckets (O(1) push); buckets are
//!   refined into finer rungs when they overflow and sorted only when
//!   they reach the consumption front, giving amortized O(1) pop for the
//!   dense, near-monotonic tick distributions a gate-level simulation
//!   produces (every event lives at most one max-component-delay ahead
//!   of the clock).
//!
//! Both backends pop in **exactly** ascending key order — the ladder
//! queue is not an approximation. Determinism is structural: within a
//! bucket events are kept in insertion order, which is `seq` order
//! (sequence numbers only grow), and a bucket is stably ordered by the
//! full key before it is consumed. The differential tests below (and the
//! property suite in `tests/prop_flow.rs`) drive both backends with
//! identical push/pop interleavings over adversarial tick distributions
//! and assert identical pop sequences.
//!
//! The queue is generic over its payload so the engine can store bare
//! event descriptors (no ordering bound on `T` — order lives in the key
//! alone) and so tests can drive the queue in isolation.

use std::collections::{BinaryHeap, VecDeque};

/// Packs an integer tick and a unique sequence number into one ordering
/// key: `(tick << 64) | seq`, so keys compare as `(tick, seq)` tuples.
/// The one definition of the key layout — the engine and both backends
/// go through this pair of helpers.
#[must_use]
pub fn pack_key(tick: u64, seq: u64) -> u128 {
    (u128::from(tick) << 64) | u128::from(seq)
}

/// The tick half of a packed key (see [`pack_key`]).
#[must_use]
pub fn tick_of(key: u128) -> u64 {
    (key >> 64) as u64
}

/// Which pending-event queue backend a simulator schedules through.
///
/// The backend is a pure implementation choice: simulation results are
/// bit-identical across kinds (pinned by `tests/engine_equivalence.rs`),
/// and checkpoints are portable between them ([`crate::SimCheckpoint`]
/// canonicalizes the in-flight queue to a sorted event list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueueKind {
    /// Binary min-heap over packed keys (O(log n) push/pop).
    #[default]
    Heap,
    /// Calendar/ladder queue bucketed by tick (amortized O(1) push/pop
    /// on dense, near-monotonic schedules).
    Ladder,
}

impl QueueKind {
    /// The spelling its [`FromStr`](std::str::FromStr) impl accepts and
    /// its [`Display`](std::fmt::Display) impl prints (`"heap"` /
    /// `"ladder"`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            QueueKind::Heap => "heap",
            QueueKind::Ladder => "ladder",
        }
    }
}

impl std::fmt::Display for QueueKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for QueueKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "heap" => Ok(QueueKind::Heap),
            "ladder" => Ok(QueueKind::Ladder),
            other => Err(format!("unknown queue kind '{other}' (heap|ladder)")),
        }
    }
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
/// with a payload per event, enum-dispatched over the [`QueueKind`]
/// backends (no trait objects on the hot path).
///
/// Keys must be unique (the engine's monotone `seq` guarantees this);
/// [`EventQueue::pop`] returns events in strictly ascending key order for
/// either backend.
#[derive(Debug, Clone)]
pub struct EventQueue<T>(Backend<T>);

#[derive(Debug, Clone)]
enum Backend<T> {
    Heap(BinaryHeap<HeapEntry<T>>),
    Ladder(LadderQueue<T>),
}

impl<T> EventQueue<T> {
    /// An empty queue of the given backend kind.
    #[must_use]
    pub fn new(kind: QueueKind) -> Self {
        Self(match kind {
            QueueKind::Heap => Backend::Heap(BinaryHeap::new()),
            QueueKind::Ladder => Backend::Ladder(LadderQueue::new()),
        })
    }

    /// Which backend this queue dispatches to.
    #[must_use]
    pub fn kind(&self) -> QueueKind {
        match &self.0 {
            Backend::Heap(_) => QueueKind::Heap,
            Backend::Ladder(_) => QueueKind::Ladder,
        }
    }

    /// Inserts an event under a packed `(tick, seq)` key.
    pub fn push(&mut self, key: u128, item: T) {
        match &mut self.0 {
            Backend::Heap(h) => h.push(HeapEntry { key, item }),
            Backend::Ladder(l) => l.push(key, item),
        }
    }

    /// Removes and returns the event with the smallest key.
    pub fn pop(&mut self) -> Option<(u128, T)> {
        match &mut self.0 {
            Backend::Heap(h) => h.pop().map(|e| (e.key, e.item)),
            Backend::Ladder(l) => l.pop(),
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.0 {
            Backend::Heap(h) => h.len(),
            Backend::Ladder(l) => l.len,
        }
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every pending event and resets the backend's internal
    /// consumption state (the ladder's rung/bottom bounds), keeping the
    /// kind. Used by checkpoint restore before re-inserting the captured
    /// events.
    pub fn clear(&mut self) {
        match &mut self.0 {
            Backend::Heap(h) => h.clear(),
            Backend::Ladder(l) => *l = LadderQueue::new(),
        }
    }
}

impl<T: Clone> EventQueue<T> {
    /// Every pending event in canonical ascending-key order, without
    /// disturbing the queue — the queue-kind-portable serialization a
    /// checkpoint stores (a live backend's internal layout is not
    /// canonical; this is).
    #[must_use]
    pub fn sorted_events(&self) -> Vec<(u128, T)> {
        let mut events: Vec<(u128, T)> = match &self.0 {
            Backend::Heap(h) => h.iter().map(|e| (e.key, e.item.clone())).collect(),
            Backend::Ladder(l) => l.iter_unordered().cloned().collect(),
        };
        events.sort_unstable_by_key(|(k, _)| *k);
        events
    }
}

const RUNG_BUCKETS: usize = 64;
/// A bucket reaching the consumption front with more events than this is
/// refined into a finer rung instead of being sorted wholesale.
const SPAWN_THRESHOLD: usize = 48;

/// One ladder rung: a contiguous band of `RUNG_BUCKETS` equal-width tick
/// buckets, consumed front to back. Inner rungs (later in the rung stack)
/// subdivide the bucket of the outer rung that reached the consumption
/// front while overfull.
#[derive(Debug, Clone)]
struct Rung<T> {
    /// Tick at the start of bucket 0.
    start: u64,
    /// Ticks per bucket (≥ 1).
    width: u64,
    /// One past the last tick this rung is responsible for (u128: the
    /// bound may lie beyond `u64::MAX` after coverage rounding). For a
    /// rung spawned from a parent bucket this is the parent bucket's
    /// end, NOT `start + width * RUNG_BUCKETS`: the bucket grid rounds
    /// up, and ticks in the overshoot band belong to the parent's next
    /// bucket — filing them here would pop them ahead of earlier events
    /// already waiting there.
    limit: u128,
    /// Next bucket index to consume.
    cur: usize,
    /// Events across `buckets[cur..]`.
    count: usize,
    buckets: Vec<Vec<(u128, T)>>,
}

impl<T> Rung<T> {
    fn new(start: u64, width: u64, limit: u128) -> Self {
        debug_assert!(width >= 1);
        debug_assert!(limit <= u128::from(start) + u128::from(width) * RUNG_BUCKETS as u128);
        Self {
            start,
            width,
            limit,
            cur: 0,
            count: 0,
            buckets: (0..RUNG_BUCKETS).map(|_| Vec::new()).collect(),
        }
    }

    /// First tick of the unconsumed region.
    fn cur_start(&self) -> u128 {
        u128::from(self.start) + u128::from(self.width) * self.cur as u128
    }

    fn insert(&mut self, key: u128, item: T) {
        let tick = tick_of(key);
        debug_assert!(u128::from(tick) < self.limit);
        let idx = ((tick - self.start) / self.width) as usize;
        debug_assert!(idx >= self.cur && idx < RUNG_BUCKETS);
        self.buckets[idx].push((key, item));
        self.count += 1;
    }
}

/// A calendar/ladder queue over packed `(tick, seq)` keys.
///
/// Structure (following Tang/Goh/Thng's ladder queue, simplified to the
/// engine's needs):
///
/// * **bottom** — a key-sorted deque holding the events at the current
///   consumption front; `pop` serves from here.
/// * **rungs** — a stack of bucket bands. The outermost rung spans the
///   spread of the far-future pool; each inner rung subdivides one
///   overfull bucket of its parent into `RUNG_BUCKETS` finer buckets
///   (down to width 1, a single tick — the overflow/refinement mechanism
///   that keeps per-bucket sorting O(threshold)).
/// * **top** — the unsorted far-future pool: everything beyond the
///   outermost rung's band. When the rungs drain, the pool is spread
///   into a fresh rung sized to its actual tick range (automatic
///   resize).
///
/// Pushes go to the innermost structure whose range covers the tick;
/// ticks at or behind the consumption front insert into `bottom` in
/// sorted position, so arbitrary (even decreasing) tick sequences stay
/// correctly ordered.
///
/// Not exported: every public path goes through
/// [`EventQueue::new`]`(`[`QueueKind::Ladder`]`)`.
#[derive(Debug, Clone)]
struct LadderQueue<T> {
    len: usize,
    /// Sorted ascending by key; the front is the global minimum.
    bottom: VecDeque<(u128, T)>,
    /// Ticks strictly below this bound belong in `bottom`.
    bottom_limit: u128,
    /// Rung stack, outermost first.
    rungs: Vec<Rung<T>>,
    /// Far-future events, unsorted (insertion = `seq` order).
    top: Vec<(u128, T)>,
}

impl<T> LadderQueue<T> {
    fn new() -> Self {
        Self {
            len: 0,
            bottom: VecDeque::new(),
            bottom_limit: 0,
            rungs: Vec::new(),
            top: Vec::new(),
        }
    }

    fn iter_unordered(&self) -> impl Iterator<Item = &(u128, T)> {
        self.bottom
            .iter()
            .chain(
                self.rungs
                    .iter()
                    .flat_map(|r| r.buckets[r.cur..].iter().flat_map(|b| b.iter())),
            )
            .chain(self.top.iter())
    }

    fn insert_bottom(&mut self, key: u128, item: T) {
        let at = self.bottom.partition_point(|(k, _)| *k < key);
        self.bottom.insert(at, (key, item));
    }

    fn push(&mut self, key: u128, item: T) {
        self.len += 1;
        let tick = u128::from(tick_of(key));
        if tick < self.bottom_limit {
            self.insert_bottom(key, item);
            return;
        }
        for rung in self.rungs.iter_mut().rev() {
            if tick < rung.limit {
                if tick >= rung.cur_start() {
                    rung.insert(key, item);
                } else {
                    // The gap behind the innermost rung's consumption
                    // front (possible only for adversarial, non-causal
                    // tick sequences): keep it sorted in bottom.
                    self.insert_bottom(key, item);
                }
                return;
            }
        }
        self.top.push((key, item));
    }

    fn pop(&mut self) -> Option<(u128, T)> {
        loop {
            if let Some(front) = self.bottom.pop_front() {
                self.len -= 1;
                return Some(front);
            }
            let Some(rung) = self.rungs.last_mut() else {
                if self.top.is_empty() {
                    return None;
                }
                self.spread_top();
                continue;
            };
            if rung.count == 0 {
                // Exhausted: everything up to the rung's covered bound is
                // consumed, so later pushes below it sort into bottom.
                self.bottom_limit = self.bottom_limit.max(rung.limit);
                self.rungs.pop();
                continue;
            }
            while rung.buckets[rung.cur].is_empty() {
                rung.cur += 1;
            }
            let bucket_start = rung.start + rung.cur as u64 * rung.width;
            let mut bucket = std::mem::take(&mut rung.buckets[rung.cur]);
            rung.count -= bucket.len();
            rung.cur += 1;
            // The bucket's covered band, capped at the rung's own bound
            // (the grid's last bucket may overshoot it).
            let bucket_end = (u128::from(bucket_start) + u128::from(rung.width)).min(rung.limit);
            if rung.width > 1 && bucket.len() > SPAWN_THRESHOLD {
                // Refine the overfull bucket into a finer rung; relative
                // order within the new buckets is preserved (still `seq`
                // order). The inner rung's responsibility is capped at
                // this bucket's band even though its finer grid rounds up
                // past it.
                let new_width = rung.width.div_ceil(RUNG_BUCKETS as u64).max(1);
                let mut inner = Rung::new(bucket_start, new_width, bucket_end);
                for (key, item) in bucket {
                    inner.insert(key, item);
                }
                self.rungs.push(inner);
                continue;
            }
            // Keys are unique, so the unstable sort is deterministic.
            bucket.sort_unstable_by_key(|(k, _)| *k);
            self.bottom_limit = bucket_end;
            self.bottom = VecDeque::from(bucket);
        }
    }

    /// Spreads the far-future pool into a fresh rung sized to its actual
    /// tick range (or straight into bottom when it is small) — the
    /// automatic resize that keeps bucket widths matched to the live
    /// event horizon.
    fn spread_top(&mut self) {
        debug_assert!(!self.top.is_empty());
        let ticks = self.top.iter().map(|(k, _)| tick_of(*k));
        let (mut min_t, mut max_t) = (u64::MAX, u64::MIN);
        for t in ticks {
            min_t = min_t.min(t);
            max_t = max_t.max(t);
        }
        let pool = std::mem::take(&mut self.top);
        if pool.len() <= SPAWN_THRESHOLD || min_t == max_t {
            let mut sorted = pool;
            sorted.sort_unstable_by_key(|(k, _)| *k);
            self.bottom_limit = u128::from(max_t) + 1;
            self.bottom = VecDeque::from(sorted);
            return;
        }
        let width = ((max_t - min_t) / RUNG_BUCKETS as u64) + 1;
        let limit = u128::from(max_t) + 1;
        let mut rung = Rung::new(min_t, width, limit);
        for (key, item) in pool {
            rung.insert(key, item);
        }
        self.rungs.push(rung);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tick: u64, seq: u64) -> u128 {
        pack_key(tick, seq)
    }

    /// Tiny deterministic LCG for the differential drivers.
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

    /// Drives both backends with an identical interleaved push/pop
    /// sequence and asserts identical pop streams (including the final
    /// drain). `ticks` yields the tick of each pushed event in order.
    fn assert_backends_agree(ticks: &[u64], pop_every: usize, context: &str) {
        let mut heap = EventQueue::<u64>::new(QueueKind::Heap);
        let mut ladder = EventQueue::<u64>::new(QueueKind::Ladder);
        for (i, &t) in ticks.iter().enumerate() {
            let seq = i as u64;
            let k = key(t, seq);
            heap.push(k, seq);
            ladder.push(k, seq);
            if pop_every > 0 && i % pop_every == pop_every - 1 {
                let (h, l) = (heap.pop(), ladder.pop());
                assert_eq!(h, l, "{context}: interleaved pop {i} diverged");
            }
            assert_eq!(heap.len(), ladder.len(), "{context}: lengths diverged");
        }
        let mut last = None;
        loop {
            let (h, l) = (heap.pop(), ladder.pop());
            assert_eq!(h, l, "{context}: drain pop diverged");
            let Some((k, _)) = h else { break };
            assert!(Some(k) > last, "{context}: pop order not ascending");
            last = Some(k);
        }
        assert!(heap.is_empty() && ladder.is_empty());
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
        assert_backends_agree(&ticks, 3, "dense same-tick bursts");
    }

    #[test]
    fn sparse_far_future_agree() {
        // Huge tick jumps force repeated top spreads and wide rungs.
        let mut ticks = Vec::new();
        let mut rng = Lcg(0x5BA2);
        let mut t = 0u64;
        for _ in 0..120 {
            t = t.saturating_add(rng.below(1 << 40) + 1);
            ticks.push(t);
        }
        ticks.push(u64::MAX); // the extreme end of the tick domain
        ticks.push(u64::MAX - 1);
        assert_backends_agree(&ticks, 5, "sparse far future");
    }

    #[test]
    fn decreasing_then_increasing_agree() {
        // Non-causal pushes (ticks behind the consumption front) must
        // still pop in global order.
        let mut ticks: Vec<u64> = (0..60).rev().map(|i| i * 1000).collect();
        ticks.extend((0..60).map(|i| i * 777));
        assert_backends_agree(&ticks, 4, "decreasing then increasing");
    }

    #[test]
    fn near_monotonic_simulation_shape_agree() {
        // The engine's actual shape: now advances, events land at
        // now + one of a few component delays.
        const DELAYS: [u64; 5] = [0, 300_000, 600_000, 2_400_000, 3_100_000];
        let mut rng = Lcg(0x51A1);
        let mut heap = EventQueue::<u64>::new(QueueKind::Heap);
        let mut ladder = EventQueue::<u64>::new(QueueKind::Ladder);
        let mut seq = 0u64;
        for _ in 0..6 {
            let k = key(0, seq);
            heap.push(k, seq);
            ladder.push(k, seq);
            seq += 1;
        }
        loop {
            let (h, l) = (heap.pop(), ladder.pop());
            assert_eq!(h, l, "simulation-shaped pop diverged");
            let Some((k, _)) = h else { break };
            let now = tick_of(k);
            // Growth phase: 1..=2 successors per dispatch (supercritical,
            // so the pending set builds up); then stop scheduling and
            // drain.
            let successors = if seq < 3000 { 1 + rng.below(2) } else { 0 };
            for _ in 0..successors {
                let k = key(now + DELAYS[rng.below(5) as usize], seq);
                heap.push(k, seq);
                ladder.push(k, seq);
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
            assert_backends_agree(&ticks, pop_every, &format!("random round {round}"));
        }
    }

    /// Regression: a rung spawned from an overfull bucket must not claim
    /// ticks beyond the parent bucket's band. The finer grid rounds up
    /// (width 100 → 64 buckets of width 2 cover 128 ticks); an event
    /// pushed into the overshoot band [100, 128) while the inner rung is
    /// active belongs to the parent's NEXT bucket and must pop after the
    /// earlier, smaller-keyed event already waiting there.
    #[test]
    fn refined_rung_does_not_capture_the_parents_next_bucket() {
        let mut heap = EventQueue::<u64>::new(QueueKind::Heap);
        let mut ladder = EventQueue::<u64>::new(QueueKind::Ladder);
        let mut seq = 0u64;
        let mut push = |heap: &mut EventQueue<u64>, ladder: &mut EventQueue<u64>, t: u64| {
            let k = key(t, seq);
            heap.push(k, seq);
            ladder.push(k, seq);
            seq += 1;
        };
        // Top spread: min 0, max 6390 → rung width (6390/64)+1 = 100.
        // Bucket 0 = [0, 100) holds 60 > SPAWN_THRESHOLD events, so the
        // first pop refines it into an inner rung of width 2.
        for i in 0..60 {
            push(&mut heap, &mut ladder, (i * 13) % 100);
        }
        push(&mut heap, &mut ladder, 105); // parent bucket 1
        push(&mut heap, &mut ladder, 6390); // fixes the spread
        assert_eq!(heap.pop(), ladder.pop(), "refining pop diverged");
        // Pushed while the inner rung is consuming: tick 110 sits in the
        // naive inner band [0, 128) but belongs to parent bucket 1 —
        // after tick 105.
        push(&mut heap, &mut ladder, 110);
        loop {
            let (h, l) = (heap.pop(), ladder.pop());
            assert_eq!(h, l, "overshoot-band drain diverged");
            if h.is_none() {
                break;
            }
        }
    }

    /// Randomized interleavings tuned to keep refinement and pushes
    /// concurrent: bursty ticks over a spread that yields non-power-of-two
    /// bucket widths, with pops (and hence rung spawns) interleaved
    /// throughout.
    #[test]
    fn interleaved_pushes_during_refinement_agree() {
        let mut rng = Lcg(0x0E25_111D);
        for round in 0..8 {
            let mut ticks = Vec::new();
            // Dense bursts near the front force overfull early buckets;
            // a far tail fixes a wide, odd spread.
            for _ in 0..300 {
                ticks.push(rng.below(150));
            }
            ticks.push(5000 + rng.below(2000));
            for _ in 0..100 {
                ticks.push(rng.below(700));
            }
            assert_backends_agree(&ticks, 2, &format!("refinement round {round}"));
        }
    }

    #[test]
    fn overflow_rungs_refine_big_buckets() {
        // Thousands of events inside one narrow band force bucket
        // refinement (spawned inner rungs) down to width 1.
        let mut rng = Lcg(0x0F10);
        let ticks: Vec<u64> = (0..2000).map(|_| 1 << 30 | rng.below(4096)).collect();
        assert_backends_agree(&ticks, 0, "overflow refinement");
    }

    #[test]
    fn sorted_events_is_canonical_and_nondestructive() {
        let ticks = [5u64, 1, 1, 9, 3, 3, 3, 7];
        for kind in [QueueKind::Heap, QueueKind::Ladder] {
            let mut q = EventQueue::<u64>::new(kind);
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
            assert_eq!(popped, snap, "{kind}: snapshot diverged from pops");
        }
    }

    #[test]
    fn clear_resets_consumption_state() {
        let mut q = EventQueue::<u64>::new(QueueKind::Ladder);
        for seq in 0..100u64 {
            q.push(key(seq * 1_000_000, seq), seq);
        }
        for _ in 0..50 {
            q.pop();
        }
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.kind(), QueueKind::Ladder);
        // Events far behind the pre-clear consumption front are served
        // first again.
        q.push(key(3, 0), 0);
        q.push(key(1, 1), 1);
        assert_eq!(q.pop(), Some((key(1, 1), 1)));
        assert_eq!(q.pop(), Some((key(3, 0), 0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn kind_parses_and_displays() {
        assert_eq!("heap".parse::<QueueKind>(), Ok(QueueKind::Heap));
        assert_eq!("ladder".parse::<QueueKind>(), Ok(QueueKind::Ladder));
        assert!("fifo".parse::<QueueKind>().is_err());
        assert_eq!(QueueKind::Heap.to_string(), "heap");
        assert_eq!(QueueKind::Ladder.to_string(), "ladder");
        assert_eq!(QueueKind::default(), QueueKind::Heap);
    }

    #[test]
    fn empty_queue_pops_none() {
        for kind in [QueueKind::Heap, QueueKind::Ladder] {
            let mut q = EventQueue::<()>::new(kind);
            assert!(q.is_empty());
            assert_eq!(q.len(), 0);
            assert_eq!(q.pop(), None);
            assert_eq!(q.pop(), None, "pop on empty must stay None");
        }
    }
}
