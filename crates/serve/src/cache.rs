//! The compiled-netlist LRU cache behind the daemon.
//!
//! Keyed by `(source digest, compile key)` — see
//! [`crate::proto::DesignSpec::digest`] and
//! [`crate::proto::RequestOptions::compile_key`] — each entry holds a
//! pristine warm [`EcoSession`] (the full compile: memoized cuts,
//! trigger cache, artifacts) behind an `Arc`, so any number of
//! concurrent sessions can read the shared compiled artifact while the
//! cache itself is only locked for the constant-time lookup/insert.
//! Requests that differ only in their sweep options share an entry.
//!
//! Eviction is strict LRU on a logical tick that increments on every
//! touch, with the key as a total-order tie-break — fully
//! deterministic for a sequential request trace, which is what the
//! equivalence tests pin.

use crate::proto::RequestOptions;
use pl_flow::EcoSession;
use std::collections::HashMap;
use std::sync::Arc;

/// Cache key: design identity × compile key.
pub type CacheKey = (u64, u64);

/// One warm compile, shared read-only across sessions.
#[derive(Debug)]
pub struct CompiledState {
    /// The pristine warm session (never mutated in place — ECO requests
    /// clone it, so a cached entry always answers a plain compile with
    /// the un-edited design).
    pub session: EcoSession,
    /// The options the session was compiled and swept under: a request
    /// with exactly these options is answered from the session's own
    /// sweep.
    pub options: RequestOptions,
}

struct Slot {
    last_used: u64,
    state: Arc<CompiledState>,
}

/// Strict-LRU map from [`CacheKey`] to [`CompiledState`].
pub struct NetlistCache {
    capacity: usize,
    tick: u64,
    map: HashMap<CacheKey, Slot>,
}

impl NetlistCache {
    /// An empty cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        NetlistCache {
            capacity: capacity.max(1),
            tick: 0,
            map: HashMap::new(),
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up a warm entry, marking it most-recently-used.
    pub fn lookup(&mut self, key: CacheKey) -> Option<Arc<CompiledState>> {
        self.tick += 1;
        let tick = self.tick;
        let slot = self.map.get_mut(&key)?;
        slot.last_used = tick;
        Some(Arc::clone(&slot.state))
    }

    /// Inserts (or replaces) an entry, evicting least-recently-used
    /// entries down to capacity. Returns how many entries were evicted.
    pub fn insert(&mut self, key: CacheKey, state: Arc<CompiledState>) -> u64 {
        self.tick += 1;
        self.map.insert(
            key,
            Slot {
                last_used: self.tick,
                state,
            },
        );
        let mut evicted = 0;
        while self.map.len() > self.capacity {
            // Min (last_used, key): ticks are unique, so the key
            // tie-break only matters as belt-and-braces determinism.
            let victim = self
                .map
                .iter()
                .map(|(k, s)| (s.last_used, *k))
                .min()
                .map(|(_, k)| k)
                .expect("non-empty above capacity");
            self.map.remove(&victim);
            evicted += 1;
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_flow::{CircuitSource, FlowOptions, Pipeline};

    fn state_for(name: &str) -> Arc<CompiledState> {
        let pipeline = Pipeline::new(FlowOptions {
            vectors: 2,
            verify: false,
            ..FlowOptions::default()
        });
        let session = pipeline
            .eco_session(&CircuitSource::catalog(name).unwrap())
            .unwrap();
        Arc::new(CompiledState {
            session,
            options: RequestOptions::default(),
        })
    }

    #[test]
    fn lru_evicts_least_recently_used_deterministically() {
        let mut cache = NetlistCache::new(2);
        let s = state_for("b01");
        assert_eq!(cache.insert((1, 0), Arc::clone(&s)), 0);
        assert_eq!(cache.insert((2, 0), Arc::clone(&s)), 0);
        // Touch key 1 so key 2 becomes the LRU victim.
        assert!(cache.lookup((1, 0)).is_some());
        assert_eq!(cache.insert((3, 0), Arc::clone(&s)), 1);
        assert!(cache.lookup((2, 0)).is_none(), "LRU victim evicted");
        assert!(cache.lookup((1, 0)).is_some());
        assert!(cache.lookup((3, 0)).is_some());
        assert_eq!(cache.len(), 2);
    }
}
