//! A byte-budgeted LRU cache for serving stores.
//!
//! `ct serve` answers most object reads from memory; this cache keeps
//! that working set bounded so a long-lived server cannot grow without
//! limit. Capacity is measured in *payload bytes*, not entries —
//! records range from hundreds of bytes (a realization) to hundreds of
//! kilobytes (a histogram), so an entry count would bound nothing.
//!
//! Eviction contract (documented in DESIGN.md and relied on by the
//! server): inserting an entry evicts least-recently-*used* entries
//! until the new total fits the budget; a payload larger than the
//! whole budget is simply not cached (the backing store still serves
//! it); `get` refreshes recency; `remove` is immediate (the server
//! calls it on evict/invalidate so the cache can never resurrect a
//! deleted record). Hits, misses, and evictions are counted as
//! `store.lru.*`.

use crate::hash::Digest;
use crate::metrics::MetricsSink;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

#[derive(Debug, Default)]
struct LruState {
    /// key → (recency tick, payload).
    entries: HashMap<Digest, (u64, Arc<Vec<u8>>)>,
    /// recency tick → key; the smallest tick is the eviction victim.
    order: BTreeMap<u64, Digest>,
    /// Total payload bytes currently held.
    bytes: u64,
    /// Monotonic recency clock.
    tick: u64,
}

/// A thread-safe byte-budgeted LRU of record payloads.
#[derive(Debug)]
pub struct ByteLru {
    state: Mutex<LruState>,
    budget: u64,
    sink: MetricsSink,
}

impl ByteLru {
    /// A cache bounded to `budget` payload bytes, counting to the
    /// global [`ct_obs`] registry.
    pub fn new(budget: u64) -> Self {
        Self {
            state: Mutex::new(LruState::default()),
            budget,
            sink: MetricsSink::Global,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.state.lock().expect("lru lock").entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cached payload for `key`, refreshing its recency.
    pub fn get(&self, key: &Digest) -> Option<Arc<Vec<u8>>> {
        let mut s = self.state.lock().expect("lru lock");
        s.tick += 1;
        let fresh = s.tick;
        let Some((tick, payload)) = s.entries.get_mut(key) else {
            self.sink.add(ct_obs::names::STORE_LRU_MISSES, 1);
            return None;
        };
        let stale = std::mem::replace(tick, fresh);
        let payload = Arc::clone(payload);
        s.order.remove(&stale);
        s.order.insert(fresh, *key);
        self.sink.add(ct_obs::names::STORE_LRU_HITS, 1);
        Some(payload)
    }

    /// Caches `payload` under `key` (replacing any previous entry),
    /// then evicts least-recently-used entries until the total fits
    /// the budget. A payload larger than the whole budget is not
    /// cached at all.
    pub fn put(&self, key: &Digest, payload: Vec<u8>) {
        let len = payload.len() as u64;
        let mut s = self.state.lock().expect("lru lock");
        Self::remove_locked(&mut s, key);
        if len > self.budget {
            return;
        }
        s.tick += 1;
        let fresh = s.tick;
        s.entries.insert(*key, (fresh, Arc::new(payload)));
        s.order.insert(fresh, *key);
        s.bytes += len;
        let mut evicted = 0u64;
        while s.bytes > self.budget {
            let victim = *s
                .order
                .iter()
                .next()
                .expect("over budget implies an entry")
                .1;
            // The just-inserted entry has the freshest tick, so a
            // victim is always an *older* entry; the cache never
            // thrashes the record it was asked to hold.
            debug_assert_ne!(victim, *key);
            Self::remove_locked(&mut s, &victim);
            evicted += 1;
        }
        if evicted > 0 {
            self.sink.add(ct_obs::names::STORE_LRU_EVICTIONS, evicted);
        }
    }

    /// Drops `key` from the cache (not counted as an LRU eviction:
    /// the caller deleted the record, the budget did not).
    pub fn remove(&self, key: &Digest) {
        let mut s = self.state.lock().expect("lru lock");
        Self::remove_locked(&mut s, key);
    }

    fn remove_locked(s: &mut LruState, key: &Digest) {
        if let Some((tick, payload)) = s.entries.remove(key) {
            s.order.remove(&tick);
            s.bytes -= payload.len() as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::StableHasher;

    impl ByteLru {
        /// Like [`ByteLru::new`], counting to a caller-owned registry,
        /// so a test can assert exact hit/miss/eviction counts.
        fn with_registry(budget: u64, registry: Arc<ct_obs::Registry>) -> Self {
            Self {
                state: Mutex::new(LruState::default()),
                budget,
                sink: MetricsSink::Local(registry),
            }
        }

        /// Payload bytes currently cached.
        fn bytes(&self) -> u64 {
            self.state.lock().expect("lru lock").bytes
        }
    }

    fn key(n: u64) -> Digest {
        let mut h = StableHasher::new();
        h.write_u64(n);
        h.finish()
    }

    fn counters(reg: &ct_obs::Registry) -> (u64, u64, u64) {
        let snap = reg.snapshot();
        (
            snap.counter(ct_obs::names::STORE_LRU_HITS).unwrap_or(0),
            snap.counter(ct_obs::names::STORE_LRU_MISSES).unwrap_or(0),
            snap.counter(ct_obs::names::STORE_LRU_EVICTIONS)
                .unwrap_or(0),
        )
    }

    #[test]
    fn evicts_least_recently_used_to_fit_budget() {
        let reg = Arc::new(ct_obs::Registry::new());
        let lru = ByteLru::with_registry(10, Arc::clone(&reg));
        lru.put(&key(1), vec![0; 4]);
        lru.put(&key(2), vec![0; 4]);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(lru.get(&key(1)).is_some());
        lru.put(&key(3), vec![0; 4]);
        assert_eq!(lru.get(&key(2)), None);
        assert!(lru.get(&key(1)).is_some());
        assert!(lru.get(&key(3)).is_some());
        assert_eq!(lru.bytes(), 8);
        assert_eq!(counters(&reg), (3, 1, 1));
    }

    #[test]
    fn oversized_payloads_are_not_cached() {
        let lru = ByteLru::new(8);
        lru.put(&key(1), vec![0; 9]);
        assert!(lru.is_empty());
        // And an oversized re-put of a cached key still drops it.
        lru.put(&key(2), vec![0; 4]);
        lru.put(&key(2), vec![0; 64]);
        assert!(lru.is_empty());
    }

    #[test]
    fn replacement_updates_byte_accounting() {
        let lru = ByteLru::new(100);
        lru.put(&key(1), vec![0; 30]);
        lru.put(&key(1), vec![0; 7]);
        assert_eq!(lru.bytes(), 7);
        assert_eq!(lru.len(), 1);
        lru.remove(&key(1));
        assert_eq!(lru.bytes(), 0);
        assert!(lru.is_empty());
    }

    #[test]
    fn one_giant_eviction_sweep_counts_every_victim() {
        let reg = Arc::new(ct_obs::Registry::new());
        let lru = ByteLru::with_registry(10, Arc::clone(&reg));
        for n in 0..5 {
            lru.put(&key(n), vec![0; 2]);
        }
        lru.put(&key(9), vec![0; 10]);
        assert_eq!(lru.len(), 1);
        assert!(lru.get(&key(9)).is_some());
        assert_eq!(counters(&reg).2, 5);
    }
}
