//! Bounded LRU interning of shared, immutable values.
//!
//! Several caches in this crate map a key to an expensive, pure artefact
//! that many callers share through an `Arc`: per-mask decoder contexts,
//! space-time window contexts, per-seed reference traces and the
//! process-wide stream contexts. [`InternTable`] is their one policy:
//!
//! * a hit refreshes the entry's recency;
//! * a miss builds the value *outside* the lock (graph APSP, reference
//!   traces and transpilation are the slow parts) and inserts it only if
//!   the key is still absent — on a race the first insert wins and every
//!   caller shares that value, the loser's build is dropped;
//! * at capacity, admitting a new key evicts the least recently used
//!   entry and counts the eviction (an evicted value's `Arc` keeps any
//!   in-flight user alive; re-interning rebuilds the same pure value);
//! * the lock recovers from poisoning — the table holds only finished
//!   immutable values, so a panicking caller cannot leave it half-updated.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// An LRU-bounded (or uncapped) key → `Arc<V>` interning table.
pub(crate) struct InternTable<K, V> {
    capacity: usize,
    slots: Mutex<Slots<K, V>>,
}

struct Slots<K, V> {
    /// Interned values with their last-access stamps.
    map: HashMap<K, (Arc<V>, u64)>,
    /// Monotonic access counter stamping entries for LRU.
    tick: u64,
    /// Entries dropped by the capacity ceiling so far.
    evictions: u64,
}

impl<K: Eq + Hash, V> Slots<K, V> {
    /// Fetch `key`, refreshing its stamp.
    fn touch(&mut self, key: &K) -> Option<Arc<V>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(value, stamp)| {
            *stamp = tick;
            value.clone()
        })
    }
}

impl<K: Eq + Hash, V> InternTable<K, V> {
    /// A table holding at most `capacity` entries (`capacity ≥ 1`).
    pub(crate) fn new(capacity: usize) -> Self {
        debug_assert!(capacity >= 1, "an intern table needs room for one entry");
        InternTable {
            capacity,
            slots: Mutex::new(Slots { map: HashMap::new(), tick: 0, evictions: 0 }),
        }
    }

    /// A table that never evicts.
    pub(crate) fn uncapped() -> Self {
        Self::new(usize::MAX)
    }

    fn lock(&self) -> MutexGuard<'_, Slots<K, V>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The interned value of `key`, if present (a hit refreshes recency).
    pub(crate) fn get(&self, key: &K) -> Option<Arc<V>> {
        self.lock().touch(key)
    }

    /// Intern `value` under `key` unless the key is already present, in
    /// which case the present value wins and is returned instead. A new
    /// key past capacity evicts the least recently used entry first.
    pub(crate) fn insert(&self, key: K, value: V) -> Arc<V> {
        let mut slots = self.lock();
        if let Some(present) = slots.touch(&key) {
            return present;
        }
        if slots.map.len() >= self.capacity {
            if let Some(oldest) = slots.map.values().map(|&(_, stamp)| stamp).min() {
                // Stamps are unique, so this drops exactly one entry.
                slots.map.retain(|_, &mut (_, stamp)| stamp != oldest);
                slots.evictions += 1;
            }
        }
        let value = Arc::new(value);
        let tick = slots.tick;
        slots.map.insert(key, (value.clone(), tick));
        value
    }

    /// The interned value of `key`, building and interning it on a miss
    /// (see the module docs for the race and eviction rules).
    pub(crate) fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> Arc<V> {
        match self.get(&key) {
            Some(value) => value,
            None => self.insert(key, build()),
        }
    }

    /// Entries currently interned.
    pub(crate) fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Entries evicted by the capacity ceiling so far.
    pub(crate) fn evictions(&self) -> u64 {
        self.lock().evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn hit_refreshes_recency_so_the_least_recently_used_key_is_evicted() {
        let table = InternTable::new(2);
        table.get_or_build(1, || "one");
        table.get_or_build(2, || "two");
        // Key 1 is the oldest insert, but using it makes key 2 the LRU.
        assert_eq!(table.get(&1).as_deref(), Some(&"one"));
        table.get_or_build(3, || "three");
        assert_eq!(table.len(), 2);
        assert_eq!(table.evictions(), 1);
        assert!(table.get(&2).is_none(), "the least recently used key must go");
        assert!(table.get(&1).is_some() && table.get(&3).is_some());
    }

    #[test]
    fn evictions_count_one_per_admitted_key_past_capacity() {
        let table = InternTable::new(3);
        for k in 0..10u32 {
            table.get_or_build(k, || k * 10);
        }
        assert_eq!(table.len(), 3);
        assert_eq!(table.evictions(), 7);
        // Hits and re-inserts of present keys never evict.
        for k in 7..10u32 {
            assert_eq!(*table.get_or_build(k, || unreachable!("present key rebuilt")), k * 10);
            assert_eq!(*table.insert(k, 0), k * 10, "the first insert wins");
        }
        assert_eq!(table.evictions(), 7);
        // A re-admitted evicted key rebuilds and evicts the LRU entry.
        assert_eq!(*table.get_or_build(0, || 0), 0);
        assert_eq!(table.evictions(), 8);
        assert!(table.get(&7).is_none());
    }

    #[test]
    fn uncapped_table_never_evicts() {
        let table = InternTable::uncapped();
        for k in 0..1000u32 {
            table.get_or_build(k, || k);
        }
        assert_eq!(table.len(), 1000);
        assert_eq!(table.evictions(), 0);
    }

    #[test]
    fn racing_builds_share_the_first_inserted_value() {
        let table = InternTable::<u8, Vec<u8>>::new(4);
        // Both threads miss, both build (the barrier holds each build
        // until the other has started), then both inserts race.
        let barrier = Barrier::new(2);
        let (a, b) = std::thread::scope(|s| {
            let build = || {
                s.spawn(|| {
                    table.get_or_build(7, || {
                        barrier.wait();
                        vec![7]
                    })
                })
            };
            let (a, b) = (build(), build());
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(Arc::ptr_eq(&a, &b), "racing callers must share one interned value");
        assert_eq!(table.len(), 1);
        assert_eq!(table.evictions(), 0);
    }

    #[test]
    fn poisoned_lock_recovers() {
        let table = InternTable::new(2);
        table.get_or_build(1, || 1);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = table.lock();
            panic!("caller panics while holding the table");
        }));
        assert_eq!(table.get(&1).as_deref(), Some(&1));
        assert_eq!(*table.get_or_build(2, || 2), 2);
    }
}
