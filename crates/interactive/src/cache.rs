//! A small bounded LRU cache with hit/miss/eviction accounting, and the
//! shared cache-layer type built on it.
//!
//! Every in-memory cache layer of the exploration engine
//! ([`crate::Explorer`]) is one `Layer`: an [`LruCache`] behind its own
//! mutex, whose counters feed the per-command
//! [`crate::explore::CacheProvenance`]. Capacities are small (tens of
//! entries of expensive artifacts), so eviction scans for the
//! least-recently-used entry instead of maintaining an intrusive list —
//! `O(entries)` on insert-at-capacity, zero overhead on hits.

use qagview_common::FxHashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Whether a cache layer answered a lookup or had to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the cache.
    Hit,
    /// Computed cold (and cached for next time).
    Miss,
}

/// Cumulative counters of one cache layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute the artifact.
    pub misses: u64,
    /// Entries dropped to stay within the capacity.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// A bounded least-recently-used map.
#[derive(Debug)]
pub struct LruCache<K, V> {
    cap: usize,
    map: FxHashMap<K, (V, u64)>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// A cache holding at most `cap` entries (`cap` is clamped to ≥ 1).
    pub fn new(cap: usize) -> Self {
        LruCache {
            cap: cap.max(1),
            map: FxHashMap::default(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look up `key`, refreshing its recency and counting a hit or miss.
    /// Returns a clone of the value (caches store `Arc`s, so this is
    /// reference-count traffic, not a deep copy).
    pub fn get_cloned(&mut self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some((v, used)) => {
                *used = self.tick;
                self.hits += 1;
                Some(v.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert `value` under `key`, evicting the least-recently-used entry
    /// if the cache is at capacity and `key` is new.
    pub fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.cap {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
                self.evictions += 1;
            }
        }
        self.map.insert(key, (value, self.tick));
    }

    /// Whether `key` is resident (no recency refresh, no counting).
    pub fn contains_key(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Drop every entry (counters are kept; no evictions are counted).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Snapshot the cumulative counters.
    pub fn stats(&self) -> LayerStats {
        LayerStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.map.len(),
        }
    }
}

/// One thread-shareable cache layer: an [`LruCache`] behind its own mutex.
///
/// The lock is held only for a probe or an insert; [`Layer::get_or_build`]
/// runs the build unlocked, so a slow build never blocks other keys. Two
/// callers racing on the same missing key may both build it; artifacts are
/// deterministic, so the duplicate is wasted cost only, and the last insert
/// wins. A poisoned lock (a thread panicked while holding it) is recovered
/// by clearing the layer — cached artifacts are pure cost, so the worst
/// case is cold rebuilds — and the recovery is counted.
#[derive(Debug)]
pub(crate) struct Layer<K, V> {
    lru: Mutex<LruCache<K, V>>,
    recoveries: AtomicU64,
}

impl<K: Eq + Hash + Clone, V: Clone> Layer<K, V> {
    /// A layer holding at most `cap` entries (`cap` is clamped to ≥ 1).
    pub(crate) fn new(cap: usize) -> Self {
        Layer {
            lru: Mutex::new(LruCache::new(cap)),
            recoveries: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, LruCache<K, V>> {
        self.lru.lock().unwrap_or_else(|poisoned| {
            self.lru.clear_poison();
            let mut guard = poisoned.into_inner();
            guard.clear();
            self.recoveries.fetch_add(1, Ordering::Relaxed);
            guard
        })
    }

    /// The cached value under `key`, or the result of `build` — run with
    /// the lock released, and cached when it succeeds. A failed build
    /// caches nothing and counts as a miss.
    pub(crate) fn get_or_build<E>(
        &self,
        key: K,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, CacheOutcome), E> {
        // Bound to its own statement so the guard drops before the build.
        let probe = self.lock().get_cloned(&key);
        if let Some(v) = probe {
            return Ok((v, CacheOutcome::Hit));
        }
        let v = build()?;
        self.lock().insert(key, v.clone());
        Ok((v, CacheOutcome::Miss))
    }

    /// Snapshot the cumulative counters.
    pub(crate) fn stats(&self) -> LayerStats {
        self.lock().stats()
    }

    /// How many times the lock was recovered from poisoning.
    pub(crate) fn recoveries(&self) -> u64 {
        self.recoveries.load(Ordering::Relaxed)
    }

    /// Poison the lock, as a thread panicking while holding it would.
    #[cfg(test)]
    pub(crate) fn poison(&self) {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = self.lru.lock();
            panic!("simulated panic while holding the layer lock");
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_builds_on_miss_caches_and_skips_failed_builds() {
        let layer: Layer<u32, u32> = Layer::new(2);
        assert_eq!(
            layer.get_or_build(1, || Ok::<_, ()>(10)),
            Ok((10, CacheOutcome::Miss))
        );
        assert_eq!(
            layer.get_or_build(1, || -> Result<u32, ()> { unreachable!("cached") }),
            Ok((10, CacheOutcome::Hit))
        );
        assert_eq!(layer.get_or_build(2, || Err::<u32, _>("boom")), Err("boom"));
        let s = layer.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 1));
    }

    #[test]
    fn hits_misses_and_recency() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        assert_eq!(c.get_cloned(&1), None);
        c.insert(1, 10);
        assert_eq!(c.get_cloned(&1), Some(10));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn evicts_least_recently_used_at_capacity() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        // Touch 1 so 2 becomes the LRU entry.
        assert_eq!(c.get_cloned(&1), Some(10));
        c.insert(3, 30);
        assert!(c.contains_key(&1));
        assert!(!c.contains_key(&2), "LRU entry must be evicted");
        assert!(c.contains_key(&3));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinserting_resident_key_does_not_evict() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(1, 11);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.get_cloned(&1), Some(11));
        assert!(c.contains_key(&2));
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut c: LruCache<u32, u32> = LruCache::new(0);
        assert_eq!(c.capacity(), 1);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn clear_keeps_counters() {
        let mut c: LruCache<u32, u32> = LruCache::new(4);
        c.insert(1, 10);
        c.get_cloned(&1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().entries, 0);
    }
}
