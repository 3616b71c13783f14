//! A small bounded LRU cache with hit/miss/eviction accounting.
//!
//! Every cache layer of the exploration engine ([`crate::Explorer`]) is
//! one of these: a capped map whose counters feed the per-command
//! [`crate::explore::CacheProvenance`]. Capacities are small (tens of
//! entries of expensive artifacts), so eviction scans for the
//! least-recently-used entry instead of maintaining an intrusive list —
//! `O(entries)` on insert-at-capacity, zero overhead on hits.

use qagview_common::FxHashMap;
use std::hash::Hash;

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

#[cfg(test)]
mod tests {
    use super::*;

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
