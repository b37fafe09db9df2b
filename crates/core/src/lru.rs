//! A tiny string-keyed LRU map: the snapshot cache's memory layer.
//!
//! Each prepared workload is several megabytes and a long run (`repro
//! all`) prepares many distinct (scenario, benchmark) pairs, so the
//! in-memory preparation cache is bounded by one of these maps and
//! evicts least-recently-used entries past its capacity (evictions are
//! counted and reported, never silent).
//!
//! The implementation is a `VecDeque` scanned linearly: capacities are
//! tens of entries whose values are multi-megabyte
//! `Arc<PreparedWorkload>`s, so the O(n) scan is noise next to what the
//! entries themselves cost to make. The `const` constructor keeps it
//! usable in a `static Mutex<LruMap<_>>` cell.

use std::collections::VecDeque;

/// String-keyed LRU map. Front of the deque is least-recently-used,
/// back is most-recently-used.
pub struct LruMap<V> {
    cap: usize,
    entries: VecDeque<(String, V)>,
}

impl<V> LruMap<V> {
    /// A map that holds at most `cap` entries.
    pub const fn bounded(cap: usize) -> Self {
        LruMap { cap, entries: VecDeque::new() }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the map holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks `key` up and, on a hit, marks it most-recently-used.
    pub fn get(&mut self, key: &str) -> Option<&V> {
        let pos = self.entries.iter().position(|(k, _)| k == key)?;
        let entry = self.entries.remove(pos).expect("position came from iter");
        self.entries.push_back(entry);
        self.entries.back().map(|(_, v)| v)
    }

    /// Looks `key` up without touching the recency order (for stats and
    /// tests).
    pub fn peek(&self, key: &str) -> Option<&V> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Inserts (or replaces) `key`, marking it most-recently-used, then
    /// evicts LRU-first past the capacity. Returns how many entries were
    /// evicted.
    pub fn insert(&mut self, key: String, value: V) -> u64 {
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(pos);
        }
        self.entries.push_back((key, value));
        self.trim()
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    fn trim(&mut self) -> u64 {
        let mut evicted = 0;
        while self.entries.len() > self.cap {
            self.entries.pop_front();
            evicted += 1;
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_and_peek_round_trip() {
        let mut m: LruMap<u32> = LruMap::bounded(8);
        assert!(m.is_empty());
        assert_eq!(m.insert("a".into(), 1), 0);
        assert_eq!(m.insert("b".into(), 2), 0);
        assert_eq!(m.get("a"), Some(&1));
        assert_eq!(m.peek("b"), Some(&2));
        assert_eq!(m.get("missing"), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn capacity_evicts_least_recently_used_first() {
        let mut m: LruMap<u32> = LruMap::bounded(2);
        m.insert("a".into(), 1);
        m.insert("b".into(), 2);
        // Touch "a": it becomes MRU, so the next insert evicts "b".
        assert_eq!(m.get("a"), Some(&1));
        assert_eq!(m.insert("c".into(), 3), 1);
        assert!(m.peek("a").is_some());
        assert!(m.peek("b").is_none(), "the LRU entry is the one evicted");
        assert!(m.peek("c").is_some());
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn replacing_a_key_does_not_evict_and_refreshes_recency() {
        let mut m: LruMap<u32> = LruMap::bounded(2);
        m.insert("a".into(), 1);
        m.insert("b".into(), 2);
        assert_eq!(m.insert("a".into(), 10), 0, "replacement is not an eviction");
        assert_eq!(m.len(), 2);
        assert_eq!(m.peek("a"), Some(&10));
        // "a" was refreshed, so "b" is now the LRU victim.
        m.insert("c".into(), 3);
        assert!(m.peek("b").is_none());
        assert!(m.peek("a").is_some());
    }
}
