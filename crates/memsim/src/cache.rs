//! Generic set-associative cache with LRU replacement, used for the L1,
//! L2, and last-level data caches of the simulated memory hierarchy
//! (paper §5.2.1: 32KB L1 / 256KB L2 / 4MB LLC, Core-i7-like).

use colt_os_mem::addr::{PhysAddr, CACHE_LINE_SIZE};

/// Hit/miss counters for one cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Lines evicted.
    pub evictions: u64,
}

impl CacheStats {
    /// Miss ratio over all accesses.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.misses as f64 / total as f64
    }
}

/// A physically indexed set-associative cache of 64-byte lines.
///
/// ```
/// use colt_memsim::cache::Cache;
/// use colt_os_mem::addr::PhysAddr;
/// let mut c = Cache::new(32 * 1024, 8); // 32KB, 8-way
/// assert!(!c.access(PhysAddr::new(0x1000)));  // cold miss
/// assert!(c.access(PhysAddr::new(0x1008)));   // same line: hit
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    /// Line numbers, `ways` slots per set, set-major. Set `s` holds its
    /// `lens[s]` resident lines in `lines[s * ways..][..lens[s]]`, MRU
    /// first.
    lines: Vec<u64>,
    lens: Vec<u8>,
    ways: usize,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache of `size_bytes` with `ways` associativity.
    ///
    /// # Panics
    /// Panics unless the resulting set count is a positive power of two
    /// and `ways` fits a set's `u8` live count.
    pub fn new(size_bytes: usize, ways: usize) -> Self {
        assert!(ways > 0, "associativity must be positive");
        assert!(u8::try_from(ways).is_ok(), "associativity {ways} exceeds the set length type");
        let lines = size_bytes / CACHE_LINE_SIZE as usize;
        assert!(lines.is_multiple_of(ways), "size must divide into ways");
        let num_sets = lines / ways;
        assert!(num_sets.is_power_of_two(), "set count must be a power of two");
        Self {
            lines: vec![0; num_sets * ways],
            lens: vec![0; num_sets],
            ways,
            stats: CacheStats::default(),
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.lens.len()
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn set_index(&self, line: u64) -> usize {
        (line as usize) & (self.lens.len() - 1)
    }

    /// Accesses `addr`, returning `true` on a hit. Misses allocate the
    /// line (evicting LRU if needed).
    pub fn access(&mut self, addr: PhysAddr) -> bool {
        let line = addr.cache_line();
        let idx = self.set_index(line);
        let len = self.lens[idx] as usize;
        let set = &mut self.lines[idx * self.ways..][..self.ways];
        if let Some(pos) = set[..len].iter().position(|&l| l == line) {
            set[..=pos].rotate_right(1);
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        if len == self.ways {
            self.stats.evictions += 1;
            set.copy_within(..len - 1, 1);
        } else {
            set.copy_within(..len, 1);
            self.lens[idx] += 1;
        }
        set[0] = line;
        false
    }

    /// Checks residency without updating LRU or counters.
    pub fn probe(&self, addr: PhysAddr) -> bool {
        let line = addr.cache_line();
        let idx = self.set_index(line);
        self.lines[idx * self.ways..][..self.lens[idx] as usize].contains(&line)
    }

    /// Invalidates the line containing `addr`, if present.
    pub fn invalidate(&mut self, addr: PhysAddr) -> bool {
        let line = addr.cache_line();
        let idx = self.set_index(line);
        let len = self.lens[idx] as usize;
        let set = &mut self.lines[idx * self.ways..][..len];
        if let Some(pos) = set.iter().position(|&l| l == line) {
            set.copy_within(pos + 1.., pos);
            self.lens[idx] -= 1;
            return true;
        }
        false
    }

    /// Empties the cache.
    pub fn flush(&mut self) {
        self.lens.fill(0);
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.lens.iter().map(|&n| n as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_is_derived_from_size_and_ways() {
        let c = Cache::new(32 * 1024, 8);
        assert_eq!(c.num_sets(), 64);
        let c = Cache::new(4 * 1024 * 1024, 16);
        assert_eq!(c.num_sets(), 4096);
    }

    #[test]
    fn same_line_hits_after_miss() {
        let mut c = Cache::new(1024, 2);
        assert!(!c.access(PhysAddr::new(100)));
        assert!(c.access(PhysAddr::new(100)));
        assert!(c.access(PhysAddr::new(127)), "same 64B line");
        assert!(!c.access(PhysAddr::new(128)), "next line misses");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = Cache::new(256, 2); // 2 sets, 2 ways
        // Lines 0, 2, 4 all map to set 0 (even line numbers).
        c.access(PhysAddr::new(0));
        c.access(PhysAddr::new(2 * 64));
        c.access(PhysAddr::new(0)); // line 0 MRU
        c.access(PhysAddr::new(4 * 64)); // evicts line 2
        assert!(c.probe(PhysAddr::new(0)));
        assert!(!c.probe(PhysAddr::new(2 * 64)));
        assert!(c.probe(PhysAddr::new(4 * 64)));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn invalidate_and_flush() {
        let mut c = Cache::new(1024, 2);
        c.access(PhysAddr::new(0));
        c.access(PhysAddr::new(64));
        assert!(c.invalidate(PhysAddr::new(0)));
        assert!(!c.invalidate(PhysAddr::new(0)));
        assert_eq!(c.occupancy(), 1);
        c.flush();
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn miss_ratio_computation() {
        let mut c = Cache::new(1024, 2);
        c.access(PhysAddr::new(0));
        c.access(PhysAddr::new(0));
        c.access(PhysAddr::new(0));
        c.access(PhysAddr::new(4096));
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panic() {
        let _ = Cache::new(192, 1);
    }
}
