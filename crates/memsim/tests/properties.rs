//! Property-based tests of the memory-hierarchy substrate.

use colt_memsim::cache::Cache;
use colt_memsim::hierarchy::CacheHierarchy;
use colt_memsim::mmu_cache::MmuCache;
use colt_memsim::walker::PageWalker;
use colt_os_mem::addr::{Asid, Pfn, PhysAddr, Vpn};
use colt_os_mem::page_table::{PageTable, Pte, PteFlags};
use colt_quickprop::prelude::*;
use std::collections::HashSet;

/// The MMU cache as it was before single-rotate promotion: an MRU-first
/// `Vec` promoted by `remove` + `insert(0, ..)`.
struct MmuModel {
    entries: Vec<(Asid, u64)>,
    capacity: usize,
    level_hits: u64,
    level_misses: u64,
}

impl MmuModel {
    fn promote(&mut self, key: (Asid, u64)) -> bool {
        let Some(pos) = self.entries.iter().position(|&e| e == key) else { return false };
        let e = self.entries.remove(pos);
        self.entries.insert(0, e);
        true
    }

    fn lookup(&mut self, key: (Asid, u64)) -> bool {
        let hit = self.promote(key);
        if hit {
            self.level_hits += 1;
        } else {
            self.level_misses += 1;
        }
        hit
    }

    fn insert(&mut self, key: (Asid, u64)) {
        if self.promote(key) {
            return;
        }
        if self.entries.len() == self.capacity {
            self.entries.pop();
        }
        self.entries.insert(0, key);
    }
}

#[test]
#[should_panic(expected = "exceeds the set length type")]
fn cache_ways_beyond_the_length_type_panic() {
    let _ = Cache::new(256 * 64, 256); // one set of 256 ways
}

proptest! {
    /// The set-associative cache matches a reference model: an access
    /// hits iff the line is among the `ways` most recently used lines of
    /// its set.
    #[test]
    fn cache_matches_lru_model(addrs in prop::collection::vec(0u64..(1 << 14), 1..400)) {
        let mut cache = Cache::new(1024, 2); // 8 sets, 2 ways
        let num_sets = cache.num_sets() as u64;
        // Model: per-set MRU list of lines.
        let mut model: Vec<Vec<u64>> = vec![Vec::new(); num_sets as usize];
        for a in addrs {
            let addr = PhysAddr::new(a);
            let line = a / 64;
            let set = (line % num_sets) as usize;
            let model_hit = model[set].contains(&line);
            let hit = cache.access(addr);
            prop_assert_eq!(hit, model_hit, "address {:#x}", a);
            model[set].retain(|&l| l != line);
            model[set].insert(0, line);
            model[set].truncate(2);
        }
    }

    /// The flat cache keeps exact per-set LRU order at any associativity
    /// (at two ways a swap and a rotate promotion look alike): hits,
    /// evictions and occupancy match the MRU-list model, with
    /// invalidations mixed in.
    #[test]
    fn cache_matches_lru_model_at_any_associativity(
        ways_log in 0u32..4,
        ops in prop::collection::vec((0u64..(1 << 11), 0u8..8), 1..400),
    ) {
        let ways = 1usize << ways_log;
        let mut cache = Cache::new(4 * ways * 64, ways); // 4 sets
        let mut model: Vec<Vec<u64>> = vec![Vec::new(); 4];
        let mut evictions = 0;
        for (a, kind) in ops {
            let (addr, line) = (PhysAddr::new(a), a / 64);
            let set = &mut model[(line % 4) as usize];
            let resident = set.iter().position(|&l| l == line);
            if kind == 0 {
                prop_assert_eq!(cache.invalidate(addr), resident.is_some());
                if let Some(pos) = resident {
                    set.remove(pos);
                }
            } else {
                prop_assert_eq!(cache.access(addr), resident.is_some(), "address {:#x}", a);
                match resident {
                    Some(pos) => {
                        set.remove(pos);
                    }
                    None if set.len() == ways => {
                        set.pop();
                        evictions += 1;
                    }
                    None => {}
                }
                set.insert(0, line);
            }
            prop_assert_eq!(cache.stats().evictions, evictions);
            prop_assert_eq!(cache.occupancy(), model.iter().map(Vec::len).sum::<usize>());
        }
    }

    /// Cache occupancy never exceeds geometry, and flush empties it.
    #[test]
    fn cache_capacity_and_flush(addrs in prop::collection::vec(0u64..(1 << 20), 1..300)) {
        let mut cache = Cache::new(2048, 4);
        for a in &addrs {
            cache.access(PhysAddr::new(*a));
            prop_assert!(cache.occupancy() <= 32);
        }
        cache.flush();
        prop_assert_eq!(cache.occupancy(), 0);
    }

    /// The MMU cache never reports a hit for an address that was not
    /// inserted, and respects capacity.
    #[test]
    fn mmu_cache_is_honest(ops in prop::collection::vec((0u64..64, prop::bool::ANY), 1..200)) {
        let mut cache = MmuCache::new(8);
        let mut inserted: HashSet<u64> = HashSet::new();
        for (addr, insert) in ops {
            let a = PhysAddr::new(addr);
            if insert {
                cache.insert(a);
                inserted.insert(addr);
            } else if cache.lookup(a) {
                prop_assert!(inserted.contains(&addr), "phantom hit at {:#x}", addr);
            }
            prop_assert!(cache.occupancy() <= 8);
        }
    }

    /// Walks always return the page table's exact translation, with
    /// positive latency, for both native and nested modes — and nested
    /// is never cheaper than native on a cold system.
    #[test]
    fn walks_translate_exactly(
        mappings in prop::collection::vec((0u64..(1 << 18), 0u64..(1 << 16)), 1..50),
    ) {
        let mut pt = PageTable::new();
        let mut seen = HashSet::new();
        for (v, p) in &mappings {
            if seen.insert(*v) {
                pt.map_base(Vpn::new(*v), Pte::new(Pfn::new(*p), PteFlags::user_data()));
            }
        }
        let mut native = PageWalker::paper_default();
        let mut nested = PageWalker::paper_default().nested();
        let mut caches_a = CacheHierarchy::core_i7();
        let mut caches_b = CacheHierarchy::core_i7();
        for (v, _) in &mappings {
            let vpn = Vpn::new(*v);
            let truth = pt.translate(vpn).expect("mapped above").pfn;
            let a = native.walk(&pt, vpn, &mut caches_a).expect("mapped");
            let b = nested.walk(&pt, vpn, &mut caches_b).expect("mapped");
            prop_assert_eq!(a.translation.pfn, truth);
            prop_assert_eq!(b.translation.pfn, truth);
            prop_assert!(a.latency > 0 && b.latency > 0);
            prop_assert!(a.memory_accesses >= 1);
            prop_assert!(b.memory_accesses >= a.memory_accesses);
        }
        // Aggregate: nested costs strictly more on any non-trivial set.
        prop_assert!(
            nested.stats().total_latency >= native.stats().total_latency,
            "nested ({}) must cost at least native ({})",
            nested.stats().total_latency,
            native.stats().total_latency
        );
    }

    /// The MMU cache holds exactly the reference MRU order and counters
    /// after every lookup, insert, invalidation and flush.
    #[test]
    fn mmu_cache_matches_the_mru_vec_model(
        capacity in 1usize..10,
        ops in prop::collection::vec((0u8..10, 0u64..24, 0u32..2), 1..200),
    ) {
        let mut cache = MmuCache::new(capacity);
        let mut model =
            MmuModel { entries: Vec::new(), capacity, level_hits: 0, level_misses: 0 };
        for (step, &(kind, addr, asid)) in ops.iter().enumerate() {
            let (a, tag) = (PhysAddr::new(addr), Asid(asid));
            match kind {
                0..=3 => prop_assert_eq!(cache.lookup_tagged(a, tag), model.lookup((tag, addr))),
                4..=7 => {
                    cache.insert_tagged(a, tag);
                    model.insert((tag, addr));
                }
                8 => {
                    let resident = model.entries.iter().position(|&e| e == (tag, addr));
                    if let Some(pos) = resident {
                        model.entries.remove(pos);
                    }
                    prop_assert_eq!(cache.invalidate_addr_tagged(a, tag), resident.is_some());
                }
                _ if addr % 4 == 0 => {
                    cache.flush();
                    model.entries.clear();
                }
                _ => {
                    let before = model.entries.len();
                    model.entries.retain(|&(t, _)| t != tag);
                    prop_assert_eq!(cache.flush_asid(tag), before - model.entries.len());
                }
            }
            let order: Vec<(Asid, u64)> = cache.iter().map(|(t, a)| (t, a.raw())).collect();
            prop_assert_eq!(&order, &model.entries, "order after step {}", step);
            let stats = cache.stats();
            prop_assert_eq!(stats.level_hits, model.level_hits);
            prop_assert_eq!(stats.level_misses, model.level_misses);
        }
    }
}
