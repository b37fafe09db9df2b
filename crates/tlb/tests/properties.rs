//! Property-based tests of the TLB structures' core invariants.

use colt_os_mem::addr::{Asid, Pfn, Vpn};
use colt_os_mem::page_table::{PageTable, Pte, PteFlags};
use colt_tlb::coalesce::coalesce_line;
use colt_tlb::config::TlbConfig;
use colt_tlb::entry::{CoalescedRun, RangeEntry, RangeKind, SaEntry};
use colt_tlb::fully_assoc::{FaHit, FaStats, FullyAssocTlb};
use colt_tlb::hierarchy::{TlbHierarchy, WalkFill};
use colt_tlb::replacement::ReplacementPolicy;
use colt_tlb::set_assoc::{SaHit, SaStats, SetAssocTlb};
use colt_quickprop::prelude::*;

/// A random page table over a window of vpns, with runs of contiguity.
fn arbitrary_page_table() -> impl Strategy<Value = PageTable> {
    // Pairs of (run start offset gap, run length); built left to right.
    prop::collection::vec((0u64..6, 1u64..12, prop::bool::ANY), 1..40).prop_map(|segments| {
        let mut pt = PageTable::new();
        let mut vpn = 0x100u64;
        let mut pfn = 0x9000u64;
        for (gap, len, dirty) in segments {
            vpn += gap;
            pfn += gap * 7 + 13; // decorrelate frames between runs
            let flags = if dirty {
                PteFlags::user_data().with(PteFlags::DIRTY)
            } else {
                PteFlags::user_data()
            };
            for i in 0..len {
                pt.map_base(Vpn::new(vpn + i), Pte::new(Pfn::new(pfn + i), flags));
            }
            vpn += len;
            pfn += len;
        }
        pt
    })
}

proptest! {
    /// Whatever the page-table contents, the coalescing logic's run always
    /// contains the requested translation, translates every covered page
    /// exactly as the page table does, and never leaves the cache line.
    #[test]
    fn coalesced_runs_agree_with_the_page_table(pt in arbitrary_page_table()) {
        for (vpn, _pte) in pt.iter_base() {
            let line = pt.pte_line(vpn);
            let run = coalesce_line(&line, vpn).expect("mapped slot must coalesce");
            prop_assert!(run.contains(vpn));
            prop_assert!(run.len <= 8);
            prop_assert!(run.start_vpn >= line.base_vpn);
            prop_assert!(run.end_vpn() <= line.base_vpn.offset(8));
            for v in run.start_vpn.raw()..run.end_vpn().raw() {
                let v = Vpn::new(v);
                let expected = pt.translate(v).expect("covered page must be mapped");
                prop_assert_eq!(run.translate(v), Some(expected.pfn));
                prop_assert_eq!(run.flags, expected.flags);
            }
        }
    }

    /// The coalesced run is *maximal* within the line: the slots
    /// immediately before and after cannot extend it.
    #[test]
    fn coalesced_runs_are_maximal(pt in arbitrary_page_table()) {
        for (vpn, _pte) in pt.iter_base() {
            let line = pt.pte_line(vpn);
            let run = coalesce_line(&line, vpn).unwrap();
            if run.start_vpn > line.base_vpn {
                let before = Vpn::new(run.start_vpn.raw() - 1);
                let extends = pt.translate(before).is_some_and(|t| {
                    t.pfn.is_followed_by(run.base_pfn) && t.flags == run.flags
                        && matches!(t.kind, colt_os_mem::page_table::PageKind::Base)
                });
                prop_assert!(!extends, "run not maximal on the left at {before}");
            }
            let after = run.end_vpn();
            if after < line.base_vpn.offset(8) {
                let last_pfn = run.base_pfn.offset(run.len - 1);
                let extends = pt.translate(after).is_some_and(|t| {
                    last_pfn.is_followed_by(t.pfn) && t.flags == run.flags
                        && matches!(t.kind, colt_os_mem::page_table::PageKind::Base)
                });
                prop_assert!(!extends, "run not maximal on the right at {after}");
            }
        }
    }

    /// A set-associative TLB never returns a wrong translation: whatever
    /// sequence of inserts happens, a hit always reproduces what was
    /// inserted for that vpn.
    #[test]
    fn set_assoc_hits_are_always_correct(
        runs in prop::collection::vec((0u64..512, 1u64..=4), 1..60),
        shift in 0u32..=3,
        probes in prop::collection::vec(0u64..520, 1..60),
    ) {
        let mut tlb = SetAssocTlb::new(32, 4, shift);
        // Ground truth: pfn = vpn + 10_000 for every inserted translation.
        let mut inserted = std::collections::HashSet::new();
        for (start, len) in runs {
            let run = CoalescedRun::new(
                Vpn::new(start),
                Pfn::new(start + 10_000),
                len,
                PteFlags::user_data(),
            );
            if let Some(r) = run.restrict_to_group(Vpn::new(start), shift) {
                tlb.insert(r);
                for v in r.start_vpn.raw()..r.end_vpn().raw() {
                    inserted.insert(v);
                }
            }
        }
        for p in probes {
            if let Some(pfn) = tlb.probe(Vpn::new(p)) {
                prop_assert!(inserted.contains(&p), "hit on never-inserted vpn {p}");
                prop_assert_eq!(pfn.raw(), p + 10_000, "wrong translation for vpn {}", p);
            }
        }
    }

    /// Set-associative occupancy never exceeds ways per set, across any
    /// insert sequence.
    #[test]
    fn set_assoc_capacity_is_respected(
        vpns in prop::collection::vec(0u64..4096, 1..200),
        shift in 0u32..=3,
    ) {
        let mut tlb = SetAssocTlb::new(32, 4, shift);
        for v in vpns {
            tlb.insert(CoalescedRun::single(
                Vpn::new(v),
                Pfn::new(v + 1),
                PteFlags::user_data(),
            ));
            prop_assert!(tlb.occupancy() <= 32);
        }
    }

    /// Fully-associative merging never changes what any vpn translates
    /// to, and occupancy never exceeds capacity.
    #[test]
    fn fa_merging_preserves_translations(
        segments in prop::collection::vec((0u64..2, 1u64..10), 1..30),
    ) {
        let mut tlb = FullyAssocTlb::new(8);
        let mut vpn = 1000u64;
        let mut expected: Vec<(u64, u64)> = Vec::new();
        for (gap, len) in segments {
            vpn += gap;
            let run = CoalescedRun::new(
                Vpn::new(vpn),
                Pfn::new(vpn + 5_000), // single global anchor → merges legal
                len,
                PteFlags::user_data(),
            );
            tlb.insert_coalesced_with_merge(run);
            for v in vpn..vpn + len {
                expected.push((v, v + 5_000));
            }
            vpn += len;
            prop_assert!(tlb.occupancy() <= 8);
        }
        // Every vpn that still hits translates correctly.
        for (v, p) in expected {
            if let Some(pfn) = tlb.probe(Vpn::new(v)) {
                prop_assert_eq!(pfn.raw(), p);
            }
        }
        // Entries never overlap.
        let entries: Vec<_> = tlb.iter().map(RangeEntry::run).collect();
        for (i, a) in entries.iter().enumerate() {
            for b in &entries[i + 1..] {
                prop_assert!(
                    a.end_vpn() <= b.start_vpn || b.end_vpn() <= a.start_vpn,
                    "overlapping FA entries {:?} and {:?}", a, b
                );
            }
        }
    }

    /// End-to-end invariant: for any page table and any access sequence,
    /// every hierarchy mode returns exactly the page table's translation
    /// (TLBs must be transparent), and fills make the missed vpn present.
    #[test]
    fn hierarchies_are_transparent_caches(
        pt in arbitrary_page_table(),
        seed in 0u64..1000,
    ) {
        let mapped: Vec<Vpn> = pt.iter_base().map(|(v, _)| v).collect();
        prop_assume!(!mapped.is_empty());
        for config in [
            TlbConfig::baseline(),
            TlbConfig::colt_sa(),
            TlbConfig::colt_fa(),
            TlbConfig::colt_all(),
        ] {
            let mut tlb = TlbHierarchy::new(config);
            // Deterministic pseudo-random access pattern over mapped vpns.
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            for _ in 0..200 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let vpn = mapped[(state >> 33) as usize % mapped.len()];
                let expected = pt.translate(vpn).expect("accessing mapped page");
                match tlb.lookup(vpn) {
                    Some(hit) => prop_assert_eq!(
                        hit.pfn, expected.pfn,
                        "mode {:?} returned a wrong translation for {}",
                        config.mode, vpn
                    ),
                    None => {
                        tlb.fill(vpn, &WalkFill::Base { line: pt.pte_line(vpn) });
                        prop_assert_eq!(
                            tlb.lookup(vpn).map(|h| h.pfn),
                            Some(expected.pfn),
                            "fill must make {} present", vpn
                        );
                    }
                }
            }
            let s = tlb.stats();
            prop_assert_eq!(s.l1_hits + s.l1_misses, s.accesses);
            prop_assert_eq!(s.l2_hits + s.l2_misses, s.l1_misses);
        }
    }

    /// Coalescing modes never have *more* L2 misses than baseline on
    /// sequential sweeps over contiguous memory (the paper's core claim
    /// in its most favorable setting).
    #[test]
    fn coalescing_wins_on_contiguous_sweeps(pages in 32u64..256) {
        let mut pt = PageTable::new();
        for i in 0..pages {
            pt.map_base(Vpn::new(0x100 + i), Pte::new(Pfn::new(0x5000 + i), PteFlags::user_data()));
        }
        let run = |config: TlbConfig| {
            let mut tlb = TlbHierarchy::new(config);
            for sweep in 0..3 {
                for i in 0..pages {
                    let vpn = Vpn::new(0x100 + i);
                    if tlb.lookup(vpn).is_none() {
                        tlb.fill(vpn, &WalkFill::Base { line: pt.pte_line(vpn) });
                    }
                    let _ = sweep;
                }
            }
            tlb.stats().l2_misses
        };
        let base = run(TlbConfig::baseline());
        prop_assert!(run(TlbConfig::colt_sa()) <= base);
        prop_assert!(run(TlbConfig::colt_fa()) <= base);
        prop_assert!(run(TlbConfig::colt_all()) <= base);
    }
}

proptest! {
    /// Graceful invalidation removes exactly the victim translation:
    /// every other translation the entry held keeps translating exactly
    /// as before, in both set-associative and fully-associative TLBs.
    #[test]
    fn graceful_invalidation_is_surgical(
        start in 0u64..1000,
        len in 1u64..=8,
        victim_off in 0u64..8,
    ) {
        let victim_off = victim_off % len;
        let run = CoalescedRun::new(
            Vpn::new(start * 8), // group-aligned for shift 3
            Pfn::new(5000 + start * 8),
            len,
            PteFlags::user_data(),
        );
        let victim = run.start_vpn.offset(victim_off);

        let mut sa = SetAssocTlb::new(32, 4, 3);
        sa.insert(run);
        sa.invalidate_graceful(victim);
        let mut fa = FullyAssocTlb::new(8);
        fa.insert(RangeEntry::coalesced(run));
        fa.invalidate_graceful(victim);

        for v in run.start_vpn.raw()..run.end_vpn().raw() {
            let v = Vpn::new(v);
            let expected = if v == victim { None } else { run.translate(v) };
            prop_assert_eq!(sa.probe(v), expected, "SA at {}", v);
            prop_assert_eq!(fa.probe(v), expected, "FA at {}", v);
        }
    }

    /// The coalescing-aware replacement policy never violates capacity
    /// and never produces wrong translations.
    #[test]
    fn coalesced_first_policy_is_safe(
        runs in prop::collection::vec((0u64..256, 1u64..=4), 1..80),
    ) {
        use colt_tlb::replacement::ReplacementPolicy;
        let mut tlb = SetAssocTlb::new(16, 2, 2)
            .with_policy(ReplacementPolicy::SmallestCoalescedFirst);
        for (start, len) in runs {
            let run = CoalescedRun::new(
                Vpn::new(start),
                Pfn::new(start + 7000),
                len,
                PteFlags::user_data(),
            );
            if let Some(r) = run.restrict_to_group(Vpn::new(start), 2) {
                tlb.insert(r);
            }
            prop_assert!(tlb.occupancy() <= 16);
        }
        for v in 0..260u64 {
            if let Some(pfn) = tlb.probe(Vpn::new(v)) {
                prop_assert_eq!(pfn.raw(), v + 7000);
            }
        }
    }

    /// Masked coalescing with DIRTY ignored yields runs at least as long
    /// as strict coalescing, never longer than the line, and always
    /// correct.
    #[test]
    fn masked_coalescing_dominates_strict(dirty_mask in 0u8..=255) {
        use colt_tlb::coalesce::coalesce_line_masked;
        let mut pt = PageTable::new();
        for i in 0..8u64 {
            let flags = if dirty_mask & (1 << i) != 0 {
                PteFlags::user_data().with(PteFlags::DIRTY)
            } else {
                PteFlags::user_data()
            };
            pt.map_base(Vpn::new(64 + i), Pte::new(Pfn::new(900 + i), flags));
        }
        let line = pt.pte_line(Vpn::new(64));
        for i in 0..8u64 {
            let vpn = Vpn::new(64 + i);
            let strict = coalesce_line(&line, vpn).unwrap();
            let masked = coalesce_line_masked(&line, vpn, PteFlags::DIRTY).unwrap();
            prop_assert!(masked.len >= strict.len);
            prop_assert_eq!(masked.len, 8, "all frames contiguous, DIRTY tolerated");
            for v in masked.start_vpn.raw()..masked.end_vpn().raw() {
                let v = Vpn::new(v);
                prop_assert_eq!(masked.translate(v), Some(pt.translate(v).unwrap().pfn));
            }
        }
    }
}

/// The set-associative TLB as it was stored before the flat layout: one
/// MRU-first `Vec` per set, promotion by `remove` + `insert(0, ..)`, and
/// victims picked from a collected candidate list. The model tests below
/// hold the real structure to this reference state after every operation.
struct SaModel {
    sets: Vec<Vec<SaEntry>>,
    ways: usize,
    shift: u32,
    policy: ReplacementPolicy,
    stats: SaStats,
}

/// Victim index into `candidates` (`(lru_rank, len)`, higher rank = staler).
fn model_victim(policy: ReplacementPolicy, candidates: &[(usize, u64)]) -> usize {
    let ranked = candidates.iter().enumerate();
    match policy {
        ReplacementPolicy::Lru => ranked.max_by_key(|(_, &(rank, _))| rank),
        ReplacementPolicy::SmallestCoalescedFirst => {
            ranked.min_by_key(|(_, &(rank, len))| (len, usize::MAX - rank))
        }
    }
    .expect("victim selection needs candidates")
    .0
}

impl SaModel {
    fn new(entries: usize, ways: usize, shift: u32, policy: ReplacementPolicy) -> Self {
        Self {
            sets: vec![Vec::new(); entries / ways],
            ways,
            shift,
            policy,
            stats: SaStats::default(),
        }
    }

    fn set_index(&self, vpn: Vpn) -> usize {
        ((vpn.raw() >> self.shift) as usize) & (self.sets.len() - 1)
    }

    fn lookup_tagged(&mut self, vpn: Vpn, asid: Asid) -> Option<SaHit> {
        let idx = self.set_index(vpn);
        let set = &mut self.sets[idx];
        if let Some(pos) = set.iter().position(|e| e.asid() == asid && e.lookup(vpn).is_some()) {
            let entry = set.remove(pos);
            let hit = SaHit {
                pfn: entry.lookup(vpn).unwrap(),
                flags: entry.flags(),
                entry_len: entry.coalesced_len(),
                run: entry.run(),
            };
            set.insert(0, entry);
            self.stats.hits += 1;
            return Some(hit);
        }
        self.stats.misses += 1;
        None
    }

    fn insert_tagged(&mut self, run: CoalescedRun, asid: Asid) -> Option<SaEntry> {
        let entry = SaEntry::new_tagged(run, self.shift, asid);
        let idx = self.set_index(run.start_vpn);
        let shift = self.shift;
        let set = &mut self.sets[idx];
        self.stats.insertions += 1;
        for pos in 0..set.len() {
            if set[pos].asid() == asid && set[pos].group(shift) == entry.group(shift) {
                if let Some(union) = set[pos].run().try_union(&run) {
                    set.remove(pos);
                    set.insert(0, SaEntry::new_tagged(union, shift, asid));
                    self.stats.merges += 1;
                    return None;
                }
            }
        }
        let evicted = if set.len() == self.ways {
            self.stats.evictions += 1;
            let candidates: Vec<(usize, u64)> =
                set.iter().enumerate().map(|(rank, e)| (rank, e.coalesced_len())).collect();
            Some(set.remove(model_victim(self.policy, &candidates)))
        } else {
            None
        };
        set.insert(0, entry);
        evicted
    }

    fn invalidate_graceful_filtered(&mut self, vpn: Vpn, filter: Option<Asid>) -> usize {
        let idx = self.set_index(vpn);
        let (shift, ways, policy) = (self.shift, self.ways, self.policy);
        let set = &mut self.sets[idx];
        let mut affected = 0;
        let mut pos = 0;
        while pos < set.len() {
            if filter.is_some_and(|a| set[pos].asid() != a) {
                pos += 1;
                continue;
            }
            let entry_asid = set[pos].asid();
            if let Some((left, right)) = set[pos].run().split_at(vpn) {
                affected += 1;
                set.remove(pos);
                let mut insert_at = pos;
                for remnant in [left, right].into_iter().flatten() {
                    if set.len() >= ways {
                        let candidates: Vec<(usize, u64)> = set
                            .iter()
                            .enumerate()
                            .filter(|(rank, _)| !(pos..insert_at).contains(rank))
                            .map(|(rank, e)| (rank, e.coalesced_len()))
                            .collect();
                        if candidates.is_empty() {
                            continue;
                        }
                        let victim = candidates[model_victim(policy, &candidates)].0;
                        self.stats.evictions += 1;
                        set.remove(victim);
                        if victim < insert_at {
                            insert_at -= 1;
                            if victim < pos {
                                pos -= 1;
                            }
                        }
                    }
                    set.insert(
                        insert_at.min(set.len()),
                        SaEntry::new_tagged(remnant, shift, entry_asid),
                    );
                    insert_at += 1;
                }
            } else {
                pos += 1;
            }
        }
        self.stats.invalidations += affected as u64;
        affected
    }

    fn retain_in(&mut self, vpn: Option<Vpn>, keep: impl Fn(&SaEntry) -> bool) -> usize {
        let mut removed = 0;
        let only = vpn.map(|v| self.set_index(v));
        for (idx, set) in self.sets.iter_mut().enumerate() {
            if only.is_none_or(|o| o == idx) {
                let before = set.len();
                set.retain(&keep);
                removed += before - set.len();
            }
        }
        self.stats.invalidations += removed as u64;
        removed
    }

    fn iter(&self) -> Vec<SaEntry> {
        self.sets.iter().flatten().copied().collect()
    }
}

/// The fully-associative TLB's pre-rotate reference, as [`SaModel`] is
/// for the set-associative one.
struct FaModel {
    entries: Vec<RangeEntry>,
    capacity: usize,
    policy: ReplacementPolicy,
    stats: FaStats,
}

impl FaModel {
    fn lookup_tagged(&mut self, vpn: Vpn, asid: Asid) -> Option<FaHit> {
        if let Some(pos) =
            self.entries.iter().position(|e| e.asid() == asid && e.lookup(vpn).is_some())
        {
            let entry = self.entries.remove(pos);
            let hit = FaHit {
                pfn: entry.lookup(vpn).unwrap(),
                flags: entry.flags(),
                entry_len: entry.run().len,
                superpage: entry.kind() == RangeKind::Superpage,
            };
            self.entries.insert(0, entry);
            self.stats.hits += 1;
            return Some(hit);
        }
        self.stats.misses += 1;
        None
    }

    fn insert(&mut self, entry: RangeEntry) -> Option<RangeEntry> {
        self.stats.insertions += 1;
        let evicted = if self.entries.len() == self.capacity {
            self.stats.evictions += 1;
            let candidates: Vec<(usize, u64)> =
                self.entries.iter().enumerate().map(|(rank, e)| (rank, e.run().len)).collect();
            Some(self.entries.remove(model_victim(self.policy, &candidates)))
        } else {
            None
        };
        self.entries.insert(0, entry);
        evicted
    }

    fn invalidate_graceful_filtered(&mut self, vpn: Vpn, filter: Option<Asid>) -> usize {
        let mut affected = 0;
        let mut pos = 0;
        while pos < self.entries.len() {
            if filter.is_some_and(|a| self.entries[pos].asid() != a)
                || self.entries[pos].lookup(vpn).is_none()
            {
                pos += 1;
                continue;
            }
            affected += 1;
            let entry = self.entries.remove(pos);
            if entry.kind() == RangeKind::Superpage {
                continue;
            }
            let (left, right) = entry.run().split_at(vpn).unwrap();
            let mut insert_at = pos;
            for remnant in [left, right].into_iter().flatten() {
                if self.entries.len() >= self.capacity {
                    let candidates: Vec<(usize, u64)> = self
                        .entries
                        .iter()
                        .enumerate()
                        .filter(|(rank, _)| !(pos..insert_at).contains(rank))
                        .map(|(rank, e)| (rank, e.run().len))
                        .collect();
                    if candidates.is_empty() {
                        continue;
                    }
                    let victim = candidates[model_victim(self.policy, &candidates)].0;
                    self.stats.evictions += 1;
                    self.entries.remove(victim);
                    if victim < insert_at {
                        insert_at -= 1;
                        if victim < pos {
                            pos -= 1;
                        }
                    }
                }
                self.entries.insert(
                    insert_at.min(self.entries.len()),
                    RangeEntry::coalesced_tagged(remnant, entry.asid()),
                );
                insert_at += 1;
            }
        }
        self.stats.invalidations += affected as u64;
        affected
    }

    fn insert_coalesced_with_merge_tagged(
        &mut self,
        run: CoalescedRun,
        asid: Asid,
    ) -> Option<RangeEntry> {
        let mut acc = run;
        loop {
            let mut merged_any = false;
            let mut pos = 0;
            while pos < self.entries.len() {
                if self.entries[pos].asid() == asid {
                    if let Some(merged) = self.entries[pos].try_merge(&acc) {
                        self.entries.remove(pos);
                        acc = merged.run();
                        self.stats.merges += 1;
                        merged_any = true;
                        continue;
                    }
                }
                pos += 1;
            }
            if !merged_any {
                break;
            }
        }
        self.insert(RangeEntry::coalesced_tagged(acc, asid))
    }

    fn retain(&mut self, keep: impl Fn(&RangeEntry) -> bool) -> usize {
        let before = self.entries.len();
        self.entries.retain(keep);
        let removed = before - self.entries.len();
        self.stats.invalidations += removed as u64;
        removed
    }
}

/// A TLB operation drawn as `(kind, vpn, len, anchor, asid, dirty)`.
type RawOp = (u8, u64, u64, u64, u32, bool);

fn raw_ops() -> impl Strategy<Value = Vec<RawOp>> {
    let op = (0u8..20, 0u64..96, 1u64..12, 0u64..2, 0u32..2, prop::bool::ANY);
    prop::collection::vec(op, 1..160)
}

/// A run from `vpn` whose frames follow one of two anchors, so runs with
/// equal anchors and attributes can merge.
fn model_run(vpn: u64, len: u64, anchor: u64, dirty: bool) -> CoalescedRun {
    let flags =
        if dirty { PteFlags::user_data().with(PteFlags::DIRTY) } else { PteFlags::user_data() };
    CoalescedRun::new(Vpn::new(vpn), Pfn::new(vpn + 1000 * (anchor + 1)), len, flags)
}

fn policy_of(smallest_first: bool) -> ReplacementPolicy {
    if smallest_first {
        ReplacementPolicy::SmallestCoalescedFirst
    } else {
        ReplacementPolicy::Lru
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The flat set-associative TLB holds exactly the reference state
    /// after every operation: same entries in the same MRU order per
    /// set, the same hits and evicted entries, the same counters — under
    /// both replacement policies, merges, every invalidation flavour and
    /// flushes.
    #[test]
    fn set_assoc_matches_the_mru_vec_model(
        geometry in (0u32..3, 0u32..3, 0u32..4, prop::bool::ANY),
        ops in raw_ops(),
    ) {
        let (ways_log, sets_log, shift, smallest_first) = geometry;
        let (ways, entries) = (1usize << ways_log, 1usize << (ways_log + sets_log));
        let policy = policy_of(smallest_first);
        let mut tlb = SetAssocTlb::new(entries, ways, shift).with_policy(policy);
        let mut model = SaModel::new(entries, ways, shift, policy);
        for (step, &(kind, v, len, anchor, asid, dirty)) in ops.iter().enumerate() {
            let (vpn, tag) = (Vpn::new(v), Asid(asid));
            match kind {
                0..=6 => {
                    let group_end = (v >> shift << shift) + (1 << shift);
                    let run = model_run(v, len.min(group_end - v), anchor, dirty);
                    let got =
                        if asid == 0 { tlb.insert(run) } else { tlb.insert_tagged(run, tag) };
                    prop_assert_eq!(got, model.insert_tagged(run, tag), "insert, step {}", step);
                }
                7..=12 => {
                    let got =
                        if asid == 0 { tlb.lookup(vpn) } else { tlb.lookup_tagged(vpn, tag) };
                    prop_assert_eq!(got, model.lookup_tagged(vpn, tag), "lookup, step {}", step);
                }
                13 => prop_assert_eq!(
                    tlb.invalidate(vpn),
                    model.retain_in(Some(vpn), |e| e.lookup(vpn).is_none())
                ),
                14 => prop_assert_eq!(
                    tlb.invalidate_asid(vpn, tag),
                    model.retain_in(Some(vpn), |e| e.asid() != tag || e.lookup(vpn).is_none())
                ),
                15 | 16 => prop_assert_eq!(
                    tlb.invalidate_graceful(vpn),
                    model.invalidate_graceful_filtered(vpn, None)
                ),
                17 => prop_assert_eq!(
                    tlb.invalidate_graceful_asid(vpn, tag),
                    model.invalidate_graceful_filtered(vpn, Some(tag))
                ),
                18 => {
                    prop_assert_eq!(tlb.flush_asid(tag), model.retain_in(None, |e| e.asid() != tag))
                }
                _ => {
                    tlb.flush();
                    model.retain_in(None, |_| false);
                }
            }
            let order: Vec<SaEntry> = tlb.iter().copied().collect();
            prop_assert_eq!(order, model.iter(), "order after step {}", step);
            prop_assert_eq!(tlb.stats(), model.stats, "counters after step {}", step);
        }
    }

    /// The fully-associative TLB holds exactly the reference state after
    /// every operation, with coalesced ranges, superpages, resident
    /// merging, every invalidation flavour and flushes.
    #[test]
    fn fully_assoc_matches_the_mru_vec_model(
        geometry in (1usize..9, prop::bool::ANY),
        ops in raw_ops(),
    ) {
        let (capacity, smallest_first) = geometry;
        let policy = policy_of(smallest_first);
        let mut tlb = FullyAssocTlb::new(capacity).with_policy(policy);
        let mut model =
            FaModel { entries: Vec::new(), capacity, policy, stats: FaStats::default() };
        for (step, &(kind, v, len, anchor, asid, dirty)) in ops.iter().enumerate() {
            let tag = Asid(asid);
            // Lookups and invalidations also reach the two superpages'
            // regions above the coalesced window.
            let vpn = Vpn::new(v + 512 * (len % 3));
            match kind {
                0..=3 => {
                    let run = model_run(v, len, anchor, dirty);
                    let entry = RangeEntry::coalesced_tagged(run, tag);
                    prop_assert_eq!(tlb.insert(entry), model.insert(entry), "step {}", step);
                }
                4 => {
                    let k = 1 + anchor;
                    let entry = RangeEntry::superpage_tagged(
                        Vpn::new(512 * k), Pfn::new(512 * (k + 8)), PteFlags::user_data(), tag,
                    );
                    prop_assert_eq!(tlb.insert(entry), model.insert(entry), "step {}", step);
                }
                5 | 6 => {
                    let run = model_run(v, len, anchor, dirty);
                    let got = if asid == 0 {
                        tlb.insert_coalesced_with_merge(run)
                    } else {
                        tlb.insert_coalesced_with_merge_tagged(run, tag)
                    };
                    let want = model.insert_coalesced_with_merge_tagged(run, tag);
                    prop_assert_eq!(got, want, "merge at step {}", step);
                }
                7..=12 => {
                    let got =
                        if asid == 0 { tlb.lookup(vpn) } else { tlb.lookup_tagged(vpn, tag) };
                    prop_assert_eq!(got, model.lookup_tagged(vpn, tag), "lookup, step {}", step);
                }
                13 => {
                    prop_assert_eq!(tlb.invalidate(vpn), model.retain(|e| e.lookup(vpn).is_none()))
                }
                14 => prop_assert_eq!(
                    tlb.invalidate_asid(vpn, tag),
                    model.retain(|e| e.asid() != tag || e.lookup(vpn).is_none())
                ),
                15 | 16 => prop_assert_eq!(
                    tlb.invalidate_graceful(vpn),
                    model.invalidate_graceful_filtered(vpn, None)
                ),
                17 => prop_assert_eq!(
                    tlb.invalidate_graceful_asid(vpn, tag),
                    model.invalidate_graceful_filtered(vpn, Some(tag))
                ),
                18 => prop_assert_eq!(tlb.flush_asid(tag), model.retain(|e| e.asid() != tag)),
                _ => {
                    tlb.flush();
                    model.retain(|_| false);
                }
            }
            let order: Vec<RangeEntry> = tlb.iter().copied().collect();
            prop_assert_eq!(&order, &model.entries, "order after step {}", step);
            prop_assert_eq!(tlb.stats(), model.stats, "counters after step {}", step);
        }
    }
}
