//! Property-based tests of the OS memory substrate's core invariants.

use colt_os_mem::addr::{Asid, Pfn, Vpn, SUPERPAGE_PAGES};
use colt_os_mem::buddy::{BuddyAllocator, PfnRange, MAX_ORDER};
use colt_os_mem::contiguity::ContiguityReport;
use colt_os_mem::error::MemError;
use colt_os_mem::frames::{FrameDb, FrameState};
use colt_os_mem::kernel::{CompactionMode, Kernel, KernelConfig, PopulateMode};
use colt_os_mem::page_table::{PageKind, PageTable, Pte, PteFlags};
use colt_os_mem::snapshot::{Dec, Enc, Snapshot, SnapshotError};
use colt_os_mem::vma::{AddressSpace, Vma, VmaKind};
use colt_prng::Rng;
use colt_quickprop::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// An allocation/free script for the buddy allocator.
#[derive(Clone, Debug)]
enum BuddyOp {
    Alloc(u64),
    FreeOldest,
}

fn buddy_ops() -> impl Strategy<Value = Vec<BuddyOp>> {
    prop::collection::vec(
        prop_oneof![
            (1u64..=1 << MAX_ORDER).prop_map(BuddyOp::Alloc),
            Just(BuddyOp::FreeOldest),
        ],
        1..80,
    )
}

proptest! {
    /// Any alloc/free interleaving preserves the buddy invariants, never
    /// double-allocates a frame, and conserves total memory.
    #[test]
    fn buddy_conservation_and_disjointness(ops in buddy_ops()) {
        let nr_frames = 4096u64;
        let mut buddy = BuddyAllocator::new(nr_frames);
        let mut live: Vec<colt_os_mem::buddy::PfnRange> = Vec::new();
        for op in ops {
            match op {
                BuddyOp::Alloc(n) => {
                    if let Some(r) = buddy.alloc_pages(n) {
                        prop_assert_eq!(r.pages, n);
                        // Disjoint from all live ranges.
                        for other in &live {
                            prop_assert!(
                                r.end() <= other.start || other.end() <= r.start,
                                "overlapping allocations {:?} vs {:?}", r, other
                            );
                        }
                        live.push(r);
                    }
                }
                BuddyOp::FreeOldest => {
                    if !live.is_empty() {
                        buddy.free_pages(live.remove(0));
                    }
                }
            }
            let allocated: u64 = live.iter().map(|r| r.pages).sum();
            prop_assert_eq!(buddy.free_frames() + allocated, nr_frames);
            buddy.check_invariants();
        }
        for r in live {
            buddy.free_pages(r);
        }
        prop_assert_eq!(buddy.free_frames(), nr_frames);
        buddy.check_invariants();
    }

    /// Order-`k` block allocations are always naturally aligned.
    #[test]
    fn buddy_blocks_are_aligned(orders in prop::collection::vec(0u32..=MAX_ORDER, 1..30)) {
        let mut buddy = BuddyAllocator::new(1 << 13);
        for order in orders {
            if let Some(p) = buddy.alloc_block(order) {
                prop_assert!(p.is_aligned(order), "order-{} block at {} misaligned", order, p);
            }
        }
        buddy.check_invariants();
    }

    /// The page table behaves like a map: map/unmap of random vpns matches
    /// a HashMap model, and iter_base returns exactly the model, sorted.
    #[test]
    fn page_table_matches_map_model(
        ops in prop::collection::vec((0u64..1 << 20, 0u64..1 << 18, prop::bool::ANY), 1..200)
    ) {
        let mut pt = PageTable::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        for (vpn, pfn, insert) in ops {
            if insert {
                if let std::collections::hash_map::Entry::Vacant(slot) = model.entry(vpn) {
                    pt.map_base(Vpn::new(vpn), Pte::new(Pfn::new(pfn), PteFlags::user_data()));
                    slot.insert(pfn);
                }
            } else if model.remove(&vpn).is_some() {
                prop_assert!(pt.unmap_base(Vpn::new(vpn)).is_some());
            }
        }
        prop_assert_eq!(pt.stats().base_pages, model.len() as u64);
        for (&vpn, &pfn) in &model {
            let t = pt.translate(Vpn::new(vpn)).expect("model says mapped");
            prop_assert_eq!(t.pfn.raw(), pfn);
        }
        let mut listed: Vec<(u64, u64)> =
            pt.iter_base().map(|(v, p)| (v.raw(), p.pfn.raw())).collect();
        let mut expected: Vec<(u64, u64)> = model.into_iter().collect();
        expected.sort_unstable();
        prop_assert!(listed.windows(2).all(|w| w[0].0 < w[1].0), "iter_base must be sorted");
        listed.sort_unstable();
        prop_assert_eq!(listed, expected);
    }

    /// Contiguity scan run lengths always sum to the page count, and the
    /// CDF is monotone, ending at 1.
    #[test]
    fn contiguity_cdf_is_monotone(lens in prop::collection::vec(1u64..300, 1..50)) {
        let rep = ContiguityReport::from_run_lengths(&lens);
        let total: u64 = rep.runs().iter().map(|r| r.len).sum();
        prop_assert_eq!(total, rep.total_pages());
        let points = [1u64, 2, 4, 8, 16, 64, 256, 1024];
        let cdf = rep.cdf(&points);
        for w in cdf.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12, "cdf must be monotone");
        }
        prop_assert!((cdf.last().unwrap() - 1.0).abs() < 1e-9);
    }

    /// Compaction never changes the *content* mapping of any process: every
    /// vpn that translated before still translates, and the frame database
    /// agrees with the page table afterwards.
    #[test]
    fn compaction_preserves_translations(
        sizes in prop::collection::vec(1u64..64, 1..20),
        free_mask in prop::collection::vec(prop::bool::ANY, 20),
    ) {
        let mut k = Kernel::new(KernelConfig {
            nr_frames: 4096,
            ths_enabled: false,
            compaction: CompactionMode::Low,
            ..KernelConfig::default()
        });
        let asid = k.spawn();
        let mut allocs = Vec::new();
        for &s in &sizes {
            allocs.push((k.malloc(asid, s).unwrap(), s));
        }
        for (i, (base, _)) in allocs.iter().enumerate() {
            if free_mask[i % free_mask.len()] {
                k.free(asid, *base).unwrap();
            }
        }
        let kept: Vec<(Vpn, u64)> = allocs
            .iter()
            .enumerate()
            .filter(|(i, _)| !free_mask[i % free_mask.len()])
            .map(|(_, &(b, s))| (b, s))
            .collect();
        // Record logical identity: vpn exists. (Frames may move.)
        k.compact_now();
        let proc = k.process(asid).unwrap();
        for (base, size) in kept {
            for i in 0..size {
                let vpn = base.offset(i);
                let t = proc.translate(vpn).expect("mapping lost by compaction");
                // Frame database must agree via reverse map.
                prop_assert_eq!(k.frames().rmap(t.pfn), Some((asid, vpn)));
            }
        }
        k.buddy().check_invariants();
    }

    /// Eager and demand population both back every page of an allocation
    /// once touched, and no two vpns ever share a frame.
    #[test]
    fn no_two_pages_share_a_frame(sizes in prop::collection::vec(1u64..128, 1..12)) {
        for mode in [PopulateMode::Eager, PopulateMode::Demand] {
            let mut k = Kernel::new(KernelConfig {
                nr_frames: 4096,
                ths_enabled: false,
                populate: mode,
                ..KernelConfig::default()
            });
            let asid = k.spawn();
            let mut seen = HashMap::new();
            for &s in &sizes {
                let base = k.malloc(asid, s).unwrap();
                for i in 0..s {
                    let t = k.touch(asid, base.offset(i)).unwrap();
                    if let Some(prev) = seen.insert(t.pfn.raw(), base.offset(i)) {
                        prop_assert!(false, "frame {} mapped twice ({} and {})",
                            t.pfn, prev, base.offset(i));
                    }
                }
            }
        }
    }

    /// `pte_line` reads the same eight slots a per-page translation does:
    /// slot `i` holds `translate(base + i)` when that is a base page and
    /// `None` for holes and superpage-covered pages — over page tables
    /// that mix base pages, superpages, split superpages and holes.
    #[test]
    fn pte_line_agrees_with_per_page_translation(
        regions in prop::collection::vec(
            (0u8..4, prop::collection::vec((0u64..80, prop::bool::ANY), 0..60)),
            4,
        ),
    ) {
        const WINDOW: u64 = 0x4000;
        let mut pt = PageTable::new();
        for (k, (kind, pages)) in regions.iter().enumerate() {
            let base = WINDOW + 512 * k as u64;
            let frames = 0x10_0000 + 1024 * k as u64;
            let super_pte = Pte::new(Pfn::new(frames), PteFlags::user_data());
            match kind {
                0 => {} // a hole the size of a superpage
                1 => pt.map_super(Vpn::new(base), super_pte),
                2 => {
                    for &(off, dirty) in pages {
                        let vpn = Vpn::new(base + off);
                        if pt.translate(vpn).is_none() {
                            let flags = if dirty {
                                PteFlags::user_data().with(PteFlags::DIRTY)
                            } else {
                                PteFlags::user_data()
                            };
                            let pfn = Pfn::new(frames + off * 3 % 7 + off);
                            pt.map_base(vpn, Pte::new(pfn, flags));
                        }
                    }
                }
                _ => {
                    // A split superpage with holes punched into it.
                    pt.map_super(Vpn::new(base), super_pte);
                    pt.split_superpage(Vpn::new(base));
                    for &(off, _) in pages {
                        pt.unmap_base(Vpn::new(base + off));
                    }
                }
            }
        }
        let far = WINDOW + (1 << 20); // no page-table nodes below the root
        let bases = (WINDOW..WINDOW + 512 * regions.len() as u64).step_by(8).chain([far]);
        for base in bases {
            let line = pt.pte_line(Vpn::new(base + (base / 8) % 8));
            prop_assert_eq!(line.base_vpn, Vpn::new(base));
            for (i, slot) in line.ptes.iter().enumerate() {
                let expected = pt
                    .translate(Vpn::new(base + i as u64))
                    .filter(|t| t.kind == PageKind::Base)
                    .map(|t| Pte::new(t.pfn, t.flags));
                prop_assert_eq!(*slot, expected, "slot {} of the line at {:#x}", i, base);
            }
        }
    }
}

/// The buddy allocator as it stood on `BTreeSet` free lists: the model
/// the bitmap free lists must match decision for decision and byte for
/// byte.
struct ModelBuddy {
    nr_frames: u64,
    free_lists: Vec<BTreeSet<u64>>,
    free_frames: u64,
}

impl ModelBuddy {
    fn new(nr_frames: u64) -> Self {
        let mut buddy = Self {
            nr_frames,
            free_lists: vec![BTreeSet::new(); (MAX_ORDER + 1) as usize],
            free_frames: 0,
        };
        buddy.free_range_raw(0, nr_frames);
        buddy
    }

    fn histogram(&self) -> Vec<usize> {
        self.free_lists.iter().map(BTreeSet::len).collect()
    }

    fn largest_free_order(&self) -> Option<u32> {
        (0..=MAX_ORDER).rev().find(|&o| !self.free_lists[o as usize].is_empty())
    }

    fn alloc_block(&mut self, order: u32) -> Option<u64> {
        if order > MAX_ORDER {
            return None;
        }
        let found = (order..=MAX_ORDER).find(|&o| !self.free_lists[o as usize].is_empty())?;
        let start = *self.free_lists[found as usize].iter().next().unwrap();
        self.free_lists[found as usize].remove(&start);
        let mut cur = found;
        while cur > order {
            cur -= 1;
            self.free_lists[cur as usize].insert(start + (1u64 << cur));
        }
        self.free_frames -= 1u64 << order;
        Some(start)
    }

    fn alloc_pages(&mut self, pages: u64) -> Option<(u64, u64)> {
        if pages == 0 || pages > (1u64 << MAX_ORDER) {
            return None;
        }
        let order = pages.next_power_of_two().trailing_zeros();
        let start = self.alloc_block(order)?;
        let tail = (1u64 << order) - pages;
        if tail > 0 {
            self.free_range_raw(start + pages, tail);
        }
        Some((start, pages))
    }

    fn free_block(&mut self, mut start: u64, mut order: u32) {
        let freed = 1u64 << order;
        while order < MAX_ORDER {
            let buddy = start ^ (1u64 << order);
            if buddy + (1u64 << order) > self.nr_frames {
                break;
            }
            if !self.free_lists[order as usize].remove(&buddy) {
                break;
            }
            start = start.min(buddy);
            order += 1;
        }
        self.free_lists[order as usize].insert(start);
        self.free_frames += freed;
    }

    fn free_range_raw(&mut self, mut start: u64, mut pages: u64) {
        while pages > 0 {
            let align_order = if start == 0 { MAX_ORDER } else { start.trailing_zeros() };
            let order = align_order.min(63 - pages.leading_zeros()).min(MAX_ORDER);
            self.free_block(start, order);
            start += 1u64 << order;
            pages -= 1u64 << order;
        }
    }

    fn containing_free_block(&self, pfn: u64) -> Option<(u64, u32)> {
        (0..=MAX_ORDER).find_map(|order| {
            let aligned = pfn & !((1u64 << order) - 1);
            self.free_lists[order as usize].contains(&aligned).then_some((aligned, order))
        })
    }

    fn take_free_page(&mut self, pfn: u64) -> bool {
        let Some((start, order)) = self.containing_free_block(pfn) else {
            return false;
        };
        self.free_lists[order as usize].remove(&start);
        self.free_frames -= 1u64 << order;
        let before = pfn - start;
        let after = start + (1u64 << order) - pfn - 1;
        if before > 0 {
            self.free_range_raw(start, before);
        }
        if after > 0 {
            self.free_range_raw(pfn + 1, after);
        }
        true
    }

    fn highest_free_page(&self) -> Option<u64> {
        (0..=MAX_ORDER)
            .filter_map(|o| self.free_lists[o as usize].iter().next_back().map(|&s| s + (1 << o) - 1))
            .max()
    }

    fn highest_free_page_below(&self, limit: u64) -> Option<u64> {
        (0..=MAX_ORDER)
            .filter_map(|o| {
                self.free_lists[o as usize]
                    .range(..limit)
                    .next_back()
                    .map(|&s| (s + (1 << o) - 1).min(limit - 1))
            })
            .max()
    }

    fn encoded(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.u64(self.nr_frames);
        self.free_lists.encode(&mut enc);
        enc.u64(self.free_frames);
        enc.finish()
    }
}

fn encoded<T: Snapshot>(value: &T) -> Vec<u8> {
    let mut enc = Enc::new();
    value.encode(&mut enc);
    enc.finish()
}

fn decoded<T: Snapshot>(bytes: &[u8]) -> Result<T, SnapshotError> {
    let mut dec = Dec::new(bytes);
    let value = T::decode(&mut dec)?;
    dec.finish()?;
    Ok(value)
}

/// The address space as it stood on a `BTreeMap` keyed by start: the
/// model the tombstoned area table must match.
struct ModelSpace {
    vmas: BTreeMap<u64, Vma>,
    next_vpn: u64,
    limit_vpn: u64,
}

impl ModelSpace {
    const USER_BASE_VPN: u64 = 0x1000;

    fn new(limit_pages: u64) -> Self {
        Self {
            vmas: BTreeMap::new(),
            next_vpn: Self::USER_BASE_VPN,
            limit_vpn: Self::USER_BASE_VPN + limit_pages,
        }
    }

    fn reserve_hinted(
        &mut self,
        pages: u64,
        kind: VmaKind,
        flags: PteFlags,
        huge_align: bool,
    ) -> Result<Vma, MemError> {
        if pages == 0 {
            return Err(MemError::ZeroSizedRequest);
        }
        let mut start = self.next_vpn;
        if huge_align && pages >= SUPERPAGE_PAGES {
            start = (start + SUPERPAGE_PAGES - 1) & !(SUPERPAGE_PAGES - 1);
        }
        let end = start
            .checked_add(pages)
            .ok_or(MemError::OutOfVirtualSpace { requested_pages: pages })?;
        if end > self.limit_vpn {
            return Err(MemError::OutOfVirtualSpace { requested_pages: pages });
        }
        let vma = Vma { start: Vpn::new(start), pages, kind, flags };
        self.vmas.insert(start, vma);
        self.next_vpn = end + 1;
        Ok(vma)
    }

    fn remove(&mut self, start: Vpn) -> Result<Vma, MemError> {
        self.vmas.remove(&start.raw()).ok_or(MemError::NotAllocationStart { vpn: start })
    }

    fn find(&self, vpn: Vpn) -> Option<&Vma> {
        self.vmas
            .range(..=vpn.raw())
            .next_back()
            .map(|(_, v)| v)
            .filter(|v| v.contains(vpn))
    }

    fn encoded(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        self.vmas.encode(&mut enc);
        enc.u64(self.next_vpn);
        enc.u64(self.limit_vpn);
        enc.finish()
    }
}

/// Asserts every observable of `space` equals the model's.
fn assert_space_matches(space: &AddressSpace, model: &ModelSpace, probe: Vpn) {
    assert_eq!(space.find(probe), model.find(probe), "find({probe})");
    assert!(space.iter().eq(model.vmas.values()), "iter order");
    assert_eq!(space.len(), model.vmas.len());
    assert_eq!(space.is_empty(), model.vmas.is_empty());
    assert_eq!(space.total_pages(), model.vmas.values().map(|v| v.pages).sum::<u64>());
    assert_eq!(encoded(space), model.encoded(), "encoded bytes");
}

/// Occupied (non-free) fraction of the pageblock holding `pfn`, counted
/// from the frame states.
fn counted_density(frames: &FrameDb, pfn: u64) -> f64 {
    let start = pfn & !511;
    let end = (start + 512).min(frames.nr_frames());
    let used = (start..end).filter(|&p| !frames.state(Pfn::new(p)).is_free()).count();
    used as f64 / (end - start) as f64
}

/// The migrate scanner as it stood before the per-block counters: the
/// first movable frame at or above the cursor, skipping its whole
/// pageblock when that is denser than the limit.
fn model_migrate_scan(frames: &FrameDb, from: u64, limit: f64) -> Option<u64> {
    let mut cursor = from;
    loop {
        let candidate =
            (cursor..frames.nr_frames()).find(|&p| frames.state(Pfn::new(p)).is_movable())?;
        if counted_density(frames, candidate) > limit {
            cursor = (candidate & !511) + 512;
            if cursor >= frames.nr_frames() {
                return None;
            }
            continue;
        }
        return Some(candidate);
    }
}

fn frame_state(kind: u8, i: u64) -> FrameState {
    match kind {
        0 => FrameState::Free,
        1 => FrameState::Pinned,
        2 => FrameState::Huge { owner: Asid(2), base_vpn: Vpn::new(i & !511) },
        _ => FrameState::Movable { owner: Asid(1), vpn: Vpn::new(i) },
    }
}

proptest! {
    /// The bitmap free lists make the decisions the `BTreeSet` lists made:
    /// every returned range, histogram, query and encoded byte agrees
    /// after every operation, on memory sizes that are not powers of two.
    #[test]
    fn buddy_matches_the_btreeset_model(
        size in 0usize..3,
        ops in prop::collection::vec((0u8..5, 0u64..1 << 20, 0u64..1 << 20), 1..300),
    ) {
        let nr_frames = [1027u64, 4099, 2560][size];
        let mut buddy = BuddyAllocator::new(nr_frames);
        let mut model = ModelBuddy::new(nr_frames);
        // Live allocations: (start, pages, order when allocated as a block).
        let mut live: Vec<(u64, u64, Option<u32>)> = Vec::new();
        for (kind, param, query) in ops {
            match kind {
                0 => {
                    let order = (param % u64::from(MAX_ORDER + 2)) as u32;
                    let got = buddy.alloc_block(order).map(Pfn::raw);
                    prop_assert_eq!(got, model.alloc_block(order), "alloc_block({})", order);
                    if let Some(start) = got {
                        live.push((start, 1 << order, Some(order)));
                    }
                }
                1 => {
                    let pages = param % ((1 << MAX_ORDER) + 2);
                    let got = buddy.alloc_pages(pages).map(|r| (r.start.raw(), r.pages));
                    prop_assert_eq!(got, model.alloc_pages(pages), "alloc_pages({})", pages);
                    if let Some((start, pages)) = got {
                        live.push((start, pages, None));
                    }
                }
                2 | 3 if !live.is_empty() => {
                    let (start, pages, order) = live.swap_remove((param % live.len() as u64) as usize);
                    match order {
                        Some(order) if kind == 2 => {
                            buddy.free_block(Pfn::new(start), order);
                            model.free_block(start, order);
                        }
                        _ => {
                            buddy.free_pages(PfnRange::new(Pfn::new(start), pages));
                            model.free_range_raw(start, pages);
                        }
                    }
                }
                _ => {
                    let pfn = param % nr_frames;
                    let took = buddy.take_free_page(Pfn::new(pfn));
                    prop_assert_eq!(took, model.take_free_page(pfn), "take_free_page({})", pfn);
                    if took {
                        live.push((pfn, 1, Some(0)));
                    }
                }
            }
            prop_assert_eq!(buddy.histogram().counts, model.histogram());
            prop_assert_eq!(buddy.free_frames(), model.free_frames);
            prop_assert_eq!(buddy.largest_free_order(), model.largest_free_order());
            prop_assert_eq!(buddy.highest_free_page().map(Pfn::raw), model.highest_free_page());
            let limit = query % (nr_frames + 2);
            prop_assert_eq!(
                buddy.highest_free_page_below(Pfn::new(limit)).map(Pfn::raw),
                model.highest_free_page_below(limit),
                "highest_free_page_below({})", limit
            );
            let probe = query % (nr_frames + 8);
            prop_assert_eq!(
                buddy.is_free(Pfn::new(probe)),
                model.containing_free_block(probe).is_some(),
                "is_free({})", probe
            );
            prop_assert_eq!(encoded(&buddy), model.encoded());
        }
        buddy.check_invariants();
        let round_trip: BuddyAllocator = decoded(&encoded(&buddy)).expect("own encoding decodes");
        prop_assert_eq!(encoded(&round_trip), encoded(&buddy));
    }

    /// The tombstoned area table answers as the `BTreeMap` did: hinted
    /// and unhinted reserves, removes at valid and invalid starts,
    /// lookups, iteration, counts and encoded bytes — across tombstone
    /// purges (every case ends by removing all areas).
    #[test]
    fn address_space_matches_the_btreemap_model(
        small in prop::bool::ANY,
        ops in prop::collection::vec((0u8..7, 0u64..1 << 16, 0u64..1 << 22), 1..300),
    ) {
        let limit = if small { 1 << 15 } else { 1 << 24 };
        let mut space = AddressSpace::new(limit);
        let mut model = ModelSpace::new(limit);
        let flags = PteFlags::user_data();
        let mut removed = Vec::new();
        for (kind, param, query) in ops {
            let span = model.next_vpn + 2;
            match kind {
                0 | 1 => {
                    let pages = param % 1500;
                    let vma_kind = if param % 3 == 0 { VmaKind::FileBacked } else { VmaKind::Anonymous };
                    let (got, hinted) = if kind == 0 {
                        (space.reserve(pages, vma_kind, flags), vma_kind == VmaKind::Anonymous)
                    } else {
                        let hint = query % 2 == 0;
                        (space.reserve_hinted(pages, vma_kind, flags, hint), hint)
                    };
                    prop_assert_eq!(got, model.reserve_hinted(pages, vma_kind, flags, hinted));
                }
                2 | 3 if !model.vmas.is_empty() => {
                    let start = *model.vmas.keys().nth((param % model.vmas.len() as u64) as usize).unwrap();
                    prop_assert_eq!(space.remove(Vpn::new(start)), model.remove(Vpn::new(start)));
                    removed.push(start);
                }
                4 if !removed.is_empty() => {
                    // A start whose area is gone (a tombstone, or purged).
                    let vpn = Vpn::new(removed[(param % removed.len() as u64) as usize]);
                    prop_assert_eq!(space.remove(vpn), model.remove(vpn), "remove({}) again", vpn);
                }
                _ => {
                    let vpn = Vpn::new(query % span);
                    prop_assert_eq!(space.remove(vpn), model.remove(vpn), "remove({})", vpn);
                }
            }
            assert_space_matches(&space, &model, Vpn::new(query % span));
        }
        let mut order: Vec<u64> = model.vmas.keys().copied().collect();
        order.reverse();
        let third = order.len() / 3;
        order.rotate_left(third);
        for start in order {
            prop_assert_eq!(space.remove(Vpn::new(start)), model.remove(Vpn::new(start)));
            assert_space_matches(&space, &model, Vpn::new(start));
        }
        let round_trip: AddressSpace = decoded(&encoded(&space)).expect("own encoding decodes");
        prop_assert_eq!(encoded(&round_trip), model.encoded());
    }

    /// The block-skipping migrate scanner finds the frame the two-step
    /// scan (first movable frame, skip its block when dense) found, on
    /// frame maps with dense, sparse and movable-free pageblocks and a
    /// partial last pageblock — before and after a snapshot round trip
    /// rebuilds the per-block counters.
    #[test]
    fn migrate_scanner_matches_the_two_step_scan(
        blocks in 1u64..9,
        tail in 1u64..512,
        fills in prop::collection::vec((0u64..101, 0u8..4), 9),
        edits in prop::collection::vec((0u64..1 << 13, 0u8..4), 0..200),
        limit in 0.0f64..1.0,
        exact_at in 0u64..1 << 13,
    ) {
        let nr_frames = blocks * 512 + tail;
        let mut frames = FrameDb::new(nr_frames);
        let mut rng = case_rng(nr_frames, blocks as u32);
        for p in 0..nr_frames {
            let (percent, mix) = fills[(p / 512) as usize];
            if rng.gen_range(0u64..100) < percent {
                let kind = if mix == 0 {
                    rng.gen_range(1u8..4)
                } else if p % u64::from(mix + 1) == 0 {
                    1
                } else {
                    3
                };
                frames.set(Pfn::new(p), frame_state(kind, p));
            }
        }
        for (pfn, kind) in edits {
            frames.set(Pfn::new(pfn % nr_frames), frame_state(kind, pfn));
        }
        let restored: FrameDb = decoded(&encoded(&frames)).expect("own encoding decodes");
        // A limit equal to some block's density pins the `>` boundary.
        let exact = counted_density(&frames, exact_at % nr_frames);
        for db in [&frames, &restored] {
            for p in (0..nr_frames).step_by(173) {
                prop_assert_eq!(db.pageblock_density(Pfn::new(p)), counted_density(db, p));
            }
            let froms = (0..=nr_frames).step_by(37).chain((0..=blocks + 1).map(|b| b * 512));
            for from in froms.filter(|&f| f <= nr_frames) {
                for limit in [limit, 0.8, exact] {
                    prop_assert_eq!(
                        db.first_movable_in_sparse_block(Pfn::new(from), limit).map(Pfn::raw),
                        model_migrate_scan(db, from, limit),
                        "from {} at density limit {}", from, limit
                    );
                }
            }
        }
    }

    /// Decoding a corrupted buddy or address-space snapshot returns a
    /// value or an error, never panics, and anything it accepts keeps the
    /// structure's invariants.
    #[test]
    fn corrupt_snapshots_decode_without_panicking(
        flips in prop::collection::vec((0usize..1 << 16, 1u8..=255), 1..4),
        removes in prop::collection::vec(0u64..64, 0..40),
    ) {
        let mut buddy = BuddyAllocator::new(4099);
        let mut space = AddressSpace::new(1 << 20);
        let mut starts = Vec::new();
        for (i, &r) in removes.iter().enumerate() {
            buddy.alloc_pages(r + 1);
            buddy.take_free_page(Pfn::new(r * 61 % 4099));
            starts.push(space.reserve(r * 40 + 1, VmaKind::Anonymous, PteFlags::user_data()).unwrap().start);
            if i % 3 == 2 {
                space.remove(starts[(r % starts.len() as u64) as usize]).ok();
            }
        }
        // Flip bytes past the buddy's frame count: a larger count is
        // legal and only costs memory.
        let mut bytes = encoded(&buddy);
        for &(at, xor) in &flips {
            let at = 8 + at % (bytes.len() - 8);
            bytes[at] ^= xor;
        }
        if let Ok(decoded) = decoded::<BuddyAllocator>(&bytes) {
            decoded.check_invariants();
        }
        let mut bytes = encoded(&space);
        for &(at, xor) in &flips {
            let at = at % bytes.len();
            bytes[at] ^= xor;
        }
        if let Ok(decoded) = decoded::<AddressSpace>(&bytes) {
            let areas: Vec<&Vma> = decoded.iter().collect();
            prop_assert!(areas.windows(2).all(|w| w[0].end() <= w[1].start), "ordered, disjoint");
            prop_assert!(areas.iter().all(|v| v.pages > 0));
            prop_assert_eq!(decoded.len(), areas.len());
        }
    }
}

/// Encodes a buddy snapshot with the given per-order starts.
fn buddy_bytes(nr_frames: u64, lists: &[(u32, &[u64])], free_frames: u64) -> Vec<u8> {
    let mut free_lists = vec![BTreeSet::new(); (MAX_ORDER + 1) as usize];
    for &(order, starts) in lists {
        free_lists[order as usize].extend(starts.iter().copied());
    }
    let mut enc = Enc::new();
    enc.u64(nr_frames);
    free_lists.encode(&mut enc);
    enc.u64(free_frames);
    enc.finish()
}

#[test]
fn buddy_decode_rejects_bad_free_lists() {
    // Sanity: a well-formed encoding decodes.
    assert!(decoded::<BuddyAllocator>(&buddy_bytes(1027, &[(10, &[0]), (1, &[1024])], 1026)).is_ok());
    let bad: [(&str, Vec<u8>); 7] = [
        ("misaligned start", buddy_bytes(1027, &[(1, &[3])], 2)),
        ("block past the end", buddy_bytes(1027, &[(1, &[1026])], 2)),
        ("start overflows", buddy_bytes(1027, &[(0, &[u64::MAX])], 1)),
        ("lower block inside a higher one", buddy_bytes(1027, &[(0, &[5]), (3, &[0])], 9)),
        ("free_frames too high", buddy_bytes(1027, &[(10, &[0])], 1025)),
        ("free_frames too low", buddy_bytes(1027, &[(10, &[0])], 0)),
        ("zero frames", buddy_bytes(0, &[], 0)),
    ];
    for (what, bytes) in bad {
        assert!(decoded::<BuddyAllocator>(&bytes).is_err(), "{what} must be rejected");
    }
    // A duplicated start: the codec's set would have merged it, so
    // write the list by hand.
    let mut enc = Enc::new();
    enc.u64(64);
    enc.usize((MAX_ORDER + 1) as usize);
    for order in 0..=MAX_ORDER {
        if order == 2 {
            enc.usize(2);
            enc.u64(8);
            enc.u64(8);
        } else {
            enc.usize(0);
        }
    }
    enc.u64(8);
    assert!(decoded::<BuddyAllocator>(&enc.finish()).is_err(), "duplicate start must be rejected");
    // The wrong number of free lists.
    let mut enc = Enc::new();
    enc.u64(64);
    vec![BTreeSet::<u64>::new(); MAX_ORDER as usize].encode(&mut enc);
    enc.u64(0);
    assert!(decoded::<BuddyAllocator>(&enc.finish()).is_err(), "ten lists must be rejected");
}

#[test]
fn address_space_decode_rejects_bad_areas() {
    let area = |start: u64, pages: u64| Vma {
        start: Vpn::new(start),
        pages,
        kind: VmaKind::Anonymous,
        flags: PteFlags::user_data(),
    };
    let bytes = |entries: &[(u64, Vma)], next_vpn: u64| {
        let mut enc = Enc::new();
        enc.usize(entries.len());
        for (key, vma) in entries {
            enc.u64(*key);
            vma.encode(&mut enc);
        }
        enc.u64(next_vpn);
        enc.u64(1 << 20);
        enc.finish()
    };
    let good = bytes(&[(0x1000, area(0x1000, 4)), (0x1005, area(0x1005, 2))], 0x1008);
    assert!(decoded::<AddressSpace>(&good).is_ok());
    let bad = [
        ("key differs from start", bytes(&[(0x1001, area(0x1000, 4))], 0x1005)),
        ("zero-page area", bytes(&[(0x1000, area(0x1000, 0))], 0x1005)),
        (
            "out of order",
            bytes(&[(0x1005, area(0x1005, 2)), (0x1000, area(0x1000, 4))], 0x1008),
        ),
        (
            "overlapping",
            bytes(&[(0x1000, area(0x1000, 4)), (0x1003, area(0x1003, 2))], 0x1008),
        ),
        ("duplicate start", bytes(&[(0x1000, area(0x1000, 4)), (0x1000, area(0x1000, 4))], 0x1008)),
        ("end overflows", bytes(&[(u64::MAX - 1, area(u64::MAX - 1, 4))], u64::MAX)),
        ("area beyond the bump pointer", bytes(&[(0x1000, area(0x1000, 4))], 0x1002)),
    ];
    for (what, bytes) in bad {
        assert!(decoded::<AddressSpace>(&bytes).is_err(), "{what} must be rejected");
    }
}
