//! Property-based tests of the OS memory substrate's core invariants.

use colt_os_mem::addr::{Pfn, Vpn};
use colt_os_mem::buddy::{BuddyAllocator, MAX_ORDER};
use colt_os_mem::contiguity::ContiguityReport;
use colt_os_mem::kernel::{CompactionMode, Kernel, KernelConfig, PopulateMode};
use colt_os_mem::page_table::{PageKind, PageTable, Pte, PteFlags};
use colt_quickprop::prelude::*;
use std::collections::HashMap;

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
