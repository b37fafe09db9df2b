//! Microbenchmarks of the simulator's hot structures.
//!
//! These quantify the cost of the operations every experiment performs
//! millions of times: TLB lookups (set-associative and range-check),
//! the coalescing logic, buddy allocation/free, compaction passes, the
//! address-space area table, and full page walks. Self-timed via
//! `colt_bench::harness` (the offline build cannot fetch criterion).

use colt_bench::harness::Harness;
use colt_memsim::hierarchy::CacheHierarchy;
use colt_memsim::walker::PageWalker;
use colt_os_mem::addr::{Pfn, Vpn};
use colt_os_mem::buddy::BuddyAllocator;
use colt_os_mem::contiguity::ContiguityReport;
use colt_os_mem::kernel::{Kernel, KernelConfig};
use colt_os_mem::page_table::{PageTable, Pte, PteFlags};
use colt_os_mem::vma::{AddressSpace, VmaKind};
use colt_tlb::coalesce::coalesce_line;
use colt_tlb::config::TlbConfig;
use colt_tlb::entry::CoalescedRun;
use colt_tlb::fully_assoc::FullyAssocTlb;
use colt_tlb::hierarchy::{TlbHierarchy, WalkFill};
use colt_tlb::set_assoc::SetAssocTlb;
use std::hint::black_box;

fn contiguous_page_table(pages: u64) -> PageTable {
    let mut pt = PageTable::new();
    for i in 0..pages {
        pt.map_base(Vpn::new(0x1000 + i), Pte::new(Pfn::new(0x8000 + i), PteFlags::user_data()));
    }
    pt
}

fn bench_tlb_lookup(c: &mut Harness) {
    let mut group = c.benchmark_group("tlb_lookup");

    let mut sa = SetAssocTlb::new(128, 4, 2);
    for g in 0..32u64 {
        sa.insert(CoalescedRun::new(
            Vpn::new(g * 4),
            Pfn::new(1000 + g * 4),
            4,
            PteFlags::user_data(),
        ));
    }
    let mut i = 0u64;
    group.bench_function("set_assoc_hit", |b| {
        b.iter(|| {
            i = (i + 7) % 128;
            black_box(sa.lookup(Vpn::new(i)))
        })
    });
    group.bench_function("set_assoc_miss", |b| {
        b.iter(|| {
            i = (i + 7) % 128;
            black_box(sa.probe(Vpn::new(100_000 + i)))
        })
    });

    let mut fa = FullyAssocTlb::new(8);
    for e in 0..8u64 {
        fa.insert_coalesced_with_merge(CoalescedRun::new(
            Vpn::new(10_000 + e * 200),
            Pfn::new(30_000 + e * 200),
            64,
            PteFlags::user_data(),
        ));
    }
    group.bench_function("fully_assoc_range_hit", |b| {
        b.iter(|| {
            i = (i + 13) % (8 * 64);
            let vpn = Vpn::new(10_000 + (i / 64) * 200 + (i % 64));
            black_box(fa.lookup(vpn))
        })
    });
    group.finish();
}

fn bench_coalescing_logic(c: &mut Harness) {
    let pt = contiguous_page_table(64);
    let line = pt.pte_line(Vpn::new(0x1008));
    c.bench_function("coalesce_line_full_run", |b| {
        b.iter(|| black_box(coalesce_line(&line, Vpn::new(0x100B))))
    });
}

fn bench_hierarchy_fill(c: &mut Harness) {
    let pt = contiguous_page_table(4096);
    let mut group = c.benchmark_group("hierarchy_miss_and_fill");
    for config in [
        TlbConfig::baseline(),
        TlbConfig::colt_sa(),
        TlbConfig::colt_fa(),
        TlbConfig::colt_all(),
    ] {
        let mut tlb = TlbHierarchy::new(config);
        let mut v = 0u64;
        group.bench_function(config.mode.label(), |b| {
            b.iter(|| {
                v = (v + 97) % 4096;
                let vpn = Vpn::new(0x1000 + v);
                if tlb.lookup(vpn).is_none() {
                    tlb.fill(vpn, &WalkFill::Base { line: pt.pte_line(vpn) });
                }
            })
        });
    }
    group.finish();
}

fn bench_buddy(c: &mut Harness) {
    let mut group = c.benchmark_group("buddy");
    group.bench_function("alloc_free_cycle_8_pages", |b| {
        b.iter_batched_ref(
            || BuddyAllocator::new(1 << 16),
            |buddy| {
                let r = buddy.alloc_pages(8).expect("fresh memory");
                buddy.free_pages(r);
            },
        )
    });
    group.bench_function("alloc_until_full_then_free", |b| {
        b.iter_batched_ref(
            || BuddyAllocator::new(4096),
            |buddy| {
                let mut runs = Vec::new();
                while let Some(r) = buddy.alloc_pages(16) {
                    runs.push(r);
                }
                for r in runs {
                    buddy.free_pages(r);
                }
            },
        )
    });
    group.finish();
}

fn bench_compaction(c: &mut Harness) {
    c.bench_function("compaction_pass_scattered", |b| {
        b.iter_batched_ref(
            || {
                let mut k = Kernel::new(KernelConfig {
                    nr_frames: 1 << 14,
                    ths_enabled: false,
                    ..KernelConfig::default()
                });
                let asid = k.spawn();
                let mut allocs = Vec::new();
                for _ in 0..128 {
                    allocs.push(k.malloc(asid, 32).expect("fits"));
                }
                for (i, a) in allocs.into_iter().enumerate() {
                    if i % 2 == 0 {
                        k.free(asid, a).expect("allocated");
                    }
                }
                k
            },
            |k| {
                black_box(k.compact_now());
            },
        )
    });
}

/// Areas in the address space the `vma` group works on.
const VMA_AREAS: u64 = 20_000;

/// Reserves `VMA_AREAS` areas of 1..=600 pages (the large anonymous
/// ones superpage-aligned) and returns the space with their starts.
fn populated_space() -> (AddressSpace, Vec<Vpn>) {
    let mut space = AddressSpace::new(1 << 32);
    let starts = (0..VMA_AREAS)
        .map(|i| {
            let kind = if i % 3 == 0 { VmaKind::FileBacked } else { VmaKind::Anonymous };
            let vma = space.reserve(1 + i * 7919 % 600, kind, PteFlags::user_data());
            vma.expect("layout fits").start
        })
        .collect();
    (space, starts)
}

fn bench_vma(c: &mut Harness) {
    let mut group = c.benchmark_group("vma");
    group.bench_function("reserve_20k_areas", |b| {
        b.iter_batched_ref(|| (), |_| black_box(populated_space().0.len()))
    });
    group.bench_function("remove_20k_areas_scattered", |b| {
        b.iter_batched_ref(populated_space, |(space, starts)| {
            // A stride coprime to the area count visits every area once,
            // out of address order.
            for i in 0..VMA_AREAS {
                space.remove(starts[(i * 7_333 % VMA_AREAS) as usize]).expect("live area");
            }
        })
    });
    let (mut space, starts) = populated_space();
    for start in starts.iter().step_by(3) {
        space.remove(*start).expect("live area");
    }
    let span = space.iter().last().expect("areas remain").end().raw();
    let mut v = 0u64;
    group.bench_function("find_in_20k_areas", |b| {
        b.iter(|| {
            v = (v + 104_729) % span;
            black_box(space.find(Vpn::new(v)))
        })
    });
    group.finish();
}

fn bench_page_walk(c: &mut Harness) {
    let pt = contiguous_page_table(4096);
    let mut walker = PageWalker::paper_default();
    let mut caches = CacheHierarchy::core_i7();
    let mut v = 0u64;
    c.bench_function("page_walk", |b| {
        b.iter(|| {
            v = (v + 97) % 4096;
            black_box(walker.walk(&pt, Vpn::new(0x1000 + v), &mut caches))
        })
    });
}

fn bench_prefetch_buffer(c: &mut Harness) {
    use colt_tlb::prefetch::{PrefetchBuffer, PrefetchConfig};
    let mut pb = PrefetchBuffer::new(PrefetchConfig::default());
    for i in 0..16u64 {
        pb.fill(Vpn::new(i), Pfn::new(i + 100), PteFlags::user_data());
    }
    let mut i = 0u64;
    c.bench_function("prefetch_buffer_lookup_fill", |b| {
        b.iter(|| {
            i += 1;
            black_box(pb.lookup(Vpn::new(i % 32)));
            pb.fill(Vpn::new(i % 32), Pfn::new(i), PteFlags::user_data());
        })
    });
}

fn bench_nested_walk(c: &mut Harness) {
    let pt = contiguous_page_table(4096);
    let mut group = c.benchmark_group("walk_modes");
    for nested in [false, true] {
        let mut walker = if nested {
            PageWalker::paper_default().nested()
        } else {
            PageWalker::paper_default()
        };
        let mut caches = CacheHierarchy::core_i7();
        let mut v = 0u64;
        group.bench_function(if nested { "nested" } else { "native" }, |b| {
            b.iter(|| {
                v = (v + 97) % 4096;
                black_box(walker.walk(&pt, Vpn::new(0x1000 + v), &mut caches))
            })
        });
    }
    group.finish();
}

fn bench_contiguity_scan(c: &mut Harness) {
    let pt = contiguous_page_table(16_384);
    c.bench_function("contiguity_scan_16k_pages", |b| {
        b.iter(|| black_box(ContiguityReport::scan(&pt)))
    });
}

fn main() {
    let mut harness = Harness::from_args("micro");
    bench_tlb_lookup(&mut harness);
    bench_coalescing_logic(&mut harness);
    bench_hierarchy_fill(&mut harness);
    bench_buddy(&mut harness);
    bench_compaction(&mut harness);
    bench_vma(&mut harness);
    bench_page_walk(&mut harness);
    bench_prefetch_buffer(&mut harness);
    bench_nested_walk(&mut harness);
    bench_contiguity_scan(&mut harness);
    harness.finish();
}
