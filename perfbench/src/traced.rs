//! A copy of `colt_core::sim::run`'s batched loop, built only from the
//! layers' public calls, with a timer around each run of calls into one
//! layer. `sim::run` is a single opaque call, so this copy is how the
//! traced run splits a sim cell's time across `workloads::pattern`,
//! `tlb`, `memsim::walker` and `memsim::hierarchy`. Every traced cell is
//! checked against `sim::run` field for field (see [`same_result`]).
//!
//! Spans cover runs of calls, not single calls: one `lookup_batch` per
//! hit-run, one pattern span per chunk, and one data-cache span per run
//! of data accesses between two walks. Data accesses are deferred into a
//! buffer and replayed in their original order just before the next
//! walk (the only other caller of the data caches); TLB lookups, fills,
//! invalidations and flushes never touch the caches, so the order every
//! layer sees is the order `sim::run` produces.

use colt_core::sim::{SimConfig, SimResult};
use colt_memsim::hierarchy::CacheHierarchy;
use colt_memsim::walker::{PageWalker, WalkedLeaf};
use colt_os_mem::addr::{PhysAddr, Vpn};
use colt_tlb::hierarchy::{TlbHierarchy, TlbHit, TlbLevel, WalkFill};
use colt_workloads::scenario::PreparedWorkload;
use colt_workloads::MemRef;
use std::time::Instant;

/// Per-layer time (ns) and work counts of one or more traced sim cells.
#[derive(Clone, Copy, Debug, Default)]
pub struct Probe {
    /// Wall time of the whole cell.
    pub cell_ns: u64,
    pub pattern_ns: u64,
    pub lookup_ns: u64,
    /// `fill` plus serving queued prefetches into the TLB.
    pub fill_ns: u64,
    /// TLB `invalidate` and `flush`.
    pub tlb_maint_ns: u64,
    /// Demand and prefetch walks.
    pub walk_ns: u64,
    /// Walker `invalidate` and `flush`.
    pub walker_maint_ns: u64,
    pub data_ns: u64,
    pub refs: u64,
    pub data_accesses: u64,
    pub walks: u64,
    pub fills: u64,
    pub maint_ops: u64,
    pub l1d_hits: u64,
    pub l1d_misses: u64,
    pub llc_hits: u64,
    pub llc_misses: u64,
    pub mmu_level_hits: u64,
    pub mmu_level_misses: u64,
}

impl Probe {
    pub fn add(&mut self, o: &Probe) {
        self.cell_ns += o.cell_ns;
        self.pattern_ns += o.pattern_ns;
        self.lookup_ns += o.lookup_ns;
        self.fill_ns += o.fill_ns;
        self.tlb_maint_ns += o.tlb_maint_ns;
        self.walk_ns += o.walk_ns;
        self.walker_maint_ns += o.walker_maint_ns;
        self.data_ns += o.data_ns;
        self.refs += o.refs;
        self.data_accesses += o.data_accesses;
        self.walks += o.walks;
        self.fills += o.fills;
        self.maint_ops += o.maint_ops;
        self.l1d_hits += o.l1d_hits;
        self.l1d_misses += o.l1d_misses;
        self.llc_hits += o.llc_hits;
        self.llc_misses += o.llc_misses;
        self.mmu_level_hits += o.mmu_level_hits;
        self.mmu_level_misses += o.mmu_level_misses;
    }

    /// Cell time outside every layer span: the loop's own bookkeeping.
    pub fn sim_self_ns(&self) -> u64 {
        let layers = self.pattern_ns
            + self.lookup_ns
            + self.fill_ns
            + self.tlb_maint_ns
            + self.walk_ns
            + self.walker_maint_ns
            + self.data_ns;
        self.cell_ns.saturating_sub(layers)
    }
}

/// Nanoseconds since `*t`, restarting `*t` at now: back-to-back spans
/// share one timer read at each boundary.
fn lap(t: &mut Instant) -> u64 {
    let now = Instant::now();
    let ns = now.duration_since(*t).as_nanos() as u64;
    *t = now;
    ns
}

/// Data accesses waiting to be replayed into the caches, in order.
struct Pending {
    phys: Vec<PhysAddr>,
    stall: u64,
}

impl Pending {
    /// Replays the buffered accesses in a span that starts at `*t` and
    /// ends at the returned-to `*t`.
    fn replay(&mut self, caches: &mut CacheHierarchy, l1: u64, probe: &mut Probe, t: &mut Instant) {
        if self.phys.is_empty() {
            return;
        }
        for &p in &self.phys {
            self.stall += caches.access_data(p).saturating_sub(l1);
        }
        probe.data_ns += lap(t);
        probe.data_accesses += self.phys.len() as u64;
        self.phys.clear();
    }
}

fn phys_of(pfn: u64, r: &MemRef) -> PhysAddr {
    PhysAddr::new(pfn * 4096 + r.line as u64 * 64)
}

/// Runs one cell like `sim::run(workload, config)`, timing each layer.
pub fn run(workload: &PreparedWorkload, config: &SimConfig) -> (SimResult, Probe) {
    let started = Instant::now();
    let mut probe = Probe::default();
    let mut pattern = workload.pattern(config.pattern_seed);
    let mut tlb = TlbHierarchy::new(config.tlb);
    let new_walker = || {
        if config.nested_paging {
            PageWalker::paper_default().nested()
        } else {
            PageWalker::paper_default()
        }
    };
    let mut walker = new_walker();
    let mut prefetch_walker = new_walker();
    let mut caches = CacheHierarchy::core_i7();
    let page_table = workload
        .kernel
        .process(workload.asid)
        .expect("workload process is live")
        .page_table();
    let latency = *caches.latency_model();

    let mut walk_cycles = 0u64;
    let mut pending = Pending {
        phys: Vec::with_capacity(config.batch.max(1) + 1),
        stall: 0,
    };
    let mut l2_tlb_cycles = 0u64;
    let mut measured = 0u64;
    let mut oracle_mismatches = 0u64;
    let mut warmup_walker = walker.stats();
    let mut warmup_tlb = tlb.stats();
    let mut recent = [Vpn::new(0); 64];
    let mut recent_len = 0usize;

    let batch = config.batch.max(1) as u64;
    let mut chunk: Vec<MemRef> = Vec::with_capacity(batch as usize);
    let mut vpns: Vec<Vpn> = Vec::with_capacity(batch as usize);
    let mut hits: Vec<TlbHit> = Vec::with_capacity(batch as usize);

    let total = config.warmup + config.accesses;
    let mut i = 0u64;
    while i < total {
        if i == config.warmup {
            // Accesses before the boundary belong to the warm-up.
            pending.replay(&mut caches, latency.l1, &mut probe, &mut Instant::now());
            warmup_walker = walker.stats();
            warmup_tlb = tlb.stats();
            walk_cycles = 0;
            pending.stall = 0;
            l2_tlb_cycles = 0;
            measured = 0;
            oracle_mismatches = 0;
        }
        let mut end = (i + batch).min(total);
        if i < config.warmup {
            end = end.min(config.warmup);
        }
        if let Some(p) = config.invalidate_period {
            end = end.min(i - i % p + p);
        }
        if let Some(p) = config.flush_period {
            end = end.min(i - i % p + p);
        }
        let n = (end - i) as usize;
        chunk.clear();
        vpns.clear();
        let mut t = Instant::now();
        for _ in 0..n {
            let r = pattern.next_ref();
            vpns.push(r.vpn);
            chunk.push(r);
        }
        probe.pattern_ns += lap(&mut t);

        let mut k = 0usize;
        while k < n {
            hits.clear();
            if k > 0 {
                t = Instant::now();
            }
            let hit_run = tlb.lookup_batch(&vpns[k..], &mut hits);
            probe.lookup_ns += lap(&mut t);
            for (j, hit) in hits.iter().enumerate() {
                let r = chunk[k + j];
                if hit.level == TlbLevel::L2 {
                    l2_tlb_cycles += latency.l2_tlb;
                }
                if config.check && page_table.translate(r.vpn).map(|t| t.pfn) != Some(hit.pfn) {
                    oracle_mismatches += 1;
                }
                pending.phys.push(phys_of(hit.pfn.raw(), &r));
                let gi = i + (k + j) as u64;
                recent[(gi % 64) as usize] = r.vpn;
                recent_len = recent_len.max((gi + 1).min(64) as usize);
            }
            k += hit_run;
            if k < n {
                let r = chunk[k];
                l2_tlb_cycles += latency.l2_tlb;
                t = Instant::now();
                pending.replay(&mut caches, latency.l1, &mut probe, &mut t);
                let outcome = walker
                    .walk(page_table, r.vpn, &mut caches)
                    .expect("footprint pages are always mapped");
                probe.walk_ns += lap(&mut t);
                probe.walks += 1;
                walk_cycles += outcome.latency;
                let fill = match outcome.leaf {
                    WalkedLeaf::Base { line } => WalkFill::Base { line },
                    WalkedLeaf::Super {
                        base_vpn,
                        base_pfn,
                        flags,
                    } => WalkFill::Super {
                        base_vpn,
                        base_pfn,
                        flags,
                    },
                };
                tlb.fill(r.vpn, &fill);
                let prefetches = tlb.take_prefetch_requests();
                probe.fill_ns += lap(&mut t);
                probe.fills += 1;
                for target in prefetches {
                    let walked = prefetch_walker.walk(page_table, target, &mut caches);
                    probe.walk_ns += lap(&mut t);
                    probe.walks += 1;
                    if let Some(po) = walked {
                        tlb.fill_prefetch(target, po.translation.pfn, po.translation.flags);
                        probe.fill_ns += lap(&mut t);
                        probe.fills += 1;
                    }
                }
                pending
                    .phys
                    .push(phys_of(outcome.translation.pfn.raw(), &r));
                let gi = i + k as u64;
                recent[(gi % 64) as usize] = r.vpn;
                recent_len = recent_len.max((gi + 1).min(64) as usize);
                k += 1;
            }
        }
        measured += n as u64;

        let last = end - 1;
        if let Some(period) = config.invalidate_period {
            if last % period == period - 1 && recent_len > 32 {
                let victim = recent[((last + 64 - 32) % 64) as usize];
                let mut t = Instant::now();
                tlb.invalidate(victim);
                probe.tlb_maint_ns += lap(&mut t);
                walker.invalidate(page_table, victim);
                probe.walker_maint_ns += lap(&mut t);
                probe.maint_ops += 1;
            }
        }
        if let Some(period) = config.flush_period {
            if last % period == period - 1 {
                let mut t = Instant::now();
                tlb.flush();
                probe.tlb_maint_ns += lap(&mut t);
                walker.flush();
                probe.walker_maint_ns += lap(&mut t);
                probe.maint_ops += 1;
            }
        }
        i = end;
    }
    pending.replay(&mut caches, latency.l1, &mut probe, &mut Instant::now());

    let result = SimResult {
        tlb: tlb.stats().since(&warmup_tlb),
        walker: walker.stats().since(&warmup_walker),
        instructions: workload.instructions(measured),
        walk_cycles,
        data_stall_cycles: pending.stall,
        l2_tlb_cycles,
        oracle_mismatches,
    };
    let (l1d, llc) = (caches.l1_stats(), caches.llc_stats());
    let mmu = walker.mmu_stats();
    probe.refs = total;
    probe.l1d_hits = l1d.hits;
    probe.l1d_misses = l1d.misses;
    probe.llc_hits = llc.hits;
    probe.llc_misses = llc.misses;
    probe.mmu_level_hits = mmu.level_hits;
    probe.mmu_level_misses = mmu.level_misses;
    probe.cell_ns = started.elapsed().as_nanos() as u64;
    (result, probe)
}

/// Whether two results agree on every field.
pub fn same_result(a: &SimResult, b: &SimResult) -> bool {
    a.tlb == b.tlb
        && a.walker == b.walker
        && a.instructions == b.instructions
        && a.walk_cycles == b.walk_cycles
        && a.data_stall_cycles == b.data_stall_cycles
        && a.l2_tlb_cycles == b.l2_tlb_cycles
        && a.oracle_mismatches == b.oracle_mismatches
}

/// The accounting identities every sim cell must keep.
pub fn identities_hold(r: &SimResult) -> bool {
    r.tlb.l1_hits + r.tlb.l1_misses == r.tlb.accesses
        && r.tlb.l2_hits + r.tlb.l2_misses == r.tlb.l1_misses
        && r.walker.walks == r.tlb.l2_misses
        && r.walker.faults == 0
}
