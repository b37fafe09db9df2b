//! Metric names and units, the summary statistics behind them, and the
//! process readings (CPU time, peak RSS) they need.

/// End-to-end metrics, printed by an untraced run (`--trace 0`) on
/// every workload: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cells_per_s", "1/s"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_p90", "ms"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by a traced run (`--trace 1`) on every
/// workload; a layer the workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("runner.busy_s", "s"),
    ("runner.idle_share", "ratio"),
    ("runner.prep_reuse_ratio", "ratio"),
    ("snapcache.mem_hits", "count"),
    ("snapcache.misses", "count"),
    ("scenario.prepare_ms_p50", "ms"),
    ("scenario.prepare_s", "s"),
    ("os_mem.compaction_runs", "count"),
    ("os_mem.pages_migrated", "count"),
    ("os_mem.thp_allocs", "count"),
    ("os_mem.thp_splits", "count"),
    ("os_mem.demand_faults", "count"),
    ("os_mem.pages_reclaimed", "count"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.decode_ms", "ms"),
    ("snapshot.mb", "MB"),
    ("contiguity.scan_ms", "ms"),
    ("pattern.ns_per_ref", "ns"),
    ("tlb.lookup_ns_per_ref", "ns"),
    ("tlb.fill_ns", "ns"),
    ("tlb.maint_ns", "ns"),
    ("tlb.l1_hit_ratio", "ratio"),
    ("tlb.l2_hit_ratio", "ratio"),
    ("tlb.fills", "count"),
    ("tlb.mean_coalesced", "count"),
    ("walker.walk_ns", "ns"),
    ("walker.walks", "count"),
    ("walker.cycles_per_walk", "cycles"),
    ("walker.mmu_hit_ratio", "ratio"),
    ("caches.data_ns_per_access", "ns"),
    ("caches.l1d_miss_ratio", "ratio"),
    ("caches.llc_miss_ratio", "ratio"),
    ("sim.self_ns_per_ref", "ns"),
    ("trace.overhead_pct", "%"),
    ("share.runner", "ratio"),
    ("share.sim", "ratio"),
    ("share.pattern", "ratio"),
    ("share.tlb", "ratio"),
    ("share.walker", "ratio"),
    ("share.caches", "ratio"),
    ("share.scenario", "ratio"),
    ("share.contiguity", "ratio"),
    ("share.snapshot", "ratio"),
    ("share.checks", "ratio"),
    ("colt_all_l2_elim_pct", "%"),
    ("table1_l2_mpmi_err", "log10"),
    ("contig_err", "log10"),
];

/// Median of `v` (mean of the middle two for an even count); 0 if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0-100) of `v`; 0 if empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// User plus system CPU seconds of this process, all threads included
/// (Linux `/proc/self/stat`, in clock ticks of 1/100 s).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_START: u64 = 0xCBF2_9CE4_8422_2325;

/// A word-at-a-time hash of a large buffer (snapshot bytes), cheap
/// enough to run on every preparation of a pass.
pub fn hash_words(bytes: &[u8]) -> u64 {
    let mut h = FNV_START ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let v = u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes"));
        h = (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    }
    fnv(h, words.remainder())
}
