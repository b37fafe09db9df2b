//! One benchmark run: set-up, timed passes until the time budget is
//! spent, output checks, and the metrics of either the untraced run
//! (end-to-end) or the traced run (per-layer ledger).

use crate::metrics::{self, fnv, median, percentile, ratio, FNV_START};
use crate::plan::{Plan, Workload, DESIGNS};
use crate::run::{self, CellOut, Pass, Setup};
use crate::traced::{self, Probe};
use colt_core::sim::SimResult;
use colt_os_mem::kernel::KernelStats;
use colt_tlb::stats::pct_misses_eliminated;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Command-line choices of one run.
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub jobs: usize,
}

/// Everything a run reports.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name; the names are those of
    /// [`metrics::END_TO_END`] or [`metrics::PER_LAYER`].
    pub metrics: BTreeMap<&'static str, f64>,
    pub digest: u64,
    /// Lines for standard error: failures, sample counts, sim metrics.
    pub notes: Vec<String>,
    /// The per-layer ledger (traced runs).
    pub ledger: Option<String>,
    /// Chrome trace-event JSON of the traced passes (traced runs).
    pub trace_json: Option<String>,
}

/// Per-cell output checks across passes.
struct Checker {
    labels: Vec<String>,
    /// Per-cell digest of the first untraced pass (`None`: it failed).
    first: Vec<Option<u64>>,
    first_sim: Vec<Option<SimResult>>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checker {
    fn new(labels: Vec<String>) -> Self {
        Checker {
            labels,
            first: Vec::new(),
            first_sim: Vec::new(),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    fn check(&mut self, pass: &Pass) {
        let record = self.first.is_empty() && !pass.traced;
        for (i, cell) in pass.cells.iter().enumerate() {
            self.attempted += 1;
            let (digest, sim) = match cell {
                CellOut::Sim(s) => (Some(run::sim_digest(&s.result)), Some(s.result)),
                CellOut::Prep(p) if p.failure.is_none() => (Some(p.digest), None),
                _ => (None, None),
            };
            let problem = match cell {
                CellOut::Failed(why) => Some(why.clone()),
                CellOut::Prep(p) if p.failure.is_some() => p.failure.clone(),
                CellOut::Sim(s) if !traced::identities_hold(&s.result) => {
                    Some("accounting identities broken".to_string())
                }
                CellOut::Sim(s) => match self.first_sim.get(i).copied().flatten() {
                    Some(f) if !traced::same_result(&f, &s.result) => Some(if pass.traced {
                        "traced loop copy differs from sim::run".to_string()
                    } else {
                        "result differs from the first pass".to_string()
                    }),
                    _ => None,
                },
                CellOut::Prep(p) => match self.first.get(i).copied().flatten() {
                    Some(d) if d != p.digest => {
                        Some("output differs from the first pass".to_string())
                    }
                    _ => None,
                },
            };
            if let Some(why) = problem {
                self.failed += 1;
                if self.notes.len() < 20 {
                    self.notes.push(format!("FAILED {}: {why}", self.labels[i]));
                }
            }
            if record {
                self.first.push(digest);
                self.first_sim.push(sim);
            }
        }
    }

    fn digest(&self, setup_kernel: &[KernelStats]) -> u64 {
        let mut h = FNV_START;
        for d in &self.first {
            h = fnv(h, &d.unwrap_or(0).to_le_bytes());
        }
        for k in setup_kernel {
            h = fnv(h, format!("{k:?}").as_bytes());
        }
        h
    }
}

/// Keeps passing until the next pass would overrun the budget, after at
/// least `min_passes`.
fn more(started: Instant, seconds: f64, passes: &[Pass], min_passes: usize) -> bool {
    if passes.len() < min_passes {
        return true;
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    started.elapsed().as_secs_f64() + median(&walls) <= seconds
}

fn pass(plan: &Plan, jobs: usize, traced: bool) -> Pass {
    if plan.workload.simulates() {
        run::sim_pass(&plan.sim_cells(), jobs, traced)
    } else {
        run::prep_pass(&plan.prep_cells(), jobs, traced)
    }
}

/// Runs the benchmark; `Err` only when set-up itself fails. At the
/// default seed the digest must equal the stored one.
pub fn run(opts: &Options) -> Result<Report, String> {
    let mut report = execute(&Plan::new(opts.workload, opts.seed), opts)?;
    if opts.seed == crate::plan::DEFAULT_SEED {
        let want = crate::expected_digest(opts.workload);
        if want != Some(report.digest) {
            report.correct = false;
            let want = want.map_or("nothing".to_string(), |w| format!("{w:016x}"));
            report.notes.push(format!(
                "FAILED digest {:016x} differs from the stored {want}",
                report.digest
            ));
        }
    }
    Ok(report)
}

/// Runs `plan` (the full plan, or a reduced one in tests).
pub fn execute(plan: &Plan, opts: &Options) -> Result<Report, String> {
    run::now_us();
    let labels: Vec<String> = if plan.workload.simulates() {
        plan.sim_cells().into_iter().map(|c| c.label).collect()
    } else {
        plan.prep_cells().into_iter().map(|c| c.label).collect()
    };
    let mut checker = Checker::new(labels);

    let reps = if opts.trace { 1 } else { SETUP_REPS };
    let mut setups: Vec<Setup> = Vec::with_capacity(reps);
    for _ in 0..reps {
        let setup = if plan.workload.simulates() {
            run::sim_setup(plan, opts.jobs)
        } else {
            let started = Instant::now();
            let out = run::prep_cell(&plan.prep_cells()[0], false);
            let failures = out.failure.into_iter().collect();
            Setup {
                seconds: started.elapsed().as_secs_f64(),
                prep_ms: Vec::new(),
                kernel: Vec::new(),
                failures,
            }
        };
        if !setup.failures.is_empty() {
            return Err(format!("set-up failed: {}", setup.failures.join("; ")));
        }
        if setups.first().is_some_and(|s| s.kernel != setup.kernel) {
            return Err("set-up preparations differ between repetitions".to_string());
        }
        setups.push(setup);
    }

    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    // One `prepare` pass of 168 cold preparations takes 6-13 s, so an
    // untraced run may hold a single pass; a traced run needs one of
    // each kind.
    let min_passes = if opts.trace { 2 } else { 1 };
    while more(started, opts.seconds, &passes, min_passes) {
        // Traced runs alternate untraced and traced passes, untraced
        // first, so every traced cell has a `sim::run` result to match.
        let traced = opts.trace && passes.len() % 2 == 1;
        let p = pass(plan, opts.jobs, traced);
        checker.check(&p);
        passes.push(p);
    }

    let digest = checker.digest(&setups[0].kernel);
    let mut notes = std::mem::take(&mut checker.notes);
    let accuracy = accuracy(plan, &checker, &passes);
    notes.push(format!(
        "colt_all_l2_elim_pct {:.4}; table1_l2_mpmi_err {:.4}; contig_err {:.4}",
        accuracy[0], accuracy[1], accuracy[2]
    ));

    let mut report = Report {
        correct: checker.failed == 0,
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: BTreeMap::new(),
        digest,
        notes,
        ledger: None,
        trace_json: None,
    };
    if opts.trace {
        per_layer(plan, opts, &setups[0], &passes, accuracy, &mut report);
    } else {
        end_to_end(&setups, &passes, &mut report);
    }
    Ok(report)
}

fn end_to_end(setups: &[Setup], passes: &[Pass], report: &mut Report) {
    let m = &mut report.metrics;
    m.insert(
        "setup_s",
        median(&setups.iter().map(|s| s.seconds).collect::<Vec<_>>()),
    );
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.cells.len() as f64 / p.wall_s)
        .collect();
    m.insert("cells_per_s", median(&rates));
    let cell_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.cell_s.iter().map(|s| s * 1e3))
        .collect();
    m.insert("cell_ms_p50", percentile(&cell_ms, 50.0));
    m.insert("cell_ms_p90", percentile(&cell_ms, 90.0));
    m.insert(
        "cpu_s",
        median(&passes.iter().map(|p| p.cpu_s).collect::<Vec<_>>()),
    );
    m.insert("peak_rss_mb", metrics::peak_rss_mb());
    let secs = |v: Vec<f64>| {
        v.iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    report.notes.push(format!(
        "{} timed passes, {} cell samples ({} above p90); pass walls {} s; set-ups {} s",
        passes.len(),
        cell_ms.len(),
        cell_ms.len() - (cell_ms.len() as f64 * 0.9).ceil() as usize,
        secs(passes.iter().map(|p| p.wall_s).collect()),
        secs(setups.iter().map(|s| s.seconds).collect()),
    ));
}

/// Simulated accuracy against the paper: CoLT-All's mean L2-miss
/// elimination, Baseline L2 MPMI error against Table 1 (THS on), and
/// contiguity error against the Figure 7-15 legends. 0 where the
/// workload does not produce the quantity.
fn accuracy(plan: &Plan, checker: &Checker, passes: &[Pass]) -> [f64; 3] {
    let mut out = [0.0; 3];
    if plan.workload.simulates() {
        let cells = plan.sim_cells();
        let (mut elim, mut err) = (Vec::new(), Vec::new());
        for (group, defs) in checker
            .first_sim
            .chunks(DESIGNS.len())
            .zip(cells.chunks(DESIGNS.len()))
        {
            if let (Some(base), Some(all)) = (group[0], group[DESIGNS.len() - 1]) {
                elim.push(pct_misses_eliminated(base.tlb.l2_misses, all.tlb.l2_misses));
                let paper = defs[0].spec.paper.l2_mpmi_ths_on;
                if base.l2_mpmi() > 0.0 {
                    err.push((base.l2_mpmi() / paper).log10().abs());
                }
            }
        }
        out[0] = mean(&elim);
        if plan.workload == Workload::Translate {
            out[1] = mean(&err);
        }
    } else if let Some(first) = passes.iter().find(|p| !p.traced) {
        let errs: Vec<f64> = first
            .cells
            .iter()
            .filter_map(|c| match c {
                CellOut::Prep(p) if p.failure.is_none() => {
                    p.legend.map(|l| (p.contiguity / l).log10().abs())
                }
                _ => None,
            })
            .collect();
        out[2] = mean(&errs);
    }
    out
}

fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

/// Self seconds of every layer in the traced passes, in ledger order.
struct Ledger {
    /// (layer, share metric, self seconds, counts and ratios).
    rows: Vec<(&'static str, &'static str, f64, String)>,
    wall_s: f64,
    workers: f64,
}

fn per_layer(
    plan: &Plan,
    opts: &Options,
    setup: &Setup,
    passes: &[Pass],
    acc: [f64; 3],
    report: &mut Report,
) {
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let n = traced.len() as f64;
    let cells_per_pass = traced.first().map_or(0, |p| p.cells.len());
    let workers = opts.jobs.max(1).min(cells_per_pass.max(1)) as f64;
    let wall: f64 = traced.iter().map(|p| p.wall_s).sum();
    let thread_s = workers * wall;

    let mut probe = Probe::default();
    let mut sims: Vec<SimResult> = Vec::new();
    let mut preps = Vec::new();
    for p in &traced {
        for c in &p.cells {
            match c {
                CellOut::Sim(s) => {
                    probe.add(&s.probe.expect("traced passes carry probes"));
                    sims.push(s.result);
                }
                CellOut::Prep(p) => preps.push(p),
                CellOut::Failed(_) => {}
            }
        }
    }
    let sum = |f: &dyn Fn(&SimResult) -> u64| sims.iter().map(f).sum::<u64>() as f64;
    let psum = |f: &dyn Fn(&run::PrepOut) -> f64| preps.iter().map(|p| f(p)).sum::<f64>();
    let ns = |v: u64| v as f64 * 1e-9;
    let busy: f64 = traced.iter().flat_map(|p| p.cell_s.iter()).sum();
    let lookups: f64 = traced
        .iter()
        .map(|p| (p.cache.hits() + p.cache.misses) as f64)
        .sum();
    let cells_total = (cells_per_pass as f64) * n;

    let m = &mut report.metrics;
    m.insert("runner.busy_s", busy / n);
    m.insert("runner.idle_share", 1.0 - ratio(busy, thread_s));
    m.insert(
        "runner.prep_reuse_ratio",
        if plan.workload.simulates() {
            1.0 - ratio(lookups, cells_total)
        } else {
            0.0
        },
    );
    let all_passes = passes.len() as f64;
    m.insert(
        "snapcache.mem_hits",
        passes.iter().map(|p| p.cache.mem_hits as f64).sum::<f64>() / all_passes,
    );
    m.insert(
        "snapcache.misses",
        passes.iter().map(|p| p.cache.misses as f64).sum::<f64>() / all_passes,
    );
    m.insert(
        "scenario.prepare_s",
        passes.iter().map(|p| p.prep_s).sum::<f64>() / all_passes,
    );
    let (prep_ms, kernel): (Vec<f64>, Vec<KernelStats>) = if plan.workload.simulates() {
        (setup.prep_ms.clone(), setup.kernel.clone())
    } else {
        let per_pass = preps.len() / traced.len().max(1);
        (
            preps.iter().map(|p| p.prepare_s * 1e3).collect(),
            preps[..per_pass].iter().map(|p| p.kernel).collect(),
        )
    };
    m.insert("scenario.prepare_ms_p50", median(&prep_ms));
    let ks = |f: &dyn Fn(&KernelStats) -> u64| kernel.iter().map(f).sum::<u64>() as f64;
    m.insert("os_mem.compaction_runs", ks(&|k| k.compaction_runs));
    m.insert("os_mem.pages_migrated", ks(&|k| k.pages_migrated));
    m.insert("os_mem.thp_allocs", ks(&|k| k.thp_allocs));
    m.insert("os_mem.thp_splits", ks(&|k| k.thp_splits));
    m.insert("os_mem.demand_faults", ks(&|k| k.demand_faults));
    m.insert("os_mem.pages_reclaimed", ks(&|k| k.pages_reclaimed));
    m.insert("snapshot.encode_ms", psum(&|p| p.encode_s) * 1e3 / n);
    m.insert("snapshot.decode_ms", psum(&|p| p.decode_s) * 1e3 / n);
    m.insert("snapshot.mb", psum(&|p| p.snapshot_bytes as f64) / 1e6 / n);
    m.insert("contiguity.scan_ms", psum(&|p| p.scan_s) * 1e3 / n);

    let refs = probe.refs as f64;
    m.insert("pattern.ns_per_ref", ratio(probe.pattern_ns as f64, refs));
    m.insert("tlb.lookup_ns_per_ref", ratio(probe.lookup_ns as f64, refs));
    m.insert(
        "tlb.fill_ns",
        ratio(probe.fill_ns as f64, probe.fills as f64),
    );
    m.insert(
        "tlb.maint_ns",
        ratio(probe.tlb_maint_ns as f64, probe.maint_ops as f64),
    );
    m.insert(
        "tlb.l1_hit_ratio",
        ratio(sum(&|r| r.tlb.l1_hits), sum(&|r| r.tlb.accesses)),
    );
    m.insert(
        "tlb.l2_hit_ratio",
        ratio(sum(&|r| r.tlb.l2_hits), sum(&|r| r.tlb.l1_misses)),
    );
    m.insert("tlb.fills", sum(&|r| r.tlb.fills) / n);
    let hist_n = sum(&|r| r.tlb.coalesce_hist.iter().sum());
    let hist_w = sum(&|r| {
        r.tlb
            .coalesce_hist
            .iter()
            .enumerate()
            .map(|(k, c)| (k as u64 + 1) * c)
            .sum()
    });
    m.insert("tlb.mean_coalesced", ratio(hist_w, hist_n));
    m.insert(
        "walker.walk_ns",
        ratio(probe.walk_ns as f64, probe.walks as f64),
    );
    m.insert("walker.walks", sum(&|r| r.walker.walks) / n);
    m.insert(
        "walker.cycles_per_walk",
        ratio(sum(&|r| r.walk_cycles), sum(&|r| r.walker.walks)),
    );
    let mmu = (probe.mmu_level_hits + probe.mmu_level_misses) as f64;
    m.insert(
        "walker.mmu_hit_ratio",
        ratio(probe.mmu_level_hits as f64, mmu),
    );
    m.insert(
        "caches.data_ns_per_access",
        ratio(probe.data_ns as f64, probe.data_accesses as f64),
    );
    let l1d = (probe.l1d_hits + probe.l1d_misses) as f64;
    m.insert("caches.l1d_miss_ratio", ratio(probe.l1d_misses as f64, l1d));
    let llc = (probe.llc_hits + probe.llc_misses) as f64;
    m.insert("caches.llc_miss_ratio", ratio(probe.llc_misses as f64, llc));
    m.insert(
        "sim.self_ns_per_ref",
        ratio(probe.sim_self_ns() as f64, refs),
    );
    let walls = |ps: &[&Pass]| median(&ps.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    m.insert(
        "trace.overhead_pct",
        (ratio(walls(&traced), walls(&untraced)) - 1.0) * 100.0,
    );
    m.insert("colt_all_l2_elim_pct", acc[0]);
    m.insert("table1_l2_mpmi_err", acc[1]);
    m.insert("contig_err", acc[2]);

    let inside = ns(probe.cell_ns) + psum(&|p| p.cell_s);
    let phases = psum(&|p| p.prepare_s + p.scan_s + p.encode_s + p.decode_s);
    let f = |v: f64| format!("{:.3}", v + 0.0);
    let ledger = Ledger {
        wall_s: wall,
        workers,
        rows: vec![
            (
                "core.runner",
                "share.runner",
                thread_s - inside,
                format!(
                    "{} passes x {cells_per_pass} cells on {workers} workers; idle share {}; prep reuse {}; cache hits/misses per pass {}/{}",
                    traced.len(),
                    f(m["runner.idle_share"]),
                    f(m["runner.prep_reuse_ratio"]),
                    f(m["snapcache.mem_hits"]),
                    f(m["snapcache.misses"])
                ),
            ),
            ("core.sim", "share.sim", ns(probe.sim_self_ns()), format!("{} refs; {} ns/ref self", probe.refs, f(m["sim.self_ns_per_ref"]))),
            ("workloads.pattern", "share.pattern", ns(probe.pattern_ns), format!("{} ns/ref", f(m["pattern.ns_per_ref"]))),
            (
                "tlb.hierarchy",
                "share.tlb",
                ns(probe.lookup_ns + probe.fill_ns + probe.tlb_maint_ns),
                format!(
                    "lookup {} ns/ref; {} fills at {} ns; {} maintenance ops at {} ns; L1 hit {}; L2 hit {}; mean coalesced {}",
                    f(m["tlb.lookup_ns_per_ref"]),
                    probe.fills,
                    f(m["tlb.fill_ns"]),
                    probe.maint_ops,
                    f(m["tlb.maint_ns"]),
                    f(m["tlb.l1_hit_ratio"]),
                    f(m["tlb.l2_hit_ratio"]),
                    f(m["tlb.mean_coalesced"])
                ),
            ),
            (
                "memsim.walker",
                "share.walker",
                ns(probe.walk_ns + probe.walker_maint_ns),
                format!(
                    "{} walks at {} ns; {} cycles/walk; MMU-cache hit {}",
                    probe.walks,
                    f(m["walker.walk_ns"]),
                    f(m["walker.cycles_per_walk"]),
                    f(m["walker.mmu_hit_ratio"])
                ),
            ),
            (
                "memsim.hierarchy",
                "share.caches",
                ns(probe.data_ns),
                format!(
                    "{} data accesses at {} ns; L1D miss {}; LLC miss {}",
                    probe.data_accesses,
                    f(m["caches.data_ns_per_access"]),
                    f(m["caches.l1d_miss_ratio"]),
                    f(m["caches.llc_miss_ratio"])
                ),
            ),
            (
                "workloads.scenario",
                "share.scenario",
                psum(&|p| p.prepare_s),
                format!(
                    "{} {}, p50 {} ms; kernel work: {} compaction runs, {} pages migrated, {} THP allocs, {} THP splits, {} demand faults, {} pages reclaimed",
                    prep_ms.len(),
                    if plan.workload.simulates() { "set-up preparations (none in passes)" } else { "preparations" },
                    f(m["scenario.prepare_ms_p50"]),
                    m["os_mem.compaction_runs"],
                    m["os_mem.pages_migrated"],
                    m["os_mem.thp_allocs"],
                    m["os_mem.thp_splits"],
                    m["os_mem.demand_faults"],
                    m["os_mem.pages_reclaimed"]
                ),
            ),
            ("os-mem.contiguity", "share.contiguity", psum(&|p| p.scan_s), format!("{} scans", 2 * preps.len())),
            (
                "os-mem.snapshot",
                "share.snapshot",
                psum(&|p| p.encode_s + p.decode_s),
                format!("{} MB per pass; 2 encodes + 1 decode per cell", f(m["snapshot.mb"])),
            ),
            ("perfbench (checks)", "share.checks", psum(&|p| p.cell_s) - phases, "digests and round-trip comparisons".to_string()),
        ],
    };
    for (_, name, self_s, _) in &ledger.rows {
        m.insert(name, ratio(*self_s, thread_s));
    }
    report.ledger = Some(render_ledger(plan, opts, &ledger, m));
    report.trace_json = Some(chrome_trace(&traced));
}

fn render_ledger(
    plan: &Plan,
    opts: &Options,
    ledger: &Ledger,
    m: &BTreeMap<&'static str, f64>,
) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "### `{}` (seed {}, {} s budget; traced wall {:.2} s on {} workers)\n",
        plan.workload.name(),
        opts.seed,
        opts.seconds,
        ledger.wall_s,
        ledger.workers
    );
    let _ = writeln!(
        s,
        "| layer | self s | share of traced wall | counts and ratios |"
    );
    let _ = writeln!(s, "|---|---:|---:|---|");
    for (layer, name, self_s, counts) in &ledger.rows {
        let _ = writeln!(
            s,
            "| {layer} | {:.3} | {:.1}% | {counts} |",
            self_s + 0.0,
            m[name] * 100.0 + 0.0
        );
    }
    let _ = writeln!(s, "\ntrace.overhead_pct {:.1}", m["trace.overhead_pct"]);
    s
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The traced passes as Chrome trace-event JSON (complete events, one
/// per pass, cell and preparation phase; per-layer totals of a sim cell
/// are its span's args).
fn chrome_trace(traced: &[&Pass]) -> String {
    let mut events = Vec::new();
    let mut push = |span: &run::Span| {
        let mut args = String::new();
        for (i, (k, v)) in span.args.iter().enumerate() {
            let _ = write!(
                args,
                "{}{}:{}",
                if i > 0 { "," } else { "" },
                json_str(k),
                v
            );
        }
        events.push(format!(
            "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}",
            json_str(&span.name),
            json_str(span.cat),
            span.tid,
            span.start_us,
            span.dur_us
        ));
    };
    for p in traced {
        push(&p.span);
        for c in &p.cells {
            match c {
                CellOut::Sim(s) => {
                    let mut span = s.span.clone();
                    if let Some(probe) = &s.probe {
                        span.args = vec![
                            ("workloads.pattern_ns", probe.pattern_ns as f64),
                            ("tlb.lookup_ns", probe.lookup_ns as f64),
                            ("tlb.fill_ns", probe.fill_ns as f64),
                            ("tlb.maint_ns", probe.tlb_maint_ns as f64),
                            (
                                "memsim.walker_ns",
                                (probe.walk_ns + probe.walker_maint_ns) as f64,
                            ),
                            ("memsim.hierarchy_ns", probe.data_ns as f64),
                            ("core.sim_self_ns", probe.sim_self_ns() as f64),
                            ("refs", probe.refs as f64),
                            ("walks", probe.walks as f64),
                        ];
                    }
                    push(&span);
                }
                CellOut::Prep(p) => p.spans.iter().for_each(&mut push),
                CellOut::Failed(_) => {}
            }
        }
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}
