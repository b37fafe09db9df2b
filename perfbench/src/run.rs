//! Set-up and timed passes: each pass submits the plan's fixed cell list
//! to `colt_core::runner` and waits for all of it (a closed loop), then
//! checks every cell's output.

use crate::metrics::{fnv, hash_words, FNV_START};
use crate::plan::{Plan, PrepCell, SimCell};
use crate::traced::{self, Probe};
use colt_core::runner::{self, CellOutcome, SweepCell, SweepTask};
use colt_core::sim::{self, SimResult};
use colt_core::snapshot_cache::{self, CacheStats};
use colt_os_mem::kernel::KernelStats;
use colt_os_mem::snapshot::{Dec, Enc};
use colt_workloads::scenario::PreparedWorkload;
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static TID: Cell<u32> = const { Cell::new(0) };
}

/// Microseconds since the run's first timestamp.
pub fn now_us() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e6
}

/// A small stable id for the calling thread (0 is the main thread).
fn tid() -> u32 {
    TID.with(|t| {
        if t.get() == 0 && std::thread::current().name() != Some("main") {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// One complete span for the trace file.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub cat: &'static str,
    pub tid: u32,
    pub start_us: f64,
    pub dur_us: f64,
    pub args: Vec<(&'static str, f64)>,
}

impl Span {
    fn closing(name: impl Into<String>, cat: &'static str, start_us: f64) -> Self {
        Span {
            name: name.into(),
            cat,
            tid: tid(),
            start_us,
            dur_us: now_us() - start_us,
            args: Vec::new(),
        }
    }
}

/// One sim cell's output.
pub struct SimOut {
    pub result: SimResult,
    pub probe: Option<Probe>,
    pub span: Span,
}

/// One preparation cell's output and phase times.
pub struct PrepOut {
    /// Why the cell's checks failed, if they did.
    pub failure: Option<String>,
    pub digest: u64,
    pub contiguity: f64,
    pub legend: Option<f64>,
    pub kernel: KernelStats,
    pub snapshot_bytes: u64,
    /// Wall time of the whole cell, checks included.
    pub cell_s: f64,
    pub prepare_s: f64,
    pub scan_s: f64,
    pub encode_s: f64,
    pub decode_s: f64,
    pub spans: Vec<Span>,
}

/// What one cell produced; `Failed` is a runner-level failure (the cell
/// panicked or its preparation failed).
pub enum CellOut {
    Sim(SimOut),
    Prep(PrepOut),
    Failed(String),
}

/// One timed pass over the whole cell list.
pub struct Pass {
    pub traced: bool,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Per-cell busy seconds as the runner measured them (preparation
    /// plus job), in submission order.
    pub cell_s: Vec<f64>,
    /// Seconds of preparation done inside the pass.
    pub prep_s: f64,
    pub cache: CacheStats,
    pub cells: Vec<CellOut>,
    pub span: Span,
}

fn collect<R>(outcomes: Vec<CellOutcome<R>>, wrap: impl Fn(R) -> CellOut) -> Vec<CellOut> {
    outcomes
        .into_iter()
        .map(|o| match o {
            CellOutcome::Ok(r) => wrap(r),
            CellOutcome::Failed { label, payload } => {
                CellOut::Failed(format!("{label}: {payload}"))
            }
            CellOutcome::Quarantined { label, reason, .. } => {
                CellOut::Failed(format!("{label}: {reason}"))
            }
        })
        .collect()
}

fn finish_pass(
    traced: bool,
    started: Instant,
    cpu0: f64,
    start_us: f64,
    cells: Vec<CellOut>,
) -> Pass {
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = crate::metrics::process_cpu_s() - cpu0;
    let metrics = runner::take_metrics();
    let cell_s = metrics
        .iter()
        .map(|m| m.prep_seconds + m.sim_seconds)
        .collect();
    let mut prep_s: f64 = metrics.iter().map(|m| m.prep_seconds).sum();
    prep_s += cells
        .iter()
        .map(|c| {
            if let CellOut::Prep(p) = c {
                p.prepare_s
            } else {
                0.0
            }
        })
        .sum::<f64>();
    let cache = snapshot_cache::take_stats();
    let name = if traced { "pass (traced)" } else { "pass" };
    let span = Span::closing(name, "core.runner", start_us);
    Pass {
        traced,
        wall_s,
        cpu_s,
        cell_s,
        prep_s,
        cache,
        cells,
        span,
    }
}

/// Runs every sim cell once through the runner, against the prepared
/// workloads already in the snapshot cache.
pub fn sim_pass(cells: &[SimCell], jobs: usize, traced: bool) -> Pass {
    let sweep: Vec<SweepCell<SimOut>> = cells
        .iter()
        .map(|c| {
            let cfg = c.cfg;
            let label = c.label.clone();
            SweepCell::new(
                c.label.clone(),
                &c.scenario,
                &c.spec,
                cfg.warmup + cfg.accesses,
                move |w| {
                    let start_us = now_us();
                    let (result, probe) = if traced {
                        let (r, p) = traced::run(w, &cfg);
                        (r, Some(p))
                    } else {
                        (sim::run(w, &cfg), None)
                    };
                    SimOut {
                        result,
                        probe,
                        span: Span::closing(label.clone(), "core.sim", start_us),
                    }
                },
            )
        })
        .collect();
    let (started, cpu0, start_us) = (Instant::now(), crate::metrics::process_cpu_s(), now_us());
    let out = collect(runner::run_cells_outcomes(sweep, jobs), CellOut::Sim);
    finish_pass(traced, started, cpu0, start_us, out)
}

/// Runs every preparation cell once, cold, through the runner.
pub fn prep_pass(cells: &[PrepCell], jobs: usize, traced: bool) -> Pass {
    let tasks: Vec<SweepTask<PrepOut>> = cells
        .iter()
        .map(|c| {
            let cell = c.clone();
            SweepTask::new(c.label.clone(), 0, move || prep_cell(&cell, traced))
        })
        .collect();
    let (started, cpu0, start_us) = (Instant::now(), crate::metrics::process_cpu_s(), now_us());
    let out = collect(runner::run_tasks_outcomes(tasks, jobs), CellOut::Prep);
    finish_pass(traced, started, cpu0, start_us, out)
}

/// Prepares one (configuration, benchmark) pair from scratch, scans its
/// contiguity, and round-trips it through the snapshot codec, checking
/// that the decoded copy re-encodes to the same bytes and scans to the
/// same contiguity.
pub fn prep_cell(cell: &PrepCell, traced: bool) -> PrepOut {
    let (cell_t, cell_us) = (Instant::now(), now_us());
    let mut out = prep_phases(cell, traced, cell_us);
    out.cell_s = cell_t.elapsed().as_secs_f64();
    out
}

fn prep_phases(cell: &PrepCell, traced: bool, cell_us: f64) -> PrepOut {
    let mut spans = Vec::new();
    let timed = |name: &'static str, cat: &'static str| {
        let (t, us) = (Instant::now(), now_us());
        move |spans: &mut Vec<Span>| {
            if traced {
                spans.push(Span::closing(name, cat, us));
            }
            t.elapsed().as_secs_f64()
        }
    };
    let mut out = PrepOut {
        failure: None,
        digest: 0,
        contiguity: 0.0,
        legend: cell.legend,
        kernel: KernelStats::default(),
        snapshot_bytes: 0,
        cell_s: 0.0,
        prepare_s: 0.0,
        scan_s: 0.0,
        encode_s: 0.0,
        decode_s: 0.0,
        spans: Vec::new(),
    };

    let done = timed("Scenario::prepare", "workloads.scenario");
    let prepared = cell.scenario.prepare(&cell.spec);
    out.prepare_s = done(&mut spans);
    let w = match prepared {
        Ok(w) => w,
        Err(e) => {
            out.failure = Some(format!("{}: preparation failed: {e}", cell.label));
            return out;
        }
    };
    out.kernel = w.kernel.stats();

    let done = timed("contiguity", "os-mem.contiguity");
    let report = w.contiguity();
    out.scan_s += done(&mut spans);
    out.contiguity = report.average_contiguity();

    let done = timed("encode_snapshot", "os-mem.snapshot");
    let mut enc = Enc::new();
    w.encode_snapshot(&mut enc);
    let bytes = enc.finish();
    out.encode_s += done(&mut spans);
    out.snapshot_bytes = bytes.len() as u64;
    drop(w);

    let done = timed("decode_snapshot", "os-mem.snapshot");
    let mut dec = Dec::new(&bytes);
    let decoded = PreparedWorkload::decode_snapshot(&mut dec, &cell.spec)
        .and_then(|d| dec.finish().map(|()| d));
    out.decode_s += done(&mut spans);
    let back = match decoded {
        Ok(b) => b,
        Err(e) => {
            out.failure = Some(format!("{}: snapshot does not decode: {e}", cell.label));
            return out;
        }
    };

    let done = timed("encode_snapshot (check)", "os-mem.snapshot");
    let mut enc = Enc::new();
    back.encode_snapshot(&mut enc);
    let again = enc.finish();
    out.encode_s += done(&mut spans);
    let done = timed("contiguity (check)", "os-mem.contiguity");
    let report_back = back.contiguity();
    out.scan_s += done(&mut spans);
    if again != bytes {
        out.failure = Some(format!(
            "{}: decoded snapshot re-encodes to different bytes",
            cell.label
        ));
    } else if report_back != report {
        out.failure = Some(format!(
            "{}: decoded snapshot scans to a different contiguity",
            cell.label
        ));
    }

    out.digest = fnv(hash_words(&bytes), &out.contiguity.to_bits().to_le_bytes());
    if traced {
        let mut span = Span::closing(cell.label.clone(), "perfbench.cell", cell_us);
        span.args = vec![
            ("snapshot_bytes", out.snapshot_bytes as f64),
            ("contiguity", out.contiguity),
        ];
        spans.insert(0, span);
        out.spans = spans;
    }
    out
}

/// Set-up of a sim workload: prepares every benchmark into the
/// in-memory snapshot cache (emptied first), as the runner would.
pub struct Setup {
    pub seconds: f64,
    /// Milliseconds each preparation took.
    pub prep_ms: Vec<f64>,
    pub kernel: Vec<KernelStats>,
    pub failures: Vec<String>,
}

pub fn sim_setup(plan: &Plan, jobs: usize) -> Setup {
    snapshot_cache::clear_memory();
    let _ = snapshot_cache::take_stats();
    let _ = runner::take_metrics();
    let cells: Vec<SweepCell<KernelStats>> = plan
        .prep_cells()
        .iter()
        .map(|c| {
            SweepCell::new(c.label.clone(), &c.scenario, &c.spec, 0, |w| {
                w.kernel.stats()
            })
        })
        .collect();
    let started = Instant::now();
    let outcomes = runner::run_cells_outcomes(cells, jobs);
    let seconds = started.elapsed().as_secs_f64();
    let prep_ms = runner::take_metrics()
        .iter()
        .map(|m| m.prep_seconds * 1e3)
        .collect();
    let _ = snapshot_cache::take_stats();
    let mut kernel = Vec::new();
    let mut failures = Vec::new();
    for o in outcomes {
        match o {
            CellOutcome::Ok(k) => kernel.push(k),
            CellOutcome::Failed { label, payload } => failures.push(format!("{label}: {payload}")),
            CellOutcome::Quarantined { label, reason, .. } => {
                failures.push(format!("{label}: {reason}"))
            }
        }
    }
    Setup {
        seconds,
        prep_ms,
        kernel,
        failures,
    }
}

/// Digest of a sim result: every field, through its `Debug` form.
pub fn sim_digest(r: &SimResult) -> u64 {
    fnv(FNV_START, format!("{r:?}").as_bytes())
}
