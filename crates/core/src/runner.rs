//! Parallel sweep runner: fans independent (benchmark × scenario ×
//! TLB-config) simulation cells out across a work-stealing scheduler
//! on scoped threads.
//!
//! Every experiment driver is a sweep over cells that share nothing but
//! a prepared workload, so the runner provides exactly four guarantees:
//!
//! 1. **Determinism** — results come back in submission order, and each
//!    cell's simulation consumes only its own [`SimConfig`]-seeded RNG
//!    streams, so the rendered tables are byte-identical regardless of
//!    `jobs` (and regardless of how many cells were replayed from a
//!    journal rather than executed).
//! 2. **Shared preparation, no convoying** — cells that name the same
//!    (scenario, benchmark) pair share one [`PreparedWorkload`], built
//!    once (or decoded from the process-global
//!    [`snapshot_cache`](crate::snapshot_cache)) by whichever worker
//!    gets there first and handed out as an `Arc`. A cell that finds
//!    its preparation *in flight* parks on the slot instead of
//!    blocking its worker: the worker steals other cells in the
//!    meantime, and the parked cells are requeued the moment the build
//!    lands. Work distribution is per-worker deques (pop-front own
//!    work, steal-back others'), so one slow preparation never idles
//!    the rest of the pool.
//! 3. **Supervised failure** — a cell that panics, whose preparation
//!    fails, or that exceeds the hard deadline is *retried* up to
//!    `retries` times with exponential backoff and a
//!    perturbed-but-deterministic requeue position; a cell that
//!    exhausts its retries becomes [`CellOutcome::Quarantined`] while
//!    every other cell still completes. The legacy
//!    [`run_cells`]/[`run_tasks`] entry points keep the old fail-fast,
//!    zero-retry contract.
//! 4. **Durable progress** — the `*_sweep` entry points append one
//!    checksummed record per finished cell to the experiment's
//!    [`Journal`](crate::journal), fsynced before the result is even
//!    reported, so a `SIGKILL` at any instant loses at most the cells
//!    in flight; `--resume` replays the journal and runs only the rest.
//!
//! Deadlines: `COLT_CELL_SOFT_DEADLINE` (default 120 s, 0 disables)
//! only warns — killing a thread mid-simulation would corrupt nothing
//! but help nobody. `COLT_CELL_HARD_DEADLINE` (default 0 = off) arms
//! the watchdog: the attempt runs on a supervised thread and is
//! abandoned (then retried, then quarantined) when it exceeds the
//! budget. A garbage value in either variable earns one loud stderr
//! note naming the variable and the value actually used — never a
//! silent fallback.
//!
//! Implementation is std-only (`std::thread::scope`, channels, locks):
//! the build must work offline, so no rayon or crates.io dependency.

use crate::journal::{Journal, JournalPayload};
use crate::sim::{self, SimConfig, SimResult};
use crate::snapshot_cache;
use colt_workloads::scenario::{PreparedWorkload, Scenario};
use colt_workloads::spec::BenchmarkSpec;
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, PoisonError};
use std::time::{Duration, Instant};

/// One unit of parallel work: a job run against a prepared workload.
/// The job is an `Arc<dyn Fn>` (not `FnOnce`) so the supervisor can
/// re-run it on retry and hand it to a watchdog thread.
pub struct SweepCell<R> {
    label: String,
    scenario: Scenario,
    spec: BenchmarkSpec,
    /// Memory references the job will simulate (0 for analysis-only
    /// cells such as contiguity scans) — feeds the throughput report.
    refs: u64,
    job: Arc<dyn Fn(&PreparedWorkload) -> R + Send + Sync>,
}

impl<R> SweepCell<R> {
    /// A cell running an arbitrary job against the prepared workload.
    pub fn new(
        label: impl Into<String>,
        scenario: &Scenario,
        spec: &BenchmarkSpec,
        refs: u64,
        job: impl Fn(&PreparedWorkload) -> R + Send + Sync + 'static,
    ) -> Self {
        Self {
            label: label.into(),
            scenario: scenario.clone(),
            spec: spec.clone(),
            refs,
            job: Arc::new(job),
        }
    }
}

impl SweepCell<SimResult> {
    /// The common case: simulate the workload under one TLB config.
    pub fn sim(
        label: impl Into<String>,
        scenario: &Scenario,
        spec: &BenchmarkSpec,
        cfg: SimConfig,
    ) -> Self {
        let refs = cfg.warmup + cfg.accesses;
        Self::new(label, scenario, spec, refs, move |w| sim::run(w, &cfg))
    }
}

/// One unit of parallel work that owns its whole job (no shared
/// preparation) — for drivers like `multiprog` whose preparation is
/// itself per-cell.
pub struct SweepTask<R> {
    label: String,
    refs: u64,
    job: Arc<dyn Fn() -> R + Send + Sync>,
}

impl<R> SweepTask<R> {
    /// Creates a self-contained task.
    pub fn new(
        label: impl Into<String>,
        refs: u64,
        job: impl Fn() -> R + Send + Sync + 'static,
    ) -> Self {
        Self { label: label.into(), refs, job: Arc::new(job) }
    }
}

/// What became of one sweep cell: its result, or a description of why
/// it died while the rest of the sweep carried on.
#[derive(Debug)]
pub enum CellOutcome<R> {
    /// The cell ran to completion (or was replayed from the journal).
    Ok(R),
    /// The cell's only attempt failed (zero-retry sweeps): preparation
    /// failed or the job panicked; `payload` is the cause.
    Failed {
        /// Label of the failed cell ("fig18/Mcf/CoLT-All").
        label: String,
        /// Human-readable failure cause.
        payload: String,
    },
    /// The cell failed every attempt the watchdog allowed it and was
    /// quarantined: the sweep completed around it, the journal records
    /// it, and the run exits nonzero.
    Quarantined {
        /// Label of the quarantined cell.
        label: String,
        /// Attempts consumed (first try + retries).
        attempts: u32,
        /// Cause of the final failure (panic message, preparation
        /// error, or hard-deadline expiry).
        reason: String,
    },
}

impl<R> CellOutcome<R> {
    /// The success value, if any.
    pub fn ok(self) -> Option<R> {
        match self {
            CellOutcome::Ok(r) => Some(r),
            CellOutcome::Failed { .. } | CellOutcome::Quarantined { .. } => None,
        }
    }

    /// True when the cell failed or was quarantined.
    pub fn is_failed(&self) -> bool {
        !matches!(self, CellOutcome::Ok(_))
    }

    /// Unwraps the success value, re-panicking with the recorded cause
    /// — the fail-fast behaviour of the legacy entry points.
    fn unwrap_or_panic(self) -> R {
        match self {
            CellOutcome::Ok(r) => r,
            CellOutcome::Failed { label, payload } => {
                panic!("sweep cell '{label}' failed: {payload}")
            }
            CellOutcome::Quarantined { label, attempts, reason } => {
                panic!(
                    "sweep cell '{label}' quarantined after {attempts} attempt(s): {reason}"
                )
            }
        }
    }
}

/// Unwraps every outcome, panicking on the first failed/quarantined
/// cell — for drivers whose sweeps must be all-or-nothing.
pub fn expect_all<R>(outcomes: Vec<CellOutcome<R>>) -> Vec<R> {
    outcomes.into_iter().map(CellOutcome::unwrap_or_panic).collect()
}

/// Timing record for one completed cell, for the throughput report.
#[derive(Clone, Debug)]
pub struct CellMetric {
    /// Cell label ("fig18/Mcf/CoLT-All").
    pub label: String,
    /// Benchmark name ("" for self-contained tasks).
    pub benchmark: String,
    /// Scenario name ("" for self-contained tasks).
    pub scenario: String,
    /// Memory references simulated (0 for analysis-only cells).
    pub refs: u64,
    /// Seconds this cell spent building the shared workload (0 when it
    /// reused another cell's preparation).
    pub prep_seconds: f64,
    /// Seconds the job itself ran.
    pub sim_seconds: f64,
}

static METRICS: Mutex<Vec<CellMetric>> = Mutex::new(Vec::new());

/// Locks a mutex, recovering the data if a previous holder panicked.
/// Every runner structure is either append-only (metrics), a work queue
/// whose items are consumed whole, or a prep slot that a failed builder
/// leaves `None` (retryable) — so the data is consistent even after a
/// mid-critical-section panic and poisoning carries no information.
fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Renders a `catch_unwind` payload as the human-readable panic message.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Parses a non-negative seconds value from `var`, printing one loud
/// note (per variable, per process) when the value is garbage instead
/// of silently falling back.
fn env_seconds(var: &'static str, default: f64, warned: &'static Once) -> f64 {
    match std::env::var(var) {
        Err(_) => default,
        Ok(raw) => match raw.parse::<f64>() {
            Ok(v) if v >= 0.0 && v.is_finite() => v,
            _ => {
                warned.call_once(|| {
                    eprintln!(
                        "warning: {var}='{raw}' is not a non-negative number of \
                         seconds; using the default of {default} instead"
                    );
                });
                default
            }
        },
    }
}

static SOFT_WARNED: Once = Once::new();
static HARD_WARNED: Once = Once::new();

/// Soft wall-clock budget for one cell, in seconds. Cells that run
/// longer only earn a stderr warning — killing a thread mid-simulation
/// would corrupt nothing but help nobody — but the warning makes hung
/// cells visible in otherwise-silent long sweeps. Override with
/// `COLT_CELL_SOFT_DEADLINE=<seconds>` (0 disables).
fn cell_soft_deadline() -> f64 {
    env_seconds("COLT_CELL_SOFT_DEADLINE", 120.0, &SOFT_WARNED)
}

/// Hard wall-clock budget for one cell attempt, in seconds. 0 (the
/// default) disables the watchdog; any positive value runs each job on
/// a supervised thread that is abandoned on expiry, which counts as a
/// failed attempt (retried, then quarantined). Override with
/// `COLT_CELL_HARD_DEADLINE=<seconds>`.
fn cell_hard_deadline() -> f64 {
    env_seconds("COLT_CELL_HARD_DEADLINE", 0.0, &HARD_WARNED)
}

fn warn_if_over_deadline(label: &str, seconds: f64, deadline: f64) {
    if deadline > 0.0 && seconds > deadline {
        eprintln!(
            "warning: cell '{label}' ran {seconds:.1}s (soft deadline {deadline:.0}s)"
        );
    }
}

/// Drains the metrics accumulated by every runner call since the last
/// drain, in cell-submission order.
pub fn take_metrics() -> Vec<CellMetric> {
    std::mem::take(&mut *relock(&METRICS))
}

/// Supervision policy for one sweep: worker width, the watchdog's
/// retry budget and hard deadline, and the durable journal (if the
/// invocation wants crash-safe progress).
pub struct SweepOptions<'a> {
    /// Worker threads. Results are identical at any value.
    pub jobs: usize,
    /// Retries per failing cell beyond its first attempt (so a cell
    /// runs at most `retries + 1` times). `repro --retries N`,
    /// default 1.
    pub retries: u32,
    /// Hard per-attempt deadline in seconds; `None` reads
    /// `COLT_CELL_HARD_DEADLINE` (default 0 = off).
    pub hard_deadline: Option<f64>,
    /// Durable cell journal for crash-safe progress and `--resume`.
    pub journal: Option<&'a Journal>,
}

impl SweepOptions<'_> {
    /// A plain policy: `jobs` workers, no retries, no journal.
    pub fn jobs_only(jobs: usize) -> Self {
        SweepOptions { jobs, retries: 0, hard_deadline: None, journal: None }
    }
}

/// One sweep-local preparation slot. The slot exists so that, within a
/// sweep, exactly one worker builds each (scenario, spec) pair while
/// cells that arrive during the build *park* on the slot (their worker
/// moves on to other work) instead of blocking behind a lock. The
/// actual build — memory cache, disk snapshot, or a fresh
/// `Scenario::prepare` — is delegated to [`snapshot_cache`].
enum SlotState {
    /// Nobody has built this pair yet (or the last build failed, which
    /// leaves the slot retryable rather than wedged).
    Empty,
    /// A worker is building right now; arriving cells park in `waiting`.
    Building,
    /// The workload is ready for every future cell of the sweep.
    Ready(Arc<PreparedWorkload>),
}

struct PrepSlot<R> {
    state: SlotState,
    /// Cells parked until the in-flight build lands; the builder drains
    /// them into the injector (success and failure alike — after a
    /// failure one of them becomes the next builder).
    waiting: Vec<Item<R>>,
}

type SlotMap<R> = Mutex<HashMap<String, Arc<Mutex<PrepSlot<R>>>>>;

/// Runs `run` under the hard deadline: on a supervised thread whose
/// result is awaited for at most `hard` seconds, after which the
/// attempt is abandoned (the thread keeps running — a thread cannot be
/// safely killed — but its eventual result is discarded). With the
/// deadline off the job runs inline under `catch_unwind`.
///
/// The deadline covers only the job, not shared preparation:
/// preparation is a critical section other cells wait on, and
/// abandoning a thread inside it would wedge the whole sweep.
fn run_with_deadline<R: Send + 'static>(
    run: Box<dyn FnOnce() -> R + Send>,
    hard: f64,
) -> Result<R, String> {
    if hard <= 0.0 {
        return catch_unwind(AssertUnwindSafe(run)).map_err(panic_message);
    }
    let (tx, rx) = mpsc::channel();
    let spawned = std::thread::Builder::new()
        .name("colt-cell-attempt".to_string())
        .spawn(move || {
            let _ = tx.send(catch_unwind(AssertUnwindSafe(run)));
        });
    if let Err(e) = spawned {
        return Err(format!("could not spawn watchdog attempt thread: {e}"));
    }
    match rx.recv_timeout(Duration::from_secs_f64(hard)) {
        Ok(Ok(r)) => Ok(r),
        Ok(Err(payload)) => Err(panic_message(payload)),
        Err(_) => Err(format!(
            "exceeded hard deadline {hard:.1}s (COLT_CELL_HARD_DEADLINE); \
             attempt abandoned"
        )),
    }
}

/// Exponential backoff before retry `attempt` (the attempt number that
/// just failed): 25 ms doubling per attempt, capped at 1 s. Pure
/// function of the attempt number — deterministic.
fn backoff_for(attempt: u32) -> Duration {
    Duration::from_millis((25u64 << (attempt.min(6) - 1)).min(1_000))
}

/// Deterministically perturbed requeue position for a retry: a hash of
/// (label, attempt) modulo the queue length, so a retried cell does
/// not land behind the exact co-scheduling that just failed it, yet
/// any two runs requeue identically.
fn requeue_position(label: &str, attempt: u32, queue_len: usize) -> usize {
    let h = crate::journal::crc32(label.as_bytes()) as usize + attempt as usize;
    h % (queue_len + 1)
}

fn encode_of<R: JournalPayload>(r: &R) -> String {
    r.encode()
}

fn decode_of<R: JournalPayload>(s: &str) -> Option<R> {
    R::decode(s)
}

/// Journal plumbing for one sweep: where to append finished cells and
/// how to (de)serialize the result payloads.
struct Hook<'a, R> {
    journal: &'a Journal,
    encode: fn(&R) -> String,
    decode: fn(&str) -> Option<R>,
}

struct EngineOpts<'a, R> {
    jobs: usize,
    retries: u32,
    hard: f64,
    hook: Option<Hook<'a, R>>,
}

impl<'a, R: JournalPayload> EngineOpts<'a, R> {
    fn from_sweep(opts: &SweepOptions<'a>) -> Self {
        EngineOpts {
            jobs: opts.jobs,
            retries: opts.retries,
            hard: opts.hard_deadline.unwrap_or_else(cell_hard_deadline),
            hook: opts.journal.map(|journal| Hook {
                journal,
                encode: encode_of::<R>,
                decode: decode_of::<R>,
            }),
        }
    }
}

impl<R> EngineOpts<'_, R> {
    fn plain(jobs: usize) -> Self {
        EngineOpts {
            jobs,
            retries: 0,
            hard: cell_hard_deadline(),
            hook: None,
        }
    }
}

/// The work a queue item performs per attempt.
enum Work<R> {
    Cell {
        scenario: Scenario,
        spec: BenchmarkSpec,
        job: Arc<dyn Fn(&PreparedWorkload) -> R + Send + Sync>,
    },
    Task {
        job: Arc<dyn Fn() -> R + Send + Sync>,
    },
}

struct Item<R> {
    idx: usize,
    attempt: u32,
    label: String,
    benchmark: String,
    scenario_name: String,
    refs: u64,
    work: Work<R>,
}

/// Journals one finished cell (no-op without a journal). A journal
/// write failure is loud but non-fatal: the in-memory sweep result is
/// still correct, only resumability of this cell is lost.
fn journal_outcome<R>(
    hook: &Option<Hook<'_, R>>,
    item: &Item<R>,
    outcome: &CellOutcome<R>,
    metric: &CellMetric,
) {
    let Some(h) = hook else { return };
    let appended = match outcome {
        CellOutcome::Ok(r) => h.journal.append(
            &item.label,
            "ok",
            item.attempt as u64,
            "",
            &(h.encode)(r),
            metric.refs,
            metric.prep_seconds,
            metric.sim_seconds,
        ),
        CellOutcome::Failed { payload, .. } => h.journal.append(
            &item.label,
            "failed",
            item.attempt as u64,
            payload,
            "",
            metric.refs,
            metric.prep_seconds,
            metric.sim_seconds,
        ),
        CellOutcome::Quarantined { attempts, reason, .. } => h.journal.append(
            &item.label,
            "quarantined",
            u64::from(*attempts),
            reason,
            "",
            metric.refs,
            metric.prep_seconds,
            metric.sim_seconds,
        ),
    };
    // The append already retried with backoff (and accounted any
    // injected fault) inside `Journal::append`; only this cell's
    // durability is lost, never the sweep.
    if let Err(e) = appended {
        eprintln!(
            "warning: could not journal cell '{}' to {} after retries: {e} \
             (sweep continues; this cell will not be resumable)",
            item.label,
            h.journal.path().display()
        );
    }
}

/// Finds the next runnable item for worker `me`: own deque front, then
/// the shared injector, then a steal from the back of a sibling's deque
/// (scanned round-robin from `me + 1` so victims are spread evenly).
fn steal_work<R>(
    me: usize,
    deques: &[Mutex<VecDeque<Item<R>>>],
    injector: &Mutex<VecDeque<Item<R>>>,
) -> Option<Item<R>> {
    if let Some(item) = relock(&deques[me]).pop_front() {
        return Some(item);
    }
    if let Some(item) = relock(injector).pop_front() {
        return Some(item);
    }
    for k in 1..deques.len() {
        let victim = (me + k) % deques.len();
        if let Some(item) = relock(&deques[victim]).pop_back() {
            return Some(item);
        }
    }
    None
}

/// What came of trying to obtain a cell's shared preparation.
enum Acquired<R> {
    /// Another worker is mid-build; the item is parked on the slot and
    /// this worker should pick up other work.
    Parked,
    /// This worker built (or fetched) the workload.
    Ready {
        item: Item<R>,
        workload: Arc<PreparedWorkload>,
        /// Seconds this cell spent building or decoding the workload
        /// (0 when another cell, sweep, or invocation already paid).
        prep_seconds: f64,
    },
    /// The build failed (or panicked); the attempt is charged to this
    /// cell and the slot is left retryable.
    Failed { item: Item<R>, reason: String },
}

/// Obtains the shared workload for a cell without ever blocking the
/// worker: a ready slot is a free hit, an in-flight slot parks the
/// item, an empty slot makes this worker the builder (delegating to
/// the process-global [`snapshot_cache`]). Whichever way the build
/// ends, parked items are drained into the injector and sleeping
/// workers are woken.
fn acquire_prepared<R>(
    slots: &SlotMap<R>,
    injector: &Mutex<VecDeque<Item<R>>>,
    idle_cv: &Condvar,
    item: Item<R>,
) -> Acquired<R> {
    let Work::Cell { scenario, spec, .. } = &item.work else {
        unreachable!("acquire_prepared is only called for cells")
    };
    let key = snapshot_cache::prep_key(scenario, spec);
    let slot = {
        let mut map = relock(slots);
        Arc::clone(map.entry(key).or_insert_with(|| {
            Arc::new(Mutex::new(PrepSlot { state: SlotState::Empty, waiting: Vec::new() }))
        }))
    };
    {
        let mut st = relock(&slot);
        match &st.state {
            SlotState::Ready(w) => {
                return Acquired::Ready {
                    workload: Arc::clone(w),
                    prep_seconds: 0.0,
                    item,
                };
            }
            SlotState::Building => {
                st.waiting.push(item);
                return Acquired::Parked;
            }
            SlotState::Empty => st.state = SlotState::Building,
        }
    }
    // This worker is the builder; the slot lock is *not* held across
    // the build — arriving cells park instead of blocking.
    let Work::Cell { scenario, spec, .. } = &item.work else {
        unreachable!("cell items stay cells")
    };
    let built = snapshot_cache::get_or_prepare(scenario, spec);
    let mut st = relock(&slot);
    let (result, woken) = match built {
        Ok(p) => {
            st.state = SlotState::Ready(Arc::clone(&p.workload));
            let woken = std::mem::take(&mut st.waiting);
            (
                Acquired::Ready {
                    workload: p.workload,
                    prep_seconds: p.prep_seconds,
                    item,
                },
                woken,
            )
        }
        Err(reason) => {
            // Leave the slot retryable; a parked cell (or a retry of
            // this one) becomes the next builder.
            st.state = SlotState::Empty;
            let woken = std::mem::take(&mut st.waiting);
            (Acquired::Failed { item, reason }, woken)
        }
    };
    drop(st);
    if !woken.is_empty() {
        let mut inj = relock(injector);
        for it in woken {
            inj.push_back(it);
        }
    }
    idle_cv.notify_all();
    result
}

/// Concludes one attempt: requeues it (deterministic position in the
/// injector, after backoff) when retries remain, otherwise journals
/// the final outcome, bumps the completed count, wakes idle workers,
/// and reports the result.
#[allow(clippy::too_many_arguments)]
fn finish_attempt<R>(
    item: Item<R>,
    ran: Result<R, String>,
    metric: CellMetric,
    opts: &EngineOpts<'_, R>,
    injector: &Mutex<VecDeque<Item<R>>>,
    idle_cv: &Condvar,
    completed: &Mutex<usize>,
    soft: f64,
    tx: &mpsc::Sender<(usize, CellOutcome<R>, CellMetric)>,
) {
    warn_if_over_deadline(&item.label, metric.sim_seconds, soft);
    let outcome = match ran {
        Ok(result) => CellOutcome::Ok(result),
        Err(reason) => {
            if item.attempt <= opts.retries {
                eprintln!(
                    "warning: cell '{}' attempt {} failed ({reason}); \
                     retrying after backoff",
                    item.label, item.attempt
                );
                std::thread::sleep(backoff_for(item.attempt));
                {
                    let mut inj = relock(injector);
                    let pos = requeue_position(&item.label, item.attempt, inj.len());
                    inj.insert(pos, Item { attempt: item.attempt + 1, ..item });
                }
                idle_cv.notify_all();
                return;
            }
            if item.attempt > 1 {
                CellOutcome::Quarantined {
                    label: item.label.clone(),
                    attempts: item.attempt,
                    reason,
                }
            } else {
                CellOutcome::Failed { label: item.label.clone(), payload: reason }
            }
        }
    };
    journal_outcome(&opts.hook, &item, &outcome, &metric);
    *relock(completed) += 1;
    idle_cv.notify_all();
    let _ = tx.send((item.idx, outcome, metric));
}

/// The sweep engine: replays journaled cells, fans the rest out across
/// `jobs` workers with retry + quarantine supervision, and returns one
/// outcome per item in submission order.
fn engine<R: Send + 'static>(
    items: Vec<Item<R>>,
    opts: EngineOpts<'_, R>,
) -> Vec<CellOutcome<R>> {
    let n = items.len();
    let mut slots: Vec<Option<(CellOutcome<R>, CellMetric)>> =
        (0..n).map(|_| None).collect();

    // Resume keys on labels: two cells sharing one would replay each
    // other's results, so a journaled sweep refuses them outright.
    if let Some(hook) = &opts.hook {
        if let Err(label) = hook.journal.claim(items.iter().map(|i| i.label.as_str())) {
            panic!(
                "journal {}: cell label '{label}' submitted twice in one run; every \
                 journaled cell needs a label of its own",
                hook.journal.path().display()
            );
        }
    }

    // Replay pass: cells the journal already holds never re-run.
    let mut pending: VecDeque<Item<R>> = VecDeque::new();
    for item in items {
        if let Some(hook) = &opts.hook {
            if let Some(rep) = hook.journal.completed(&item.label) {
                match (hook.decode)(&rep.payload) {
                    Some(r) => {
                        let metric = CellMetric {
                            label: item.label.clone(),
                            benchmark: item.benchmark.clone(),
                            scenario: item.scenario_name.clone(),
                            refs: rep.refs,
                            prep_seconds: rep.prep_seconds,
                            sim_seconds: rep.sim_seconds,
                        };
                        slots[item.idx] = Some((CellOutcome::Ok(r), metric));
                        continue;
                    }
                    None => {
                        eprintln!(
                            "note: journal record for '{}' does not decode as this \
                             sweep's result type; re-running the cell",
                            item.label
                        );
                    }
                }
            }
        }
        pending.push_back(item);
    }

    let total = pending.len();
    let workers = opts.jobs.max(1).min(total.max(1));
    let soft = cell_soft_deadline();

    // Work-stealing state: items are dealt round-robin across per-worker
    // deques; a worker pops the front of its own deque, then the shared
    // injector (retries and un-parked cells land there), then steals
    // from the back of a sibling's deque. Termination is by completed
    // count — queue emptiness proves nothing while cells are parked on
    // building prep slots or sleeping through a retry backoff.
    let mut deques: Vec<Mutex<VecDeque<Item<R>>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, item) in pending.into_iter().enumerate() {
        deques[i % workers]
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(item);
    }
    let deques: &[Mutex<VecDeque<Item<R>>>] = &deques;
    let injector: &Mutex<VecDeque<Item<R>>> = &Mutex::new(VecDeque::new());
    let prep_slots: &SlotMap<R> = &Mutex::new(HashMap::new());
    let completed: &Mutex<usize> = &Mutex::new(0);
    let idle_cv: &Condvar = &Condvar::new();
    let (tx, rx) = mpsc::channel::<(usize, CellOutcome<R>, CellMetric)>();
    let opts = &opts;

    std::thread::scope(|s| {
        for me in 0..workers {
            let tx = tx.clone();
            s.spawn(move || {
                loop {
                    let Some(item) = steal_work(me, deques, injector) else {
                        // Nothing runnable anywhere. Done — or waiting on
                        // an in-flight preparation or a retry backoff:
                        // park until the injector is fed (the timeout
                        // bounds any lost-wakeup race).
                        let done = relock(completed);
                        if *done >= total {
                            break;
                        }
                        drop(
                            idle_cv
                                .wait_timeout(done, Duration::from_millis(5))
                                .unwrap_or_else(PoisonError::into_inner),
                        );
                        continue;
                    };
                    let mut metric = CellMetric {
                        label: item.label.clone(),
                        benchmark: item.benchmark.clone(),
                        scenario: item.scenario_name.clone(),
                        refs: item.refs,
                        prep_seconds: 0.0,
                        sim_seconds: 0.0,
                    };
                    // One attempt: obtain the shared preparation (cells
                    // only) without blocking this worker, then run the
                    // job under the watchdog.
                    let (item, ran): (Item<R>, Result<R, String>) =
                        if matches!(item.work, Work::Cell { .. }) {
                            match acquire_prepared(prep_slots, injector, idle_cv, item) {
                                Acquired::Parked => continue,
                                Acquired::Failed { item, reason } => (item, Err(reason)),
                                Acquired::Ready { item, workload, prep_seconds } => {
                                    metric.prep_seconds = prep_seconds;
                                    let Work::Cell { job, .. } = &item.work else {
                                        unreachable!("cell items stay cells")
                                    };
                                    let job = Arc::clone(job);
                                    let start = Instant::now();
                                    let out = run_with_deadline(
                                        Box::new(move || job(&workload)),
                                        opts.hard,
                                    );
                                    metric.sim_seconds = start.elapsed().as_secs_f64();
                                    (item, out)
                                }
                            }
                        } else {
                            let Work::Task { job } = &item.work else {
                                unreachable!("non-cell items are tasks")
                            };
                            let job = Arc::clone(job);
                            let start = Instant::now();
                            let out =
                                run_with_deadline(Box::new(move || job()), opts.hard);
                            metric.sim_seconds = start.elapsed().as_secs_f64();
                            (item, out)
                        };
                    finish_attempt(
                        item, ran, metric, opts, injector, idle_cv, completed, soft, &tx,
                    );
                }
            });
        }
    });
    drop(tx);

    for (idx, outcome, metric) in rx {
        slots[idx] = Some((outcome, metric));
    }
    let mut results = Vec::with_capacity(n);
    let mut metrics = relock(&METRICS);
    for slot in slots {
        let (outcome, metric) = slot.expect("every cell reports exactly once");
        results.push(outcome);
        metrics.push(metric);
    }
    results
}

fn cell_items<R>(cells: Vec<SweepCell<R>>) -> Vec<Item<R>> {
    cells
        .into_iter()
        .enumerate()
        .map(|(idx, cell)| Item {
            idx,
            attempt: 1,
            label: cell.label,
            benchmark: cell.spec.name.to_string(),
            scenario_name: cell.scenario.name.clone(),
            refs: cell.refs,
            work: Work::Cell {
                scenario: cell.scenario,
                spec: cell.spec,
                job: cell.job,
            },
        })
        .collect()
}

fn task_items<R>(tasks: Vec<SweepTask<R>>) -> Vec<Item<R>> {
    tasks
        .into_iter()
        .enumerate()
        .map(|(idx, task)| Item {
            idx,
            attempt: 1,
            label: task.label,
            benchmark: String::new(),
            scenario_name: String::new(),
            refs: task.refs,
            work: Work::Task { job: task.job },
        })
        .collect()
}

/// Runs every cell under the full supervision policy — retries with
/// backoff, hard-deadline watchdog, quarantine, and (when the policy
/// carries a journal) durable crash-safe progress with replay on
/// resume. One [`CellOutcome`] per cell, in submission order.
pub fn run_cells_sweep<R: Send + JournalPayload + 'static>(
    cells: Vec<SweepCell<R>>,
    opts: &SweepOptions<'_>,
) -> Vec<CellOutcome<R>> {
    engine(cell_items(cells), EngineOpts::from_sweep(opts))
}

/// Runs self-contained tasks under the full supervision policy; see
/// [`run_cells_sweep`].
pub fn run_tasks_sweep<R: Send + JournalPayload + 'static>(
    tasks: Vec<SweepTask<R>>,
    opts: &SweepOptions<'_>,
) -> Vec<CellOutcome<R>> {
    engine(task_items(tasks), EngineOpts::from_sweep(opts))
}

/// Runs every cell across at most `jobs` worker threads and returns one
/// [`CellOutcome`] per cell, in submission order. Zero retries, no
/// journal: a panicking cell (or a failing preparation) yields `Failed`
/// for that cell only; all other cells still complete.
pub fn run_cells_outcomes<R: Send + 'static>(
    cells: Vec<SweepCell<R>>,
    jobs: usize,
) -> Vec<CellOutcome<R>> {
    engine(cell_items(cells), EngineOpts::plain(jobs))
}

/// Runs every cell across at most `jobs` worker threads and returns the
/// results in submission order. A failing cell (e.g. workload OOM)
/// panics in the caller exactly as it would sequentially — use
/// [`run_cells_outcomes`] or [`run_cells_sweep`] for sweeps that must
/// survive cell failures.
pub fn run_cells<R: Send + 'static>(cells: Vec<SweepCell<R>>, jobs: usize) -> Vec<R> {
    expect_all(run_cells_outcomes(cells, jobs))
}

/// Runs self-contained tasks (no shared preparation) across at most
/// `jobs` worker threads, returning one [`CellOutcome`] per task in
/// submission order. Zero retries, no journal.
pub fn run_tasks_outcomes<R: Send + 'static>(
    tasks: Vec<SweepTask<R>>,
    jobs: usize,
) -> Vec<CellOutcome<R>> {
    engine(task_items(tasks), EngineOpts::plain(jobs))
}

/// Runs self-contained tasks (no shared preparation) across at most
/// `jobs` worker threads; results come back in submission order. A
/// failing task panics in the caller — use [`run_tasks_outcomes`] or
/// [`run_tasks_sweep`] for sweeps that must survive failures.
pub fn run_tasks<R: Send + 'static>(tasks: Vec<SweepTask<R>>, jobs: usize) -> Vec<R> {
    expect_all(run_tasks_outcomes(tasks, jobs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_tlb::config::TlbConfig;
    use colt_workloads::spec::benchmark;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn quick_cfg(tlb: TlbConfig) -> SimConfig {
        SimConfig { pattern_seed: 0x5EED, ..SimConfig::new(tlb).with_accesses(10_000) }
    }

    /// The metrics registry is process-global and the test harness runs
    /// tests concurrently, so tests that drain it must not interleave.
    static DRAIN: Mutex<()> = Mutex::new(());

    fn drain_lock() -> std::sync::MutexGuard<'static, ()> {
        DRAIN.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn results_come_back_in_submission_order_at_any_width() {
        let _g = drain_lock();
        let scenario = Scenario::default_linux();
        let spec = benchmark("Gobmk").unwrap();
        let make_cells = || {
            vec![
                SweepCell::sim("base", &scenario, &spec, quick_cfg(TlbConfig::baseline())),
                SweepCell::sim("sa", &scenario, &spec, quick_cfg(TlbConfig::colt_sa())),
                SweepCell::sim("fa", &scenario, &spec, quick_cfg(TlbConfig::colt_fa())),
                SweepCell::sim("all", &scenario, &spec, quick_cfg(TlbConfig::colt_all())),
            ]
        };
        let serial = run_cells(make_cells(), 1);
        let wide = run_cells(make_cells(), 8);
        let _ = take_metrics();
        assert_eq!(serial.len(), 4);
        for (a, b) in serial.iter().zip(&wide) {
            assert_eq!(a.tlb.accesses, b.tlb.accesses);
            assert_eq!(a.tlb.l1_misses, b.tlb.l1_misses);
            assert_eq!(a.tlb.l2_misses, b.tlb.l2_misses);
            assert_eq!(a.walker.walks, b.walker.walks);
            assert_eq!(a.walk_cycles, b.walk_cycles);
        }
        // The four configs must actually differ (the cells were not
        // accidentally collapsed onto one job).
        assert!(serial[1].tlb.l2_misses < serial[0].tlb.l2_misses);
    }

    #[test]
    fn preparation_is_shared_within_one_sweep() {
        let _g = drain_lock();
        // A seed no other test uses: the process-global snapshot cache
        // must miss, so that exactly this sweep pays the preparation.
        let scenario = Scenario::default_linux().with_seed(0x5EED_5EED);
        let spec = benchmark("Povray").unwrap();
        let cells = vec![
            SweepCell::sim("prep-share/a", &scenario, &spec, quick_cfg(TlbConfig::baseline())),
            SweepCell::sim("prep-share/b", &scenario, &spec, quick_cfg(TlbConfig::colt_all())),
        ];
        let _ = take_metrics();
        let results = run_cells(cells, 2);
        assert_eq!(results.len(), 2);
        // Concurrent driver tests append their own metrics; look only at
        // this sweep's labels.
        let metrics: Vec<CellMetric> = take_metrics()
            .into_iter()
            .filter(|m| m.label.starts_with("prep-share/"))
            .collect();
        assert_eq!(metrics.len(), 2);
        let prepped = metrics.iter().filter(|m| m.prep_seconds > 0.0).count();
        assert_eq!(prepped, 1, "exactly one cell builds the shared workload");
        assert_eq!(metrics[0].label, "prep-share/a");
        assert_eq!(metrics[1].label, "prep-share/b");
        assert!(metrics.iter().all(|m| m.refs == 11_000));
    }

    #[test]
    fn parked_cells_complete_when_the_shared_build_lands() {
        let _g = drain_lock();
        // Eight cells, one cold (scenario, benchmark) pair, four
        // workers: one worker builds while the others park their cells
        // on the slot and go steal; every cell must still complete with
        // exactly one build. A scheduler that loses parked items hangs
        // here; one that blocks workers merely serializes.
        let scenario = Scenario::default_linux().with_seed(0xBA1C_0DE5);
        let spec = benchmark("Povray").unwrap();
        let cells: Vec<SweepCell<u64>> = (0..8)
            .map(|i| {
                SweepCell::new(format!("park/c{i}"), &scenario, &spec, 0, move |w| {
                    w.contiguity().total_pages() + i
                })
            })
            .collect();
        let _ = take_metrics();
        let out = run_cells(cells, 4);
        let metrics: Vec<CellMetric> = take_metrics()
            .into_iter()
            .filter(|m| m.label.starts_with("park/"))
            .collect();
        assert_eq!(out.len(), 8);
        let base = out[0];
        assert_eq!(out, (0..8).map(|i| base + i).collect::<Vec<u64>>());
        assert_eq!(metrics.len(), 8);
        assert_eq!(
            metrics.iter().filter(|m| m.prep_seconds > 0.0).count(),
            1,
            "exactly one cell builds; the parked ones ride along free"
        );
    }

    #[test]
    fn tasks_run_and_keep_order() {
        let _g = drain_lock();
        let tasks: Vec<SweepTask<usize>> = (0..16)
            .map(|i| SweepTask::new(format!("t{i}"), 0, move || i * i))
            .collect();
        let out = run_tasks(tasks, 4);
        let _ = take_metrics();
        assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn generic_cells_share_preparation_with_sim_cells() {
        let _g = drain_lock();
        let scenario = Scenario::default_linux();
        let spec = benchmark("Mcf").unwrap();
        let cells = vec![SweepCell::new("contig", &scenario, &spec, 0, |w| {
            w.contiguity().average_contiguity()
        })];
        let avg = run_cells(cells, 3);
        let _ = take_metrics();
        assert!(avg[0] >= 1.0);
    }

    #[test]
    fn a_panicking_cell_fails_alone_while_the_rest_complete() {
        let _g = drain_lock();
        let scenario = Scenario::default_linux();
        let spec = benchmark("Gobmk").unwrap();
        let mut cells: Vec<SweepCell<u64>> = (0..6)
            .map(|i| {
                SweepCell::new(format!("iso/ok{i}"), &scenario, &spec, 0, move |w| {
                    w.contiguity().total_pages() + i
                })
            })
            .collect();
        cells.insert(
            3,
            SweepCell::new("iso/boom", &scenario, &spec, 0, |_| -> u64 {
                panic!("deliberate cell failure");
            }),
        );
        let outcomes = run_cells_outcomes(cells, 4);
        let _ = take_metrics();
        assert_eq!(outcomes.len(), 7);
        let failed: Vec<&CellOutcome<u64>> =
            outcomes.iter().filter(|o| o.is_failed()).collect();
        assert_eq!(failed.len(), 1, "exactly one cell fails");
        match failed[0] {
            CellOutcome::Failed { label, payload } => {
                assert_eq!(label, "iso/boom");
                assert!(payload.contains("deliberate cell failure"));
            }
            _ => panic!("zero-retry failure must be Failed, not Quarantined"),
        }
        // Every other cell (including those queued after the panic on
        // the same workers) completed and kept submission order.
        let oks: Vec<u64> =
            outcomes.into_iter().filter_map(CellOutcome::ok).collect();
        assert_eq!(oks.len(), 6);
        let base = oks[0];
        assert_eq!(oks, (0..6).map(|i| base + i).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_task_fails_alone_while_the_rest_complete() {
        let _g = drain_lock();
        let tasks: Vec<SweepTask<usize>> = (0..8)
            .map(|i| {
                SweepTask::new(format!("tiso{i}"), 0, move || {
                    if i == 5 {
                        panic!("task {i} exploded");
                    }
                    i * 10
                })
            })
            .collect();
        let outcomes = run_tasks_outcomes(tasks, 3);
        let _ = take_metrics();
        assert_eq!(outcomes.iter().filter(|o| o.is_failed()).count(), 1);
        match &outcomes[5] {
            CellOutcome::Failed { label, payload } => {
                assert_eq!(label, "tiso5");
                assert!(payload.contains("task 5 exploded"));
            }
            _ => panic!("task 5 should have failed"),
        }
        for (i, o) in outcomes.iter().enumerate() {
            if i != 5 {
                assert!(matches!(o, CellOutcome::Ok(v) if *v == i * 10));
            }
        }
    }

    #[test]
    fn failing_preparation_becomes_a_failed_outcome_not_a_panic() {
        let _g = drain_lock();
        // A scenario with fewer frames than memhog wants to pin cannot
        // prepare; the cell must fail gracefully, and a healthy sibling
        // cell in the same sweep must still run.
        let broken = Scenario { nr_frames: 64, ..Scenario::default_linux() };
        let healthy = Scenario::default_linux();
        let spec = benchmark("Bzip2").unwrap();
        let cells = vec![
            SweepCell::new("prep-fail/broken", &broken, &spec, 0, |w| {
                w.contiguity().total_pages()
            }),
            SweepCell::new("prep-fail/healthy", &healthy, &spec, 0, |w| {
                w.contiguity().total_pages()
            }),
        ];
        let outcomes = run_cells_outcomes(cells, 2);
        let _ = take_metrics();
        assert!(outcomes[0].is_failed(), "tiny scenario must fail to prepare");
        match &outcomes[0] {
            CellOutcome::Failed { label, .. } => assert_eq!(label, "prep-fail/broken"),
            _ => panic!("expected a Failed outcome"),
        }
        assert!(matches!(&outcomes[1], CellOutcome::Ok(pages) if *pages > 0));
    }

    #[test]
    fn a_flaky_task_recovers_on_retry() {
        let _g = drain_lock();
        let tries = Arc::new(AtomicU32::new(0));
        let t = Arc::clone(&tries);
        let tasks = vec![SweepTask::new("flaky/one", 0, move || {
            if t.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient failure");
            }
            77u64
        })];
        let opts =
            SweepOptions { retries: 1, ..SweepOptions::jobs_only(2) };
        let outcomes = run_tasks_sweep(tasks, &opts);
        let _ = take_metrics();
        assert!(matches!(outcomes[0], CellOutcome::Ok(77)));
        assert_eq!(tries.load(Ordering::SeqCst), 2, "first try + one retry");
    }

    #[test]
    fn exhausted_retries_quarantine_with_attempt_count() {
        let _g = drain_lock();
        let tries = Arc::new(AtomicU32::new(0));
        let t = Arc::clone(&tries);
        let tasks = vec![
            SweepTask::new("quar/dead", 0, move || -> u64 {
                t.fetch_add(1, Ordering::SeqCst);
                panic!("always fails");
            }),
            SweepTask::new("quar/alive", 0, || 5u64),
        ];
        let opts = SweepOptions { retries: 2, ..SweepOptions::jobs_only(2) };
        let outcomes = run_tasks_sweep(tasks, &opts);
        let _ = take_metrics();
        match &outcomes[0] {
            CellOutcome::Quarantined { label, attempts, reason } => {
                assert_eq!(label, "quar/dead");
                assert_eq!(*attempts, 3, "first try + two retries");
                assert!(reason.contains("always fails"));
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert_eq!(tries.load(Ordering::SeqCst), 3);
        assert!(matches!(outcomes[1], CellOutcome::Ok(5)));
    }

    #[test]
    fn hard_deadline_quarantines_a_hung_task() {
        let _g = drain_lock();
        let tasks = vec![
            SweepTask::new("wd/hung", 0, || {
                std::thread::sleep(Duration::from_secs(30));
                1u64
            }),
            SweepTask::new("wd/fast", 0, || 2u64),
        ];
        let opts = SweepOptions {
            retries: 1,
            hard_deadline: Some(0.05),
            ..SweepOptions::jobs_only(2)
        };
        let start = Instant::now();
        let outcomes = run_tasks_sweep(tasks, &opts);
        let _ = take_metrics();
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "the watchdog must reclaim the sweep long before the hung cell ends"
        );
        match &outcomes[0] {
            CellOutcome::Quarantined { attempts, reason, .. } => {
                assert_eq!(*attempts, 2);
                assert!(reason.contains("hard deadline"), "{reason}");
            }
            other => panic!("expected deadline quarantine, got {other:?}"),
        }
        assert!(matches!(outcomes[1], CellOutcome::Ok(2)));
    }

    #[test]
    fn journaled_sweep_replays_completed_cells_without_rerunning() {
        let _g = drain_lock();
        let dir = std::env::temp_dir()
            .join(format!("colt-runner-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let runs = Arc::new(AtomicU32::new(0));
        let make_tasks = |runs: &Arc<AtomicU32>| {
            (0..4u64)
                .map(|i| {
                    let r = Arc::clone(runs);
                    SweepTask::new(format!("jrnl/t{i}"), 0, move || {
                        r.fetch_add(1, Ordering::SeqCst);
                        i * 100
                    })
                })
                .collect::<Vec<_>>()
        };

        let journal =
            Journal::open(&dir, "jrnl", "cafe0001".to_string(), false).unwrap();
        let opts = SweepOptions {
            journal: Some(&journal),
            ..SweepOptions::jobs_only(2)
        };
        let first = expect_all(run_tasks_sweep(make_tasks(&runs), &opts));
        let _ = take_metrics();
        assert_eq!(first, vec![0, 100, 200, 300]);
        assert_eq!(runs.load(Ordering::SeqCst), 4);
        assert_eq!(journal.appended(), 4);

        // Resume: every cell replays, nothing executes, results and
        // submission order are identical.
        let journal =
            Journal::open(&dir, "jrnl", "cafe0001".to_string(), true).unwrap();
        assert_eq!(journal.open_report().replayed, 4);
        let opts = SweepOptions {
            journal: Some(&journal),
            ..SweepOptions::jobs_only(2)
        };
        let second = expect_all(run_tasks_sweep(make_tasks(&runs), &opts));
        let _ = take_metrics();
        assert_eq!(second, first);
        assert_eq!(runs.load(Ordering::SeqCst), 4, "no cell re-ran");
        assert_eq!(journal.appended(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_journaled_sweep_refuses_a_label_already_submitted_in_the_run() {
        let _g = drain_lock();
        let dir = std::env::temp_dir()
            .join(format!("colt-runner-duplabel-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let journal = Journal::open(&dir, "dup", "cafe0002".to_string(), false).unwrap();
        let opts = SweepOptions { journal: Some(&journal), ..SweepOptions::jobs_only(1) };
        let task = |label: &str| SweepTask::new(label.to_string(), 0, || 1u64);

        // Twice inside one sweep: refused before anything runs.
        let within = catch_unwind(AssertUnwindSafe(|| {
            run_tasks_sweep(vec![task("dup/a"), task("dup/a")], &opts)
        }));
        let msg = panic_message(within.expect_err("duplicate label must be refused"));
        assert!(msg.contains("'dup/a' submitted twice"), "{msg}");
        assert_eq!(journal.appended(), 0, "nothing ran");

        // Across two sweeps of one run: the second sweep is refused.
        let first = expect_all(run_tasks_sweep(vec![task("dup/b")], &opts));
        assert_eq!(first, vec![1]);
        let again =
            catch_unwind(AssertUnwindSafe(|| run_tasks_sweep(vec![task("dup/b")], &opts)));
        assert!(again.is_err(), "a label reused by a later sweep must be refused");
        assert_eq!(journal.appended(), 1);
        let _ = take_metrics();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_second_sweep_hits_the_cache_and_reproduces_results_byte_for_byte() {
        let _g = drain_lock();
        // A seed no other test uses, so the first sweep is the one that
        // populates the process-global cache.
        let scenario = Scenario::default_linux().with_seed(0x0CAC_4E01);
        let spec = benchmark("Gobmk").unwrap();
        let make_cells = || {
            vec![
                SweepCell::sim("warmcache/base", &scenario, &spec, quick_cfg(TlbConfig::baseline())),
                SweepCell::sim("warmcache/all", &scenario, &spec, quick_cfg(TlbConfig::colt_all())),
            ]
        };
        let _ = take_metrics();
        let cold = run_cells(make_cells(), 2);
        let cold_metrics: Vec<CellMetric> = take_metrics()
            .into_iter()
            .filter(|m| m.label.starts_with("warmcache/"))
            .collect();
        assert_eq!(
            cold_metrics.iter().filter(|m| m.prep_seconds > 0.0).count(),
            1,
            "the cold sweep builds the pair exactly once"
        );

        // Same sweep again: served entirely from the in-memory snapshot
        // cache (prepare-then-clone), and byte-identical to preparing
        // from scratch (prepare-twice).
        let warm = run_cells(make_cells(), 2);
        let warm_metrics: Vec<CellMetric> = take_metrics()
            .into_iter()
            .filter(|m| m.label.starts_with("warmcache/"))
            .collect();
        assert!(
            warm_metrics.iter().all(|m| m.prep_seconds == 0.0),
            "a warm sweep pays no preparation at all: {warm_metrics:?}"
        );
        let cold_bytes: Vec<String> = cold.iter().map(JournalPayload::encode).collect();
        let warm_bytes: Vec<String> = warm.iter().map(JournalPayload::encode).collect();
        assert_eq!(cold_bytes, warm_bytes, "cache hits must not change any result");
    }

    #[test]
    fn resume_with_a_warm_cache_stays_byte_identical() {
        let _g = drain_lock();
        let dir = std::env::temp_dir()
            .join(format!("colt-runner-warm-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let scenario = Scenario::default_linux().with_seed(0x00D1_5C01);
        let spec = benchmark("Bzip2").unwrap();
        let make_cells = || {
            vec![
                SweepCell::sim("resume-warm/sa", &scenario, &spec, quick_cfg(TlbConfig::colt_sa())),
                SweepCell::sim("resume-warm/fa", &scenario, &spec, quick_cfg(TlbConfig::colt_fa())),
            ]
        };

        // First invocation: journaled to completion (the cache is warm
        // from here on, as after a killed run that finished some cells).
        let journal = Journal::open(&dir, "warm", "beef0002".to_string(), false).unwrap();
        let opts = SweepOptions { journal: Some(&journal), ..SweepOptions::jobs_only(2) };
        let first = expect_all(run_cells_sweep(make_cells(), &opts));
        let _ = take_metrics();
        assert_eq!(journal.appended(), 2);

        // Resume against the same journal with the warm cache: every
        // cell replays from the journal, nothing re-prepares or
        // re-simulates, and the payloads are byte-identical.
        let journal = Journal::open(&dir, "warm", "beef0002".to_string(), true).unwrap();
        assert_eq!(journal.open_report().replayed, 2);
        let opts = SweepOptions { journal: Some(&journal), ..SweepOptions::jobs_only(2) };
        let second = expect_all(run_cells_sweep(make_cells(), &opts));
        let _ = take_metrics();
        assert_eq!(journal.appended(), 0, "replayed cells are not re-journaled");
        let first_bytes: Vec<String> = first.iter().map(JournalPayload::encode).collect();
        let second_bytes: Vec<String> = second.iter().map(JournalPayload::encode).collect();
        assert_eq!(first_bytes, second_bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
