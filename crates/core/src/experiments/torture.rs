//! `repro torture` — crash-consistency torture for the durability
//! substrate (`results/BENCH_torture.json`).
//!
//! The harness sweeps seeded storage-fault schedules × simulated
//! power-cut points over the full durable stack at once: the pressure
//! sweep journaling through [`crate::journal`], preparation snapshots
//! through [`crate::snapshot_cache`], and the `BENCH_pressure.json`
//! artifact through [`crate::artifact`]. Every cycle:
//!
//! 1. **Doomed run** — a [`FaultyVfs`](crate::vfs::FaultyVfs) with the
//!    cycle's fault plan armed and a dead-disk point `k` fsyncs in is
//!    installed; the pressure sweep runs to completion under ENOSPC,
//!    EIO, short writes, failed and lying fsyncs, dropped renames, and
//!    read-back bit flips, storing its preparation snapshots as it
//!    goes, then the artifact write lands (or degrades) on the dying
//!    disk.
//! 2. **Power cut** — [`power_cut`](crate::vfs::FaultyVfs::power_cut)
//!    reconciles the disk to its durable contents: unsynced renames are
//!    undone (clobbered destinations restored), lying-fsync bytes
//!    truncated away.
//! 3. **Faulted audit** — the journal and the preparation snapshots
//!    re-open *cold, still under faults*, exercising the read-side
//!    detection paths (CRC quarantine, checksum verdicts, flip
//!    confirmation).
//! 4. **Verdicts** — the seam is uninstalled and five gates are
//!    checked with evidence: zero panics; no corrupt bytes ever
//!    accepted (every detected corruption quarantined, no pending
//!    undetected flips, no torn `BENCH_*` or permanent tmp litter);
//!    `--resume` byte-identity against an unfaulted reference run; warm
//!    snapshot identity (every snapshot that survived the cut loads and
//!    re-encodes to the same bytes as a fresh `Scenario::prepare`, and
//!    every damaged one is quarantined); and an exact
//!    faults-injected == faults-accounted ledger.
//!
//! Everything is deterministic under `--io-faults seed=S`: the same
//! schedule injects the same faults at the same decision points.

use crate::artifact;
use crate::experiments::{pressure, ExperimentOptions};
use crate::io_faults::{self, IoFaultCounts, LedgerSnapshot};
use crate::journal::Journal;
use crate::snapshot_cache;
use crate::vfs::{self, FaultyVfs};
use colt_os_mem::faults::FaultConfig;
use colt_workloads::scenario::Scenario;
use colt_workloads::spec::BenchmarkSpec;
use std::cell::OnceCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Torture parameters (one flag each; see `repro torture --help`).
#[derive(Clone, Debug)]
pub struct TortureConfig {
    /// Distinct fault schedules (seeds) to sweep.
    pub seeds: u64,
    /// Base of the seed sweep: cycle `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Simulated power-cut points per seed (the disk dies after the
    /// `2 + 5*j`-th fsync attempt for cut index `j`).
    pub cuts: u64,
    /// Per-decision fault probability of the injected plan.
    pub rate: f64,
    /// Fault window (0 = always armed), as in `--faults`.
    pub window: u64,
    /// Access budget per simulated cell (small: the payload sweep runs
    /// twice per cycle).
    pub accesses: u64,
    /// Benchmark for the payload pressure sweep.
    pub bench: String,
    /// Artifact path.
    pub out: PathBuf,
    /// Suppress per-cycle progress lines.
    pub quiet: bool,
}

impl Default for TortureConfig {
    fn default() -> Self {
        Self {
            seeds: 3,
            base_seed: 0xC017,
            cuts: 2,
            rate: 0.25,
            window: 0,
            accesses: 2_000,
            bench: "Gobmk".to_string(),
            out: PathBuf::from("results/BENCH_torture.json"),
            quiet: false,
        }
    }
}

/// One torture verdict: a name, a pass/fail, and the evidence line
/// that explains the call either way.
struct Verdict {
    name: &'static str,
    pass: bool,
    evidence: String,
}

/// Everything a single seed × cut cycle observed.
#[derive(Default)]
struct CycleOutcome {
    panicked: bool,
    injected: IoFaultCounts,
    ledger: LedgerSnapshot,
    renames_dropped: u64,
    /// Snapshots present on the clean disk after the cut and audit.
    snapshots_survived: u64,
    /// Survivors that loaded warm and matched the fresh preparation.
    warm_loaded: u64,
    /// Survivors that failed to load and were quarantined.
    warm_quarantined: u64,
    /// Survivors that broke the warm contract, with the reason.
    warm_bad: Vec<String>,
    tmp_swept: u64,
    tmp_remaining: u64,
    quarantined_files: u64,
    /// `Some(json)` when `BENCH_pressure.json` survived the cut intact.
    bench_artifact: Option<String>,
    bench_artifact_quarantined: bool,
    resume_json: String,
}

/// One preparation of the payload sweep, with the snapshot body of a
/// fresh `Scenario::prepare` — the bytes every warm load must
/// re-encode to.
struct FreshPrep {
    scenario: Scenario,
    spec: BenchmarkSpec,
    key: String,
    /// Built on first use, so only pairs whose snapshot survived a cut
    /// pay for a fresh preparation.
    body: OnceCell<Result<Vec<u8>, String>>,
}

impl FreshPrep {
    fn new(scenario: Scenario, spec: BenchmarkSpec) -> Self {
        let key = snapshot_cache::prep_key(&scenario, &spec);
        FreshPrep { scenario, spec, key, body: OnceCell::new() }
    }

    /// The fresh snapshot body, bypassing the snapshot cache.
    fn body(&self) -> Result<&[u8], &str> {
        self.body
            .get_or_init(|| {
                let workload = self.scenario.prepare(&self.spec).map_err(|e| {
                    format!("fresh preparation of {} failed: {e}", self.spec.name)
                })?;
                Ok(snapshot_cache::snapshot_body(&self.key, &workload))
            })
            .as_deref()
            .map_err(String::as_str)
    }
}

/// The experiment options both the reference and every cycle use. One
/// benchmark, one core, one worker: the fault stream stays aligned with
/// the schedule and the sweep itself is deterministic either way.
fn payload_opts(cfg: &TortureConfig) -> ExperimentOptions {
    ExperimentOptions {
        accesses: cfg.accesses.max(1),
        benchmarks: Some(vec![cfg.bench.clone()]),
        jobs: 1,
        cores: 1,
        retries: 1,
        ..ExperimentOptions::default()
    }
}

/// The deterministic pressure artifact for a finished report.
fn payload_json(report: &pressure::PressureReport) -> String {
    artifact::pressure_json(report, FaultConfig::default(), 1)
}

/// Runs one doomed + audited + recovered cycle under `plan`, entirely
/// inside `cyc`.
fn run_cycle(
    cfg: &TortureConfig,
    fresh: &[FreshPrep],
    cyc: &Path,
    plan: FaultConfig,
    cut_after: u64,
) -> CycleOutcome {
    let mut out = CycleOutcome::default();
    let journal_dir = cyc.join("journal");
    let snap_dir = cyc.join("snapshots");
    let bench_path = cyc.join("BENCH_pressure.json");

    // Phase 1: the doomed run, everything through the faulty seam.
    io_faults::reset_ledger();
    snapshot_cache::set_dir_override(Some(snap_dir.clone()));
    snapshot_cache::clear_memory();
    let faulty = FaultyVfs::new(plan).cut_after_syncs(cut_after);
    vfs::install(Arc::new(faulty.clone()));
    let opts = payload_opts(cfg);
    let doomed = catch_unwind(AssertUnwindSafe(|| {
        let mut opts = opts.clone();
        // A journal-open failure is a degraded (journal-less) run, not
        // a dead one — exactly what `repro` does.
        if let Ok(j) =
            Journal::open(&journal_dir, "pressure", opts.fingerprint("pressure"), false)
        {
            opts.journal = Some(Arc::new(j));
        }
        let (report, _) = pressure::run(&opts);
        let _ = artifact::atomic_write_json(&bench_path, &payload_json(&report));
    }));
    out.panicked = doomed.is_err();

    // Phase 2: the power cut. The disk is reconciled to durable bytes
    // and revived (still faulty) for the audit.
    let _ = faulty.power_cut();

    // Phase 3: faulted audit — cold re-opens exercise the read-side
    // detection paths (CRC quarantine, checksum verdicts, flip
    // confirmation) while injection is still live.
    let audit = catch_unwind(AssertUnwindSafe(|| {
        let _ = Journal::open(
            &journal_dir,
            "pressure",
            opts.fingerprint("pressure"),
            true,
        );
        for prep in fresh {
            let _ = snapshot_cache::load_from(&snap_dir, &prep.key, &prep.spec);
        }
    }));
    out.panicked |= audit.is_err();

    // The ledger is judged against what THIS cycle's seam injected.
    out.injected = faulty.counts();
    out.ledger = io_faults::ledger();
    out.renames_dropped = faulty.renames_dropped();
    vfs::reset();

    // Phase 4 (clean disk from here): startup hygiene — litter swept,
    // quarantines counted as detection evidence.
    out.tmp_swept = artifact::sweep_tmp_litter(cyc).len() as u64;
    out.tmp_remaining = artifact::find_tmp_litter(cyc).len() as u64;
    out.quarantined_files = artifact::find_quarantined(cyc).len() as u64;

    reload_snapshots(&snap_dir, fresh, &mut out);

    // A surviving BENCH artifact must be whole; a torn one must have
    // been quarantined, never left in place.
    match artifact::quarantine_if_corrupt(&bench_path) {
        Ok(Some(_)) => out.bench_artifact_quarantined = true,
        Ok(None) => {
            out.bench_artifact = std::fs::read_to_string(&bench_path).ok();
        }
        Err(_) => {}
    }

    // Phase 5: recovery — `--resume` semantics on a healthy disk must
    // reproduce the unfaulted reference byte-for-byte.
    snapshot_cache::clear_memory();
    let mut rec_opts = payload_opts(cfg);
    if let Ok(j) = Journal::open(
        &journal_dir,
        "pressure",
        rec_opts.fingerprint("pressure"),
        true,
    ) {
        rec_opts.journal = Some(Arc::new(j));
    }
    let (report, _) = pressure::run(&rec_opts);
    out.resume_json = payload_json(&report);
    out
}

/// The warm half of `warm_identity`, on a clean disk: every snapshot
/// that survived must load and re-encode to the fresh preparation's
/// bytes; every damaged one must be quarantined, never served.
fn reload_snapshots(snap_dir: &Path, fresh: &[FreshPrep], out: &mut CycleOutcome) {
    for prep in fresh {
        let path = snapshot_cache::snapshot_path(snap_dir, &prep.key);
        if !path.exists() {
            continue;
        }
        out.snapshots_survived += 1;
        match snapshot_cache::load_from(snap_dir, &prep.key, &prep.spec) {
            Some(w) => match prep.body() {
                Ok(body) if snapshot_cache::snapshot_body(&prep.key, &w) == body => {
                    out.warm_loaded += 1;
                }
                Ok(_) => out.warm_bad.push(format!(
                    "{} loaded but differs from a fresh preparation",
                    path.display()
                )),
                Err(why) => out.warm_bad.push(why.to_string()),
            },
            None if path.exists() => out
                .warm_bad
                .push(format!("{} neither loaded nor quarantined", path.display())),
            None => out.warm_quarantined += 1,
        }
    }
}

/// Folds every cycle into the five gated verdicts.
fn judge(cycles: &[(String, CycleOutcome)], ref_json: &str) -> Vec<Verdict> {
    let panics: Vec<&str> =
        cycles.iter().filter(|(_, c)| c.panicked).map(|(l, _)| l.as_str()).collect();

    // No corrupt bytes accepted: no undetected (pending) flips, no torn
    // BENCH artifact in place, no permanent tmp litter after the sweep.
    let mut corrupt_bad = Vec::new();
    let (mut flips_detected, mut quarantined, mut swept) = (0, 0, 0);
    for (label, c) in cycles {
        flips_detected += c.ledger.flips_detected;
        quarantined += c.quarantined_files + c.warm_quarantined;
        swept += c.tmp_swept;
        if c.ledger.flips_pending > 0 {
            corrupt_bad.push(format!("{label}: {} undetected flip(s)", c.ledger.flips_pending));
        }
        if c.tmp_remaining > 0 {
            corrupt_bad.push(format!("{label}: {} tmp file(s) survived the sweep", c.tmp_remaining));
        }
        if let Some(json) = &c.bench_artifact {
            if json != ref_json {
                corrupt_bad.push(format!("{label}: surviving BENCH_pressure.json is not the reference"));
            }
        }
    }

    let resume_bad: Vec<&str> = cycles
        .iter()
        .filter(|(_, c)| c.resume_json != ref_json)
        .map(|(l, _)| l.as_str())
        .collect();

    let mut warm_bad = Vec::new();
    let (mut warm_loaded, mut warm_survived, mut warm_quarantined) = (0, 0, 0);
    for (label, c) in cycles {
        warm_loaded += c.warm_loaded;
        warm_survived += c.snapshots_survived;
        warm_quarantined += c.warm_quarantined;
        warm_bad.extend(c.warm_bad.iter().map(|why| format!("{label}: {why}")));
    }

    let mut ledger_bad = Vec::new();
    let (mut injected_total, mut accounted_total) = (0, 0);
    for (label, c) in cycles {
        injected_total += c.injected.total();
        accounted_total += c.ledger.accounted.errors();
        for (kind, injected, accounted) in c.injected.rows(&c.ledger.accounted) {
            if injected != accounted {
                ledger_bad.push(format!(
                    "{label}: {kind} injected {injected} != accounted {accounted}"
                ));
            }
        }
        if c.injected.bit_flips != c.ledger.flips_detected + c.ledger.flips_pending {
            ledger_bad.push(format!(
                "{label}: {} flip(s) injected, {} recorded",
                c.injected.bit_flips,
                c.ledger.flips_detected + c.ledger.flips_pending
            ));
        }
    }

    vec![
        Verdict {
            name: "zero_panics",
            pass: panics.is_empty(),
            evidence: if panics.is_empty() {
                format!("{} doomed + audit cycle(s), none panicked", cycles.len())
            } else {
                format!("panicked in: {}", panics.join(", "))
            },
        },
        Verdict {
            name: "no_corrupt_accepted",
            pass: corrupt_bad.is_empty(),
            evidence: if corrupt_bad.is_empty() {
                format!(
                    "{flips_detected} flip(s) detected, {quarantined} corrupt file(s) \
                     quarantined, {swept} tmp file(s) swept, 0 undetected"
                )
            } else {
                corrupt_bad.join("; ")
            },
        },
        Verdict {
            name: "resume_identity",
            pass: resume_bad.is_empty(),
            evidence: if resume_bad.is_empty() {
                format!(
                    "all {} post-cut --resume runs byte-identical to the unfaulted \
                     reference ({} bytes)",
                    cycles.len(),
                    ref_json.len()
                )
            } else {
                format!("diverged in: {}", resume_bad.join(", "))
            },
        },
        Verdict {
            name: "warm_identity",
            pass: warm_bad.is_empty(),
            evidence: if warm_bad.is_empty() {
                format!(
                    "{warm_loaded} of {warm_survived} snapshot(s) that survived the cuts \
                     loaded warm, each re-encoding byte-identical to a fresh \
                     preparation; {warm_quarantined} damaged one(s) quarantined"
                )
            } else {
                warm_bad.join("; ")
            },
        },
        Verdict {
            name: "ledger_identity",
            pass: ledger_bad.is_empty(),
            evidence: if ledger_bad.is_empty() {
                format!(
                    "{injected_total} fault(s) injected; every error kind matches its \
                     accounted count exactly ({accounted_total} error(s) accounted)"
                )
            } else {
                ledger_bad.join("; ")
            },
        },
    ]
}

/// Renders the artifact payload.
fn torture_json(
    cfg: &TortureConfig,
    cycles: &[(String, CycleOutcome)],
    verdicts: &[Verdict],
    wall_seconds: f64,
) -> String {
    let injected: u64 = cycles.iter().map(|(_, c)| c.injected.total()).sum();
    let accounted: u64 = cycles.iter().map(|(_, c)| c.ledger.accounted.errors()).sum();
    let flips: u64 = cycles.iter().map(|(_, c)| c.ledger.flips_detected).sum();
    let dropped: u64 = cycles.iter().map(|(_, c)| c.renames_dropped).sum();
    let swept: u64 = cycles.iter().map(|(_, c)| c.tmp_swept).sum();
    let quarantined: u64 =
        cycles.iter().map(|(_, c)| c.quarantined_files + c.warm_quarantined).sum();
    let mut out = String::from("{\n  \"schema\": \"colt-torture/v1\",\n");
    out.push_str(&format!(
        "  \"seeds\": {},\n  \"base_seed\": {},\n  \"cuts\": {},\n  \
         \"rate\": {},\n  \"window\": {},\n  \"accesses\": {},\n  \
         \"bench\": \"{}\",\n  \"cycles\": {},\n  \"wall_seconds\": {:.3},\n",
        cfg.seeds,
        cfg.base_seed,
        cfg.cuts,
        cfg.rate,
        cfg.window,
        cfg.accesses,
        artifact::json_escape(&cfg.bench),
        cycles.len(),
        wall_seconds
    ));
    out.push_str(&format!(
        "  \"io_faults_injected\": {injected},\n  \"io_faults_accounted\": {accounted},\n  \
         \"bit_flips_detected\": {flips},\n  \"renames_dropped\": {dropped},\n  \
         \"tmp_files_swept\": {swept},\n  \"files_quarantined\": {quarantined},\n"
    ));
    let mut all_ok = true;
    for v in verdicts {
        all_ok &= v.pass;
        out.push_str(&format!(
            "  \"{}\": {},\n  \"{}_evidence\": \"{}\",\n",
            v.name,
            v.pass,
            v.name,
            artifact::json_escape(&v.evidence)
        ));
    }
    out.push_str(&format!("  \"all_ok\": {all_ok}\n}}"));
    out
}

/// Runs the torture sweep end to end and writes the artifact. Returns
/// the payload plus whether every verdict passed.
///
/// # Errors
/// Infrastructure failures (scratch dir, the reference run, the
/// artifact write) — distinct from a *failed verdict*, which still
/// produces the artifact and `Ok((_, false))`.
pub fn run(cfg: &TortureConfig) -> Result<(String, bool), String> {
    let scratch =
        std::env::temp_dir().join(format!("colt-torture-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("create {}: {e}", scratch.display()))?;
    // Snapshots must hit disk for the snapshot leg to be tortured at
    // all (the library default is memory-only). Restored on every exit
    // path: leaking `true` would make unrelated tests in the same
    // process write snapshots into their working directory.
    struct DiskPersistenceGuard(bool);
    impl Drop for DiskPersistenceGuard {
        fn drop(&mut self) {
            snapshot_cache::set_disk_persistence(self.0);
        }
    }
    let _disk_guard = DiskPersistenceGuard(snapshot_cache::disk_persistence());
    snapshot_cache::set_disk_persistence(true);
    let wall_start = Instant::now();

    // The unfaulted reference: the byte-identity target for every
    // cycle's recovery run.
    vfs::reset();
    snapshot_cache::set_dir_override(Some(scratch.join("ref-snapshots")));
    snapshot_cache::clear_memory();
    let (ref_report, _) = pressure::run(&payload_opts(cfg));
    if !ref_report.failures.is_empty() {
        snapshot_cache::set_dir_override(None);
        return Err(format!(
            "reference pressure run failed {} cell(s); cannot torture against it",
            ref_report.failures.len()
        ));
    }
    let ref_json = payload_json(&ref_report);
    let fresh: Vec<FreshPrep> = pressure::preparations(&payload_opts(cfg))
        .into_iter()
        .map(|(_, scenario, spec)| FreshPrep::new(scenario, spec))
        .collect();

    let mut cycles: Vec<(String, CycleOutcome)> = Vec::new();
    for s in 0..cfg.seeds.max(1) {
        for j in 0..cfg.cuts.max(1) {
            let seed = cfg.base_seed.wrapping_add(s);
            let cut_after = 2 + 5 * j;
            let label = format!("seed-{seed}-cut-{cut_after}");
            let plan = FaultConfig { rate: cfg.rate, window: cfg.window, seed };
            let cyc = scratch.join(&label);
            std::fs::create_dir_all(&cyc)
                .map_err(|e| format!("create {}: {e}", cyc.display()))?;
            let outcome = run_cycle(cfg, &fresh, &cyc, plan, cut_after);
            if !cfg.quiet {
                println!(
                    "torture: {label}: {} fault(s) injected, {} accounted, {} flip(s) \
                     detected, {} rename(s) dropped at the cut{}",
                    outcome.injected.total(),
                    outcome.ledger.accounted.errors(),
                    outcome.ledger.flips_detected,
                    outcome.renames_dropped,
                    if outcome.panicked { " [PANICKED]" } else { "" }
                );
            }
            cycles.push((label, outcome));
        }
    }
    snapshot_cache::set_dir_override(None);
    snapshot_cache::clear_memory();

    let verdicts = judge(&cycles, &ref_json);
    let wall_seconds = wall_start.elapsed().as_secs_f64();
    let payload = torture_json(cfg, &cycles, &verdicts, wall_seconds);
    if let Some(moved) = artifact::quarantine_if_corrupt(&cfg.out)
        .map_err(|e| format!("inspect {}: {e}", cfg.out.display()))?
    {
        eprintln!(
            "torture: WARNING: corrupt {} quarantined to {}",
            cfg.out.display(),
            moved.display()
        );
    }
    if let Some(parent) = cfg.out.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    artifact::atomic_write_json(&cfg.out, &payload)
        .map_err(|e| format!("write {}: {e}", cfg.out.display()))?;
    let _ = std::fs::remove_dir_all(&scratch);

    let all_ok = verdicts.iter().all(|v| v.pass);
    if !cfg.quiet {
        for v in &verdicts {
            println!(
                "torture: {} {} — {}",
                if v.pass { "PASS" } else { "FAIL" },
                v.name,
                v.evidence
            );
        }
    }
    Ok((payload, all_ok))
}

// ---------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------

fn torture_usage() -> String {
    "usage: repro torture [--seeds N] [--cuts N] [--accesses N] [--bench NAME]\n\
     \u{20}                    [--io-faults rate=R,window=W,seed=S] [--out PATH]\n\
     \u{20}                    [--quiet]\n\
     Sweeps seeded storage-fault schedules x simulated power-cut points\n\
     over the journal, snapshot, and artifact layers, then gates five\n\
     crash-consistency verdicts with evidence: zero panics, no corrupt\n\
     bytes accepted, --resume byte-identity, warm-snapshot identity,\n\
     and an exact injected-vs-accounted fault ledger. Writes\n\
     results/BENCH_torture.json and exits nonzero when any verdict\n\
     fails. --io-faults sets the plan template (its seed is the sweep\n\
     base; --seeds counts schedules from there)."
        .to_string()
}

/// `repro torture` entry point.
pub fn cli(args: &[String]) -> ExitCode {
    let mut cfg = TortureConfig::default();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let value = args.get(i + 1);
        let mut took_value = true;
        let parse_u64 = |flag: &str, v: Option<&String>| -> Result<u64, String> {
            v.ok_or_else(|| format!("{flag} needs a value"))?
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a number"))
        };
        let result: Result<(), String> = match arg {
            "--seeds" => parse_u64(arg, value).map(|n| cfg.seeds = n.max(1)),
            "--cuts" => parse_u64(arg, value).map(|n| cfg.cuts = n.max(1)),
            "--accesses" => parse_u64(arg, value).map(|n| cfg.accesses = n.max(1)),
            "--bench" => value
                .ok_or_else(|| "--bench needs a name".to_string())
                .map(|v| cfg.bench = v.clone()),
            "--io-faults" => value
                .ok_or_else(|| "--io-faults needs a spec".to_string())
                .and_then(|v| FaultConfig::parse(v))
                .map(|f| {
                    cfg.rate = f.rate;
                    cfg.window = f.window;
                    cfg.base_seed = f.seed;
                }),
            "--out" => value
                .ok_or_else(|| "--out needs a path".to_string())
                .map(|v| cfg.out = PathBuf::from(v)),
            "--quiet" => {
                took_value = false;
                cfg.quiet = true;
                Ok(())
            }
            "--help" | "-h" => {
                println!("{}", torture_usage());
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown flag '{other}'")),
        };
        if let Err(e) = result {
            eprintln!("{e}\n{}", torture_usage());
            return ExitCode::from(2);
        }
        i += if took_value { 2 } else { 1 };
    }
    match run(&cfg) {
        Ok((payload, all_ok)) => {
            if !cfg.quiet {
                println!("torture details written to {}", cfg.out.display());
            }
            if all_ok {
                if !cfg.quiet {
                    println!(
                        "TORTURE PASS: every verdict held (see {})",
                        cfg.out.display()
                    );
                }
                ExitCode::SUCCESS
            } else {
                eprintln!("TORTURE FAIL: one or more verdicts failed; payload:\n{payload}");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("torture: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The warm reload on hand-made survivors: an intact snapshot
    /// loads, one that differs from the fresh preparation is reported
    /// rather than counted as warm, and a torn one is quarantined.
    fn reload_classifies_intact_foreign_and_torn_snapshots() {
        let dir = std::env::temp_dir()
            .join(format!("colt-torture-reload-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec = colt_workloads::spec::benchmark("Povray").unwrap();
        let scenario = Scenario::default_linux().with_seed(0x5AFE_CAFE);
        let workload = scenario.prepare(&spec).unwrap();
        let key = snapshot_cache::prep_key(&scenario, &spec);
        // Fresh bodies are given, not prepared again: one preparation
        // keeps the debug-build test cheap.
        let fresh_with = |body: Vec<u8>| FreshPrep {
            body: OnceCell::from(Ok(body)),
            ..FreshPrep::new(scenario.clone(), spec.clone())
        };
        let fresh = [fresh_with(snapshot_cache::snapshot_body(&key, &workload))];
        let path = snapshot_cache::snapshot_path(&dir, &key);

        snapshot_cache::store_to(&dir, &key, &workload).unwrap();
        let mut out = CycleOutcome::default();
        reload_snapshots(&dir, &fresh, &mut out);
        assert_eq!((out.snapshots_survived, out.warm_loaded), (1, 1));

        let mut out = CycleOutcome::default();
        reload_snapshots(&dir, &[fresh_with(Vec::new())], &mut out);
        assert_eq!(out.warm_loaded, 0);
        assert_eq!(out.warm_bad.len(), 1, "{:?}", out.warm_bad);

        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let mut out = CycleOutcome::default();
        reload_snapshots(&dir, &fresh, &mut out);
        assert_eq!((out.warm_loaded, out.warm_quarantined), (0, 1));
        assert!(!path.exists(), "the torn snapshot is moved aside");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One tiny cycle end to end. Serialized with every other test that
    /// touches the process-global seam or ledger. The hand-made reload
    /// cases run under the same guard: a second guarded test would
    /// hold a test thread idle for the whole cycle.
    #[test]
    fn one_cycle_torture_passes_all_verdicts() {
        let _guard = crate::io_faults::ledger_test_guard();
        reload_classifies_intact_foreign_and_torn_snapshots();
        let cfg = TortureConfig {
            seeds: 1,
            cuts: 1,
            accesses: 300,
            rate: 0.2,
            out: std::env::temp_dir()
                .join(format!("colt-torture-test-{}", std::process::id()))
                .join("BENCH_torture.json"),
            quiet: true,
            ..TortureConfig::default()
        };
        let (payload, all_ok) = run(&cfg).expect("torture infrastructure");
        assert!(all_ok, "verdicts failed:\n{payload}");
        crate::artifact::validate_json(&payload).unwrap();
        assert!(payload.contains("\"io_faults_injected\""));
        let _ = std::fs::remove_dir_all(cfg.out.parent().unwrap());
    }
}
