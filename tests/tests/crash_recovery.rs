//! Resume-equivalence: a pressure sweep interrupted after `k` cells and
//! finished with `--resume` must produce the *byte-identical*
//! machine-readable result of an uninterrupted run, for any `k` —
//! including `k = 0` (nothing journaled) and `k = all` (nothing left to
//! run) — and must re-run exactly the missing cells, no more. Drivers
//! that run several sweeps into one journal (`ablation`, `fig16-17`)
//! must resume to the same tables too.

use colt_core::artifact;
use colt_core::experiments::{pressure, run_named, ExperimentOptions};
use colt_core::journal::Journal;
use colt_core::vfs::RealVfs;
use colt_os_mem::faults::FaultConfig;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("colt-crash-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Fault rate for the swept configuration. Nonzero rates triple the
/// sweep (three intensities, three prepared scenarios); workload
/// preparation dominates unoptimized builds, so debug keeps the
/// single-scenario rate-0 sweep — resume semantics are identical, and
/// the release suite plus the `verify.sh` crash smoke cover the
/// faults-armed path.
const RATE: f64 = if cfg!(debug_assertions) { 0.0 } else { 0.3 };

fn small_opts() -> ExperimentOptions {
    // Tiny access budget: byte-identity and replay accounting do not
    // depend on sweep length, and this file re-runs the sweep several
    // times.
    ExperimentOptions {
        faults: Some(FaultConfig { rate: RATE, window: 50, seed: 11 }),
        jobs: 4,
        accesses: 4_000,
        ..ExperimentOptions::quick().with_benchmarks(&["FastaProt"])
    }
}

/// Runs the pressure sweep against the journal in `dir`, returning the
/// deterministic result JSON plus (cells re-run, cells replayed).
fn run_pressure(dir: &Path, resume: bool) -> (String, u64, usize) {
    let base = small_opts();
    let journal = Arc::new(
        Journal::open(Arc::new(RealVfs), dir, "pressure", base.fingerprint("pressure"), resume)
            .expect("journal open"),
    );
    let opts = ExperimentOptions { journal: Some(Arc::clone(&journal)), ..base };
    let (report, _) = pressure::run(&opts);
    assert!(report.failures.is_empty(), "no cell may fail: {:?}", report.failures);
    let json = artifact::pressure_json(&report, opts.faults.unwrap(), opts.cores);
    (json, journal.appended(), journal.open_report().replayed)
}

#[test]
fn resume_after_any_interruption_point_is_byte_identical() {
    let dir = tmpdir("equiv");
    let (reference, ran, replayed) = run_pressure(&dir, false);
    assert_eq!(replayed, 0, "fresh run must replay nothing");
    assert!(ran > 0);
    let journal_path = dir.join("pressure.jsonl");
    let full: Vec<String> =
        std::fs::read_to_string(&journal_path).unwrap().lines().map(String::from).collect();
    assert_eq!(full.len() as u64, ran, "one journal record per cell");

    // Interrupt after k cells: k = 0 (lost everything), a mid-sweep
    // point, and k = all (crash after the last fsync).
    let total = full.len();
    for k in [0, total / 3, total] {
        std::fs::write(&journal_path, format!("{}\n", full[..k].join("\n"))).unwrap();
        let (json, ran_now, replayed_now) = run_pressure(&dir, true);
        assert_eq!(json, reference, "resume from k={k} must be byte-identical");
        assert_eq!(replayed_now, k, "resume from k={k} must replay exactly k cells");
        assert_eq!(
            ran_now,
            (total - k) as u64,
            "resume from k={k} must re-run exactly the missing cells"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn changed_flags_invalidate_the_journal_instead_of_reusing_it() {
    let dir = tmpdir("fingerprint");
    let (_, ran, _) = run_pressure(&dir, false);
    assert!(ran > 0);

    // Same journal, different --faults: every record's fingerprint
    // mismatches, so nothing is replayable — stale results are never
    // silently blended into a differently-configured run.
    let base = ExperimentOptions {
        faults: Some(FaultConfig { rate: RATE + 0.3, window: 50, seed: 11 }),
        ..small_opts()
    };
    let journal =
        Journal::open(Arc::new(RealVfs), &dir, "pressure", base.fingerprint("pressure"), true)
            .unwrap();
    let report = journal.open_report();
    assert_eq!(report.replayed, 0, "no record may match the changed flags");
    assert_eq!(report.fingerprint_mismatches as u64, ran);
    assert!(journal.completed("any/label").is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs experiment `name` against the journal in `dir` and returns its
/// CSV tables plus the number of cells replayed from the journal.
fn run_csv(dir: &Path, name: &str, resume: bool) -> (String, usize) {
    let base = ExperimentOptions {
        jobs: 2,
        accesses: 4_000,
        ..ExperimentOptions::quick().with_benchmarks(&["FastaProt"])
    };
    let journal = Arc::new(
        Journal::open(Arc::new(RealVfs), dir, name, base.fingerprint(name), resume)
            .expect("journal open"),
    );
    let opts = ExperimentOptions { journal: Some(Arc::clone(&journal)), ..base };
    let run = run_named(name, &opts).expect("known experiment");
    let csv: Vec<String> = run.output.tables.iter().map(|t| t.to_csv()).collect();
    (csv.join("\n"), journal.open_report().replayed)
}

/// A fully journaled run resumed from its journal must replay every
/// cell and render the same tables, byte for byte.
fn assert_resume_is_byte_identical(name: &str) {
    let dir = tmpdir(name);
    let (fresh, replayed) = run_csv(&dir, name, false);
    assert_eq!(replayed, 0, "fresh run must replay nothing");
    let cells = std::fs::read_to_string(dir.join(format!("{name}.jsonl")))
        .unwrap()
        .lines()
        .count();
    let (resumed, replayed) = run_csv(&dir, name, true);
    assert_eq!(replayed, cells, "resume must replay every journaled cell");
    assert_eq!(resumed, fresh, "resumed {name} tables must be byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ablation_resume_is_byte_identical() {
    assert_resume_is_byte_identical("ablation");
}

#[test]
fn memhog_figures_resume_is_byte_identical() {
    assert_resume_is_byte_identical("fig16-17");
}
