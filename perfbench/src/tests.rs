//! The benchmark's own tests, on reduced plans of the same shape
//! (`cargo test --release --manifest-path perfbench/Cargo.toml`).

use crate::bench::{execute, Options, Report};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::plan::{Plan, Workload};
use std::sync::Mutex;

/// The runner's metrics registry and the snapshot cache are
/// process-global, so runs in one test process must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn small_run(workload: Workload, seed: u64, jobs: usize, trace: bool) -> Report {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let opts = Options {
        workload,
        seed,
        seconds: 1e-3,
        trace,
        jobs,
    };
    let report = execute(&Plan::small(workload, seed), &opts).expect("set-up succeeds");
    assert_eq!(report.failed, 0, "{:?}", report.notes);
    assert!(report.correct, "{:?}", report.notes);
    report
}

#[test]
fn digest_repeats_across_runs_and_worker_counts() {
    for w in Workload::ALL {
        let a = small_run(w, 7, 2, false).digest;
        assert_eq!(a, small_run(w, 7, 2, false).digest, "{w:?}: second run");
        assert_eq!(a, small_run(w, 7, 1, false).digest, "{w:?}: 1 vs 2 workers");
    }
}

#[test]
fn another_seed_changes_the_digest() {
    for w in Workload::ALL {
        assert_ne!(
            small_run(w, 1, 2, false).digest,
            small_run(w, 2, 2, false).digest,
            "{w:?}"
        );
    }
}

#[test]
fn traced_runs_match_sim_run_and_fill_every_metric() {
    for w in Workload::ALL {
        let r = small_run(w, 3, 2, true);
        assert!(
            r.attempted >= 2,
            "{w:?}: at least one untraced and one traced pass"
        );
        for (name, _) in PER_LAYER {
            assert!(r.metrics.contains_key(name), "{w:?}: {name} missing");
        }
        assert!(r.ledger.is_some() && r.trace_json.is_some());
    }
    let r = small_run(Workload::Translate, 3, 2, false);
    for (name, _) in END_TO_END {
        assert!(r.metrics[name] > 0.0, "{name} must never be 0");
    }
}

#[test]
fn metric_names_are_well_formed_and_declared_in_benchmark_json() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let (e2e, layers) = text
        .split_once("\"per_layer\"")
        .expect("a per_layer section");
    for (table, section) in [(END_TO_END, e2e), (PER_LAYER, layers)] {
        for (name, unit) in table {
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(section.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
    for w in Workload::ALL {
        assert!(
            e2e.contains(&format!("\"name\": \"{}\"", w.name())),
            "{w:?}"
        );
    }
}
