//! The CoLT reproduction's benchmark: one closed-loop workload per run,
//! end-to-end metrics from an untraced run, per-layer metrics from a
//! traced one. See `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload translate --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Traced runs also write `perfbench/out/<workload>-seed<N>.trace.json`
//! (Chrome trace-event format) and `.ledger.md` next to it.

mod bench;
mod metrics;
mod plan;
mod run;
#[cfg(test)]
mod tests;
mod traced;

use bench::{Options, Report};
use plan::Workload;
use std::path::PathBuf;

/// Digests of every simulated statistic at [`plan::DEFAULT_SEED`], one
/// `<workload> <hex>` line each.
const DIGESTS: &str = include_str!("../digests.txt");

/// The stored digest of `workload` at the default seed.
pub fn expected_digest(workload: Workload) -> Option<u64> {
    DIGESTS.lines().find_map(|l| {
        let (name, hex) = l.split_once(' ')?;
        (name == workload.name()).then(|| u64::from_str_radix(hex.trim(), 16).ok())?
    })
}

const USAGE: &str =
    "usage: colt-perfbench --workload <translate|churn|prepare> --seed <n> --seconds <s> --trace <0|1>";

/// Runner workers: 2, never more than the machine's cores.
const JOBS: usize = 2;

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = plan::DEFAULT_SEED;
    let mut seconds = 25.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or_else(|| bad("translate, churn or prepare"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| bad("positive seconds"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        jobs: JOBS.min(std::thread::available_parallelism().map_or(1, |n| n.get())),
    })
}

fn result_json(report: &Report, trace: bool) -> String {
    let table = if trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let fields: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = report.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value + 0.0 } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        fields.join(", ")
    )
}

fn write_outputs(opts: &Options, report: &Report) -> std::io::Result<()> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let stem = format!("{}-seed{}", opts.workload.name(), opts.seed);
    if let Some(t) = &report.trace_json {
        std::fs::write(dir.join(format!("{stem}.trace.json")), t)?;
    }
    if let Some(l) = &report.ledger {
        std::fs::write(dir.join(format!("{stem}.ledger.md")), l)?;
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = match bench::run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: {e}", opts.workload.name());
            std::process::exit(1);
        }
    };
    eprintln!("{}: digest {:016x}", opts.workload.name(), report.digest);
    for note in &report.notes {
        eprintln!("{}: {note}", opts.workload.name());
    }
    if let Some(ledger) = &report.ledger {
        eprintln!("{ledger}");
        if let Err(e) = write_outputs(&opts, &report) {
            eprintln!(
                "{}: could not write the trace files: {e}",
                opts.workload.name()
            );
        }
    }
    println!("{}", result_json(&report, opts.trace));
}
