//! Std-only self-timed benchmark harness (criterion replacement).
//!
//! Each bench auto-calibrates its iteration count to a ~100 ms batch,
//! takes several timed samples, and reports the median ns/iter with the
//! min..max spread. No statistics beyond that — the goal is a stable
//! order-of-magnitude signal that builds offline, not criterion's
//! rigor. Pass substring arguments to run a subset (a bench runs when
//! its name contains any of them): `cargo bench --bench micro -- buddy vma`.

use std::hint::black_box;
use std::time::{Duration, Instant};

const TARGET_SAMPLE: Duration = Duration::from_millis(100);
const SAMPLES: usize = 5;

/// Collects results for one bench binary and prints the final table.
pub struct Harness {
    title: &'static str,
    filters: Vec<String>,
    results: Vec<BenchResult>,
}

struct BenchResult {
    name: String,
    median_ns: f64,
    min_ns: f64,
    max_ns: f64,
    iters_per_sample: u64,
}

/// Times one registered bench; handed to the closure by `bench_function`.
pub struct Bencher {
    samples_ns: Vec<f64>,
    iters_per_sample: u64,
}

impl Bencher {
    /// Times `routine` in calibrated batches (criterion's `iter`).
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        // Calibrate: double the batch until it costs ~TARGET_SAMPLE.
        let mut iters = 1u64;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            let elapsed = start.elapsed();
            if elapsed >= TARGET_SAMPLE || iters >= 1 << 30 {
                self.record_first(iters, elapsed);
                break;
            }
            iters = if elapsed.is_zero() {
                iters * 8
            } else {
                // Aim directly at the target with 20% headroom.
                (iters as f64 * (TARGET_SAMPLE.as_secs_f64() / elapsed.as_secs_f64()) * 1.2)
                    .ceil()
                    .max(iters as f64 + 1.0) as u64
            };
        }
        for _ in 1..SAMPLES {
            let start = Instant::now();
            for _ in 0..self.iters_per_sample {
                black_box(routine());
            }
            self.record(start.elapsed());
        }
    }

    /// Times `routine` against fresh state from `setup`, excluding setup
    /// cost (criterion's `iter_batched_ref`). Each call is timed
    /// individually, so this suits routines that cost ≳1 µs.
    pub fn iter_batched_ref<S, R>(
        &mut self,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(&mut S) -> R,
    ) {
        let mut timed = |iters: u64| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let mut state = setup();
                let start = Instant::now();
                black_box(routine(&mut state));
                total += start.elapsed();
            }
            total
        };
        let mut iters = 1u64;
        loop {
            let elapsed = timed(iters);
            if elapsed >= TARGET_SAMPLE || iters >= 1 << 20 {
                self.record_first(iters, elapsed);
                break;
            }
            iters = if elapsed.is_zero() {
                iters * 8
            } else {
                (iters as f64 * (TARGET_SAMPLE.as_secs_f64() / elapsed.as_secs_f64()) * 1.2)
                    .ceil()
                    .max(iters as f64 + 1.0) as u64
            };
        }
        for _ in 1..SAMPLES {
            let elapsed = timed(self.iters_per_sample);
            self.record(elapsed);
        }
    }

    fn record_first(&mut self, iters: u64, elapsed: Duration) {
        self.iters_per_sample = iters;
        self.record(elapsed);
    }

    fn record(&mut self, elapsed: Duration) {
        self.samples_ns.push(elapsed.as_nanos() as f64 / self.iters_per_sample as f64);
    }
}

impl Harness {
    /// Parses bench CLI args: every non-flag argument is a name filter;
    /// flags cargo passes (`--bench`) are ignored.
    pub fn from_args(title: &'static str) -> Self {
        let filters = std::env::args().skip(1).filter(|a| !a.starts_with('-')).collect();
        Self { title, filters, results: Vec::new() }
    }

    /// Registers and immediately runs one bench.
    pub fn bench_function(&mut self, name: &str, f: impl FnOnce(&mut Bencher)) {
        if !self.filters.is_empty() && !self.filters.iter().any(|f| name.contains(f.as_str())) {
            return;
        }
        eprintln!("benchmarking {name} ...");
        let mut b = Bencher { samples_ns: Vec::new(), iters_per_sample: 0 };
        f(&mut b);
        assert!(!b.samples_ns.is_empty(), "bench {name} never called iter()");
        let mut sorted = b.samples_ns.clone();
        sorted.sort_by(|a, c| a.total_cmp(c));
        self.results.push(BenchResult {
            name: name.to_string(),
            median_ns: sorted[sorted.len() / 2],
            min_ns: sorted[0],
            max_ns: *sorted.last().unwrap(),
            iters_per_sample: b.iters_per_sample,
        });
    }

    /// Starts a named group; bench names get a `group/` prefix.
    pub fn benchmark_group(&mut self, group: &str) -> Group<'_> {
        Group { harness: self, prefix: group.to_string() }
    }

    /// Prints the results table. Call once at the end of `main`.
    pub fn finish(self) {
        println!("\n== {} ==", self.title);
        let width = self.results.iter().map(|r| r.name.len()).max().unwrap_or(4).max(4);
        println!("{:<width$}  {:>12}  {:>26}  {:>10}", "name", "median", "range", "iters");
        for r in &self.results {
            println!(
                "{:<width$}  {:>12}  {:>12} .. {:>10}  {:>10}",
                r.name,
                fmt_ns(r.median_ns),
                fmt_ns(r.min_ns),
                fmt_ns(r.max_ns),
                r.iters_per_sample,
            );
        }
    }
}

/// A named prefix over a [`Harness`] (criterion's `BenchmarkGroup`).
pub struct Group<'a> {
    harness: &'a mut Harness,
    prefix: String,
}

impl Group<'_> {
    pub fn bench_function(&mut self, name: &str, f: impl FnOnce(&mut Bencher)) {
        let full = format!("{}/{}", self.prefix, name);
        self.harness.bench_function(&full, f);
    }

    /// Accepted for criterion compatibility; sampling is fixed here.
    pub fn sample_size(&mut self, _n: usize) {}

    pub fn finish(self) {}
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_iter_produces_samples() {
        let mut h = Harness { title: "test", filters: Vec::new(), results: Vec::new() };
        h.bench_function("spin", |b| b.iter(|| std::hint::black_box(3u64).wrapping_mul(7)));
        assert_eq!(h.results.len(), 1);
        let r = &h.results[0];
        assert!(r.median_ns > 0.0 && r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
        assert!(r.iters_per_sample >= 1);
    }

    #[test]
    fn filter_skips_non_matching() {
        let mut h = Harness {
            title: "test",
            filters: vec!["wanted".to_string(), "also".to_string()],
            results: Vec::new(),
        };
        h.bench_function("other", |_| panic!("must not run"));
        h.bench_function("wanted_bench", |b| b.iter(|| 1u64 + 1));
        h.bench_function("also_bench", |b| b.iter(|| 1u64 + 1));
        assert_eq!(h.results.len(), 2);
        assert_eq!(h.results[0].name, "wanted_bench");
        assert_eq!(h.results[1].name, "also_bench");
    }

    #[test]
    fn iter_batched_ref_excludes_setup() {
        let mut h = Harness { title: "test", filters: Vec::new(), results: Vec::new() };
        h.bench_function("batched", |b| {
            b.iter_batched_ref(|| vec![1u64; 8], |v| v.iter().sum::<u64>())
        });
        assert_eq!(h.results.len(), 1);
    }
}
