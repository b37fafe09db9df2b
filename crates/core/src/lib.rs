//! # colt-core — the CoLT reproduction's simulation engine
//!
//! Ties the substrates together into the paper's experiments:
//! [`colt_os_mem`] (buddy allocator, compaction, THS, page tables)
//! generates the contiguity; [`colt_tlb`] implements the Baseline /
//! CoLT-SA / CoLT-FA / CoLT-All hierarchies; [`colt_memsim`] walks page
//! tables through the cache hierarchy; [`colt_workloads`] models the 14
//! Table-1 benchmarks. This crate adds:
//!
//! * [`sim`] — the trace-driven simulation loop (§5.2.1),
//! * [`perf`] — the paper's performance-interpolation model,
//! * [`experiments`] — one driver per table/figure (Table 1, Figures
//!   7–21, plus the §7.1.3 ablation and extras),
//! * [`runner`] — the parallel sweep runner the drivers fan out on
//!   (deterministic results, shared workload preparation, retry +
//!   quarantine supervision),
//! * [`journal`] — the durable, checksummed cell journal behind
//!   `repro --resume` crash recovery,
//! * [`snapshot_cache`] — the process-global preparation cache whose
//!   durable snapshots let a warm `repro` invocation skip workload
//!   preparation entirely,
//! * [`artifact`] — atomic, verified result-file writes and the
//!   `BENCH_*.json` builders,
//! * [`lru`] — the bounded map behind the snapshot cache's memory
//!   layer,
//! * [`vfs`] / [`io_faults`] — the storage seam every durable byte
//!   goes through, and its seeded fault plan and ledger,
//! * [`report`] / [`metrics`] — output formatting and comparisons,
//! * [`serve`] — two caller-less leaf modules left from the retired
//!   serving leg, pending deletion.
//!
//! The `repro` binary regenerates any experiment:
//! `cargo run --release -p colt-core --bin repro -- fig18`.
//!
//! ## Quick example
//!
//! ```
//! use colt_core::sim::{self, SimConfig};
//! use colt_tlb::config::TlbConfig;
//! use colt_workloads::{scenario::Scenario, spec::benchmark};
//!
//! # fn main() -> colt_os_mem::error::MemResult<()> {
//! let spec = benchmark("Gobmk").expect("a Table-1 benchmark");
//! let workload = Scenario::default_linux().prepare(&spec)?;
//! let baseline = sim::run(&workload, &SimConfig::new(TlbConfig::baseline()).with_accesses(20_000));
//! let colt = sim::run(&workload, &SimConfig::new(TlbConfig::colt_all()).with_accesses(20_000));
//! assert!(colt.tlb.l2_misses <= baseline.tlb.l2_misses);
//! # Ok(())
//! # }
//! ```

pub mod artifact;
pub mod check;
pub mod experiments;
pub mod io_faults;
pub mod journal;
pub mod lru;
pub mod metrics;
pub mod perf;
pub mod report;
pub mod runner;
pub mod serve;
pub mod sim;
pub mod snapshot_cache;
pub mod vfs;

pub use experiments::{ExperimentOptions, ExperimentOutput};
pub use perf::PerfModel;
pub use report::Table;
pub use sim::{SimConfig, SimResult};
