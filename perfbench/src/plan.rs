//! The three workloads: which sweep cells each pass submits, derived
//! only from the workload name and the seed.

use colt_core::sim::SimConfig;
use colt_os_mem::kernel::CompactionMode;
use colt_tlb::config::TlbConfig;
use colt_workloads::scenario::Scenario;
use colt_workloads::spec::{all_benchmarks, BenchmarkSpec};

/// A named load shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Figure-18 sweep on warm preparations: the TLB-hit hot path.
    Translate,
    /// The same cells under THS off + low compaction, nested paging,
    /// context-switch flushes and shootdowns: the miss and maintenance
    /// path.
    Churn,
    /// Cold preparations of all twelve kernel configurations, with a
    /// contiguity scan and a snapshot round trip each: no simulation.
    Prepare,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Translate, Workload::Churn, Workload::Prepare];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Translate => "translate",
            Workload::Churn => "churn",
            Workload::Prepare => "prepare",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn simulates(self) -> bool {
        self != Workload::Prepare
    }
}

/// The seed every stored digest was recorded with; it leaves the
/// scenario and pattern seeds at the values `repro` uses.
pub const DEFAULT_SEED: u64 = 0;

/// Figure-18 designs, in submission order within each benchmark.
pub const DESIGNS: [&str; 4] = ["Baseline", "CoLT-SA", "CoLT-FA", "CoLT-All"];

fn design_config(design: usize) -> TlbConfig {
    match design {
        0 => TlbConfig::baseline(),
        1 => TlbConfig::colt_sa(),
        2 => TlbConfig::colt_fa(),
        _ => TlbConfig::colt_all(),
    }
}

/// One simulation cell.
#[derive(Clone)]
pub struct SimCell {
    pub label: String,
    pub scenario: Scenario,
    pub spec: BenchmarkSpec,
    pub cfg: SimConfig,
}

/// One cold-preparation cell.
#[derive(Clone)]
pub struct PrepCell {
    pub label: String,
    pub scenario: Scenario,
    pub spec: BenchmarkSpec,
    /// The paper's average contiguity for this (configuration,
    /// benchmark), for the three configurations Figures 7-15 plot.
    pub legend: Option<f64>,
}

/// Everything a run submits, fixed by workload and seed.
#[derive(Clone)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub specs: Vec<BenchmarkSpec>,
    pub scenarios: Vec<Scenario>,
    /// Measured references per sim cell (warm-up adds a tenth).
    pub accesses: u64,
}

impl Plan {
    /// The full workload: all 14 Table-1 benchmarks at the default
    /// reference budget.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let accesses = SimConfig::new(TlbConfig::baseline()).accesses;
        Self::with(workload, seed, all_benchmarks(), accesses)
    }

    /// A reduced plan with the same shape, for tests.
    #[cfg(test)]
    pub fn small(workload: Workload, seed: u64) -> Self {
        let specs = ["Gobmk", "Bzip2"]
            .iter()
            .map(|n| colt_workloads::spec::benchmark(n).expect("a Table-1 benchmark"))
            .collect();
        let mut plan = Self::with(workload, seed, specs, 20_000);
        if workload == Workload::Prepare {
            plan.scenarios.truncate(2);
        }
        plan
    }

    fn with(workload: Workload, seed: u64, specs: Vec<BenchmarkSpec>, accesses: u64) -> Self {
        let base = match workload {
            Workload::Translate => vec![Scenario::default_linux()],
            Workload::Churn => vec![Scenario::no_ths_low_compaction()],
            Workload::Prepare => Scenario::all_twelve(),
        };
        let scenarios = base
            .into_iter()
            .map(|s| {
                let k = s.seed.wrapping_add(seed);
                s.with_seed(k)
            })
            .collect();
        Plan {
            workload,
            seed,
            specs,
            scenarios,
            accesses,
        }
    }

    fn sim_config(&self, design: usize) -> SimConfig {
        let mut cfg = SimConfig::new(design_config(design)).with_accesses(self.accesses);
        cfg.pattern_seed = cfg.pattern_seed.wrapping_add(self.seed);
        match self.workload {
            Workload::Churn => cfg
                .virtualized()
                .with_context_switches(1_000)
                .with_invalidations(16),
            _ => cfg,
        }
    }

    /// Sim cells, benchmark-major and design-minor (the Figure-18
    /// order). Empty for `prepare`.
    pub fn sim_cells(&self) -> Vec<SimCell> {
        if !self.workload.simulates() {
            return Vec::new();
        }
        let scenario = &self.scenarios[0];
        let mut cells = Vec::with_capacity(self.specs.len() * DESIGNS.len());
        for spec in &self.specs {
            for (design, name) in DESIGNS.iter().enumerate() {
                cells.push(SimCell {
                    label: format!("{}/{}/{name}", self.workload.name(), spec.name),
                    scenario: scenario.clone(),
                    spec: spec.clone(),
                    cfg: self.sim_config(design),
                });
            }
        }
        cells
    }

    /// Preparation cells, configuration-major. For `translate` and
    /// `churn` these are the set-up preparations (one per benchmark).
    pub fn prep_cells(&self) -> Vec<PrepCell> {
        let mut cells = Vec::with_capacity(self.scenarios.len() * self.specs.len());
        for scenario in &self.scenarios {
            for spec in &self.specs {
                cells.push(PrepCell {
                    label: format!("{}/{}/{}", self.workload.name(), scenario.name, spec.name),
                    scenario: scenario.clone(),
                    spec: spec.clone(),
                    legend: legend(scenario, spec),
                });
            }
        }
        cells
    }
}

/// The Figure 7-15 legend value for this configuration, if it has one.
fn legend(scenario: &Scenario, spec: &BenchmarkSpec) -> Option<f64> {
    if scenario.memhog_fraction != 0.0 {
        return None;
    }
    match (scenario.ths, scenario.compaction) {
        (true, CompactionMode::Normal) => Some(spec.paper.contig_ths_on),
        (false, CompactionMode::Normal) => Some(spec.paper.contig_ths_off),
        (false, CompactionMode::Low) => Some(spec.paper.contig_low_compaction),
        (true, CompactionMode::Low) => None,
    }
}
