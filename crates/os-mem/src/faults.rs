//! Deterministic memory-pressure fault injection.
//!
//! A [`FaultPlan`] is a seeded stream of injection decisions the kernel
//! consults at its failure-prone choice points: buddy allocations,
//! direct-compaction entry, background reclaim, and shootdown delivery.
//! Every decision draws from one `colt-prng` stream, so a plan replays
//! identically for a given [`FaultConfig`] regardless of thread count or
//! wall-clock — the property the `repro pressure` sweep and the
//! `repro --check` oracle both lean on.
//!
//! The plan decides *whether* something fails; the kernel's graceful-
//! degradation policies (base-page fallback, deferred THP collapse,
//! compaction backoff, emergency reclaim, the OOM killer) decide what
//! happens next. See DESIGN.md §10.

use crate::snapshot::{Dec, Enc, SnapResult, Snapshot, SnapshotError};
use colt_prng::rngs::SmallRng;
use colt_prng::{Rng, SeedableRng};

/// Parameters of a fault-injection plan, parsed from
/// `rate=R,window=W,seed=S` on the `repro` command line.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FaultConfig {
    /// Probability in `[0, 1]` that an armed decision point injects a
    /// fault.
    pub rate: f64,
    /// Duty-cycle window in decision points: the plan alternates between
    /// `window` armed decisions and `window` quiet ones, modelling bursty
    /// pressure. `0` keeps the plan armed throughout.
    pub window: u64,
    /// Seed of the decision stream.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self { rate: 0.05, window: 0, seed: 7 }
    }
}

impl FaultConfig {
    /// Parses `rate=R,window=W,seed=S` (each key optional, any order).
    /// The empty string yields the default plan.
    ///
    /// # Errors
    /// A human-readable message naming the offending key or value.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut cfg = Self::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec '{part}' is not key=value"))?;
            match key.trim() {
                "rate" => {
                    let rate: f64 = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad fault rate '{value}'"))?;
                    if !(0.0..=1.0).contains(&rate) {
                        return Err(format!("fault rate {rate} outside [0, 1]"));
                    }
                    cfg.rate = rate;
                }
                "window" => {
                    cfg.window = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad fault window '{value}'"))?;
                }
                "seed" => {
                    cfg.seed = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad fault seed '{value}'"))?;
                }
                other => return Err(format!("unknown fault key '{other}'")),
            }
        }
        Ok(cfg)
    }
}

/// What happens to one shootdown delivery under injection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeliveryFault {
    /// Normal per-VPN invalidation.
    Deliver,
    /// The IPI is lost. The receiver recovers the way real kernels do
    /// after a resend timeout: a conservative full TLB + walk-cache
    /// flush, trading performance for correctness.
    Drop,
    /// The IPI arrives twice; invalidation must be idempotent.
    Duplicate,
}

/// A live, seeded stream of injection decisions.
///
/// Each decision point consumes exactly one draw whether or not the plan
/// is armed at that point, so the decision sequence depends only on the
/// config — not on the window phase.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    config: FaultConfig,
    rng: SmallRng,
    decisions: u64,
    injected: u64,
}

impl FaultPlan {
    /// A plan drawing from `config`'s seed.
    pub fn new(config: FaultConfig) -> Self {
        Self::salted(config, 0)
    }

    /// A decorrelated sibling plan for shootdown delivery (used by the
    /// checker, which owns delivery, while the kernel owns allocation
    /// faults). Same config, disjoint stream.
    pub fn delivery(config: FaultConfig) -> Self {
        Self::salted(config, 0xD311_7E12_5EED_CAFE)
    }

    /// A plan drawing from `config.seed ^ salt`: the same config on a
    /// stream decorrelated from every plan built with another salt.
    pub fn salted(config: FaultConfig, salt: u64) -> Self {
        Self {
            config,
            rng: SmallRng::seed_from_u64(config.seed ^ salt),
            decisions: 0,
            injected: 0,
        }
    }

    /// The parameters this plan was built from.
    pub fn config(&self) -> FaultConfig {
        self.config
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Decision points consumed so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// One decision point: draws from the stream and reports whether a
    /// fault fires (armed window AND rate hit).
    pub fn fire(&mut self) -> bool {
        let armed = self.config.window == 0
            || (self.decisions / self.config.window) % 2 == 0;
        self.decisions += 1;
        let hit = self.rng.gen_bool(self.config.rate.clamp(0.0, 1.0));
        if armed && hit {
            self.injected += 1;
            true
        } else {
            false
        }
    }

    /// An extra draw for shaping a fault that fired (its kind, size or
    /// position). Only call after a hit, so the base stream stays
    /// aligned.
    pub fn extra(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Should this buddy allocation attempt fail spuriously?
    pub fn fail_alloc(&mut self) -> bool {
        self.fire()
    }

    /// Should this direct-compaction attempt abort before doing work?
    pub fn abort_compaction(&mut self) -> bool {
        self.fire()
    }

    /// A reclaim-pressure spike: `Some(pages)` orders the kernel to evict
    /// that much page cache right now (kswapd waking under pressure).
    pub fn reclaim_spike(&mut self) -> Option<u64> {
        if self.fire() {
            Some(16 + self.extra() % 49)
        } else {
            None
        }
    }

    /// The fate of one shootdown delivery.
    pub fn delivery_fault(&mut self) -> DeliveryFault {
        if self.fire() {
            if self.extra() & 1 == 0 {
                DeliveryFault::Drop
            } else {
                DeliveryFault::Duplicate
            }
        } else {
            DeliveryFault::Deliver
        }
    }
}

impl Snapshot for FaultConfig {
    fn encode(&self, enc: &mut Enc) {
        enc.f64(self.rate);
        enc.u64(self.window);
        enc.u64(self.seed);
    }

    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        let rate = dec.f64()?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(SnapshotError(format!("fault rate {rate} outside [0, 1]")));
        }
        Ok(Self { rate, window: dec.u64()?, seed: dec.u64()? })
    }
}

impl Snapshot for FaultPlan {
    fn encode(&self, enc: &mut Enc) {
        self.config.encode(enc);
        self.rng.state().encode(enc);
        enc.u64(self.decisions);
        enc.u64(self.injected);
    }

    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        Ok(Self {
            config: FaultConfig::decode(dec)?,
            rng: SmallRng::from_state(<[u64; 4]>::decode(dec)?),
            decisions: dec.u64()?,
            injected: dec.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let cfg = FaultConfig::parse("rate=0.25,window=64,seed=42").unwrap();
        assert_eq!(cfg, FaultConfig { rate: 0.25, window: 64, seed: 42 });
    }

    #[test]
    fn parse_partial_and_empty_specs_fill_defaults() {
        assert_eq!(FaultConfig::parse("").unwrap(), FaultConfig::default());
        let cfg = FaultConfig::parse("seed=9").unwrap();
        assert_eq!(cfg, FaultConfig { seed: 9, ..FaultConfig::default() });
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(FaultConfig::parse("rate=2.0").is_err());
        assert!(FaultConfig::parse("banana=1").is_err());
        assert!(FaultConfig::parse("rate").is_err());
        assert!(FaultConfig::parse("window=-3").is_err());
    }

    #[test]
    fn plans_with_equal_configs_replay_identically() {
        let cfg = FaultConfig { rate: 0.3, window: 8, seed: 123 };
        let mut a = FaultPlan::new(cfg);
        let mut b = FaultPlan::new(cfg);
        for _ in 0..500 {
            assert_eq!(a.fail_alloc(), b.fail_alloc());
            assert_eq!(a.reclaim_spike(), b.reclaim_spike());
            assert_eq!(a.delivery_fault(), b.delivery_fault());
        }
        assert_eq!(a.injected(), b.injected());
    }

    #[test]
    fn zero_rate_never_fires_and_full_rate_always_fires_when_armed() {
        let mut never = FaultPlan::new(FaultConfig { rate: 0.0, window: 0, seed: 1 });
        let mut always = FaultPlan::new(FaultConfig { rate: 1.0, window: 0, seed: 1 });
        for _ in 0..200 {
            assert!(!never.fail_alloc());
            assert!(always.fail_alloc());
        }
        assert_eq!(never.injected(), 0);
        assert_eq!(always.injected(), 200);
    }

    #[test]
    fn window_gates_injection_into_alternating_bursts() {
        let mut plan = FaultPlan::new(FaultConfig { rate: 1.0, window: 4, seed: 3 });
        let fired: Vec<bool> = (0..16).map(|_| plan.fail_alloc()).collect();
        assert_eq!(
            fired,
            [
                true, true, true, true, false, false, false, false, true, true, true,
                true, false, false, false, false
            ]
        );
    }

    #[test]
    fn delivery_plan_is_decorrelated_from_the_kernel_plan() {
        let cfg = FaultConfig { rate: 0.5, window: 0, seed: 77 };
        let mut kernel_plan = FaultPlan::new(cfg);
        let mut delivery_plan = FaultPlan::delivery(cfg);
        let a: Vec<bool> = (0..64).map(|_| kernel_plan.fail_alloc()).collect();
        let b: Vec<bool> = (0..64).map(|_| delivery_plan.fail_alloc()).collect();
        assert_ne!(a, b, "sibling streams must differ");
    }

    #[test]
    fn snapshot_mid_stream_resumes_identically() {
        let cfg = FaultConfig { rate: 0.4, window: 8, seed: 31 };
        let mut plan = FaultPlan::new(cfg);
        for _ in 0..37 {
            plan.fail_alloc();
        }
        let mut enc = Enc::new();
        plan.encode(&mut enc);
        let bytes = enc.finish();
        let mut back = FaultPlan::decode(&mut Dec::new(&bytes)).unwrap();
        assert_eq!(back.decisions(), plan.decisions());
        assert_eq!(back.injected(), plan.injected());
        for _ in 0..200 {
            assert_eq!(back.fail_alloc(), plan.fail_alloc());
            assert_eq!(back.delivery_fault(), plan.delivery_fault());
        }
    }

    #[test]
    fn duplicate_and_drop_both_occur_at_high_rates() {
        let mut plan = FaultPlan::delivery(FaultConfig { rate: 1.0, window: 0, seed: 5 });
        let outcomes: Vec<DeliveryFault> = (0..64).map(|_| plan.delivery_fault()).collect();
        assert!(outcomes.contains(&DeliveryFault::Drop));
        assert!(outcomes.contains(&DeliveryFault::Duplicate));
    }
}
