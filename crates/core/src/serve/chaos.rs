//! Deterministic network-fault plan of the retired `repro serve` leg.
//!
//! The serving counterpart of `colt_os_mem::faults`: a [`ChaosPlan`] is
//! a seeded stream of injection decisions the server consulted at its
//! network-failure-prone choice points — every response write and every
//! accepted connection. Each decision point consumes exactly one draw
//! whether or not a fault fires (the `faults.rs` one-draw-per-decision
//! style), so a plan replays the same decision *sequence* for a given
//! [`ChaosConfig`], and every injection is counted, never silent.
//!
//! Fault kinds: **torn frame** (the response line cut mid-JSON, then
//! the socket closed), **reset** (closed before any response byte),
//! **stall** (a plan-drawn pause; latency, not an error) and **accept
//! hiccup** (accepted and immediately dropped). The plan has no callers
//! left (see [`crate::serve`]).

use colt_prng::rngs::SmallRng;
use colt_prng::{Rng, SeedableRng};
use std::time::Duration;

/// Parameters of a chaos plan, parsed from a `rate=R,window=W,seed=S`
/// spec.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ChaosConfig {
    /// Probability in `[0, 1]` that an armed decision point injects a
    /// fault.
    pub rate: f64,
    /// Duty-cycle window in decision points: `window` armed decisions
    /// alternate with `window` quiet ones (bursty weather). `0` keeps
    /// the plan armed throughout.
    pub window: u64,
    /// Seed of the decision stream.
    pub seed: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self { rate: 0.1, window: 0, seed: 7 }
    }
}

impl ChaosConfig {
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
                .ok_or_else(|| format!("chaos spec '{part}' is not key=value"))?;
            match key.trim() {
                "rate" => {
                    let rate: f64 = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad chaos rate '{value}'"))?;
                    if !(0.0..=1.0).contains(&rate) {
                        return Err(format!("chaos rate {rate} outside [0, 1]"));
                    }
                    cfg.rate = rate;
                }
                "window" => {
                    cfg.window = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad chaos window '{value}'"))?;
                }
                "seed" => {
                    cfg.seed = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad chaos seed '{value}'"))?;
                }
                other => return Err(format!("unknown chaos key '{other}'")),
            }
        }
        Ok(cfg)
    }
}

/// What one response-write decision point does to the frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ResponseFault {
    /// Write the whole line.
    Deliver,
    /// Write a prefix of the line, then close the socket.
    TornFrame,
    /// Close the socket before any byte.
    Reset,
    /// Delay, then write the whole line.
    Stall(Duration),
}

/// Per-kind injection totals. Every injected fault lands in exactly
/// one bucket, so `torn_frames + resets + stalls + accept_hiccups`
/// always equals [`ChaosPlan::injected`] — the "all faults accounted
/// for" invariant.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct ChaosCounts {
    /// Responses cut mid-frame.
    pub torn_frames: u64,
    /// Responses replaced by a bare close.
    pub resets: u64,
    /// Responses delayed.
    pub stalls: u64,
    /// Connections dropped straight out of `accept`.
    pub accept_hiccups: u64,
}

impl ChaosCounts {
    /// Sum across every kind.
    pub fn total(&self) -> u64 {
        self.torn_frames + self.resets + self.stalls + self.accept_hiccups
    }
}

/// A live, seeded stream of network-fault decisions.
#[derive(Clone, Debug)]
pub struct ChaosPlan {
    config: ChaosConfig,
    rng: SmallRng,
    decisions: u64,
    counts: ChaosCounts,
}

impl ChaosPlan {
    /// A plan drawing from `config`'s seed.
    pub fn new(config: ChaosConfig) -> Self {
        Self {
            config,
            rng: SmallRng::seed_from_u64(config.seed ^ 0xC4A0_5EED_0DDB_A115),
            decisions: 0,
            counts: ChaosCounts::default(),
        }
    }

    /// The parameters this plan was built from.
    pub fn config(&self) -> ChaosConfig {
        self.config
    }

    /// Faults injected so far, total.
    pub fn injected(&self) -> u64 {
        self.counts.total()
    }

    /// Faults injected so far, by kind.
    pub fn counts(&self) -> ChaosCounts {
        self.counts
    }

    /// Decision points consumed so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// One decision point: draws from the stream and reports whether a
    /// fault fires (armed window AND rate hit).
    fn fire(&mut self) -> bool {
        let armed = self.config.window == 0
            || (self.decisions / self.config.window).is_multiple_of(2);
        self.decisions += 1;
        let hit = self.rng.gen_bool(self.config.rate.clamp(0.0, 1.0));
        armed && hit
    }

    /// The fate of one response write. A firing decision consumes one
    /// extra draw to pick the kind (torn / reset / stall), and a stall
    /// one more for its duration — so faulty and clean histories stay
    /// on the same base stream.
    pub fn response_fault(&mut self) -> ResponseFault {
        if !self.fire() {
            return ResponseFault::Deliver;
        }
        match self.rng.next_u64() % 3 {
            0 => {
                self.counts.torn_frames += 1;
                ResponseFault::TornFrame
            }
            1 => {
                self.counts.resets += 1;
                ResponseFault::Reset
            }
            _ => {
                self.counts.stalls += 1;
                ResponseFault::Stall(Duration::from_millis(
                    10 + self.rng.next_u64() % 91,
                ))
            }
        }
    }

    /// Should this just-accepted connection be dropped on the floor?
    pub fn accept_hiccup(&mut self) -> bool {
        if self.fire() {
            self.counts.accept_hiccups += 1;
            true
        } else {
            false
        }
    }

    /// Where a torn frame cuts `len` response bytes: at least one byte
    /// is written (the client must see a *torn* frame, not a bare
    /// close — that is what `Reset` models) and the newline never is.
    pub fn tear_at(&mut self, len: usize) -> usize {
        if len <= 1 {
            return 1;
        }
        1 + (self.rng.next_u64() as usize) % (len - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_partial_and_empty_specs() {
        let cfg = ChaosConfig::parse("rate=0.25,window=64,seed=42").unwrap();
        assert_eq!(cfg, ChaosConfig { rate: 0.25, window: 64, seed: 42 });
        assert_eq!(ChaosConfig::parse("").unwrap(), ChaosConfig::default());
        let cfg = ChaosConfig::parse("seed=9").unwrap();
        assert_eq!(cfg, ChaosConfig { seed: 9, ..ChaosConfig::default() });
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(ChaosConfig::parse("rate=2.0").is_err());
        assert!(ChaosConfig::parse("banana=1").is_err());
        assert!(ChaosConfig::parse("rate").is_err());
        assert!(ChaosConfig::parse("window=-3").is_err());
    }

    #[test]
    fn plans_with_equal_configs_replay_identically() {
        let cfg = ChaosConfig { rate: 0.4, window: 8, seed: 123 };
        let mut a = ChaosPlan::new(cfg);
        let mut b = ChaosPlan::new(cfg);
        for _ in 0..500 {
            assert_eq!(a.response_fault(), b.response_fault());
            assert_eq!(a.accept_hiccup(), b.accept_hiccup());
        }
        assert_eq!(a.counts(), b.counts());
        assert_eq!(a.injected(), b.injected());
    }

    #[test]
    fn per_kind_counts_always_sum_to_the_total() {
        let mut plan = ChaosPlan::new(ChaosConfig { rate: 0.5, window: 0, seed: 3 });
        for _ in 0..300 {
            let _ = plan.response_fault();
            let _ = plan.accept_hiccup();
        }
        let c = plan.counts();
        assert_eq!(c.total(), plan.injected());
        assert!(c.torn_frames > 0 && c.resets > 0 && c.stalls > 0);
        assert!(c.accept_hiccups > 0);
    }

    #[test]
    fn zero_rate_never_fires_and_full_rate_always_fires_when_armed() {
        let mut never = ChaosPlan::new(ChaosConfig { rate: 0.0, window: 0, seed: 1 });
        let mut always = ChaosPlan::new(ChaosConfig { rate: 1.0, window: 0, seed: 1 });
        for _ in 0..200 {
            assert_eq!(never.response_fault(), ResponseFault::Deliver);
            assert_ne!(always.response_fault(), ResponseFault::Deliver);
        }
        assert_eq!(never.injected(), 0);
        assert_eq!(always.injected(), 200);
    }

    #[test]
    fn window_gates_injection_into_alternating_bursts() {
        let mut plan = ChaosPlan::new(ChaosConfig { rate: 1.0, window: 4, seed: 3 });
        let fired: Vec<bool> = (0..16)
            .map(|_| plan.response_fault() != ResponseFault::Deliver)
            .collect();
        assert_eq!(
            fired,
            [
                true, true, true, true, false, false, false, false, true, true, true,
                true, false, false, false, false
            ]
        );
    }

    #[test]
    fn tears_land_strictly_inside_the_frame() {
        let mut plan = ChaosPlan::new(ChaosConfig { rate: 1.0, window: 0, seed: 11 });
        for len in [1usize, 2, 3, 64, 4096] {
            for _ in 0..50 {
                let cut = plan.tear_at(len);
                assert!(cut >= 1, "at least one byte is written");
                assert!(cut <= len.max(1), "never past the frame");
                if len > 1 {
                    assert!(cut < len, "the newline is never written");
                }
            }
        }
    }

    #[test]
    fn stall_durations_are_bounded() {
        let mut plan = ChaosPlan::new(ChaosConfig { rate: 1.0, window: 0, seed: 19 });
        let mut stalls = 0;
        for _ in 0..300 {
            if let ResponseFault::Stall(d) = plan.response_fault() {
                assert!(d >= Duration::from_millis(10) && d <= Duration::from_millis(100));
                stalls += 1;
            }
        }
        assert!(stalls > 0);
    }
}
