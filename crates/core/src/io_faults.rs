//! Seeded storage fault injection: the decision plan and the fault
//! ledger.
//!
//! This is the storage counterpart of the memory-pressure faults in
//! `colt_os_mem::faults`: an [`IoFaultPlan`] is the same
//! one-draw-per-decision [`FaultPlan`] on a salted stream, consulted by
//! [`crate::vfs::FaultyVfs`] at every failure-prone storage operation —
//! writes (ENOSPC, short/torn writes), reads (EIO, bit flips), fsyncs
//! (failed and *lying*), and renames. Every decision consumes exactly
//! one base draw whether or not it fires, so a plan replays identically
//! for a given config; fault-kind selection and flip positions use
//! extra draws only when a decision fires.
//!
//! The module also defines the **ledger** the torture harness audits.
//! Each `FaultyVfs` owns one: every injected error carries a
//! `colt-io-fault[...]` marker in its message, every degradation site
//! that handles a storage error hands it to
//! [`Vfs::account`](crate::vfs::Vfs::account) on the disk that produced
//! it, and every read-time bit flip is recorded against its path until
//! a consumer *detects* the corruption and calls
//! [`Vfs::confirm_flip`](crate::vfs::Vfs::confirm_flip). On the real
//! disk both are no-ops: nothing is injected there. The `repro torture`
//! verdict "faults injected == faults accounted" is an identity over
//! one disk's ledger: it fails if any `Vfs` call site swallows an
//! injected error without accounting, or if any flipped read is
//! accepted without its corruption being noticed. See DESIGN.md §16.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use colt_os_mem::faults::{FaultConfig, FaultPlan};

/// Marker prefix carried in the message of every injected [`io::Error`];
/// [`classify`] recognises it, so accounting never counts a *real*
/// filesystem error as injected.
const MARKER: &str = "colt-io-fault[";

/// The storage fault taxonomy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IoFaultKind {
    /// A write fails with no bytes accepted (disk full).
    Enospc,
    /// A write lands a prefix of the buffer, then fails (torn write).
    ShortWrite,
    /// A read fails outright.
    ReadEio,
    /// A read succeeds but one bit of the returned buffer is flipped.
    BitFlip,
    /// An fsync fails honestly: the caller knows durability was not
    /// achieved.
    SyncFail,
    /// An fsync *lies*: returns Ok without making anything durable. The
    /// loss only surfaces at the next power cut.
    SyncLie,
    /// A rename fails before taking effect.
    RenameFail,
    /// Any operation attempted after the simulated power-cut point (the
    /// disk is dead until the "reboot", i.e. [`crate::vfs::FaultyVfs::power_cut`]).
    PostCut,
}

impl IoFaultKind {
    /// Stable name used in the error marker and counter reports.
    pub fn name(self) -> &'static str {
        match self {
            Self::Enospc => "enospc",
            Self::ShortWrite => "short-write",
            Self::ReadEio => "read-eio",
            Self::BitFlip => "bit-flip",
            Self::SyncFail => "sync-fail",
            Self::SyncLie => "sync-lie",
            Self::RenameFail => "rename-fail",
            Self::PostCut => "post-cut",
        }
    }

    fn error_kind(self) -> io::ErrorKind {
        match self {
            Self::Enospc => io::ErrorKind::StorageFull,
            Self::ShortWrite => io::ErrorKind::WriteZero,
            _ => io::ErrorKind::Other,
        }
    }
}

/// Builds the tagged [`io::Error`] for an injected fault.
pub fn injected_error(kind: IoFaultKind, path: &Path) -> io::Error {
    io::Error::new(
        kind.error_kind(),
        format!("{MARKER}{}] injected on {}", kind.name(), path.display()),
    )
}

/// Recognises an injected error by its marker. Real filesystem errors
/// return `None`.
pub fn classify(e: &io::Error) -> Option<IoFaultKind> {
    let msg = e.to_string();
    let rest = msg.split(MARKER).nth(1)?;
    let name = rest.split(']').next()?;
    [
        IoFaultKind::Enospc,
        IoFaultKind::ShortWrite,
        IoFaultKind::ReadEio,
        IoFaultKind::BitFlip,
        IoFaultKind::SyncFail,
        IoFaultKind::SyncLie,
        IoFaultKind::RenameFail,
        IoFaultKind::PostCut,
    ]
    .into_iter()
    .find(|k| k.name() == name)
}

/// Per-kind fault counters. The plan keeps one (injections); the ledger
/// keeps another (errors accounted at degradation sites).
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct IoFaultCounts {
    /// Writes failed with ENOSPC.
    pub enospc: u64,
    /// Torn writes (prefix landed, then error).
    pub short_writes: u64,
    /// Reads failed with EIO.
    pub read_eio: u64,
    /// Reads returned with one bit flipped.
    pub bit_flips: u64,
    /// Fsyncs failed honestly.
    pub sync_fails: u64,
    /// Fsyncs that lied (Ok without durability).
    pub sync_lies: u64,
    /// Renames failed before taking effect.
    pub rename_fails: u64,
    /// Operations refused after the power-cut point.
    pub post_cut: u64,
}

impl IoFaultCounts {
    /// Every fault, of any kind.
    pub fn total(&self) -> u64 {
        self.errors() + self.bit_flips + self.sync_lies
    }

    /// Faults that surface as an [`io::Error`] — the kinds the accounted
    /// side of the ledger can match exactly. Bit flips (detected via the
    /// flip ledger) and lying fsyncs (latent until the power cut) are
    /// audited by other verdicts.
    pub fn errors(&self) -> u64 {
        self.enospc
            + self.short_writes
            + self.read_eio
            + self.sync_fails
            + self.rename_fails
            + self.post_cut
    }

    fn bump(&mut self, kind: IoFaultKind) {
        match kind {
            IoFaultKind::Enospc => self.enospc += 1,
            IoFaultKind::ShortWrite => self.short_writes += 1,
            IoFaultKind::ReadEio => self.read_eio += 1,
            IoFaultKind::BitFlip => self.bit_flips += 1,
            IoFaultKind::SyncFail => self.sync_fails += 1,
            IoFaultKind::SyncLie => self.sync_lies += 1,
            IoFaultKind::RenameFail => self.rename_fails += 1,
            IoFaultKind::PostCut => self.post_cut += 1,
        }
    }

    /// `(name, injected, accounted)` rows for reports.
    pub fn rows(&self, accounted: &IoFaultCounts) -> Vec<(&'static str, u64, u64)> {
        vec![
            ("enospc", self.enospc, accounted.enospc),
            ("short-write", self.short_writes, accounted.short_writes),
            ("read-eio", self.read_eio, accounted.read_eio),
            ("sync-fail", self.sync_fails, accounted.sync_fails),
            ("rename-fail", self.rename_fails, accounted.rename_fails),
            ("post-cut", self.post_cut, accounted.post_cut),
        ]
    }
}

/// A live, seeded stream of storage-fault decisions: a [`FaultPlan`] on
/// its own salted stream, plus per-kind injection counters.
#[derive(Clone, Debug)]
pub struct IoFaultPlan {
    plan: FaultPlan,
    counts: IoFaultCounts,
}

impl IoFaultPlan {
    /// A plan drawing from a stream decorrelated from the memory-pressure
    /// plan built from the same seed.
    pub fn new(config: FaultConfig) -> Self {
        Self {
            plan: FaultPlan::salted(config, 0x10FA_017D_5EED_D15C),
            counts: IoFaultCounts::default(),
        }
    }

    /// Decision points consumed so far.
    pub fn decisions(&self) -> u64 {
        self.plan.decisions()
    }

    /// Per-kind injection counters so far.
    pub fn counts(&self) -> IoFaultCounts {
        self.counts
    }

    /// Faults injected so far, of any kind.
    pub fn injected(&self) -> u64 {
        self.counts.total()
    }

    /// One decision that fired picks between two kinds with an extra
    /// draw and counts the pick.
    fn pick(&mut self, even: IoFaultKind, odd: IoFaultKind) -> IoFaultKind {
        let kind = if self.plan.extra() & 1 == 0 { even } else { odd };
        self.counts.bump(kind);
        kind
    }

    /// The fate of one write.
    pub fn write_fault(&mut self) -> Option<IoFaultKind> {
        self.plan
            .fire()
            .then(|| self.pick(IoFaultKind::Enospc, IoFaultKind::ShortWrite))
    }

    /// The fate of one read of `len` bytes. Zero-length reads cannot
    /// carry a flipped bit, so a hit there downgrades to EIO without an
    /// extra draw.
    pub fn read_fault(&mut self, len: usize) -> Option<IoFaultKind> {
        if !self.plan.fire() {
            return None;
        }
        if len == 0 {
            self.counts.bump(IoFaultKind::ReadEio);
            return Some(IoFaultKind::ReadEio);
        }
        Some(self.pick(IoFaultKind::BitFlip, IoFaultKind::ReadEio))
    }

    /// The fate of one fsync (file or directory).
    pub fn sync_fault(&mut self) -> Option<IoFaultKind> {
        self.plan
            .fire()
            .then(|| self.pick(IoFaultKind::SyncFail, IoFaultKind::SyncLie))
    }

    /// Does this rename fail before taking effect?
    pub fn rename_fault(&mut self) -> bool {
        let hit = self.plan.fire();
        if hit {
            self.counts.bump(IoFaultKind::RenameFail);
        }
        hit
    }

    /// An extra draw for fault shaping (flip position, torn-write
    /// length). Only call after a hit, so the base stream stays aligned.
    pub fn extra(&mut self) -> u64 {
        self.plan.extra()
    }

    /// Records a dead-disk refusal (not a draw: every post-cut operation
    /// fails unconditionally).
    pub fn note_post_cut(&mut self) {
        self.counts.bump(IoFaultKind::PostCut);
    }
}

/// One faulty disk's ledger: what the degradation sites accounted, per
/// layer, plus the per-path registry of injected-but-not-yet-detected
/// read flips.
#[derive(Default, Debug)]
pub(crate) struct Ledger {
    accounted: IoFaultCounts,
    by_layer: BTreeMap<&'static str, u64>,
    pending_flips: BTreeMap<PathBuf, u64>,
    flips_detected: u64,
}

/// Immutable view of the ledger for reports and verdicts.
#[derive(Clone, Default, Debug)]
pub struct LedgerSnapshot {
    /// Errors accounted at degradation sites, per kind.
    pub accounted: IoFaultCounts,
    /// Errors accounted per owning layer (`"journal"`, `"artifact"`,
    /// `"snapshot"`).
    pub by_layer: Vec<(String, u64)>,
    /// Flipped reads whose corruption a consumer noticed.
    pub flips_detected: u64,
    /// Flipped reads still unnoticed — must be zero for the torture
    /// no-corrupt-accepted verdict.
    pub flips_pending: u64,
}

impl Ledger {
    /// Accounts one storage error handled by `layer`. Only injected
    /// errors (recognised by their marker) are counted; real errors
    /// return `false` untouched.
    pub(crate) fn account(&mut self, layer: &'static str, e: &io::Error) -> bool {
        let Some(kind) = classify(e) else { return false };
        self.accounted.bump(kind);
        *self.by_layer.entry(layer).or_insert(0) += 1;
        true
    }

    /// Registers a read that returned flipped bytes for `path`.
    pub(crate) fn record_flip(&mut self, path: &Path) {
        *self.pending_flips.entry(path.to_path_buf()).or_insert(0) += 1;
    }

    /// Drains any pending flips recorded against `path` into the
    /// detected counter; returns whether there were any. Genuine
    /// (non-injected) corruption is not double-counted.
    pub(crate) fn confirm_flip(&mut self, path: &Path) -> bool {
        match self.pending_flips.remove(path) {
            Some(n) => {
                self.flips_detected += n;
                true
            }
            None => false,
        }
    }

    /// Current ledger contents.
    pub(crate) fn snapshot(&self) -> LedgerSnapshot {
        LedgerSnapshot {
            accounted: self.accounted,
            by_layer: self.by_layer.iter().map(|(k, v)| ((*k).to_string(), *v)).collect(),
            flips_detected: self.flips_detected,
            flips_pending: self.pending_flips.values().sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_prng::rngs::SmallRng;
    use colt_prng::{Rng, SeedableRng};

    fn cfg(rate: f64, window: u64, seed: u64) -> FaultConfig {
        FaultConfig { rate, window, seed }
    }

    #[test]
    fn plan_replays_identically() {
        let mut a = IoFaultPlan::new(cfg(0.3, 4, 11));
        let mut b = IoFaultPlan::new(cfg(0.3, 4, 11));
        for i in 0..200 {
            match i % 4 {
                0 => assert_eq!(a.write_fault(), b.write_fault()),
                1 => assert_eq!(a.read_fault(64), b.read_fault(64)),
                2 => assert_eq!(a.sync_fault(), b.sync_fault()),
                _ => assert_eq!(a.rename_fault(), b.rename_fault()),
            }
        }
        assert_eq!(a.counts(), b.counts());
        assert_eq!(a.decisions(), 200);
    }

    #[test]
    fn zero_rate_never_fires_full_rate_always_fires() {
        let mut quiet = IoFaultPlan::new(cfg(0.0, 0, 5));
        let mut loud = IoFaultPlan::new(cfg(1.0, 0, 5));
        for _ in 0..50 {
            assert_eq!(quiet.write_fault(), None);
            assert!(loud.write_fault().is_some());
        }
        assert_eq!(quiet.injected(), 0);
        assert_eq!(loud.injected(), 50);
    }

    #[test]
    fn window_alternates_armed_and_quiet() {
        let mut plan = IoFaultPlan::new(cfg(1.0, 3, 9));
        let fired: Vec<bool> =
            (0..12).map(|_| plan.write_fault().is_some()).collect();
        assert_eq!(
            fired,
            vec![
                true, true, true, false, false, false, true, true, true, false,
                false, false
            ]
        );
    }

    #[test]
    fn counts_sum_to_injected() {
        let mut plan = IoFaultPlan::new(cfg(0.5, 0, 77));
        for _ in 0..100 {
            let _ = plan.write_fault();
            let _ = plan.read_fault(32);
            let _ = plan.sync_fault();
            let _ = plan.rename_fault();
        }
        let c = plan.counts();
        assert!(plan.injected() > 0);
        assert_eq!(
            c.total(),
            c.enospc
                + c.short_writes
                + c.read_eio
                + c.bit_flips
                + c.sync_fails
                + c.sync_lies
                + c.rename_fails
                + c.post_cut
        );
    }

    #[test]
    fn empty_reads_never_draw_bit_flips() {
        let mut plan = IoFaultPlan::new(cfg(1.0, 0, 3));
        for _ in 0..40 {
            assert_eq!(plan.read_fault(0), Some(IoFaultKind::ReadEio));
        }
        assert_eq!(plan.counts().bit_flips, 0);
    }

    #[test]
    fn classify_round_trips_every_kind() {
        for kind in [
            IoFaultKind::Enospc,
            IoFaultKind::ShortWrite,
            IoFaultKind::ReadEio,
            IoFaultKind::BitFlip,
            IoFaultKind::SyncFail,
            IoFaultKind::SyncLie,
            IoFaultKind::RenameFail,
            IoFaultKind::PostCut,
        ] {
            let e = injected_error(kind, Path::new("/x/y"));
            assert_eq!(classify(&e), Some(kind), "{e}");
        }
        let real = io::Error::new(io::ErrorKind::NotFound, "no such file");
        assert_eq!(classify(&real), None);
    }

    #[test]
    fn ledger_accounts_only_injected_errors() {
        use crate::vfs::{FaultyVfs, RealVfs, Vfs};
        let faulty = FaultyVfs::new(cfg(0.0, 0, 1));
        let injected = injected_error(IoFaultKind::Enospc, Path::new("/a"));
        let real = io::Error::new(io::ErrorKind::PermissionDenied, "denied");
        assert!(faulty.account("artifact", &injected));
        assert!(!faulty.account("artifact", &real));
        assert!(!RealVfs.account("artifact", &injected), "the real disk keeps no ledger");
        let snap = faulty.ledger();
        assert_eq!(snap.accounted.enospc, 1);
        assert_eq!(snap.accounted.errors(), 1);
        assert_eq!(snap.by_layer, vec![("artifact".to_string(), 1)]);
    }

    #[test]
    fn flip_ledger_drains_on_confirmation() {
        let mut ledger = Ledger::default();
        let p = Path::new("/results/BENCH_x.json");
        ledger.record_flip(p);
        assert_eq!(ledger.snapshot().flips_pending, 1);
        assert!(ledger.confirm_flip(p));
        assert!(!ledger.confirm_flip(p), "second confirmation is a no-op");
        let snap = ledger.snapshot();
        assert_eq!(snap.flips_pending, 0);
        assert_eq!(snap.flips_detected, 1);
    }

    /// The storage plan as it stood before it was rebuilt on
    /// [`FaultPlan`]: its own window test, rng and decision counter.
    /// Kept only as the reference the merged plan must replay.
    struct ModelPlan {
        config: FaultConfig,
        rng: SmallRng,
        decisions: u64,
        counts: IoFaultCounts,
    }

    impl ModelPlan {
        fn new(config: FaultConfig) -> Self {
            Self {
                config,
                rng: SmallRng::seed_from_u64(config.seed ^ 0x10FA_017D_5EED_D15C),
                decisions: 0,
                counts: IoFaultCounts::default(),
            }
        }

        fn fire(&mut self) -> bool {
            let armed =
                self.config.window == 0 || (self.decisions / self.config.window) % 2 == 0;
            self.decisions += 1;
            let hit = self.rng.gen_bool(self.config.rate.clamp(0.0, 1.0));
            armed && hit
        }

        fn write_fault(&mut self) -> Option<IoFaultKind> {
            if !self.fire() {
                return None;
            }
            let kind = if self.rng.next_u64() & 1 == 0 {
                IoFaultKind::Enospc
            } else {
                IoFaultKind::ShortWrite
            };
            self.counts.bump(kind);
            Some(kind)
        }

        fn read_fault(&mut self, len: usize) -> Option<IoFaultKind> {
            if !self.fire() {
                return None;
            }
            let kind = if len > 0 && self.rng.next_u64() & 1 == 0 {
                IoFaultKind::BitFlip
            } else {
                IoFaultKind::ReadEio
            };
            self.counts.bump(kind);
            Some(kind)
        }

        fn sync_fault(&mut self) -> Option<IoFaultKind> {
            if !self.fire() {
                return None;
            }
            let kind = if self.rng.next_u64() & 1 == 0 {
                IoFaultKind::SyncFail
            } else {
                IoFaultKind::SyncLie
            };
            self.counts.bump(kind);
            Some(kind)
        }

        fn rename_fault(&mut self) -> bool {
            if !self.fire() {
                return false;
            }
            self.counts.bump(IoFaultKind::RenameFail);
            true
        }
    }

    #[test]
    fn plan_replays_the_pre_merge_model_exactly() {
        for rate in [0.0, 0.3, 1.0] {
            for window in [0, 3] {
                for seed in [0, 1, 7, 23, 0xC017, u64::MAX] {
                    let config = cfg(rate, window, seed);
                    let mut plan = IoFaultPlan::new(config);
                    let mut model = ModelPlan::new(config);
                    for i in 0..400u64 {
                        let at = format!("rate {rate} window {window} seed {seed} op {i}");
                        match i % 5 {
                            0 => assert_eq!(plan.write_fault(), model.write_fault(), "{at}"),
                            1 => assert_eq!(plan.read_fault(64), model.read_fault(64), "{at}"),
                            2 => assert_eq!(plan.read_fault(0), model.read_fault(0), "{at}"),
                            3 => assert_eq!(plan.sync_fault(), model.sync_fault(), "{at}"),
                            _ => assert_eq!(plan.rename_fault(), model.rename_fault(), "{at}"),
                        }
                        if i % 37 == 0 && plan.injected() > 0 {
                            // Shaping draws (flip positions, torn lengths)
                            // come from the same stream.
                            assert_eq!(plan.extra(), model.rng.next_u64(), "{at}");
                        }
                    }
                    let at = format!("rate {rate} window {window} seed {seed}");
                    assert_eq!(plan.counts(), model.counts, "{at}");
                    assert_eq!(plan.decisions(), model.decisions);
                }
            }
        }
    }
}
