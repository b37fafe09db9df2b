//! Seeded storage fault injection: the decision plan and the global
//! fault ledger.
//!
//! This is the storage counterpart of the memory-pressure faults in
//! `colt_os_mem::faults`: an [`IoFaultPlan`] is a one-draw-per-decision
//! seeded stream consulted by [`crate::vfs::FaultyVfs`] at every
//! failure-prone storage operation — writes (ENOSPC, short/torn
//! writes), reads (EIO, bit flips), fsyncs (failed and *lying*), and
//! renames. Every decision consumes exactly one
//! base draw whether or not it fires, so a plan replays identically for a
//! given config; fault-kind selection and flip positions use extra draws
//! only when a decision fires, the same discipline as
//! `FaultPlan::delivery_fault`.
//!
//! The module also owns the process-global **ledger** the torture
//! harness audits: every injected error carries a `colt-io-fault[...]`
//! marker in its message, every degradation site that handles a storage
//! error calls [`account`], and every read-time bit flip is recorded
//! against its path until a consumer *detects* the corruption and calls
//! [`confirm_flip`]. The `repro torture` verdict "faults injected ==
//! faults accounted" is an identity over this ledger: it fails if any
//! `Vfs` call site swallows an injected error without accounting, or if
//! any flipped read is accepted without its corruption being noticed.
//! See DESIGN.md §16.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use colt_os_mem::faults::FaultConfig;
use colt_prng::rngs::SmallRng;
use colt_prng::{Rng, SeedableRng};

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

/// A live, seeded stream of storage-fault decisions. Same draw
/// discipline as [`colt_os_mem::faults::FaultPlan`]: one base draw per
/// decision point regardless of outcome, extra draws only on a hit.
#[derive(Clone, Debug)]
pub struct IoFaultPlan {
    config: FaultConfig,
    rng: SmallRng,
    decisions: u64,
    counts: IoFaultCounts,
}

impl IoFaultPlan {
    /// A plan drawing from a stream decorrelated from the memory-pressure
    /// plan built from the same seed.
    pub fn new(config: FaultConfig) -> Self {
        Self {
            config,
            rng: SmallRng::seed_from_u64(config.seed ^ 0x10FA_017D_5EED_D15C),
            decisions: 0,
            counts: IoFaultCounts::default(),
        }
    }

    /// The parameters this plan was built from.
    pub fn config(&self) -> FaultConfig {
        self.config
    }

    /// Decision points consumed so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Per-kind injection counters so far.
    pub fn counts(&self) -> IoFaultCounts {
        self.counts
    }

    /// Faults injected so far, of any kind.
    pub fn injected(&self) -> u64 {
        self.counts.total()
    }

    fn fire(&mut self) -> bool {
        let armed = self.config.window == 0
            || (self.decisions / self.config.window) % 2 == 0;
        self.decisions += 1;
        let hit = self.rng.gen_bool(self.config.rate.clamp(0.0, 1.0));
        armed && hit
    }

    /// The fate of one write.
    pub fn write_fault(&mut self) -> Option<IoFaultKind> {
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

    /// The fate of one read of `len` bytes. Zero-length reads cannot
    /// carry a flipped bit, so a hit there downgrades to EIO.
    pub fn read_fault(&mut self, len: usize) -> Option<IoFaultKind> {
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

    /// The fate of one fsync (file or directory).
    pub fn sync_fault(&mut self) -> Option<IoFaultKind> {
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

    /// Does this rename fail before taking effect?
    pub fn rename_fault(&mut self) -> bool {
        if !self.fire() {
            return false;
        }
        self.counts.bump(IoFaultKind::RenameFail);
        true
    }

    /// An extra draw for fault shaping (flip position, torn-write
    /// length). Only call after a hit, so the base stream stays aligned.
    pub fn extra(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Records a dead-disk refusal (not a draw: every post-cut operation
    /// fails unconditionally).
    pub fn note_post_cut(&mut self) {
        self.counts.bump(IoFaultKind::PostCut);
    }
}

/// The global fault ledger: what the degradation sites accounted, per
/// layer, plus the per-path registry of injected-but-not-yet-detected
/// read flips.
#[derive(Default)]
struct LedgerState {
    accounted: IoFaultCounts,
    by_layer: BTreeMap<&'static str, u64>,
    pending_flips: BTreeMap<PathBuf, u64>,
    flips_detected: u64,
}

static LEDGER: Mutex<Option<LedgerState>> = Mutex::new(None);

fn with_ledger<T>(f: impl FnOnce(&mut LedgerState) -> T) -> T {
    let mut guard = LEDGER.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    f(guard.get_or_insert_with(LedgerState::default))
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

/// Clears the ledger (torture does this per cycle).
pub fn reset_ledger() {
    with_ledger(|l| *l = LedgerState::default());
}

/// Accounts one storage error handled by `layer`. Only injected errors
/// (recognised by their marker) are counted; real errors return `false`
/// untouched. Call this exactly once per error, at the `Vfs` call site
/// that first observes it — propagated errors are already accounted by
/// the module that made the call.
pub fn account(layer: &'static str, e: &io::Error) -> bool {
    let Some(kind) = classify(e) else { return false };
    with_ledger(|l| {
        l.accounted.bump(kind);
        *l.by_layer.entry(layer).or_insert(0) += 1;
    });
    true
}

/// Registers a read that returned flipped bytes for `path` (called by
/// `FaultyVfs` at injection time).
pub fn record_flip(path: &Path) {
    with_ledger(|l| *l.pending_flips.entry(path.to_path_buf()).or_insert(0) += 1);
}

/// A consumer noticed that bytes read from `path` are corrupt (CRC
/// mismatch, invalid framing, read-back inequality). Drains any pending
/// flips recorded against the path into the detected counter; returns
/// whether the corruption was an injected flip. A no-op (false) when the
/// path has no pending flip — genuine torn-tail corruption is not
/// double-counted.
pub fn confirm_flip(path: &Path) -> bool {
    with_ledger(|l| match l.pending_flips.remove(path) {
        Some(n) => {
            l.flips_detected += n;
            true
        }
        None => false,
    })
}

/// Serialises tests that touch the process-global ledger (or install a
/// process-global `Vfs`); `cargo test` runs modules concurrently.
#[cfg(test)]
pub(crate) fn ledger_test_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Current ledger contents.
pub fn ledger() -> LedgerSnapshot {
    with_ledger(|l| LedgerSnapshot {
        accounted: l.accounted,
        by_layer: l.by_layer.iter().map(|(k, v)| ((*k).to_string(), *v)).collect(),
        flips_detected: l.flips_detected,
        flips_pending: l.pending_flips.values().sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let _guard = ledger_test_guard();
        reset_ledger();
        let injected = injected_error(IoFaultKind::Enospc, Path::new("/a"));
        let real = io::Error::new(io::ErrorKind::PermissionDenied, "denied");
        assert!(account("artifact", &injected));
        assert!(!account("artifact", &real));
        let snap = ledger();
        assert_eq!(snap.accounted.enospc, 1);
        assert_eq!(snap.accounted.errors(), 1);
        assert_eq!(snap.by_layer, vec![("artifact".to_string(), 1)]);
        reset_ledger();
    }

    #[test]
    fn flip_ledger_drains_on_confirmation() {
        let _guard = ledger_test_guard();
        reset_ledger();
        let p = Path::new("/results/BENCH_x.json");
        record_flip(p);
        assert_eq!(ledger().flips_pending, 1);
        assert!(confirm_flip(p));
        assert!(!confirm_flip(p), "second confirmation is a no-op");
        let snap = ledger();
        assert_eq!(snap.flips_pending, 0);
        assert_eq!(snap.flips_detected, 1);
        reset_ledger();
    }
}
