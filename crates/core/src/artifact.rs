//! Result-file plumbing: building and *safely* writing the
//! machine-readable `results/BENCH_*.json` artifacts.
//!
//! Three guarantees the `repro` binary used to lack:
//!
//! 1. **Atomic writes** — [`atomic_write_json`] writes a temp file,
//!    fsyncs it, renames it over the destination, and fsyncs the
//!    directory, so a crash at any instant leaves either the old file
//!    or the new file, never a truncated hybrid.
//! 2. **Verified writes** — after the rename the file is read back and
//!    parsed; an unparseable read-back (disk lying, torn write) is an
//!    error, and every write error is a *nonzero exit* in `repro`, not
//!    a swallowed warning.
//! 3. **Corruption quarantine** — [`quarantine_if_corrupt`] checks an
//!    existing artifact before a run would overwrite it; invalid JSON
//!    is moved aside to `<file>.corrupt-<n>` and reported, never
//!    silently clobbered.
//!
//! The JSON builders (`sweep_json`, `smp_json`, `pressure_json`,
//! `policy_json`) live
//! here rather than in the binary so the resume-equivalence tests can
//! assert byte-identical artifacts without shelling out.

use crate::experiments::policy::PolicyReport;
use crate::experiments::pressure::PressureReport;
use crate::experiments::smp::SmpRow;
use crate::runner::CellMetric;
use crate::vfs::{acct, Vfs};
use colt_os_mem::faults::FaultConfig;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic per-process counter distinguishing concurrent tmp files.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A tmp-file name unique across processes (PID) *and* across threads
/// and repeated calls within one process (counter). A fixed
/// `.tmp-<pid>` suffix would let two sweep workers — same PID, same
/// target — clobber each other's tmp mid-write.
pub(crate) fn unique_tmp(path: &Path) -> PathBuf {
    PathBuf::from(format!(
        "{}.tmp-{}-{}",
        path.display(),
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
        .replace('\r', "\\r")
        .replace('\t', "\\t")
}

// ---------------------------------------------------------------------
// Minimal JSON well-formedness scanner (the offline build has no
// serde). Validates structure only — enough to catch truncation,
// torn writes, and garbage, which is what crash safety needs.
// ---------------------------------------------------------------------

struct Scanner<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<(), String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit()
                || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
            {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_string())?;
        text.parse::<f64>()
            .map(|_| ())
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        while let Some(b) = self.peek() {
            self.pos += 1;
            match b {
                b'"' => return Ok(()),
                b'\\' => {
                    self.pos += 1; // escaped char (good enough for \uXXXX too)
                }
                _ => {}
            }
        }
        Err("unterminated string".to_string())
    }

    fn array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("bad array at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("bad object at byte {}", self.pos)),
            }
        }
    }
}

/// Checks that `text` is one well-formed JSON value (plus trailing
/// whitespace). Structure only; no data model is built.
pub fn validate_json(text: &str) -> Result<(), String> {
    let mut s = Scanner { bytes: text.as_bytes(), pos: 0 };
    s.value()?;
    s.skip_ws();
    if s.pos != s.bytes.len() {
        return Err(format!("trailing bytes after JSON value at byte {}", s.pos));
    }
    Ok(())
}

/// First free `<path>.corrupt-<n>` sibling.
pub(crate) fn quarantine_path(path: &Path) -> PathBuf {
    let mut n = 1;
    loop {
        let candidate = PathBuf::from(format!("{}.corrupt-{n}", path.display()));
        if !candidate.exists() {
            return candidate;
        }
        n += 1;
    }
}

/// If `path` exists but does not parse as JSON, moves it (on `disk`) to
/// `<path>.corrupt-<n>` and returns the quarantine path. A healthy or
/// absent file returns `Ok(None)`.
pub fn quarantine_if_corrupt(disk: &dyn Vfs, path: &Path) -> io::Result<Option<PathBuf>> {
    if !path.exists() {
        return Ok(None);
    }
    let text = match disk.read(path) {
        Ok(bytes) => String::from_utf8_lossy(&bytes).into_owned(),
        Err(e) => {
            let _ = disk.account("artifact", &e);
            String::new() // unreadable == corrupt
        }
    };
    if validate_json(&text).is_ok() {
        return Ok(None);
    }
    let _ = disk.confirm_flip(path);
    let dest = quarantine_path(path);
    acct(disk, "artifact", disk.rename(path, &dest))?;
    Ok(Some(dest))
}

/// Every `*.corrupt-<n>` quarantine file under `dir`, recursively, in
/// sorted order. These are the artifacts [`quarantine_if_corrupt`] set
/// aside after a crash; `repro` reports them loudly at startup so the
/// evidence is noticed instead of silently accumulating.
pub fn find_quarantined(dir: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.contains(".corrupt-"))
            {
                found.push(path);
            }
        }
    }
    found.sort();
    found
}

/// Every leaked `*.tmp-*` scratch file under `dir`, recursively, in
/// sorted order — orphans of a crash between create and rename. The
/// atomic-write protocol removes its tmp on every failure it survives,
/// so anything matching [`unique_tmp`]'s pattern at startup is litter.
pub fn find_tmp_litter(dir: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.contains(".tmp-") && !n.contains(".corrupt-"))
            {
                found.push(path);
            }
        }
    }
    found.sort();
    found
}

/// Removes every leaked tmp file under `dir`, returning the paths
/// removed so startup can report what it cleaned.
pub fn sweep_tmp_litter(dir: &Path) -> Vec<PathBuf> {
    find_tmp_litter(dir)
        .into_iter()
        .filter(|p| std::fs::remove_file(p).is_ok())
        .collect()
}

/// How many times [`atomic_write_json`] attempts the write before
/// giving up: disk-full and torn-write faults are retried with a short
/// backoff, and only a persistently failing disk surfaces as the error
/// the caller turns into a nonzero exit.
const WRITE_ATTEMPTS: u32 = 3;

/// Atomically writes `json` to `path` on `disk` (temp file + fsync +
/// rename + directory fsync), then reads it back and re-validates. Transient
/// failures (ENOSPC, torn writes) are retried with backoff; the temp
/// file is removed after every failed attempt, so a torn `BENCH_*` is
/// never left behind under any interleaving — the target either keeps
/// its previous durable content or carries the complete new value.
/// Returns the display path. A persistent failure — including an
/// unparseable read-back — is an error the caller must surface as a
/// nonzero exit.
pub fn atomic_write_json(disk: &dyn Vfs, path: &Path, json: &str) -> io::Result<String> {
    validate_json(json).map_err(|e| {
        io::Error::new(io::ErrorKind::InvalidData, format!("refusing to write invalid JSON: {e}"))
    })?;
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let mut last = None;
    for attempt in 0..WRITE_ATTEMPTS {
        if attempt > 0 {
            std::thread::sleep(std::time::Duration::from_millis(1 << attempt));
        }
        match atomic_write_attempt(disk, path, dir, json) {
            Ok(()) => return Ok(path.display().to_string()),
            Err(e) => last = Some(e),
        }
    }
    Err(last.expect("at least one attempt ran"))
}

/// One attempt of the atomic-write protocol. Every `Vfs` error is
/// accounted here, at the site that first observes it (see
/// [`Vfs::account`]).
fn atomic_write_attempt(disk: &dyn Vfs, path: &Path, dir: &Path, json: &str) -> io::Result<()> {
    acct(disk, "artifact", disk.create_dir_all(dir))?;
    let tmp = unique_tmp(path);
    let written = (|| {
        let mut f = acct(disk, "artifact", disk.create(&tmp))?;
        acct(disk, "artifact", f.write_all(json.as_bytes()))?;
        acct(disk, "artifact", f.flush())?;
        acct(disk, "artifact", f.sync_data())?;
        acct(disk, "artifact", disk.rename(&tmp, path))
    })();
    if let Err(e) = written {
        // Clean up the torn tmp. A dead (post-cut) disk can refuse even
        // this, which is exactly how startup tmp litter is born; the
        // refusal is still accounted.
        if let Err(re) = disk.remove_file(&tmp) {
            let _ = disk.account("artifact", &re);
        }
        return Err(e);
    }
    if let Err(e) = disk.sync_dir(dir) {
        // Deliberately ignored (rename durability is best-effort beyond
        // the file fsync) but still accounted.
        let _ = disk.account("artifact", &e);
    }
    // Read-back verification: the bytes on disk must parse. With a
    // single writer they are this call's own bytes; with concurrent
    // writers racing one target the read-back may legitimately be
    // another writer's *complete* rename — still atomic, still valid —
    // so differing bytes are only an error when they fail to parse or
    // when the mismatch turns out to be read-time corruption (a torn
    // write, a lying disk, a flipped bit).
    let back_bytes = acct(disk, "artifact", disk.read(path))?;
    let back = String::from_utf8_lossy(&back_bytes);
    if back != json && disk.confirm_flip(path) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("read-back of {} differs from the bytes written", path.display()),
        ));
    }
    validate_json(&back).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("read-back of {} is not valid JSON: {e}", path.display()),
        )
    })?;
    Ok(())
}

// ---------------------------------------------------------------------
// BENCH_*.json builders (hand-rolled: the offline build has no serde).
// ---------------------------------------------------------------------

/// Sum of every cell's preparation and simulation wall-clock — what one
/// worker thread would have spent *with the same snapshot-cache state*,
/// since results are identical at any width, prep sharing happens at
/// every width, and cache-hit cells record the (near-zero) time the hit
/// actually cost rather than the build it avoided.
pub fn serial_seconds_estimate(metrics: &[CellMetric]) -> f64 {
    metrics.iter().map(|m| m.prep_seconds + m.sim_seconds).sum()
}

/// Aggregate simulation-only throughput: refs per second once
/// preparation is amortized away (i.e. the steady-state rate a warm
/// cache converges to). Zero-ref cells — contiguity probes that prepare
/// a kernel but simulate nothing — are excluded from both numerator and
/// denominator so they cannot drag the figure toward zero.
pub fn prep_amortized_refs_per_sec(metrics: &[CellMetric]) -> f64 {
    let (refs, sim): (u64, f64) = metrics
        .iter()
        .filter(|m| m.refs > 0)
        .fold((0, 0.0), |(r, s), m| (r + m.refs, s + m.sim_seconds));
    refs as f64 / sim.max(1e-9)
}

/// Machine-readable sweep throughput report (`BENCH_sweep.json`). The
/// timing fields are wall-clock measurements: on a resumed run,
/// replayed cells carry their original (journaled, bit-exact) timings
/// while re-run cells time anew, so everything except timing is
/// reproducible byte-for-byte.
///
/// `speedup_vs_1_thread_estimate` compares the sum of per-cell
/// (prep + sim) wall-clock against the sweep's wall time — an honest
/// estimate because cache-hit cells contribute the prep they actually
/// paid, not the build they skipped. The separately labeled
/// `prep_amortized_refs_per_sec` reports sim-only throughput over the
/// cells that simulate anything (refs > 0).
pub fn sweep_json(
    metrics: &[CellMetric],
    jobs: usize,
    wall_seconds: f64,
    cache: &crate::snapshot_cache::CacheStats,
) -> String {
    let total_refs: u64 = metrics.iter().map(|m| m.refs).sum();
    let serial = serial_seconds_estimate(metrics);
    let prep_total: f64 = metrics.iter().map(|m| m.prep_seconds).sum();
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"jobs\": {jobs},\n"));
    out.push_str(&format!("  \"wall_seconds\": {wall_seconds:.6},\n"));
    out.push_str(&format!("  \"total_refs\": {total_refs},\n"));
    out.push_str(&format!(
        "  \"aggregate_refs_per_sec\": {:.1},\n",
        total_refs as f64 / wall_seconds.max(1e-9)
    ));
    out.push_str(&format!(
        "  \"prep_amortized_refs_per_sec\": {:.1},\n",
        prep_amortized_refs_per_sec(metrics)
    ));
    out.push_str(&format!("  \"prep_seconds_total\": {prep_total:.6},\n"));
    out.push_str(&format!("  \"prep_cache_hits\": {},\n", cache.hits()));
    out.push_str(&format!("  \"prep_cache_misses\": {},\n", cache.misses));
    out.push_str(&format!(
        "  \"prep_cache_evictions\": {},\n",
        cache.mem_evictions
    ));
    out.push_str(&format!(
        "  \"snapshot_seconds\": {:.6},\n",
        cache.snapshot_seconds
    ));
    out.push_str(&format!("  \"serial_seconds_estimate\": {serial:.6},\n"));
    out.push_str(&format!(
        "  \"speedup_vs_1_thread_estimate\": {:.3},\n",
        serial / wall_seconds.max(1e-9)
    ));
    out.push_str("  \"cells\": [\n");
    for (i, m) in metrics.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"benchmark\": \"{}\", \"scenario\": \"{}\", \
             \"refs\": {}, \"prep_seconds\": {:.6}, \"sim_seconds\": {:.6}, \
             \"refs_per_sec\": {:.1}}}{}\n",
            json_escape(&m.label),
            json_escape(&m.benchmark),
            json_escape(&m.scenario),
            m.refs,
            m.prep_seconds,
            m.sim_seconds,
            m.refs as f64 / (m.prep_seconds + m.sim_seconds).max(1e-9),
            if i + 1 == metrics.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Machine-readable SMP report (`BENCH_smp.json`): one record per
/// (mix, mode, cores) row of the `smp_*` experiments. Fully
/// deterministic — a resumed run reproduces it byte-for-byte.
pub fn smp_json(rows: &[SmpRow], cores_flag: usize) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"cores_flag\": {cores_flag},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"experiment\": \"{}\", \"mix\": \"{}\", \"mode\": \"{}\", \
             \"cores\": {}, \"accesses\": {}, \"l1_misses\": {}, \"walks\": {}, \
             \"full_flushes\": {}, \"flushes_avoided\": {}, \"ipis_sent\": {}, \
             \"ipis_received\": {}, \"remote_invalidations\": {}, \
             \"ipi_cycles\": {}}}{}\n",
            json_escape(r.experiment),
            json_escape(&r.mix),
            json_escape(r.mode),
            r.cores,
            r.accesses,
            r.l1_misses,
            r.walks,
            r.full_flushes,
            r.flushes_avoided,
            r.ipis_sent,
            r.ipis_received,
            r.remote_invalidations,
            r.ipi_cycles,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Machine-readable pressure report (`BENCH_pressure.json`): every cell
/// row, the SMP leg, and the failure list (partial results survive
/// failed cells). Fully deterministic — the crash-recovery smoke stage
/// diffs it byte-for-byte against an uninterrupted reference run.
pub fn pressure_json(
    report: &PressureReport,
    cfg: FaultConfig,
    cores_flag: usize,
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"fault_rate\": {}, \"fault_window\": {}, \"fault_seed\": {},\n",
        cfg.rate, cfg.window, cfg.seed
    ));
    out.push_str(&format!("  \"cores_flag\": {cores_flag},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, r) in report.rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"benchmark\": \"{}\", \"config\": \"{}\", \"rate\": {}, \
             \"accesses\": {}, \"l1_misses\": {}, \"walks\": {}, \"walk_cycles\": {}, \
             \"faults_injected\": {}, \"thp_fallbacks\": {}, \
             \"thp_deferred_retries\": {}, \"compact_deferred\": {}, \
             \"oom_kills\": {}}}{}\n",
            json_escape(&r.benchmark),
            json_escape(&r.config),
            r.rate,
            r.accesses,
            r.l1_misses,
            r.walks,
            r.walk_cycles,
            r.kernel.faults_injected,
            r.kernel.thp_fallbacks,
            r.kernel.thp_deferred_retries,
            r.kernel.compact_deferred,
            r.kernel.oom_kills,
            if i + 1 == report.rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"smp_rows\": [\n");
    for (i, r) in report.smp_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rate\": {}, \"cores\": {}, \"accesses\": {}, \"walks\": {}, \
             \"ipis_sent\": {}, \"faults_injected\": {}, \"thp_fallbacks\": {}, \
             \"oom_kills\": {}}}{}\n",
            r.rate,
            r.cores,
            r.accesses,
            r.walks,
            r.ipis_sent,
            r.kernel.faults_injected,
            r.kernel.thp_fallbacks,
            r.kernel.oom_kills,
            if i + 1 == report.smp_rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    push_failures(&mut out, &report.failures);
    out
}

/// Appends the shared `"failures"` tail (inline `[]` on a clean run —
/// verify.sh greps for exactly that) and closes the object.
fn push_failures(out: &mut String, failures: &[crate::experiments::pressure::FailedCell]) {
    if failures.is_empty() {
        out.push_str("  \"failures\": []\n}\n");
        return;
    }
    out.push_str("  \"failures\": [\n");
    for (i, f) in failures.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"cause\": \"{}\", \"attempts\": {}}}{}\n",
            json_escape(&f.label),
            json_escape(&f.payload),
            f.attempts,
            if i + 1 == failures.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
}

/// Machine-readable policy report (`BENCH_policy.json`): per-policy
/// summaries first (the verify.sh gate greps these), then every cell
/// row, then the failure list. Fully deterministic.
pub fn policy_json(report: &PolicyReport) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"summaries\": [\n");
    for (i, s) in report.summaries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"policy\": \"{}\", \"avg_contiguity\": {}, \"colt_all_elim\": {}, \
             \"decisions\": {}, \"huge_grants\": {}, \"huge_denies\": {}, \
             \"collapses\": {}, \"compactions\": {}}}{}\n",
            json_escape(&s.policy),
            s.avg_contiguity,
            s.colt_all_elim,
            s.decisions,
            s.huge_grants,
            s.huge_denies,
            s.collapses,
            s.compactions,
            if i + 1 == report.summaries.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"rows\": [\n");
    for (i, r) in report.rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"policy\": \"{}\", \"benchmark\": \"{}\", \"config\": \"{}\", \
             \"accesses\": {}, \"l1_misses\": {}, \"walks\": {}, \"walk_cycles\": {}, \
             \"avg_contiguity\": {}, \"policy_decisions\": {}, \
             \"policy_huge_grants\": {}, \"policy_huge_denies\": {}, \
             \"policy_collapses_triggered\": {}, \"policy_compactions_requested\": {}, \
             \"thp_allocs\": {}, \"thp_fallbacks\": {}}}{}\n",
            json_escape(&r.policy),
            json_escape(&r.benchmark),
            json_escape(&r.config),
            r.accesses,
            r.l1_misses,
            r.walks,
            r.walk_cycles,
            r.avg_contiguity,
            r.kernel.policy_decisions,
            r.kernel.policy_huge_grants,
            r.kernel.policy_huge_denies,
            r.kernel.policy_collapses_triggered,
            r.kernel.policy_compactions_requested,
            r.kernel.thp_allocs,
            r.kernel.thp_fallbacks,
            if i + 1 == report.rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    push_failures(&mut out, &report.failures);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::RealVfs;

    #[test]
    fn sweep_json_reports_cache_stats_and_amortizes_prep_over_sim_cells() {
        let metrics = vec![
            CellMetric {
                label: "fig18/colt_all".into(),
                benchmark: "Gobmk".into(),
                scenario: "default".into(),
                refs: 1000,
                prep_seconds: 0.5,
                sim_seconds: 0.25,
            },
            // A contiguity probe: prepares a kernel, simulates nothing.
            // Its sim time must not dilute the amortized throughput.
            CellMetric {
                label: "contiguity/default".into(),
                benchmark: "Gobmk".into(),
                scenario: "default".into(),
                refs: 0,
                prep_seconds: 0.1,
                sim_seconds: 42.0,
            },
        ];
        let cache = crate::snapshot_cache::CacheStats {
            mem_hits: 3,
            disk_hits: 1,
            misses: 2,
            mem_evictions: 1,
            snapshot_seconds: 0.125,
        };
        let json = sweep_json(&metrics, 8, 0.5, &cache);
        validate_json(&json).expect("sweep report is valid JSON");
        assert!(json.contains("\"prep_cache_hits\": 4"), "{json}");
        assert!(json.contains("\"prep_cache_misses\": 2"), "{json}");
        assert!(json.contains("\"prep_cache_evictions\": 1"), "{json}");
        assert!(json.contains("\"snapshot_seconds\": 0.125000"), "{json}");
        assert!(json.contains("\"prep_seconds_total\": 0.600000"), "{json}");
        // 1000 refs / 0.25 sim seconds; the zero-ref cell is excluded.
        assert!(json.contains("\"prep_amortized_refs_per_sec\": 4000.0"), "{json}");
        // (0.5 + 0.25 + 0.1 + 42.0) / 0.5 wall.
        assert!(json.contains("\"speedup_vs_1_thread_estimate\": 85.700"), "{json}");
    }

    #[test]
    fn validator_accepts_real_shapes_and_rejects_corruption() {
        assert!(validate_json("{}").is_ok());
        assert!(validate_json("{\"a\": [1, -2.5e3, \"x\\\"y\"], \"b\": null}\n").is_ok());
        assert!(validate_json("").is_err());
        assert!(validate_json("{\"a\": 1").is_err(), "truncated object");
        assert!(validate_json("{\"a\": 1}garbage").is_err(), "trailing bytes");
        assert!(validate_json("{\"a\": 01x}").is_err(), "bad number");
        assert!(validate_json("{\"a\": \"unterminated}").is_err());
    }

    #[test]
    fn find_quarantined_scans_recursively_and_sorts() {
        let dir = std::env::temp_dir().join(format!(
            "colt-artifact-quarantine-scan-{}",
            std::process::id()
        ));
        let nested = dir.join("journal").join("deep");
        std::fs::create_dir_all(&nested).unwrap();
        std::fs::write(dir.join("b.json.corrupt-2"), "x").unwrap();
        std::fs::write(nested.join("a.jsonl.corrupt-1"), "x").unwrap();
        std::fs::write(dir.join("healthy.json"), "{}").unwrap();
        let found = find_quarantined(&dir);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].ends_with("b.json.corrupt-2"), "sorted: {found:?}");
        assert!(found[1].ends_with("journal/deep/a.jsonl.corrupt-1"), "{found:?}");
        assert!(find_quarantined(&dir.join("missing")).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_write_roundtrips_and_quarantine_moves_corruption_aside() {
        let dir = std::env::temp_dir()
            .join(format!("colt-artifact-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");

        atomic_write_json(&RealVfs, &path, "{\"ok\": true}\n").unwrap();
        assert_eq!(quarantine_if_corrupt(&RealVfs, &path).unwrap(), None);

        std::fs::write(&path, "{\"truncated\": ").unwrap();
        let q = quarantine_if_corrupt(&RealVfs, &path).unwrap().expect("must quarantine");
        assert!(q.display().to_string().contains("corrupt-1"));
        assert!(!path.exists(), "corrupt file moved aside, not clobbered");
        assert!(q.exists());

        // No temp litter after a successful write.
        atomic_write_json(&RealVfs, &path, "{}\n").unwrap();
        let litter: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(litter.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_never_clobber_each_other_or_litter_tmp_files() {
        let dir = std::env::temp_dir()
            .join(format!("colt-artifact-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_race.json");

        // Eight writers × twenty rounds hammering one target, each with
        // a distinct payload. With the old fixed `.tmp-<pid>` name, two
        // same-process writers shared a tmp file and one renamed the
        // other's half-written bytes into place.
        let payloads: Vec<String> =
            (0..8).map(|i| format!("{{\"writer\": {i}, \"padding\": \"{}\"}}\n", "x".repeat(512 * i))).collect();
        std::thread::scope(|s| {
            for payload in &payloads {
                s.spawn(|| {
                    for _ in 0..20 {
                        atomic_write_json(&RealVfs, &path, payload).unwrap();
                    }
                });
            }
        });

        // The survivor is exactly one writer's complete payload.
        let final_text = std::fs::read_to_string(&path).unwrap();
        assert!(
            payloads.iter().any(|p| *p == final_text),
            "final file must be one complete payload, got: {final_text:?}"
        );
        validate_json(&final_text).unwrap();
        // And every tmp file was renamed or cleaned up.
        let litter: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(litter.is_empty(), "tmp litter: {litter:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unique_tmp_names_differ_across_calls() {
        let p = Path::new("results/BENCH_x.json");
        let a = unique_tmp(p);
        let b = unique_tmp(p);
        assert_ne!(a, b, "same path, same process — the counter must differ");
        assert!(a.display().to_string().starts_with("results/BENCH_x.json.tmp-"));
    }

    #[test]
    fn invalid_payload_is_refused_before_touching_the_file() {
        let dir = std::env::temp_dir()
            .join(format!("colt-artifact-refuse-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_refuse.json");
        atomic_write_json(&RealVfs, &path, "{\"good\": 1}").unwrap();
        assert!(atomic_write_json(&RealVfs, &path, "{\"bad\": ").is_err());
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"good\": 1}", "failed write must not damage the old file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite: a simulated power cut mid-write strands a `*.tmp-*`
    /// staging file (the post-cut disk refuses the cleanup `remove`),
    /// and the startup sweep removes it — no permanent litter.
    #[test]
    fn a_cut_mid_write_leaves_no_permanent_litter() {
        let dir = std::env::temp_dir()
            .join(format!("colt-artifact-cutlitter-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        // No random faults — the only event is the disk dying right
        // after the first fsync, i.e. between fsync and rename.
        let plan = FaultConfig { rate: 0.0, window: 0, seed: 1 };
        let faulty = crate::vfs::FaultyVfs::new(plan).cut_after_syncs(1);
        let result = atomic_write_json(&faulty, &dir.join("BENCH_cut.json"), "{\"cell\": 1}");
        let _ = faulty.power_cut();

        assert!(result.is_err(), "the write died at the cut");
        assert!(
            !dir.join("BENCH_cut.json").exists(),
            "no torn destination file may exist"
        );
        let litter = find_tmp_litter(&dir);
        assert!(!litter.is_empty(), "the cut strands the staging tmp file");
        let swept = sweep_tmp_litter(&dir);
        assert_eq!(swept, litter, "the sweep removes exactly the litter");
        assert!(find_tmp_litter(&dir).is_empty(), "no permanent litter remains");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
