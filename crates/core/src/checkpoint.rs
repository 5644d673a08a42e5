//! Durable checkpoint/resume for long window runs (`tempopr.ckpt.v1`).
//!
//! A long postmortem replay can spend hours converging hundreds of windows;
//! without durability a crash at window 900/1000 discards every finished
//! rank vector. This module persists one record per completed window into a
//! single append-only *manifest* file so an interrupted run can be resumed
//! with `--resume` and reproduce the uninterrupted run's fingerprints
//! bit-for-bit (the drivers re-seed warm-start carries from the last
//! checkpointed window). All three drivers run that lifecycle through one
//! [`DurableRun`].
//!
//! On-disk format (`tempopr.ckpt.v1`, all integers little-endian):
//!
//! ```text
//! manifest.ckpt = header | record*
//! header (60 bytes) =
//!     magic "TPCK" | version u16 | driver u8 | flags u8 |
//!     config_hash u64 | log_fingerprint u64 |
//!     t0 i64 | delta i64 | sw i64 | count u64 | crc32(header[0..56]) u32
//! record = payload_len u32 | crc32(payload) u32 | payload
//! payload =
//!     window u64 | status u8 | via u8 | attempts u16 |
//!     iterations u64 | converged u8 | active_vertices u64 |
//!     renormalizations u32 | restarts u32 | fingerprint_bits u64 |
//!     diag_len u32 | diag bytes | nranks u32 | vertex u32 * | rank_bits u64 *
//! ```
//!
//! Durability discipline: the header (and, on resume, the validated record
//! prefix) is written to a temp file, fsynced, and renamed into place;
//! records are appended with `write_all` + `fdatasync` per flush batch
//! (`--checkpoint-every N` buffers N in-order records per fsync). Records
//! are written strictly in window order even when windows complete out of
//! order (SpMM region interleaving, offline parallel windows), so the
//! manifest always holds a *contiguous prefix* of windows `0..k`.
//!
//! Torn-tail rule: a reader accepts the longest prefix of records that
//! frame, checksum, decode, and number contiguously; the first short,
//! corrupt, or out-of-sequence record ends the scan and everything after it
//! is discarded (`checkpoint.corrupt_discarded`). Header problems are never
//! silently repaired: a bad magic or checksum is [`CheckpointError::Corrupt`],
//! a version or compatibility-hash mismatch is
//! [`CheckpointError::Incompatible`] — a resume either provably matches the
//! original run's config and event log or refuses to start.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::result::{RecoveryKind, RunOutput, SparseRanks, WindowOutput, WindowStatus};
use crate::{lock, RetainMode};
use tempopr_graph::{EventLog, WindowSpec};
use tempopr_kernel::{PrHealth, PrStats};
use tempopr_telemetry::{Phase as RunPhase, Telemetry};

/// File name of the checkpoint manifest inside `--checkpoint-dir`.
pub const MANIFEST_NAME: &str = "manifest.ckpt";
/// Temp-file name used for atomic header/prefix rewrites.
const MANIFEST_TMP: &str = "manifest.tmp";
/// `tempopr.ckpt.v1` magic.
const MAGIC: [u8; 4] = *b"TPCK";
/// Format version this build reads and writes.
const VERSION: u16 = 1;
/// Encoded header length in bytes.
const HEADER_LEN: usize = 60;
/// Fixed (rank- and diagnostic-free) payload length; shorter frames are torn.
const PAYLOAD_MIN: usize = 8 + 1 + 1 + 2 + 8 + 1 + 8 + 4 + 4 + 8 + 4 + 4;
/// Cap in bytes on the persisted diagnostic string of a failed window
/// (cut on a character boundary at or below it).
const DIAG_CAP: usize = 4096;

/// Driver id stored in the manifest header: postmortem engine.
pub const DRIVER_POSTMORTEM: u8 = 1;
/// Driver id stored in the manifest header: offline rebuild-per-window.
pub const DRIVER_OFFLINE: u8 = 2;
/// Driver id stored in the manifest header: streaming sliding-window.
pub const DRIVER_STREAMING: u8 = 3;

/// CRC32 (IEEE 802.3 polynomial): the one the TCSR storage format uses,
/// so `tempopr.ckpt.v1` and `tempopr.tcsr.v1` files share a checksum.
pub use tempopr_graph::storage::crc32;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a checkpoint could not be written or resumed from.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure creating, writing, or reading the manifest.
    Io(std::io::Error),
    /// The manifest header is unusable (bad magic, failed checksum,
    /// truncated) — nothing can be trusted, including the record region.
    Corrupt(String),
    /// The manifest is well-formed but belongs to a different run: format
    /// version, driver, config hash, event-log fingerprint, or window spec
    /// disagree with the resuming run.
    Incompatible(String),
    /// Resume is not supported under the requested execution mode.
    Unsupported(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io: {e}"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint manifest: {m}"),
            CheckpointError::Incompatible(m) => write!(f, "incompatible checkpoint: {m}"),
            CheckpointError::Unsupported(m) => write!(f, "resume unsupported: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<String> for CheckpointError {
    fn from(short_read: String) -> Self {
        CheckpointError::Corrupt(short_read)
    }
}

// ---------------------------------------------------------------------------
// Options and header
// ---------------------------------------------------------------------------

/// Durability options for a run, kept *outside* the driver configs so the
/// compatibility hash of the computation is unaffected by where (or
/// whether) checkpoints are written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointOptions {
    /// Directory to write the manifest into (`None` = no checkpointing).
    pub dir: Option<PathBuf>,
    /// Flush/fsync batch size in windows: `N` buffers up to `N` in-order
    /// records per fsync (a crash loses at most the buffered tail, which
    /// is recomputed on resume). `0` behaves as `1`.
    pub every: usize,
    /// Directory holding a manifest to resume from (`None` = fresh run).
    pub resume: Option<PathBuf>,
}

impl Default for CheckpointOptions {
    fn default() -> Self {
        CheckpointOptions {
            dir: None,
            every: 1,
            resume: None,
        }
    }
}

impl CheckpointOptions {
    /// True when the run neither writes nor resumes — drivers skip all
    /// checkpoint plumbing.
    pub fn is_noop(&self) -> bool {
        self.dir.is_none() && self.resume.is_none()
    }
}

/// The identity block of a manifest: which driver produced it, under what
/// configuration, over which event log and window sequence. A resume
/// refuses to reuse records unless every field matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManifestHeader {
    /// Producing driver ([`DRIVER_POSTMORTEM`] / [`DRIVER_OFFLINE`] /
    /// [`DRIVER_STREAMING`]).
    pub driver: u8,
    /// [`hash_config`] of the driver config's `Debug` rendering (crash
    /// injection zeroed out — see [`crate::config::FaultPlan`]).
    pub config_hash: u64,
    /// [`log_fingerprint`] of the event log.
    pub log_fingerprint: u64,
    /// Window spec `t0`.
    pub t0: i64,
    /// Window spec `delta`.
    pub delta: i64,
    /// Window spec `sw`.
    pub sw: i64,
    /// Window spec `count`.
    pub count: u64,
}

impl ManifestHeader {
    /// Builds the header for a run.
    pub fn new(driver: u8, config_hash: u64, log_fingerprint: u64, spec: &WindowSpec) -> Self {
        ManifestHeader {
            driver,
            config_hash,
            log_fingerprint,
            t0: spec.t0,
            delta: spec.delta,
            sw: spec.sw,
            count: spec.count as u64,
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(HEADER_LEN);
        b.extend_from_slice(&MAGIC);
        b.extend_from_slice(&VERSION.to_le_bytes());
        b.push(self.driver);
        b.push(0); // flags, reserved
        b.extend_from_slice(&self.config_hash.to_le_bytes());
        b.extend_from_slice(&self.log_fingerprint.to_le_bytes());
        b.extend_from_slice(&self.t0.to_le_bytes());
        b.extend_from_slice(&self.delta.to_le_bytes());
        b.extend_from_slice(&self.sw.to_le_bytes());
        b.extend_from_slice(&self.count.to_le_bytes());
        let crc = crc32(&b);
        b.extend_from_slice(&crc.to_le_bytes());
        b
    }

    /// Parses and validates a header against the resuming run's expected
    /// identity. Field order of checks: structural corruption first
    /// (magic, truncation), then version, then checksum, then identity.
    fn decode_expecting(bytes: &[u8], expect: &ManifestHeader) -> Result<(), CheckpointError> {
        if bytes.len() < HEADER_LEN {
            return Err(CheckpointError::Corrupt(format!(
                "header truncated: {} of {HEADER_LEN} bytes",
                bytes.len()
            )));
        }
        let mut c = Cursor::new(&bytes[..HEADER_LEN]);
        if c.bytes(4)? != MAGIC {
            return Err(CheckpointError::Corrupt(
                "bad magic (not a tempopr.ckpt file)".into(),
            ));
        }
        let version = c.u16()?;
        if version != VERSION {
            return Err(CheckpointError::Incompatible(format!(
                "checkpoint format version {version} (this build reads v{VERSION})"
            )));
        }
        let stored_crc = u32::from_le_bytes([bytes[56], bytes[57], bytes[58], bytes[59]]);
        if crc32(&bytes[..56]) != stored_crc {
            return Err(CheckpointError::Corrupt("header checksum mismatch".into()));
        }
        let driver = c.u8()?;
        let _flags = c.u8()?;
        let config_hash = c.u64()?;
        let log_fingerprint = c.u64()?;
        let t0 = c.i64()?;
        let delta = c.i64()?;
        let sw = c.i64()?;
        let count = c.u64()?;
        let mismatch = |what: &str| {
            Err(CheckpointError::Incompatible(format!(
                "{what} differs from the checkpointed run"
            )))
        };
        if driver != expect.driver {
            return mismatch("driver");
        }
        if config_hash != expect.config_hash {
            return mismatch("config hash");
        }
        if log_fingerprint != expect.log_fingerprint {
            return mismatch("event-log fingerprint");
        }
        if (t0, delta, sw, count) != (expect.t0, expect.delta, expect.sw, expect.count) {
            return mismatch("window spec");
        }
        Ok(())
    }
}

/// FNV-1a hash of a config's `Debug` rendering — the compatibility hash
/// stored in the manifest header. `Debug` covers every field of the derive
/// chain, so any semantic config change (tolerance, kernel, init mode,
/// fault plan, ...) changes the hash and blocks an incompatible resume.
pub fn hash_config(debug_rendering: &str) -> u64 {
    fnv1a(FNV_OFFSET, debug_rendering.as_bytes())
}

/// FNV-1a fingerprint of an event log: the vertex-universe size (8 bytes)
/// plus every `(u, v, t)` in order (4 + 4 + 8 bytes), little-endian. O(|E|),
/// computed by every [`PostmortemEngine::new`](crate::engine::PostmortemEngine::new)
/// and by the offline and streaming drivers when they write or resume a
/// manifest. It is evaluated a field at a time (`fnv1a_word`), and its
/// value is the byte-serial FNV-1a's over the same bytes.
pub fn log_fingerprint(log: &EventLog) -> u64 {
    let mut h = fnv1a_word(FNV_OFFSET, log.num_vertices() as u64, 8);
    for e in log.events() {
        h = fnv1a_word(h, u64::from(e.u), 4);
        h = fnv1a_word(h, u64::from(e.v), 4);
        h = fnv1a_word(h, e.t as u64, 8);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^k` (mod 2^64) for `k` in `0..=8`.
const FNV_PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// [`fnv1a`] over the `width` little-endian bytes of `x` (whose bytes from
/// `width` on are zero): the bytes up to its highest non-zero one are
/// hashed one at a time, and the zero bytes above it fold into one multiply,
/// since FNV-1a's step on a zero byte is `(h ^ 0)·P = h·P`.
#[inline(always)]
fn fnv1a_word(mut h: u64, mut x: u64, width: usize) -> u64 {
    let significant = (64 - x.leading_zeros() as usize).div_ceil(8);
    for _ in 0..significant {
        h = (h ^ (x & 0xff)).wrapping_mul(FNV_PRIME);
        x >>= 8;
    }
    h.wrapping_mul(FNV_PRIME_POW[width - significant])
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One durable window result. Unlike [`WindowOutput`], the rank vector is
/// *always* present (resume re-seeding needs it even under
/// [`RetainMode::Summary`]); it is sparse over strictly-positive entries,
/// which reconstructs the dense vector exactly because ranks are
/// non-negative.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointRecord {
    /// Global window id.
    pub window: usize,
    /// Terminal status of the window.
    pub status: WindowStatus,
    /// Kernel attempts consumed (recovery ladder).
    pub attempts: u16,
    /// Convergence statistics of the accepted attempt.
    pub stats: PrStats,
    /// Order-independent digest of the final ranks.
    pub fingerprint: f64,
    /// Final ranks, sparse over the part-local (or dense) vertex space.
    pub ranks: SparseRanks,
}

impl CheckpointRecord {
    /// Rebuilds the [`WindowOutput`] this record was taken from, honoring
    /// the run's retention mode (so restored and computed outputs have the
    /// same shape).
    pub fn to_output(&self, retain: RetainMode) -> WindowOutput {
        WindowOutput {
            window: self.window,
            stats: self.stats,
            fingerprint: self.fingerprint,
            ranks: match retain {
                RetainMode::Full => Some(self.ranks.clone()),
                RetainMode::Summary => None,
            },
            status: self.status.clone(),
            attempts: self.attempts,
        }
    }

    fn encode(&self) -> Vec<u8> {
        let (status, via, diag) = match &self.status {
            WindowStatus::Ok => (0u8, 0u8, ""),
            WindowStatus::Recovered { via } => (
                1,
                match via {
                    RecoveryKind::GuardIntervention => 1,
                    RecoveryKind::FullInitRetry => 2,
                    RecoveryKind::DenseOracle => 3,
                },
                "",
            ),
            WindowStatus::Failed { diagnostic } => (2, 0, diagnostic.as_str()),
        };
        // Cut on a character boundary: the stored prefix stays valid UTF-8.
        let diag = &diag.as_bytes()[..diag.floor_char_boundary(DIAG_CAP)];
        let n = self.ranks.vertices.len();
        let mut b = Vec::with_capacity(PAYLOAD_MIN + diag.len() + n * 12);
        b.extend_from_slice(&(self.window as u64).to_le_bytes());
        b.push(status);
        b.push(via);
        b.extend_from_slice(&self.attempts.to_le_bytes());
        b.extend_from_slice(&(self.stats.iterations as u64).to_le_bytes());
        b.push(self.stats.converged as u8);
        b.extend_from_slice(&(self.stats.active_vertices as u64).to_le_bytes());
        b.extend_from_slice(&self.stats.health.renormalizations.to_le_bytes());
        b.extend_from_slice(&self.stats.health.restarts.to_le_bytes());
        b.extend_from_slice(&self.fingerprint.to_bits().to_le_bytes());
        b.extend_from_slice(&(diag.len() as u32).to_le_bytes());
        b.extend_from_slice(diag);
        b.extend_from_slice(&(n as u32).to_le_bytes());
        for v in &self.ranks.vertices {
            b.extend_from_slice(&v.to_le_bytes());
        }
        for x in &self.ranks.values {
            b.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        b
    }

    /// Length-and-CRC framed encoding, ready to append to a manifest.
    fn frame(&self) -> Vec<u8> {
        let payload = self.encode();
        let mut f = Vec::with_capacity(8 + payload.len());
        f.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        f.extend_from_slice(&crc32(&payload).to_le_bytes());
        f.extend_from_slice(&payload);
        f
    }

    fn decode(payload: &[u8]) -> Result<CheckpointRecord, String> {
        let mut c = Cursor::new(payload);
        let window = c.u64()? as usize;
        let status_code = c.u8()?;
        let via = c.u8()?;
        let attempts = c.u16()?;
        let iterations = c.u64()? as usize;
        let converged = c.u8()? != 0;
        let active_vertices = c.u64()? as usize;
        let renormalizations = c.u32()?;
        let restarts = c.u32()?;
        let fingerprint = f64::from_bits(c.u64()?);
        let diag_len = c.u32()? as usize;
        let diag = c.bytes(diag_len)?;
        let diagnostic = String::from_utf8_lossy(diag).into_owned();
        let n = c.u32()? as usize;
        // Bound the preallocation by what the payload can actually hold.
        if c.remaining() < n.saturating_mul(12) {
            return Err(format!(
                "rank section declares {n} entries but only {} bytes remain",
                c.remaining()
            ));
        }
        let mut vertices = Vec::with_capacity(n);
        for _ in 0..n {
            vertices.push(c.u32()?);
        }
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(f64::from_bits(c.u64()?));
        }
        if c.remaining() != 0 {
            return Err(format!("{} trailing payload bytes", c.remaining()));
        }
        let status = match (status_code, via) {
            (0, _) => WindowStatus::Ok,
            (1, 1) => WindowStatus::Recovered {
                via: RecoveryKind::GuardIntervention,
            },
            (1, 2) => WindowStatus::Recovered {
                via: RecoveryKind::FullInitRetry,
            },
            (1, 3) => WindowStatus::Recovered {
                via: RecoveryKind::DenseOracle,
            },
            (2, _) => WindowStatus::Failed { diagnostic },
            (s, v) => return Err(format!("unknown status/via {s}/{v}")),
        };
        Ok(CheckpointRecord {
            window,
            status,
            attempts,
            stats: PrStats {
                iterations,
                converged,
                active_vertices,
                health: PrHealth {
                    renormalizations,
                    restarts,
                },
            },
            fingerprint,
            ranks: SparseRanks { vertices, values },
        })
    }
}

/// Little-endian pull parser over a byte slice; every read is
/// bounds-checked and surfaces a torn record as an error string.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, at: 0 }
    }
    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!("short read: wanted {n}, had {}", self.remaining()));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.bytes(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, String> {
        let b = self.bytes(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }
    fn u32(&mut self) -> Result<u32, String> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64, String> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
    fn i64(&mut self) -> Result<i64, String> {
        Ok(self.u64()? as i64)
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Durable, ordered writer for one run's checkpoint manifest.
///
/// Windows may finish in any order (SpMM regions, offline parallel
/// windows); the sink buffers out-of-order records and appends strictly in
/// window order so the on-disk manifest is always a contiguous prefix.
/// Write failures disable the sink (counted in `checkpoint.write_errors`)
/// rather than failing the run — durability degrades, the computation does
/// not.
pub struct CheckpointSink {
    tele: Telemetry,
    every: usize,
    crash_after: Option<usize>,
    state: Mutex<SinkState>,
}

struct SinkState {
    /// Append handle; `None` after a write error (sink disabled).
    file: Option<File>,
    /// Completed records waiting for their predecessors.
    pending: BTreeMap<usize, Vec<u8>>,
    /// Next window id to append.
    next: usize,
    /// In-order frames accumulated since the last fsync.
    buf: Vec<u8>,
    /// Records inside `buf`.
    buffered: usize,
    /// The crash-injection window has been drained into `buf`.
    crash_armed: bool,
}

impl CheckpointSink {
    /// Creates (or atomically rewrites) the manifest in `dir` with `header`
    /// and the already-validated `prefix` records, then opens it for
    /// appending from window `prefix.len()`.
    ///
    /// `crash_after` is deterministic fault injection: after the record for
    /// that window becomes durable, the process aborts
    /// ([`crate::config::FaultPlan::crash_after_checkpoint`]).
    pub fn create(
        dir: &Path,
        header: &ManifestHeader,
        prefix: &[CheckpointRecord],
        every: usize,
        crash_after: Option<usize>,
        tele: Telemetry,
    ) -> Result<CheckpointSink, CheckpointError> {
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join(MANIFEST_TMP);
        let path = dir.join(MANIFEST_NAME);
        let mut bytes = header.encode();
        for rec in prefix {
            bytes.extend_from_slice(&rec.frame());
        }
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &path)?;
        // Make the rename itself durable where the platform allows it.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok(CheckpointSink {
            tele,
            every: every.max(1),
            crash_after,
            state: Mutex::new(SinkState {
                file: Some(file),
                pending: BTreeMap::new(),
                next: prefix.len(),
                buf: Vec::new(),
                buffered: 0,
                crash_armed: false,
            }),
        })
    }

    /// Offers a completed window. Records arriving out of order are held
    /// until their predecessors arrive; in-order records are appended (and
    /// fsynced every `every` records, or immediately when the
    /// crash-injection window becomes drainable).
    pub fn offer(&self, rec: &CheckpointRecord) {
        let mut st = lock(&self.state);
        if st.file.is_none() {
            return;
        }
        st.pending.insert(rec.window, rec.frame());
        while let Some(frame) = {
            let key = st.next;
            st.pending.remove(&key)
        } {
            st.buf.extend_from_slice(&frame);
            st.buffered += 1;
            if self.crash_after == Some(st.next) {
                st.crash_armed = true;
            }
            st.next += 1;
        }
        if st.buffered >= self.every || st.crash_armed {
            self.flush_locked(&mut st);
        }
        if st.crash_armed && st.file.is_some() {
            // The injected crash point: the record for window k is durable,
            // nothing after it is. abort() skips destructors and exit
            // handlers — the closest safe stand-in for a kill -9.
            std::process::abort();
        }
    }

    /// Flushes any buffered tail (end of run, possibly mid-batch).
    pub fn finish(&self) {
        let mut st = lock(&self.state);
        if st.buffered > 0 {
            self.flush_locked(&mut st);
        }
    }

    fn flush_locked(&self, st: &mut SinkState) {
        let Some(file) = st.file.as_mut() else {
            return;
        };
        let _t = self.tele.phase(RunPhase::CheckpointWrite);
        let res = file.write_all(&st.buf).and_then(|()| file.sync_data());
        match res {
            Ok(()) => {
                self.tele.add("checkpoint.writes", st.buffered as u64);
                self.tele.add("checkpoint.bytes", st.buf.len() as u64);
            }
            Err(_) => {
                self.tele.add("checkpoint.write_errors", 1);
                st.file = None;
            }
        }
        st.buf.clear();
        st.buffered = 0;
    }
}

// ---------------------------------------------------------------------------
// The run lifecycle
// ---------------------------------------------------------------------------

/// One run's manifest lifecycle, shared by the postmortem, offline and
/// streaming drivers: [`DurableRun::open`] resumes the manifest's valid
/// prefix and opens the sink, the driver walks windows
/// [`DurableRun::start`]`..count` (seeding from [`DurableRun::seed`] and
/// persisting through [`DurableRun::sink`]), and [`DurableRun::finish`]
/// flushes the sink and merges the restored prefix into the run output.
pub struct DurableRun {
    tele: Telemetry,
    count: usize,
    prefix: Vec<CheckpointRecord>,
    sink: Option<Arc<CheckpointSink>>,
}

impl DurableRun {
    /// A run that neither writes nor resumes a manifest and records no
    /// checkpoint counter: only [`DurableRun::finish`]'s epilogue applies.
    pub(crate) fn transient(count: usize, tele: &Telemetry) -> DurableRun {
        DurableRun {
            tele: tele.clone(),
            count,
            prefix: Vec::new(),
            sink: None,
        }
    }

    /// Opens the lifecycle of a run of `driver` over `spec`. The manifest
    /// identity — `identity()` returns the config hash and the event-log
    /// fingerprint — is computed only when `opts` writes or resumes a
    /// manifest. A resume keeps the longest valid prefix, at most
    /// `spec.count` records; when that prefix is non-empty, `clip` maps its
    /// length to the length the driver can resume from (or refuses the
    /// resume), before the sink rewrites the kept prefix into `opts.dir`.
    pub fn open(
        opts: &CheckpointOptions,
        driver: u8,
        spec: &WindowSpec,
        identity: impl FnOnce() -> (u64, u64),
        clip: impl FnOnce(usize) -> Result<usize, CheckpointError>,
        crash_after: Option<usize>,
        tele: &Telemetry,
    ) -> Result<DurableRun, CheckpointError> {
        let mut run = DurableRun::transient(spec.count, tele);
        let header = (!opts.is_noop()).then(|| {
            let (config_hash, log_fingerprint) = identity();
            ManifestHeader::new(driver, config_hash, log_fingerprint, spec)
        });
        if let (Some(from), Some(header)) = (&opts.resume, &header) {
            let scan = {
                let _t = tele.phase(RunPhase::ResumeScan);
                resume_scan(from, header)?
            };
            tele.add("checkpoint.corrupt_discarded", scan.corrupt_discarded);
            run.prefix = scan.records;
            run.prefix.truncate(spec.count);
            if !run.prefix.is_empty() {
                let keep = clip(run.prefix.len())?;
                run.prefix.truncate(keep);
            }
        }
        tele.add("checkpoint.resume_skipped", run.start() as u64);
        if let (Some(dir), Some(header)) = (&opts.dir, &header) {
            let sink = CheckpointSink::create(
                dir,
                header,
                &run.prefix,
                opts.every,
                crash_after,
                tele.clone(),
            )?;
            run.sink = Some(Arc::new(sink));
        }
        Ok(run)
    }

    /// The first window the driver computes: every earlier one is restored.
    pub fn start(&self) -> usize {
        self.prefix.len()
    }

    /// The window before [`DurableRun::start`] and its ranks, when the run
    /// resumes mid-sequence after a valid window: the seed an
    /// uninterrupted in-order walk would carry into `start`.
    pub fn seed(&self) -> Option<(usize, &SparseRanks)> {
        let last = self.prefix.last()?;
        (self.start() < self.count && last.status.is_valid()).then_some((last.window, &last.ranks))
    }

    /// The sink every finalized window is persisted through, when the run
    /// writes a manifest.
    pub fn sink(&self) -> Option<&Arc<CheckpointSink>> {
        self.sink.as_ref()
    }

    /// Flushes the sink's buffered tail, then completes the driver's
    /// `windows` (`start..count`) with the restored prefix under `retain`,
    /// in window order, and records the run's status.
    pub fn finish(self, mut windows: Vec<WindowOutput>, retain: RetainMode) -> RunOutput {
        if let Some(sink) = &self.sink {
            sink.finish();
        }
        windows.extend(self.prefix.iter().map(|r| r.to_output(retain)));
        windows.sort_by_key(|w| w.window);
        let mut out = RunOutput {
            windows,
            degraded: false, // set by finalize_status
        };
        out.finalize_status();
        out.assert_complete(self.count);
        self.tele.add("windows.total", out.windows.len() as u64);
        self.tele
            .set_gauge("run.degraded", f64::from(u8::from(out.degraded)));
        out
    }
}

// ---------------------------------------------------------------------------
// Reading / resume
// ---------------------------------------------------------------------------

/// What a resume scan recovered from a manifest.
#[derive(Debug, Clone, Default)]
pub struct ResumeState {
    /// The longest valid prefix of window records (`records[i].window == i`).
    pub records: Vec<CheckpointRecord>,
    /// 1 when a torn/corrupt tail was discarded after the valid prefix.
    pub corrupt_discarded: u64,
}

/// Reads the manifest in `dir` (a checkpoint directory or a direct path to
/// a manifest file), verifies its header against `expect`, and returns the
/// longest valid record prefix. Corruption inside the record region is
/// tolerated (torn-tail rule); corruption of the header is not.
pub fn resume_scan(dir: &Path, expect: &ManifestHeader) -> Result<ResumeState, CheckpointError> {
    let bytes = std::fs::read(manifest_path(dir))?;
    ManifestHeader::decode_expecting(&bytes, expect)?;
    let mut state = ResumeState::default();
    let mut at = HEADER_LEN;
    loop {
        let rest = &bytes[at..];
        if rest.is_empty() {
            return Ok(state);
        }
        if rest.len() < 8 {
            break; // torn frame header
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if len < PAYLOAD_MIN || rest.len() - 8 < len {
            break; // implausible or truncated payload
        }
        let payload = &rest[8..8 + len];
        if crc32(payload) != crc {
            break; // bit corruption
        }
        let Ok(rec) = CheckpointRecord::decode(payload) else {
            break; // framed and checksummed but undecodable
        };
        if rec.window != state.records.len() {
            break; // non-contiguous: later records are unusable too
        }
        state.records.push(rec);
        at += 8 + len;
    }
    state.corrupt_discarded = 1;
    Ok(state)
}

/// The manifest in checkpoint directory `dir`, or `dir` itself when it
/// names the manifest file.
fn manifest_path(dir: &Path) -> PathBuf {
    if dir.is_dir() {
        dir.join(MANIFEST_NAME)
    } else {
        dir.to_path_buf()
    }
}

// ---------------------------------------------------------------------------
// Corruption injection (tests / CI)
// ---------------------------------------------------------------------------

/// Deterministic manifest corruptions for fault-injection tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionKind {
    /// Flip the lowest bit of the byte at `offset`.
    BitFlip {
        /// Byte offset from the start of the manifest.
        offset: usize,
    },
    /// Truncate the manifest to `len` bytes (torn tail).
    Truncate {
        /// Resulting file length.
        len: usize,
    },
    /// Rewrite the header's version field to an unsupported value (the
    /// header CRC is recomputed, so only the version check can object).
    StaleVersion,
}

/// Applies `kind` to the manifest in `dir`, simulating external damage
/// (no temp-file discipline — that is the point).
pub fn corrupt_manifest(dir: &Path, kind: CorruptionKind) -> Result<(), CheckpointError> {
    let path = manifest_path(dir);
    let mut bytes = std::fs::read(&path)?;
    match kind {
        CorruptionKind::BitFlip { offset } => {
            if offset >= bytes.len() {
                return Err(CheckpointError::Corrupt(format!(
                    "bit-flip offset {offset} beyond manifest ({} bytes)",
                    bytes.len()
                )));
            }
            bytes[offset] ^= 1;
        }
        CorruptionKind::Truncate { len } => bytes.truncate(len),
        CorruptionKind::StaleVersion => {
            if bytes.len() < HEADER_LEN {
                return Err(CheckpointError::Corrupt("manifest too short".into()));
            }
            bytes[4..6].copy_from_slice(&(VERSION + 1).to_le_bytes());
            let crc = crc32(&bytes[..56]);
            bytes[56..60].copy_from_slice(&crc.to_le_bytes());
        }
    }
    std::fs::write(&path, &bytes)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(window: usize, status: WindowStatus) -> CheckpointRecord {
        CheckpointRecord {
            window,
            status,
            attempts: 1,
            stats: PrStats {
                iterations: 12 + window,
                converged: true,
                active_vertices: 7,
                health: PrHealth::default(),
            },
            fingerprint: 0.5 + window as f64,
            ranks: SparseRanks {
                vertices: vec![1, 5, 9],
                values: vec![0.25, 0.5, 0.125 + window as f64],
            },
        }
    }

    fn header() -> ManifestHeader {
        ManifestHeader {
            driver: DRIVER_POSTMORTEM,
            config_hash: 0xDEAD_BEEF,
            log_fingerprint: 0xFEED_FACE,
            t0: 0,
            delta: 100,
            sw: 50,
            count: 4,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tempopr_ckpt_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn write_all(dir: &Path, h: &ManifestHeader, records: &[CheckpointRecord], every: usize) {
        let sink = CheckpointSink::create(dir, h, &[], every, None, Telemetry::noop()).unwrap();
        for r in records {
            sink.offer(r);
        }
        sink.finish();
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn record_roundtrip_all_statuses() {
        for status in [
            WindowStatus::Ok,
            WindowStatus::Recovered {
                via: RecoveryKind::DenseOracle,
            },
            WindowStatus::Failed {
                diagnostic: "kernel panicked: boom".into(),
            },
        ] {
            let r = rec(3, status);
            let back = CheckpointRecord::decode(&r.encode()).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn long_diagnostic_is_cut_to_a_valid_prefix() {
        // 1 500 three-byte characters: byte 4096 falls inside one.
        let long = "\u{20ac}".repeat(1500);
        let r = rec(
            2,
            WindowStatus::Failed {
                diagnostic: long.clone(),
            },
        );
        let back = CheckpointRecord::decode(&r.encode()).unwrap();
        let WindowStatus::Failed { diagnostic } = back.status else {
            panic!("status lost: {:?}", back.status);
        };
        assert_eq!(diagnostic.len(), 4095);
        assert!(long.starts_with(&diagnostic));
    }

    #[test]
    fn sink_orders_out_of_order_offers() {
        let dir = tmpdir("order");
        let h = header();
        let sink = CheckpointSink::create(&dir, &h, &[], 1, None, Telemetry::noop()).unwrap();
        for w in [2usize, 0, 3, 1] {
            sink.offer(&rec(w, WindowStatus::Ok));
        }
        sink.finish();
        let state = resume_scan(&dir, &h).unwrap();
        assert_eq!(state.records.len(), 4);
        for (i, r) in state.records.iter().enumerate() {
            assert_eq!(r.window, i);
        }
        assert_eq!(state.corrupt_discarded, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batched_flush_keeps_contiguity() {
        let dir = tmpdir("batch");
        let h = header();
        write_all(
            &dir,
            &h,
            &(0..4).map(|w| rec(w, WindowStatus::Ok)).collect::<Vec<_>>(),
            8,
        );
        let state = resume_scan(&dir, &h).unwrap();
        assert_eq!(state.records.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_keeps_longest_valid_prefix() {
        let dir = tmpdir("torn");
        let h = header();
        write_all(
            &dir,
            &h,
            &(0..4).map(|w| rec(w, WindowStatus::Ok)).collect::<Vec<_>>(),
            1,
        );
        let full = std::fs::metadata(dir.join(MANIFEST_NAME)).unwrap().len() as usize;
        corrupt_manifest(&dir, CorruptionKind::Truncate { len: full - 5 }).unwrap();
        let state = resume_scan(&dir, &h).unwrap();
        assert_eq!(state.records.len(), 3);
        assert_eq!(state.corrupt_discarded, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_in_record_region_discards_from_there() {
        let dir = tmpdir("flip");
        let h = header();
        write_all(
            &dir,
            &h,
            &(0..4).map(|w| rec(w, WindowStatus::Ok)).collect::<Vec<_>>(),
            1,
        );
        let full = std::fs::metadata(dir.join(MANIFEST_NAME)).unwrap().len() as usize;
        // Somewhere inside the last record's payload.
        corrupt_manifest(&dir, CorruptionKind::BitFlip { offset: full - 3 }).unwrap();
        let state = resume_scan(&dir, &h).unwrap();
        assert_eq!(state.records.len(), 3);
        assert_eq!(state.corrupt_discarded, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_bit_flip_is_hard_corrupt() {
        let dir = tmpdir("hdr");
        let h = header();
        write_all(&dir, &h, &[rec(0, WindowStatus::Ok)], 1);
        corrupt_manifest(&dir, CorruptionKind::BitFlip { offset: 10 }).unwrap();
        assert!(matches!(
            resume_scan(&dir, &h),
            Err(CheckpointError::Corrupt(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_version_is_incompatible() {
        let dir = tmpdir("ver");
        let h = header();
        write_all(&dir, &h, &[rec(0, WindowStatus::Ok)], 1);
        corrupt_manifest(&dir, CorruptionKind::StaleVersion).unwrap();
        assert!(matches!(
            resume_scan(&dir, &h),
            Err(CheckpointError::Incompatible(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn identity_mismatch_is_incompatible() {
        let dir = tmpdir("ident");
        let h = header();
        write_all(&dir, &h, &[rec(0, WindowStatus::Ok)], 1);
        let mut other = h;
        other.config_hash ^= 1;
        assert!(matches!(
            resume_scan(&dir, &other),
            Err(CheckpointError::Incompatible(_))
        ));
        let mut other = h;
        other.log_fingerprint ^= 1;
        assert!(matches!(
            resume_scan(&dir, &other),
            Err(CheckpointError::Incompatible(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_rewrites_prefix_atomically() {
        let dir = tmpdir("rewrite");
        let h = header();
        write_all(
            &dir,
            &h,
            &(0..4).map(|w| rec(w, WindowStatus::Ok)).collect::<Vec<_>>(),
            1,
        );
        // Reopen keeping only 2 records, then append a fresh window 2.
        let prefix: Vec<CheckpointRecord> = (0..2).map(|w| rec(w, WindowStatus::Ok)).collect();
        let sink = CheckpointSink::create(&dir, &h, &prefix, 1, None, Telemetry::noop()).unwrap();
        sink.offer(&rec(
            2,
            WindowStatus::Recovered {
                via: RecoveryKind::FullInitRetry,
            },
        ));
        sink.finish();
        let state = resume_scan(&dir, &h).unwrap();
        assert_eq!(state.records.len(), 3);
        assert!(matches!(
            state.records[2].status,
            WindowStatus::Recovered { .. }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The byte-serial FNV-1a over the log's little-endian bytes: what
    /// [`log_fingerprint`]'s value is defined as.
    fn log_fingerprint_bytewise(log: &EventLog) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, &(log.num_vertices() as u64).to_le_bytes());
        for e in log.events() {
            h = fnv1a(h, &e.u.to_le_bytes());
            h = fnv1a(h, &e.v.to_le_bytes());
            h = fnv1a(h, &e.t.to_le_bytes());
        }
        h
    }

    /// Bytes up to the highest non-zero one.
    fn significant_bytes(x: u64) -> u32 {
        (64 - x.leading_zeros()).div_ceil(8)
    }

    /// The distinct significant-byte counts of `xs`, ascending.
    fn byte_counts(xs: impl Iterator<Item = u64>) -> Vec<u32> {
        let mut counts: Vec<u32> = xs.map(significant_bytes).collect();
        counts.sort_unstable();
        counts.dedup();
        counts
    }

    #[test]
    fn log_fingerprint_equals_the_bytewise_fnv1a() {
        use tempopr_graph::Event;
        // Every significant-byte count a field can take: 0..=4 for ids,
        // 0..=8 for times, and both signs of the time axis.
        let ids = [
            0,
            1,
            255,
            256,
            65_535,
            65_536,
            (1 << 24) - 1,
            1 << 24,
            u32::MAX,
        ];
        let times = [
            0,
            1,
            -1,
            255,
            256,
            1 << 16,
            1 << 24,
            1 << 31,
            1 << 32,
            1 << 40,
            1 << 48,
            1 << 56,
            -(1 << 31),
            -(1 << 40),
            i64::MIN,
            i64::MAX,
        ];
        assert_eq!(
            byte_counts(ids.iter().map(|&u| u64::from(u))),
            [0, 1, 2, 3, 4]
        );
        assert_eq!(
            byte_counts(times.iter().map(|&t| t as u64)),
            [0, 1, 2, 3, 4, 5, 6, 7, 8]
        );
        let mut events = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            for (j, &u) in ids.iter().enumerate() {
                events.push(Event::new(u, ids[(i + j) % ids.len()], t));
            }
        }
        // A universe of 2^32 takes 5 bytes; one of 200 takes 1.
        let wide = EventLog::from_unsorted(events, u32::MAX as usize + 1).unwrap();
        let narrow = EventLog::from_unsorted(
            times
                .iter()
                .map(|&t| Event::new(199, (t as u64 % 200) as u32, t))
                .collect(),
            200,
        )
        .unwrap();
        assert_eq!(significant_bytes(wide.num_vertices() as u64), 5);
        assert_eq!(significant_bytes(narrow.num_vertices() as u64), 1);
        for log in [&wide, &narrow] {
            assert_eq!(log_fingerprint(log), log_fingerprint_bytewise(log));
        }
        assert_ne!(log_fingerprint(&wide), log_fingerprint(&narrow));
    }

    #[test]
    fn hashes_are_stable_and_sensitive() {
        assert_eq!(hash_config("abc"), hash_config("abc"));
        assert_ne!(hash_config("abc"), hash_config("abd"));
    }
}
