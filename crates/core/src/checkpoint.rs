//! Durable checkpoint/resume for long window runs (`tempopr.ckpt.v2`).
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
//! On-disk format (`tempopr.ckpt.v2`, all integers little-endian; the
//! sealed header, the record frame and their reader are
//! [`tempopr_graph::framing`]'s):
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
//! `config_hash` is [`hash_config`]'s FNV-1a; `log_fingerprint` is
//! [`log_fingerprint`]'s XXH64 of the event log. A v1 manifest, whose
//! fingerprint was an FNV-1a of the same bytes, is refused by the version
//! check as [`CheckpointError::Incompatible`].
//!
//! Durability discipline: no sync runs on the compute thread. The caller
//! writes the header (and, on resume, the validated record prefix) to a
//! temp file, so an unusable directory fails before any window computes.
//! [`DurableRun::run`] then runs the driver's compute beside one drainer
//! thread ([`CheckpointSink`]). The drainer fsyncs the temp file, renames
//! it into place (keeping its file handle) and syncs the directory; then
//! it group-commits: each pass takes every record handed over so far, appends
//! them with one `write_all` and makes them durable with one `fdatasync`.
//! The compute side hands records over `--checkpoint-every N` at a time,
//! so there is at most one sync per N records, and fewer when hand-overs
//! queue behind a sync in flight. Records are written strictly in window
//! order even when windows complete out of order (SpMM region
//! interleaving, offline parallel windows), so the manifest always holds a
//! *contiguous prefix* of windows `0..k`; the run returns once the last
//! record is durable.
//!
//! Torn-tail rule ([`framing::Reader::record`] frames and checksums): a
//! reader accepts the longest prefix of records that frame, checksum,
//! decode, and number contiguously; the first short, corrupt, or
//! out-of-sequence record ends the scan and everything after it is
//! discarded (`checkpoint.corrupt_discarded`). Header problems are never
//! silently repaired: a bad magic or checksum is [`CheckpointError::Corrupt`],
//! a version or compatibility-hash mismatch is
//! [`CheckpointError::Incompatible`] — a resume either provably matches the
//! original run's config and event log or refuses to start.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::result::{RecoveryKind, RunOutput, SparseRanks, WindowOutput, WindowStatus};
use crate::{lock, RetainMode};
use tempopr_graph::framing::{self, FrameError, HeaderError, Reader};
use tempopr_graph::{Event, EventLog, WindowSpec};
use tempopr_kernel::{overlap, PrHealth, PrStats};
use tempopr_telemetry::{Phase as RunPhase, Telemetry};

/// File name of the checkpoint manifest inside `--checkpoint-dir`.
pub const MANIFEST_NAME: &str = "manifest.ckpt";
/// Temp-file name used for atomic header/prefix rewrites.
const MANIFEST_TMP: &str = "manifest.tmp";
/// `tempopr.ckpt` magic.
const MAGIC: [u8; 4] = *b"TPCK";
/// Format version this build reads and writes. v2 changed the value of
/// the header's `log_fingerprint` (XXH64, was FNV-1a), not its layout.
const VERSION: u16 = 2;
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
/// so `tempopr.ckpt.v2` and `tempopr.tcsr.v1` files share a checksum.
pub use tempopr_graph::framing::crc32;

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

/// A header or record field cut short: corruption.
impl From<FrameError> for CheckpointError {
    fn from(e: FrameError) -> Self {
        CheckpointError::Corrupt(e.to_string())
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
    /// Hand-over batch size in windows: the compute side passes in-order
    /// records to the drainer `N` at a time, so the drainer syncs at most
    /// once per `N` records (hand-overs that queue behind a sync in flight
    /// share the next one). A crash loses what is not yet durable: the
    /// records still batched, queued or in flight behind the last
    /// completed sync, which a resume recomputes. `0` behaves as `1`.
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
        b.push(self.driver);
        b.push(0); // flags, reserved
        b.extend_from_slice(&self.config_hash.to_le_bytes());
        b.extend_from_slice(&self.log_fingerprint.to_le_bytes());
        b.extend_from_slice(&self.t0.to_le_bytes());
        b.extend_from_slice(&self.delta.to_le_bytes());
        b.extend_from_slice(&self.sw.to_le_bytes());
        b.extend_from_slice(&self.count.to_le_bytes());
        framing::sealed_header(MAGIC, VERSION, &b)
    }

    /// Parses and validates a header against the resuming run's expected
    /// identity. Order of checks: truncation, then the sealed-header rule's
    /// magic, version and checksum ([`framing::open_header`]), then identity.
    fn decode_expecting(bytes: &[u8], expect: &ManifestHeader) -> Result<(), CheckpointError> {
        let header = bytes.get(..HEADER_LEN).ok_or(FrameError::Short)?;
        let mut c = framing::open_header(header, MAGIC, VERSION).map_err(|e| match e {
            HeaderError::Magic => {
                CheckpointError::Corrupt("bad magic (not a tempopr.ckpt file)".into())
            }
            HeaderError::Version(version) => CheckpointError::Incompatible(format!(
                "checkpoint format v{version} (this build reads v{VERSION})"
            )),
            HeaderError::Crc => CheckpointError::Corrupt("header checksum mismatch".into()),
        })?;
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

/// Fingerprint of an event log: XXH64 (seed 0) of the vertex-universe
/// size as a `u64` followed by every `(u, v, t)` in order (4 + 4 + 8
/// bytes), all little-endian. That stream is 8 + 16·|E| bytes, the word
/// sequence `num_vertices, u | v << 32, t, …`, so it is hashed a word at a
/// time straight from [`EventLog::events`]: each 32-byte stripe is one
/// event pair plus the word carried in front of it. O(|E|), computed by
/// every [`PostmortemEngine::new`](crate::engine::PostmortemEngine::new)
/// and by the offline and streaming drivers when they write or resume a
/// manifest.
pub fn log_fingerprint(log: &EventLog) -> u64 {
    let events = log.events();
    let words = |e: &Event| (u64::from(e.u) | (u64::from(e.v) << 32), e.t as u64);
    // The word in front of the next stripe: the universe size, then the
    // `t` of each pair's second event.
    let mut carry = log.num_vertices() as u64;
    let pairs = events.chunks_exact(2);
    let rest = pairs.remainder();
    let mut h = if events.len() >= 2 {
        let mut acc = [
            XXH_P1.wrapping_add(XXH_P2),
            XXH_P2,
            0,
            XXH_P1.wrapping_neg(),
        ];
        for pair in pairs {
            let (a0, b0) = words(&pair[0]);
            let (a1, b1) = words(&pair[1]);
            acc[0] = xxh_round(acc[0], carry);
            acc[1] = xxh_round(acc[1], a0);
            acc[2] = xxh_round(acc[2], b0);
            acc[3] = xxh_round(acc[3], a1);
            carry = b1;
        }
        // Converge the four lanes, then merge each one in.
        let h = acc[0]
            .rotate_left(1)
            .wrapping_add(acc[1].rotate_left(7))
            .wrapping_add(acc[2].rotate_left(12))
            .wrapping_add(acc[3].rotate_left(18));
        acc.iter().fold(h, |h, &a| {
            (h ^ xxh_round(0, a))
                .wrapping_mul(XXH_P1)
                .wrapping_add(XXH_P4)
        })
    } else {
        XXH_P5
    };
    h = h.wrapping_add(8 + 16 * events.len() as u64);
    h = xxh_tail_word(h, carry);
    for e in rest {
        let (a, b) = words(e);
        h = xxh_tail_word(xxh_tail_word(h, a), b);
    }
    // The final avalanche.
    h ^= h >> 33;
    h = h.wrapping_mul(XXH_P2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXH_P3);
    h ^ (h >> 32)
}

const XXH_P1: u64 = 0x9E37_79B1_85EB_CA87;
const XXH_P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXH_P3: u64 = 0x1656_67B1_9E37_79F9;
const XXH_P4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXH_P5: u64 = 0x27D4_EB2F_1656_67C5;

/// XXH64's lane step: one 8-byte input word into an accumulator.
#[inline(always)]
fn xxh_round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(XXH_P2))
        .rotate_left(31)
        .wrapping_mul(XXH_P1)
}

/// XXH64's step for one 8-byte word of the tail after the last stripe.
#[inline(always)]
fn xxh_tail_word(h: u64, word: u64) -> u64 {
    (h ^ xxh_round(0, word))
        .rotate_left(27)
        .wrapping_mul(XXH_P1)
        .wrapping_add(XXH_P4)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

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

    fn decode(payload: &[u8]) -> Result<CheckpointRecord, CheckpointError> {
        let mut c = Reader::new(payload);
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
            return Err(FrameError::Short.into());
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
            return Err(CheckpointError::Corrupt("trailing payload bytes".into()));
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
            (s, v) => return Err(CheckpointError::Corrupt(format!("status/via {s}/{v}"))),
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

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Durable, ordered writer for one run's checkpoint manifest, in two
/// halves that share one queue.
///
/// - **Compute side**, [`CheckpointSink::offer`]: encodes a finished
///   window's record, holds it until its predecessors arrive (windows may
///   finish in any order: SpMM regions, offline parallel windows), and
///   hands in-order frames to the drainer `every` records at a time. It
///   never writes and never syncs.
/// - **Drainer**, run by [`DurableRun::run`] on a helper thread beside the
///   driver's compute: it first makes the manifest's header durable under
///   its final name, then repeatedly takes *everything* handed over, writes
///   it with one `write_all` and makes it durable with one `sync_data`
///   (group commit: hand-overs that queue while a sync is in flight share
///   the next one), until the sink is closed and the queue empty.
///
/// The on-disk manifest is therefore always a contiguous prefix. Write,
/// sync and rename failures disable the sink (counted in
/// `checkpoint.write_errors`) rather than failing the run — durability
/// degrades, the computation does not.
pub struct CheckpointSink {
    tele: Telemetry,
    every: usize,
    crash_after: Option<usize>,
    state: Mutex<SinkState>,
    /// Wakes the drainer: frames handed over, or the sink closed.
    handed: Condvar,
    /// The manifest, written only by the drainer.
    manifest: Mutex<Manifest>,
}

struct SinkState {
    /// Completed records waiting for their predecessors.
    pending: BTreeMap<usize, Vec<u8>>,
    /// Next window id to order.
    next: usize,
    /// In-order frames not yet handed over (fewer than `every` records).
    batch: Vec<u8>,
    /// Records inside `batch`.
    batched: usize,
    /// Frames handed over to the drainer, in window order.
    queue: Vec<u8>,
    /// Records inside `queue`.
    queued: usize,
    /// The crash-injection window has been handed over; nothing after it
    /// is ordered or queued.
    crash_armed: bool,
    /// No further offers: the drainer empties the queue and stops.
    closed: bool,
    /// A write, sync or rename failed: offers are dropped.
    disabled: bool,
}

impl SinkState {
    /// Moves the in-order batch onto the drainer's queue.
    fn hand_over(&mut self) {
        self.queue.append(&mut self.batch);
        self.queued += std::mem::take(&mut self.batched);
    }
}

/// The manifest file and, until the drainer makes it durable, the rename
/// that publishes its header. The handle stays open across the rename.
struct Manifest {
    file: File,
    /// `(temp path, final path)` of the pending rename.
    publish: Option<(PathBuf, PathBuf)>,
}

impl Manifest {
    /// Syncs the header (and any resumed prefix) written at create time,
    /// renames it into place and syncs the directory where the platform
    /// allows it. A no-op once done.
    fn publish(&mut self) -> std::io::Result<()> {
        let Some((tmp, path)) = self.publish.take() else {
            return Ok(());
        };
        self.file.sync_all()?;
        std::fs::rename(&tmp, &path)?;
        if let Some(Ok(dir)) = path.parent().map(File::open) {
            let _ = dir.sync_all();
        }
        Ok(())
    }
}

/// Closes its sink when dropped, so the drainer stops even when the
/// compute beside it unwinds.
struct CloseOnDrop<'a>(&'a CheckpointSink);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

impl CheckpointSink {
    /// Writes `header` and the already-validated `prefix` records to a temp
    /// file in `dir`; the drainer syncs it and renames it over the manifest
    /// before its first record. The sink then orders records from window
    /// `prefix.len()`. An unusable directory fails here, before any window
    /// computes.
    ///
    /// `crash_after` is deterministic fault injection: once the record for
    /// that window is durable, the process aborts
    /// ([`crate::config::FaultPlan::crash_after_checkpoint`]).
    pub(crate) fn create(
        dir: &Path,
        header: &ManifestHeader,
        prefix: &[CheckpointRecord],
        every: usize,
        crash_after: Option<usize>,
        tele: Telemetry,
    ) -> Result<CheckpointSink, CheckpointError> {
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join(MANIFEST_TMP);
        let mut bytes = header.encode();
        for rec in prefix {
            bytes.extend_from_slice(&framing::record(&rec.encode()));
        }
        let mut file = File::create(&tmp)?;
        file.write_all(&bytes)?;
        Ok(CheckpointSink {
            tele,
            every: every.max(1),
            crash_after,
            state: Mutex::new(SinkState {
                pending: BTreeMap::new(),
                next: prefix.len(),
                batch: Vec::new(),
                batched: 0,
                queue: Vec::new(),
                queued: 0,
                crash_armed: false,
                closed: false,
                disabled: false,
            }),
            handed: Condvar::new(),
            manifest: Mutex::new(Manifest {
                file,
                publish: Some((tmp, dir.join(MANIFEST_NAME))),
            }),
        })
    }

    /// Offers a completed window. Records arriving out of order are held
    /// until their predecessors arrive; in-order records are handed to the
    /// drainer every `every` records, or at once when the crash-injection
    /// window is among them. Returns without writing or syncing.
    pub fn offer(&self, rec: &CheckpointRecord) {
        let frame = framing::record(&rec.encode());
        let mut st = lock(&self.state);
        if st.disabled || st.crash_armed {
            return;
        }
        st.pending.insert(rec.window, frame);
        while !st.crash_armed {
            let window = st.next;
            let Some(frame) = st.pending.remove(&window) else {
                break;
            };
            st.batch.extend_from_slice(&frame);
            st.batched += 1;
            st.next += 1;
            st.crash_armed = self.crash_after == Some(window);
        }
        if st.batched >= self.every || st.crash_armed {
            st.hand_over();
            self.handed.notify_one();
        }
    }

    /// Hands over the last partial batch and lets the drainer stop once
    /// the queue is empty.
    fn close(&self) {
        let mut st = lock(&self.state);
        st.hand_over();
        st.closed = true;
        self.handed.notify_one();
    }

    /// Drops everything not yet durable and every later offer.
    fn disable(&self) {
        self.tele.add("checkpoint.write_errors", 1);
        let mut st = lock(&self.state);
        st.disabled = true;
        st.pending.clear();
        st.batch.clear();
        st.batched = 0;
        st.queue.clear();
        st.queued = 0;
    }

    /// The drainer loop: publishes the header, then group-commits the
    /// queue until the sink is closed and the queue empty.
    fn drain(&self) {
        let mut manifest = lock(&self.manifest);
        let published = {
            let _t = self.tele.phase(RunPhase::CheckpointWrite);
            manifest.publish()
        };
        if published.is_err() {
            self.disable();
        }
        let mut frames = Vec::new();
        loop {
            let (records, crash) = {
                let mut st = lock(&self.state);
                while st.queue.is_empty() && !st.closed {
                    st = self
                        .handed
                        .wait(st)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                if st.queue.is_empty() {
                    return;
                }
                frames.clear();
                std::mem::swap(&mut frames, &mut st.queue);
                (std::mem::take(&mut st.queued), st.crash_armed)
            };
            let res = {
                let _t = self.tele.phase(RunPhase::CheckpointWrite);
                let file = &mut manifest.file;
                file.write_all(&frames).and_then(|()| file.sync_data())
            };
            if res.is_err() {
                self.disable();
                continue;
            }
            self.tele.add("checkpoint.writes", records as u64);
            self.tele.add("checkpoint.bytes", frames.len() as u64);
            self.tele.add("checkpoint.syncs", 1);
            if crash {
                // The injected crash point: the record for window k is
                // durable, nothing after it is. abort() skips destructors
                // and exit handlers — the closest safe stand-in for a
                // kill -9.
                std::process::abort();
            }
        }
    }

    /// Runs `compute` on the calling thread while the drainer runs on a
    /// helper; the sink is closed when `compute` returns or unwinds, and
    /// this returns once the last handed-over record is durable, with
    /// `compute`'s result and how long the caller waited for the drainer.
    /// A panic in `compute` resurfaces here with its own payload.
    fn run<R>(&self, compute: impl FnOnce() -> R) -> (R, Duration) {
        let ((), out, stall) = overlap(
            || self.drain(),
            || {
                let _close = CloseOnDrop(self);
                compute()
            },
        );
        (out, stall)
    }
}

// ---------------------------------------------------------------------------
// The run lifecycle
// ---------------------------------------------------------------------------

/// One run's manifest lifecycle, shared by the postmortem, offline and
/// streaming drivers: [`DurableRun::open`] resumes the manifest's valid
/// prefix and opens the sink, and [`DurableRun::run`] runs the driver's
/// compute over windows [`DurableRun::start`]`..count` (seeding from
/// [`DurableRun::seed`] and persisting through [`DurableRun::sink`]) beside
/// the sink's drainer, then merges the restored prefix into the run output.
pub struct DurableRun {
    tele: Telemetry,
    count: usize,
    prefix: Vec<CheckpointRecord>,
    sink: Option<Arc<CheckpointSink>>,
}

impl DurableRun {
    /// A run that neither writes nor resumes a manifest and records no
    /// checkpoint counter: [`DurableRun::run`] calls its compute inline and
    /// applies only the epilogue.
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
    /// resume), before the sink writes the kept prefix into `opts.dir`.
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

    /// Runs the driver's `compute` — windows `start..count`, reading
    /// [`DurableRun::start`], [`DurableRun::seed`] and
    /// [`DurableRun::sink`] from the run it is handed — and completes its
    /// output with the restored prefix under `retain`, in window order,
    /// recording the run's status.
    ///
    /// With a sink, `compute` runs beside the sink's drainer and this
    /// returns only once the last record is durable; the wait is the
    /// `checkpoint.stall_s` gauge. A panic in `compute` closes the sink,
    /// lets the drainer make what was handed over durable, and resurfaces
    /// here with its own payload. Without a sink, `compute` runs inline.
    pub fn run(
        self,
        retain: RetainMode,
        compute: impl FnOnce(&DurableRun) -> Vec<WindowOutput>,
    ) -> RunOutput {
        let windows = match &self.sink {
            Some(sink) => {
                let (windows, stall) = sink.run(|| compute(&self));
                self.tele
                    .set_gauge("checkpoint.stall_s", stall.as_secs_f64());
                windows
            }
            None => compute(&self),
        };
        self.complete(windows, retain)
    }

    /// Completes the driver's `windows` with the restored prefix.
    fn complete(self, mut windows: Vec<WindowOutput>, retain: RetainMode) -> RunOutput {
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
    // `rest` follows the accepted prefix; a framed and checksummed record
    // must also decode and number on from it, or it and all after it go.
    let mut rest = Reader::new(&bytes[HEADER_LEN..]);
    let mut next = rest;
    while let Some(payload) = next.record(PAYLOAD_MIN) {
        match CheckpointRecord::decode(payload) {
            Ok(rec) if rec.window == state.records.len() => state.records.push(rec),
            _ => break,
        }
        rest = next;
    }
    state.corrupt_discarded = u64::from(rest.remaining() != 0);
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
            reseal_version(&mut bytes, VERSION + 1);
        }
    }
    std::fs::write(&path, &bytes)?;
    Ok(())
}

/// Rewrites the version field of the header at the front of `bytes`
/// (at least [`HEADER_LEN`] long) and recomputes the header CRC.
fn reseal_version(bytes: &mut [u8], version: u16) {
    let mut header = bytes[..HEADER_LEN - 4].to_vec();
    header[4..6].copy_from_slice(&version.to_le_bytes());
    framing::seal(&mut header);
    bytes[..HEADER_LEN].copy_from_slice(&header);
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

    /// Offers `records` in the given order beside the sink's drainer.
    fn offer_all(sink: &CheckpointSink, records: &[CheckpointRecord]) {
        sink.run(|| {
            for r in records {
                sink.offer(r);
            }
        });
    }

    fn write_all(dir: &Path, h: &ManifestHeader, records: &[CheckpointRecord], every: usize) {
        let sink = CheckpointSink::create(dir, h, &[], every, None, Telemetry::noop()).unwrap();
        offer_all(&sink, records);
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
        let records: Vec<_> = [2usize, 0, 3, 1]
            .into_iter()
            .map(|w| rec(w, WindowStatus::Ok))
            .collect();
        offer_all(&sink, &records);
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
        // A manifest written before the fingerprint became XXH64 (v1) and
        // one from a later format are both refused by the version check,
        // with a message that names both versions.
        let path = manifest_path(&dir);
        let current = std::fs::read(&path).unwrap();
        assert_eq!(VERSION, 2);
        for (stale, named) in [(VERSION - 1, "v1"), (VERSION + 1, "v3")] {
            let mut bytes = current.clone();
            reseal_version(&mut bytes, stale);
            std::fs::write(&path, &bytes).unwrap();
            match resume_scan(&dir, &h) {
                Err(CheckpointError::Incompatible(msg)) => {
                    assert!(msg.contains(named) && msg.contains("v2"), "{msg}");
                }
                other => panic!("version {stale}: expected Incompatible, got {other:?}"),
            }
        }
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
        let fresh = rec(
            2,
            WindowStatus::Recovered {
                via: RecoveryKind::FullInitRetry,
            },
        );
        offer_all(&sink, &[fresh]);
        let state = resume_scan(&dir, &h).unwrap();
        assert_eq!(state.records.len(), 3);
        assert!(matches!(
            state.records[2].status,
            WindowStatus::Recovered { .. }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_sync_commits_everything_queued_before_the_drainer_takes_it() {
        let dir = tmpdir("group");
        let h = header();
        let tele = Telemetry::enabled();
        let sink = CheckpointSink::create(&dir, &h, &[], 1, None, tele.clone()).unwrap();
        // Four hand-overs queue before the drainer starts: it takes them
        // in one write and one sync.
        for w in 0..4 {
            sink.offer(&rec(w, WindowStatus::Ok));
        }
        offer_all(&sink, &[]);
        let report = tele.report();
        assert_eq!(report.counter("checkpoint.writes"), 4);
        assert_eq!(report.counter("checkpoint.syncs"), 1);
        assert_eq!(resume_scan(&dir, &h).unwrap().records.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_panicking_compute_resurfaces_and_leaves_a_valid_prefix() {
        let dir = tmpdir("panic");
        let h = header();
        let opts = CheckpointOptions {
            dir: Some(dir.clone()),
            ..CheckpointOptions::default()
        };
        let spec = WindowSpec {
            t0: h.t0,
            delta: h.delta,
            sw: h.sw,
            count: h.count as usize,
        };
        let tele = Telemetry::noop();
        let identity = || (h.config_hash, h.log_fingerprint);
        let run = DurableRun::open(&opts, h.driver, &spec, identity, Ok, None, &tele).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run.run(RetainMode::Full, |run| {
                    let sink = run.sink().unwrap();
                    // Out of order: window 1 waits for window 0.
                    sink.offer(&rec(1, WindowStatus::Ok));
                    sink.offer(&rec(0, WindowStatus::Ok));
                    std::panic::panic_any("compute failed at window 2")
                })
            }));
            let payload = caught.err().and_then(|p| p.downcast::<&str>().ok());
            let _ = tx.send(payload.map(|p| *p));
        });
        let payload = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the drainer hung the run");
        assert_eq!(payload, Some("compute failed at window 2"));
        let state = resume_scan(&dir, &h).unwrap();
        assert_eq!(
            state.records,
            [rec(0, WindowStatus::Ok), rec(1, WindowStatus::Ok)]
        );
        assert_eq!(state.corrupt_discarded, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_write_error_disables_the_sink_and_leaves_the_ranks_alone() {
        use crate::config::{InitMode, KernelKind, ParallelMode, PostmortemConfig};
        use crate::engine::PostmortemEngine;
        let events = (0..300u32)
            .map(|i| Event::new((i * 13 + 2) % 20, (i * 7 + 5) % 20, i64::from(i)))
            .filter(|e| e.u != e.v)
            .collect();
        let log = EventLog::from_unsorted(events, 20).unwrap();
        let spec = WindowSpec::covering(&log, 60, 30).unwrap();
        let cfg = PostmortemConfig {
            num_multiwindows: 2,
            mode: ParallelMode::Sequential,
            kernel: KernelKind::SpMV,
            init_mode: InitMode::Partial,
            threads: 1,
            ..PostmortemConfig::default()
        };
        let tele = Telemetry::enabled();
        let engine = PostmortemEngine::with_telemetry(&log, spec, cfg, tele.clone()).unwrap();
        let plain = engine.run();
        let dir = tmpdir("readonly");
        let opts = CheckpointOptions {
            dir: Some(dir.clone()),
            ..CheckpointOptions::default()
        };
        let run =
            DurableRun::open(&opts, DRIVER_POSTMORTEM, &spec, || (1, 2), Ok, None, &tele).unwrap();
        // The drainer's handle can no longer write.
        let sink = run.sink().unwrap();
        lock(&sink.manifest).file = File::open(dir.join(MANIFEST_TMP)).unwrap();
        let durable = engine.run_with(run);
        let report = tele.report();
        assert_eq!(report.counter("checkpoint.write_errors"), 1);
        assert_eq!(report.counter("checkpoint.writes"), 0);
        assert_eq!(durable.windows.len(), spec.count);
        for (a, b) in plain.windows.iter().zip(&durable.windows) {
            assert_eq!(a.fingerprint.to_bits(), b.fingerprint.to_bits());
            assert_eq!(a.ranks, b.ranks);
            assert_eq!(a.status, b.status);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The byte stream [`log_fingerprint`] hashes: the universe size as a
    /// `u64`, then every `(u, v, t)`, all little-endian.
    fn log_bytes(log: &EventLog) -> Vec<u8> {
        let mut b = (log.num_vertices() as u64).to_le_bytes().to_vec();
        for e in log.events() {
            b.extend_from_slice(&e.u.to_le_bytes());
            b.extend_from_slice(&e.v.to_le_bytes());
            b.extend_from_slice(&e.t.to_le_bytes());
        }
        b
    }

    /// XXH64 with seed 0 over a byte slice, step by step in the order of
    /// the specification (32-byte stripes, then 8-, 4- and 1-byte tails):
    /// what [`log_fingerprint`]'s value is defined as. Its constants are its
    /// own, so a mistyped prime in the word-wise hash cannot hide here.
    fn xxh64_reference(bytes: &[u8]) -> u64 {
        const P1: u64 = 11_400_714_785_074_694_791;
        const P2: u64 = 14_029_467_366_897_019_727;
        const P3: u64 = 1_609_587_929_392_839_161;
        const P4: u64 = 9_650_029_242_287_828_579;
        const P5: u64 = 2_870_177_450_012_600_261;
        let u64_at = |b: &[u8]| u64::from_le_bytes(b[..8].try_into().unwrap());
        let round = |acc: u64, lane: u64| {
            acc.wrapping_add(lane.wrapping_mul(P2))
                .rotate_left(31)
                .wrapping_mul(P1)
        };
        let mut rest = bytes;
        let mut h = if bytes.len() >= 32 {
            let mut v = [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)];
            while rest.len() >= 32 {
                for (i, lane) in v.iter_mut().enumerate() {
                    *lane = round(*lane, u64_at(&rest[8 * i..]));
                }
                rest = &rest[32..];
            }
            let mut h = v[0]
                .rotate_left(1)
                .wrapping_add(v[1].rotate_left(7))
                .wrapping_add(v[2].rotate_left(12))
                .wrapping_add(v[3].rotate_left(18));
            for lane in v {
                h ^= round(0, lane);
                h = h.wrapping_mul(P1).wrapping_add(P4);
            }
            h
        } else {
            P5
        };
        h = h.wrapping_add(bytes.len() as u64);
        while rest.len() >= 8 {
            h ^= round(0, u64_at(rest));
            h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
            rest = &rest[8..];
        }
        if rest.len() >= 4 {
            h ^= u64::from(u32::from_le_bytes(rest[..4].try_into().unwrap())).wrapping_mul(P1);
            h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
            rest = &rest[4..];
        }
        for &b in rest {
            h ^= u64::from(b).wrapping_mul(P5);
            h = h.rotate_left(11).wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
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
    fn log_fingerprint_is_xxh64_of_the_log_bytes() {
        // The reference against published XXH64 values; the last is 39
        // bytes: one stripe, then the 4-byte and 1-byte tails.
        assert_eq!(xxh64_reference(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64_reference(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            xxh64_reference(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
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
            assert_eq!(log_fingerprint(log), xxh64_reference(&log_bytes(log)));
        }
        assert_ne!(log_fingerprint(&wide), log_fingerprint(&narrow));
        // Logs of 1 to 4 events: 24 and 40 bytes take the under-32-byte
        // path and one stripe with an 8-byte tail; 56 and 72 bytes leave
        // 24 and 8 bytes after their stripes.
        for n in 1..=4usize {
            let events = (0..n)
                .map(|i| Event::new(i as u32 * 7, 3 * n as u32, 1000 + i as i64))
                .collect();
            let log = EventLog::from_unsorted(events, 64).unwrap();
            let bytes = log_bytes(&log);
            assert_eq!(bytes.len(), 8 + 16 * n);
            assert_eq!(log_fingerprint(&log), xxh64_reference(&bytes), "{n} events");
        }
    }

    /// The one-step edits of `log`: each single-bit flip of each field of
    /// each event, swapping the first two adjacent distinct events that
    /// share a timestamp (the only swaps a time-sorted log allows),
    /// dropping the last event, and the universe size ± 1. An id flipped
    /// past the universe widens it.
    fn edits(log: &EventLog) -> Vec<EventLog> {
        let events = log.events();
        let n = log.num_vertices();
        let mut out = Vec::new();
        for i in 0..events.len() {
            let with = |e: Event| {
                let mut evs = events.to_vec();
                evs[i] = e;
                let m = (e.u.max(e.v) as usize + 1).max(n);
                EventLog::from_unsorted(evs, m).unwrap()
            };
            let e = events[i];
            for bit in 0..32 {
                out.push(with(Event::new(e.u ^ (1 << bit), e.v, e.t)));
                out.push(with(Event::new(e.u, e.v ^ (1 << bit), e.t)));
            }
            for bit in 0..64 {
                out.push(with(Event::new(e.u, e.v, e.t ^ (1 << bit))));
            }
        }
        if let Some(i) = (1..events.len()).find(|&i| {
            let (a, b) = (events[i - 1], events[i]);
            a.t == b.t && a != b
        }) {
            let mut evs = events.to_vec();
            evs.swap(i - 1, i);
            out.push(EventLog::from_sorted(evs, n).unwrap());
        }
        if events.len() > 1 {
            let evs = events[..events.len() - 1].to_vec();
            out.push(EventLog::from_sorted(evs, n).unwrap());
        }
        out.push(EventLog::from_sorted(events.to_vec(), n + 1).unwrap());
        if let Ok(smaller) = EventLog::from_sorted(events.to_vec(), n - 1) {
            out.push(smaller);
        }
        out
    }

    #[test]
    fn every_one_step_edit_changes_the_log_fingerprint() {
        // Five events (two stripes, a 24-byte tail), two of them tied.
        let log = EventLog::from_sorted(
            vec![
                Event::new(3, 5, -2),
                Event::new(0, 1, 7),
                Event::new(1, 0, 7),
                Event::new(4, 4, 9),
                Event::new(2, 5, 1 << 40),
            ],
            8,
        )
        .unwrap();
        let edited = edits(&log);
        // 5 events × 128 bits, one swap, one drop, the universe ± 1.
        assert_eq!(edited.len(), 5 * 128 + 4);
        let base = log_fingerprint(&log);
        let mut seen = std::collections::HashSet::from([base]);
        for other in &edited {
            assert_ne!(other, &log);
            assert!(seen.insert(log_fingerprint(other)), "{other:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// On random logs, with ties and small universes, the word-wise
        /// hash equals the reference and every one-step edit moves it.
        #[test]
        fn log_fingerprint_tracks_every_edit_of_random_logs(
            n in 1usize..40,
            raw in proptest::collection::vec((0u32..1000, 0u32..1000, -4i64..4), 1..24),
        ) {
            let events = raw
                .iter()
                .map(|&(u, v, t)| Event::new(u % n as u32, v % n as u32, t))
                .collect();
            let log = EventLog::from_unsorted(events, n).unwrap();
            let base = log_fingerprint(&log);
            proptest::prop_assert_eq!(base, xxh64_reference(&log_bytes(&log)));
            for other in edits(&log) {
                proptest::prop_assert_ne!(log_fingerprint(&other), base, "{:?}", other);
            }
        }
    }

    #[test]
    fn hashes_are_stable_and_sensitive() {
        assert_eq!(hash_config("abc"), hash_config("abc"));
        assert_ne!(hash_config("abc"), hash_config("abd"));
    }
}
