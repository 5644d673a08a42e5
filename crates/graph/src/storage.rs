//! Out-of-core storage backends for multi-window temporal graphs.
//!
//! The resident [`crate::multiwindow::MultiWindowGraph`] arrays are the
//! engine's working form; this module supplies two alternative *resting*
//! forms that trade CPU for memory while reproducing the resident arrays
//! bit-for-bit on decode:
//!
//! - [`CompressedPart`]: a delta-varint encoding of one part — neighbor
//!   gaps within each row (entries are sorted by `(neighbor, time)`, so
//!   column ids are nondecreasing) and ascending timestamp deltas within
//!   each neighbor run, LEB128 varints throughout. Decoding a part
//!   ("decode on touch") rebuilds the exact `row`/`col`/`time` arrays the
//!   build ends with, so every downstream consumer (the window index, the
//!   kernels, rank fingerprints) sees identical bits.
//! - [`TcsrFile`]: the `tempopr.tcsr.v2` on-disk format — a sealed header
//!   (magic, version, part count, vertex count) and section table (one
//!   `{offset, len, crc}` per part-shard), then one [`CompressedPart`]
//!   payload per part-shard, paged in per shard through a reusable
//!   [`DecodeScratch`] buffer. Its varints, CRCs, sealed-header rule and
//!   little-endian reads are [`crate::framing`]'s; the reader guards
//!   lengths and counts before any allocation and returns typed
//!   [`StorageError`]s, never a panic.
//!
//! [`plan_partition`] plans part counts against these backends' *actual*
//! resident footprints via [`StorageProfile`]: a candidate partition is
//! priced from per-part counts first, and built and encoded only when that
//! lower bound cannot rule it out. An infeasible budget surfaces as a typed
//! [`BudgetError`] carrying the minimal feasible budget.

use crate::events::{EventLog, Timestamp, VertexId};
use crate::framing::{self, crc32, put_ivarint, put_uvarint, HeaderError, Reader};
use crate::multiwindow::{
    part_boundaries, MultiWindowGraph, MultiWindowSet, PartitionStrategy, VisitError,
};
use crate::tcsr::TemporalCsr;
use crate::window::{TimeRange, WindowSpec};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::Path;
use std::sync::Mutex;

/// Magic prefix of a `tempopr.tcsr.v2` file.
pub const TCSR_MAGIC: [u8; 4] = *b"TPTC";
/// On-disk format version this build writes and reads.
pub const TCSR_VERSION: u16 = 2;
/// Fixed header: magic + version + part count + global vertex count + CRC.
pub const TCSR_HEADER_LEN: usize = 4 + 2 + 4 + 8 + 4;
/// Bytes per section-table entry: offset + length + payload CRC.
pub const TCSR_SECTION_ENTRY_LEN: usize = 8 + 8 + 4;
/// Upper bound on the part count accepted by the reader (OOM guard against
/// forged headers, mirroring `io::MAX_PREALLOC_RECORDS`).
pub const TCSR_MAX_PARTS: usize = 1 << 20;
/// Per-part resident bookkeeping the execution layer keeps for the
/// non-resident backends (the encoded-blob or section handle plus a
/// window-range + vertex-map header). The budget planner charges this on
/// top of the payload bytes so a certified plan covers the store's real
/// measured footprint, not just its payloads.
pub const PART_RUNTIME_OVERHEAD: usize = 64;

/// In-memory payload format version (first byte of every section payload).
const PAYLOAD_VERSION: u8 = 2;

// --- Errors -------------------------------------------------------------

/// Typed failures of the compressed / on-disk storage backends. Malformed
/// or corrupted inputs are always refused with one of these — never a
/// panic.
#[derive(Debug)]
pub enum StorageError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file header is malformed (bad magic, impossible counts, or a
    /// header/table CRC mismatch).
    BadHeader(String),
    /// The file declares a format version this build does not speak.
    Unsupported(u16),
    /// A section or payload failed validation after the header was
    /// accepted (CRC mismatch, truncated bytes, inconsistent counts).
    Corrupt {
        /// Which section failed (`"payload"`, `"section-table"`, ...).
        section: String,
        /// What was wrong with it.
        detail: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage i/o error: {e}"),
            StorageError::BadHeader(msg) => write!(f, "bad tcsr header: {msg}"),
            StorageError::Unsupported(v) => {
                write!(
                    f,
                    "unsupported tcsr version {v} (this build speaks {TCSR_VERSION})"
                )
            }
            StorageError::Corrupt { section, detail } => {
                write!(f, "corrupt tcsr {section}: {detail}")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

fn corrupt(section: &str, detail: impl Into<String>) -> StorageError {
    StorageError::Corrupt {
        section: section.to_string(),
        detail: detail.into(),
    }
}

/// A payload read that ran short or overflowed.
impl From<framing::FrameError> for StorageError {
    fn from(e: framing::FrameError) -> Self {
        corrupt("payload", e.to_string())
    }
}

/// An infeasible memory budget: even the best evaluated partition needs
/// `required` bytes resident, which exceeds `budget`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetError {
    /// The minimal feasible budget among the evaluated partitions, in
    /// bytes — pass at least this much to make the run feasible.
    pub required: usize,
    /// The budget that was requested, in bytes.
    pub budget: usize,
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "memory budget of {} bytes is infeasible even at one part per window; \
             the minimal feasible budget is {} bytes",
            self.budget, self.required
        )
    }
}

impl std::error::Error for BudgetError {}

/// Which storage backend a memory plan is computed against. This is the
/// path-free profile of the engine-level backend selection: the planner
/// only needs to know *what* is resident at once, not where files live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageProfile {
    /// All parts fully resident; the budget must fit the worst part
    /// (the paper's §4.1 rule).
    #[default]
    Resident,
    /// Compressed blobs stay resident; at most `slots` parts are decoded
    /// at a time within the budget, so the footprint is
    /// `Σ compressed + vertex maps + sum of the slots largest decoded
    /// parts` (one decoded part in the serial `slots = 1` case).
    Compressed,
    /// Payloads live on disk; resident cost is the section table, the
    /// vertex maps, one read-scratch buffer (worst section) per slot, and
    /// the `slots` largest decoded parts.
    OnDisk,
}

// --- Compressed part ----------------------------------------------------

/// One multi-window part in its delta-varint resting form. Encoding is
/// lossless down to the bit level: [`CompressedPart::decode`] rebuilds a
/// [`MultiWindowGraph`] whose arrays compare equal to the resident
/// original, so ranks computed from either are identical.
#[derive(Debug, Clone)]
pub struct CompressedPart {
    windows: Range<usize>,
    bytes: Box<[u8]>,
}

impl CompressedPart {
    /// Encodes a resident part. The payload is self-contained (window
    /// range, span, per-window ranges, vertex map, CSR) so it can serve as
    /// a `tempopr.tcsr.v2` file section unchanged.
    pub fn encode(part: &MultiWindowGraph) -> CompressedPart {
        let mut buf: Vec<u8> = Vec::new();
        buf.push(PAYLOAD_VERSION);
        let windows = part.windows();
        put_uvarint(&mut buf, windows.start as u64);
        put_uvarint(&mut buf, windows.end as u64);
        let span = part.span();
        put_ivarint(&mut buf, span.start);
        put_ivarint(&mut buf, span.end);
        let ranges = part.window_ranges();
        put_uvarint(&mut buf, ranges.len() as u64);
        for r in ranges {
            put_ivarint(&mut buf, r.start);
            put_ivarint(&mut buf, r.end);
        }
        // Sorted strictly-increasing vertex map as first + gaps.
        let vmap = part.vertex_map();
        put_uvarint(&mut buf, vmap.len() as u64);
        let mut prev = 0u64;
        for &g in vmap {
            put_uvarint(&mut buf, u64::from(g) - prev);
            prev = u64::from(g);
        }
        encode_tcsr(&mut buf, part.tcsr(), span.start);
        CompressedPart {
            windows,
            bytes: buf.into_boxed_slice(),
        }
    }

    /// Decodes the resident working form back out of this payload.
    pub fn decode(&self) -> Result<MultiWindowGraph, StorageError> {
        CompressedPart::decode_payload(&self.bytes)
    }

    /// Decodes a raw section payload (as stored in a `tempopr.tcsr.v2`
    /// section) into the resident working form, validating every count
    /// before allocating.
    pub fn decode_payload(bytes: &[u8]) -> Result<MultiWindowGraph, StorageError> {
        let mut r = Reader::new(bytes);
        let version = r.u8()?;
        if version != PAYLOAD_VERSION {
            return Err(corrupt(
                "payload",
                format!("payload version {version}, expected {PAYLOAD_VERSION}"),
            ));
        }
        let w_start = r.uvarint_usize()?;
        let w_end = r.uvarint_usize()?;
        if w_end < w_start {
            return Err(corrupt("payload", "window range end precedes start"));
        }
        let span = TimeRange::new(r.ivarint()?, r.ivarint()?);
        let nranges = r.uvarint_usize()?;
        if nranges != w_end - w_start {
            return Err(corrupt(
                "payload",
                format!("{nranges} ranges for {} windows", w_end - w_start),
            ));
        }
        // Every range costs >= 2 payload bytes: bound before allocating.
        if nranges > bytes.len() {
            return Err(corrupt("payload", "range count exceeds payload size"));
        }
        let mut ranges = Vec::with_capacity(nranges);
        for _ in 0..nranges {
            ranges.push(TimeRange::new(r.ivarint()?, r.ivarint()?));
        }
        let nverts = r.uvarint_usize()?;
        if nverts > bytes.len() {
            return Err(corrupt("payload", "vertex count exceeds payload size"));
        }
        let mut vertices: Vec<VertexId> = Vec::with_capacity(nverts);
        let mut prev = 0u64;
        for i in 0..nverts {
            let d = r.uvarint()?;
            if i > 0 && d == 0 {
                return Err(corrupt("payload", "vertex map not strictly increasing"));
            }
            let g = prev.checked_add(d).and_then(|g| VertexId::try_from(g).ok());
            let g = g.ok_or_else(|| corrupt("payload", "vertex id overflows u32"))?;
            prev = u64::from(g);
            vertices.push(g);
        }
        let tcsr = decode_tcsr(&mut r, nverts, span.start)?;
        if r.remaining() != 0 {
            return Err(corrupt(
                "payload",
                format!("{} trailing bytes after decode", r.remaining()),
            ));
        }
        Ok(MultiWindowGraph::from_raw_parts(
            w_start..w_end,
            span,
            vertices.into_boxed_slice(),
            tcsr,
            ranges.into_boxed_slice(),
        ))
    }

    /// Global window range of the encoded part.
    pub fn windows(&self) -> Range<usize> {
        self.windows.clone()
    }

    /// The raw payload bytes (one `tempopr.tcsr.v2` section).
    pub fn payload(&self) -> &[u8] {
        &self.bytes
    }

    /// Encoded size in bytes.
    pub fn payload_len(&self) -> usize {
        self.bytes.len()
    }

    /// Heap footprint of the resting form.
    pub fn memory_bytes(&self) -> usize {
        self.bytes.len()
    }
}

fn encode_tcsr(buf: &mut Vec<u8>, t: &TemporalCsr, base: Timestamp) {
    let n = t.num_vertices();
    put_uvarint(buf, n as u64);
    put_uvarint(buf, t.num_entries() as u64);
    let row = t.row_offsets();
    let (col, time) = (t.col_indices(), t.timestamps());
    for v in 0..n {
        put_uvarint(buf, (row[v + 1] - row[v]) as u64);
    }
    for v in 0..n {
        let (lo, hi) = (row[v], row[v + 1]);
        let mut prev_col = 0u32;
        let mut prev_t = 0i64;
        for i in lo..hi {
            let (c, tm) = (col[i], time[i]);
            // Rows are sorted by (neighbor, time): the column gap (from 0 at
            // a row's first entry) is nonnegative, and a zero gap after it
            // means "same run", where the time delta is nonnegative too.
            put_uvarint(buf, u64::from(c - prev_col));
            if i > lo && c == prev_col {
                put_uvarint(buf, (tm - prev_t) as u64);
            } else {
                put_ivarint(buf, tm - base);
            }
            prev_col = c;
            prev_t = tm;
        }
    }
}

fn decode_tcsr(
    r: &mut Reader<'_>,
    expect_vertices: usize,
    base: Timestamp,
) -> Result<TemporalCsr, StorageError> {
    let n = r.uvarint_usize()?;
    if n != expect_vertices {
        return Err(corrupt(
            "payload",
            format!("tcsr has {n} vertices, part map has {expect_vertices}"),
        ));
    }
    let total = r.uvarint_usize()?;
    // Every entry costs >= 2 payload bytes (col gap + time delta), every
    // vertex >= 1 (degree): refuse forged counts before allocating.
    if n > r.remaining() || total > 2 * r.remaining() {
        return Err(corrupt("payload", "tcsr counts exceed payload size"));
    }
    let mut row = Vec::with_capacity(n + 1);
    row.push(0usize);
    let mut acc = 0usize;
    for _ in 0..n {
        let d = r.uvarint_usize()?;
        acc = acc
            .checked_add(d)
            .ok_or_else(|| corrupt("payload", "degree sum overflows"))?;
        row.push(acc);
    }
    if acc != total {
        return Err(corrupt(
            "payload",
            format!("degree sum {acc} != declared entry count {total}"),
        ));
    }
    let mut col: Vec<VertexId> = Vec::with_capacity(total);
    let mut time: Vec<Timestamp> = Vec::with_capacity(total);
    for v in 0..n {
        let (lo, hi) = (row[v], row[v + 1]);
        let mut prev_col = 0u32;
        let mut prev_t = 0i64;
        for i in lo..hi {
            // The column gap runs from 0 at a row's first entry; a zero gap
            // after it continues the neighbor run with a nonnegative time
            // delta, and any other entry carries its time against `base`.
            let c = u64::from(prev_col).saturating_add(r.uvarint()?);
            let c = VertexId::try_from(c).ok().filter(|&c| (c as usize) < n);
            let c = c.ok_or_else(|| {
                corrupt("payload", format!("column out of range for {n} vertices"))
            })?;
            let tm = if i > lo && c == prev_col {
                let d = i64::try_from(r.uvarint()?)
                    .map_err(|_| corrupt("payload", "time delta overflows i64"))?;
                prev_t.checked_add(d)
            } else {
                base.checked_add(r.ivarint()?)
            };
            let tm = tm.ok_or_else(|| corrupt("payload", "timestamp overflows i64"))?;
            col.push(c);
            time.push(tm);
            prev_col = c;
            prev_t = tm;
        }
    }
    Ok(TemporalCsr::from_raw(n, row, col, time))
}

// --- Decode scratch -----------------------------------------------------

/// Reusable buffer for paging `tempopr.tcsr.v2` sections in: one
/// allocation amortized across every decode-on-touch instead of a fresh
/// read buffer per shard. Counted by the `storage.resident_bytes` gauge.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    bytes: Vec<u8>,
}

impl DecodeScratch {
    /// Current heap footprint of the scratch buffer.
    pub fn memory_bytes(&self) -> usize {
        self.bytes.capacity()
    }
}

// --- On-disk format -----------------------------------------------------

/// Streaming writer for the `tempopr.tcsr.v2` format. Created with the
/// final part count, fed one [`CompressedPart`] at a time (so the build
/// never holds more than one encoded part), and finalized by
/// [`TcsrFileWriter::finish`], which back-patches the CRC'd section table.
#[derive(Debug)]
pub struct TcsrFileWriter {
    file: File,
    /// The section table so far: `offset u64 | len u64 | crc u32` per part.
    table: Vec<u8>,
    num_parts: usize,
    cursor: u64,
}

impl TcsrFileWriter {
    /// Creates (or truncates) the file and reserves the header + section
    /// table.
    pub fn create(
        path: &Path,
        num_parts: usize,
        num_global_vertices: usize,
    ) -> Result<TcsrFileWriter, StorageError> {
        Self::open_with(
            OpenOptions::new().write(true).create(true).truncate(true),
            path,
            num_parts,
            num_global_vertices,
        )
    }

    /// Like [`TcsrFileWriter::create`], but fails with an
    /// [`std::io::ErrorKind::AlreadyExists`] I/O error instead of
    /// truncating a file already at `path`.
    pub fn create_new(
        path: &Path,
        num_parts: usize,
        num_global_vertices: usize,
    ) -> Result<TcsrFileWriter, StorageError> {
        Self::open_with(
            OpenOptions::new().write(true).create_new(true),
            path,
            num_parts,
            num_global_vertices,
        )
    }

    fn open_with(
        options: &OpenOptions,
        path: &Path,
        num_parts: usize,
        num_global_vertices: usize,
    ) -> Result<TcsrFileWriter, StorageError> {
        if num_parts == 0 || num_parts > TCSR_MAX_PARTS {
            return Err(StorageError::BadHeader(format!(
                "part count {num_parts} outside 1..={TCSR_MAX_PARTS}"
            )));
        }
        let mut file = options.open(path)?;
        let mut fields = (num_parts as u32).to_le_bytes().to_vec();
        fields.extend_from_slice(&(num_global_vertices as u64).to_le_bytes());
        file.write_all(&framing::sealed_header(TCSR_MAGIC, TCSR_VERSION, &fields))?;
        // Placeholder table, back-patched by `finish`.
        let table_len = num_parts * TCSR_SECTION_ENTRY_LEN + 4;
        file.write_all(&vec![0u8; table_len])?;
        let cursor = (TCSR_HEADER_LEN + table_len) as u64;
        Ok(TcsrFileWriter {
            file,
            table: Vec::with_capacity(table_len),
            num_parts,
            cursor,
        })
    }

    /// Appends one part's payload as the next section.
    pub fn append(&mut self, part: &CompressedPart) -> Result<(), StorageError> {
        if self.table.len() == self.num_parts * TCSR_SECTION_ENTRY_LEN {
            return Err(StorageError::BadHeader(format!(
                "more parts appended than the declared {}",
                self.num_parts
            )));
        }
        let (payload, len) = (part.payload(), part.payload_len() as u64);
        self.file.write_all(payload)?;
        self.table.extend_from_slice(&self.cursor.to_le_bytes());
        self.table.extend_from_slice(&len.to_le_bytes());
        self.table.extend_from_slice(&crc32(payload).to_le_bytes());
        self.cursor += len;
        Ok(())
    }

    /// Writes the section table. Refuses to finish with fewer sections
    /// than declared (the header's count is load-bearing for the reader's
    /// preallocation guard).
    ///
    /// The bytes are handed to the OS and not synced: a crash can leave
    /// the file torn, which the header, table and section CRCs catch on
    /// read.
    pub fn finish(mut self) -> Result<(), StorageError> {
        let written = self.table.len() / TCSR_SECTION_ENTRY_LEN;
        if written != self.num_parts {
            return Err(StorageError::BadHeader(format!(
                "{written} sections written, {} declared",
                self.num_parts
            )));
        }
        framing::seal(&mut self.table);
        self.file.seek(SeekFrom::Start(TCSR_HEADER_LEN as u64))?;
        self.file.write_all(&self.table)?;
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
struct Section {
    offset: u64,
    len: u64,
    crc: u32,
}

/// Random-access reader for a `tempopr.tcsr.v2` file: validates the CRC'd
/// header and section table on open, then pages individual part-shards in
/// on demand ([`TcsrFile::read_part`]), verifying each section's CRC
/// before decoding. Interior mutability (a mutex around the file handle)
/// keeps reads `&self` so the store can share one reader across threads.
#[derive(Debug)]
pub struct TcsrFile {
    file: Mutex<File>,
    sections: Vec<Section>,
    num_global_vertices: usize,
}

impl TcsrFile {
    /// Opens and validates header + section table.
    pub fn open(path: &Path) -> Result<TcsrFile, StorageError> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut header = [0u8; TCSR_HEADER_LEN];
        file.read_exact(&mut header)
            .map_err(|_| StorageError::BadHeader("file shorter than the fixed header".into()))?;
        let mut fields =
            framing::open_header(&header, TCSR_MAGIC, TCSR_VERSION).map_err(|e| match e {
                HeaderError::Magic => StorageError::BadHeader("bad magic".into()),
                HeaderError::Version(v) => StorageError::Unsupported(v),
                HeaderError::Crc => StorageError::BadHeader("header CRC mismatch".into()),
            })?;
        let num_parts = fields.u32()? as usize;
        if num_parts == 0 || num_parts > TCSR_MAX_PARTS {
            return Err(StorageError::BadHeader(format!(
                "part count {num_parts} outside 1..={TCSR_MAX_PARTS}"
            )));
        }
        let num_global_vertices = usize::try_from(fields.u64()?)
            .map_err(|_| StorageError::BadHeader("vertex count overflows usize".into()))?;
        let table_len = num_parts * TCSR_SECTION_ENTRY_LEN;
        if file_len < (TCSR_HEADER_LEN + table_len + 4) as u64 {
            return Err(StorageError::BadHeader(
                "file shorter than its section table".into(),
            ));
        }
        let mut table = vec![0u8; table_len + 4];
        file.read_exact(&mut table)?;
        let mut entries = framing::unseal(&table)
            .ok_or_else(|| corrupt("section-table", "table CRC mismatch"))?;
        // The writer lays sections out back to back after the table, so
        // they must tile the rest of the file in order: a permuted,
        // overlapping or gapped table is corrupt even when its CRC holds.
        let mut end = (TCSR_HEADER_LEN + table_len + 4) as u64;
        let mut sections = Vec::with_capacity(num_parts);
        for p in 0..num_parts {
            let (offset, len, crc) = (entries.u64()?, entries.u64()?, entries.u32()?);
            if offset != end {
                return Err(corrupt(
                    "section-table",
                    format!("section {p} starts at {offset}, not at {end}"),
                ));
            }
            end = offset
                .checked_add(len)
                .filter(|&e| e <= file_len)
                .ok_or_else(|| {
                    corrupt(
                        "section-table",
                        format!("section {p} extends past end of file"),
                    )
                })?;
            sections.push(Section { offset, len, crc });
        }
        if end != file_len {
            return Err(corrupt(
                "section-table",
                format!("sections end at {end}, the file at {file_len}"),
            ));
        }
        Ok(TcsrFile {
            file: Mutex::new(file),
            sections,
            num_global_vertices,
        })
    }

    /// Number of part-shard sections.
    pub fn num_parts(&self) -> usize {
        self.sections.len()
    }

    /// Global vertex universe recorded in the header.
    pub fn num_global_vertices(&self) -> usize {
        self.num_global_vertices
    }

    /// Encoded length of section `p` in bytes.
    pub fn section_len(&self, p: usize) -> usize {
        usize::try_from(self.sections[p].len).unwrap_or(usize::MAX)
    }

    /// Resident footprint of the reader itself (the section table).
    pub fn memory_bytes(&self) -> usize {
        self.sections.len() * std::mem::size_of::<Section>()
    }

    /// Pages section `p` into `scratch`, verifies its CRC, and decodes the
    /// resident part. Bit-identical to the part the writer encoded.
    pub fn read_part(
        &self,
        p: usize,
        scratch: &mut DecodeScratch,
    ) -> Result<MultiWindowGraph, StorageError> {
        let section = *self
            .sections
            .get(p)
            .ok_or_else(|| corrupt("section-table", format!("no section {p}")))?;
        let len = usize::try_from(section.len)
            .map_err(|_| corrupt("section-table", format!("section {p} length overflow")))?;
        // Exact growth: the scratch buffer's capacity stays at the largest
        // section seen, which is what the budget planner charges for it —
        // amortized doubling would overshoot a certified budget.
        scratch.bytes.clear();
        scratch.bytes.reserve_exact(len);
        scratch.bytes.resize(len, 0);
        {
            let mut file = self
                .file
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            file.seek(SeekFrom::Start(section.offset))?;
            file.read_exact(&mut scratch.bytes).map_err(|e| {
                if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    corrupt("payload", format!("section {p} truncated"))
                } else {
                    StorageError::Io(e)
                }
            })?;
        }
        if crc32(&scratch.bytes) != section.crc {
            return Err(corrupt("payload", format!("section {p} CRC mismatch")));
        }
        CompressedPart::decode_payload(&scratch.bytes)
    }
}

// --- Budget planning ----------------------------------------------------

/// Always-resident metadata of one encoded part: carry, resume and failure
/// paths need these without a decode.
#[derive(Debug, Clone)]
pub struct PartMeta {
    /// Global window range the part serves.
    pub windows: Range<usize>,
    /// Sorted local -> global vertex map.
    pub vertex_map: Box<[VertexId]>,
    /// [`MultiWindowGraph::storage_bytes`] of the decoded part: what a
    /// fetch reserves against the budget *before* its decode allocates.
    pub decoded_bytes: usize,
}

/// A partition built and encoded part by part (one decoded part alive at a
/// time). The planner's exact check and the non-resident stores both build
/// through here, so a store can take over the partition its plan measured.
#[derive(Debug, Clone)]
pub struct EncodedPartition {
    /// The encoded parts, in window order.
    pub parts: Vec<CompressedPart>,
    /// Their resident metadata, aligned with `parts`.
    pub metas: Vec<PartMeta>,
}

impl EncodedPartition {
    /// Builds and encodes the `num_parts`-part partition of `spec`.
    pub fn build(
        log: &EventLog,
        spec: WindowSpec,
        num_parts: usize,
        strategy: PartitionStrategy,
    ) -> Result<EncodedPartition, crate::GraphError> {
        let (mut parts, mut metas) = (Vec::new(), Vec::new());
        let visit = |g: MultiWindowGraph| {
            metas.push(PartMeta {
                windows: g.windows(),
                vertex_map: g.vertex_map().into(),
                decoded_bytes: g.storage_bytes(),
            });
            parts.push(CompressedPart::encode(&g));
            Ok::<(), std::convert::Infallible>(())
        };
        match MultiWindowSet::visit_parts(log, spec, num_parts, strategy, visit) {
            Ok(_) => Ok(EncodedPartition { parts, metas }),
            Err(VisitError::Graph(e)) => Err(e),
            Err(VisitError::Visitor(i)) => match i {},
        }
    }

    /// The exact resident footprint under `profile` with `slots` cache slots.
    pub fn footprint(&self, profile: StorageProfile, slots: usize) -> usize {
        let sizes = self.parts.iter().zip(&self.metas);
        let sizes = sizes.map(|(c, m)| (m.decoded_bytes, c.payload_len(), m.vertex_map.len()));
        charge(profile, slots, &sizes.collect::<Vec<_>>())
    }
}

/// The footprint rule over per-part `(decoded bytes, encoded bytes, mapped
/// vertices)`, monotone in each. The decoded working set is charged as the
/// sum of the `slots` largest decoded parts — the worst simultaneous
/// occupancy a slot-bounded cache can reach — and the on-disk profile
/// additionally charges one read-scratch buffer (worst section) per slot,
/// since concurrent page-ins cannot share one buffer.
fn charge(profile: StorageProfile, slots: usize, sizes: &[(usize, usize, usize)]) -> usize {
    let mut decoded: Vec<usize> = sizes.iter().map(|s| s.0).collect();
    decoded.sort_unstable_by(|a, b| b.cmp(a));
    // A cache can never hold (or page in) more parts at once than exist:
    // the charge saturates at the part count.
    let slots = slots.clamp(1, sizes.len().max(1));
    let worst_decoded: usize = decoded.iter().take(slots).sum();
    let encoded = sizes.iter().map(|s| s.1);
    let map_bytes: usize = sizes
        .iter()
        .map(|s| s.2 * std::mem::size_of::<VertexId>())
        .sum();
    match profile {
        StorageProfile::Resident => decoded.first().copied().unwrap_or(0),
        StorageProfile::Compressed => {
            encoded.sum::<usize>() + map_bytes + sizes.len() * PART_RUNTIME_OVERHEAD + worst_decoded
        }
        StorageProfile::OnDisk => {
            sizes.len() * (TCSR_SECTION_ENTRY_LEN + PART_RUNTIME_OVERHEAD)
                + map_bytes
                + slots * encoded.max().unwrap_or(0)
                + worst_decoded
        }
    }
}

/// The resident footprint of one candidate partition under `profile` with
/// `slots` cache slots, measured on the *actual* built and encoded parts:
/// the exact measure every planning decision agrees with.
fn partition_footprint(
    log: &EventLog,
    spec: &WindowSpec,
    parts: usize,
    strategy: PartitionStrategy,
    profile: StorageProfile,
    slots: usize,
) -> usize {
    EncodedPartition::build(log, *spec, parts, strategy)
        .map_or(usize::MAX, |e| e.footprint(profile, slots))
}

/// A lower bound on [`partition_footprint`] from one marking pass over each
/// part's time slice and no CSR: decoded and vertex-map bytes are closed
/// forms of a part's distinct vertices, stored entries and windows, hence
/// exact, and every varint the format must write is at least a byte. For
/// [`StorageProfile::Resident`], which charges none, it *is* the footprint.
fn footprint_lower_bound(
    log: &EventLog,
    spec: &WindowSpec,
    parts: usize,
    strategy: PartitionStrategy,
    profile: StorageProfile,
    slots: usize,
) -> usize {
    let Ok(boundaries) = part_boundaries(log, spec, parts, strategy) else {
        return usize::MAX;
    };
    // `seen[v] == p + 1` marks v counted for part p: no reset between parts.
    let mut seen = vec![0usize; log.num_vertices()];
    let size = |(p, b): (usize, &[usize])| {
        let (windows, span) = (b[1] - b[0], spec.span_of(b[0]..b[1]));
        let (mut vertices, mut entries) = (0usize, 0usize);
        for e in log.slice_by_time(span.start, span.end) {
            for x in [e.u, e.v] {
                vertices += usize::from(std::mem::replace(&mut seen[x as usize], p + 1) != p + 1);
            }
            entries += if e.u != e.v { 2 } else { 1 };
        }
        // `storage_bytes`: map, ranges; the CSR's offsets and entries.
        let csr = 8 * (vertices + 1) + 12 * entries;
        let decoded = 4 * vertices + 16 * windows + csr;
        // Seven header bytes, two varints a window, a gap per vertex; the
        // CSR's two counts, a row length per vertex, two varints an entry.
        let encoded = 7 + 2 * windows + vertices + 2 + vertices + 2 * entries;
        (decoded, encoded, vertices)
    };
    let sizes: Vec<_> = boundaries.windows(2).enumerate().map(size).collect();
    charge(profile, slots, &sizes)
}

/// What one budget search did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Candidate part counts weighed (ladder and bisection).
    pub candidates: usize,
    /// Candidates the count-based lower bound ruled out unbuilt.
    pub rejected_by_bound: usize,
    /// Candidates built and encoded for their exact footprint.
    pub trial_builds: usize,
}

/// A feasible plan.
#[derive(Debug, Clone)]
pub struct PartitionPlan {
    /// The smallest feasible part count.
    pub parts: usize,
    /// Its exact footprint in bytes (at most the budget).
    pub footprint: usize,
    /// The partition itself when the search had to build it to be sure
    /// (non-resident profiles), for the store to take over.
    pub encoded: Option<EncodedPartition>,
}

/// Plans the smallest part count whose resident footprint under `profile`
/// with `slots` simultaneously-resident decoded parts fits `budget_bytes`,
/// probing a geometric ladder of candidate counts and refining between the
/// last infeasible and first feasible candidates. `slots` is the
/// cache-slot count a shard-parallel run keeps pinned at once (workers
/// plus prefetch depth); a serial walk passes 1 and recovers the
/// historical one-decoded-part rule.
///
/// A candidate whose count-based lower bound already exceeds the budget is
/// infeasible for certain and is never built; only one the bound cannot
/// exclude is built and encoded for its exact footprint, and the last one
/// found to fit — the answer — comes back in the plan. Every decision is
/// the exact footprint's (DESIGN.md §12.3). An infeasible budget is a
/// [`BudgetError`] carrying the smallest exact footprint on the ladder;
/// the tally comes back either way.
pub fn plan_partition(
    log: &EventLog,
    spec: &WindowSpec,
    budget_bytes: usize,
    strategy: PartitionStrategy,
    profile: StorageProfile,
    slots: usize,
) -> (PlanStats, Result<PartitionPlan, BudgetError>) {
    let bound = |parts| footprint_lower_bound(log, spec, parts, strategy, profile, slots);
    let mut stats = PlanStats::default();
    // The last candidate found to fit. Ladder and bisection both end on
    // their last fitting candidate, so this is the answer.
    let mut fit = None;
    let mut fits = |parts: usize| {
        stats.candidates += 1;
        let mut footprint = bound(parts);
        if footprint > budget_bytes {
            stats.rejected_by_bound += 1;
            return false;
        }
        let mut encoded = None;
        if profile != StorageProfile::Resident {
            stats.trial_builds += 1;
            encoded = EncodedPartition::build(log, *spec, parts, strategy).ok();
            footprint = encoded
                .as_ref()
                .map_or(usize::MAX, |e| e.footprint(profile, slots));
        }
        if footprint <= budget_bytes {
            fit = Some(PartitionPlan {
                parts,
                footprint,
                encoded,
            });
        }
        footprint <= budget_bytes
    };
    let max = spec.count.max(1);
    let mut candidates: Vec<usize> = Vec::new();
    let mut c = 1usize;
    while c < max {
        candidates.push(c);
        c = c.saturating_mul(2);
    }
    candidates.push(max);
    let mut prev = 0usize;
    for &cand in &candidates {
        if fits(cand) {
            // Refine: smallest count in (prev, cand] that still fits (the
            // worst-part footprint shrinks with the count inside one
            // ladder step, so a local binary search is sound).
            let (mut lo, mut hi) = (prev + 1, cand);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if fits(mid) {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            break;
        }
        prev = cand;
    }
    let exact = |&parts: &usize| match profile {
        StorageProfile::Resident => bound(parts),
        _ => partition_footprint(log, spec, parts, strategy, profile, slots),
    };
    let plan = fit.ok_or_else(|| BudgetError {
        required: candidates.iter().map(exact).min().unwrap_or(usize::MAX),
        budget: budget_bytes,
    });
    (stats, plan)
}

/// [`plan_partition`], keeping only the part count. Every part is
/// symmetric, so no budget fits `symmetric: false`: it is refused with a
/// [`BudgetError`] whose `required` is `usize::MAX`, and the flag stays
/// only so that existing callers keep compiling.
pub fn plan_parts_for_budget(
    log: &EventLog,
    spec: &WindowSpec,
    budget_bytes: usize,
    symmetric: bool,
    strategy: PartitionStrategy,
    profile: StorageProfile,
    slots: usize,
) -> Result<usize, BudgetError> {
    if !symmetric {
        return Err(BudgetError {
            required: usize::MAX,
            budget: budget_bytes,
        });
    }
    let plan = plan_partition(log, spec, budget_bytes, strategy, profile, slots).1;
    plan.map(|p| p.parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::Event;

    fn ev(u: u32, v: u32, t: i64) -> Event {
        Event::new(u, v, t)
    }

    fn sample_log() -> EventLog {
        let mut events = Vec::new();
        for i in 0..200u32 {
            events.push(ev(i % 11, (i * 7 + 3) % 11, i64::from(i) * 3 % 170));
        }
        EventLog::from_unsorted(events, 11).unwrap()
    }

    fn sample_set(parts: usize) -> (MultiWindowSet, WindowSpec) {
        let log = sample_log();
        let spec = WindowSpec::covering(&log, 40, 20).unwrap();
        let set =
            MultiWindowSet::build(&log, spec, parts, true, PartitionStrategy::default()).unwrap();
        (set, spec)
    }

    fn assert_parts_equal(a: &MultiWindowGraph, b: &MultiWindowGraph) {
        assert_eq!(a.windows(), b.windows());
        assert_eq!(a.span(), b.span());
        assert_eq!(a.vertex_map(), b.vertex_map());
        assert_eq!(a.window_ranges(), b.window_ranges());
        let (x, y) = (a.tcsr(), b.tcsr());
        assert_eq!(x.num_vertices(), y.num_vertices());
        assert_eq!(x.row_offsets(), y.row_offsets());
        assert_eq!(x.col_indices(), y.col_indices());
        assert_eq!(x.timestamps(), y.timestamps());
    }

    #[test]
    fn compressed_roundtrip_bit_parity() {
        let (set, _) = sample_set(3);
        for part in set.graphs() {
            let c = CompressedPart::encode(part);
            let back = c.decode().unwrap();
            assert_parts_equal(part, &back);
        }
    }

    #[test]
    fn compression_shrinks_the_sample() {
        let (set, _) = sample_set(2);
        for part in set.graphs() {
            let c = CompressedPart::encode(part);
            assert!(
                c.payload_len() < part.storage_bytes(),
                "payload {} >= resident {}",
                c.payload_len(),
                part.storage_bytes()
            );
        }
    }

    #[test]
    fn file_roundtrip_bit_parity() {
        let dir = std::env::temp_dir().join(format!("tcsr_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("parts.tcsr");
        let (set, _) = sample_set(3);
        let mut w = TcsrFileWriter::create(&path, set.num_parts(), 11).unwrap();
        for part in set.graphs() {
            w.append(&CompressedPart::encode(part)).unwrap();
        }
        w.finish().unwrap();
        let f = TcsrFile::open(&path).unwrap();
        assert_eq!(f.num_parts(), set.num_parts());
        assert_eq!(f.num_global_vertices(), 11);
        let mut scratch = DecodeScratch::default();
        for (p, part) in set.graphs().iter().enumerate() {
            let back = f.read_part(p, &mut scratch).unwrap();
            assert_parts_equal(part, &back);
        }
        assert!(scratch.memory_bytes() > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_refuses_wrong_section_count() {
        let dir = std::env::temp_dir().join(format!("tcsr_wc_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("short.tcsr");
        let (set, _) = sample_set(2);
        let w = TcsrFileWriter::create(&path, 2, 11).unwrap();
        // Append only one of the two declared parts.
        let mut w = w;
        w.append(&CompressedPart::encode(&set.graphs()[0])).unwrap();
        assert!(matches!(w.finish(), Err(StorageError::BadHeader(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A three-part file whose section table is forged with its CRC
    /// recomputed: every section still passes its own CRC, so only the
    /// tiling rule can refuse the table.
    #[test]
    fn forged_section_tables_that_do_not_tile_the_file_are_corrupt() {
        let dir = std::env::temp_dir().join(format!("tcsr_forged_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("parts.tcsr");
        let (set, _) = sample_set(3);
        let mut w = TcsrFileWriter::create(&path, 3, 11).unwrap();
        for part in set.graphs() {
            w.append(&CompressedPart::encode(part)).unwrap();
        }
        w.finish().unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let table = TCSR_HEADER_LEN..TCSR_HEADER_LEN + 3 * TCSR_SECTION_ENTRY_LEN;
        // Moves entry `e`'s offset by `start` and its length by `len`.
        fn nudge(entries: &mut [u8], e: usize, start: i64, len: i64) {
            for (field, by) in [(0, start), (1, len)] {
                let at = e * TCSR_SECTION_ENTRY_LEN + field * 8;
                let x = u64::from_le_bytes(entries[at..at + 8].try_into().unwrap());
                entries[at..at + 8].copy_from_slice(&x.wrapping_add_signed(by).to_le_bytes());
            }
        }
        for what in ["swapped", "overlapping", "gapped"] {
            let mut entries = pristine[table.clone()].to_vec();
            match what {
                "swapped" => {
                    let (first, rest) = entries.split_at_mut(TCSR_SECTION_ENTRY_LEN);
                    first.swap_with_slice(&mut rest[..TCSR_SECTION_ENTRY_LEN]);
                }
                // Section 1 starts one byte inside section 0.
                "overlapping" => nudge(&mut entries, 1, -1, 1),
                // One byte between sections 0 and 1; the last still ends
                // at the end of the file.
                _ => nudge(&mut entries, 1, 1, -1),
            }
            framing::seal(&mut entries);
            let mut bytes = pristine.clone();
            bytes[table.start..table.end + 4].copy_from_slice(&entries);
            std::fs::write(&path, &bytes).unwrap();
            match TcsrFile::open(&path) {
                Err(StorageError::Corrupt { section, .. }) => {
                    assert_eq!(section, "section-table", "{what}");
                }
                other => panic!("{what}: opened as {other:?}"),
            }
        }
        std::fs::write(&path, &pristine).unwrap();
        assert_eq!(TcsrFile::open(&path).unwrap().num_parts(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plan_parts_resident_matches_feasibility() {
        let log = sample_log();
        let spec = WindowSpec::covering(&log, 40, 20).unwrap();
        let parts = plan_parts_for_budget(
            &log,
            &spec,
            usize::MAX,
            true,
            PartitionStrategy::default(),
            StorageProfile::Resident,
            1,
        )
        .unwrap();
        assert_eq!(parts, 1);
        let err = plan_parts_for_budget(
            &log,
            &spec,
            1,
            true,
            PartitionStrategy::default(),
            StorageProfile::Resident,
            1,
        )
        .unwrap_err();
        assert_eq!(err.budget, 1);
        assert!(err.required > 1);
        assert!(err.to_string().contains("minimal feasible budget"));
        // The reported requirement is actually feasible.
        assert!(plan_parts_for_budget(
            &log,
            &spec,
            err.required,
            true,
            PartitionStrategy::default(),
            StorageProfile::Resident,
            1,
        )
        .is_ok());
    }

    #[test]
    fn slot_charging_is_monotone_and_bounded() {
        let log = sample_log();
        let spec = WindowSpec::covering(&log, 40, 20).unwrap();
        for profile in [StorageProfile::Compressed, StorageProfile::OnDisk] {
            let fp = |slots| {
                partition_footprint(&log, &spec, 4, PartitionStrategy::default(), profile, slots)
            };
            let (one, two, four, many) = (fp(1), fp(2), fp(4), fp(64));
            // More slots charge more resident parts, monotonically, and
            // saturate once every part is charged.
            assert!(two > one, "{profile:?}: {two} <= {one}");
            assert!(four >= two, "{profile:?}");
            assert_eq!(many, fp(4096), "{profile:?}: charge saturates");
            // Two slots charge the two largest decoded parts, not 2x the
            // worst: the increment over one slot is at most the worst part.
            assert!(two - one <= one, "{profile:?}: {two} vs {one}");
            assert!(many >= four, "{profile:?}");
        }
        // The resident profile keeps everything resident already: slots
        // change nothing.
        let res = |slots| {
            partition_footprint(
                &log,
                &spec,
                4,
                PartitionStrategy::default(),
                StorageProfile::Resident,
                slots,
            )
        };
        assert_eq!(res(1), res(4));
    }

    #[test]
    fn plan_with_more_slots_needs_more_parts_or_budget() {
        let log = sample_log();
        let spec = WindowSpec::covering(&log, 40, 20).unwrap();
        // Pick a budget on the feasibility edge for one slot, then confirm
        // the four-slot plan never returns *fewer* parts at the same
        // budget (its footprint per candidate is >=).
        let err = plan_parts_for_budget(
            &log,
            &spec,
            1,
            true,
            PartitionStrategy::default(),
            StorageProfile::Compressed,
            1,
        )
        .unwrap_err();
        let budget = err.required;
        let one = plan_parts_for_budget(
            &log,
            &spec,
            budget,
            true,
            PartitionStrategy::default(),
            StorageProfile::Compressed,
            1,
        )
        .unwrap();
        match plan_parts_for_budget(
            &log,
            &spec,
            budget,
            true,
            PartitionStrategy::default(),
            StorageProfile::Compressed,
            4,
        ) {
            Ok(four) => assert!(four >= one, "four-slot plan {four} < one-slot plan {one}"),
            Err(e) => assert!(e.required > budget),
        }
    }

    const PROFILES: [StorageProfile; 3] = [
        StorageProfile::Resident,
        StorageProfile::Compressed,
        StorageProfile::OnDisk,
    ];

    /// Every `(strategy, profile, slots)` the planner tests sweep: both
    /// strategies, all profiles, 1 to 3 slots.
    fn configurations() -> Vec<(PartitionStrategy, StorageProfile, usize)> {
        let mut all = Vec::new();
        for strategy in [
            PartitionStrategy::EqualWindows,
            PartitionStrategy::EqualEvents,
        ] {
            for profile in PROFILES {
                all.extend((1..=3).map(|slots| (strategy, profile, slots)));
            }
        }
        all
    }

    /// The planner this module had before it learned to count: every
    /// candidate of the ladder and of the bisection is trial-built and
    /// trial-encoded for its exact footprint. Kept as the oracle
    /// [`plan_partition`] must agree with, decision for decision.
    fn trial_build_oracle(
        log: &EventLog,
        spec: &WindowSpec,
        budget_bytes: usize,
        strategy: PartitionStrategy,
        profile: StorageProfile,
        slots: usize,
    ) -> Result<usize, BudgetError> {
        let footprint =
            |parts: usize| partition_footprint(log, spec, parts, strategy, profile, slots);
        let max = spec.count.max(1);
        let mut candidates: Vec<usize> = Vec::new();
        let mut c = 1usize;
        while c < max {
            candidates.push(c);
            c = c.saturating_mul(2);
        }
        candidates.push(max);
        let mut min_required = usize::MAX;
        let mut prev = 0usize;
        for &cand in &candidates {
            let fp = footprint(cand);
            min_required = min_required.min(fp);
            if fp <= budget_bytes {
                let (mut lo, mut hi) = (prev + 1, cand);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if footprint(mid) <= budget_bytes {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                return Ok(lo);
            }
            prev = cand;
        }
        Err(BudgetError {
            required: min_required,
            budget: budget_bytes,
        })
    }

    #[test]
    fn planner_equals_trial_build_oracle_across_every_feasibility_edge() {
        let log = sample_log();
        let spec = WindowSpec::covering(&log, 40, 20).unwrap();
        assert!(spec.count >= 6, "the sweep wants a ladder and a bisection");
        for (strategy, profile, slots) in configurations() {
            let exact = |parts| partition_footprint(&log, &spec, parts, strategy, profile, slots);
            // Budgets on, just under and just over the exact footprint of
            // every candidate count: every decision the search can face
            // flips in here.
            let mut budgets = vec![0, 1, usize::MAX];
            for fp in (1..=spec.count).map(exact) {
                budgets.extend([fp - 1, fp, fp + 1]);
            }
            for budget in budgets {
                let what = format!("{profile:?} slots={slots} {strategy:?} budget={budget}");
                let (stats, plan) = plan_partition(&log, &spec, budget, strategy, profile, slots);
                let oracle = trial_build_oracle(&log, &spec, budget, strategy, profile, slots);
                assert_eq!(
                    plan.as_ref().map(|p| p.parts).map_err(|e| *e),
                    oracle,
                    "{what}"
                );
                assert!(stats.rejected_by_bound + stats.trial_builds <= stats.candidates);
                let Ok(plan) = plan else { continue };
                // The plan is priced at the exact footprint, and a built
                // winner comes back with it.
                assert_eq!(plan.footprint, exact(plan.parts), "{what}");
                assert!(plan.footprint <= budget, "{what}");
                match (profile, &plan.encoded) {
                    (StorageProfile::Resident, None) => assert_eq!(stats.trial_builds, 0),
                    (StorageProfile::Resident, Some(_)) => panic!("{what}: built"),
                    (_, None) => panic!("{what}: winner not handed over"),
                    (_, Some(e)) => {
                        assert_eq!(e.parts.len(), plan.parts, "{what}");
                        assert_eq!(e.footprint(profile, slots), plan.footprint, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn lower_bound_is_sound_and_exact_for_resident() {
        let log = sample_log();
        let spec = WindowSpec::covering(&log, 40, 20).unwrap();
        for (strategy, profile, slots) in configurations() {
            for parts in 1..=spec.count {
                let bound = footprint_lower_bound(&log, &spec, parts, strategy, profile, slots);
                let exact = partition_footprint(&log, &spec, parts, strategy, profile, slots);
                let what = format!("{profile:?} slots={slots} parts={parts} {strategy:?}");
                assert!(bound <= exact, "{what}: bound {bound} > exact {exact}");
                if profile == StorageProfile::Resident {
                    assert_eq!(bound, exact, "{what}");
                } else {
                    // Not vacuous either: the decoded terms are exact, so
                    // the bound is most of the way.
                    assert!(2 * bound > exact, "{what}: bound {bound} of {exact}");
                }
            }
        }
    }

    #[test]
    fn counting_replaces_the_builds_it_can_rule_out() {
        let log = sample_log();
        let spec = WindowSpec::covering(&log, 40, 20).unwrap();
        let plan = |budget, profile| {
            plan_partition(
                &log,
                &spec,
                budget,
                PartitionStrategy::default(),
                profile,
                1,
            )
        };
        // Resident footprints are exact from counts: no build, feasible or
        // not.
        let one_part = plan(usize::MAX, StorageProfile::Resident)
            .1
            .unwrap()
            .footprint;
        for budget in [usize::MAX, one_part, one_part / 2, 1] {
            let (stats, _) = plan(budget, StorageProfile::Resident);
            assert_eq!(stats.trial_builds, 0, "budget {budget}");
        }
        // A budget below the smallest decoded part of the finest partition
        // is infeasible by the bound alone on every rung of the ladder.
        let smallest = MultiWindowSet::build(&log, spec, spec.count, true, Default::default())
            .unwrap()
            .graphs()
            .iter()
            .map(|g| g.storage_bytes())
            .min()
            .unwrap();
        for profile in PROFILES {
            let (stats, result) = plan(smallest - 1, profile);
            assert!(result.is_err(), "{profile:?}");
            assert_eq!(stats.trial_builds, 0, "{profile:?}");
            assert_eq!(stats.rejected_by_bound, stats.candidates, "{profile:?}");
            assert!(stats.candidates >= 4, "{profile:?}: 1, 2, 4, count");
        }
        // Where the bound cannot decide, the search builds — and fewer
        // times than it weighs candidates once the budget is tight.
        for profile in [StorageProfile::Compressed, StorageProfile::OnDisk] {
            let required = plan(1, profile).1.unwrap_err().required;
            let (stats, result) = plan(required, profile);
            assert!(result.is_ok(), "{profile:?}");
            assert!(stats.trial_builds >= 1, "{profile:?}");
            assert!(stats.rejected_by_bound >= 1, "{profile:?}: {stats:?}");
        }
    }

    #[test]
    fn encoded_payloads_equal_those_of_comparison_sort_built_parts() {
        use crate::tcsr::tests::comparison_sort_build;
        let log = sample_log();
        let spec = WindowSpec::covering(&log, 40, 20).unwrap();
        let set = MultiWindowSet::build(&log, spec, 3, true, PartitionStrategy::default()).unwrap();
        assert_eq!(set.num_parts(), 3);
        for part in set.graphs() {
            // The oracle part: this part's events under its vertex map,
            // through the comparison-sort build.
            let span = part.span();
            let local: Vec<Event> = log
                .slice_by_time(span.start, span.end)
                .iter()
                .map(|e| {
                    let l = |g| part.local_id(g).unwrap();
                    Event::new(l(e.u), l(e.v), e.t)
                })
                .collect();
            let oracle = MultiWindowGraph::from_raw_parts(
                part.windows(),
                span,
                part.vertex_map().into(),
                comparison_sort_build(part.num_local_vertices(), &local),
                part.window_ranges().into(),
            );
            assert_parts_equal(part, &oracle);
            assert_eq!(
                CompressedPart::encode(part).payload(),
                CompressedPart::encode(&oracle).payload(),
                "windows {:?}",
                part.windows()
            );
        }
    }

    /// Payloads whose varints are each in range but whose sums leave the
    /// integer they decode into: a vertex-map gap past `u64::MAX`, a row's
    /// first time past `i64::MAX` from the span start, a same-run time
    /// delta past it, and a column gap past `u64::MAX`. Each is refused as
    /// corrupt, never an overflow.
    #[test]
    fn overflowing_payload_sums_are_corrupt_not_panics() {
        // Version, windows 0..0, `span`, no ranges, the vertex map `gaps`,
        // then a CSR whose first row holds `entries` and whose other rows
        // are empty (degrees first).
        let payload = |span: i64, gaps: &[u64], entries: &[(u64, i64)]| {
            let mut b = vec![PAYLOAD_VERSION, 0, 0];
            put_ivarint(&mut b, span);
            put_ivarint(&mut b, span);
            b.push(0);
            put_uvarint(&mut b, gaps.len() as u64);
            gaps.iter().for_each(|&g| put_uvarint(&mut b, g));
            put_uvarint(&mut b, gaps.len() as u64);
            put_uvarint(&mut b, entries.len() as u64);
            put_uvarint(&mut b, entries.len() as u64);
            b.extend(vec![0; gaps.len() - 1]);
            for (i, &(col, t)) in entries.iter().enumerate() {
                put_uvarint(&mut b, col);
                // A column gap of 0 after the first entry reads a raw delta.
                if i > 0 && col == 0 {
                    put_uvarint(&mut b, t as u64);
                } else {
                    put_ivarint(&mut b, t);
                }
            }
            b
        };
        for (what, bytes) in [
            ("vertex gap", payload(0, &[5, u64::MAX], &[])),
            ("row's first time", payload(i64::MAX, &[0], &[(0, 1)])),
            ("same-run time", payload(0, &[0], &[(0, i64::MAX), (0, 5)])),
            ("column gap", payload(0, &[0, 1], &[(1, 0), (u64::MAX, 0)])),
        ] {
            match CompressedPart::decode_payload(&bytes) {
                Err(StorageError::Corrupt { section, .. }) => assert_eq!(section, "payload"),
                other => panic!("{what}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn plan_parts_nonresident_profiles_are_cheaper_than_resident_total() {
        let log = sample_log();
        let spec = WindowSpec::covering(&log, 40, 20).unwrap();
        let set = MultiWindowSet::build(&log, spec, 4, true, PartitionStrategy::default()).unwrap();
        let total: usize = set.graphs().iter().map(|g| g.storage_bytes()).sum();
        // A budget below the full resident set is still feasible on-disk.
        let parts = plan_parts_for_budget(
            &log,
            &spec,
            total / 2,
            true,
            PartitionStrategy::default(),
            StorageProfile::OnDisk,
            1,
        );
        assert!(parts.is_ok(), "{parts:?}");
    }
}
