//! Event-file I/O: the SNAP-style text format the paper's datasets ship
//! in, plus a compact binary format for fast reloads.
//!
//! Text format: one event per line, `u v t` separated by whitespace.
//! Lines starting with `#` or `%` are comments (SNAP and network-repository
//! conventions). Vertices are `u32`, timestamps `i64`.
//!
//! Binary format: magic `TPRE`, version byte, little-endian `u64` vertex
//! count and event count, then `(u32, u32, i64)` triples, read a block of
//! [`BLOCK_RECORDS`] records at a time into one reused buffer and decoded
//! from it in place by [`crate::framing::Reader`].
//!
//! Real-world postmortem logs are messy: truncated downloads, forged or
//! corrupted headers, mixed-in garbage lines. Every reader here is
//! panic-free on arbitrary bytes; the text path additionally supports a
//! [`ParseMode::Lenient`] mode that skips (and counts) malformed records
//! instead of aborting, reporting what it saw in an [`IngestReport`].

use crate::error::GraphError;
use crate::events::{Event, EventLog};
use crate::framing::{FrameError, Reader};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors from reading event files.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line (1-based index reported) failed to parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// Lenient parsing gave up: more bad records than the configured cap.
    TooManyBadRecords {
        /// How many records were bad when the reader gave up.
        bad: usize,
        /// The configured cap.
        max_bad_records: usize,
    },
    /// The parsed events failed graph validation.
    Graph(GraphError),
    /// The binary header was malformed (bad magic/version, or a declared
    /// record count inconsistent with the actual input size).
    BadHeader(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, message } => write!(f, "line {line}: {message}"),
            IoError::TooManyBadRecords {
                bad,
                max_bad_records,
            } => write!(
                f,
                "giving up after {bad} bad records (lenient cap {max_bad_records})"
            ),
            IoError::Graph(e) => write!(f, "invalid event set: {e}"),
            IoError::BadHeader(m) => write!(f, "bad binary header: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// A field cut short: the truncation `read_exact` reports.
impl From<FrameError> for IoError {
    fn from(e: FrameError) -> Self {
        IoError::Io(io::Error::new(io::ErrorKind::UnexpectedEof, e))
    }
}

impl From<GraphError> for IoError {
    fn from(e: GraphError) -> Self {
        IoError::Graph(e)
    }
}

/// How the text parser treats malformed records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParseMode {
    /// Any malformed line aborts the read with a line-numbered error.
    #[default]
    Strict,
    /// Malformed lines are skipped and counted in the [`IngestReport`];
    /// the read aborts only when more than `max_bad_records` lines were
    /// dropped (a cap of `usize::MAX` means "never give up").
    Lenient {
        /// Maximum number of records to drop before aborting.
        max_bad_records: usize,
    },
}

/// What an ingest pass saw, beyond the events it accepted.
///
/// The counts are diagnostic, not corrective: self-loops, duplicates, and
/// out-of-order lines are *legal* (the log is re-sorted on load) and are
/// kept; only malformed / overflowing records are dropped, and only in
/// [`ParseMode::Lenient`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Non-comment, non-blank data lines seen.
    pub lines: usize,
    /// Events accepted into the log.
    pub accepted: usize,
    /// Malformed lines dropped (lenient mode only).
    pub skipped_bad: usize,
    /// Lines dropped because a vertex id exceeded `u32` range.
    pub overflow: usize,
    /// Accepted events with `u == v`.
    pub self_loops: usize,
    /// Accepted events identical to another `(u, v, t)` event.
    pub duplicates: usize,
    /// Lines whose timestamp was smaller than the preceding line's.
    pub out_of_order: usize,
    /// Bytes found after the last declared binary record (binary readers
    /// only; strict mode rejects them instead of counting).
    pub trailing_bytes: usize,
    /// Per-section byte counts of a binary read (lenient mode only):
    /// `(section name, bytes)` in file order — header, records, trailing.
    /// Matches the sectioned discipline of the `tempopr.tcsr.v1` storage
    /// format so binary diagnostics read the same everywhere.
    pub sections: Vec<(String, u64)>,
    /// First few per-line messages for the dropped records.
    pub diagnostics: Vec<String>,
}

impl IngestReport {
    /// How many per-line diagnostics are retained verbatim.
    pub const MAX_DIAGNOSTICS: usize = 8;

    fn note(&mut self, line: usize, msg: &str) {
        if self.diagnostics.len() < Self::MAX_DIAGNOSTICS {
            self.diagnostics.push(format!("line {line}: {msg}"));
        }
    }

    /// Total records dropped.
    pub fn dropped(&self) -> usize {
        self.skipped_bad + self.overflow
    }

    /// True when nothing unusual was seen (no drops, loops, duplicates,
    /// reordering, or trailing bytes).
    pub fn is_clean(&self) -> bool {
        self.dropped() == 0
            && self.self_loops == 0
            && self.duplicates == 0
            && self.out_of_order == 0
            && self.trailing_bytes == 0
    }

    /// One-line human summary, suitable for CLI output.
    pub fn summary(&self) -> String {
        format!(
            "ingest: {} lines, {} events accepted, {} dropped ({} malformed, {} overflow), \
             {} self-loops, {} duplicates, {} out-of-order, {} trailing bytes",
            self.lines,
            self.accepted,
            self.dropped(),
            self.skipped_bad,
            self.overflow,
            self.self_loops,
            self.duplicates,
            self.out_of_order,
            self.trailing_bytes
        )
    }
}

/// Parses a text event stream (`u v t` per line, `#`/`%` comments).
///
/// Strict-mode convenience wrapper around [`read_text_report`].
///
/// ```
/// let log = tempopr_graph::io::read_text("# comment\n0 1 10\n1 2 20\n".as_bytes()).unwrap();
/// assert_eq!(log.len(), 2);
/// assert_eq!(log.num_vertices(), 3);
/// ```
pub fn read_text<R: Read>(reader: R) -> Result<EventLog, IoError> {
    read_text_report(reader, ParseMode::Strict).map(|(log, _)| log)
}

/// Parses a text event stream under the given [`ParseMode`], reporting
/// everything unusual it saw in an [`IngestReport`].
pub fn read_text_report<R: Read>(
    reader: R,
    mode: ParseMode,
) -> Result<(EventLog, IngestReport), IoError> {
    let mut events = Vec::new();
    let mut report = IngestReport::default();
    let mut line_buf = String::new();
    let mut reader = BufReader::new(reader);
    let mut lineno = 0usize;
    let mut prev_t: Option<i64> = None;
    // Workhorse-string loop (perf-book): one allocation for the whole file.
    loop {
        line_buf.clear();
        if reader.read_line(&mut line_buf)? == 0 {
            break;
        }
        lineno += 1;
        let line = line_buf.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        report.lines += 1;
        let mut it = line.split_whitespace();
        let parse = |field: Option<&str>, what: &str| -> Result<i64, String> {
            field
                .ok_or_else(|| format!("missing {what}"))?
                .parse::<i64>()
                .map_err(|e| format!("bad {what}: {e}"))
        };
        let parsed = parse(it.next(), "source vertex")
            .and_then(|u| parse(it.next(), "destination vertex").map(|v| (u, v)))
            .and_then(|(u, v)| parse(it.next(), "timestamp").map(|t| (u, v, t)));
        let (u, v, t) = match parsed {
            Ok(rec) => rec,
            Err(message) => match mode {
                ParseMode::Strict => {
                    return Err(IoError::Parse {
                        line: lineno,
                        message,
                    })
                }
                ParseMode::Lenient { max_bad_records } => {
                    report.skipped_bad += 1;
                    report.note(lineno, &message);
                    if report.dropped() > max_bad_records {
                        return Err(IoError::TooManyBadRecords {
                            bad: report.dropped(),
                            max_bad_records,
                        });
                    }
                    continue;
                }
            },
        };
        if !(0..=u32::MAX as i64).contains(&u) || !(0..=u32::MAX as i64).contains(&v) {
            let message = format!("vertex id out of u32 range: {u} {v}");
            match mode {
                ParseMode::Strict => {
                    return Err(IoError::Parse {
                        line: lineno,
                        message,
                    })
                }
                ParseMode::Lenient { max_bad_records } => {
                    report.overflow += 1;
                    report.note(lineno, &message);
                    if report.dropped() > max_bad_records {
                        return Err(IoError::TooManyBadRecords {
                            bad: report.dropped(),
                            max_bad_records,
                        });
                    }
                    continue;
                }
            }
        }
        if u == v {
            report.self_loops += 1;
        }
        if prev_t.is_some_and(|p| t < p) {
            report.out_of_order += 1;
        }
        prev_t = Some(t);
        events.push(Event::new(u as u32, v as u32, t));
    }
    report.accepted = events.len();
    let log = EventLog::from_unsorted_auto(events)?;
    // Duplicate counting needs (u, v) order *within* each timestamp, but
    // the log's stable time sort must otherwise be preserved (text
    // round-trips keep their within-timestamp event order), so sort a
    // scratch copy of each equal-t run instead of the events themselves.
    let evs = log.events();
    let mut scratch: Vec<(u32, u32)> = Vec::new();
    let mut i = 0;
    while i < evs.len() {
        let mut j = i + 1;
        while j < evs.len() && evs[j].t == evs[i].t {
            j += 1;
        }
        if j - i > 1 {
            scratch.clear();
            scratch.extend(evs[i..j].iter().map(|e| (e.u, e.v)));
            scratch.sort_unstable();
            report.duplicates += scratch.windows(2).filter(|w| w[0] == w[1]).count();
        }
        i = j;
    }
    Ok((log, report))
}

/// Reads a text event file from `path`.
pub fn read_text_file<P: AsRef<Path>>(path: P) -> Result<EventLog, IoError> {
    read_text(std::fs::File::open(path)?)
}

/// Reads a text event file from `path` under the given [`ParseMode`].
pub fn read_text_file_report<P: AsRef<Path>>(
    path: P,
    mode: ParseMode,
) -> Result<(EventLog, IngestReport), IoError> {
    read_text_report(std::fs::File::open(path)?, mode)
}

/// Writes the log as text (`u v t` per line) with a comment header.
pub fn write_text<W: Write>(log: &EventLog, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# temporal edge set: {} events, {} vertices",
        log.len(),
        log.num_vertices()
    )?;
    for e in log.events() {
        writeln!(w, "{} {} {}", e.u, e.v, e.t)?;
    }
    w.flush()?;
    Ok(())
}

/// Writes a text event file to `path`.
pub fn write_text_file<P: AsRef<Path>>(log: &EventLog, path: P) -> Result<(), IoError> {
    write_text(log, std::fs::File::create(path)?)
}

const MAGIC: &[u8; 4] = b"TPRE";
const VERSION: u8 = 1;
const RECORD_LEN: usize = 16;
const HEADER_LEN: u64 = 21; // magic(4) + version(1) + vertices(8) + count(8)

/// Preallocation cap for the binary reader: a forged header can declare
/// any record count, so never trust it for more than this many records up
/// front — the vector grows normally as records actually arrive.
const MAX_PREALLOC_RECORDS: usize = 1 << 20;

/// Records the binary reader reads and decodes per block: a 64 KiB buffer,
/// allocated once per read (smaller for a shorter body) and reused, so a
/// record costs a share of one `read_exact` instead of one of its own, and
/// the body is never held twice.
pub const BLOCK_RECORDS: usize = 4096;

/// Writes the compact binary format.
pub fn write_binary<W: Write>(log: &EventLog, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    w.write_all(MAGIC)?;
    w.write_all(&[VERSION])?;
    w.write_all(&(log.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&(log.len() as u64).to_le_bytes())?;
    for e in log.events() {
        w.write_all(&e.u.to_le_bytes())?;
        w.write_all(&e.v.to_le_bytes())?;
        w.write_all(&e.t.to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Reads the compact binary format.
///
/// The header-declared record count is treated as a claim, not a fact: the
/// reader never preallocates more than a fixed cap on its say-so (a forged
/// multi-terabyte count must not OOM the process), and when the total
/// input size is known ([`read_binary_file`]) the count is cross-checked
/// against it before any allocation. Bytes *after* the last declared
/// record are rejected (a truncated header count silently hiding data is
/// as corrupt as a forged one); use [`read_binary_report`] in
/// [`ParseMode::Lenient`] to accept-and-count them instead.
pub fn read_binary<R: Read>(reader: R) -> Result<EventLog, IoError> {
    read_binary_impl(reader, None, ParseMode::Strict).map(|(log, _)| log)
}

/// Reads the compact binary format under the given [`ParseMode`],
/// reporting anything unusual in an [`IngestReport`].
///
/// The only mode-sensitive condition is trailing garbage after the last
/// declared record: strict mode rejects it as a bad header, lenient mode
/// counts it in [`IngestReport::trailing_bytes`] and keeps the declared
/// records. Everything before the end of the declared section (bad magic,
/// bad version, truncation) is a hard error in both modes — there is no
/// record-level resynchronization in a fixed-stride format.
pub fn read_binary_report<R: Read>(
    reader: R,
    mode: ParseMode,
) -> Result<(EventLog, IngestReport), IoError> {
    read_binary_impl(reader, None, mode)
}

fn read_binary_impl<R: Read>(
    reader: R,
    total_len: Option<u64>,
    mode: ParseMode,
) -> Result<(EventLog, IngestReport), IoError> {
    let mut r = BufReader::new(reader);
    // Magic and version are checked before the counts are read, so a file
    // too short for its counts still reports a foreign magic or version.
    let mut head = [0u8; HEADER_LEN as usize];
    r.read_exact(&mut head[..4])?;
    if head[..4] != MAGIC[..] {
        return Err(IoError::BadHeader(format!("magic {:?}", &head[..4])));
    }
    r.read_exact(&mut head[4..5])?;
    if head[4] != VERSION {
        return Err(IoError::BadHeader(format!(
            "unsupported version {}",
            head[4]
        )));
    }
    r.read_exact(&mut head[5..])?;
    let mut counts = Reader::new(&head[5..]);
    let (num_vertices, count) = (counts.u64()?, counts.u64()?);
    // Sanity: the declared counts must be representable and, when the
    // input size is known, consistent with the bytes actually present.
    if num_vertices > u32::MAX as u64 + 1 {
        return Err(IoError::BadHeader(format!(
            "vertex count {num_vertices} exceeds u32 id space"
        )));
    }
    let body = count
        .checked_mul(RECORD_LEN as u64)
        .ok_or_else(|| IoError::BadHeader(format!("record count {count} overflows byte length")))?;
    if let Some(total) = total_len {
        let available = total.saturating_sub(HEADER_LEN);
        if body > available {
            return Err(IoError::BadHeader(format!(
                "header declares {count} records ({body} bytes) but only {available} bytes follow"
            )));
        }
    }
    let count = count as usize;
    let mut events = Vec::with_capacity(count.min(MAX_PREALLOC_RECORDS));
    let mut block = vec![0u8; count.min(BLOCK_RECORDS) * RECORD_LEN];
    let mut left = count;
    while left > 0 {
        let take = left.min(BLOCK_RECORDS);
        let bytes = &mut block[..take * RECORD_LEN];
        r.read_exact(bytes)?;
        for rec in bytes.chunks_exact(RECORD_LEN) {
            let mut f = Reader::new(rec);
            events.push(Event::new(f.u32()?, f.u32()?, f.i64()?));
        }
        left -= take;
    }
    let mut report = IngestReport {
        lines: count,
        accepted: events.len(),
        ..IngestReport::default()
    };
    if let ParseMode::Lenient { .. } = mode {
        report.sections.push(("header".into(), HEADER_LEN));
        report
            .sections
            .push(("records".into(), (count * RECORD_LEN) as u64));
    }
    // Probe past the declared section: a well-formed file ends exactly
    // after the last record, so any further byte means the header's count
    // disagrees with the content.
    let trailing = usize::try_from(io::copy(&mut r, &mut io::sink())?).unwrap_or(usize::MAX);
    if trailing > 0 {
        let message = format!("{trailing} trailing bytes after the declared {count} records");
        match mode {
            ParseMode::Strict => return Err(IoError::BadHeader(message)),
            ParseMode::Lenient { .. } => {
                report.trailing_bytes = trailing;
                report.sections.push(("trailing".into(), trailing as u64));
                if report.diagnostics.len() < IngestReport::MAX_DIAGNOSTICS {
                    report.diagnostics.push(message);
                }
            }
        }
    }
    let log = EventLog::from_unsorted(events, num_vertices as usize)?;
    Ok((log, report))
}

/// Writes the binary format to `path`.
pub fn write_binary_file<P: AsRef<Path>>(log: &EventLog, path: P) -> Result<(), IoError> {
    write_binary(log, std::fs::File::create(path)?)
}

/// Reads the binary format from `path`, cross-checking the declared
/// record count against the file size before allocating.
pub fn read_binary_file<P: AsRef<Path>>(path: P) -> Result<EventLog, IoError> {
    read_binary_file_report(path, ParseMode::Strict).map(|(log, _)| log)
}

/// Reads the binary format from `path` under the given [`ParseMode`]
/// (see [`read_binary_report`]), cross-checking the declared record count
/// against the file size before allocating.
pub fn read_binary_file_report<P: AsRef<Path>>(
    path: P,
    mode: ParseMode,
) -> Result<(EventLog, IngestReport), IoError> {
    let f = std::fs::File::open(path)?;
    let len = f.metadata()?.len();
    read_binary_impl(f, Some(len), mode)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EventLog {
        EventLog::from_unsorted(
            vec![
                Event::new(0, 1, 10),
                Event::new(2, 3, 5),
                Event::new(1, 4, 20),
            ],
            5,
        )
        .unwrap()
    }

    #[test]
    fn text_roundtrip() {
        let log = sample();
        let mut buf = Vec::new();
        write_text(&log, &mut buf).unwrap();
        let back = read_text(&buf[..]).unwrap();
        assert_eq!(back.events(), log.events());
        assert_eq!(back.num_vertices(), 5);
    }

    #[test]
    fn text_parses_comments_and_blank_lines() {
        let input = "# header\n% other comment\n\n0 1 10\n  2 3 5 \n";
        let log = read_text(input.as_bytes()).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log.first_time(), 5);
    }

    #[test]
    fn text_reports_line_numbers_on_errors() {
        let input = "0 1 10\n0 x 3\n";
        match read_text(input.as_bytes()) {
            Err(IoError::Parse { line, message }) => {
                assert_eq!(line, 2);
                assert!(message.contains("destination"), "{message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        let input = "0 1\n";
        match read_text(input.as_bytes()) {
            Err(IoError::Parse { line, message }) => {
                assert_eq!(line, 1);
                assert!(message.contains("missing timestamp"), "{message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn text_rejects_out_of_range_vertices() {
        let input = "0 4294967296 1\n";
        assert!(matches!(
            read_text(input.as_bytes()),
            Err(IoError::Parse { .. })
        ));
    }

    #[test]
    fn text_negative_timestamps_allowed() {
        let log = read_text("0 1 -5\n1 2 3\n".as_bytes()).unwrap();
        assert_eq!(log.first_time(), -5);
    }

    #[test]
    fn empty_text_is_an_error() {
        assert!(matches!(
            read_text("# only comments\n".as_bytes()),
            Err(IoError::Graph(GraphError::EmptyEvents))
        ));
    }

    #[test]
    fn lenient_skips_and_counts_bad_lines() {
        let input = "0 1 10\ngarbage line\n2 3 5\n0 x 7\n1 4 20\n";
        let (log, report) = read_text_report(
            input.as_bytes(),
            ParseMode::Lenient {
                max_bad_records: 10,
            },
        )
        .unwrap();
        assert_eq!(log.len(), 3);
        assert_eq!(report.lines, 5);
        assert_eq!(report.accepted, 3);
        assert_eq!(report.skipped_bad, 2);
        assert_eq!(report.dropped(), 2);
        assert_eq!(report.diagnostics.len(), 2);
        assert!(report.diagnostics[0].contains("line 2"), "{report:?}");
    }

    #[test]
    fn lenient_cap_aborts() {
        let input = "x\ny\nz\n0 1 5\n";
        let err = read_text_report(input.as_bytes(), ParseMode::Lenient { max_bad_records: 2 })
            .unwrap_err();
        assert!(matches!(
            err,
            IoError::TooManyBadRecords {
                bad: 3,
                max_bad_records: 2
            }
        ));
    }

    #[test]
    fn report_counts_loops_duplicates_and_disorder() {
        let input = "0 1 10\n2 2 4\n0 1 10\n3 4 2\n";
        let (log, report) = read_text_report(input.as_bytes(), ParseMode::Strict).unwrap();
        assert_eq!(log.len(), 4);
        assert_eq!(report.self_loops, 1);
        assert_eq!(report.duplicates, 1);
        assert_eq!(report.out_of_order, 2); // 4 after 10, 2 after 10
        assert_eq!(report.skipped_bad, 0);
        assert!(!report.is_clean());
        assert!(report.summary().contains("4 events accepted"));
    }

    #[test]
    fn clean_ingest_reports_clean() {
        let (_, report) = read_text_report("0 1 1\n1 2 2\n".as_bytes(), ParseMode::Strict).unwrap();
        assert!(report.is_clean());
    }

    #[test]
    fn strict_mode_still_errors_in_report_api() {
        assert!(matches!(
            read_text_report("bogus\n".as_bytes(), ParseMode::Strict),
            Err(IoError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn binary_roundtrip() {
        let log = sample();
        let mut buf = Vec::new();
        write_binary(&log, &mut buf).unwrap();
        let back = read_binary(&buf[..]).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn binary_rejects_bad_magic_and_version() {
        let mut buf = Vec::new();
        write_binary(&sample(), &mut buf).unwrap();
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(read_binary(&bad[..]), Err(IoError::BadHeader(_))));
        let mut bad = buf.clone();
        bad[4] = 99;
        assert!(matches!(read_binary(&bad[..]), Err(IoError::BadHeader(_))));
    }

    #[test]
    fn binary_trailing_garbage_rejected_strict() {
        let mut buf = Vec::new();
        write_binary(&sample(), &mut buf).unwrap();
        buf.extend_from_slice(b"junk after the last record");
        match read_binary(&buf[..]) {
            Err(IoError::BadHeader(m)) => {
                assert!(m.contains("trailing"), "{m}");
                assert!(m.contains("26"), "{m}");
            }
            other => panic!("expected BadHeader, got {other:?}"),
        }
        // The file path rejects it too.
        let dir = std::env::temp_dir().join(format!("tempopr_io_trail_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trail.bin");
        std::fs::write(&path, &buf).unwrap();
        assert!(matches!(
            read_binary_file(&path),
            Err(IoError::BadHeader(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn binary_trailing_garbage_counted_lenient() {
        let log = sample();
        let mut buf = Vec::new();
        write_binary(&log, &mut buf).unwrap();
        buf.extend_from_slice(&[0xAB; 7]);
        let (back, report) = read_binary_report(
            &buf[..],
            ParseMode::Lenient {
                max_bad_records: usize::MAX,
            },
        )
        .unwrap();
        assert_eq!(back, log);
        assert_eq!(report.trailing_bytes, 7);
        assert_eq!(report.accepted, 3);
        assert!(!report.is_clean());
        assert!(
            report.summary().contains("7 trailing bytes"),
            "{}",
            report.summary()
        );
        assert!(report.diagnostics[0].contains("trailing"), "{report:?}");
        // Lenient mode reports per-section byte counts in file order.
        assert_eq!(
            report.sections,
            vec![
                ("header".to_string(), 21u64),
                ("records".to_string(), 48),
                ("trailing".to_string(), 7),
            ]
        );
    }

    #[test]
    fn binary_clean_report_is_clean() {
        let mut buf = Vec::new();
        write_binary(&sample(), &mut buf).unwrap();
        let (_, report) = read_binary_report(&buf[..], ParseMode::Strict).unwrap();
        assert_eq!(report.trailing_bytes, 0);
        assert!(report.is_clean());
        // Strict mode keeps the report shape unchanged (no sections).
        assert!(report.sections.is_empty());
    }

    #[test]
    fn binary_lenient_clean_read_reports_sections_and_stays_clean() {
        let mut buf = Vec::new();
        write_binary(&sample(), &mut buf).unwrap();
        let (_, report) = read_binary_report(
            &buf[..],
            ParseMode::Lenient {
                max_bad_records: usize::MAX,
            },
        )
        .unwrap();
        assert!(report.is_clean());
        assert_eq!(
            report.sections,
            vec![("header".to_string(), 21u64), ("records".to_string(), 48)]
        );
    }

    #[test]
    fn binary_truncation_is_io_error() {
        let mut buf = Vec::new();
        write_binary(&sample(), &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(read_binary(&buf[..]), Err(IoError::Io(_))));
    }

    #[test]
    fn forged_record_count_does_not_preallocate() {
        // A header claiming 2^40 records (a 16 TiB body) with an empty
        // body must fail fast (EOF on the first record) without
        // attempting a huge allocation.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.push(VERSION);
        buf.extend_from_slice(&5u64.to_le_bytes()); // vertices
        buf.extend_from_slice(&(1u64 << 40).to_le_bytes()); // forged count
        assert!(matches!(read_binary(&buf[..]), Err(IoError::Io(_))));
        // A count whose byte length overflows u64 is rejected at the
        // header, before any read.
        let mut buf2 = Vec::new();
        buf2.extend_from_slice(MAGIC);
        buf2.push(VERSION);
        buf2.extend_from_slice(&5u64.to_le_bytes());
        buf2.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(read_binary(&buf2[..]), Err(IoError::BadHeader(_))));
    }

    #[test]
    fn forged_vertex_count_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.push(VERSION);
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // absurd vertex count
        buf.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(read_binary(&buf[..]), Err(IoError::BadHeader(_))));
    }

    #[test]
    fn forged_header_count_rejected_against_file_size() {
        // Via the file path the declared count is checked against the
        // actual file size before any allocation.
        let dir = std::env::temp_dir().join("tempopr_io_forged_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("forged.bin");
        let mut buf = Vec::new();
        write_binary(&sample(), &mut buf).unwrap();
        // Forge the count field (bytes 13..21) to claim a million records.
        buf[13..21].copy_from_slice(&1_000_000u64.to_le_bytes());
        std::fs::write(&path, &buf).unwrap();
        match read_binary_file(&path) {
            Err(IoError::BadHeader(m)) => assert!(m.contains("1000000"), "{m}"),
            other => panic!("expected BadHeader, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_roundtrips() {
        let dir = std::env::temp_dir().join("tempopr_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let log = sample();
        let tpath = dir.join("events.txt");
        write_text_file(&log, &tpath).unwrap();
        assert_eq!(read_text_file(&tpath).unwrap().events(), log.events());
        let bpath = dir.join("events.bin");
        write_binary_file(&log, &bpath).unwrap();
        assert_eq!(read_binary_file(&bpath).unwrap(), log);
        std::fs::remove_dir_all(&dir).ok();
    }
}
