//! Property tests for the `tempopr.tcsr.v2` on-disk part store: a
//! write/read round trip must reproduce every part **bit-identically**
//! (CSR arrays, timestamps, vertex maps, window ranges), and adversarial
//! damage — truncated sections, bit flips anywhere in the file, stale
//! version headers — must surface as typed [`StorageError`]s, never as a
//! panic and never as silently different data.
//!
//! Single-bit flips are always caught: every byte of the file is covered
//! by exactly one of the three CRCs (fixed header, section table, or a
//! part's payload section), so the tests assert detection, not just
//! absence of panics.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use tempopr::graph::storage::{TCSR_HEADER_LEN, TCSR_SECTION_ENTRY_LEN, TCSR_VERSION};
use tempopr::graph::{
    CompressedPart, DecodeScratch, MultiWindowGraph, MultiWindowSet, PartitionStrategy,
    StorageError, TcsrFile, TcsrFileWriter,
};
use tempopr::prelude::*;

const MAX_V: u32 = 24;

fn arb_events() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec(
        (0..MAX_V, 0..MAX_V, 0i64..500).prop_map(|(u, v, t)| Event::new(u, v, t)),
        1..200,
    )
}

/// A unique scratch path per proptest case (cases run concurrently).
fn scratch_path() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("tempopr_prop_tcsr_{}_{n}.tcsr", std::process::id()))
}

/// Builds the resident parts and the byte image of their on-disk file.
fn build_file(
    log: &EventLog,
    spec: WindowSpec,
    parts: usize,
    strategy: PartitionStrategy,
) -> (Vec<MultiWindowGraph>, Vec<u8>) {
    let set = MultiWindowSet::build(log, spec, parts, true, strategy).unwrap();
    let path = scratch_path();
    let mut writer = TcsrFileWriter::create(&path, set.num_parts(), log.num_vertices()).unwrap();
    for part in set.graphs() {
        writer.append(&CompressedPart::encode(part)).unwrap();
    }
    writer.finish().unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let graphs = set.into_graphs();
    (graphs, bytes)
}

/// Writes `bytes` to a fresh scratch file, opens it, and reads every part.
/// Returns the typed results; panics (which proptest would report) are the
/// failure mode under test.
fn open_and_read_all(
    bytes: &[u8],
) -> (
    Result<Vec<Result<MultiWindowGraph, StorageError>>, StorageError>,
    PathBuf,
) {
    let path = scratch_path();
    std::fs::write(&path, bytes).unwrap();
    let out = TcsrFile::open(&path).map(|file| {
        let mut scratch = DecodeScratch::default();
        (0..file.num_parts())
            .map(|p| file.read_part(p, &mut scratch))
            .collect()
    });
    let _ = std::fs::remove_file(&path);
    (out, path)
}

fn assert_parts_equal(original: &MultiWindowGraph, decoded: &MultiWindowGraph) {
    assert_eq!(original.windows(), decoded.windows());
    assert_eq!(original.span(), decoded.span());
    assert_eq!(original.vertex_map(), decoded.vertex_map());
    assert_eq!(original.window_ranges(), decoded.window_ranges());
    let (a, b) = (original.tcsr(), decoded.tcsr());
    assert_eq!(a.num_vertices(), b.num_vertices());
    assert_eq!(a.row_offsets(), b.row_offsets());
    assert_eq!(a.col_indices(), b.col_indices());
    assert_eq!(a.timestamps(), b.timestamps());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Write → open → read reproduces every part bit for bit.
    #[test]
    fn ondisk_round_trip_is_bit_identical(
        events in arb_events(),
        delta in 5i64..200,
        sw in 1i64..100,
        parts in 1usize..8,
        strategy in prop::sample::select(vec![
            PartitionStrategy::EqualWindows,
            PartitionStrategy::EqualEvents,
        ]),
    ) {
        let log = EventLog::from_unsorted(events, MAX_V as usize).unwrap();
        let spec = WindowSpec::covering(&log, delta, sw).unwrap();
        let (originals, bytes) = build_file(&log, spec, parts, strategy);
        let (opened, _) = open_and_read_all(&bytes);
        let decoded = opened.unwrap();
        prop_assert_eq!(decoded.len(), originals.len());
        for (original, got) in originals.iter().zip(decoded) {
            assert_parts_equal(original, &got.unwrap());
        }
    }

    /// Any strict prefix of a valid file produces at least one typed
    /// error — the lost bytes are never papered over.
    #[test]
    fn truncation_is_always_detected(
        events in arb_events(),
        parts in 1usize..5,
        cut_permille in 0u32..1000,
    ) {
        let log = EventLog::from_unsorted(events, MAX_V as usize).unwrap();
        let spec = WindowSpec::covering(&log, 60, 20).unwrap();
        let (_, bytes) = build_file(&log, spec, parts, PartitionStrategy::EqualWindows);
        let cut = (bytes.len() * cut_permille as usize / 1000).min(bytes.len() - 1);
        let (opened, _) = open_and_read_all(&bytes[..cut]);
        match opened {
            Err(_) => {}
            Ok(reads) => prop_assert!(
                reads.iter().any(|r| r.is_err()),
                "truncation to {cut} of {} bytes went unnoticed", bytes.len()
            ),
        }
    }

    /// A single flipped bit anywhere in the file is caught by one of the
    /// three CRCs (or an earlier structural check) — open or some read
    /// errors, and nothing panics.
    #[test]
    fn single_bit_flip_is_always_detected(
        events in arb_events(),
        parts in 1usize..5,
        flip_seed in any::<u64>(),
    ) {
        let log = EventLog::from_unsorted(events, MAX_V as usize).unwrap();
        let spec = WindowSpec::covering(&log, 60, 20).unwrap();
        let (_, mut bytes) = build_file(&log, spec, parts, PartitionStrategy::EqualWindows);
        let bit = (flip_seed as usize) % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        let (opened, _) = open_and_read_all(&bytes);
        match opened {
            Err(_) => {}
            Ok(reads) => prop_assert!(
                reads.iter().any(|r| r.is_err()),
                "flipped bit {bit} of {} went unnoticed", bytes.len() * 8
            ),
        }
    }
}

/// A past, future or zeroed format version is refused up front with
/// [`StorageError::Unsupported`] naming the alien version.
#[test]
fn stale_version_is_rejected_typed() {
    let log = EventLog::from_unsorted(
        (0..100u32)
            .map(|i| Event::new(i % 10, (i * 3 + 1) % 10, i as i64))
            .collect(),
        10,
    )
    .unwrap();
    let spec = WindowSpec::covering(&log, 30, 10).unwrap();
    let (_, bytes) = build_file(&log, spec, 2, PartitionStrategy::EqualWindows);
    assert!(bytes.len() > TCSR_HEADER_LEN);
    for alien in [0u16, TCSR_VERSION - 1, TCSR_VERSION + 1, u16::MAX] {
        let mut stale = bytes.clone();
        stale[4..6].copy_from_slice(&alien.to_le_bytes());
        let (opened, _) = open_and_read_all(&stale);
        match opened {
            Err(StorageError::Unsupported(v)) => assert_eq!(v, alien),
            other => panic!("version {alien}: expected Unsupported, got {other:?}"),
        }
    }
}

/// A small two-part file: its bytes, its parts and each part's payload.
fn small_two_part_file() -> (Vec<u8>, Vec<MultiWindowGraph>, Vec<Vec<u8>>) {
    let log = EventLog::from_unsorted(
        (0..14u32)
            .map(|i| Event::new(i % 5, (i * 3 + 1) % 5, i64::from(i) * 5))
            .collect(),
        5,
    )
    .unwrap();
    let spec = WindowSpec::covering(&log, 30, 20).unwrap();
    let (parts, bytes) = build_file(&log, spec, 2, PartitionStrategy::EqualWindows);
    assert_eq!(parts.len(), 2);
    let payloads = parts
        .iter()
        .map(|p| CompressedPart::encode(p).payload().to_vec())
        .collect();
    (bytes, parts, payloads)
}

/// What opening `bytes` and reading every part gives: `ok` when every part
/// reads back equal to `parts`, else the first typed error (`part p: ...`
/// when the header and table opened), tagged by variant and section.
fn outcome(bytes: &[u8], parts: &[MultiWindowGraph]) -> String {
    let tag = |e: &StorageError| match e {
        StorageError::Io(_) => "Io".to_string(),
        StorageError::BadHeader(_) => "BadHeader".to_string(),
        StorageError::Unsupported(_) => "Unsupported".to_string(),
        StorageError::Corrupt { section, .. } => format!("Corrupt({section})"),
    };
    match open_and_read_all(bytes).0 {
        Err(e) => tag(&e),
        Ok(reads) => {
            assert_eq!(reads.len(), parts.len());
            for (p, read) in reads.iter().enumerate() {
                match read {
                    Ok(got) => assert_parts_equal(&parts[p], got),
                    Err(e) => return format!("part {p}: {}", tag(e)),
                }
            }
            "ok".to_string()
        }
    }
}

/// Every single-bit flip and every truncation of a small two-part file is
/// refused with the typed error of the region it hits, and an undamaged
/// part still reads back bit for bit: magic, header fields and header CRC
/// give `BadHeader`, the version `Unsupported`, the section table its
/// CRC's `Corrupt(section-table)`, and a payload its own section's
/// `Corrupt(payload)`. Every cut is `BadHeader` while the header and
/// table are incomplete, and `Corrupt(section-table)` once they are not
/// (the last section then runs past the end of the file).
#[test]
fn every_bit_flip_and_truncation_of_a_small_file_is_typed() {
    let (pristine, parts, payloads) = small_two_part_file();
    assert_eq!(outcome(&pristine, &parts), "ok");
    let table_end = TCSR_HEADER_LEN + parts.len() * TCSR_SECTION_ENTRY_LEN + 4;
    let mut section_ends = Vec::new();
    let mut end = table_end;
    for payload in &payloads {
        end += payload.len();
        section_ends.push(end);
    }
    assert_eq!(end, pristine.len(), "sections tile the file");
    let region = |byte: usize| match byte {
        0..4 => "BadHeader".to_string(),
        4..6 => "Unsupported".to_string(),
        b if b < TCSR_HEADER_LEN => "BadHeader".to_string(),
        b if b < table_end => "Corrupt(section-table)".to_string(),
        b => {
            let p = section_ends.iter().position(|&e| b < e).unwrap();
            format!("part {p}: Corrupt(payload)")
        }
    };
    for bit in 0..pristine.len() * 8 {
        let mut bytes = pristine.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        assert_eq!(
            outcome(&bytes, &parts),
            region(bit / 8),
            "flip byte {} bit {}",
            bit / 8,
            bit % 8
        );
    }
    for cut in 0..pristine.len() {
        let want = if cut < table_end {
            "BadHeader"
        } else {
            "Corrupt(section-table)"
        };
        assert_eq!(outcome(&pristine[..cut], &parts), want, "cut at {cut}");
    }
}

/// Every single-bit flip of each section's payload, fed straight to the
/// decoder past the section CRC that would catch it: the decoder returns
/// a part or `Corrupt`, never panics (overflow checks are on in tests).
#[test]
fn payload_decoder_survives_every_bit_flip() {
    let (_, _, payloads) = small_two_part_file();
    for (p, payload) in payloads.iter().enumerate() {
        for bit in 0..payload.len() * 8 {
            let mut bytes = payload.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            match CompressedPart::decode_payload(&bytes) {
                Ok(_) | Err(StorageError::Corrupt { .. }) => {}
                Err(e) => panic!("part {p} flip bit {bit}: {e:?}"),
            }
        }
    }
}
