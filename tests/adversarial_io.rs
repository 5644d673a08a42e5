//! Adversarial I/O properties: the event-file readers must never panic,
//! whatever bytes they are fed — truncated downloads, bit-flipped binary
//! files, garbage spliced into text logs — and lenient ingest must keep
//! every record strict ingest would have kept.

use proptest::prelude::*;
use tempopr::graph::io::{
    read_binary, read_text, read_text_report, write_binary, write_text, IngestReport, IoError,
};
use tempopr::prelude::*;

fn arb_events() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec(
        (0u32..40, 0u32..40, -500i64..500).prop_map(|(u, v, t)| Event::new(u, v, t)),
        1..120,
    )
}

fn arb_log() -> impl Strategy<Value = EventLog> {
    arb_events().prop_map(|evs| EventLog::from_unsorted(evs, 40).unwrap())
}

/// Garbage lines an ingest run can plausibly meet in the wild. None of
/// them parses as an event; the two comment forms are not data lines.
fn arb_garbage() -> impl Strategy<Value = Vec<&'static str>> {
    prop::collection::vec(
        prop::sample::select(vec![
            "bogus line",
            "1 2",
            "a b c",
            "-7 3 9",
            "1.5 2 3",
            "99999999999 1 2",
            "2 99999999999999999999 3",
            "3 4 not-a-time",
            "\u{fffd}\u{fffd}\u{fffd}",
        ]),
        1..10,
    )
}

fn lenient() -> ParseMode {
    ParseMode::Lenient {
        max_bad_records: usize::MAX,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes: all three readers return, never panic.
    #[test]
    fn readers_never_panic_on_random_bytes(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        let _ = read_binary(&bytes[..]);
        let _ = read_text(&bytes[..]);
        let _ = read_text_report(&bytes[..], lenient());
    }

    /// A valid binary file with a bit flipped anywhere (header, counts, or
    /// payload) either loads some log or errors — never panics.
    #[test]
    fn bitflipped_binary_never_panics(log in arb_log(), pos in 0usize..1 << 20, bit in 0u8..8) {
        let mut buf = Vec::new();
        write_binary(&log, &mut buf).unwrap();
        let i = pos % buf.len();
        buf[i] ^= 1 << bit;
        let _ = read_binary(&buf[..]);
    }

    /// A truncated binary file must be rejected, not mis-parsed: the header
    /// declares the record count, so any strict prefix is inconsistent.
    #[test]
    fn truncated_binary_is_rejected(log in arb_log(), cut in 0usize..1 << 20) {
        let mut buf = Vec::new();
        write_binary(&log, &mut buf).unwrap();
        let keep = cut % buf.len();
        prop_assert!(read_binary(&buf[..keep]).is_err(), "prefix of {} bytes accepted", keep);
    }

    /// Garbage lines spliced into a valid text log: lenient mode drops
    /// exactly the garbage and keeps every real event.
    #[test]
    fn lenient_recovers_spliced_garbage(
        log in arb_log(),
        garbage in arb_garbage(),
        at in 0usize..1 << 20,
    ) {
        let mut buf = Vec::new();
        write_text(&log, &mut buf).unwrap();
        let mut lines: Vec<String> = String::from_utf8(buf)
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect();
        let insert_at = at % (lines.len() + 1);
        for g in garbage.iter().rev() {
            lines.insert(insert_at, (*g).to_owned());
        }
        let text = lines.join("\n");
        // Strict mode must refuse the file outright.
        prop_assert!(read_text(text.as_bytes()).is_err());
        let (relogged, report) = read_text_report(text.as_bytes(), lenient()).unwrap();
        prop_assert_eq!(relogged.events().len(), log.events().len());
        prop_assert_eq!(report.accepted, log.events().len());
        prop_assert_eq!(report.dropped(), garbage.len());
        prop_assert!(!report.is_clean());
    }

    /// Lenient mode on a *clean* file agrees with strict mode
    /// event-for-event and reports nothing dropped.
    #[test]
    fn lenient_equals_strict_on_clean_input(log in arb_log()) {
        let mut buf = Vec::new();
        write_text(&log, &mut buf).unwrap();
        let strict = read_text(&buf[..]).unwrap();
        let (len, report) = read_text_report(&buf[..], lenient()).unwrap();
        prop_assert_eq!(strict.events(), len.events());
        prop_assert_eq!(report.skipped_bad, 0);
        prop_assert_eq!(report.overflow, 0);
        prop_assert_eq!(report.accepted, log.events().len());
    }

    /// The lenient cap is honored: with `max_bad_records: 0` a single bad
    /// line aborts the read with `TooManyBadRecords`.
    #[test]
    fn lenient_cap_zero_rejects_first_bad_line(log in arb_log()) {
        let mut buf = Vec::new();
        write_text(&log, &mut buf).unwrap();
        buf.extend_from_slice(b"\nnot an event\n");
        let r = read_text_report(&buf[..], ParseMode::Lenient { max_bad_records: 0 });
        prop_assert!(matches!(r, Err(IoError::TooManyBadRecords { .. })));
    }
}

#[test]
fn report_summary_mentions_everything_it_counted() {
    let text = b"# comment\n1 2 3\n1 2 3\nbogus line\n5 5 7\n4 3 1\n99999999999 1 2\n";
    let (log, report) = read_text_report(
        &text[..],
        ParseMode::Lenient {
            max_bad_records: usize::MAX,
        },
    )
    .unwrap();
    assert_eq!(report.accepted, 4);
    assert_eq!(log.events().len(), 4);
    assert_eq!(report.skipped_bad, 1);
    assert_eq!(report.overflow, 1);
    assert_eq!(report.dropped(), 2, "bogus + overflow both dropped");
    assert_eq!(report.duplicates, 1);
    assert_eq!(report.self_loops, 1);
    assert_eq!(report.out_of_order, 1);
    assert!(!report.is_clean());
    let s = report.summary();
    for needle in ["accepted", "dropped"] {
        assert!(s.contains(needle), "summary {s:?} missing {needle:?}");
    }
    assert!(!report.diagnostics.is_empty());
    assert!(report.diagnostics.len() <= IngestReport::MAX_DIAGNOSTICS);
}

/// Every single-bit flip and every cut of a six-event binary file. Every
/// cut is a truncation the header's count exposes: an I/O error. No flip
/// panics; a flip in the magic or the version is a bad header, and one in
/// the record count is a bad header (the count overflows, or leaves
/// trailing bytes) or an I/O error (it runs past the end of the file).
#[test]
fn every_bit_flip_and_cut_of_a_small_binary_file_is_handled() {
    let log = EventLog::from_unsorted(
        (0..6u32)
            .map(|i| Event::new(i, (i * 5 + 2) % 7, i64::from(i) * 1000 - 2500))
            .collect(),
        7,
    )
    .unwrap();
    let mut pristine = Vec::new();
    write_binary(&log, &mut pristine).unwrap();
    assert_eq!(pristine.len(), 21 + 6 * 16);
    assert_eq!(read_binary(&pristine[..]).unwrap(), log);
    for cut in 0..pristine.len() {
        match read_binary(&pristine[..cut]) {
            Err(IoError::Io(_)) => {}
            other => panic!("cut at {cut}: {other:?}"),
        }
    }
    for bit in 0..pristine.len() * 8 {
        let (byte, mut bytes) = (bit / 8, pristine.clone());
        bytes[byte] ^= 1 << (bit % 8);
        let got = read_binary(&bytes[..]);
        let typed = match byte {
            0..5 => matches!(got, Err(IoError::BadHeader(_))),
            13..21 => matches!(got, Err(IoError::BadHeader(_) | IoError::Io(_))),
            _ => true,
        };
        assert!(typed, "flip byte {byte} bit {}: {got:?}", bit % 8);
    }
}
