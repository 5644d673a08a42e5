//! Window-specification edge cases across all models: windows that start
//! before the data, extend past it, are empty in the middle of gaps, or
//! number exactly one.

use tempopr::prelude::*;

fn tight_pr() -> PrConfig {
    PrConfig {
        alpha: 0.15,
        tol: 1e-11,
        max_iters: 400,
        ..PrConfig::default()
    }
}

fn gap_log() -> EventLog {
    // Two bursts with a dead zone in between.
    let mut events = Vec::new();
    for i in 0..80u32 {
        events.push(Event::new(i % 10, (i * 3 + 1) % 10, (i % 40) as i64));
    }
    for i in 0..80u32 {
        events.push(Event::new(i % 10, (i * 7 + 3) % 10, 1000 + (i % 40) as i64));
    }
    EventLog::from_unsorted(events, 10).unwrap()
}

fn run_all(log: &EventLog, spec: WindowSpec) -> [RunOutput; 3] {
    let pm = PostmortemEngine::new(
        log,
        spec,
        PostmortemConfig {
            pr: tight_pr(),
            ..Default::default()
        },
    )
    .unwrap()
    .run();
    let off = run_offline(
        log,
        spec,
        &OfflineConfig {
            pr: tight_pr(),
            ..Default::default()
        },
    )
    .expect("offline run");
    let st = run_streaming(
        log,
        spec,
        &StreamingConfig {
            pr: tight_pr(),
            ..Default::default()
        },
    )
    .expect("streaming run");
    [pm, off, st]
}

fn assert_all_agree(log: &EventLog, spec: WindowSpec) {
    let [pm, off, st] = run_all(log, spec);
    for w in 0..spec.count {
        let a = pm.windows[w].ranks.as_ref().unwrap();
        let b = off.windows[w].ranks.as_ref().unwrap();
        let c = st.windows[w].ranks.as_ref().unwrap();
        assert!(a.linf_distance(b) < 1e-8, "pm vs off, window {w}");
        assert!(a.linf_distance(c) < 1e-8, "pm vs stream, window {w}");
    }
}

#[test]
fn windows_spanning_a_dead_zone_are_empty_everywhere() {
    let log = gap_log();
    // Windows of width 50 sliding by 100: several fall entirely in the
    // gap between t=40 and t=1000.
    let spec = WindowSpec::new(0, 50, 100, 11).unwrap();
    let [pm, off, st] = run_all(&log, spec);
    let mut saw_empty = false;
    for w in 0..spec.count {
        let empty = pm.windows[w].stats.active_vertices == 0;
        assert_eq!(off.windows[w].stats.active_vertices == 0, empty);
        assert_eq!(st.windows[w].stats.active_vertices == 0, empty);
        if empty {
            saw_empty = true;
            assert!(pm.windows[w].ranks.as_ref().unwrap().is_empty());
            assert_eq!(pm.windows[w].fingerprint, 0.0);
        }
    }
    assert!(saw_empty, "the gap must produce empty windows");
    assert_all_agree(&log, spec);
}

#[test]
fn spec_starting_before_the_data() {
    let log = gap_log();
    let spec = WindowSpec::new(-500, 100, 200, 9).unwrap();
    let [pm, _, _] = run_all(&log, spec);
    assert_eq!(pm.windows[0].stats.active_vertices, 0, "pre-data window");
    assert_all_agree(&log, spec);
}

#[test]
fn spec_extending_past_the_data() {
    let log = gap_log();
    let spec = WindowSpec::new(900, 80, 120, 6).unwrap();
    let [pm, _, _] = run_all(&log, spec);
    let last = pm.windows.last().unwrap();
    assert_eq!(last.stats.active_vertices, 0, "post-data window");
    assert_all_agree(&log, spec);
}

#[test]
fn single_window_works_under_every_kernel() {
    let log = gap_log();
    let spec = WindowSpec::new(0, 40, 1000, 1).unwrap();
    for kernel in [KernelKind::SpMV, KernelKind::SpMM { lanes: 16 }] {
        let out = PostmortemEngine::new(
            &log,
            spec,
            PostmortemConfig {
                kernel,
                pr: tight_pr(),
                ..Default::default()
            },
        )
        .unwrap()
        .run();
        assert_eq!(out.windows.len(), 1);
        assert!(out.windows[0].stats.active_vertices > 0);
    }
    assert_all_agree(&log, spec);
}

#[test]
fn more_multiwindows_than_windows_is_clamped() {
    let log = gap_log();
    let spec = WindowSpec::new(0, 200, 300, 4).unwrap();
    let engine = PostmortemEngine::new(
        &log,
        spec,
        PostmortemConfig {
            num_multiwindows: 1000,
            pr: tight_pr(),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(engine.num_parts() <= spec.count);
    engine.run().assert_complete(spec.count);
}
