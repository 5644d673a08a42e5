//! Cross-model integration tests: the offline, streaming, and postmortem
//! execution models must produce the same PageRank time series on the same
//! workload — the paper's premise that only *cost* differs between models.

use tempopr::prelude::*;

fn tight_pr() -> PrConfig {
    PrConfig {
        alpha: 0.15,
        tol: 1e-11,
        max_iters: 500,
        ..PrConfig::default()
    }
}

fn run_all_models(log: &EventLog, spec: WindowSpec) -> [RunOutput; 3] {
    let offline = run_offline(
        log,
        spec,
        &OfflineConfig {
            pr: tight_pr(),
            ..Default::default()
        },
    )
    .expect("offline run");
    let streaming = run_streaming(
        log,
        spec,
        &StreamingConfig {
            pr: tight_pr(),
            ..Default::default()
        },
    )
    .expect("streaming run");
    let engine = PostmortemEngine::new(
        log,
        spec,
        PostmortemConfig {
            pr: tight_pr(),
            ..Default::default()
        },
    )
    .expect("engine");
    [offline, streaming, engine.run()]
}

fn assert_models_agree(log: &EventLog, spec: WindowSpec, tol: f64) {
    let [offline, streaming, postmortem] = run_all_models(log, spec);
    for w in 0..spec.count {
        let o = offline.windows[w].ranks.as_ref().unwrap();
        let s = streaming.windows[w].ranks.as_ref().unwrap();
        let p = postmortem.windows[w].ranks.as_ref().unwrap();
        assert!(o.linf_distance(s) < tol, "offline vs streaming, window {w}");
        assert!(
            o.linf_distance(p) < tol,
            "offline vs postmortem, window {w}"
        );
        assert_eq!(
            offline.windows[w].stats.active_vertices, postmortem.windows[w].stats.active_vertices,
            "active set size, window {w}"
        );
    }
}

#[test]
fn models_agree_on_every_preset() {
    for d in Dataset::all() {
        let log = d.spec().generate(0.0006, 17);
        let span = log.last_time() - log.first_time();
        let spec = WindowSpec::covering(&log, span / 5, span / 12).expect("spec");
        assert_models_agree(&log, spec, 1e-7);
    }
}

#[test]
fn models_agree_on_overlapping_and_disjoint_windows() {
    let log = Dataset::WikiTalk.spec().generate(0.001, 23);
    let span = log.last_time() - log.first_time();
    // Heavy overlap (sw << delta).
    assert_models_agree(
        &log,
        WindowSpec::covering(&log, span / 4, span / 40).unwrap(),
        1e-7,
    );
    // Disjoint windows with gaps (sw > delta).
    assert_models_agree(
        &log,
        WindowSpec::covering(&log, span / 20, span / 10).unwrap(),
        1e-7,
    );
}

#[test]
fn models_agree_on_spiky_dataset() {
    let log = Dataset::Enron.spec().generate(0.002, 5);
    let span = log.last_time() - log.first_time();
    let spec = WindowSpec::covering(&log, span / 6, span / 15).unwrap();
    assert_models_agree(&log, spec, 1e-7);
}

#[test]
fn fingerprints_match_across_models_without_full_retention() {
    let log = Dataset::AskUbuntu.spec().generate(0.002, 9);
    let span = log.last_time() - log.first_time();
    let spec = WindowSpec::covering(&log, span / 5, span / 10).unwrap();
    let offline = run_offline(
        &log,
        spec,
        &OfflineConfig {
            pr: tight_pr(),
            retain: RetainMode::Summary,
            ..Default::default()
        },
    )
    .expect("offline run");
    let engine = PostmortemEngine::new(
        &log,
        spec,
        PostmortemConfig {
            pr: tight_pr(),
            retain: RetainMode::Summary,
            ..Default::default()
        },
    )
    .unwrap();
    let postmortem = engine.run();
    for (o, p) in offline.windows.iter().zip(postmortem.windows.iter()) {
        assert!(
            (o.fingerprint - p.fingerprint).abs() < 1e-7,
            "window {}: {} vs {}",
            o.window,
            o.fingerprint,
            p.fingerprint
        );
    }
}

#[test]
fn advisor_config_is_exact_too() {
    let log = Dataset::Youtube.spec().generate(0.0005, 31);
    let span = log.last_time() - log.first_time();
    let spec = WindowSpec::covering(&log, span / 4, span / 16).unwrap();
    let offline = run_offline(
        &log,
        spec,
        &OfflineConfig {
            pr: tight_pr(),
            ..Default::default()
        },
    )
    .expect("offline run");
    let mut cfg = suggest(&log, &spec, 0);
    cfg.pr = tight_pr();
    let out = PostmortemEngine::new(&log, spec, cfg).unwrap().run();
    for (o, p) in offline.windows.iter().zip(out.windows.iter()) {
        let d = o
            .ranks
            .as_ref()
            .unwrap()
            .linf_distance(p.ranks.as_ref().unwrap());
        assert!(d < 1e-7, "window {}: {d}", o.window);
    }
}
