//! Golden-trace regression tests: the deterministic projection of the run
//! trace must be byte-identical across repeated runs of a fixed seeded
//! workload, and must match the checked-in snapshot.
//!
//! The workload runs the postmortem engine sequentially (the fully
//! deterministic configuration: one thread, no in-kernel scheduler, fixed
//! reduction order) over a small synthetic log, with one window forced
//! through the recovery ladder so the snapshot locks in the per-attempt
//! residual history — a failed-then-recovered window must keep its
//! pre-retry trace (attempt 1) alongside the retry (attempts 2-3).
//!
//! Regenerate the snapshot after an intentional trace change with:
//! `BLESS=1 cargo test --test golden_trace`

use tempopr::core::{
    FaultPlan, InitMode, KernelKind, ParallelMode, PostmortemConfig, PostmortemEngine, WindowStatus,
};
use tempopr::graph::{Event, EventLog, WindowSpec};
use tempopr::kernel::{FaultKind, PrConfig, SimdPolicy};
use tempopr::telemetry::Telemetry;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace_small.json");

fn fixed_log() -> EventLog {
    let mut events = Vec::new();
    for i in 0..90u32 {
        // Irregular degrees (a hub plus scattered pairs) so uniform init
        // is not the fixed point and the residual series is non-trivial.
        let u = if i % 3 == 0 { 0 } else { (i * 7 + i / 4) % 12 };
        let v = (i * 5 + 3) % 12;
        if u != v {
            events.push(Event::new(u, v, i as i64));
        }
    }
    EventLog::from_unsorted(events, 12).unwrap()
}

/// The fully deterministic engine configuration: sequential mode (no
/// thread pool, no in-kernel scheduler, fixed reduction order) with a
/// fault forcing window 2 through full-init retry into the dense oracle.
fn golden_cfg() -> PostmortemConfig {
    PostmortemConfig {
        num_multiwindows: 2,
        mode: ParallelMode::Sequential,
        kernel: KernelKind::SpMV,
        // Pinned, not resolved: the snapshot was blessed under it.
        init_mode: InitMode::Partial,
        threads: 1,
        pr: PrConfig {
            max_iters: 60,
            ..PrConfig::default()
        },
        faults: FaultPlan::single(2, FaultKind::ForceNonConvergence),
        ..PostmortemConfig::default()
    }
}

fn run_trace_json() -> String {
    let tele = Telemetry::enabled();
    let engine =
        PostmortemEngine::with_telemetry(&fixed_log(), spec(), golden_cfg(), tele.clone()).unwrap();
    let out = engine.run();
    // The faulted window must have escalated, not failed: the snapshot is
    // only meaningful if the recovery ladder actually ran.
    assert!(
        matches!(out.windows[2].status, WindowStatus::Recovered { .. }),
        "window 2 should recover via the ladder, got {:?}",
        out.windows[2].status
    );
    assert_eq!(out.windows[2].attempts, 3, "dense-oracle rung");
    tele.trace().deterministic_json()
}

fn spec() -> WindowSpec {
    WindowSpec::covering(&fixed_log(), 30, 12).unwrap()
}

#[test]
fn deterministic_projection_is_reproducible() {
    let a = run_trace_json();
    let b = run_trace_json();
    assert_eq!(a, b, "two identical runs must project identical traces");
}

#[test]
fn trace_matches_golden_snapshot() {
    let got = run_trace_json();
    if std::env::var("BLESS").is_ok() {
        std::fs::write(GOLDEN, &got).unwrap();
        eprintln!("blessed {GOLDEN}");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN)
        .unwrap_or_else(|e| panic!("missing golden snapshot {GOLDEN} ({e}); run with BLESS=1"));
    assert_eq!(
        got, want,
        "trace diverged from {GOLDEN}; if intentional, regenerate with BLESS=1"
    );
}

/// The deterministic projection of an SpMM run must not depend on which
/// inner-loop implementation the runtime dispatch picked, nor on whether
/// converged-lane compaction fired: the machine-dependent `kernel.isa`
/// telemetry lives in gauges/counters (excluded from the projection), and
/// the per-lane iteration events are bit-identical by construction. This
/// is the guarantee that lets CI compare traces across hosts with and
/// without AVX2 — no snapshot re-bless needed for the SIMD rollout.
#[test]
fn spmm_trace_is_stable_across_simd_policies_and_compaction() {
    let spmm_trace = |simd: SimdPolicy, compaction: bool| -> String {
        let cfg = PostmortemConfig {
            num_multiwindows: 2,
            mode: ParallelMode::Sequential,
            kernel: KernelKind::SpMM { lanes: 8 },
            init_mode: InitMode::Partial,
            threads: 1,
            pr: PrConfig {
                max_iters: 60,
                simd,
                compaction,
                ..PrConfig::default()
            },
            ..PostmortemConfig::default()
        };
        let tele = Telemetry::enabled();
        let engine =
            PostmortemEngine::with_telemetry(&fixed_log(), spec(), cfg, tele.clone()).unwrap();
        engine.run();
        tele.trace().deterministic_json()
    };
    let reference = spmm_trace(SimdPolicy::BitWalk, false);
    for simd in [SimdPolicy::BitWalk, SimdPolicy::Scalar, SimdPolicy::Auto] {
        for compaction in [false, true] {
            assert_eq!(
                spmm_trace(simd, compaction),
                reference,
                "{simd:?} compaction={compaction}: deterministic projection diverged"
            );
        }
    }
}

#[test]
fn failed_then_recovered_window_keeps_both_attempts() {
    let json = run_trace_json();
    // Attempt 1 ran to the iteration cap and its history is retained...
    assert!(
        json.contains("\"window\": 2, \"attempt\": 1, \"iteration\": 60, \"kind\": \"iteration\""),
        "pre-retry residual history must survive recovery"
    );
    // ...the ladder's escalations are on later attempts...
    assert!(
        json.contains("\"attempt\": 2, \"iteration\": 0, \"kind\": \"recovery_full_init_retry\"")
    );
    assert!(json.contains("\"attempt\": 3, \"iteration\": 0, \"kind\": \"recovery_dense_oracle\""));
    // ...and the terminal marker carries the final rung.
    assert!(json.contains(
        "\"window\": 2, \"attempt\": 3, \"iteration\": 0, \"kind\": \"window_recovered\""
    ));
}
