//! Window graphs are symmetric-only, and six entry points keep the shape
//! they had when a directed build was possible, so that existing callers
//! keep compiling. Each refuses a directed request with a typed error (the
//! temporal CSR build, with a panic) instead of serving it, and none
//! carries state for one.

use tempopr::graph::{
    plan_parts_for_budget, Csr, GraphError, MultiWindowSet, PartitionStrategy, StorageProfile,
    TemporalCsr,
};
use tempopr::kernel::{
    pagerank_batch, pagerank_batch_indexed, pagerank_csr, pagerank_query_batch,
    pagerank_query_batch_indexed, pagerank_window, pagerank_window_indexed,
    pagerank_window_personalized, BatchObs, Init, KernelError, PrWorkspace, QueryBatch, QueryInit,
    QuerySpec, QueryWorkspace, SpmmWorkspace,
};
use tempopr::prelude::*;

fn log() -> EventLog {
    let events = (0..60u32)
        .map(|i| Event::new(i % 9, (i * 4 + 1) % 9, i64::from(i) * 3))
        .filter(|e| e.u != e.v)
        .collect();
    EventLog::from_unsorted(events, 9).unwrap()
}

#[test]
#[should_panic(expected = "symmetric-only")]
fn temporal_csr_from_log_panics_on_a_directed_build() {
    let _ = TemporalCsr::from_log(&log(), false);
}

#[test]
fn multi_window_set_build_refuses_a_directed_build() {
    let log = log();
    let spec = WindowSpec::covering(&log, 40, 20).unwrap();
    let err = MultiWindowSet::build(&log, spec, 2, false, PartitionStrategy::EqualWindows);
    assert_eq!(err.unwrap_err(), GraphError::NotSymmetric);
}

#[test]
fn budget_planner_refuses_a_directed_build_at_any_budget() {
    let log = log();
    let spec = WindowSpec::covering(&log, 40, 20).unwrap();
    let err = plan_parts_for_budget(
        &log,
        &spec,
        usize::MAX,
        false,
        PartitionStrategy::EqualWindows,
        StorageProfile::Resident,
        1,
    )
    .unwrap_err();
    assert_eq!((err.required, err.budget), (usize::MAX, usize::MAX));
}

#[test]
fn a_parts_pull_side_is_its_one_temporal_csr() {
    let log = log();
    let spec = WindowSpec::covering(&log, 40, 20).unwrap();
    let set = MultiWindowSet::build(&log, spec, 2, true, PartitionStrategy::EqualWindows).unwrap();
    for part in set.graphs() {
        assert!(std::ptr::eq(part.pull_tcsr(), part.tcsr()));
    }
}

/// Every kernel entry that takes a `(pull, push)` pair refuses two
/// structures, even two equal ones, before it reads either.
#[test]
fn every_kernel_entry_refuses_two_structures() {
    let log = log();
    let n = log.num_vertices();
    let t = TemporalCsr::from_log(&log, true);
    let twin = t.clone();
    let ranges = [TimeRange::new(0, 60), TimeRange::new(30, 120)];
    let set = MultiWindowSet::build(
        &log,
        WindowSpec::new(0, 60, 30, 2).unwrap(),
        1,
        true,
        PartitionStrategy::EqualWindows,
    )
    .unwrap();
    let index = set.graphs()[0].window_index();
    let views = [index.view(0), index.view(1)];
    let cfg = PrConfig::default();
    let inits = [Init::Uniform; 2];
    let pref = vec![1.0; n];
    let batch = QueryBatch::new(vec![QuerySpec::Personalized {
        preference: &pref,
        alpha: 0.15,
    }])
    .unwrap();
    let qinits = [QueryInit::Fresh; 2];
    let (mut pr, mut spmm, mut q) = (
        PrWorkspace::default(),
        SpmmWorkspace::default(),
        QueryWorkspace::default(),
    );
    let refused = KernelError::NotSymmetric;
    let range = ranges[0];
    let err = pagerank_window(&t, &twin, range, Init::Uniform, &cfg, None, &mut pr);
    assert_eq!(err.unwrap_err(), refused, "pagerank_window");
    let err = pagerank_window_indexed(&t, &twin, &views[0], Init::Uniform, &cfg, None, &mut pr);
    assert_eq!(err.unwrap_err(), refused, "pagerank_window_indexed");
    let err = pagerank_batch(&t, &twin, &ranges, &inits, &cfg, None, &mut spmm);
    assert_eq!(err.unwrap_err(), refused, "pagerank_batch");
    let err = pagerank_batch_indexed(&t, &twin, &views, &inits, &cfg, None, &mut spmm);
    assert_eq!(err.unwrap_err(), refused, "pagerank_batch_indexed");
    let err = pagerank_query_batch(&t, &twin, &ranges, &batch, &qinits, &cfg, None, &mut q);
    assert_eq!(err.unwrap_err(), refused, "pagerank_query_batch");
    let off = BatchObs::off();
    let err =
        pagerank_query_batch_indexed(&t, &twin, &views, &batch, &qinits, &cfg, None, &mut q, off);
    assert_eq!(err.unwrap_err(), refused, "pagerank_query_batch_indexed");
    let err = pagerank_window_personalized(&t, &twin, range, &pref, &cfg, None, &mut pr);
    assert_eq!(err.unwrap_err(), refused, "pagerank_window_personalized");
    let c = Csr::from_events(n, log.events());
    let err = pagerank_csr(&c, &c.clone(), Init::Uniform, &cfg, None, &mut pr);
    assert_eq!(err.unwrap_err(), refused, "pagerank_csr");
}

/// The batch workspace's `dangling_mask` is a field no batch writes: a
/// symmetric window's active vertices all have out-edges.
#[test]
fn no_batch_writes_the_dangling_mask() {
    let t = TemporalCsr::from_log(&log(), true);
    let ranges = [TimeRange::new(0, 60), TimeRange::new(30, 120)];
    let mut ws = SpmmWorkspace::default();
    let cfg = PrConfig::default();
    pagerank_batch(&t, &t, &ranges, &[Init::Uniform; 2], &cfg, None, &mut ws).unwrap();
    assert!(!ws.active_mask.is_empty());
    assert!(ws.dangling_mask.is_empty());
}
