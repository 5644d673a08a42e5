//! Figure 9: the sweep of Fig. 7 in the few-windows regime (6 windows),
//! where window-level parallelism starves and application-level wins.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use tempopr_bench::{bench_workload, postmortem};
use tempopr_core::{KernelKind, ParallelMode, PostmortemConfig};
use tempopr_datagen::Dataset;
use tempopr_kernel::{Partitioner, Scheduler};

fn bench(c: &mut Criterion) {
    let (log, spec) = bench_workload(Dataset::WikiTalk, 6);
    let mut g = c.benchmark_group("fig9_few_windows");
    for mode in [
        ParallelMode::Nested,
        ParallelMode::ApplicationLevel,
        ParallelMode::WindowLevel,
    ] {
        for kernel in [KernelKind::SpMM { lanes: 16 }, KernelKind::SpMV] {
            let kname = kernel.name();
            for use_window_index in [true, false] {
                let suffix = if use_window_index { "" } else { "/noindex" };
                g.bench_function(format!("{mode:?}/{kname}{suffix}"), |b| {
                    b.iter(|| {
                        let cfg = PostmortemConfig {
                            mode,
                            kernel,
                            scheduler: Scheduler::new(Partitioner::Auto, 1),
                            num_multiwindows: 3,
                            use_window_index,
                            ..Default::default()
                        };
                        std::hint::black_box(postmortem(&log, spec, cfg).total_iterations())
                    })
                });
            }
        }
    }
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench
}
criterion_main!(benches);
