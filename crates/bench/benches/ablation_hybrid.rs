//! Ablation A2: the §5.4 classification-guided hybrid against same-budget
//! baselines (gshare, McFarling, plain PAs / GAs).
//!
//! Runs at a larger scale than the shared bench context (~340k conditional
//! records) so the five predictor replays, not per-trace table set-up,
//! dominate the measurement. Throughput is the suite's conditional records
//! per second (each record replays through all five predictors).

use btr_bench::{bench_context, bench_data};
use btr_sim::experiments;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn bench_ablation_hybrid(c: &mut Criterion) {
    let ctx = bench_context().with_scale(2e-5);
    let data = bench_data(&ctx);
    let records: u64 = data.traces.iter().map(|t| t.conditional_count()).sum();
    let mut group = c.benchmark_group("ablation_hybrid");
    group.sample_size(10);
    group.throughput(Throughput::Elements(records));
    group.bench_function("five_predictors", |b| {
        b.iter(|| experiments::ablation_hybrid(&ctx, &data))
    });
    group.finish();
}

criterion_group!(benches, bench_ablation_hybrid);
criterion_main!(benches);
