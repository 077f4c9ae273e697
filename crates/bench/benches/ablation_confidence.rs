//! Ablation A3: class-based confidence (§5.3) against Jacobsen's one-level
//! and two-level dynamic estimators.
//!
//! Runs at a larger scale than the shared bench context (~340k conditional
//! records) so the replay, not per-trace set-up, dominates the measurement.
//! Throughput is the suite's conditional records per second.

use btr_bench::{bench_context, bench_data};
use btr_sim::experiments;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn bench_ablation_confidence(c: &mut Criterion) {
    let ctx = bench_context().with_scale(2e-5);
    let data = bench_data(&ctx);
    let records: u64 = data.traces.iter().map(|t| t.conditional_count()).sum();
    let mut group = c.benchmark_group("ablation_confidence");
    group.sample_size(10);
    group.throughput(Throughput::Elements(records));
    group.bench_function("three_estimators", |b| {
        b.iter(|| experiments::ablation_confidence(&ctx, &data))
    });
    group.finish();
}

criterion_group!(benches, bench_ablation_confidence);
criterion_main!(benches);
