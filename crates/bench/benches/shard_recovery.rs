//! Recovery overhead of the sharded sweep runner: the sequential fused
//! reference vs a clean sharded run vs a sharded run where *every* unit
//! suffers one injected fault (crash, torn/corrupt checkpoint, or stall)
//! and must be re-issued. All three produce bit-identical results
//! (`crates/shard/tests/fault_convergence.rs`); this bench prices the
//! fault tolerance. Uses the in-process launcher so the numbers isolate
//! checkpoint/manifest/retry overhead from process-spawn cost.
//!
//! Throughput unit is history-point elements/s (conditional records ×
//! history lengths per iteration), comparable to the `fused_sweep` bench.

use btr_shard::{
    run_sequential, Coordinator, CoordinatorConfig, FaultPlan, Launcher, OutDir, SweepSpec,
};
use btr_sim::config::PredictorFamily;
use btr_workloads::{Benchmark, SuiteConfig};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The benched sweep: 2 benchmarks × 2 history groups × 2 windows = 8 units.
fn bench_spec() -> SweepSpec {
    SweepSpec {
        family: PredictorFamily::PAs,
        histories: vec![0, 2, 4, 8],
        benchmarks: vec![Benchmark::compress(), Benchmark::li()],
        config: SuiteConfig::default().with_scale(2e-6),
        history_group: 2,
        window_count: 2,
        trace_file: None,
    }
}

fn config(fault_plan: Option<FaultPlan>) -> CoordinatorConfig {
    CoordinatorConfig {
        max_workers: 1,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(2),
        launcher: Launcher::InProcess,
        fault_plan,
        ..CoordinatorConfig::default()
    }
}

/// A fresh output directory per iteration (checkpoint writes are part of
/// the measured cost; reusing a directory would skip them via resume).
fn fresh_dir(counter: &AtomicU64) -> OutDir {
    let n = counter.fetch_add(1, Ordering::Relaxed);
    let dir =
        OutDir::new(PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("shard-recovery-{n}")));
    let _ = std::fs::remove_dir_all(dir.root());
    dir
}

fn bench_shard_recovery(c: &mut Criterion) {
    let spec = bench_spec();
    let records: u64 = spec
        .benchmarks
        .iter()
        .map(|b| b.generate(&spec.config).intern().records().len() as u64)
        .sum();
    let history_points = records * spec.histories.len() as u64;
    eprintln!(
        "shard recovery workload: {records} conditional records, {} histories, 8 units",
        spec.histories.len()
    );
    let counter = AtomicU64::new(0);

    let mut group = c.benchmark_group("shard_recovery");
    group.sample_size(10);
    group.throughput(Throughput::Elements(history_points));
    group.bench_function("sequential/fused_reference", |b| {
        b.iter(|| {
            run_sequential(black_box(&spec))
                .expect("sequential reference runs")
                .history_lengths()
                .len()
        })
    });
    group.bench_function("sharded/clean", |b| {
        b.iter(|| {
            let dir = fresh_dir(&counter);
            let merged = Coordinator::new(dir.clone(), config(None))
                .run(black_box(spec.clone()))
                .expect("clean sharded run converges");
            let _ = std::fs::remove_dir_all(dir.root());
            merged.history_lengths().len()
        })
    });
    // Every unit sweeps its history group in one pass; whole-trace units
    // just have no warm-only prefix, so this variant prices what splitting
    // each trace into windows adds (half the units, no prefix replays).
    group.bench_function("sharded/clean_single_window", |b| {
        let spec = SweepSpec {
            window_count: 1,
            ..spec.clone()
        };
        b.iter(|| {
            let dir = fresh_dir(&counter);
            let merged = Coordinator::new(dir.clone(), config(None))
                .run(black_box(spec.clone()))
                .expect("single-window sharded run converges");
            let _ = std::fs::remove_dir_all(dir.root());
            merged.history_lengths().len()
        })
    });
    group.bench_function("sharded/every_unit_faulted_once", |b| {
        b.iter(|| {
            let dir = fresh_dir(&counter);
            let merged =
                Coordinator::new(dir.clone(), config(Some(FaultPlan::every_first_attempt(7))))
                    .run(black_box(spec.clone()))
                    .expect("faulted sharded run converges");
            let _ = std::fs::remove_dir_all(dir.root());
            merged.history_lengths().len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_shard_recovery);
criterion_main!(benches);
