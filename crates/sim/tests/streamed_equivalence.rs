//! Equivalence suite for the streaming and windowed simulation paths.
//!
//! Pins the two guarantees the streaming subsystem rests on:
//!
//! 1. [`SimEngine::run_streamed`] over a chunked `BTRT` stream is
//!    **bit-identical** to [`SimEngine::run_dispatch`] over the eagerly-read,
//!    interned trace — for every predictor family, chunk size and warmup.
//! 2. Windowed-parallel simulation with [`WarmupWindow::FullPrefix`] is
//!    **bit-identical** to the sequential dispatch run, while finite warmup
//!    windows diverge by a bounded, shrinking amount.

use btr_sim::config::{PredictorKind, WarmupWindow, WindowConfig};
use btr_sim::engine::SimEngine;
use btr_sim::runner::SuiteRunner;
use btr_trace::io::binary;
use btr_trace::{BranchAddr, BranchRecord, FastBtrtReader, Outcome, Trace, TraceBuilder};
use btr_workloads::spec::{Benchmark, SuiteConfig};
use proptest::prelude::*;

/// A synthetic trace mixing biased, alternating and pseudo-random branches
/// over many addresses — the same shape the engine unit tests use, but
/// parameterised by seed so several distinct workloads are covered.
fn mixed_trace(n: u64, seed: u64) -> Trace {
    let mut b = TraceBuilder::new("mixed").with_seed(seed);
    let mut state = seed | 1;
    for i in 0..n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let addr = BranchAddr::new(0x40_0000 + ((state >> 45) & 0xff) * 4);
        let taken = match i % 3 {
            0 => i % 2 == 0,
            1 => true,
            _ => (state >> 33) & 1 == 1,
        };
        b.push(BranchRecord::conditional(addr, Outcome::from_bool(taken)));
    }
    b.build()
}

/// A small but realistic generated benchmark trace.
fn generated_trace() -> Trace {
    Benchmark::compress().generate(
        &SuiteConfig::default()
            .with_scale(5e-8)
            .with_seed(11)
            .with_min_executions_per_branch(50),
    )
}

fn predictor_kinds() -> Vec<PredictorKind> {
    vec![
        PredictorKind::PAsPaper { history: 8 },
        PredictorKind::GAsPaper { history: 12 },
        PredictorKind::Gshare { history: 10 },
        PredictorKind::Bimodal { index_bits: 12 },
        PredictorKind::StaticTaken,
    ]
}

#[test]
fn run_streamed_is_bit_identical_to_run_dispatch() {
    for trace in [mixed_trace(6000, 0xfeed), generated_trace()] {
        let mut buf = Vec::new();
        binary::write_trace(&mut buf, &trace).unwrap();
        let interned = trace.intern();
        let engine = SimEngine::new();
        for kind in predictor_kinds() {
            let eager = engine.run_dispatch(&interned, &mut kind.build_dispatch());
            for chunk_records in [1usize, 7, 4096, 10_000_000] {
                let chunks = FastBtrtReader::new(buf.as_slice(), chunk_records).unwrap();
                let streamed = engine
                    .run_streamed_dispatch(chunks, &mut kind.build_dispatch())
                    .unwrap();
                assert_eq!(
                    eager,
                    streamed,
                    "{} diverged at chunk size {chunk_records}",
                    kind.label()
                );
            }
        }
    }
}

#[test]
fn run_streamed_honours_engine_warmup_identically() {
    let trace = mixed_trace(3000, 0xabcd);
    let mut buf = Vec::new();
    binary::write_trace(&mut buf, &trace).unwrap();
    let interned = trace.intern();
    let kind = PredictorKind::PAsPaper { history: 4 };
    for warmup in [0u64, 1, 137, 2999, 3000, 9999] {
        let engine = SimEngine::new().with_warmup(warmup);
        let eager = engine.run_dispatch(&interned, &mut kind.build_dispatch());
        let chunks = FastBtrtReader::new(buf.as_slice(), 256).unwrap();
        let streamed = engine
            .run_streamed_dispatch(chunks, &mut kind.build_dispatch())
            .unwrap();
        assert_eq!(eager, streamed, "warmup {warmup} diverged");
    }
}

#[test]
fn run_streamed_propagates_decode_errors() {
    let trace = mixed_trace(500, 0x1234);
    let mut buf = Vec::new();
    binary::write_trace(&mut buf, &trace).unwrap();
    buf.truncate(buf.len() - 3);
    let chunks = FastBtrtReader::new(buf.as_slice(), 64).unwrap();
    let err = SimEngine::new()
        .run_streamed_dispatch(chunks, &mut PredictorKind::StaticTaken.build_dispatch())
        .unwrap_err();
    assert!(
        matches!(err, btr_trace::TraceError::TruncatedRecord { .. }),
        "{err:?}"
    );
}

#[test]
fn windowed_full_prefix_warmup_is_bit_identical_to_dispatch() {
    let engine = SimEngine::new();
    let runner = SuiteRunner::new(SuiteConfig::default()).with_threads(3);
    // Degenerate window sizes are O(n²/window) under full-prefix warmup, so
    // they run on a short trace; realistic sizes cover the longer traces.
    let short = mixed_trace(1200, 0x5eed);
    let cases: Vec<(Trace, Vec<usize>)> = vec![
        (short, vec![1, 7, 100]),
        (mixed_trace(5000, 0xbeef), vec![617, 5000, 5005]),
        (generated_trace(), vec![1000]),
    ];
    for (trace, windows) in cases {
        let interned = trace.intern();
        for kind in predictor_kinds() {
            let sequential = engine.run_dispatch(&interned, &mut kind.build_dispatch());
            for &window in &windows {
                let windowed =
                    runner.run_trace_windowed(&interned, kind, WindowConfig::new(window));
                assert_eq!(
                    sequential,
                    windowed,
                    "{} diverged at window size {window}",
                    kind.label()
                );
            }
        }
    }
}

#[test]
fn windowed_empty_trace_produces_empty_result() {
    let runner = SuiteRunner::new(SuiteConfig::default()).with_threads(2);
    let interned = TraceBuilder::new("empty").build().intern();
    let result = runner.run_trace_windowed(
        &interned,
        PredictorKind::GAsPaper { history: 4 },
        WindowConfig::new(128),
    );
    assert_eq!(result.overall.lookups, 0);
    assert!(result.per_branch.is_empty());
}

#[test]
fn finite_warmup_divergence_is_bounded_and_shrinks() {
    let trace = mixed_trace(20_000, 0xcafe);
    let interned = trace.intern();
    let engine = SimEngine::new();
    let runner = SuiteRunner::new(SuiteConfig::default()).with_threads(4);
    // Bounds are calibrated to this deterministic workload (a third of its
    // outcomes are pure noise, the worst case for window re-convergence):
    // gshare re-converges fast; PAs pays slow per-address PHT retraining.
    let cases = [
        (
            PredictorKind::Gshare { history: 8 },
            [(0usize, 0.15), (1024, 0.04), (4096, 0.005)],
        ),
        (
            PredictorKind::PAsPaper { history: 8 },
            [(0usize, 0.10), (1024, 0.10), (4096, 0.05)],
        ),
    ];
    for (kind, bounds) in cases {
        let exact = engine.run_dispatch(&interned, &mut kind.build_dispatch());
        let exact_rate = exact.miss_rate().unwrap();
        let mut divergences = Vec::new();
        for (warm, bound) in bounds {
            let cfg = WindowConfig::new(1000).with_warmup_window(WarmupWindow::Records(warm));
            let approx = runner.run_trace_windowed(&interned, kind, cfg);
            // Every record is still scored exactly once: only *hit* counts
            // move under approximate warmup.
            assert_eq!(approx.overall.lookups, exact.overall.lookups);
            let divergence = (approx.miss_rate().unwrap() - exact_rate).abs();
            assert!(
                divergence <= bound,
                "{} warmup {warm}: divergence {divergence} exceeds {bound}",
                kind.label()
            );
            divergences.push(divergence);
        }
        // Divergence shrinks as the warmup window grows.
        assert!(divergences[1] <= divergences[0] + 1e-12, "{divergences:?}");
        assert!(divergences[2] <= divergences[1] + 1e-12, "{divergences:?}");
        // A warmup window longer than any prefix is exactly FullPrefix.
        let huge = WindowConfig::new(1000).with_warmup_window(WarmupWindow::Records(usize::MAX));
        assert_eq!(runner.run_trace_windowed(&interned, kind, huge), exact);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn windowed_full_prefix_identity_holds_for_arbitrary_partitions(
        seed in any::<u64>(),
        len in 1u64..2000,
        window in 1usize..600,
        threads in 1usize..5,
    ) {
        let trace = mixed_trace(len, seed);
        let interned = trace.intern();
        let kind = PredictorKind::GAsPaper { history: 6 };
        let sequential = SimEngine::new().run_dispatch(&interned, &mut kind.build_dispatch());
        let runner = SuiteRunner::new(SuiteConfig::default()).with_threads(threads);
        let windowed = runner.run_trace_windowed(&interned, kind, WindowConfig::new(window));
        prop_assert_eq!(sequential, windowed);
    }

    #[test]
    fn streamed_identity_holds_for_arbitrary_chunkings(
        seed in any::<u64>(),
        len in 0u64..1500,
        chunk_records in 1usize..400,
    ) {
        let trace = mixed_trace(len, seed);
        let mut buf = Vec::new();
        binary::write_trace(&mut buf, &trace).unwrap();
        let kind = PredictorKind::PAsPaper { history: 6 };
        let engine = SimEngine::new();
        let eager = engine.run_dispatch(&trace.intern(), &mut kind.build_dispatch());
        let chunks = FastBtrtReader::new(buf.as_slice(), chunk_records).unwrap();
        let streamed = engine
            .run_streamed_dispatch(chunks, &mut kind.build_dispatch())
            .unwrap();
        prop_assert_eq!(eager, streamed);
    }
}
