//! Equivalence suite for the streamed and windowed simulation paths.
//!
//! Pins two guarantees against one sequential [`SimEngine::run_dispatch`]:
//!
//! 1. Simulating a trace window by window with
//!    [`SimEngine::run_window_dispatch`] under [`WarmupWindow::FullPrefix`],
//!    merging the [`DenseMissTable`] partials in window order and folding
//!    them with [`result_from_dense`], is **bit-identical** — for every
//!    predictor family and window size. `btr-shard`'s `tests/window_units.rs`
//!    checks its units against this oracle.
//! 2. A one-slot [`SimEngine::run_fused_streamed`] over a chunked `BTRT`
//!    stream is **bit-identical** for any chunking (the multi-slot streamed
//!    sweep is pinned by `tests/fused_equivalence.rs`).

use btr_core::analysis::DenseMissTable;
use btr_sim::config::{PredictorFamily, PredictorKind, WarmupWindow};
use btr_sim::engine::{result_from_dense, RunResult, SimEngine};
use btr_trace::io::binary;
use btr_trace::{
    BranchAddr, BranchRecord, FastBtrtReader, InternedTrace, Outcome, Trace, TraceBuilder,
};
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

/// Simulates `trace` as consecutive windows of `window` records, each on a
/// fresh predictor re-warmed on its full prefix, and merges the partials in
/// window order.
fn run_windowed(
    engine: &SimEngine,
    trace: &InternedTrace,
    kind: PredictorKind,
    window: usize,
) -> RunResult {
    let mut dense = DenseMissTable::new(trace.static_count());
    for start in (0..trace.len()).step_by(window) {
        let partial = engine.run_window_dispatch(
            trace,
            &mut kind.build_dispatch(),
            start,
            start + window,
            WarmupWindow::FullPrefix,
        );
        dense.merge(&partial);
    }
    result_from_dense(dense, trace.addrs())
}

#[test]
fn windowed_full_prefix_warmup_is_bit_identical_to_dispatch() {
    let engine = SimEngine::new();
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
                let windowed = run_windowed(&engine, &interned, kind, window);
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
    let interned = TraceBuilder::new("empty").build().intern();
    // Bounds past the end clamp to the (empty) trace.
    let dense = SimEngine::new().run_window_dispatch(
        &interned,
        &mut PredictorKind::GAsPaper { history: 4 }.build_dispatch(),
        0,
        128,
        WarmupWindow::FullPrefix,
    );
    let result = result_from_dense(dense, interned.addrs());
    assert_eq!(result.overall.lookups, 0);
    assert!(result.per_branch.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn windowed_full_prefix_identity_holds_for_arbitrary_partitions(
        seed in any::<u64>(),
        len in 1u64..2000,
        window in 1usize..600,
    ) {
        let trace = mixed_trace(len, seed);
        let interned = trace.intern();
        let kind = PredictorKind::GAsPaper { history: 6 };
        let engine = SimEngine::new();
        let sequential = engine.run_dispatch(&interned, &mut kind.build_dispatch());
        let windowed = run_windowed(&engine, &interned, kind, window);
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
            .run_fused_streamed(chunks, &mut PredictorFamily::PAs.fused_paper(&[6]))
            .unwrap();
        prop_assert_eq!(vec![eager], streamed);
    }
}
