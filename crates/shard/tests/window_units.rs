//! Pins every planned unit's [`UnitSpec::execute`] partial to a per-history
//! oracle: each history length replays its own standalone paper predictor
//! through [`SimEngine::run_window_dispatch`] with
//! [`WarmupWindow::FullPrefix`] (train on every record before the window,
//! score the window), folded by [`result_from_dense`]. Units instead sweep
//! their whole history group in one pass with a warm-only prefix; the two
//! must agree bit for bit for every window count, both families, regenerated
//! and file-backed units, and on both tiers of [`SimEngine::run_batch`]
//! (SWAR, and the scalar fallback a trace with more than
//! [`MAX_SWAR_IDS`] static branches takes).

use btr_predictors::swar::MAX_SWAR_IDS;
use btr_shard::{SweepSpec, UnitSpec};
use btr_sim::config::{PredictorFamily, PredictorKind, WarmupWindow};
use btr_sim::engine::{result_from_dense, SimEngine};
use btr_sim::sweep::SweepResult;
use btr_trace::{BranchAddr, BranchRecord, InternedTrace, Outcome, Trace, TraceMetadata};
use btr_wire::Wire;
use btr_workloads::{Benchmark, SuiteConfig};
use std::fs;
use std::path::PathBuf;

/// Histories chunked by 3 into `[0, 1, 2]` and `[5]`: the first group holds
/// the degenerate h = 0, 1 and 2 geometries.
const HISTORIES: [u32; 4] = [0, 1, 2, 5];

/// About 11,000 `compress` records: every window spans several 512-record
/// replay blocks, and most window starts fall inside a block.
fn config() -> SuiteConfig {
    SuiteConfig::default().with_scale(2e-6)
}

fn spec(family: PredictorFamily, window_count: u32, trace_file: Option<String>) -> SweepSpec {
    SweepSpec {
        family,
        histories: HISTORIES.to_vec(),
        benchmarks: vec![Benchmark::compress()],
        config: config(),
        history_group: 3,
        window_count,
        trace_file,
    }
}

/// The per-history windowed sweep the units replaced.
fn oracle(unit: &UnitSpec, interned: &InternedTrace) -> SweepResult {
    let (start, end) =
        UnitSpec::window_bounds(interned.len(), unit.window_index, unit.window_count);
    let engine = SimEngine::new();
    let parts = unit
        .histories
        .iter()
        .map(|&history| {
            let kind = match unit.family {
                PredictorFamily::PAs => PredictorKind::PAsPaper { history },
                PredictorFamily::GAs => PredictorKind::GAsPaper { history },
            };
            let mut predictor = kind.build_dispatch();
            let dense = engine.run_window_dispatch(
                interned,
                &mut predictor,
                start,
                end,
                WarmupWindow::FullPrefix,
            );
            (history, result_from_dense(dense, interned.addrs()))
        })
        .collect();
    SweepResult::from_parts(unit.family, parts)
}

/// Executes every unit of `spec` for window counts 1..=4 and checks each
/// partial against the oracle over `interned` (the records the units see).
fn check_every_unit(family: PredictorFamily, trace_file: Option<String>, interned: &InternedTrace) {
    for window_count in 1..=4 {
        let units = spec(family, window_count, trace_file.clone())
            .plan_units()
            .expect("spec plans");
        assert_eq!(units.len(), 2 * window_count as usize);
        for unit in &units {
            let got = unit.execute().expect("unit executes");
            let want = oracle(unit, interned);
            assert_eq!(
                got,
                want,
                "{} unit {} (window {}/{window_count}, histories {:?}, file {:?})",
                family.label(),
                unit.unit_id,
                unit.window_index,
                unit.histories,
                unit.trace_file,
            );
            assert_eq!(got.to_btrw(), want.to_btrw());
        }
    }
}

fn write_capture(tag: &str, trace: &Trace) -> String {
    let mut bytes = Vec::new();
    btr_trace::io::write_binary(&mut bytes, trace).expect("writing to a Vec cannot fail");
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("window-units");
    fs::create_dir_all(&dir).expect("tmpdir is writable");
    let path = dir.join(format!("{tag}.btrt"));
    fs::write(&path, bytes).expect("trace file is writable");
    path.to_string_lossy().into_owned()
}

/// Sites visited round-robin, four laps: the first window of a split into
/// at most four already holds more than [`MAX_SWAR_IDS`] static branches.
fn wide_trace() -> Trace {
    const SITES: u64 = MAX_SWAR_IDS as u64 + 1_000;
    let records = (0..4 * SITES)
        .map(|i| {
            let site = i % SITES;
            let taken = !(i / SITES + site % 5).is_multiple_of(3);
            BranchRecord::conditional(
                BranchAddr::new(0x4000 + site * 4),
                Outcome::from_bool(taken),
            )
        })
        .collect();
    Trace::from_records(TraceMetadata::named("wide"), records)
}

#[test]
fn regenerated_units_match_the_per_history_oracle() {
    let interned = Benchmark::compress().generate(&config()).intern();
    assert!(
        PredictorFamily::PAs
            .fused_paper(&HISTORIES)
            .swar_ready(interned.static_count()),
        "the regenerated trace must exercise the SWAR tier"
    );
    for family in [PredictorFamily::PAs, PredictorFamily::GAs] {
        check_every_unit(family, None, &interned);
    }
}

#[test]
fn file_backed_units_match_the_per_history_oracle() {
    let trace = Benchmark::compress().generate(&config());
    let path = write_capture("compress", &trace);
    let interned = trace.intern();
    for family in [PredictorFamily::PAs, PredictorFamily::GAs] {
        check_every_unit(family, Some(path.clone()), &interned);
    }
}

#[test]
fn units_over_too_many_static_branches_take_the_scalar_fallback_bit_identically() {
    let trace = wide_trace();
    let interned = trace.intern();
    assert!(interned.static_count() > MAX_SWAR_IDS);
    assert!(
        !PredictorFamily::PAs
            .fused_paper(&HISTORIES)
            .swar_ready(interned.static_count()),
        "the wide trace must fall outside the SWAR tier"
    );
    let path = write_capture("wide", &trace);
    for family in [PredictorFamily::PAs, PredictorFamily::GAs] {
        check_every_unit(family, Some(path.clone()), &interned);
    }
}
