//! Pins for file-backed sweeps: a spec naming a captured `BTRT` trace file
//! must (a) roundtrip its `trace_file` field on the wire, (b) reject shapes
//! that cannot execute, and (c) produce partials **bit-identical** to the
//! regenerate-from-descriptors route over the same records — the fast
//! decoder and the workload generator must be interchangeable trace sources
//! — and (d) make the sequential reference sweep the captured file, so it
//! equals the merged sharded run over that file.

use btr_shard::{
    run_sequential, Coordinator, CoordinatorConfig, Launcher, OutDir, SweepSpec, UnitSpec,
};
use btr_sim::config::PredictorFamily;
use btr_wire::Wire;
use btr_workloads::{Benchmark, SuiteConfig};
use std::fs;
use std::path::PathBuf;

/// Writes the `compress` workload to a `BTRT` file under the test tmpdir and
/// returns its path as a string.
fn capture_compress_trace(tag: &str, config: &SuiteConfig) -> String {
    let trace = Benchmark::compress().generate(config);
    let mut bytes = Vec::new();
    btr_trace::io::write_binary(&mut bytes, &trace).expect("writing to a Vec cannot fail");
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("trace-file-units");
    fs::create_dir_all(&dir).expect("tmpdir is writable");
    let path = dir.join(format!("{tag}.btrt"));
    fs::write(&path, bytes).expect("trace file is writable");
    path.to_string_lossy().into_owned()
}

fn spec_with(trace_file: Option<String>, window_count: u32) -> SweepSpec {
    SweepSpec {
        family: PredictorFamily::PAs,
        histories: vec![0, 1, 2, 4],
        benchmarks: vec![Benchmark::compress()],
        config: SuiteConfig::default().with_scale(5e-8),
        history_group: 3,
        window_count,
        trace_file,
    }
}

#[test]
fn trace_file_field_roundtrips_on_both_spec_kinds() {
    let spec = spec_with(Some("captures/compress.btrt".into()), 2);
    let back = SweepSpec::from_btrw(&spec.to_btrw()).expect("spec decodes");
    assert_eq!(back, spec);
    for unit in spec.plan_units().expect("spec plans") {
        assert_eq!(unit.trace_file.as_deref(), Some("captures/compress.btrt"));
        let back = UnitSpec::from_btrw(&unit.to_btrw()).expect("unit decodes");
        assert_eq!(back, unit);
    }
}

#[test]
fn trace_file_specs_that_cannot_execute_are_rejected() {
    let mut several = spec_with(Some("t.btrt".into()), 1);
    several.benchmarks = vec![Benchmark::compress(), Benchmark::li()];
    assert!(
        several.validate().is_err(),
        "one shared trace cannot label several benchmarks"
    );
    let empty = spec_with(Some(String::new()), 1);
    assert!(empty.validate().is_err(), "empty path rejected");
}

#[test]
fn a_missing_trace_file_fails_execution_not_planning() {
    let spec = spec_with(Some("definitely/not/here.btrt".into()), 1);
    let units = spec.plan_units().expect("planning needs no file access");
    let err = units[0].execute().expect_err("missing file cannot execute");
    assert!(err.to_string().contains("not/here.btrt"), "{err}");
}

#[test]
fn file_backed_units_match_regenerated_units_bit_for_bit() {
    let config = SuiteConfig::default().with_scale(5e-8);
    let path = capture_compress_trace("equivalence", &config);
    // Both whole-trace (fused path) and windowed (dispatch path) units must
    // agree: same records, so same partials, byte for byte on the wire.
    for window_count in [1, 2] {
        let regenerated = spec_with(None, window_count);
        let file_backed = spec_with(Some(path.clone()), window_count);
        let reg_units = regenerated.plan_units().expect("regenerated spec plans");
        let file_units = file_backed.plan_units().expect("file spec plans");
        assert_eq!(reg_units.len(), file_units.len());
        for (reg, file) in reg_units.iter().zip(&file_units) {
            let reg_result = reg.execute().expect("regenerated unit runs");
            let file_result = file.execute().expect("file-backed unit runs");
            assert_eq!(
                reg_result.to_btrw(),
                file_result.to_btrw(),
                "unit {} diverged between trace sources (windows={window_count})",
                reg.unit_id
            );
        }
    }
}

#[test]
fn sequential_reference_sweeps_the_captured_file_like_the_sharded_run() {
    // Capture with a different seed than the spec's config, so regenerating
    // the named benchmark would give different records: only a sequential
    // run that really decodes the file can match the file-backed units.
    let capture_config = SuiteConfig::default().with_scale(5e-8).with_seed(99);
    let path = capture_compress_trace("sequential", &capture_config);
    let file_backed = spec_with(Some(path), 2);
    let sequential = run_sequential(&file_backed).expect("file-backed sequential runs");
    let regenerated = run_sequential(&spec_with(None, 2)).expect("regenerated sequential runs");
    assert_ne!(
        sequential.to_btrw(),
        regenerated.to_btrw(),
        "the capture must differ from the regenerated benchmark for this pin to bite"
    );

    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("trace-file-sequential");
    let _ = fs::remove_dir_all(&root);
    let config = CoordinatorConfig {
        launcher: Launcher::InProcess,
        ..CoordinatorConfig::default()
    };
    let sharded = Coordinator::new(OutDir::new(&root), config)
        .run(file_backed)
        .expect("file-backed sharded sweep converges");
    assert_eq!(sharded.to_btrw(), sequential.to_btrw());
    let _ = fs::remove_dir_all(&root);
}
