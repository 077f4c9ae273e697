//! The `shard` and `reproduce` workloads: real `btr-shard run` and
//! `reproduce all` processes, launch to exit, with every output verified.

use crate::inputs;
use crate::proc::{self, Finished};
use crate::report::Outcome;
use crate::stats::{median, quantile};
use btr_shard::{Manifest, OutDir};
use btr_sim::config::PredictorFamily;
use btr_sim::sweep::HistorySweep;
use btr_wire::{json, Wire};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Launches of the program's usage path after each run; `setup_s` is their
/// median, so it samples the whole window.
const STARTUP_LAUNCHES: usize = 8;
/// `btr-shard resume` replays after each run (a replay re-runs one unit of
/// the 6, so takes about a third of a run).
const SHARD_REPLAYS: usize = 2;
/// Runs per measurement, whatever the window.
const MIN_RUNS: usize = 3;

/// The shard workload's captured trace on disk and the expected result.
pub struct ShardInput {
    pub capture: PathBuf,
    pub records: u64,
    /// `final.btrw` as the in-process reference sweep encodes it.
    pub expected: Vec<u8>,
}

pub const SHARD_HISTORIES: std::ops::RangeInclusive<u32> = 0..=16;
pub const SHARD_GROUP: usize = 6;
pub const SHARD_WINDOWS: u32 = 2;
pub const SHARD_WORKERS: usize = 2;

/// Writes the seeded capture (untimed) and computes the reference by
/// decoding that file and sweeping it in-process.
pub fn shard_input(work: &Path, seed: u64) -> Result<ShardInput, String> {
    let capture = work.join("capture.btrt");
    let trace = inputs::shard_capture(seed);
    std::fs::write(&capture, inputs::btrt_bytes(&trace))
        .map_err(|e| format!("writing {}: {e}", capture.display()))?;
    drop(trace);
    let mut file = std::fs::File::open(&capture).map_err(|e| e.to_string())?;
    let decoded = btr_trace::io::read_binary(&mut file).map_err(|e| e.to_string())?;
    let expected = HistorySweep::new(PredictorFamily::PAs, SHARD_HISTORIES.collect())
        .run(&[&decoded])
        .to_btrw();
    Ok(ShardInput {
        capture: std::fs::canonicalize(&capture).map_err(|e| e.to_string())?,
        records: decoded.len() as u64,
        expected,
    })
}

fn shard_run_args(out: &Path, capture: &Path) -> Vec<String> {
    let histories: Vec<String> = SHARD_HISTORIES.map(|h| h.to_string()).collect();
    [
        "run",
        &out.display().to_string(),
        "--family",
        "pas",
        "--histories",
        &histories.join(","),
        "--benchmarks",
        "gcc",
        "--group",
        &SHARD_GROUP.to_string(),
        "--windows",
        &SHARD_WINDOWS.to_string(),
        "--workers",
        &SHARD_WORKERS.to_string(),
        "--trace-file",
        &capture.display().to_string(),
    ]
    .map(String::from)
    .to_vec()
}

/// One checked `btr-shard run` into a fresh `out`: the finished process,
/// the units the run planned, the units that did not commit or mismatched,
/// and (with `watch`) the worker processes seen, one per unit attempt. The
/// planned and committed units are read from the run's manifest; a run that
/// left none counts as one failed unit.
pub fn shard_run(
    bin_dir: &Path,
    out: &Path,
    input: &ShardInput,
    watch: bool,
) -> Result<(Finished, u64, u64, usize), String> {
    let _ = std::fs::remove_dir_all(out);
    let mut command = Command::new(bin_dir.join("btr-shard"));
    command.args(shard_run_args(out, &input.capture));
    let (done, workers) =
        proc::run_watched(&mut command, watch).map_err(|e| format!("launching btr-shard: {e}"))?;
    let manifest = Manifest::load(&OutDir::new(out)).ok();
    let planned = manifest
        .as_ref()
        .and_then(|m| m.spec.plan_units().ok())
        .map_or(0, |units| units.len() as u64);
    let committed = manifest.map_or(0, |m| m.completed.len() as u64);
    let matches = std::fs::read(out.join("final.btrw")).is_ok_and(|b| b == input.expected);
    let units = planned.max(1);
    let failed = if done.status.success() && matches && planned > 0 {
        planned - committed.min(planned)
    } else {
        units
    };
    Ok((done, units, failed, workers))
}

pub fn measure_shard(
    bin_dir: &Path,
    work: &Path,
    seed: u64,
    seconds: u64,
) -> Result<Outcome, String> {
    let input = shard_input(work, seed)?;
    let shard = bin_dir.join("btr-shard");
    let out = work.join("shard-out");
    let mut runs = Runs::default();
    // Warm-up, checked but not timed: the first run pages in the binaries
    // and the capture file.
    let (_, mut attempted, mut failed, _) = shard_run(bin_dir, &out, &input, false)?;
    let started = Instant::now();
    while runs.walls.len() < MIN_RUNS || started.elapsed().as_secs() < seconds {
        let (run, units, run_failed, _) = shard_run(bin_dir, &out, &input, false)?;
        attempted += units;
        failed += run_failed;
        runs.add(&run);
        // Replay: crash recovery. Lose the last unit's checkpoint and
        // resume, which validates the other checkpoints, runs the lost unit
        // in a worker again and re-merges.
        let lost = OutDir::new(&out).partial_path(units as u32 - 1);
        for _ in 0..SHARD_REPLAYS {
            let removed = std::fs::remove_file(&lost).is_ok();
            let resume = proc::run(Command::new(&shard).arg("resume").arg(&out))
                .map_err(|e| format!("launching btr-shard resume: {e}"))?;
            let same = std::fs::read(out.join("final.btrw")).is_ok_and(|b| b == input.expected);
            attempted += 1;
            failed += u64::from(!(removed && resume.status.success() && same && lost.is_file()));
            runs.replays_ms.push(resume.wall.as_secs_f64() * 1e3);
        }
        // The usage path exits 2.
        runs.setups
            .extend(proc::startups(&shard, &["--help"], 2, STARTUP_LAUNCHES)?);
    }
    let _ = std::fs::remove_dir_all(&out);
    Ok(runs.outcome(input.records as f64, attempted, failed))
}

/// The samples of a batch workload, whose operation is one whole run.
#[derive(Default)]
struct Runs {
    /// Launch to exit, in s.
    walls: Vec<f64>,
    cpu_ms: Vec<f64>,
    peaks: Vec<f64>,
    replays_ms: Vec<f64>,
    /// Launch to exit of the usage path, in s.
    setups: Vec<f64>,
}

impl Runs {
    fn add(&mut self, run: &Finished) {
        self.walls.push(run.wall.as_secs_f64());
        self.cpu_ms.push(run.cpu_s * 1e3);
        self.peaks.push(run.peak_rss_mib);
    }

    /// The end-to-end metrics: latency is launch to exit of each run, and
    /// `wall_s` its median.
    fn outcome(mut self, records_per_run: f64, attempted: u64, failed: u64) -> Outcome {
        let total: f64 = self.walls.iter().sum();
        let mut walls_ms: Vec<f64> = self.walls.iter().map(|w| w * 1e3).collect();
        eprintln!(
            "{} runs, {} replays",
            self.walls.len(),
            self.replays_ms.len()
        );
        Outcome {
            correct: failed == 0,
            attempted,
            failed,
            metrics: vec![
                (
                    "records_per_s",
                    records_per_run * self.walls.len() as f64 / total,
                    "records/s",
                ),
                ("latency_p50_ms", median(&mut walls_ms), "ms"),
                ("latency_p90_ms", quantile(&mut walls_ms, 0.9), "ms"),
                ("replay_p50_ms", median(&mut self.replays_ms), "ms"),
                ("wall_s", median(&mut self.walls), "s"),
                ("setup_s", median(&mut self.setups), "s"),
                ("peak_rss_mib", median(&mut self.peaks), "MiB"),
                ("cpu_per_op_ms", median(&mut self.cpu_ms), "ms"),
            ],
        }
    }
}

/// `reproduce --scale`: a full `reproduce all` takes 1.3–1.7 s on a 2-vCPU
/// machine.
pub const REPRODUCE_SCALE: &str = "5e-5";

/// The files of an artifact directory, by name.
pub type Artifacts = BTreeMap<String, Vec<u8>>;

/// Every file of an artifact directory, by name.
pub fn artifacts(dir: &Path) -> Artifacts {
    let mut files = BTreeMap::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            if let Ok(bytes) = std::fs::read(entry.path()) {
                files.insert(entry.file_name().to_string_lossy().into_owned(), bytes);
            }
        }
    }
    files
}

/// Dynamic conditional branches the suite generated, from `table1.json`.
fn generated_branches(files: &Artifacts) -> Option<u64> {
    let text = std::str::from_utf8(files.get("table1.json")?).ok()?;
    let value = json::from_str(text).ok()?;
    let mut total = 0;
    for row in value.get("rows").ok()?.as_list().ok()? {
        total += row.get("generated_dynamic_branches").ok()?.as_u64().ok()?;
    }
    Some(total)
}

/// Whether `scripts/check_artifacts.py` accepts the directory.
fn artifacts_check(dir: &Path) -> bool {
    Command::new("python3")
        .arg("scripts/check_artifacts.py")
        .arg(dir)
        .stdout(std::process::Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// One `reproduce` run into a fresh `out`.
pub fn reproduce_run(bin_dir: &Path, out: &Path, experiment: &str) -> Result<Finished, String> {
    let _ = std::fs::remove_dir_all(out);
    proc::run(
        Command::new(bin_dir.join("reproduce"))
            .args([experiment, "--scale", REPRODUCE_SCALE, "--out-dir"])
            .arg(out),
    )
    .map_err(|e| format!("launching reproduce: {e}"))
}

/// A checked `reproduce all`: its artifacts must pass the checker and equal
/// `reference` (the first run's) where given. Returns the run, its
/// artifacts and how many of the 20 experiments failed.
pub fn reproduce_checked(
    bin_dir: &Path,
    out: &Path,
    reference: Option<&Artifacts>,
) -> Result<(Finished, Artifacts, u64), String> {
    let run = reproduce_run(bin_dir, out, "all")?;
    let files = artifacts(out);
    let failed = if !run.status.success() || files.len() != 60 || !artifacts_check(out) {
        20
    } else if let Some(reference) = reference {
        let differing = files
            .iter()
            .filter(|(name, bytes)| reference.get(*name) != Some(bytes));
        differing.count().div_ceil(3) as u64
    } else {
        0
    };
    Ok((run, files, failed))
}

pub fn measure_reproduce(bin_dir: &Path, work: &Path, seconds: u64) -> Result<Outcome, String> {
    let program = bin_dir.join("reproduce");
    let out = work.join("reproduce-out");
    let one = work.join("reproduce-one");
    let mut runs = Runs::default();
    let (mut attempted, mut failed) = (0, 0);
    let mut reference: Option<Artifacts> = None;
    let mut records = 0.0;
    let started = Instant::now();
    while runs.walls.len() < MIN_RUNS || started.elapsed().as_secs() < seconds {
        let (run, files, run_failed) = reproduce_checked(bin_dir, &out, reference.as_ref())?;
        attempted += 20;
        failed += run_failed;
        runs.add(&run);
        let reference = reference.get_or_insert(files);
        records = generated_branches(reference).unwrap_or(0) as f64;
        // Replay: regenerate one artifact, which pays the whole suite
        // preparation again (reproduce keeps no results between runs).
        let single = reproduce_run(bin_dir, &one, "table1")?;
        let same = ["table1.txt", "table1.json", "table1.btrw"]
            .iter()
            .all(|name| std::fs::read(one.join(name)).ok().as_ref() == reference.get(*name));
        attempted += 1;
        failed += u64::from(!(single.status.success() && same));
        runs.replays_ms.push(single.wall.as_secs_f64() * 1e3);
        // The usage path exits 1.
        runs.setups
            .extend(proc::startups(&program, &["--help"], 1, STARTUP_LAUNCHES)?);
    }
    if records == 0.0 {
        failed += 1;
    }
    let _ = std::fs::remove_dir_all(&out);
    let _ = std::fs::remove_dir_all(&one);
    Ok(runs.outcome(records, attempted, failed))
}
