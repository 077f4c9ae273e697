//! `perfbench`: the end-to-end and per-layer benchmark of the three shipped
//! surfaces — the `btrd` daemon, `btr-shard run` and `reproduce all`.
//!
//! ```text
//! perfbench --workload classify|sweep|shard|reproduce --seed N --seconds S
//!           --trace 0|1 --bin-dir DIR
//! ```
//!
//! `--bin-dir` holds the release binaries under test (`perfbench/run.py`
//! builds them and passes it). With `--trace 0` the run drives the real
//! programs and prints the end-to-end metrics; with `--trace 1` it replays
//! the same inputs in-process through the library calls each surface makes,
//! with a span around each, and prints the per-layer metrics. Either way the
//! last line of standard output is the JSON result, every output is checked
//! against an in-process reference, and the run works only under
//! `.perfbench/` of the current directory. See `perfbench/README.md`.

mod artifacts;
mod batch;
mod inputs;
mod proc;
mod report;
mod serve;
mod spans;
mod stats;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub bin_dir: PathBuf,
    /// Scratch space for this workload: `.perfbench/<workload>`.
    pub work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut bin_dir) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} wants an unsigned integer"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            "--bin-dir" => bin_dir = Some(PathBuf::from(&value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["classify", "sweep", "shard", "reproduce"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let work = PathBuf::from(".perfbench").join(&workload);
    Ok(Args {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
        workload,
        work,
    })
}

fn run(args: &Args) -> Result<report::Outcome, String> {
    std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("creating {}: {e}", args.work.display()))?;
    if args.trace {
        return traced::measure(args);
    }
    match args.workload.as_str() {
        "classify" => serve::measure(
            &args.bin_dir,
            serve::Endpoint::Classify,
            args.seed,
            args.seconds,
        ),
        "sweep" => serve::measure(
            &args.bin_dir,
            serve::Endpoint::Sweep,
            args.seed,
            args.seconds,
        ),
        "shard" => batch::measure_shard(&args.bin_dir, &args.work, args.seed, args.seconds),
        _ => batch::measure_reproduce(&args.bin_dir, &args.work, args.seconds),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let result = run(&args);
    let _ = std::fs::remove_dir_all(&args.work);
    match result {
        Ok(outcome) => {
            outcome.print();
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}
