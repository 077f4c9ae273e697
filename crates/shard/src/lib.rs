//! # btr-shard
//!
//! Fault-tolerant sharded sweep runner for the Branch Transition Rate
//! reproduction: partitions a history sweep into (benchmark × history-group
//! × trace-window) work units, dispatches them to worker processes, and
//! re-merges the committed partials into a final [`sweep::SweepResult`]
//! that is **bit-identical** to the sequential [`btr_sim::sweep::HistorySweep`]
//! reference — no matter which workers crashed, stalled, tore their
//! checkpoints, or were re-issued along the way.
//!
//! * [`unit`] — [`unit::SweepSpec`] (the whole experiment) and
//!   [`unit::UnitSpec`] (one self-contained work unit; ships descriptors,
//!   never trace bytes).
//! * [`manifest`] — the on-disk checkpoint store: crash-safe
//!   write-temp-then-rename commits, the resume manifest, and
//!   first-committed-wins duplicate resolution.
//! * [`coordinator`] — dispatch, straggler deadlines, capped exponential
//!   backoff, retry budgets, and the deterministic final merge.
//! * [`worker`] — unit execution and the checkpoint commit protocol, shared
//!   by the `btr-shard-worker` binary and the in-process launcher.
//! * [`fault`] — the seed-driven `BTR_FAULT` fault-injection harness.
//! * [`error`] — typed errors; nothing in this crate panics on bad input.
//!
//! ```no_run
//! use btr_shard::{Coordinator, CoordinatorConfig, OutDir, SweepSpec};
//! use btr_sim::config::PredictorFamily;
//! use btr_workloads::{Benchmark, SuiteConfig};
//!
//! let spec = SweepSpec {
//!     family: PredictorFamily::PAs,
//!     histories: (0..=16).collect(),
//!     benchmarks: Benchmark::suite(),
//!     config: SuiteConfig::default(),
//!     history_group: 6,
//!     window_count: 2,
//!     trace_file: None,
//! };
//! let coordinator = Coordinator::new(OutDir::new("out"), CoordinatorConfig::default());
//! let result = coordinator.run(spec).expect("sweep converges");
//! assert_eq!(result.history_lengths().len(), 17);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod error;
pub mod fault;
pub mod manifest;
pub mod unit;
pub mod worker;

pub use coordinator::{backoff_delay, Coordinator, CoordinatorConfig, Launcher};
pub use error::{Result, ShardError};
pub use fault::{FaultKind, FaultPlan, FAULT_ENV};
pub use manifest::{Manifest, OutDir, MANIFEST_FORMAT};
pub use unit::{SweepSpec, UnitSpec};

use btr_sim::engine::SimEngine;
use btr_sim::sweep::{HistorySweep, SweepResult};

/// Runs the sequential reference for a spec: every benchmark trace through
/// the fused [`HistorySweep`] — no sharding, no checkpoints. The sharded
/// runner's merged result must match this bit for bit.
///
/// When the spec names a [`SweepSpec::trace_file`], that file is decoded
/// with the same reader the units use and swept in one fused pass, instead
/// of regenerating the (label-only) benchmark.
pub fn run_sequential(spec: &SweepSpec) -> Result<SweepResult> {
    spec.validate()?;
    if let Some(path) = &spec.trace_file {
        let interned = unit::read_trace_file(path)?;
        let mut fused = spec.family.fused_paper(&spec.histories);
        let results = SimEngine::new().run_fused(&interned, &mut fused);
        let parts = spec.histories.iter().copied().zip(results).collect();
        return Ok(SweepResult::from_parts(spec.family, parts));
    }
    let traces: Vec<_> = spec
        .benchmarks
        .iter()
        .map(|b| b.generate(&spec.config))
        .collect();
    let refs: Vec<_> = traces.iter().collect();
    Ok(HistorySweep::new(spec.family, spec.histories.clone()).run(&refs))
}
