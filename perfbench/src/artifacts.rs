//! The artifact lowering of `reproduce` (`crates/bench/src/bin/reproduce.rs`),
//! which lives in that binary and so cannot be called: the traced replay of
//! the `reproduce` workload runs each experiment and renders its artifacts
//! through these copies. The replay's artifacts are compared byte for byte
//! with a real `reproduce all` run's, so a drift between the copies fails
//! the run instead of going unnoticed.

use btr_core::distribution::Metric;
use btr_sim::config::PredictorFamily;
use btr_sim::experiments::{self, ExperimentContext, SuiteData};
use btr_wire::{json, MapBuilder, Value, Wire};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Wraps one experiment's structured fields in the artifact envelope.
fn envelope(name: &str, fields: Vec<(&str, Value)>) -> Value {
    let mut b = MapBuilder::new().field("experiment", name);
    for (key, value) in fields {
        b = b.field(key, value);
    }
    b.build()
}

/// Runs one experiment, returning its ASCII rendering and the same data as a
/// wire value (both produced from a single computation).
pub fn run_experiment(
    name: &str,
    ctx: &ExperimentContext,
    data: &SuiteData,
) -> Option<(String, Value)> {
    let result = match name {
        "table1" => {
            let (rows, out) = experiments::table1(ctx, data);
            let rows = rows
                .into_iter()
                .map(|(benchmark, paper, generated)| {
                    MapBuilder::new()
                        .field("benchmark", benchmark)
                        .field("paper_dynamic_branches", paper)
                        .field("generated_dynamic_branches", generated)
                        .build()
                })
                .collect::<Vec<Value>>();
            (out, envelope(name, vec![("rows", Value::List(rows))]))
        }
        "table2" => {
            let (table, analysis, out) = experiments::table2(ctx, data);
            (
                out,
                envelope(
                    name,
                    vec![
                        ("table", table.to_value()),
                        ("analysis", analysis.to_value()),
                    ],
                ),
            )
        }
        "fig1" | "fig2" => {
            let (dist, out) = if name == "fig1" {
                experiments::fig1(ctx, data)
            } else {
                experiments::fig2(ctx, data)
            };
            (out, envelope(name, vec![("distribution", dist.to_value())]))
        }
        "fig3" | "fig4" => {
            let (pas, gas, out) = if name == "fig3" {
                experiments::fig3(ctx, data)
            } else {
                experiments::fig4(ctx, data)
            };
            (
                out,
                envelope(name, vec![("pas", pas.to_value()), ("gas", gas.to_value())]),
            )
        }
        "fig5" | "fig6" | "fig7" | "fig8" | "fig9" | "fig10" | "fig11" | "fig12" => {
            let (family, metric) = match name {
                "fig5" | "fig9" => (PredictorFamily::PAs, Metric::TakenRate),
                "fig6" | "fig10" => (PredictorFamily::PAs, Metric::TransitionRate),
                "fig7" | "fig11" => (PredictorFamily::GAs, Metric::TakenRate),
                _ => (PredictorFamily::GAs, Metric::TransitionRate),
            };
            let curves = name
                .strip_prefix("fig")
                .is_some_and(|n| n.parse::<u32>().map(|n| n >= 9).unwrap_or(false));
            let (matrix, out) = if curves {
                experiments::fig9_to_12(ctx, data, family, metric)
            } else {
                experiments::fig5_to_8(ctx, data, family, metric)
            };
            (out, envelope(name, vec![("matrix", matrix.to_value())]))
        }
        "fig13" | "fig14" => {
            let family = if name == "fig13" {
                PredictorFamily::PAs
            } else {
                PredictorFamily::GAs
            };
            let (matrix, out) = experiments::fig13_14(ctx, data, family);
            (out, envelope(name, vec![("matrix", matrix.to_value())]))
        }
        "fig15" => {
            let (rows, out) = experiments::fig15(ctx, data);
            let rows = rows
                .into_iter()
                .map(|(benchmark, hist)| {
                    MapBuilder::new()
                        .field("benchmark", benchmark)
                        .field(
                            "percentages",
                            Value::List(hist.percentages().into_iter().map(Value::F64).collect()),
                        )
                        .build()
                })
                .collect::<Vec<Value>>();
            (out, envelope(name, vec![("rows", Value::List(rows))]))
        }
        "ablation-binning" => {
            let (rows, out) = experiments::ablation_binning(data);
            let rows = rows
                .into_iter()
                .map(|(scheme, analysis)| {
                    MapBuilder::new()
                        .field("scheme", scheme)
                        .field("analysis", analysis.to_value())
                        .build()
                })
                .collect::<Vec<Value>>();
            (out, envelope(name, vec![("rows", Value::List(rows))]))
        }
        "ablation-hybrid" => {
            let (rows, out) = experiments::ablation_hybrid(ctx, data);
            let rows = rows
                .into_iter()
                .map(|(predictor, miss_rate)| {
                    MapBuilder::new()
                        .field("predictor", predictor)
                        .field("miss_rate", miss_rate)
                        .build()
                })
                .collect::<Vec<Value>>();
            (out, envelope(name, vec![("rows", Value::List(rows))]))
        }
        "ablation-confidence" => {
            let (rows, out) = experiments::ablation_confidence(ctx, data);
            let rows = rows
                .into_iter()
                .map(|(estimator, stats)| {
                    MapBuilder::new()
                        .field("estimator", estimator)
                        .field(
                            "misprediction_coverage",
                            Value::opt_f64(stats.misprediction_coverage()),
                        )
                        .field(
                            "low_confidence_accuracy",
                            Value::opt_f64(stats.low_confidence_accuracy()),
                        )
                        .field("fraction_flagged_low", Value::opt_f64(stats.low_fraction()))
                        .build()
                })
                .collect::<Vec<Value>>();
            (out, envelope(name, vec![("rows", Value::List(rows))]))
        }
        _ => return None,
    };
    Some(result)
}

/// Writes the three per-figure artifacts, failing loudly: a partial artifact
/// directory would silently corrupt downstream comparisons.
pub fn write_artifacts(dir: &Path, name: &str, ascii: &str, value: &Value) -> Result<(), String> {
    let write = |path: PathBuf, bytes: &[u8]| -> Result<(), String> {
        let mut file =
            std::fs::File::create(&path).map_err(|e| format!("cannot create {path:?}: {e}"))?;
        file.write_all(bytes)
            .map_err(|e| format!("cannot write {path:?}: {e}"))
    };
    write(dir.join(format!("{name}.txt")), ascii.as_bytes())?;
    let mut pretty =
        json::to_string_pretty(value).map_err(|e| format!("cannot encode {name} as JSON: {e}"))?;
    pretty.push('\n');
    write(dir.join(format!("{name}.json")), pretty.as_bytes())?;
    write(
        dir.join(format!("{name}.btrw")),
        &btr_wire::btrw::to_bytes(value),
    )
}

pub const ALL_EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "ablation-binning",
    "ablation-hybrid",
    "ablation-confidence",
];
