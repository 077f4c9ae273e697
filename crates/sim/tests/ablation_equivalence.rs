//! Pins the A2/A3 ablations to the paths they replaced. The hybrid ablation
//! runs one work-stealing task per benchmark on the interned, fused-access
//! hot path; the confidence ablation replays interned traces with the fused
//! `access` and a per-dense-id class-confidence table. Both must equal the
//! original formulation — kept here as a test-local oracle — at any thread
//! count: `Box<dyn>` predictors through the address-keyed
//! [`SimEngine::run`], one trace after another, and the predict/update
//! confidence loop with a map lookup per record.

use btr_core::advisor::HybridAdvisor;
use btr_core::confidence::ClassConfidence;
use btr_predictors::confidence::{
    ConfidenceEstimator, ConfidenceStats, JacobsenOneLevel, JacobsenTwoLevel,
};
use btr_predictors::gshare::GsharePredictor;
use btr_predictors::hybrid::McFarlingHybrid;
use btr_predictors::predictor::BranchPredictor;
use btr_predictors::twolevel::TwoLevelPredictor;
use btr_sim::engine::{RunResult, SimEngine};
use btr_sim::experiments::{
    ablation_confidence, ablation_hybrid, ablation_hybrid_runs, ExperimentContext, SuiteData,
    HYBRID_ABLATION_PREDICTORS,
};
use std::sync::OnceLock;

fn quick() -> &'static (ExperimentContext, SuiteData) {
    static DATA: OnceLock<(ExperimentContext, SuiteData)> = OnceLock::new();
    DATA.get_or_init(|| {
        let ctx = ExperimentContext::quick();
        let data = ctx.prepare();
        (ctx, data)
    })
}

/// The original A2: a fresh boxed predictor per trace, driven through the
/// `dyn` compatibility engine, merged trace by trace.
fn oracle_hybrid_runs(ctx: &ExperimentContext, data: &SuiteData) -> Vec<(String, RunResult)> {
    let advisor = HybridAdvisor::new(ctx.scheme);
    let makers: [Box<dyn Fn() -> Box<dyn BranchPredictor>>; 5] = [
        Box::new(|| Box::new(advisor.build_hybrid(&data.profile))),
        Box::new(|| Box::new(GsharePredictor::paper_sized(12))),
        Box::new(|| {
            Box::new(McFarlingHybrid::new(
                TwoLevelPredictor::pas_paper(8),
                TwoLevelPredictor::gas_paper(12),
                14,
            ))
        }),
        Box::new(|| Box::new(TwoLevelPredictor::pas_paper(8))),
        Box::new(|| Box::new(TwoLevelPredictor::gas_paper(12))),
    ];
    let engine = SimEngine::new();
    HYBRID_ABLATION_PREDICTORS
        .iter()
        .zip(&makers)
        .map(|(name, make)| {
            let mut merged = RunResult::default();
            for trace in &data.traces {
                let mut predictor = make();
                merged.merge(&engine.run(trace, &mut *predictor));
            }
            (name.to_string(), merged)
        })
        .collect()
}

/// The original A3: predict then update on the raw trace, every estimator
/// (the class-based one included) asked and updated per record.
fn oracle_confidence(ctx: &ExperimentContext, data: &SuiteData) -> Vec<ConfidenceStats> {
    let mut class_based = ClassConfidence::from_profile(&data.profile, ctx.scheme, 0.25);
    let mut one_level = JacobsenOneLevel::new(12, 4);
    let mut two_level = JacobsenTwoLevel::new(12, 4, 4);
    let mut stats = vec![ConfidenceStats::new(); 3];
    for trace in &data.traces {
        let mut predictor = TwoLevelPredictor::gas_paper(8);
        for record in trace.conditional_records() {
            let correct = predictor.predict(record.addr()) == record.outcome();
            predictor.update(record.addr(), record.outcome());
            stats[0].record(class_based.estimate(record.addr()), correct);
            class_based.update(record.addr(), correct);
            stats[1].record(one_level.estimate(record.addr()), correct);
            one_level.update(record.addr(), correct);
            stats[2].record(two_level.estimate(record.addr()), correct);
            two_level.update(record.addr(), correct);
        }
    }
    stats
}

#[test]
fn hybrid_ablation_matches_the_dyn_engine_oracle_at_any_thread_count() {
    let (ctx, data) = quick();
    let oracle = oracle_hybrid_runs(ctx, data);
    assert!(oracle.iter().all(|(_, run)| run.overall.lookups > 0));
    for threads in [1, 2] {
        let ctx = ExperimentContext {
            threads,
            ..ctx.clone()
        };
        let runs = ablation_hybrid_runs(&ctx, data);
        assert_eq!(runs.len(), oracle.len());
        for ((name, run), (oracle_name, oracle_run)) in runs.iter().zip(&oracle) {
            assert_eq!(name, oracle_name);
            assert_eq!(
                run.overall, oracle_run.overall,
                "{name} overall diverged at {threads} threads"
            );
            assert_eq!(
                run.per_branch, oracle_run.per_branch,
                "{name} per-branch diverged at {threads} threads"
            );
        }
        let (rates, _) = ablation_hybrid(&ctx, data);
        let oracle_rates: Vec<(String, f64)> = oracle
            .iter()
            .map(|(name, run)| (name.clone(), run.miss_rate().unwrap_or(0.0)))
            .collect();
        assert_eq!(rates, oracle_rates);
    }
}

#[test]
fn confidence_ablation_matches_the_predict_update_oracle_at_any_thread_count() {
    let (ctx, data) = quick();
    let oracle = oracle_confidence(ctx, data);
    assert!(oracle.iter().all(|stats| stats.total() > 0));
    for threads in [1, 2] {
        let ctx = ExperimentContext {
            threads,
            ..ctx.clone()
        };
        let (stats, _) = ablation_confidence(&ctx, data);
        let stats: Vec<ConfidenceStats> = stats.into_iter().map(|(_, s)| s).collect();
        assert_eq!(
            stats, oracle,
            "confidence stats diverged at {threads} threads"
        );
    }
}
