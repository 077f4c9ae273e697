//! Hybrid (combining) predictors.
//!
//! * [`McFarlingHybrid`] — the classic two-component tournament predictor with
//!   an address-indexed choice table of 2-bit counters.
//! * [`ClassifiedHybrid`] — the predictor sketched in the paper's §5.4: each
//!   static branch is routed (from a profiling pass, e.g. taken/transition
//!   classification done by `btr-core`) to the component best suited to its
//!   class, so strongly biased or strongly alternating branches stay out of
//!   the long-history tables and interference drops.

use crate::pht::PatternHistoryTable;
use crate::predictor::BranchPredictor;
use btr_trace::{BranchAddr, Outcome};
use std::collections::BTreeMap;

/// McFarling's tournament predictor combining two components with a choice
/// table trained toward whichever component was correct.
#[derive(Debug)]
pub struct McFarlingHybrid<A, B> {
    component_a: A,
    component_b: B,
    choice: PatternHistoryTable,
}

impl<A: BranchPredictor, B: BranchPredictor> McFarlingHybrid<A, B> {
    /// Creates a tournament predictor with a `2^choice_index_bits`-entry
    /// choice table. The choice counter predicts "use component A" when it
    /// reads taken.
    pub fn new(component_a: A, component_b: B, choice_index_bits: u32) -> Self {
        McFarlingHybrid {
            component_a,
            component_b,
            choice: PatternHistoryTable::two_bit(choice_index_bits),
        }
    }

    fn choice_index(&self, addr: BranchAddr) -> u64 {
        addr.low_bits(self.choice.index_bits())
    }

    /// Whether component A would be used for `addr` right now.
    pub fn uses_component_a(&self, addr: BranchAddr) -> bool {
        self.choice.predict(self.choice_index(addr)).is_taken()
    }

    /// Borrow the first component.
    pub fn component_a(&self) -> &A {
        &self.component_a
    }

    /// Borrow the second component.
    pub fn component_b(&self) -> &B {
        &self.component_b
    }
}

impl<A: BranchPredictor, B: BranchPredictor> BranchPredictor for McFarlingHybrid<A, B> {
    fn predict(&self, addr: BranchAddr) -> Outcome {
        if self.uses_component_a(addr) {
            self.component_a.predict(addr)
        } else {
            self.component_b.predict(addr)
        }
    }

    fn update(&mut self, addr: BranchAddr, outcome: Outcome) {
        let a_correct = self.component_a.predict(addr) == outcome;
        let b_correct = self.component_b.predict(addr) == outcome;
        // Train the choice table only when the components disagree.
        if a_correct != b_correct {
            let idx = self.choice_index(addr);
            self.choice.train(idx, Outcome::from_bool(a_correct));
        }
        self.component_a.update(addr, outcome);
        self.component_b.update(addr, outcome);
    }

    #[inline]
    fn access(&mut self, addr: BranchAddr, outcome: Outcome) -> bool {
        // Fused: the choice counter is read once, each component resolves
        // its own slots once through its fused `access`, and the choice is
        // trained only on disagreement — the components' hits are exactly
        // the correctness bits `update` would recompute.
        let idx = self.choice_index(addr);
        let use_a = self.choice.predict(idx).is_taken();
        let a_hit = self.component_a.access(addr, outcome);
        let b_hit = self.component_b.access(addr, outcome);
        if a_hit != b_hit {
            self.choice.train(idx, Outcome::from_bool(a_hit));
        }
        if use_a {
            a_hit
        } else {
            b_hit
        }
    }

    fn name(&self) -> String {
        format!(
            "mcfarling({} vs {})",
            self.component_a.name(),
            self.component_b.name()
        )
    }

    fn storage_bits(&self) -> u64 {
        self.component_a.storage_bits()
            + self.component_b.storage_bits()
            + self.choice.storage_bits()
    }
}

/// A profile-classified hybrid: branches are statically routed to one of
/// several component predictors according to a per-branch assignment (§5.4).
///
/// The assignment is produced offline — typically by classifying a profiling
/// run with `btr-core` and choosing, per joint taken/transition class, the
/// component (and history length) that class is best served by.
pub struct ClassifiedHybrid {
    components: Vec<Box<dyn BranchPredictor>>,
    assignment: BTreeMap<BranchAddr, usize>,
    default_component: usize,
}

impl std::fmt::Debug for ClassifiedHybrid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClassifiedHybrid")
            .field(
                "components",
                &self.components.iter().map(|c| c.name()).collect::<Vec<_>>(),
            )
            .field("assigned_branches", &self.assignment.len())
            .field("default_component", &self.default_component)
            .finish()
    }
}

impl ClassifiedHybrid {
    /// Creates a classified hybrid from its component predictors.
    ///
    /// `default_component` is used for branches with no explicit assignment
    /// (e.g. branches never seen in the profiling run).
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty or `default_component` is out of range.
    pub fn new(components: Vec<Box<dyn BranchPredictor>>, default_component: usize) -> Self {
        assert!(
            !components.is_empty(),
            "a hybrid needs at least one component"
        );
        assert!(
            default_component < components.len(),
            "default component index out of range"
        );
        ClassifiedHybrid {
            components,
            assignment: BTreeMap::new(),
            default_component,
        }
    }

    /// Routes the branch at `addr` to component `component`.
    ///
    /// # Panics
    ///
    /// Panics if `component` is out of range.
    pub fn assign(&mut self, addr: BranchAddr, component: usize) {
        assert!(
            component < self.components.len(),
            "component index out of range"
        );
        self.assignment.insert(addr, component);
    }

    /// Routes every address produced by the iterator to `component`.
    pub fn assign_all<I: IntoIterator<Item = BranchAddr>>(&mut self, addrs: I, component: usize) {
        for addr in addrs {
            self.assign(addr, component);
        }
    }

    /// The component index a branch would use.
    pub fn component_of(&self, addr: BranchAddr) -> usize {
        self.assignment
            .get(&addr)
            .copied()
            .unwrap_or(self.default_component)
    }

    /// Number of components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Number of branches with explicit assignments.
    pub fn assigned_branches(&self) -> usize {
        self.assignment.len()
    }
}

impl BranchPredictor for ClassifiedHybrid {
    fn predict(&self, addr: BranchAddr) -> Outcome {
        self.components[self.component_of(addr)].predict(addr)
    }

    fn update(&mut self, addr: BranchAddr, outcome: Outcome) {
        let idx = self.component_of(addr);
        self.components[idx].update(addr, outcome);
    }

    #[inline]
    fn access(&mut self, addr: BranchAddr, outcome: Outcome) -> bool {
        // One assignment lookup per record, then the component's own fused
        // access (a boxed component keeps its override).
        let idx = self.component_of(addr);
        self.components[idx].access(addr, outcome)
    }

    fn name(&self) -> String {
        let names: Vec<String> = self.components.iter().map(|c| c.name()).collect();
        format!("classified[{}]", names.join(", "))
    }

    fn storage_bits(&self) -> u64 {
        self.components.iter().map(|c| c.storage_bits()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bimodal::BimodalPredictor;
    use crate::staticp::StaticPredictor;
    use crate::twolevel::TwoLevelPredictor;

    #[test]
    fn tournament_selects_the_better_component() {
        // Component A: static always-taken. Component B: PAs with history.
        // For an alternating branch only B can be right, so the choice table
        // must migrate to B.
        let mut hybrid = McFarlingHybrid::new(
            StaticPredictor::always_taken(),
            TwoLevelPredictor::pas_paper(2),
            12,
        );
        let addr = BranchAddr::new(0x400100);
        let mut hits_tail = 0u32;
        let n = 2000u32;
        let warmup = 200u32;
        for i in 0..n {
            let outcome = Outcome::from_bool(i % 2 == 0);
            let hit = hybrid.access(addr, outcome);
            if i >= warmup && hit {
                hits_tail += 1;
            }
        }
        assert!(!hybrid.uses_component_a(addr));
        assert!(f64::from(hits_tail) / f64::from(n - warmup) > 0.9);
    }

    #[test]
    fn tournament_keeps_static_component_for_biased_branch() {
        let mut hybrid = McFarlingHybrid::new(
            StaticPredictor::always_taken(),
            BimodalPredictor::new(10),
            10,
        );
        let addr = BranchAddr::new(0x400200);
        for _ in 0..200 {
            hybrid.update(addr, Outcome::Taken);
        }
        // Both components are correct so the choice table stays put and the
        // prediction is taken regardless.
        assert_eq!(hybrid.predict(addr), Outcome::Taken);
        assert!(hybrid.component_a().name().contains("static"));
        assert!(hybrid.component_b().name().contains("bimodal"));
    }

    #[test]
    fn classified_hybrid_routes_by_assignment() {
        let mut hybrid = ClassifiedHybrid::new(
            vec![
                Box::new(StaticPredictor::always_taken()),
                Box::new(TwoLevelPredictor::pas_paper(4)),
            ],
            1,
        );
        let biased = BranchAddr::new(0x1000);
        let patterned = BranchAddr::new(0x2000);
        hybrid.assign(biased, 0);
        assert_eq!(hybrid.component_of(biased), 0);
        assert_eq!(hybrid.component_of(patterned), 1); // default
        assert_eq!(hybrid.component_count(), 2);
        assert_eq!(hybrid.assigned_branches(), 1);

        // The biased branch is always predicted taken by the static component.
        assert_eq!(hybrid.predict(biased), Outcome::Taken);
        // Updates to the patterned branch go to the PAs component only.
        let mut hits = 0u32;
        let n = 2000u32;
        for i in 0..n {
            let outcome = Outcome::from_bool(i % 2 == 0);
            if hybrid.access(patterned, outcome) {
                hits += 1;
            }
        }
        assert!(f64::from(hits) / f64::from(n) > 0.9);
        assert!(hybrid.name().starts_with("classified["));
        let dbg = format!("{hybrid:?}");
        assert!(dbg.contains("assigned_branches"));
    }

    #[test]
    fn assign_all_routes_batches() {
        let mut hybrid = ClassifiedHybrid::new(
            vec![
                Box::new(StaticPredictor::always_not_taken()),
                Box::new(BimodalPredictor::new(8)),
            ],
            1,
        );
        let addrs: Vec<BranchAddr> = (0..10).map(|i| BranchAddr::new(0x100 + i * 4)).collect();
        hybrid.assign_all(addrs.clone(), 0);
        assert_eq!(hybrid.assigned_branches(), 10);
        for a in addrs {
            assert_eq!(hybrid.component_of(a), 0);
            assert_eq!(hybrid.predict(a), Outcome::NotTaken);
        }
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn empty_hybrid_rejected() {
        let _ = ClassifiedHybrid::new(vec![], 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_default_component_rejected() {
        let _ = ClassifiedHybrid::new(vec![Box::new(StaticPredictor::always_taken())], 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_assignment_rejected() {
        let mut h = ClassifiedHybrid::new(vec![Box::new(StaticPredictor::always_taken())], 0);
        h.assign(BranchAddr::new(0x10), 5);
    }

    /// Deterministic address/outcome stream: a handful of hot addresses
    /// (so tables alias and the choice counters move both ways) with
    /// outcomes mixing biased, alternating and random branches.
    fn stream(seed: u64, len: usize) -> Vec<(BranchAddr, Outcome)> {
        let mut state = seed;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..len)
            .map(|i| {
                let r = next();
                let slot = r % 24;
                let addr = BranchAddr::new(0x40_0000 + slot * 4 + (r >> 40) % 3 * 0x1000);
                let taken = match slot % 3 {
                    0 => (r >> 8) % 10 != 0,
                    1 => i % 2 == 0,
                    _ => (r >> 8) % 2 == 0,
                };
                (addr, Outcome::from_bool(taken))
            })
            .collect()
    }

    /// Drives `fused` with `access` and `reference` with `predict` then
    /// `update` over the same stream, asserting identical hits and identical
    /// next predictions for every address seen — which pins the internal
    /// state (choice table included), not just the returned hit bits.
    fn assert_access_matches_split<P: BranchPredictor>(mut fused: P, mut reference: P, seed: u64) {
        let records = stream(seed, 20_000);
        for (i, &(addr, outcome)) in records.iter().enumerate() {
            let expected = reference.predict(addr) == outcome;
            reference.update(addr, outcome);
            assert_eq!(
                fused.access(addr, outcome),
                expected,
                "hit diverged at record {i} (seed {seed})"
            );
            assert_eq!(
                fused.predict(addr),
                reference.predict(addr),
                "next prediction diverged after record {i} (seed {seed})"
            );
        }
        for &(addr, _) in &records {
            assert_eq!(fused.predict(addr), reference.predict(addr));
        }
    }

    fn mcfarling() -> McFarlingHybrid<TwoLevelPredictor, TwoLevelPredictor> {
        // A 4-entry choice table over 72 addresses: every choice counter is
        // shared and retrained in both directions.
        McFarlingHybrid::new(
            TwoLevelPredictor::pas_paper(4),
            TwoLevelPredictor::gas_paper(6),
            2,
        )
    }

    #[test]
    fn mcfarling_access_matches_predict_then_update() {
        for seed in [1, 0x9e37_79b9_7f4a_7c15, 42] {
            assert_access_matches_split(mcfarling(), mcfarling(), seed);
        }
    }

    #[test]
    fn mcfarling_access_keeps_the_choice_table_in_step() {
        let mut fused = mcfarling();
        let mut reference = mcfarling();
        for (addr, outcome) in stream(7, 5_000) {
            fused.access(addr, outcome);
            reference.predict(addr);
            reference.update(addr, outcome);
            assert_eq!(
                fused.uses_component_a(addr),
                reference.uses_component_a(addr)
            );
        }
    }

    fn classified() -> ClassifiedHybrid {
        let mut hybrid = ClassifiedHybrid::new(
            vec![
                Box::new(StaticPredictor::always_taken()),
                Box::new(TwoLevelPredictor::pas_paper(2)),
                Box::new(TwoLevelPredictor::gas_paper(8)),
                Box::new(mcfarling()),
            ],
            2,
        );
        // Route some addresses explicitly; the rest take the default.
        for slot in 0..24u64 {
            let addr = BranchAddr::new(0x40_0000 + slot * 4);
            if slot % 4 != 2 {
                hybrid.assign(addr, (slot % 4) as usize);
            }
        }
        hybrid
    }

    #[test]
    fn classified_access_matches_predict_then_update() {
        for seed in [3, 0xdead_beef, 1234] {
            assert_access_matches_split(classified(), classified(), seed);
        }
    }

    #[test]
    fn storage_is_the_sum_of_components() {
        let hybrid = ClassifiedHybrid::new(
            vec![
                Box::new(BimodalPredictor::new(10)),
                Box::new(BimodalPredictor::new(11)),
            ],
            0,
        );
        assert_eq!(hybrid.storage_bits(), (1 << 10) * 2 + (1 << 11) * 2);
    }
}
