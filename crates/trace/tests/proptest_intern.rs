//! Property-based tests for address interning and the cached conditional
//! subset: `intern()` must round-trip addresses and preserve record order for
//! any record mix, and `InternedTrace::truncate(n)` must equal interning the
//! first `n` conditional records.

use btr_trace::{BranchAddr, BranchKind, BranchRecord, Outcome, Trace, TraceMetadata};
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = BranchKind> {
    prop_oneof![
        Just(BranchKind::Conditional),
        Just(BranchKind::Unconditional),
        Just(BranchKind::Call),
        Just(BranchKind::Return),
        Just(BranchKind::Indirect),
    ]
}

fn arb_record() -> impl Strategy<Value = BranchRecord> {
    // A narrow address range forces heavy id reuse; a wide one exercises
    // fresh-id assignment. Mix both.
    let addr = prop_oneof![0u64..0x100u64, 0u64..0x1_0000_0000u64];
    (addr, arb_kind(), any::<bool>()).prop_map(|(addr, kind, taken)| {
        BranchRecord::new(BranchAddr::new(addr), kind, Outcome::from_bool(taken))
    })
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    proptest::collection::vec(arb_record(), 0..300)
        .prop_map(|records| Trace::from_records(TraceMetadata::named("intern-prop"), records))
}

proptest! {
    #[test]
    fn conditional_cache_equals_filtered_records(trace in arb_trace()) {
        let filtered: Vec<BranchRecord> = trace
            .records()
            .iter()
            .copied()
            .filter(|r| r.kind().is_conditional())
            .collect();
        prop_assert_eq!(trace.conditional_records(), filtered.as_slice());
        prop_assert_eq!(trace.conditional_records().len() as u64, trace.conditional_count());
    }

    #[test]
    fn intern_round_trips_addresses_and_preserves_order(trace in arb_trace()) {
        let interned = trace.intern();
        let conditional = trace.conditional_records();
        prop_assert_eq!(interned.len(), conditional.len());
        for (original, record) in conditional.iter().zip(interned.records()) {
            // Same stream, in order, with ids resolving back to the address.
            prop_assert_eq!(record.addr(), original.addr());
            prop_assert_eq!(record.outcome(), original.outcome());
            prop_assert_eq!(interned.addr_of(record.id()), original.addr());
        }
    }

    #[test]
    fn intern_ids_are_dense_and_first_appearance_ordered(trace in arb_trace()) {
        let interned = trace.intern();
        prop_assert_eq!(interned.static_count(), trace.static_conditional_count());
        prop_assert_eq!(interned.addrs().len(), interned.static_count());
        // The addr table has no duplicates.
        let mut seen = std::collections::BTreeSet::new();
        for addr in interned.addrs() {
            prop_assert!(seen.insert(addr.raw()));
        }
        // Ids appear in nondecreasing first-appearance order: a record's id is
        // at most the number of distinct addresses seen strictly before it.
        let mut distinct = 0u32;
        let mut first_seen = std::collections::BTreeSet::new();
        for record in interned.records() {
            if first_seen.insert(record.addr().raw()) {
                prop_assert_eq!(record.id(), distinct);
                distinct += 1;
            } else {
                prop_assert!(record.id() < distinct);
            }
        }
        prop_assert_eq!(distinct as usize, interned.static_count());
    }

    #[test]
    fn truncate_equals_interning_the_prefix(trace in arb_trace(), cut_seed in any::<usize>()) {
        let conditional = trace.conditional_records();
        let len = conditional.len();
        let cuts = [0, 1, len.saturating_sub(1), len, len + 5, cut_seed % (len + 1)];
        for n in cuts {
            let mut truncated = trace.intern();
            truncated.truncate(n);
            let prefix = Trace::from_records(
                TraceMetadata::named("prefix"),
                conditional[..n.min(len)].to_vec(),
            )
            .intern();
            prop_assert_eq!(truncated.records(), prefix.records(), "n = {}", n);
            prop_assert_eq!(truncated.addrs(), prefix.addrs(), "n = {}", n);
            prop_assert_eq!(truncated.static_count(), prefix.static_count(), "n = {}", n);
            prop_assert_eq!(&truncated, &prefix, "n = {}", n);
        }
    }
}
