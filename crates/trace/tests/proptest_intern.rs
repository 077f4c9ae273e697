//! Property-based tests for address interning and the cached conditional
//! subset: `intern()` must round-trip addresses and preserve record order for
//! any record mix, `InternedTrace::truncate(n)` must equal interning the
//! first `n` conditional records, and an interned trace built from a chunk
//! decoder's id columns (`InternedTrace::extend_chunk`) must equal
//! `intern()` of the eagerly read trace, for `BTRT` and text at every chunk
//! size.

use btr_trace::io::{binary, text};
use btr_trace::{
    BranchAddr, BranchKind, BranchRecord, ChunkStream, ChunkedTraceReader, FastBtrtReader,
    InternedTrace, Outcome, Trace, TraceMetadata, DEFAULT_CHUNK_RECORDS,
};
use proptest::prelude::*;

/// The chunk sizes the chunk route is checked under: degenerate, prime,
/// small and the production default.
const CHUNK_SIZES: [usize; 4] = [1, 7, 64, DEFAULT_CHUNK_RECORDS];

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

/// Drains a chunk stream into an interned trace through the chunk route.
fn interned_from_chunks<S: ChunkStream>(mut stream: S) -> InternedTrace {
    let mut interned = InternedTrace::new();
    while let Some(chunk) = stream.pull() {
        let chunk = chunk.expect("an encoded trace decodes");
        interned.extend_chunk(&chunk);
        stream.recycle(chunk);
    }
    interned
}

/// Checks the chunk route against `intern()` of the eager read, for both
/// encodings at every chunk size.
fn assert_chunk_route_matches_eager(trace: &Trace) {
    let mut btrt = Vec::new();
    binary::write_trace(&mut btrt, trace).expect("writing to a Vec cannot fail");
    let mut txt = Vec::new();
    text::write_trace(&mut txt, trace).expect("writing to a Vec cannot fail");
    let eager_btrt = binary::read_trace(&mut btrt.as_slice()).expect("valid BTRT");
    let eager_text = text::read_trace(&mut txt.as_slice()).expect("valid text");
    let expected = trace.intern();
    assert_eq!(eager_btrt.intern(), expected);
    assert_eq!(eager_text.intern(), expected);
    for chunk_records in CHUNK_SIZES {
        let reader = FastBtrtReader::new(btrt.as_slice(), chunk_records).expect("valid header");
        assert_eq!(
            interned_from_chunks(reader),
            expected,
            "BTRT at {chunk_records} records per chunk"
        );
        let reader = ChunkedTraceReader::text(txt.as_slice(), chunk_records);
        assert_eq!(
            interned_from_chunks(reader),
            expected,
            "text at {chunk_records} records per chunk"
        );
    }
}

proptest! {
    #[test]
    fn chunk_route_equals_interning_the_eager_read(trace in arb_trace()) {
        // `arb_trace` mixes every record kind in, so non-conditional records
        // sit between, before and after the conditional ones.
        assert_chunk_route_matches_eager(&trace);
    }
}

#[test]
fn chunk_route_interns_the_empty_trace_to_empty() {
    let empty = Trace::from_records(TraceMetadata::named("empty"), Vec::new());
    assert_chunk_route_matches_eager(&empty);
    assert_eq!(empty.intern(), InternedTrace::new());
}

#[test]
fn chunk_route_matches_past_the_decoders_intern_cache() {
    // More static branches than the fast decoder's 8 Ki-slot intern cache,
    // revisited in a scrambled order with calls mixed in, so ids come from
    // cache hits, cache misses and evictions alike.
    let statics = 20_000u64;
    let mut records = Vec::new();
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    for i in 0..3 * statics {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let addr = BranchAddr::new(0x10_0000 + (state % statics) * 4);
        if i % 11 == 10 {
            records.push(BranchRecord::new(addr, BranchKind::Call, Outcome::Taken));
        } else {
            records.push(BranchRecord::conditional(
                addr,
                Outcome::from_bool(state & 1 == 1),
            ));
        }
    }
    let trace = Trace::from_records(TraceMetadata::named("wide"), records);
    assert!(trace.static_conditional_count() > 8 * 1024);
    assert_chunk_route_matches_eager(&trace);
}
