//! Edge cases for [`DenseMissTable::merge`], the primitive the windowed
//! and sharded simulation paths rely on for exact partial recombination.

use btr_core::analysis::DenseMissTable;
use btr_trace::BranchAddr;

/// A table of at least `size` ids (more if an event's id needs it) holding
/// `events`.
fn table_from(events: &[(u32, bool)], size: usize) -> DenseMissTable {
    let ids = events.iter().map(|&(id, _)| id as usize + 1).max();
    let mut t = DenseMissTable::new(ids.unwrap_or(0).max(size));
    for &(id, hit) in events {
        t.record(id, hit);
    }
    t
}

#[test]
fn merging_unequal_lengths_grows_the_shorter_side() {
    // Longer into shorter: the destination must grow, then sum index-wise.
    let mut short = table_from(&[(0, true), (1, false)], 2);
    let long = table_from(&[(0, false), (4, true), (4, true)], 5);
    short.merge(&long);
    assert_eq!(short.stats().len(), 5);
    assert_eq!(short.stats()[0].lookups, 2);
    assert_eq!(short.stats()[0].hits, 1);
    assert_eq!(short.stats()[1].lookups, 1);
    assert_eq!(short.stats()[4].lookups, 2);
    assert_eq!(short.stats()[4].hits, 2);

    // Shorter into longer: ids beyond the shorter table are untouched.
    let mut long = table_from(&[(0, false), (4, true), (4, true)], 5);
    let short = table_from(&[(0, true), (1, false)], 2);
    long.merge(&short);
    assert_eq!(long.stats().len(), 5);
    assert_eq!(long.stats()[0].lookups, 2);
    assert_eq!(long.stats()[4].lookups, 2);
    assert_eq!(long.stats()[3].lookups, 0);
}

#[test]
fn unequal_length_merges_commute_on_shared_ids() {
    let a = table_from(&[(0, true), (2, false), (2, true)], 3);
    let b = table_from(&[(0, false), (5, true)], 6);
    let mut ab = a.clone();
    ab.merge(&b);
    let mut ba = b.clone();
    ba.merge(&a);
    assert_eq!(ab, ba, "merge must be order-independent");
}

#[test]
fn merging_an_empty_partial_is_a_no_op() {
    let mut t = table_from(&[(0, true), (3, false)], 4);
    let before = t.clone();
    t.merge(&DenseMissTable::new(0));
    assert_eq!(t, before);
    // An all-zero (but sized) partial is also a no-op on the counts, though
    // it may grow the table.
    t.merge(&DenseMissTable::new(9));
    assert_eq!(t.stats().len(), 9);
    assert_eq!(&t.stats()[..4], before.stats());
    assert!(t.stats()[4..].iter().all(|s| s.lookups == 0));
    // Empty into empty stays empty.
    let mut empty = DenseMissTable::new(0);
    empty.merge(&DenseMissTable::new(0));
    assert_eq!(empty.stats().len(), 0);
}

#[test]
fn self_merge_exactly_doubles_every_counter() {
    // Merging a table with a snapshot of itself is the degenerate sharding
    // where both workers saw identical streams: every counter doubles, and
    // doing it again doubles again (no hidden state drifts).
    let mut t = table_from(&[(0, true), (1, false), (1, true), (2, false)], 3);
    let snapshot = t.clone();
    t.merge(&snapshot);
    for (merged, original) in t.stats().iter().zip(snapshot.stats()) {
        assert_eq!(merged.lookups, original.lookups * 2);
        assert_eq!(merged.hits, original.hits * 2);
    }
    let doubled = t.clone();
    t.merge(&doubled);
    for (merged, original) in t.stats().iter().zip(snapshot.stats()) {
        assert_eq!(merged.lookups, original.lookups * 4);
        assert_eq!(merged.hits, original.hits * 4);
    }
}

#[test]
fn merged_tables_convert_to_the_same_map_as_sequential_accumulation() {
    // End to end through into_map: partition, merge, convert — identical to
    // accumulating the whole stream in one table.
    let addrs: Vec<BranchAddr> = (0..6).map(|i| BranchAddr::new(0x1000 + i * 16)).collect();
    let events: Vec<(u32, bool)> = (0..200u32).map(|i| (i % 6, i % 7 != 0)).collect();
    let whole = table_from(&events, 0);
    let (first, rest) = events.split_at(61);
    let (second, third) = rest.split_at(97);
    let mut merged = table_from(first, 0);
    merged.merge(&table_from(second, 0));
    merged.merge(&table_from(third, 0));
    assert_eq!(merged, whole);
    assert_eq!(merged.into_map(&addrs), whole.into_map(&addrs));
}
