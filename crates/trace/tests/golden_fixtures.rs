//! Golden-file corpus for the `BTRT` format.
//!
//! The fixtures under `tests/fixtures/` were generated by an *independent*
//! encoder (a Python script following the format spec in `io/binary.rs`), so
//! any drift in the Rust encoder or decoder — header layout, flag packing,
//! zig-zag/varint encoding, delta wraparound — breaks these tests without
//! relying on proptest luck. Each fixture is decoded eagerly, decoded
//! chunked by both the production decoder and the independent reference
//! decoder (`common/reference_btrt.rs`), round-tripped through the text
//! format, and re-encoded byte-identically (the encoder is canonical:
//! minimal varints, one layout per trace).

#[path = "common/reference_btrt.rs"]
mod reference_btrt;

use btr_trace::io::{binary, text};
use btr_trace::{BranchAddr, BranchKind, BranchRecord, FastBtrtReader, Outcome, Trace};
use reference_btrt::reference_chunks;

fn fixture(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read fixture {path:?}: {e}"))
}

fn cond(addr: u64, taken: bool) -> BranchRecord {
    BranchRecord::conditional(BranchAddr::new(addr), Outcome::from_bool(taken))
}

/// Decodes the fixture all three ways and checks the results agree with the
/// expected records before re-encoding byte-identically.
fn check_fixture(bytes: &[u8], expected: &[BranchRecord]) -> Trace {
    // Eager binary decode.
    let trace = binary::read_trace(&mut &bytes[..]).expect("fixture must decode");
    assert_eq!(trace.records(), expected);

    // Chunked decode at several sizes, including degenerate ones — through
    // both the record-at-a-time reference decoder and the production one.
    for chunk_records in [1usize, 3, 1024] {
        let reader = reference_chunks(bytes, chunk_records).expect("fixture header must decode");
        assert_eq!(reader.metadata(), trace.metadata());
        let streamed: Vec<BranchRecord> = reader
            .flat_map(|c| c.expect("reference decode must succeed").into_records())
            .collect();
        assert_eq!(streamed.as_slice(), expected);

        let fast = FastBtrtReader::new(bytes, chunk_records).unwrap();
        assert_eq!(fast.metadata(), trace.metadata());
        let fast_streamed: Vec<BranchRecord> = fast
            .flat_map(|c| c.expect("fast decode must succeed").into_records())
            .collect();
        assert_eq!(fast_streamed.as_slice(), expected);
    }

    // Text round-trip preserves records and metadata.
    let mut text_buf = Vec::new();
    text::write_trace(&mut text_buf, &trace).unwrap();
    let via_text = text::read_trace(&mut text_buf.as_slice()).unwrap();
    assert_eq!(via_text.records(), expected);
    assert_eq!(via_text.metadata(), trace.metadata());

    // Binary re-encode reproduces the golden bytes exactly.
    let mut reencoded = Vec::new();
    binary::write_trace(&mut reencoded, &trace).unwrap();
    assert_eq!(
        reencoded.as_slice(),
        bytes,
        "re-encoding must be byte-identical to the golden fixture"
    );
    trace
}

#[test]
fn empty_body_fixture() {
    let bytes = fixture("empty_body.btrt");
    let trace = check_fixture(&bytes, &[]);
    assert!(trace.is_empty());
    assert_eq!(trace.metadata().benchmark, "empty");
    assert_eq!(trace.metadata().input_set, "none");
    assert_eq!(trace.metadata().seed, Some(7));
    // An empty body yields zero chunks, not one empty chunk — on both paths.
    let mut reader = reference_chunks(bytes.as_slice(), 8).expect("fixture header must decode");
    assert!(reader.next().is_none());
    let mut fast = FastBtrtReader::new(bytes.as_slice(), 8).unwrap();
    assert!(fast.next().is_none());
}

#[test]
fn single_branch_fixture() {
    let bytes = fixture("single_branch.btrt");
    let trace = check_fixture(&bytes, &[cond(0x0040_0100, true)]);
    assert_eq!(trace.metadata().benchmark, "single");
    assert_eq!(trace.metadata().input_set, "");
    assert_eq!(trace.metadata().seed, None);
    assert_eq!(trace.conditional_count(), 1);
}

#[test]
fn mixed_kinds_with_wraparound_deltas_fixture() {
    let bytes = fixture("mixed_overflow.btrt");
    let expected = vec![
        cond(0x0040_0100, true),
        BranchRecord::new(
            BranchAddr::new(0x0040_0080),
            BranchKind::Unconditional,
            Outcome::Taken,
        )
        .with_target(BranchAddr::new(0x0041_0000)),
        // A jump to the top of the address space: the delta overflows i64
        // magnitude-wise and must round-trip through wrapping arithmetic.
        cond(0xffff_ffff_ffff_fffc, true),
        cond(0x10, false),
        BranchRecord::new(
            BranchAddr::new(0x0040_0200),
            BranchKind::Call,
            Outcome::Taken,
        )
        .with_target(BranchAddr::new(0x0041_1234)),
        BranchRecord::new(
            BranchAddr::new(0x0040_0204),
            BranchKind::Return,
            Outcome::Taken,
        ),
        BranchRecord::new(
            BranchAddr::new(0x0040_0208),
            BranchKind::Indirect,
            Outcome::Taken,
        )
        .with_target(BranchAddr::new(0x9000_0000)),
        cond(0x0040_0100, false),
    ];
    let trace = check_fixture(&bytes, &expected);
    assert_eq!(trace.metadata().benchmark, "mixed");
    assert_eq!(trace.metadata().input_set, "drift");
    assert_eq!(trace.metadata().seed, Some(123_456_789));
    assert_eq!(trace.conditional_count(), 4);
    assert_eq!(trace.static_conditional_count(), 3);
    // Interning sees only the conditional stream and reuses the revisited id.
    let interned = trace.intern();
    assert_eq!(interned.static_count(), 3);
    let ids: Vec<u32> = interned.records().iter().map(|r| r.id()).collect();
    assert_eq!(ids, vec![0, 1, 2, 0]);
}
