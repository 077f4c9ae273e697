//! Equivalence suite pinning the chunked readers to the eager readers: over
//! arbitrary traces and chunk sizes — degenerate (1), prime (7), typical
//! (4096) and larger-than-the-trace — the concatenated chunks must be
//! bit-identical to `read_binary` / `read_text`, and the incrementally
//! interned ids must match `Trace::intern` exactly. `BTRT` streams are
//! decoded by [`FastBtrtReader`] and checked against the independent
//! record-at-a-time reference decoder in `common/reference_btrt.rs`.

#[path = "common/reference_btrt.rs"]
mod reference_btrt;

use btr_trace::io::{binary, text};
use btr_trace::{
    BranchAddr, BranchKind, BranchRecord, ChunkedTraceReader, FastBtrtReader, InternedRecord,
    Outcome, Trace, TraceChunk, TraceMetadata,
};
use proptest::prelude::*;
use reference_btrt::{reference_chunks, ReferenceBtrtReader};

/// The chunk sizes every property is checked under.
const CHUNK_SIZES: [usize; 4] = [1, 7, 4096, 100_000];

fn arb_kind() -> impl Strategy<Value = BranchKind> {
    prop_oneof![
        Just(BranchKind::Conditional),
        Just(BranchKind::Conditional),
        Just(BranchKind::Conditional),
        Just(BranchKind::Unconditional),
        Just(BranchKind::Call),
        Just(BranchKind::Return),
        Just(BranchKind::Indirect),
    ]
}

fn arb_record() -> impl Strategy<Value = BranchRecord> {
    (
        0u64..0x1_0000_0000u64,
        arb_kind(),
        any::<bool>(),
        proptest::option::of(0u64..0x1_0000_0000u64),
    )
        .prop_map(|(addr, kind, taken, target)| {
            let mut r = BranchRecord::new(BranchAddr::new(addr), kind, Outcome::from_bool(taken));
            if let Some(t) = target {
                r = r.with_target(BranchAddr::new(t));
            }
            r
        })
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    (
        proptest::collection::vec(arb_record(), 0..300),
        any::<u64>(),
    )
        .prop_map(|(records, seed)| {
            let meta = TraceMetadata::named("stream")
                .with_input_set("fuzz")
                .with_seed(seed);
            Trace::from_records(meta, records)
        })
}

/// The record/interning state a drain produced, for whole-sale comparison:
/// (records, interned conditionals, addrs).
type Drained = (Vec<BranchRecord>, Vec<InternedRecord>, Vec<BranchAddr>);

/// Drains a chunk iterator, checking chunk indices and positions on the way.
fn drain_chunks(
    chunks: impl Iterator<Item = btr_trace::Result<TraceChunk>>,
) -> (Vec<BranchRecord>, Vec<InternedRecord>) {
    let mut records = Vec::new();
    let mut conditional = Vec::new();
    for (expected_index, chunk) in chunks.enumerate() {
        let chunk = chunk.expect("well-formed stream must decode");
        assert_eq!(chunk.index(), expected_index);
        assert_eq!(chunk.first_record(), records.len() as u64);
        assert!(!chunk.is_empty(), "readers never yield empty chunks");
        conditional.extend(chunk.conditional());
        records.extend(chunk.into_records());
    }
    (records, conditional)
}

/// Drains a chunked reader (text or reference).
fn drain<I: Iterator<Item = btr_trace::Result<BranchRecord>>>(
    mut reader: ChunkedTraceReader<I>,
) -> Drained {
    let (records, conditional) = drain_chunks(&mut reader);
    (records, conditional, reader.addrs().to_vec())
}

// ---------------------------------------------------------------------------
// Adversarial socket-shaped readers: network sources hand the decoder bytes
// in whatever fragments the kernel felt like, and signals surface as
// `ErrorKind::Interrupted` mid-stream. None of that may change the decoded
// chunks by a single bit.
// ---------------------------------------------------------------------------

use std::io::Read;

/// Yields at most `max` bytes per `read` call — the 1-byte case is the
/// worst fragmentation a TCP stream can legally produce.
struct TrickleReader<'a> {
    data: &'a [u8],
    max: usize,
}

impl Read for TrickleReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.data.len().min(buf.len()).min(self.max);
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// Never lets a `read` cross one of the configured split offsets, so a
/// boundary sitting exactly between header and body (or between records)
/// forces a short read right there.
struct BoundarySplitReader<'a> {
    data: &'a [u8],
    pos: usize,
    splits: Vec<usize>,
}

impl Read for BoundarySplitReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let remaining = self.data.len() - self.pos;
        let mut n = remaining.min(buf.len());
        for &split in &self.splits {
            if split > self.pos {
                n = n.min(split - self.pos);
                break;
            }
        }
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Returns `ErrorKind::Interrupted` before every successful read and then
/// yields at most `max` bytes — a signal-storm socket.
struct InterruptingReader<'a> {
    inner: TrickleReader<'a>,
    ready: bool,
}

impl<'a> InterruptingReader<'a> {
    fn new(data: &'a [u8], max: usize) -> Self {
        InterruptingReader {
            inner: TrickleReader { data, max },
            ready: false,
        }
    }
}

impl Read for InterruptingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if !self.ready {
            self.ready = true;
            return Err(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "signal",
            ));
        }
        self.ready = false;
        self.inner.read(buf)
    }
}

/// Drains a `BTRT` stream through the production decoder.
fn drain_btrt<R: Read>(reader: R, chunk_records: usize) -> Drained {
    let mut reader = FastBtrtReader::new(reader, chunk_records).expect("header must decode");
    let (records, conditional) = drain_chunks(&mut reader);
    (records, conditional, reader.addrs().to_vec())
}

/// Drains a `BTRT` stream through the reference decoder — the oracle.
fn drain_reference(bytes: &[u8], chunk_records: usize) -> Drained {
    drain(reference_chunks(bytes, chunk_records).expect("header must decode"))
}

/// A characteristic trace for the deterministic adversarial tests: mixes
/// kinds, targets (two varints per record) and repeated addresses.
fn adversarial_trace() -> Trace {
    let mut records = Vec::new();
    for i in 0..257u64 {
        let addr = BranchAddr::new(0x40_0000 + (i % 11) * 4);
        let mut r = BranchRecord::new(
            addr,
            if i % 5 == 4 {
                BranchKind::Call
            } else {
                BranchKind::Conditional
            },
            Outcome::from_bool(i % 3 != 0),
        );
        if i % 7 == 6 {
            r = r.with_target(BranchAddr::new(0x8000_0000 + i * 16));
        }
        records.push(r);
    }
    Trace::from_records(
        TraceMetadata::named("adversarial")
            .with_input_set("socket")
            .with_seed(0xFEED),
        records,
    )
}

#[test]
fn one_byte_reads_yield_bit_identical_chunks() {
    let trace = adversarial_trace();
    let mut buf = Vec::new();
    binary::write_trace(&mut buf, &trace).unwrap();
    let oneshot = drain_reference(&buf, 16);
    for max in [1usize, 2, 3, 5] {
        let trickled = drain_btrt(TrickleReader { data: &buf, max }, 16);
        assert_eq!(trickled, oneshot, "max {max} bytes per read diverged");
    }
}

#[test]
fn reads_split_at_header_and_record_boundaries_are_bit_identical() {
    let trace = adversarial_trace();
    let mut buf = Vec::new();
    binary::write_trace(&mut buf, &trace).unwrap();
    let oneshot = drain_reference(&buf, 16);
    // Recover the exact header and per-record byte boundaries from a clean
    // reference decode pass.
    let mut boundary_probe = ReferenceBtrtReader::new(buf.as_slice()).expect("header decodes");
    let mut splits = vec![boundary_probe.byte_offset() as usize];
    while let Some(record) = boundary_probe.next() {
        record.expect("well-formed stream must decode");
        splits.push(boundary_probe.byte_offset() as usize);
    }
    // Every read stops at the next header/record boundary…
    let split_all = drain_btrt(
        BoundarySplitReader {
            data: &buf,
            pos: 0,
            splits: splits.clone(),
        },
        16,
    );
    assert_eq!(split_all, oneshot, "record-boundary splits diverged");
    // …and a sparser variant splits at the header plus every 3rd record.
    let sparse: Vec<usize> = splits.iter().copied().step_by(3).collect();
    let split_sparse = drain_btrt(
        BoundarySplitReader {
            data: &buf,
            pos: 0,
            splits: sparse,
        },
        16,
    );
    assert_eq!(split_sparse, oneshot, "sparse boundary splits diverged");
}

#[test]
fn interrupted_mid_stream_reads_are_bit_identical() {
    let trace = adversarial_trace();
    let mut buf = Vec::new();
    binary::write_trace(&mut buf, &trace).unwrap();
    let oneshot = drain_reference(&buf, 16);
    for max in [1usize, 2, 7] {
        let interrupted = drain_btrt(InterruptingReader::new(&buf, max), 16);
        assert_eq!(interrupted, oneshot, "interrupted max {max} diverged");
    }
    // The text decode path tolerates interrupts identically.
    let mut text_buf = Vec::new();
    text::write_trace(&mut text_buf, &trace).unwrap();
    let eager_text = drain(ChunkedTraceReader::text(text_buf.as_slice(), 16));
    let interrupted_text = drain(ChunkedTraceReader::text(
        InterruptingReader::new(&text_buf, 1),
        16,
    ));
    assert_eq!(interrupted_text, eager_text, "interrupted text diverged");
}

#[test]
fn truncated_interrupted_streams_still_surface_the_typed_error() {
    // Adversarial delivery must not mask genuine truncation: cutting the
    // last byte still ends in `TruncatedRecord`, never a bare IO error.
    let trace = adversarial_trace();
    let mut buf = Vec::new();
    binary::write_trace(&mut buf, &trace).unwrap();
    buf.truncate(buf.len() - 1);
    let mut reader =
        FastBtrtReader::new(InterruptingReader::new(&buf, 1), 16).expect("header decodes");
    let err = (&mut reader)
        .filter_map(|c| c.err())
        .next()
        .expect("truncation must surface");
    assert!(
        matches!(err, btr_trace::TraceError::TruncatedRecord { .. }),
        "{err:?}"
    );
}

proptest! {
    #[test]
    fn socket_shaped_btrt_reads_are_bit_identical(
        trace in arb_trace(),
        max in 1usize..4,
    ) {
        let mut buf = Vec::new();
        binary::write_trace(&mut buf, &trace).unwrap();
        let oneshot = drain_reference(&buf, 7);
        let trickled = drain_btrt(TrickleReader { data: &buf, max }, 7);
        prop_assert_eq!(&trickled, &oneshot);
        let interrupted = drain_btrt(InterruptingReader::new(&buf, max), 7);
        prop_assert_eq!(&interrupted, &oneshot);
    }
}

proptest! {
    #[test]
    fn chunked_btrt_is_bit_identical_to_read_binary(trace in arb_trace()) {
        let mut buf = Vec::new();
        binary::write_trace(&mut buf, &trace).unwrap();
        let eager = binary::read_trace(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(eager.records(), trace.records());
        for chunk_records in CHUNK_SIZES {
            let reader = FastBtrtReader::new(buf.as_slice(), chunk_records).expect("header must decode");
            prop_assert_eq!(reader.metadata(), eager.metadata());
            prop_assert_eq!(reader.declared_count(), trace.len() as u64);
            let (records, _) = drain_chunks(reader);
            prop_assert_eq!(records.as_slice(), eager.records(), "chunk size {}", chunk_records);
            let reference = reference_chunks(buf.as_slice(), chunk_records).expect("header must decode");
            prop_assert_eq!(reference.metadata(), eager.metadata());
            let (reference_records, _, _) = drain(reference);
            prop_assert_eq!(reference_records.as_slice(), eager.records(), "reference, chunk size {}", chunk_records);
        }
    }

    #[test]
    fn chunked_interning_matches_eager_interning(trace in arb_trace()) {
        let mut buf = Vec::new();
        binary::write_trace(&mut buf, &trace).unwrap();
        let eager = trace.intern();
        for chunk_records in CHUNK_SIZES {
            let (_, conditional, addrs) = drain_btrt(buf.as_slice(), chunk_records);
            prop_assert_eq!(conditional.as_slice(), eager.records(), "chunk size {}", chunk_records);
            prop_assert_eq!(addrs.as_slice(), eager.addrs(), "chunk size {}", chunk_records);
            let (_, ref_conditional, ref_addrs) = drain_reference(&buf, chunk_records);
            prop_assert_eq!(ref_conditional.as_slice(), eager.records(), "reference, chunk size {}", chunk_records);
            prop_assert_eq!(ref_addrs.as_slice(), eager.addrs(), "reference, chunk size {}", chunk_records);
        }
    }

    #[test]
    fn chunked_text_is_bit_identical_to_read_text(trace in arb_trace()) {
        let mut buf = Vec::new();
        text::write_trace(&mut buf, &trace).unwrap();
        let eager = text::read_trace(&mut buf.as_slice()).unwrap();
        let eager_interned = eager.intern();
        for chunk_records in CHUNK_SIZES {
            let reader = ChunkedTraceReader::text(buf.as_slice(), chunk_records);
            prop_assert_eq!(reader.metadata(), eager.metadata());
            let (records, conditional, _) = drain(reader);
            prop_assert_eq!(records.as_slice(), eager.records(), "chunk size {}", chunk_records);
            prop_assert_eq!(conditional.as_slice(), eager_interned.records());
        }
    }

    #[test]
    fn chunk_boundaries_partition_exactly(
        trace in arb_trace(),
        chunk_records in 1usize..50,
    ) {
        let mut buf = Vec::new();
        binary::write_trace(&mut buf, &trace).unwrap();
        let reader = FastBtrtReader::new(buf.as_slice(), chunk_records).expect("header must decode");
        let chunks: Vec<_> = reader.map(|c| c.expect("well-formed stream must decode")).collect();
        // Every chunk except the last is exactly full.
        for chunk in chunks.iter().rev().skip(1) {
            prop_assert_eq!(chunk.len(), chunk_records);
        }
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        prop_assert_eq!(total, trace.len());
        if let Some(last) = chunks.last() {
            prop_assert!(last.len() <= chunk_records);
            prop_assert!(!last.is_empty());
        }
    }
}
