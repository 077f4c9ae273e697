//! Record-at-a-time reference decoder for the `BTRT` format — the oracle the
//! equivalence suites and the `decode_fast` bench hold
//! [`btr_trace::FastBtrtReader`] to.
//!
//! It is deliberately independent of the library's decoder: its own header
//! parser and kind-code table, varints read one byte per `Read::read` call
//! through [`btr_wire::varint::read_varint`], and its own mapping of those
//! failures onto [`TraceError`]. Errors use the same variants, record
//! indices, byte offsets and contexts the fast reader promises, so the
//! suites can compare the two `Debug` renderings verbatim.
//!
//! [`reference_chunks`] interns and chunks the records through
//! [`ChunkedTraceReader::from_records`], which makes the output directly
//! comparable to the fast reader's chunks.

// Each test crate that includes this file uses a different subset of it.
// The `#[inline]`s on the byte-read helpers give this out-of-crate decoder
// the codegen the in-crate one it replaced had (measured: same `decode_fast`
// `slow/` time within 1%), so that lane's recorded baselines still apply.
#![allow(dead_code)]

use btr_trace::{
    BranchAddr, BranchKind, BranchRecord, ChunkedTraceReader, Outcome, TraceError, TraceMetadata,
};
use btr_wire::varint::{read_varint, zigzag_decode};
use btr_wire::WireError;
use std::io::Read;

/// A [`Read`] adapter counting the bytes consumed so far.
struct Counting<R> {
    inner: R,
    bytes: u64,
}

impl<R: Read> Read for Counting<R> {
    #[inline]
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

fn eof(context: &str) -> TraceError {
    TraceError::UnexpectedEof {
        context: context.into(),
    }
}

#[inline]
fn read_into<R: Read>(r: &mut R, buf: &mut [u8], context: &str) -> Result<(), TraceError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            eof(context)
        } else {
            TraceError::Io(e)
        }
    })
}

#[inline]
fn read_array<R: Read, const N: usize>(r: &mut R, context: &str) -> Result<[u8; N], TraceError> {
    let mut buf = [0u8; N];
    read_into(r, &mut buf, context)?;
    Ok(buf)
}

/// Reads a `u16` length prefix and then that many bytes of UTF-8 text.
fn read_name<R: Read>(r: &mut R, len_context: &str, context: &str) -> Result<String, TraceError> {
    let len = u16::from_le_bytes(read_array(r, len_context)?);
    let mut buf = vec![0u8; usize::from(len)];
    read_into(r, &mut buf, context)?;
    Ok(String::from_utf8_lossy(&buf).into_owned())
}

fn varint<R: Read>(r: &mut R, context: &'static str) -> Result<u64, TraceError> {
    read_varint(r, context).map_err(|e| match e {
        WireError::Io(e) => TraceError::Io(e),
        WireError::UnexpectedEof { context } => eof(context),
        other => TraceError::MalformedLine {
            line: 0,
            reason: other.to_string(),
        },
    })
}

/// The format's kind codes, in flag-byte order.
const KINDS: [BranchKind; 5] = [
    BranchKind::Conditional,
    BranchKind::Unconditional,
    BranchKind::Call,
    BranchKind::Return,
    BranchKind::Indirect,
];

/// Decodes a `BTRT` stream one record at a time, yielding
/// `Result<BranchRecord>` and fusing after the first error.
pub struct ReferenceBtrtReader<R> {
    reader: Counting<R>,
    metadata: TraceMetadata,
    declared: u64,
    produced: u64,
    prev_addr: u64,
}

impl<R: Read> ReferenceBtrtReader<R> {
    /// Reads and validates the header.
    pub fn new(reader: R) -> Result<Self, TraceError> {
        let mut reader = Counting {
            inner: reader,
            bytes: 0,
        };
        let magic: [u8; 4] = read_array(&mut reader, "magic")?;
        if &magic != b"BTRT" {
            return Err(TraceError::BadMagic { found: magic });
        }
        let version = u32::from_le_bytes(read_array(&mut reader, "version")?);
        if version != 1 {
            return Err(TraceError::UnsupportedVersion { found: version });
        }
        let declared = u64::from_le_bytes(read_array(&mut reader, "record count")?);
        let benchmark = read_name(&mut reader, "benchmark length", "benchmark name")?;
        let input_set = read_name(&mut reader, "input length", "input name")?;
        let seed = match read_array::<_, 1>(&mut reader, "seed flag")? {
            [1] => Some(u64::from_le_bytes(read_array(&mut reader, "seed")?)),
            _ => None,
        };
        let metadata = TraceMetadata {
            benchmark,
            input_set,
            description: String::new(),
            seed,
        };
        Ok(ReferenceBtrtReader {
            reader,
            metadata,
            declared,
            produced: 0,
            prev_addr: 0,
        })
    }

    /// The metadata decoded from the header.
    pub fn metadata(&self) -> &TraceMetadata {
        &self.metadata
    }

    /// The record count the header declared.
    pub fn declared_count(&self) -> u64 {
        self.declared
    }

    /// Bytes consumed from the stream so far, header included: after each
    /// yielded record, exactly the offset where the next record begins.
    pub fn byte_offset(&self) -> u64 {
        self.reader.bytes
    }

    fn read_record(&mut self) -> Result<BranchRecord, TraceError> {
        let [flags] = read_array(&mut self.reader, "record flags")?;
        let code = flags & 0x07;
        let kind = *KINDS
            .get(usize::from(code))
            .ok_or(TraceError::UnknownKind {
                code: char::from(b'0' + code),
            })?;
        let outcome = Outcome::from_bool(flags & 0x08 != 0);
        let delta = zigzag_decode(varint(&mut self.reader, "address delta")?);
        let addr = self.prev_addr.wrapping_add(delta as u64);
        self.prev_addr = addr;
        let mut record = BranchRecord::new(BranchAddr::new(addr), kind, outcome);
        if flags & 0x10 != 0 {
            let target = varint(&mut self.reader, "target address")?;
            record = record.with_target(BranchAddr::new(target));
        }
        Ok(record)
    }
}

impl<R: Read> Iterator for ReferenceBtrtReader<R> {
    type Item = Result<BranchRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.produced >= self.declared {
            return None;
        }
        match self.read_record() {
            Ok(record) => {
                self.produced += 1;
                Some(Ok(record))
            }
            Err(e) => {
                // A record-level end-of-stream pins the record index and the
                // offset reached; then fuse, since record boundaries are lost.
                let e = match e {
                    TraceError::UnexpectedEof { context } => TraceError::TruncatedRecord {
                        record: self.produced,
                        offset: self.reader.bytes,
                        context,
                    },
                    other => other,
                };
                self.produced = self.declared;
                Some(Err(e))
            }
        }
    }
}

/// Chunks and interns the reference decoder's records, `chunk_records` at a
/// time — the same work, and the same chunk shape, as
/// [`btr_trace::FastBtrtReader`].
pub fn reference_chunks<R: Read>(
    reader: R,
    chunk_records: usize,
) -> Result<ChunkedTraceReader<ReferenceBtrtReader<R>>, TraceError> {
    let source = ReferenceBtrtReader::new(reader)?;
    Ok(ChunkedTraceReader::from_records(
        source.metadata().clone(),
        Some(source.declared_count()),
        source,
        chunk_records,
    ))
}
