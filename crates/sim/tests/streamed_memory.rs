//! Allocation-counting harness proving the streamed path's memory bound: a
//! multi-million-record synthetic trace simulates with peak heap growth
//! bounded by the chunk size (plus the per-static-branch tables), not by
//! trace length.
//!
//! The whole test binary runs under a counting global allocator (integration
//! tests are their own crates, so the workspace's `forbid(unsafe_code)` lib
//! attribute does not apply here). The trace is produced by a *lazy* record
//! generator — no encoded buffer, no record vector — so the measured peak is
//! the streaming pipeline's own footprint. Two cases share the counters, so
//! they run one at a time:
//!
//! * records straight from [`ChunkedTraceReader::from_records`] (the text
//!   upload path) into a one-slot [`SimEngine::run_fused_streamed`];
//! * the production path — `BTRT` bytes synthesised on the fly, decoded by
//!   [`FastBtrtReader`] and swept by [`SimEngine::run_fused_streamed`], as
//!   `btrd`'s `/sweep` does.

use btr_sim::config::PredictorFamily;
use btr_sim::engine::SimEngine;
use btr_trace::io::binary;
use btr_trace::{
    BranchAddr, BranchRecord, ChunkedTraceReader, FastBtrtReader, Outcome, Trace, TraceMetadata,
    DEFAULT_CHUNK_RECORDS,
};
use btr_wire::varint::{write_varint, zigzag_encode};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Read;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// A [`System`]-backed allocator tracking live bytes and the high-water mark.
struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::SeqCst) + layout.size();
            PEAK.fetch_max(live, Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Lazily generates the conditional-branch records of a synthetic workload:
/// `len` dynamic branches over `statics` static addresses mixing biased,
/// alternating and noisy behaviour. Yields records one at a time, so the
/// "trace" never exists in memory.
struct SyntheticRecords {
    remaining: u64,
    produced: u64,
    statics: u64,
    state: u64,
}

impl SyntheticRecords {
    fn new(len: u64, statics: u64, seed: u64) -> Self {
        SyntheticRecords {
            remaining: len,
            produced: 0,
            statics,
            state: seed | 1,
        }
    }
}

impl Iterator for SyntheticRecords {
    type Item = btr_trace::Result<BranchRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let addr = BranchAddr::new(0x40_0000 + ((self.state >> 40) % self.statics) * 4);
        let taken = match self.produced % 3 {
            0 => self.produced.is_multiple_of(2),
            1 => true,
            _ => (self.state >> 33) & 1 == 1,
        };
        self.produced += 1;
        Some(Ok(BranchRecord::conditional(
            addr,
            Outcome::from_bool(taken),
        )))
    }
}

/// Lazily encodes [`SyntheticRecords`] as a `BTRT` byte stream: the header,
/// then one record at a time as the reader asks for bytes, so neither the
/// trace nor its encoding ever exists in memory.
struct SyntheticBtrt {
    records: SyntheticRecords,
    /// Encoded bytes not yet handed out (the header, then one record).
    pending: Vec<u8>,
    pos: usize,
    prev_addr: u64,
}

impl SyntheticBtrt {
    fn new(records: SyntheticRecords, metadata: TraceMetadata) -> Self {
        // An empty trace's encoding is exactly the header; the record count
        // is the little-endian u64 after the magic and version.
        let mut header = Vec::new();
        binary::write_trace(&mut header, &Trace::from_records(metadata, Vec::new()))
            .expect("writing to a Vec cannot fail");
        header[8..16].copy_from_slice(&records.remaining.to_le_bytes());
        SyntheticBtrt {
            records,
            pending: header,
            pos: 0,
            prev_addr: 0,
        }
    }

    /// Encodes the next conditional record into `pending`; false at the end.
    fn encode_next(&mut self) -> bool {
        let Some(record) = self.records.next() else {
            return false;
        };
        let record = record.expect("synthetic records cannot fail");
        self.pending.clear();
        self.pos = 0;
        // Kind code 0 (conditional) plus the taken bit.
        self.pending.push(if record.outcome().is_taken() {
            1 << 3
        } else {
            0
        });
        let delta = record.addr().raw().wrapping_sub(self.prev_addr) as i64;
        write_varint(&mut self.pending, zigzag_encode(delta)).expect("writing to a Vec");
        self.prev_addr = record.addr().raw();
        true
    }
}

impl Read for SyntheticBtrt {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut n = 0;
        while n < buf.len() {
            if self.pos == self.pending.len() && !self.encode_next() {
                break;
            }
            let take = (self.pending.len() - self.pos).min(buf.len() - n);
            buf[n..n + take].copy_from_slice(&self.pending[self.pos..self.pos + take]);
            self.pos += take;
            n += take;
        }
        Ok(n)
    }
}

/// Serialises the cases: they share the global allocation counters.
static COUNTERS: Mutex<()> = Mutex::new(());

const RECORDS: u64 = 10_000_000;
const STATICS: u64 = 1024;
const CHUNK_RECORDS: usize = DEFAULT_CHUNK_RECORDS; // 65_536

/// Runs `body` with the peak counter reset, returning the peak heap growth
/// over the live bytes at entry.
fn peak_growth<T>(body: impl FnOnce() -> T) -> (T, usize) {
    let baseline = LIVE.load(Ordering::SeqCst);
    PEAK.store(baseline, Ordering::SeqCst);
    let out = body();
    (out, PEAK.load(Ordering::SeqCst).saturating_sub(baseline))
}

/// Asserts `peak_delta` is within the chunk-size bound and well below what
/// materialising the trace would cost.
fn assert_bounded(case: &str, peak_delta: usize) {
    // What the eager path would at minimum hold: the full record vector
    // (before even interning it).
    let eager_floor = RECORDS as usize * std::mem::size_of::<BranchRecord>();
    // The streaming bound: a few chunk buffers' worth (raw records + interned
    // conditionals + Vec growth slack) plus per-static-branch tables and the
    // predictor — all independent of `RECORDS`.
    let record_footprint =
        std::mem::size_of::<BranchRecord>() + std::mem::size_of::<btr_trace::InternedRecord>();
    let bound = 8 * CHUNK_RECORDS * record_footprint + (1 << 21);
    assert!(
        peak_delta < bound,
        "{case}: peak heap growth {peak_delta} B exceeds the chunk-size bound {bound} B"
    );
    assert!(
        peak_delta < eager_floor / 4,
        "{case}: peak heap growth {peak_delta} B is not meaningfully below the \
         eager-materialisation floor {eager_floor} B"
    );
    println!(
        "[streamed-memory] {case}, {RECORDS} records: peak heap growth {:.2} MiB \
         (eager floor {:.2} MiB, bound {:.2} MiB)",
        peak_delta as f64 / (1024.0 * 1024.0),
        eager_floor as f64 / (1024.0 * 1024.0),
        bound as f64 / (1024.0 * 1024.0),
    );
}

#[test]
fn streamed_peak_memory_is_bounded_by_chunk_size_not_trace_length() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let source = SyntheticRecords::new(RECORDS, STATICS, 0xfeed_f00d);
    let reader = ChunkedTraceReader::from_records(
        TraceMetadata::named("synthetic-10e7"),
        Some(RECORDS),
        source,
        CHUNK_RECORDS,
    );
    let mut fused = PredictorFamily::PAs.fused_paper(&[8]);

    let (results, peak_delta) = peak_growth(|| {
        SimEngine::new()
            .run_fused_streamed(reader, &mut fused)
            .expect("synthetic stream cannot fail")
    });

    assert_eq!(results.len(), 1);
    assert_eq!(results[0].overall.lookups, RECORDS);
    assert_eq!(results[0].per_branch.len(), STATICS as usize);
    assert_bounded(
        "ChunkedTraceReader + one-slot run_fused_streamed",
        peak_delta,
    );
}

#[test]
fn fast_btrt_fused_sweep_peak_memory_is_bounded_by_chunk_size() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let histories = [0, 4, 8];
    let source = SyntheticRecords::new(RECORDS, STATICS, 0xfeed_f00d);
    let bytes = SyntheticBtrt::new(source, TraceMetadata::named("synthetic-btrt-10e7"));

    // The reader and the fused tables are built inside the measured region:
    // the decode buffer and intern cache count against the bound too.
    let (results, peak_delta) = peak_growth(|| {
        let reader = FastBtrtReader::new(bytes, CHUNK_RECORDS).expect("synthetic header decodes");
        let mut fused = PredictorFamily::PAs.fused_paper(&histories);
        SimEngine::new()
            .run_fused_streamed(reader, &mut fused)
            .expect("synthetic stream cannot fail")
    });

    assert_eq!(results.len(), histories.len());
    for result in &results {
        assert_eq!(result.overall.lookups, RECORDS);
        assert_eq!(result.per_branch.len(), STATICS as usize);
    }
    assert_bounded("FastBtrtReader + run_fused_streamed", peak_delta);
}
