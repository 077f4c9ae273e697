//! Allocation-counting harness for the batched `/sweep` upload path: the
//! peak heap [`materialize_sweep`] grows while it turns an upload into the
//! interned trace the batch tier replays.
//!
//! The whole test binary runs under a counting global allocator (integration
//! tests are their own crates, so the workspace's `forbid(unsafe_code)` lib
//! attribute does not apply here). `realloc` is forwarded to the system
//! allocator and counted as a resize: the interned trace grows by doubling,
//! and the bound below is stated for the capacity it reaches. The upload
//! bytes are encoded before the measured region, so the peak is
//! `materialize_sweep`'s own footprint. Two cases share the counters, so
//! they run one at a time:
//!
//! * a 10⁶-record `BTRT` upload stays under 16 bytes per conditional record
//!   at twice the record count (doubling growth), plus one chunk's buffers
//!   and the per-branch tables — below what the record list plus interned
//!   copy it replaced held;
//! * a header declaring 2⁴⁰ records over a 3-record body is a 422, and the
//!   declared count sizes nothing: its peak equals that of a header
//!   declaring 2¹⁷.

use btr_serve::analysis::{materialize_sweep, BodyFormat, Budgets};
use btr_serve::ServerConfig;
use btr_trace::io::binary;
use btr_trace::{BranchAddr, BranchRecord, InternedRecord, Outcome, Trace, TraceMetadata};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// A [`System`]-backed allocator tracking live bytes and the high-water mark.
struct CountingAllocator;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

// SAFETY: every method hands its arguments to `System` unchanged and
// returns its result, so `System` meets each contract the caller relies on;
// the bookkeeping touches only the atomic counters.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let out = System.realloc(ptr, layout, new_size);
        if !out.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::SeqCst);
            }
        }
        out
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Serialises the cases: they share the global allocation counters.
static COUNTERS: Mutex<()> = Mutex::new(());

const RECORDS: u64 = 1_000_000;
const STATICS: u64 = 1024;

/// btrd's default per-request budgets.
fn budgets() -> Budgets {
    let config = ServerConfig::default();
    Budgets {
        chunk_records: config.chunk_records,
        max_static_branches: config.max_static_branches,
    }
}

/// Runs `body` with the peak counter reset, returning the peak heap growth
/// over the live bytes at entry.
fn peak_growth<T>(body: impl FnOnce() -> T) -> (T, usize) {
    let baseline = LIVE.load(Ordering::SeqCst);
    PEAK.store(baseline, Ordering::SeqCst);
    let out = body();
    (out, PEAK.load(Ordering::SeqCst).saturating_sub(baseline))
}

/// One chunk's buffers (raw records plus the three conditional columns, at
/// up to twice their length while they grow) and the decoder's fixed
/// refill buffer and intern cache.
fn chunk_bound(chunk_records: usize) -> usize {
    let per_record = std::mem::size_of::<BranchRecord>() + 8 + 4 + 1;
    2 * chunk_records * per_record + (256 << 10) + (8 << 10) * 12
}

/// `records` conditional records over `statics` static branches, encoded as
/// `BTRT`.
fn encoded_upload(records: u64, statics: u64) -> Vec<u8> {
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let records = (0..records)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = BranchAddr::new(0x40_0000 + ((state >> 40) % statics) * 4);
            let taken = i % 3 == 1 || (state >> 33) & 1 == 1;
            BranchRecord::conditional(addr, Outcome::from_bool(taken))
        })
        .collect();
    let trace = Trace::from_records(TraceMetadata::named("upload-memory"), records);
    let mut bytes = Vec::new();
    binary::write_trace(&mut bytes, &trace).expect("writing to a Vec cannot fail");
    bytes
}

#[test]
fn materialized_upload_holds_interned_records_not_a_record_list() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let body = encoded_upload(RECORDS, STATICS);
    let budgets = budgets();

    let (upload, peak_delta) = peak_growth(|| {
        materialize_sweep(body.as_slice(), BodyFormat::Btrt, budgets).expect("valid upload")
    });

    assert_eq!(upload.records, RECORDS);
    assert_eq!(upload.interned.len() as u64, RECORDS);
    assert_eq!(upload.interned.static_count() as u64, STATICS);
    let interned = std::mem::size_of::<InternedRecord>();
    assert_eq!(interned, 16);
    // The interned records at up to twice the record count (doubling
    // growth), one chunk, and generous per-static-branch tables: the
    // decoder's interner, the dense and address-keyed statistics, the id
    // table and the profile.
    let bound = 2 * interned * RECORDS as usize
        + chunk_bound(budgets.chunk_records)
        + 512 * STATICS as usize
        + (64 << 10);
    // What the replaced path held at once at its end: the 32-byte record
    // list and the interned trace built from it.
    let old_floor = (std::mem::size_of::<BranchRecord>() + interned) * RECORDS as usize;
    println!(
        "[upload-memory] materialize_sweep, {RECORDS} records: peak heap growth {:.2} MiB \
         (bound {:.2} MiB, replaced path's floor {:.2} MiB)",
        peak_delta as f64 / (1024.0 * 1024.0),
        bound as f64 / (1024.0 * 1024.0),
        old_floor as f64 / (1024.0 * 1024.0),
    );
    assert!(
        peak_delta < bound,
        "peak heap growth {peak_delta} B exceeds the interned-record bound {bound} B"
    );
    assert!(
        bound < old_floor,
        "the bound {bound} B is not below the replaced path's floor {old_floor} B"
    );
}

#[test]
fn declared_record_count_sizes_nothing() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let body = encoded_upload(3, 3);
    let budgets = budgets();
    let peak_for = |declared: u64| {
        let mut lying = body.clone();
        // The record count is the little-endian u64 after magic and version.
        lying[8..16].copy_from_slice(&declared.to_le_bytes());
        // The least of three runs: the harness's own threads may allocate
        // while one run is measured.
        (0..3)
            .map(|_| {
                let (outcome, peak_delta) =
                    peak_growth(|| materialize_sweep(lying.as_slice(), BodyFormat::Btrt, budgets));
                let err = outcome.expect_err("a body shorter than its header declares is refused");
                assert_eq!(err.status(), 422, "{err}");
                peak_delta
            })
            .min()
            .expect("three runs")
    };
    let (modest, huge) = (peak_for(1 << 17), peak_for(1 << 40));
    assert!(
        huge < chunk_bound(budgets.chunk_records) + (64 << 10),
        "declaring 2^40 records grew the heap by {huge} B"
    );
    assert_eq!(
        modest, huge,
        "peak heap depends on the declared record count"
    );
}
