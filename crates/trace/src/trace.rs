//! In-memory branch traces and their builder.

use crate::record::{BranchKind, BranchRecord};
use crate::stats::TraceStats;
use std::fmt;

/// Descriptive metadata attached to a trace.
///
/// Mirrors the columns of the paper's Table 1: the benchmark name and the
/// input set the trace corresponds to, plus a free-form description and the
/// generator seed when the trace is synthetic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceMetadata {
    /// Benchmark name (e.g. `"gcc"`).
    pub benchmark: String,
    /// Input set identifier (e.g. `"amptjp.i"`).
    pub input_set: String,
    /// Free-form description.
    pub description: String,
    /// Seed used to generate the trace, when synthetic.
    pub seed: Option<u64>,
}

impl TraceMetadata {
    /// Creates metadata with just a benchmark name.
    pub fn named(benchmark: impl Into<String>) -> Self {
        TraceMetadata {
            benchmark: benchmark.into(),
            ..TraceMetadata::default()
        }
    }

    /// Sets the input-set field, builder style.
    #[must_use]
    pub fn with_input_set(mut self, input: impl Into<String>) -> Self {
        self.input_set = input.into();
        self
    }

    /// Sets the seed field, builder style.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// A short label of the form `benchmark(input_set)` used in reports.
    pub fn label(&self) -> String {
        if self.input_set.is_empty() {
            self.benchmark.clone()
        } else {
            format!("{}({})", self.benchmark, self.input_set)
        }
    }
}

/// An immutable, in-memory sequence of dynamic branch executions.
///
/// A `Trace` owns its records and caches the raw per-address statistics
/// computed while it was built, so repeated analyses do not re-scan the
/// record vector. The conditional-record subset — the stream every predictor
/// simulation consumes — is available as a contiguous slice
/// ([`Trace::conditional_records`]), so a 17-point history sweep filters the
/// record kinds once instead of once per sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    metadata: TraceMetadata,
    records: Vec<BranchRecord>,
    /// Cached conditional subset, only materialized for traces that contain
    /// non-conditional records; all-conditional traces (every synthetic
    /// workload) borrow `records` directly so memory never doubles at
    /// paper scale. Invariant: empty iff `stats.total_other() == 0`.
    ///
    /// Derived data, excluded from serialization: any future wire decoding
    /// must recompute this via [`conditional_subset`] (e.g. route decoding
    /// through [`Trace::from_records`]) rather than trust wire data.
    conditional: Vec<BranchRecord>,
    stats: TraceStats,
}

/// Builds the materialized conditional subset for a mixed record vector, or
/// an empty vector when every record is conditional (the borrow-`records`
/// fast path).
fn conditional_subset(records: &[BranchRecord], stats: &TraceStats) -> Vec<BranchRecord> {
    if stats.total_other() == 0 {
        Vec::new()
    } else {
        records
            .iter()
            .copied()
            .filter(|r| r.kind().is_conditional())
            .collect()
    }
}

/// Incremental-append step for the lazy conditional cache. Must run after
/// `stats.observe(record)` and before `records.push(record)`: the first
/// non-conditional record materializes the cache from the (all-conditional)
/// records so far; afterwards every conditional record is appended.
fn push_to_conditional_cache(
    conditional: &mut Vec<BranchRecord>,
    records: &[BranchRecord],
    stats: &TraceStats,
    record: &BranchRecord,
) {
    if record.kind().is_conditional() {
        if stats.total_other() > 0 {
            conditional.push(*record);
        }
    } else if stats.total_other() == 1 {
        *conditional = records.to_vec();
    }
}

impl Trace {
    /// Builds a trace directly from records, computing statistics eagerly.
    pub fn from_records(metadata: TraceMetadata, records: Vec<BranchRecord>) -> Self {
        let mut stats = TraceStats::new();
        for r in &records {
            stats.observe(r);
        }
        Trace::with_stats(metadata, records, stats)
    }

    /// Assembles a trace from records and the statistics already folded over
    /// exactly those records (by a chunk decoder's dense pass), skipping the
    /// per-record map fold of [`Trace::from_records`].
    pub(crate) fn with_stats(
        metadata: TraceMetadata,
        records: Vec<BranchRecord>,
        stats: TraceStats,
    ) -> Self {
        debug_assert_eq!(
            stats.total_conditional() + stats.total_other(),
            records.len() as u64
        );
        let conditional = conditional_subset(&records, &stats);
        Trace {
            metadata,
            records,
            conditional,
            stats,
        }
    }

    /// The trace metadata.
    pub fn metadata(&self) -> &TraceMetadata {
        &self.metadata
    }

    /// The number of records (of any kind) in the trace.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if the trace contains no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records as a slice.
    pub fn records(&self) -> &[BranchRecord] {
        &self.records
    }

    /// The conditional records as a precomputed contiguous slice, in trace
    /// order — the stream predictor simulations iterate. For all-conditional
    /// traces this is the record vector itself (no copy is held).
    pub fn conditional_records(&self) -> &[BranchRecord] {
        if self.stats.total_other() == 0 {
            &self.records
        } else {
            &self.conditional
        }
    }

    /// Interns the conditional-branch stream: every static branch gets a
    /// dense `u32` id so per-branch simulation state can live in flat vectors
    /// instead of address-keyed maps (see [`crate::interned::InternedTrace`]).
    pub fn intern(&self) -> crate::interned::InternedTrace {
        crate::interned::InternedTrace::from_conditional_records(self.conditional_records())
    }

    /// Iterates over the records.
    pub fn iter(&self) -> std::slice::Iter<'_, BranchRecord> {
        self.records.iter()
    }

    /// The raw statistics accumulated over the whole trace.
    pub fn stats(&self) -> &TraceStats {
        &self.stats
    }

    /// The number of conditional-branch records.
    pub fn conditional_count(&self) -> u64 {
        self.stats.total_conditional()
    }

    /// The number of distinct static conditional branches.
    pub fn static_conditional_count(&self) -> usize {
        self.stats.static_conditional_count()
    }

    /// Counts records of a particular kind.
    pub fn count_kind(&self, kind: BranchKind) -> u64 {
        self.records.iter().filter(|r| r.kind() == kind).count() as u64
    }

    /// Consumes the trace and returns its record vector.
    pub fn into_records(self) -> Vec<BranchRecord> {
        self.records
    }

    /// Concatenates another trace onto this one, recomputing statistics for
    /// the appended records only.
    pub fn extend_from(&mut self, other: &Trace) {
        for r in other.records() {
            self.stats.observe(r);
            push_to_conditional_cache(&mut self.conditional, &self.records, &self.stats, r);
            self.records.push(*r);
        }
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace {} [{} records, {} conditional, {} static branches]",
            self.metadata.label(),
            self.len(),
            self.conditional_count(),
            self.static_conditional_count()
        )
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a BranchRecord;
    type IntoIter = std::slice::Iter<'a, BranchRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

impl IntoIterator for Trace {
    type Item = BranchRecord;
    type IntoIter = std::vec::IntoIter<BranchRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.into_iter()
    }
}

/// Incremental builder for [`Trace`], maintaining statistics as records are
/// appended.
///
/// ```
/// use btr_trace::{BranchAddr, BranchRecord, Outcome, TraceBuilder};
/// let mut b = TraceBuilder::new("compress").with_input_set("bigtest.in");
/// b.push(BranchRecord::conditional(BranchAddr::new(0x40), Outcome::Taken));
/// let t = b.build();
/// assert_eq!(t.metadata().benchmark, "compress");
/// assert_eq!(t.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceBuilder {
    metadata: TraceMetadata,
    records: Vec<BranchRecord>,
    conditional: Vec<BranchRecord>,
    stats: TraceStats,
}

impl TraceBuilder {
    /// Creates a builder with the given benchmark name.
    pub fn new(benchmark: impl Into<String>) -> Self {
        TraceBuilder::with_metadata(TraceMetadata::named(benchmark))
    }

    /// Creates a builder with full metadata.
    pub fn with_metadata(metadata: TraceMetadata) -> Self {
        TraceBuilder {
            metadata,
            records: Vec::new(),
            conditional: Vec::new(),
            stats: TraceStats::new(),
        }
    }

    /// Sets the input-set metadata field.
    #[must_use]
    pub fn with_input_set(mut self, input: impl Into<String>) -> Self {
        self.metadata.input_set = input.into();
        self
    }

    /// Sets the seed metadata field.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.metadata.seed = Some(seed);
        self
    }

    /// Reserves capacity for `additional` more records.
    pub fn reserve(&mut self, additional: usize) {
        self.records.reserve(additional);
    }

    /// Appends a record.
    pub fn push(&mut self, record: BranchRecord) -> &mut Self {
        self.stats.observe(&record);
        push_to_conditional_cache(&mut self.conditional, &self.records, &self.stats, &record);
        self.records.push(record);
        self
    }

    /// Appends every record from an iterator.
    pub fn extend<I: IntoIterator<Item = BranchRecord>>(&mut self, records: I) -> &mut Self {
        for r in records {
            self.push(r);
        }
        self
    }

    /// Number of records pushed so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if no records have been pushed.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Finalizes the builder into an immutable [`Trace`].
    pub fn build(self) -> Trace {
        Trace {
            metadata: self.metadata,
            records: self.records,
            conditional: self.conditional,
            stats: self.stats,
        }
    }
}

impl Extend<BranchRecord> for TraceBuilder {
    fn extend<T: IntoIterator<Item = BranchRecord>>(&mut self, iter: T) {
        TraceBuilder::extend(self, iter);
    }
}

impl FromIterator<BranchRecord> for Trace {
    fn from_iter<T: IntoIterator<Item = BranchRecord>>(iter: T) -> Self {
        let mut b = TraceBuilder::new("anonymous");
        b.extend(iter);
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{BranchAddr, Outcome};

    fn rec(addr: u64, taken: bool) -> BranchRecord {
        BranchRecord::conditional(BranchAddr::new(addr), Outcome::from_bool(taken))
    }

    #[test]
    fn builder_and_from_records_agree() {
        let records = vec![rec(0x10, true), rec(0x10, false), rec(0x20, true)];
        let mut b = TraceBuilder::new("t");
        b.extend(records.clone());
        let via_builder = b.build();
        let via_records = Trace::from_records(TraceMetadata::named("t"), records);
        assert_eq!(via_builder.stats(), via_records.stats());
        assert_eq!(via_builder.records(), via_records.records());
    }

    #[test]
    fn metadata_label_formats() {
        let m = TraceMetadata::named("gcc")
            .with_input_set("cccp.i")
            .with_seed(7);
        assert_eq!(m.label(), "gcc(cccp.i)");
        assert_eq!(m.seed, Some(7));
        assert_eq!(TraceMetadata::named("go").label(), "go");
    }

    #[test]
    fn trace_counters_track_kinds() {
        let mut b = TraceBuilder::new("mix");
        b.push(rec(0x10, true));
        b.push(BranchRecord::new(
            BranchAddr::new(0x14),
            BranchKind::Call,
            Outcome::Taken,
        ));
        b.push(BranchRecord::new(
            BranchAddr::new(0x18),
            BranchKind::Return,
            Outcome::Taken,
        ));
        let t = b.build();
        assert_eq!(t.len(), 3);
        assert_eq!(t.conditional_count(), 1);
        assert_eq!(t.count_kind(BranchKind::Call), 1);
        assert_eq!(t.count_kind(BranchKind::Return), 1);
        assert_eq!(t.count_kind(BranchKind::Indirect), 0);
        assert_eq!(t.static_conditional_count(), 1);
    }

    #[test]
    fn extend_from_merges_statistics() {
        let a = Trace::from_records(TraceMetadata::named("a"), vec![rec(0x10, true)]);
        let b = Trace::from_records(
            TraceMetadata::named("b"),
            vec![rec(0x10, false), rec(0x20, true)],
        );
        let mut merged = a.clone();
        merged.extend_from(&b);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged.conditional_count(), 3);
        assert_eq!(merged.static_conditional_count(), 2);
    }

    #[test]
    fn iteration_and_display() {
        let t: Trace = vec![rec(0x10, true), rec(0x14, false)]
            .into_iter()
            .collect();
        assert_eq!(t.iter().count(), 2);
        assert_eq!((&t).into_iter().count(), 2);
        let s = t.to_string();
        assert!(s.contains("2 records"));
        let owned: Vec<_> = t.into_iter().collect();
        assert_eq!(owned.len(), 2);
    }

    #[test]
    fn conditional_cache_is_lazy_for_all_conditional_traces() {
        // All-conditional: the subset is the record vector itself, no copy.
        let t: Trace = vec![rec(0x10, true), rec(0x20, false)]
            .into_iter()
            .collect();
        assert_eq!(t.conditional_records().as_ptr(), t.records().as_ptr());
        assert_eq!(t.conditional_records().len(), 2);

        // First non-conditional record materializes the subset (builder path).
        let mut b = TraceBuilder::new("mixed");
        b.push(rec(0x10, true));
        b.push(BranchRecord::new(
            BranchAddr::new(0x14),
            BranchKind::Call,
            Outcome::Taken,
        ));
        b.push(rec(0x18, false));
        let mixed = b.build();
        assert_ne!(
            mixed.conditional_records().as_ptr(),
            mixed.records().as_ptr()
        );
        assert_eq!(
            mixed.conditional_records(),
            &[rec(0x10, true), rec(0x18, false)]
        );

        // extend_from: appending a mixed trace onto an all-conditional one
        // materializes mid-stream and keeps the subset consistent.
        let mut grown: Trace = vec![rec(0x30, true)].into_iter().collect();
        grown.extend_from(&mixed);
        assert_eq!(
            grown.conditional_records(),
            &[rec(0x30, true), rec(0x10, true), rec(0x18, false)]
        );
        // And all-conditional extension keeps the zero-copy representation.
        let mut still_pure: Trace = vec![rec(0x40, true)].into_iter().collect();
        let more: Trace = vec![rec(0x50, false)].into_iter().collect();
        still_pure.extend_from(&more);
        assert_eq!(
            still_pure.conditional_records().as_ptr(),
            still_pure.records().as_ptr()
        );
    }

    #[test]
    fn empty_trace_is_empty() {
        let t = TraceBuilder::new("empty").build();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.conditional_count(), 0);
    }
}
