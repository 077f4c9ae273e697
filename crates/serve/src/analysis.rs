//! Request parameters and the per-request analysis drivers.
//!
//! Both endpoints stream the upload exactly once: the body bytes flow
//! through [`crate::digest::DigestReader`] (content addressing) into one
//! chunked decoder per upload — [`FastBtrtReader`] for `BTRT`,
//! [`ChunkedTraceReader`] for text, picked once by `UploadReader` — and
//! every decoded chunk is folded into a [`DenseTraceStats`] on the way past:
//! classification, simulation and profiling all ride the same pass, with
//! per-branch statistics indexed by the reader's dense interned ids rather
//! than a per-record map lookup. Peak memory per request is one chunk plus
//! the interning/statistics tables, independent of upload length; the
//! distinct-branch tables are additionally capped by the static-branch
//! budget.

use crate::error::ServeError;
use btr_core::advisor::{ClassRecommendation, ComponentStyle, HybridAdvisor};
use btr_core::analysis::{ClassHistoryMatrix, ClassMissRates, ClassificationAnalysis};
use btr_core::class::BinningScheme;
use btr_core::distribution::{ClassDistribution, Metric};
use btr_core::joint::JointClassTable;
use btr_core::profile::ProgramProfile;
use btr_sim::config::PredictorFamily;
use btr_sim::engine::{RunResult, SimEngine};
use btr_sim::sweep::SweepResult;
use btr_trace::io::TextRecordReader;
use btr_trace::{
    BranchRecord, ChunkStream, ChunkedTraceReader, DenseTraceStats, FastBtrtReader, InternedTrace,
    Trace, TraceChunk, TraceMetadata,
};
use btr_wire::{MapBuilder, Value, Wire};
use std::cell::Cell;
use std::io::Read;
use std::sync::Arc;
use stealpool::WorkStealingPool;

/// How an upload body is encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyFormat {
    /// The `BTRT` binary trace format (`application/x-btrt`, the default).
    Btrt,
    /// The line-oriented text trace format (`text/plain`).
    Text,
}

impl BodyFormat {
    /// Maps a `Content-Type` header to a body format; absent means `BTRT`.
    ///
    /// # Errors
    ///
    /// Unknown content types are a 400 — silently guessing the framing of a
    /// binary upload corrupts the decode in confusing ways.
    pub fn from_content_type(header: Option<&str>) -> Result<BodyFormat, ServeError> {
        let Some(raw) = header else {
            return Ok(BodyFormat::Btrt);
        };
        let essence = raw.split(';').next().unwrap_or_default().trim();
        match essence {
            "" | "application/x-btrt" | "application/octet-stream" => Ok(BodyFormat::Btrt),
            "text/plain" => Ok(BodyFormat::Text),
            other => Err(ServeError::BadRequest(format!(
                "unsupported Content-Type {other:?} (expected application/x-btrt or text/plain)"
            ))),
        }
    }
}

/// Parses a `scheme` query parameter: `paper11` (default), `chang6`, or
/// `uniformN` with `2 <= N <= 64`.
pub fn parse_scheme(raw: Option<&str>) -> Result<BinningScheme, ServeError> {
    match raw {
        None | Some("paper11") => Ok(BinningScheme::Paper11),
        Some("chang6") => Ok(BinningScheme::Chang6),
        Some(text) => {
            if let Some(n) = text.strip_prefix("uniform") {
                let n: usize = n
                    .parse()
                    .map_err(|_| ServeError::BadRequest(format!("unparseable scheme {text:?}")))?;
                if !(2..=64).contains(&n) {
                    return Err(ServeError::BadRequest(format!(
                        "uniform scheme wants 2..=64 classes, got {n}"
                    )));
                }
                Ok(BinningScheme::Uniform(n))
            } else {
                Err(ServeError::BadRequest(format!(
                    "unknown scheme {text:?} (expected paper11, chang6 or uniformN)"
                )))
            }
        }
    }
}

/// Renders a scheme back to its query-parameter form (for cache keys).
pub fn scheme_param(scheme: BinningScheme) -> String {
    match scheme {
        BinningScheme::Paper11 => "paper11".into(),
        BinningScheme::Chang6 => "chang6".into(),
        BinningScheme::Uniform(n) => format!("uniform{n}"),
    }
}

/// Parses a `metric` query parameter: `transition` (default) or `taken`.
pub fn parse_metric(raw: Option<&str>) -> Result<Metric, ServeError> {
    match raw {
        None | Some("transition") => Ok(Metric::TransitionRate),
        Some("taken") => Ok(Metric::TakenRate),
        Some(other) => Err(ServeError::BadRequest(format!(
            "unknown metric {other:?} (expected taken or transition)"
        ))),
    }
}

/// Parses a `family` query parameter: `pas` (default) or `gas`.
pub fn parse_family(raw: Option<&str>) -> Result<PredictorFamily, ServeError> {
    match raw {
        None | Some("pas") => Ok(PredictorFamily::PAs),
        Some("gas") => Ok(PredictorFamily::GAs),
        Some(other) => Err(ServeError::BadRequest(format!(
            "unknown family {other:?} (expected pas or gas)"
        ))),
    }
}

/// Parses a `histories` query parameter: a comma list of history lengths,
/// deduplicated and sorted; defaults to `0,1,2,4,8` when absent. Each entry
/// must fit the family's pattern tables.
pub fn parse_histories(raw: Option<&str>, family: PredictorFamily) -> Result<Vec<u32>, ServeError> {
    let mut histories: Vec<u32> = match raw {
        None | Some("") => vec![0, 1, 2, 4, 8],
        Some(text) => text
            .split(',')
            .map(|part| {
                part.trim().parse::<u32>().map_err(|_| {
                    ServeError::BadRequest(format!("unparseable history length {part:?}"))
                })
            })
            .collect::<Result<Vec<u32>, ServeError>>()?,
    };
    histories.sort_unstable();
    histories.dedup();
    if histories.is_empty() {
        return Err(ServeError::BadRequest("empty history list".into()));
    }
    let max = family.max_history();
    if let Some(&too_big) = histories.iter().find(|&&h| h > max) {
        return Err(ServeError::BadRequest(format!(
            "history {too_big} exceeds {} bits for family {}",
            max,
            family.label()
        )));
    }
    Ok(histories)
}

/// Per-request resource budgets, copied from the server config.
#[derive(Debug, Clone, Copy)]
pub struct Budgets {
    /// Records per decoded chunk (bounds the chunk buffer).
    pub chunk_records: usize,
    /// Distinct static conditional branches per upload (bounds the
    /// interning, statistics and per-slot predictor tables).
    pub max_static_branches: usize,
}

/// What one streamed analysis produced, plus accounting for the metrics.
#[derive(Debug)]
pub struct AnalysisOutcome {
    /// The response document.
    pub value: Value,
    /// Records decoded from the upload.
    pub records: u64,
}

/// Streams `body` once and renders the classification document: metadata,
/// both class distributions, the joint table, the misprediction analysis and
/// the §5.4 advisor recommendations.
///
/// # Errors
///
/// Decode failures surface as 422s, transport failures as 408/500s, budget
/// exhaustion as 413s.
pub fn run_classify<R: Read>(
    body: R,
    format: BodyFormat,
    scheme: BinningScheme,
    budgets: Budgets,
) -> Result<AnalysisOutcome, ServeError> {
    let mut reader = UploadReader::new(body, format, budgets)?;
    let mut dense = DenseTraceStats::new();
    observe_all(&mut reader, &mut dense, budgets, |_| {})?;
    let (metadata, records) = reader.finish();
    let stats = dense.into_trace_stats();
    let profile = ProgramProfile::from_stats(&stats);
    let table = JointClassTable::from_profile(&profile, scheme);
    let value = MapBuilder::new()
        .field("metadata", metadata.to_value())
        .field("records", records)
        .field("conditional", stats.total_conditional())
        .field("static_branches", profile.static_count() as u64)
        .field("scheme", scheme.to_value())
        .field(
            "taken_distribution",
            ClassDistribution::from_profile(&profile, Metric::TakenRate, scheme).to_value(),
        )
        .field(
            "transition_distribution",
            ClassDistribution::from_profile(&profile, Metric::TransitionRate, scheme).to_value(),
        )
        .field("joint", table.to_value())
        .field(
            "analysis",
            ClassificationAnalysis::from_table(&table).to_value(),
        )
        .field(
            "advisor",
            Value::List(
                HybridAdvisor::new(scheme)
                    .recommend(&table)
                    .iter()
                    .map(recommendation_to_value)
                    .collect(),
            ),
        )
        .build();
    Ok(AnalysisOutcome { value, records })
}

/// Streams `body` once through the fused multi-history engine and renders
/// the sweep document: the full [`SweepResult`] plus the class × history
/// miss matrix for the requested metric. Per-history class aggregation fans
/// out across `pool`.
///
/// # Errors
///
/// Same taxonomy as [`run_classify`].
#[allow(clippy::too_many_arguments)]
pub fn run_sweep<R: Read>(
    body: R,
    format: BodyFormat,
    scheme: BinningScheme,
    metric: Metric,
    family: PredictorFamily,
    histories: &[u32],
    budgets: Budgets,
    pool: &WorkStealingPool,
) -> Result<AnalysisOutcome, ServeError> {
    let mut reader = UploadReader::new(body, format, budgets)?;
    let mut dense = DenseTraceStats::new();
    let mut fused = family.fused_paper(histories);
    let budget_hit = Cell::new(false);
    let results = SimEngine::new().run_fused_streamed(
        Observing {
            inner: &mut reader,
            stats: &mut dense,
            budgets,
            budget_hit: &budget_hit,
        },
        &mut fused,
    );
    let (metadata, records) = reader.finish();
    let results = match results {
        Ok(results) => results,
        Err(e) => {
            if budget_hit.get() {
                return Err(ServeError::BudgetExceeded {
                    what: "static branches",
                    limit: budgets.max_static_branches as u64,
                });
            }
            return Err(ServeError::from_trace(e));
        }
    };
    let stats = dense.into_trace_stats();
    let profile = ProgramProfile::from_stats(&stats);
    Ok(render_sweep(
        &metadata,
        records,
        stats.total_conditional(),
        &profile,
        family,
        histories,
        results,
        metric,
        scheme,
        pool,
    ))
}

/// A `/sweep` upload fully decoded, profiled and interned — the input the
/// batch tier ([`crate::batch::BatchScheduler`]) runs, as opposed to the
/// chunk stream [`run_sweep`] consumes in place.
#[derive(Debug)]
pub struct MaterializedSweep {
    /// The upload's trace metadata.
    pub metadata: TraceMetadata,
    /// The per-branch behaviour profile (classification input).
    pub profile: ProgramProfile,
    /// Conditional records observed.
    pub conditional: u64,
    /// Total records decoded.
    pub records: u64,
    /// The interned trace, shared with the batch scheduler.
    pub interned: Arc<InternedTrace>,
}

/// Decodes a sweep upload into a [`MaterializedSweep`], enforcing the same
/// per-chunk static-branch budget as the streaming path. Peak memory is the
/// whole record list — callers gate this path on the declared upload size.
///
/// # Errors
///
/// Same taxonomy as [`run_sweep`]: 422 on decode failures, 413 on budget
/// exhaustion.
pub fn materialize_sweep<R: Read>(
    body: R,
    format: BodyFormat,
    budgets: Budgets,
) -> Result<MaterializedSweep, ServeError> {
    let mut reader = UploadReader::new(body, format, budgets)?;
    let mut dense = DenseTraceStats::new();
    let mut collected: Vec<BranchRecord> = Vec::new();
    observe_all(&mut reader, &mut dense, budgets, |chunk| {
        collected.extend_from_slice(chunk.records());
    })?;
    let (metadata, records) = reader.finish();
    let stats = dense.into_trace_stats();
    let interned = Trace::from_records(metadata.clone(), collected).intern();
    Ok(MaterializedSweep {
        metadata,
        profile: ProgramProfile::from_stats(&stats),
        conditional: stats.total_conditional(),
        records,
        interned: Arc::new(interned),
    })
}

/// Renders the sweep document for a materialized upload whose simulation ran
/// through the batch tier. Bit-identical to [`run_sweep`] over the same
/// bytes: the engine results are pinned equal by the sim crate's
/// `batch_equivalence` suite and everything else here derives from the same
/// stats pass.
pub fn sweep_document(
    upload: &MaterializedSweep,
    family: PredictorFamily,
    histories: &[u32],
    results: Vec<RunResult>,
    metric: Metric,
    scheme: BinningScheme,
    pool: &WorkStealingPool,
) -> AnalysisOutcome {
    render_sweep(
        &upload.metadata,
        upload.records,
        upload.conditional,
        &upload.profile,
        family,
        histories,
        results,
        metric,
        scheme,
        pool,
    )
}

/// The shared tail of both sweep paths: per-history class aggregation
/// (fanned out across `pool`) and the response document.
#[allow(clippy::too_many_arguments)]
fn render_sweep(
    metadata: &TraceMetadata,
    records: u64,
    conditional: u64,
    profile: &ProgramProfile,
    family: PredictorFamily,
    histories: &[u32],
    results: Vec<RunResult>,
    metric: Metric,
    scheme: BinningScheme,
    pool: &WorkStealingPool,
) -> AnalysisOutcome {
    let parts: Vec<(u32, RunResult)> = histories.iter().copied().zip(results).collect();
    let sweep = SweepResult::from_parts(family, parts);
    // Per-history class aggregation is independent across histories — the
    // post-processing fan-out the work-stealing pool exists for.
    let rows: Vec<(u32, ClassMissRates)> =
        pool.run(sweep.runs().iter().collect(), |_, (history, misses)| {
            (
                *history,
                ClassMissRates::aggregate(profile, metric, scheme, misses),
            )
        });
    let matrix = ClassHistoryMatrix::from_runs(&rows);
    let value = MapBuilder::new()
        .field("metadata", metadata.to_value())
        .field("records", records)
        .field("conditional", conditional)
        .field("static_branches", profile.static_count() as u64)
        .field("family", family.to_value())
        .field(
            "histories",
            Value::List(
                histories
                    .iter()
                    .map(|&h| Value::from(u64::from(h)))
                    .collect(),
            ),
        )
        .field("scheme", scheme.to_value())
        .field("metric", metric.to_value())
        .field("sweep", sweep.to_value())
        .field("class_history", matrix.to_value())
        .build();
    AnalysisOutcome { value, records }
}

/// One upload's chunk decoder, chosen once from its [`BodyFormat`].
enum UploadReader<R: Read> {
    Btrt(FastBtrtReader<R>),
    Text(ChunkedTraceReader<TextRecordReader<R>>),
}

impl<R: Read> UploadReader<R> {
    /// Starts decoding `body`; a `BTRT` header is validated eagerly (422 on
    /// failure).
    fn new(body: R, format: BodyFormat, budgets: Budgets) -> Result<Self, ServeError> {
        Ok(match format {
            BodyFormat::Btrt => UploadReader::Btrt(
                FastBtrtReader::new(body, budgets.chunk_records).map_err(ServeError::from_trace)?,
            ),
            BodyFormat::Text => {
                UploadReader::Text(ChunkedTraceReader::text(body, budgets.chunk_records))
            }
        })
    }

    /// Returns the upload's metadata and the records decoded, dropping the
    /// decoder so its buffers are freed before the caller's aggregation and
    /// rendering peak. For text the metadata is the record reader's live
    /// view, so after draining it includes comment lines met between
    /// records, as the eager text reader does.
    fn finish(self) -> (TraceMetadata, u64) {
        match self {
            UploadReader::Btrt(reader) => (reader.metadata().clone(), reader.records_read()),
            UploadReader::Text(reader) => {
                (reader.source().metadata().clone(), reader.records_read())
            }
        }
    }
}

impl<R: Read> ChunkStream for UploadReader<R> {
    fn pull(&mut self) -> Option<btr_trace::Result<TraceChunk>> {
        match self {
            UploadReader::Btrt(reader) => reader.pull(),
            UploadReader::Text(reader) => reader.pull(),
        }
    }

    fn recycle(&mut self, chunk: TraceChunk) {
        match self {
            UploadReader::Btrt(reader) => reader.recycle(chunk),
            UploadReader::Text(reader) => reader.recycle(chunk),
        }
    }
}

/// Drains a chunk stream, folding every chunk's columns into the dense
/// statistics, handing it to `visit`, and enforcing the static-branch budget
/// after each chunk. Chunk buffers are recycled back to the stream, so
/// steady-state decoding allocates nothing.
fn observe_all<S: ChunkStream>(
    stream: &mut S,
    stats: &mut DenseTraceStats,
    budgets: Budgets,
    mut visit: impl FnMut(&TraceChunk),
) -> Result<(), ServeError> {
    while let Some(chunk) = stream.pull() {
        let chunk = chunk.map_err(ServeError::from_trace)?;
        stats.observe_chunk(&chunk);
        visit(&chunk);
        stream.recycle(chunk);
        if stats.static_conditional_count() > budgets.max_static_branches {
            return Err(ServeError::BudgetExceeded {
                what: "static branches",
                limit: budgets.max_static_branches as u64,
            });
        }
    }
    Ok(())
}

/// Tees a chunk stream into [`DenseTraceStats`] while the fused engine
/// consumes it, and injects an error the moment the static-branch budget is
/// crossed (flagged out-of-band so the caller can map it to a 413, not a
/// 422). Recycled chunks are forwarded to the wrapped stream, so the engine's
/// buffer reuse survives the tee.
struct Observing<'a, S> {
    inner: &'a mut S,
    stats: &'a mut DenseTraceStats,
    budgets: Budgets,
    budget_hit: &'a Cell<bool>,
}

impl<S: ChunkStream> ChunkStream for Observing<'_, S> {
    fn pull(&mut self) -> Option<btr_trace::Result<TraceChunk>> {
        let chunk = self.inner.pull()?;
        if let Ok(chunk) = &chunk {
            self.stats.observe_chunk(chunk);
            if self.stats.static_conditional_count() > self.budgets.max_static_branches {
                self.budget_hit.set(true);
                return Some(Err(btr_trace::TraceError::Io(std::io::Error::other(
                    "static-branch budget exceeded",
                ))));
            }
        }
        Some(chunk)
    }

    fn recycle(&mut self, chunk: TraceChunk) {
        self.inner.recycle(chunk);
    }
}

/// Lowers one advisor recommendation to the wire data model.
fn recommendation_to_value(rec: &ClassRecommendation) -> Value {
    MapBuilder::new()
        .field("taken_class", rec.taken_class.index() as u64)
        .field("transition_class", rec.transition_class.index() as u64)
        .field("style", style_label(rec.style))
        .field("history_bits", u64::from(rec.history_bits))
        .field("dynamic_percent", rec.dynamic_percent)
        .build()
}

/// The stable string form of a component style.
fn style_label(style: ComponentStyle) -> &'static str {
    match style {
        ComponentStyle::StaticTaken => "static-taken",
        ComponentStyle::StaticNotTaken => "static-not-taken",
        ComponentStyle::ShortHistoryPAs => "short-history-pas",
        ComponentStyle::LongHistoryPAs => "long-history-pas",
        ComponentStyle::LongHistoryGAs => "long-history-gas",
        ComponentStyle::NonPredictive => "non-predictive",
    }
}

/// A trivial metadata document for error responses (kept here so every
/// response body, success or failure, is rendered through the same writer).
pub fn error_body(err: &ServeError) -> Value {
    MapBuilder::new()
        .field("error", err.code())
        .field("status", u64::from(err.status()))
        .field("detail", err.to_string())
        .build()
}

/// Convenience re-export: metadata type the endpoint documents embed.
pub type Metadata = TraceMetadata;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_parsing_accepts_the_documented_forms() {
        assert_eq!(
            parse_scheme(None).expect("default scheme"),
            BinningScheme::Paper11
        );
        assert_eq!(
            parse_scheme(Some("uniform8")).expect("uniform scheme"),
            BinningScheme::Uniform(8)
        );
        assert_eq!(
            parse_scheme(Some("chang6")).expect("chang scheme"),
            BinningScheme::Chang6
        );
        assert_eq!(
            parse_metric(Some("taken")).expect("metric"),
            Metric::TakenRate
        );
        assert_eq!(
            parse_family(Some("gas")).expect("family"),
            PredictorFamily::GAs
        );
        assert_eq!(
            parse_histories(Some("8,0,4,0"), PredictorFamily::PAs).expect("histories"),
            vec![0, 4, 8]
        );
        assert_eq!(
            parse_histories(None, PredictorFamily::PAs).expect("default"),
            vec![0, 1, 2, 4, 8]
        );
    }

    #[test]
    fn parameter_parsing_rejects_junk_with_400s() {
        for err in [
            parse_scheme(Some("uniform1")).expect_err("too few classes"),
            parse_scheme(Some("uniform999")).expect_err("too many classes"),
            parse_scheme(Some("nonsense")).expect_err("unknown scheme"),
            parse_metric(Some("swing")).expect_err("unknown metric"),
            parse_family(Some("sas")).expect_err("unknown family"),
            parse_histories(Some("2,banana"), PredictorFamily::PAs).expect_err("junk entry"),
            parse_histories(Some("99"), PredictorFamily::PAs).expect_err("history too long"),
            BodyFormat::from_content_type(Some("application/json"))
                .map(|_| ())
                .expect_err("json uploads are not traces"),
        ] {
            assert_eq!(err.status(), 400, "{err}");
        }
    }

    /// A small mixed-kind trace with metadata, encoded as `BTRT` and as text;
    /// the text copy carries its seed comment *after* the first record.
    fn both_encodings() -> (usize, Vec<u8>, Vec<u8>) {
        use btr_trace::{BranchAddr, BranchKind, Outcome, TraceBuilder};
        let mut b = TraceBuilder::new("formats")
            .with_input_set("both")
            .with_seed(77);
        for i in 0..600u64 {
            let addr = BranchAddr::new(0x40_0000 + (i * 7 % 23) * 4);
            if i % 9 == 8 {
                b.push(
                    BranchRecord::new(addr, BranchKind::Call, Outcome::Taken)
                        .with_target(BranchAddr::new(0x50_0000 + i)),
                );
            } else {
                b.push(BranchRecord::conditional(
                    addr,
                    Outcome::from_bool(i % 3 != 0 || i % 5 == 0),
                ));
            }
        }
        let trace = b.build();
        let mut btrt = Vec::new();
        btr_trace::io::binary::write_trace(&mut btrt, &trace).expect("writing to a Vec");
        let mut text = Vec::new();
        btr_trace::io::text::write_trace(&mut text, &trace).expect("writing to a Vec");
        let text = String::from_utf8(text).expect("the text format is UTF-8");
        let mut lines: Vec<&str> = text.lines().collect();
        let seed = lines.remove(2);
        assert_eq!(seed, "# seed: 77");
        lines.insert(3, seed);
        (trace.len(), btrt, (lines.join("\n") + "\n").into_bytes())
    }

    #[test]
    fn btrt_and_text_uploads_render_identical_documents() {
        let (len, btrt, text) = both_encodings();
        let budgets = Budgets {
            chunk_records: 64,
            max_static_branches: 1 << 10,
        };
        let pool = WorkStealingPool::new(2);
        let scheme = BinningScheme::Paper11;
        let metric = Metric::TransitionRate;
        let family = PredictorFamily::PAs;
        let histories = [0, 2, 4];

        let classify = |body: &[u8], format| {
            run_classify(body, format, scheme, budgets).expect("valid upload")
        };
        let (from_btrt, from_text) = (
            classify(&btrt, BodyFormat::Btrt),
            classify(&text, BodyFormat::Text),
        );
        assert_eq!(from_btrt.records, len as u64);
        assert_eq!(from_text.records, len as u64);
        assert_eq!(from_btrt.value, from_text.value);

        let sweep = |body: &[u8], format| {
            run_sweep(
                body, format, scheme, metric, family, &histories, budgets, &pool,
            )
            .expect("valid upload")
            .value
        };
        let streamed = sweep(&btrt, BodyFormat::Btrt);
        assert_eq!(streamed, sweep(&text, BodyFormat::Text));

        let materialized = |body: &[u8], format| {
            let upload = materialize_sweep(body, format, budgets).expect("valid upload");
            let results =
                SimEngine::new().run_fused(&upload.interned, &mut family.fused_paper(&histories));
            sweep_document(&upload, family, &histories, results, metric, scheme, &pool).value
        };
        let batched = materialized(&btrt, BodyFormat::Btrt);
        assert_eq!(batched, materialized(&text, BodyFormat::Text));
        assert_eq!(batched, streamed);
    }

    #[test]
    fn scheme_params_roundtrip() {
        for scheme in [
            BinningScheme::Paper11,
            BinningScheme::Chang6,
            BinningScheme::Uniform(5),
        ] {
            assert_eq!(
                parse_scheme(Some(&scheme_param(scheme))).expect("roundtrip"),
                scheme
            );
        }
    }
}
