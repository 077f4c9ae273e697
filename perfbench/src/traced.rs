//! The traced run: per-layer metrics.
//!
//! Each workload's inputs are replayed in-process through the same public
//! library calls its surface makes, in the surface's order, with a span
//! around each call (see [`crate::spans`]). The replay runs twice over the
//! same inputs, first with spans off and then on; the difference is the
//! tracing overhead. Before that, the real program serves the same inputs
//! untraced, which gives `unattributed`: the untraced end-to-end time minus
//! the time some layer span covers in the traced replay.
//!
//! Serve metrics are means per request (`.ms` is self time); batch metrics
//! are totals per run. Server and client counters are totals of the
//! untraced window.

use crate::artifacts;
use crate::batch::{self, ShardInput, SHARD_GROUP, SHARD_HISTORIES, SHARD_WINDOWS, SHARD_WORKERS};
use crate::inputs::{Replays, Step};
use crate::report::Outcome;
use crate::serve::{self, ClientCounts, Daemon, Endpoint, Pool, Sample, CONNECTIONS};
use crate::spans::{self, span, Recorded};
use crate::stats::{mean, median};
use crate::Args;
use btr_core::advisor::{ClassRecommendation, ComponentStyle, HybridAdvisor};
use btr_core::analysis::{ClassHistoryMatrix, ClassMissRates, ClassificationAnalysis};
use btr_core::class::BinningScheme;
use btr_core::distribution::{ClassDistribution, Metric};
use btr_core::joint::JointClassTable;
use btr_core::profile::ProgramProfile;
use btr_serve::cache::{CacheKey, ResponseCache};
use btr_serve::client;
use btr_serve::digest::DigestReader;
use btr_serve::http::{LimitedReader, Request, Response};
use btr_serve::ServerConfig;
use btr_shard::{Manifest, OutDir, SweepSpec, UnitSpec};
use btr_sim::config::{PredictorFamily, PredictorKind, WarmupWindow};
use btr_sim::engine::{result_from_dense, BatchLane, RunResult, SimEngine};
use btr_sim::experiments::{ExperimentContext, SuiteData};
use btr_sim::runner::SuiteRunner;
use btr_sim::sweep::SweepResult;
use btr_trace::{
    read_interned_btrt, BranchRecord, ChunkStream, DenseTraceStats, FastBtrtReader, Trace,
};
use btr_wire::{MapBuilder, Value, Wire};
use std::collections::BTreeMap;
use std::io::{self, BufReader, Read};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use stealpool::WorkStealingPool;

/// Every per-layer metric, in report order, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.http.ms", "ms"),
    ("serve.digest.ms", "ms"),
    ("serve.digest.bytes", "bytes"),
    ("serve.cache.ms", "ms"),
    ("serve.cache.lookups", "count"),
    ("serve.cache.hit_share", "fraction"),
    ("trace.decode.ms", "ms"),
    ("trace.decode.records", "records"),
    ("trace.decode.bytes", "bytes"),
    ("trace.stats.ms", "ms"),
    ("trace.intern.ms", "ms"),
    ("core.profile.ms", "ms"),
    ("core.profile.static_branches", "count"),
    ("core.classify.ms", "ms"),
    ("sim.replay.ms", "ms"),
    ("sim.replay.points", "points"),
    ("serve.aggregate.ms", "ms"),
    ("wire.render.ms", "ms"),
    ("wire.render.bytes", "bytes"),
    ("shard.checkpoint.ms", "ms"),
    ("shard.checkpoint.bytes", "bytes"),
    ("shard.validate.ms", "ms"),
    ("shard.merge.ms", "ms"),
    ("shard.units", "count"),
    ("shard.attempts", "count"),
    ("workloads.generate.ms", "ms"),
    ("workloads.generate.records", "records"),
    ("sim.experiments.figures.ms", "ms"),
    ("sim.experiments.ablation_hybrid.ms", "ms"),
    ("sim.experiments.ablation_confidence.ms", "ms"),
    ("serve.admission.rejected", "count"),
    ("serve.batch.lanes", "count"),
    ("serve.metrics.requests", "count"),
    ("serve.metrics.cache_hits", "count"),
    ("serve.metrics.coalesced_hits", "count"),
    ("serve.metrics.records_decoded", "records"),
    ("serve.client.requests", "count"),
    ("serve.client.cache_hits", "count"),
    ("serve.client.coalesced_hits", "count"),
    ("serve.client.batched_lanes", "count"),
    ("serve.client.records_decoded", "records"),
    ("serve.metrics.drift", "count"),
    ("unattributed.ms", "ms"),
    ("unattributed.share", "fraction"),
    ("tracing.overhead_share", "fraction"),
];

/// The root span of one request (serve) or one run (batch).
const ROOT_REQUEST: &str = "request";
const ROOT_RUN: &str = "run";

pub fn measure(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "classify" => serve_traced(args, Endpoint::Classify),
        "sweep" => serve_traced(args, Endpoint::Sweep),
        "shard" => shard_traced(args),
        _ => reproduce_traced(args),
    }
}

/// What every traced workload reports besides its own counters.
struct Breakdown {
    recorded: Recorded,
    root: &'static str,
    /// Operations the traced replays covered: requests, or whole runs.
    ops: f64,
    untraced_ms: f64,
    plain_s: f64,
    traced_s: f64,
    extra: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
}

impl Breakdown {
    fn outcome(self, workload: &str) -> Outcome {
        let mut values = self.extra;
        let self_ns = self.recorded.self_ns();
        for (name, ns) in &self_ns {
            values.insert(format!("{name}.ms"), *ns as f64 / 1e6 / self.ops);
        }
        for (name, _) in PER_LAYER {
            let n = self.recorded.counter(name);
            if n != 0.0 {
                values.insert(name.to_string(), n / self.ops);
            }
        }
        let lookups = self.recorded.counter("serve.cache.lookups");
        if lookups > 0.0 {
            let hits = self.recorded.counter("serve.cache.hits");
            values.insert("serve.cache.hit_share".into(), hits / lookups);
        }
        let root_ns = self.recorded.total_ns(self.root) as f64;
        let root_self_ns = self_ns.get(self.root).copied().unwrap_or(0) as f64;
        let covered_ms = (root_ns - root_self_ns) / 1e6 / self.ops;
        let unattributed_ms = self.untraced_ms - covered_ms;
        values.insert("unattributed.ms".into(), unattributed_ms);
        values.insert(
            "unattributed.share".into(),
            unattributed_ms / self.untraced_ms,
        );
        let overhead = (self.traced_s - self.plain_s) / self.plain_s;
        values.insert("tracing.overhead_share".into(), overhead);

        let path = Path::new(".perfbench").join(format!("spans-{workload}.jsonl"));
        if let Err(e) = self.recorded.write_jsonl(&path) {
            eprintln!("writing {}: {e}", path.display());
        }
        eprintln!(
            "untraced {:.4} ms per op; layer spans cover {covered_ms:.4} ms; replay {:.3} s plain, {:.3} s traced",
            self.untraced_ms, self.plain_s, self.traced_s
        );
        let root = self.root;
        let layers_of = |per_name: &BTreeMap<&'static str, u64>| -> BTreeMap<&'static str, u64> {
            per_name
                .iter()
                .filter(|(name, _)| **name != root)
                .map(|(name, ns)| (*name, *ns))
                .collect()
        };
        print_layers("every operation", &layers_of(&self_ns), self.ops);
        if root == ROOT_REQUEST {
            // A serve workload's large uploads: the requests with the most
            // layer time per replay.
            let by_op = self.recorded.self_ns_by_op();
            let replays = self.recorded.count_by_op(root);
            let replays_of = |op: &u64| replays.get(op).copied().unwrap_or(0);
            let mut ranked: Vec<(u64, u64)> = by_op
                .iter()
                .map(|(op, per_name)| {
                    let ns: u64 = layers_of(per_name).values().sum();
                    (ns / replays_of(op).max(1), *op)
                })
                .collect();
            ranked.sort_unstable_by(|a, b| b.cmp(a));
            let keep =
                ((ranked.len() as f64 * TOP_SHARE).round() as usize).clamp(1, ranked.len().max(1));
            let (mut top, mut instances) = (BTreeMap::new(), 0);
            for (_, op) in ranked.iter().take(keep) {
                instances += replays_of(op);
                for (name, ns) in layers_of(&by_op[op]) {
                    *top.entry(name).or_insert(0) += ns;
                }
            }
            let title = format!("largest tenth of requests ({keep} of {})", ranked.len());
            print_layers(&title, &top, instances as f64);
        }
        Outcome {
            correct: self.failed == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics: PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
                .collect(),
        }
    }
}

/// The share of requests, largest first, whose layers are also printed apart.
const TOP_SHARE: f64 = 0.1;

/// Prints each layer's self time per operation, and its share of the time
/// the layer spans cover, on standard error.
fn print_layers(title: &str, layers: &BTreeMap<&'static str, u64>, ops: f64) {
    let covered: u64 = layers.values().sum();
    eprintln!(
        "{title}: layer spans cover {:.4} ms per op",
        covered as f64 / 1e6 / ops
    );
    let mut rows: Vec<_> = layers.iter().collect();
    rows.sort_by_key(|(_, ns)| std::cmp::Reverse(**ns));
    for (name, ns) in rows {
        eprintln!(
            "  {name:<40} {:>12.4} ms per op {:>6.1}%",
            *ns as f64 / 1e6 / ops,
            100.0 * *ns as f64 / covered.max(1) as f64
        );
    }
}

/// The in-process replays of a traced run.
struct Alternated {
    /// Total seconds with spans off, and with spans on.
    plain_s: f64,
    traced_s: f64,
    failed: u64,
    recorded: Recorded,
}

/// Runs `replay` `rounds` times with spans off and `rounds` times with spans
/// on, alternating, so drift in the machine's speed falls on both sides.
/// `replay(traced)` returns its elapsed seconds, its failures and its spans.
fn alternate(
    rounds: usize,
    mut replay: impl FnMut(bool) -> Result<(f64, u64, Recorded), String>,
) -> Result<Alternated, String> {
    let mut out = Alternated {
        plain_s: 0.0,
        traced_s: 0.0,
        failed: 0,
        recorded: Recorded::default(),
    };
    for _ in 0..rounds {
        for traced in [false, true] {
            let (elapsed, failed, recorded) = replay(traced)?;
            if traced {
                out.traced_s += elapsed;
            } else {
                out.plain_s += elapsed;
            }
            out.failed += failed;
            out.recorded.absorb(recorded);
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------- serve ----

/// The in-process stand-in for one `btrd`: its cache and analysis pool, and
/// the request path of `server.rs` with a span around each library call.
struct Replica<'a> {
    pool: &'a Pool,
    cache: ResponseCache,
    analysis: WorkStealingPool,
    replays: Replays,
    chunk_records: usize,
}

/// Spans every read through the body digest.
struct Digesting<R>(DigestReader<R>);

impl<R: Read> Read for Digesting<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = span("serve.digest", || self.0.read(buf))?;
        spans::count("serve.digest.bytes", n as f64);
        Ok(n)
    }
}

impl<'a> Replica<'a> {
    fn new(pool: &'a Pool) -> Self {
        let config = ServerConfig::default();
        Replica {
            pool,
            cache: ResponseCache::new(config.cache_entries),
            analysis: WorkStealingPool::new(config.analysis_threads),
            replays: Replays::default(),
            chunk_records: config.chunk_records,
        }
    }

    /// Serves one step and checks the response bytes it would write.
    fn handle(&self, step: &Step) -> bool {
        let (body, replay) = self.replays.resolve(step);
        let target = &self.pool.variant_of(body).target;
        let (digest_header, payload): (String, &[u8]) = if replay {
            (
                format!("X-Btr-Digest: {}\r\n", self.pool.digests[body]),
                &[],
            )
        } else {
            (String::new(), &self.pool.bodies[body].bytes)
        };
        let head = format!(
            "POST {target} HTTP/1.1\r\nHost: btrd\r\nContent-Length: {}\r\n{digest_header}Connection: close\r\n\r\n",
            payload.len()
        );
        let mut wire = Vec::new();
        let served = span(ROOT_REQUEST, || {
            self.serve(head.as_bytes(), payload, body, &mut wire)
        });
        let ok = served.is_ok()
            && client::parse_response(&wire).is_ok_and(|resp| self.pool.check(body, replay, &resp));
        if ok && !replay {
            self.replays.answered(body);
        }
        ok
    }

    /// `server.rs`'s `handle_connection` and `analyze`, minus the socket.
    fn serve(
        &self,
        head: &[u8],
        payload: &[u8],
        body: usize,
        wire: &mut Vec<u8>,
    ) -> Result<(), String> {
        let mut conn = BufReader::new(head.chain(payload));
        let request =
            span("serve.http", || Request::parse(&mut conn)).map_err(|e| e.to_string())?;
        let variant = self.pool.variant_of(body);
        let params = variant.target.clone();
        let response = if let Some(digest) = request.header("x-btr-digest") {
            let key = CacheKey {
                digest: digest.to_ascii_lowercase(),
                params,
            };
            spans::count("serve.cache.lookups", 1.0);
            let cached = span("serve.cache", || self.cache.get(&key));
            if cached.is_some() {
                spans::count("serve.cache.hits", 1.0);
            }
            let cached = cached.ok_or("replay missed the cache")?;
            (*cached).clone().with_header("X-Btr-Cache", "hit")
        } else {
            let declared = request.content_length().map_err(|e| e.to_string())?;
            let mut upload = Digesting(DigestReader::new(LimitedReader::new(&mut conn, declared)));
            let json = match &variant.sweep {
                None => self.classify(&mut upload)?,
                Some((family, histories)) => self.sweep(&mut upload, *family, histories)?,
            };
            io::copy(&mut upload, &mut io::sink()).map_err(|e| e.to_string())?;
            spans::count("trace.decode.bytes", declared as f64);
            let digest = upload.0.digest().hex();
            let base = Response::json(200, json).with_header("X-Btr-Digest", digest.clone());
            span("serve.cache", || {
                self.cache.insert(CacheKey { digest, params }, base.clone())
            });
            base.with_header("X-Btr-Cache", "store")
        };
        span("serve.http", || response.write_to(wire)).map_err(|e| e.to_string())
    }

    /// `analysis::run_classify`: one streamed pass, then the document.
    fn classify<R: Read>(&self, upload: &mut R) -> Result<String, String> {
        let mut reader = span("trace.decode", || {
            FastBtrtReader::new(upload, self.chunk_records)
        })
        .map_err(|e| e.to_string())?;
        let metadata = reader.metadata().clone();
        let mut dense = DenseTraceStats::new();
        let mut records = 0u64;
        while let Some(chunk) = span("trace.decode", || reader.pull()) {
            let chunk = chunk.map_err(|e| e.to_string())?;
            records += chunk.len() as u64;
            span("trace.stats", || dense.observe_chunk(&chunk));
            reader.recycle(chunk);
        }
        spans::count("trace.decode.records", records as f64);
        let stats = span("trace.stats", || dense.into_trace_stats());
        let profile = span("core.profile", || ProgramProfile::from_stats(&stats));
        spans::count(
            "core.profile.static_branches",
            profile.static_count() as f64,
        );
        let scheme = BinningScheme::Paper11;
        let (table, taken, transition, analysis, advice) = span("core.classify", || {
            let table = JointClassTable::from_profile(&profile, scheme);
            let taken = ClassDistribution::from_profile(&profile, Metric::TakenRate, scheme);
            let transition =
                ClassDistribution::from_profile(&profile, Metric::TransitionRate, scheme);
            let analysis = ClassificationAnalysis::from_table(&table);
            let advice = HybridAdvisor::new(scheme).recommend(&table);
            (table, taken, transition, analysis, advice)
        });
        render(|| {
            MapBuilder::new()
                .field("metadata", metadata.to_value())
                .field("records", records)
                .field("conditional", stats.total_conditional())
                .field("static_branches", profile.static_count() as u64)
                .field("scheme", scheme.to_value())
                .field("taken_distribution", taken.to_value())
                .field("transition_distribution", transition.to_value())
                .field("joint", table.to_value())
                .field("analysis", analysis.to_value())
                .field(
                    "advisor",
                    Value::List(advice.iter().map(recommendation_to_value).collect()),
                )
                .build()
        })
    }

    /// `analysis::materialize_sweep`, one batch-tier lane and
    /// `analysis::sweep_document`: the path btrd takes for uploads under its
    /// 16 MiB batch threshold (every upload of the pool).
    fn sweep<R: Read>(
        &self,
        upload: &mut R,
        family: PredictorFamily,
        histories: &[u32],
    ) -> Result<String, String> {
        let mut reader = span("trace.decode", || {
            FastBtrtReader::new(&mut *upload, self.chunk_records)
        })
        .map_err(|e| e.to_string())?;
        let metadata = reader.metadata().clone();
        let mut dense = DenseTraceStats::new();
        let mut collected: Vec<BranchRecord> = Vec::new();
        let mut records = 0u64;
        while let Some(chunk) = span("trace.decode", || reader.pull()) {
            let chunk = chunk.map_err(|e| e.to_string())?;
            records += chunk.len() as u64;
            span("trace.stats", || dense.observe_chunk(&chunk));
            span("trace.intern", || {
                collected.extend_from_slice(chunk.records())
            });
            reader.recycle(chunk);
        }
        drop(reader);
        // btrd drains the tail before batch submission: the digest is the
        // batch grouping key.
        io::copy(upload, &mut io::sink()).map_err(|e| e.to_string())?;
        spans::count("trace.decode.records", records as f64);
        let stats = span("trace.stats", || dense.into_trace_stats());
        let interned = span("trace.intern", || {
            Trace::from_records(metadata.clone(), collected).intern()
        });
        let profile = span("core.profile", || ProgramProfile::from_stats(&stats));
        spans::count(
            "core.profile.static_branches",
            profile.static_count() as f64,
        );
        let results: Vec<RunResult> = span("sim.replay", || {
            let lane = BatchLane::new(0, family.fused_paper(histories));
            SimEngine::new().run_batch(&[&interned], vec![lane]).pop()
        })
        .ok_or("batch returned no lane")?;
        spans::count(
            "sim.replay.points",
            (interned.len() * histories.len()) as f64,
        );
        let (scheme, metric) = (BinningScheme::Paper11, Metric::TransitionRate);
        let (sweep, matrix) = span("serve.aggregate", || {
            let parts: Vec<(u32, RunResult)> = histories.iter().copied().zip(results).collect();
            let sweep = SweepResult::from_parts(family, parts);
            let rows: Vec<(u32, ClassMissRates)> =
                self.analysis
                    .run(sweep.runs().iter().collect(), |_, (history, misses)| {
                        (
                            *history,
                            ClassMissRates::aggregate(&profile, metric, scheme, misses),
                        )
                    });
            (sweep, ClassHistoryMatrix::from_runs(&rows))
        });
        render(|| {
            MapBuilder::new()
                .field("metadata", metadata.to_value())
                .field("records", records)
                .field("conditional", stats.total_conditional())
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
                .build()
        })
    }

    /// Replays `steps` on `CONNECTIONS` threads; returns the elapsed time,
    /// the failures and (with `traced`) the spans.
    fn replay(&self, steps: &[Step], traced: bool) -> (f64, u64, Recorded) {
        let cursor = AtomicUsize::new(0);
        let started = Instant::now();
        let parts: Vec<(u64, Recorded)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..CONNECTIONS)
                .map(|t| {
                    let cursor = &cursor;
                    s.spawn(move || {
                        if traced {
                            spans::begin(t as u32, None);
                        }
                        let mut failed = 0;
                        loop {
                            let i = cursor.fetch_add(1, Ordering::SeqCst);
                            let Some(step) = steps.get(i) else { break };
                            spans::set_op(i as u64);
                            failed += u64::from(!self.handle(step));
                        }
                        (
                            failed,
                            if traced {
                                spans::end()
                            } else {
                                Recorded::default()
                            },
                        )
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("replay thread"))
                .collect()
        });
        let elapsed = started.elapsed().as_secs_f64();
        let mut recorded = Recorded::default();
        let mut failed = 0;
        for (f, r) in parts {
            failed += f;
            recorded.absorb(r);
        }
        (elapsed, failed, recorded)
    }
}

/// Builds a response document and encodes it as JSON, in one render span.
fn render(build: impl FnOnce() -> Value) -> Result<String, String> {
    let json = span("wire.render", || build().to_json()).map_err(|e| e.to_string())?;
    spans::count("wire.render.bytes", json.len() as f64);
    Ok(json)
}

/// The advisor row of a classify document, as `analysis.rs` lowers it.
fn recommendation_to_value(rec: &ClassRecommendation) -> Value {
    let style = match rec.style {
        ComponentStyle::StaticTaken => "static-taken",
        ComponentStyle::StaticNotTaken => "static-not-taken",
        ComponentStyle::ShortHistoryPAs => "short-history-pas",
        ComponentStyle::LongHistoryPAs => "long-history-pas",
        ComponentStyle::LongHistoryGAs => "long-history-gas",
        ComponentStyle::NonPredictive => "non-predictive",
    };
    MapBuilder::new()
        .field("taken_class", rec.taken_class.index() as u64)
        .field("transition_class", rec.transition_class.index() as u64)
        .field("style", style)
        .field("history_bits", u64::from(rec.history_bits))
        .field("dynamic_percent", rec.dynamic_percent)
        .build()
}

fn serve_traced(args: &Args, endpoint: Endpoint) -> Result<Outcome, String> {
    let pool = Pool::build(args.seed, endpoint);
    let (steps, segment_len) = pool.steps(args.seed, args.seconds);

    // Untraced: the real daemon serves whole segments for a fifth of the
    // time (at least two), after one untimed segment; the in-process
    // replays of the same requests take most of the rest.
    let (mut daemon, _) = Daemon::launch(&args.bin_dir)?;
    let (warm_steps, rest) = steps.split_at(segment_len);
    let warm = daemon.closed_loop(&pool, warm_steps);
    let measured = serve::segments(
        &mut daemon,
        &pool,
        (rest, segment_len),
        (args.seconds as f64 / 5.0, 2),
        || Ok(()),
    )?;
    let window = &rest[..measured.len() * segment_len];
    let timed: Vec<Sample> = measured
        .into_iter()
        .flat_map(|(samples, _)| samples)
        .collect();
    let served: Vec<&Sample> = warm.iter().chain(&timed).collect();
    let counts = ClientCounts::of(&daemon, &pool, &served);
    let scraped = daemon.metrics()?;
    daemon.stop();
    eprintln!("{}", counts.describe(&scraped));
    let latencies: Vec<f64> = timed.iter().map(|s| s.latency_s * 1e3).collect();

    // The same requests in-process, without and with spans.
    let replays = alternate(2, |traced| Ok(Replica::new(&pool).replay(window, traced)))?;

    let rejected = timed.iter().filter(|s| s.status == 503).count();
    let extra: BTreeMap<String, f64> = [
        ("serve.admission.rejected", rejected as u64),
        ("serve.batch.lanes", scraped.batched_lanes),
        ("serve.metrics.requests", scraped.requests),
        ("serve.metrics.cache_hits", scraped.cache_hits),
        ("serve.metrics.coalesced_hits", scraped.coalesced_hits),
        ("serve.metrics.records_decoded", scraped.records_decoded),
        ("serve.client.requests", counts.requests),
        ("serve.client.cache_hits", counts.cache_hits),
        ("serve.client.coalesced_hits", counts.coalesced_hits),
        ("serve.client.batched_lanes", counts.batched_lanes),
        ("serve.client.records_decoded", counts.records_decoded),
        ("serve.metrics.drift", counts.drift(&scraped)),
    ]
    .into_iter()
    .map(|(name, n)| (name.to_string(), n as f64))
    .collect();
    let real_failed = served.iter().filter(|s| !s.ok).count() as u64;
    Ok(Breakdown {
        recorded: replays.recorded,
        root: ROOT_REQUEST,
        ops: 2.0 * window.len() as f64,
        untraced_ms: mean(&latencies),
        plain_s: replays.plain_s,
        traced_s: replays.traced_s,
        extra,
        attempted: (served.len() + 4 * window.len()) as u64,
        failed: real_failed + replays.failed,
    }
    .outcome(&args.workload))
}

// ---------------------------------------------------------------- shard ----

/// `btr-shard run` in-process: the coordinator's set-up, two worker threads
/// in place of the two worker processes, each unit executed, committed and
/// validated as the worker and coordinator do, then the final merge.
/// Returns whether `final.btrw` matched, the elapsed seconds and the worker
/// threads' spans.
fn shard_replay(
    input: &ShardInput,
    out: &Path,
    traced: bool,
) -> Result<(bool, f64, Recorded), String> {
    let _ = std::fs::remove_dir_all(out);
    let started = Instant::now();
    let spec = SweepSpec {
        family: PredictorFamily::PAs,
        histories: SHARD_HISTORIES.collect(),
        // `--benchmarks gcc` names the first gcc row of the suite.
        benchmarks: btr_workloads::Benchmark::suite()
            .into_iter()
            .filter(|b| b.name == "gcc")
            .take(1)
            .collect(),
        config: btr_workloads::SuiteConfig::default(),
        history_group: SHARD_GROUP,
        window_count: SHARD_WINDOWS,
        trace_file: Some(input.capture.display().to_string()),
    };
    let dir = OutDir::new(out);
    let mut worker_spans = Recorded::default();
    let bytes = span(ROOT_RUN, || -> Result<Vec<u8>, String> {
        let units = spec.plan_units().map_err(|e| e.to_string())?;
        let manifest = span(
            "shard.checkpoint",
            || -> btr_shard::Result<Mutex<Manifest>> {
                dir.init()?;
                dir.write_unit_specs(&units)?;
                let manifest = Manifest::new(spec.clone());
                manifest.save(&dir)?;
                Ok(Mutex::new(manifest))
            },
        )
        .map_err(|e| e.to_string())?;
        let cursor = AtomicUsize::new(0);
        let root = spans::current();
        let results: Vec<(Result<(), String>, Recorded)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..SHARD_WORKERS)
                .map(|t| {
                    let (cursor, units, dir, manifest) = (&cursor, &units, &dir, &manifest);
                    s.spawn(move || {
                        if traced {
                            spans::begin(t as u32 + 1, root);
                        }
                        let mut outcome = Ok(());
                        while let Some(unit) = units.get(cursor.fetch_add(1, Ordering::SeqCst)) {
                            spans::set_op(u64::from(unit.unit_id));
                            if let Err(e) = execute_unit(unit, dir, manifest) {
                                outcome = Err(e);
                            }
                        }
                        (
                            outcome,
                            if traced {
                                spans::end()
                            } else {
                                Recorded::default()
                            },
                        )
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("shard worker thread"))
                .collect()
        });
        for (outcome, recorded) in results {
            outcome?;
            worker_spans.absorb(recorded);
        }
        let manifest = manifest.into_inner().expect("no worker panicked");
        span("shard.merge", || merge(&dir, &manifest, &units)).map_err(|e| e.to_string())
    })?;
    Ok((
        bytes == input.expected,
        started.elapsed().as_secs_f64(),
        worker_spans,
    ))
}

/// `UnitSpec::execute` (the windowed path), `worker::execute_and_commit`,
/// then the coordinator's settle: validate the checkpoint and record it.
fn execute_unit(unit: &UnitSpec, dir: &OutDir, manifest: &Mutex<Manifest>) -> Result<(), String> {
    let path = unit.trace_file.as_deref().ok_or("unit has no trace file")?;
    let (_, interned) =
        span("trace.decode", || read_interned_btrt(path)).map_err(|e| e.to_string())?;
    spans::count("trace.decode.records", interned.len() as f64);
    spans::count(
        "trace.decode.bytes",
        std::fs::metadata(path).map_or(0.0, |m| m.len() as f64),
    );
    let (start, end) =
        UnitSpec::window_bounds(interned.len(), unit.window_index, unit.window_count);
    let result = span("sim.replay", || {
        let engine = SimEngine::new();
        let parts: Vec<(u32, RunResult)> = unit
            .histories
            .iter()
            .map(|&history| {
                let kind = match unit.family {
                    PredictorFamily::PAs => PredictorKind::PAsPaper { history },
                    PredictorFamily::GAs => PredictorKind::GAsPaper { history },
                };
                let mut predictor = kind.build_dispatch();
                let dense = engine.run_window_dispatch(
                    &interned,
                    &mut predictor,
                    start,
                    end,
                    WarmupWindow::FullPrefix,
                );
                (history, result_from_dense(dense, interned.addrs()))
            })
            .collect();
        SweepResult::from_parts(unit.family, parts)
    })
    .with_source(unit.source_label());
    // A full-prefix window replays every record before its end.
    spans::count("sim.replay.points", (end * unit.histories.len()) as f64);
    span("shard.checkpoint", || {
        dir.commit_partial(unit, &result, unit.unit_id)
    })
    .map_err(|e| e.to_string())?;
    spans::count(
        "shard.checkpoint.bytes",
        std::fs::metadata(dir.partial_path(unit.unit_id)).map_or(0.0, |m| m.len() as f64),
    );
    span("shard.validate", || dir.load_partial(unit)).map_err(|e| e.to_string())?;
    let mut manifest = manifest.lock().expect("no worker panicked");
    manifest.completed.insert(unit.unit_id);
    span("shard.checkpoint", || manifest.save(dir)).map_err(|e| e.to_string())
}

/// `Coordinator::merge`: fold the validated checkpoints per history group,
/// reassemble, encode and write `final.btrw`.
fn merge(dir: &OutDir, manifest: &Manifest, units: &[UnitSpec]) -> btr_shard::Result<Vec<u8>> {
    let spec = &manifest.spec;
    let per_group = spec.benchmarks.len() * spec.window_count as usize;
    let mut parts = Vec::new();
    for chunk in units.chunks(per_group.max(1)) {
        let mut merged: Option<SweepResult> = None;
        for unit in chunk {
            let partial = span("shard.validate", || dir.load_partial(unit))?;
            match &mut merged {
                None => merged = Some(partial),
                Some(m) => m.merge(&partial),
            }
        }
        if let Some(m) = merged {
            parts.extend(m.into_parts().1);
        }
    }
    let final_result = SweepResult::from_parts(spec.family, parts);
    let bytes = span("wire.render", || final_result.to_btrw());
    spans::count("wire.render.bytes", bytes.len() as f64);
    span("shard.checkpoint", || {
        dir.write_atomic(&dir.final_path(), &bytes, 0)
    })?;
    Ok(bytes)
}

fn shard_traced(args: &Args) -> Result<Outcome, String> {
    let input = batch::shard_input(&args.work, args.seed)?;
    let out = args.work.join("shard-out");
    let (mut walls, mut attempts, mut units) = (Vec::new(), Vec::new(), 0.0);
    let (mut attempted, mut failed) = (0, 0);
    for _ in 0..3 {
        let (run, unit_count, run_failed, workers) =
            batch::shard_run(&args.bin_dir, &out, &input, true)?;
        attempted += unit_count;
        failed += run_failed;
        units = unit_count as f64;
        walls.push(run.wall.as_secs_f64() * 1e3);
        attempts.push(workers as f64);
    }
    const ROUNDS: usize = 3;
    let replays = alternate(ROUNDS, |traced| {
        if traced {
            spans::begin(0, None);
        }
        let replayed = shard_replay(&input, &out, traced);
        let mut recorded = if traced {
            spans::end()
        } else {
            Recorded::default()
        };
        let (ok, elapsed, workers) = replayed?;
        recorded.absorb(workers);
        Ok((elapsed, u64::from(!ok), recorded))
    })?;
    let _ = std::fs::remove_dir_all(&out);
    let extra = BTreeMap::from([
        ("shard.units".to_string(), units),
        ("shard.attempts".to_string(), median(&mut attempts)),
    ]);
    Ok(Breakdown {
        recorded: replays.recorded,
        root: ROOT_RUN,
        ops: ROUNDS as f64,
        untraced_ms: median(&mut walls),
        plain_s: replays.plain_s,
        traced_s: replays.traced_s,
        extra,
        attempted: attempted + 2 * ROUNDS as u64,
        failed: failed + replays.failed,
    }
    .outcome(&args.workload))
}

// ------------------------------------------------------------ reproduce ----

/// The span an experiment's own computation is filed under.
fn experiment_span(name: &str) -> &'static str {
    match name {
        "ablation-hybrid" => "sim.experiments.ablation_hybrid",
        "ablation-confidence" => "sim.experiments.ablation_confidence",
        _ => "sim.experiments.figures",
    }
}

/// `reproduce all --out-dir`: `ExperimentContext::prepare` step by step,
/// then every experiment and its three artifacts. Returns the elapsed
/// seconds.
fn reproduce_replay(out: &Path) -> Result<f64, String> {
    let _ = std::fs::remove_dir_all(out);
    std::fs::create_dir_all(out).map_err(|e| e.to_string())?;
    let started = Instant::now();
    let scale: f64 = batch::REPRODUCE_SCALE
        .parse()
        .expect("scale constant parses");
    span(ROOT_RUN, || -> Result<(), String> {
        let ctx = ExperimentContext::paper().with_scale(scale);
        let runner = SuiteRunner::new(ctx.suite)
            .with_benchmarks(ctx.benchmarks.clone())
            .with_threads(ctx.threads);
        let traces = span("workloads.generate", || runner.generate_traces());
        spans::count(
            "workloads.generate.records",
            traces.iter().map(|t| t.len() as f64).sum(),
        );
        let profile = span("core.profile", || SuiteRunner::merged_profile(&traces));
        spans::count(
            "core.profile.static_branches",
            profile.static_count() as f64,
        );
        let interned = span("trace.intern", || runner.intern_traces(&traces));
        let pas = span("sim.replay", || {
            runner.run_sweep_interned(&interned, PredictorFamily::PAs, &ctx.histories)
        });
        let gas = span("sim.replay", || {
            runner.run_sweep_interned(&interned, PredictorFamily::GAs, &ctx.histories)
        });
        let records: usize = interned.iter().map(|t| t.len()).sum();
        spans::count(
            "sim.replay.points",
            (2 * records * ctx.histories.len()) as f64,
        );
        let data = SuiteData {
            traces,
            profile,
            pas,
            gas,
        };
        for name in artifacts::ALL_EXPERIMENTS {
            let (ascii, value) = span(experiment_span(name), || {
                artifacts::run_experiment(name, &ctx, &data)
            })
            .ok_or("unknown experiment")?;
            span("wire.render", || {
                artifacts::write_artifacts(out, name, &ascii, &value)
            })?;
        }
        Ok(())
    })?;
    let elapsed = started.elapsed().as_secs_f64();
    let written: f64 = batch::artifacts(out).values().map(|b| b.len() as f64).sum();
    spans::count("wire.render.bytes", written);
    Ok(elapsed)
}

fn reproduce_traced(args: &Args) -> Result<Outcome, String> {
    let real = args.work.join("reproduce-out");
    let (mut walls, mut attempted, mut failed) = (Vec::new(), 0, 0);
    let mut reference = None;
    for _ in 0..2 {
        let (run, files, run_failed) =
            batch::reproduce_checked(&args.bin_dir, &real, reference.as_ref())?;
        attempted += 20;
        failed += run_failed;
        walls.push(run.wall.as_secs_f64() * 1e3);
        reference.get_or_insert(files);
    }
    let reference = reference.expect("two runs made");
    let replayed = args.work.join("replay-out");
    const ROUNDS: usize = 2;
    let replays = alternate(ROUNDS, |traced| {
        if traced {
            spans::begin(0, None);
        }
        let elapsed = reproduce_replay(&replayed);
        let recorded = if traced {
            spans::end()
        } else {
            Recorded::default()
        };
        let files = batch::artifacts(&replayed);
        let differing = files
            .iter()
            .filter(|(name, bytes)| reference.get(*name) != Some(bytes))
            .count();
        let missing = reference.len().saturating_sub(files.len());
        Ok((elapsed?, (differing + missing).div_ceil(3) as u64, recorded))
    })?;
    Ok(Breakdown {
        recorded: replays.recorded,
        root: ROOT_RUN,
        ops: ROUNDS as f64,
        untraced_ms: median(&mut walls),
        plain_s: replays.plain_s,
        traced_s: replays.traced_s,
        extra: BTreeMap::new(),
        attempted: attempted + 2 * ROUNDS as u64 * 20,
        failed: failed + replays.failed,
    }
    .outcome(&args.workload))
}
