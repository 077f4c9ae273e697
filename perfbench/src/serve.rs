//! The `classify` and `sweep` workloads against a real `btrd`: set-up, cold
//! jobs, the closed-loop window, `/metrics` cross-check, and the references
//! every response is checked against.

use crate::inputs::{self, Body, Replays, Step};
use crate::proc;
use crate::report::Outcome;
use crate::stats::{median, quantile};
use btr_core::class::BinningScheme;
use btr_core::distribution::Metric;
use btr_serve::analysis::{self, BodyFormat, Budgets};
use btr_serve::client::{self, ClientRequest, ClientResponse};
use btr_serve::digest::Fnv64;
use btr_serve::metrics::MetricsSnapshot;
use btr_serve::ServerConfig;
use btr_sim::config::PredictorFamily;
use btr_sim::engine::{BatchLane, SimEngine};
use btr_wire::Wire;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use stealpool::WorkStealingPool;

/// Concurrent connections of the closed loop: one per core of the two-core
/// machine the benchmark is sized for.
pub const CONNECTIONS: usize = 2;
const TIMEOUT: Duration = Duration::from_secs(30);
/// Set-up-only launches after each cold job.
const EXTRA_LAUNCHES: usize = 12;
/// Segments measured in a run however short its window, so the medians and
/// quantiles always rest on several seconds of requests.
const MIN_SEGMENTS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    Classify,
    Sweep,
}

/// One parameter set of a workload, in btrd's canonical query form.
pub struct Variant {
    pub target: String,
    /// `None` for `/classify`.
    pub sweep: Option<(PredictorFamily, Vec<u32>)>,
}

pub fn variants(endpoint: Endpoint) -> Vec<Variant> {
    match endpoint {
        Endpoint::Classify => vec![Variant {
            target: "/classify".into(),
            sweep: None,
        }],
        Endpoint::Sweep => {
            let full: Vec<u32> = (0..=16).collect();
            let coarse = vec![0, 2, 4, 8];
            [
                (PredictorFamily::PAs, &full),
                (PredictorFamily::GAs, &coarse),
                (PredictorFamily::GAs, &full),
                (PredictorFamily::PAs, &coarse),
            ]
            .into_iter()
            .map(|(family, histories)| Variant {
                target: format!(
                    "/sweep?family={}&histories={}",
                    family.label().to_ascii_lowercase(),
                    join(histories)
                ),
                sweep: Some((family, histories.clone())),
            })
            .collect()
        }
    }
}

fn join(histories: &[u32]) -> String {
    histories
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// btrd's default per-request budgets.
pub fn budgets() -> Budgets {
    let config = ServerConfig::default();
    Budgets {
        chunk_records: config.chunk_records,
        max_static_branches: config.max_static_branches,
    }
}

/// The response document btrd must return for `body` under `variant`,
/// computed in-process through the library's own request functions.
pub fn reference(body: &[u8], variant: &Variant, pool: &WorkStealingPool) -> Vec<u8> {
    let scheme = BinningScheme::Paper11;
    let outcome = match &variant.sweep {
        None => analysis::run_classify(body, BodyFormat::Btrt, scheme, budgets())
            .expect("generated uploads classify"),
        Some((family, histories)) => {
            let upload = analysis::materialize_sweep(body, BodyFormat::Btrt, budgets())
                .expect("generated uploads materialize");
            let lane = BatchLane::new(0, family.fused_paper(histories));
            let mut results = SimEngine::new().run_batch(&[&upload.interned], vec![lane]);
            let results = results.pop().expect("one lane in, one result out");
            analysis::sweep_document(
                &upload,
                *family,
                histories,
                results,
                Metric::TransitionRate,
                scheme,
                pool,
            )
        }
    };
    outcome
        .value
        .to_json()
        .expect("documents encode as JSON")
        .into_bytes()
}

/// The generated uploads of a serve workload with their requests and
/// expected responses. Each body goes with one parameter set (body `i` with
/// variant `i % variants`), so the distinct uploads fit btrd's cache.
pub struct Pool {
    pub endpoint: Endpoint,
    pub bodies: Vec<Body>,
    pub variants: Vec<Variant>,
    /// The reference response body, per body.
    pub expected: Vec<Vec<u8>>,
    pub digests: Vec<String>,
    uploads: Vec<ClientRequest>,
    replays: Vec<ClientRequest>,
}

impl Pool {
    pub fn build(seed: u64, endpoint: Endpoint) -> Pool {
        let bodies = inputs::upload_pool(seed);
        // Replays rely on every upload staying cached. With more distinct
        // uploads than entries, two concurrent uploads near the eviction
        // point can land in the cache in the other order from their answers,
        // and a replay of an evicted entry would fail.
        assert!(bodies.len() <= ServerConfig::default().cache_entries);
        let variants = variants(endpoint);
        let variant_of = |b: usize| &variants[b % variants.len()];
        let analysis_pool = WorkStealingPool::new(ServerConfig::default().analysis_threads);
        let expected: Vec<Vec<u8>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CONNECTIONS)
                .map(|t| {
                    let (bodies, pool) = (&bodies, &analysis_pool);
                    s.spawn(move || {
                        (t..bodies.len())
                            .step_by(CONNECTIONS)
                            .map(|b| (b, reference(&bodies[b].bytes, variant_of(b), pool)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut all: Vec<(usize, Vec<u8>)> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("reference thread"))
                .collect();
            all.sort_by_key(|(b, _)| *b);
            all.into_iter().map(|(_, reference)| reference).collect()
        });
        let digests: Vec<String> = bodies
            .iter()
            .map(|b| {
                let mut d = Fnv64::new();
                d.update(&b.bytes);
                d.hex()
            })
            .collect();
        let uploads = (0..bodies.len())
            .map(|b| ClientRequest::post(&variant_of(b).target, bodies[b].bytes.clone()))
            .collect();
        let replays = (0..bodies.len())
            .map(|b| {
                ClientRequest::post(&variant_of(b).target, Vec::new())
                    .with_header("X-Btr-Digest", &digests[b])
            })
            .collect();
        Pool {
            endpoint,
            bodies,
            variants,
            expected,
            digests,
            uploads,
            replays,
        }
    }

    pub fn variant_of(&self, body: usize) -> &Variant {
        &self.variants[body % self.variants.len()]
    }

    /// The seeded request sequence, long enough for `seconds` of segments,
    /// and the segment length: whole rounds lasting about a second on a
    /// 2-vCPU machine.
    pub fn steps(&self, seed: u64, seconds: u64) -> (Vec<Step>, usize) {
        let rounds_per_segment = match self.endpoint {
            Endpoint::Classify => 16,
            Endpoint::Sweep => 4,
        };
        let segments = 2 * seconds as usize + 10;
        let (steps, round_len) =
            inputs::serve_sequence(seed, self.bodies.len(), segments * rounds_per_segment);
        (steps, round_len * rounds_per_segment)
    }

    /// Whether `resp` is exactly what btrd must answer to an upload (or a
    /// replay) of `body`.
    pub fn check(&self, body: usize, replay: bool, resp: &ClientResponse) -> bool {
        let cache = resp.header("x-btr-cache");
        let cache_ok = if replay {
            matches!(cache, Some("hit" | "coalesced"))
        } else {
            cache == Some("store")
                && resp.header("x-btr-digest") == Some(self.digests[body].as_str())
        };
        resp.status == 200 && cache_ok && resp.body == self.expected[body]
    }
}

/// One request as the client saw it.
pub struct Sample {
    /// The pool body it uploaded or replayed.
    pub body: usize,
    pub replay: bool,
    pub latency_s: f64,
    pub ok: bool,
    pub status: u16,
    pub records: u64,
    pub coalesced: bool,
}

/// A running `btrd` child process.
pub struct Daemon {
    child: Child,
    pub addr: String,
    launched: Instant,
    /// Requests this client has sent it.
    pub requests: u64,
    /// The uploads it has answered, for replays to name.
    replays: Replays,
}

impl Daemon {
    /// Launches the release `btrd` with its default configuration on an
    /// ephemeral port; returns it and the time from launch to its first
    /// `/healthz` 200.
    pub fn launch(bin_dir: &Path) -> Result<(Daemon, f64), String> {
        let launched = Instant::now();
        let mut child = Command::new(bin_dir.join("btrd"))
            .args(["--addr", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("launching btrd: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        // Owned from here on, so an early return stops it.
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            launched,
            requests: 0,
            replays: Replays::default(),
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("reading btrd's banner: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("btrd listening on ")
            .ok_or_else(|| format!("unexpected btrd banner {line:?}"))?
            .to_string();
        loop {
            let healthy = client::send(&daemon.addr, &ClientRequest::get("/healthz"), TIMEOUT);
            if let Ok(resp) = &healthy {
                daemon.requests += 1;
                if resp.status == 200 {
                    break;
                }
            }
            if launched.elapsed() > TIMEOUT {
                return Err("btrd never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok((daemon, launched.elapsed().as_secs_f64()))
    }

    pub fn metrics(&mut self) -> Result<MetricsSnapshot, String> {
        self.requests += 1;
        let resp = client::send(&self.addr, &ClientRequest::get("/metrics"), TIMEOUT)
            .map_err(|e| format!("scraping /metrics: {e}"))?;
        MetricsSnapshot::from_json(&resp.text()).map_err(|e| format!("decoding /metrics: {e}"))
    }

    /// CPU seconds the daemon has used so far.
    pub fn cpu_s(&self) -> f64 {
        proc::cpu_s(self.child.id()).unwrap_or(f64::NAN)
    }

    pub fn peak_rss_mib(&self) -> f64 {
        proc::vm_hwm_mib(self.child.id()).unwrap_or(f64::NAN)
    }

    /// Kills the daemon and waits for it; returns the launch-to-exit time.
    pub fn stop(mut self) -> f64 {
        self.kill();
        self.launched.elapsed().as_secs_f64()
    }

    fn kill(&mut self) {
        // Errors mean the daemon has already exited and been reaped.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Runs the closed loop over `steps`: `CONNECTIONS` clients, each sending
    /// its next request only after the previous reply, until the steps run
    /// out.
    pub fn closed_loop(&mut self, pool: &Pool, steps: &[Step]) -> Vec<Sample> {
        let cursor = AtomicUsize::new(0);
        let replays = &self.replays;
        let addr = self.addr.as_str();
        let samples: Vec<Sample> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..CONNECTIONS)
                .map(|_| {
                    let cursor = &cursor;
                    s.spawn(move || {
                        let mut out = Vec::new();
                        while let Some(step) = steps.get(cursor.fetch_add(1, Ordering::SeqCst)) {
                            out.push(send_step(addr, pool, replays, step));
                        }
                        out
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("client thread"))
                .collect()
        });
        self.requests += samples.len() as u64;
        samples
    }
}

/// A daemon left running by an early return is stopped too.
impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

fn send_step(addr: &str, pool: &Pool, replays: &Replays, step: &Step) -> Sample {
    let (body, replay) = replays.resolve(step);
    let request = if replay {
        &pool.replays[body]
    } else {
        &pool.uploads[body]
    };
    let started = Instant::now();
    let resp = client::send(addr, request, TIMEOUT);
    let latency_s = started.elapsed().as_secs_f64();
    let mut sample = Sample {
        body,
        replay,
        latency_s,
        ok: false,
        status: 0,
        records: 0,
        coalesced: false,
    };
    match resp {
        Ok(resp) => {
            sample.ok = pool.check(body, replay, &resp);
            sample.status = resp.status;
            sample.coalesced = resp.header("x-btr-cache") == Some("coalesced");
            if !sample.ok {
                eprintln!(
                    "mismatch: {} {} of {} answered {} ({:?})",
                    if replay { "replay" } else { "upload" },
                    pool.variant_of(body).target,
                    pool.bodies[body].label,
                    resp.status,
                    resp.header("x-btr-cache"),
                );
            } else if !replay {
                sample.records = pool.bodies[body].records;
                replays.answered(body);
            }
        }
        Err(e) => eprintln!("transport error: {e}"),
    }
    sample
}

/// What the client's own counts say `/metrics` must report.
pub struct ClientCounts {
    pub requests: u64,
    pub cache_hits: u64,
    pub coalesced_hits: u64,
    pub batched_lanes: u64,
    pub records_decoded: u64,
}

impl ClientCounts {
    /// `requests` includes the `/metrics` scrape itself, which the server
    /// counts before it takes the snapshot.
    pub fn of(daemon: &Daemon, pool: &Pool, samples: &[&Sample]) -> ClientCounts {
        let answered = |replay: bool| samples.iter().filter(move |s| s.ok && s.replay == replay);
        ClientCounts {
            requests: daemon.requests + 1,
            cache_hits: answered(true).count() as u64,
            coalesced_hits: answered(true).filter(|s| s.coalesced).count() as u64,
            batched_lanes: if pool.endpoint == Endpoint::Sweep {
                answered(false).count() as u64
            } else {
                0
            },
            records_decoded: answered(false).map(|s| s.records).sum(),
        }
    }

    /// Sum of absolute differences from the server's counters.
    pub fn drift(&self, server: &MetricsSnapshot) -> u64 {
        server.requests.abs_diff(self.requests)
            + server.cache_hits.abs_diff(self.cache_hits)
            + server.coalesced_hits.abs_diff(self.coalesced_hits)
            + server.batched_lanes.abs_diff(self.batched_lanes)
            + server.records_decoded.abs_diff(self.records_decoded)
    }

    pub fn describe(&self, server: &MetricsSnapshot) -> String {
        format!(
            "/metrics vs client: requests {} vs {}, cache_hits {} vs {}, coalesced_hits {} vs {}, \
             batched_lanes {} vs {}, records_decoded {} vs {}; drift {}",
            server.requests,
            self.requests,
            server.cache_hits,
            self.cache_hits,
            server.coalesced_hits,
            self.coalesced_hits,
            server.batched_lanes,
            self.batched_lanes,
            server.records_decoded,
            self.records_decoded,
            self.drift(server)
        )
    }
}

/// Samples of the cold jobs.
#[derive(Default)]
struct ColdJobs {
    /// Launch to first `/healthz` 200, in s.
    setups: Vec<f64>,
    /// Launch to exit, in s.
    walls: Vec<f64>,
    /// `VmHWM` at the end of the job, in MiB.
    peaks: Vec<f64>,
    requests: Vec<Sample>,
}

impl ColdJobs {
    /// One cold job on a fresh daemon: timed to its first `/healthz` 200
    /// (set-up) and, after one upload of every pool body in pool order, to
    /// its exit (wall), with its peak memory read just before it stops.
    fn run(&mut self, bin_dir: &Path, pool: &Pool) -> Result<(), String> {
        let steps: Vec<Step> = (0..pool.bodies.len())
            .map(|body| Step { body, replay: None })
            .collect();
        let (mut daemon, setup) = Daemon::launch(bin_dir)?;
        let samples = daemon.closed_loop(pool, &steps);
        self.peaks.push(daemon.peak_rss_mib());
        self.walls.push(daemon.stop());
        self.setups.push(setup);
        self.requests.extend(samples);
        // More set-up samples: launches that only answer `/healthz`.
        for _ in 0..EXTRA_LAUNCHES {
            let (daemon, setup) = Daemon::launch(bin_dir)?;
            daemon.stop();
            self.setups.push(setup);
        }
        Ok(())
    }
}

/// Runs `steps` against `daemon` in segments of `segment_len` until
/// `seconds` have passed and at least `min_segments` ran (or the steps run
/// out), running `between` before each; returns each segment's samples and
/// duration.
pub fn segments(
    daemon: &mut Daemon,
    pool: &Pool,
    (steps, segment_len): (&[Step], usize),
    (seconds, min_segments): (f64, usize),
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<Vec<(Vec<Sample>, f64)>, String> {
    let started = Instant::now();
    let mut out = Vec::new();
    for segment in steps.chunks_exact(segment_len) {
        if out.len() >= min_segments && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        between()?;
        let segment_started = Instant::now();
        let samples = daemon.closed_loop(pool, segment);
        out.push((samples, segment_started.elapsed().as_secs_f64()));
    }
    Ok(out)
}

/// The untraced run of a serve workload: the end-to-end metrics.
///
/// The closed loop against one long-lived daemon runs in segments of whole
/// rounds of the request mix (about a second each), with a cold job on a
/// fresh daemon before each, so every figure samples the whole run and every
/// segment sends the same mix. Throughput is the median over segments and
/// the cold-job figures are medians over jobs, which a burst of
/// interference from outside moves little; latency quantiles pool every
/// measured request.
pub fn measure(
    bin_dir: &Path,
    endpoint: Endpoint,
    seed: u64,
    seconds: u64,
) -> Result<Outcome, String> {
    let pool = Pool::build(seed, endpoint);
    let (steps, segment_len) = pool.steps(seed, seconds);
    let mut cold = ColdJobs::default();
    let (mut daemon, setup) = Daemon::launch(bin_dir)?;
    cold.setups.push(setup);
    // One untimed segment warms the daemon up.
    let (warm, rest) = steps.split_at(segment_len);
    let mut samples = daemon.closed_loop(&pool, warm);
    let cpu_before = daemon.cpu_s();
    let measured = segments(
        &mut daemon,
        &pool,
        (rest, segment_len),
        (seconds as f64, MIN_SEGMENTS),
        || cold.run(bin_dir, &pool),
    )?;
    let mut throughputs = Vec::new();
    let (mut uploads, mut replays) = (Vec::new(), Vec::new());
    let mut per_body: Vec<Vec<f64>> = vec![Vec::new(); pool.bodies.len()];
    for (timed, elapsed) in &measured {
        let records: u64 = timed.iter().filter(|s| s.ok).map(|s| s.records).sum();
        throughputs.push(records as f64 / elapsed);
        for s in timed {
            let ms = s.latency_s * 1e3;
            if s.replay {
                replays.push(ms);
            } else {
                uploads.push(ms);
                per_body[s.body].push(ms);
            }
        }
    }
    // The typical upload's typical wait: the median over bodies of each
    // body's median. Pooling every upload instead puts the median in the
    // tail of the small bodies' latencies, where they wait behind a large
    // upload on the other connection (btrd runs one sweep batch at a time),
    // and that tail moves with any change in the machine's speed.
    let mut body_medians: Vec<f64> = per_body
        .iter_mut()
        .filter(|v| !v.is_empty())
        .map(|v| median(v))
        .collect();
    let segments = measured.len();
    let requests = uploads.len() + replays.len();
    samples.extend(measured.into_iter().flat_map(|(timed, _)| timed));
    let cpu_ms = (daemon.cpu_s() - cpu_before) * 1e3;
    let counts = ClientCounts::of(&daemon, &pool, &samples.iter().collect::<Vec<_>>());
    let scraped = daemon.metrics()?;
    let window_peak = daemon.peak_rss_mib();
    daemon.stop();
    eprintln!("{}", counts.describe(&scraped));
    eprintln!(
        "{} requests in {} segments; long-lived daemon peak memory {window_peak:.1} MiB",
        samples.len(),
        segments
    );
    samples.extend(cold.requests);
    let failed = samples.iter().filter(|s| !s.ok).count() as u64;
    Ok(Outcome {
        correct: failed == 0,
        attempted: samples.len() as u64,
        failed,
        metrics: vec![
            ("records_per_s", median(&mut throughputs), "records/s"),
            ("latency_p50_ms", median(&mut body_medians), "ms"),
            ("latency_p90_ms", quantile(&mut uploads, 0.9), "ms"),
            ("replay_p50_ms", median(&mut replays), "ms"),
            ("wall_s", median(&mut cold.walls), "s"),
            ("setup_s", median(&mut cold.setups), "s"),
            ("peak_rss_mib", median(&mut cold.peaks), "MiB"),
            ("cpu_per_op_ms", cpu_ms / requests as f64, "ms"),
        ],
    })
}
