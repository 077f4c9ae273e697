//! Seeded input generation. Every input the programs under test receive is
//! made here from the workload seed; nothing else in the benchmark draws
//! random numbers.

use btr_trace::io::write_binary;
use btr_trace::Trace;
use btr_workloads::{Benchmark, SuiteConfig};
use std::collections::VecDeque;
use std::sync::Mutex;

/// SplitMix64: a tiny, well-mixed generator, enough for shuffles and draws.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BE4C_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at these sizes.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One upload body of the serve pool.
pub struct Body {
    pub label: String,
    pub bytes: Vec<u8>,
    pub records: u64,
}

/// Encodes a trace as a `BTRT` byte string.
pub fn btrt_bytes(trace: &Trace) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_binary(&mut bytes, trace).expect("BTRT encoding into a Vec cannot fail");
    bytes
}

/// The serve upload pool: the 34 suite traces at the default scale, made from
/// the workload seed, plus three large-footprint traces whose static-branch
/// counts (10, 12 and 16 Ki) exceed the fast decoder's 8 Ki-entry intern
/// cache. The pool size is odd on purpose: every body is uploaded equally
/// often, so with an even count the median upload latency would fall on the
/// gap between two bodies' latencies and jump with noise on either side.
pub fn upload_pool(seed: u64) -> Vec<Body> {
    let config = SuiteConfig::default().with_seed(seed);
    let mut traces: Vec<Trace> = Benchmark::suite()
        .iter()
        .map(|b| b.generate(&config))
        .collect();
    // Few executions per branch, so a wide footprint stays a mid-size upload.
    let wide = config.with_min_executions_per_branch(12);
    for (static_branches, text_base) in [
        (10 * 1024, 0x6800_0000),
        (12 * 1024, 0x7000_0000),
        (16 * 1024, 0x7800_0000),
    ] {
        let mut bench = Benchmark::gcc("wide.i", 10_000_000_000);
        bench.name = format!("gcc-wide{}k", static_branches / 1024);
        bench.static_branches = static_branches;
        bench.text_base = text_base;
        traces.push(bench.generate(&wide));
    }
    traces
        .iter()
        .map(|t| Body {
            label: t.metadata().label(),
            bytes: btrt_bytes(t),
            records: t.len() as u64,
        })
        .collect()
}

/// The shard workload's captured trace: one seeded gcc-like trace of about
/// two million records.
pub fn shard_capture(seed: u64) -> Trace {
    let config = SuiteConfig::default().with_seed(seed);
    Benchmark::gcc("capture.i", 100_000_000_000).generate(&config)
}

/// One request of a serve workload's sequence.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Index into the upload pool.
    pub body: usize,
    /// For a digest replay, the draw that picks which recent upload it
    /// names (see [`Replays`]); `None` for an upload of `body`.
    pub replay: Option<u32>,
}

/// A serve request sequence, made of rounds. A round uploads each of the
/// `bodies` once, in an order the seed shuffles, with a digest replay after
/// every third upload; so every round sends the same mix and any whole
/// number of rounds is a fair sample of it. Returns the steps and the round
/// length.
pub fn serve_sequence(seed: u64, bodies: usize, rounds: usize) -> (Vec<Step>, usize) {
    let mut rng = Rng::new(seed);
    let mut steps: Vec<Step> = Vec::new();
    for _ in 0..rounds {
        let mut round: Vec<usize> = (0..bodies).collect();
        rng.shuffle(&mut round);
        for (i, body) in round.into_iter().enumerate() {
            steps.push(Step { body, replay: None });
            if i % 3 == 2 {
                steps.push(Step {
                    // The upload it sends if no recent upload can be replayed.
                    body: rng.below(bodies),
                    replay: Some(rng.next_u64() as u32),
                });
            }
        }
    }
    let round_len = steps.len() / rounds.max(1);
    (steps, round_len)
}

/// Resolves digest replays against uploads that have been answered.
///
/// Which uploads are answered first depends on timing, so a replay names one
/// of the last eight answered uploads, chosen by its draw. A workload sends
/// no more distinct uploads than btrd's response cache holds (see
/// `serve::Pool`), so nothing is ever evicted and every replay is a hit.
#[derive(Default)]
pub struct Replays {
    recent: Mutex<VecDeque<usize>>,
}

impl Replays {
    /// The body a step names and whether it replays it.
    pub fn resolve(&self, step: &Step) -> (usize, bool) {
        let Some(draw) = step.replay else {
            return (step.body, false);
        };
        let recent = self.recent.lock().expect("replay state is never poisoned");
        match recent.get(draw as usize % recent.len().max(1)) {
            Some(&body) => (body, true),
            None => (step.body, false),
        }
    }

    /// Records an answered upload.
    pub fn answered(&self, body: usize) {
        let mut recent = self.recent.lock().expect("replay state is never poisoned");
        recent.retain(|b| *b != body);
        recent.push_back(body);
        if recent.len() > 8 {
            recent.pop_front();
        }
    }
}
