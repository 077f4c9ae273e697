//! In-memory span recording for the traced run.
//!
//! Each thread records into its own buffer: a span is a layer name, the
//! operation (request or run) it belongs to, its parent and its start and end
//! times. Nothing is written while the run measures; the buffers are merged
//! and written out when it ends. Recording is off unless a thread turns it
//! on, so the same replay code runs with and without spans and the difference
//! is the tracing overhead.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// A span's place: (thread slot, index in that thread's buffer).
pub type SpanId = (u32, u32);

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Default)]
struct Local {
    enabled: bool,
    slot: u32,
    op: u64,
    base_parent: Option<SpanId>,
    stack: Vec<u32>,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, f64>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on for this thread, as buffer `slot`; spans opened with
/// an empty stack get `parent` (a span on another thread) as their parent.
pub fn begin(slot: u32, parent: Option<SpanId>) {
    now_ns();
    LOCAL.with(|l| {
        *l.borrow_mut() = Local {
            enabled: true,
            slot,
            base_parent: parent,
            ..Local::default()
        }
    });
}

/// Turns recording off for this thread and hands back what it recorded.
pub fn end() -> Recorded {
    LOCAL.with(|l| {
        let local = std::mem::take(&mut *l.borrow_mut());
        Recorded {
            threads: BTreeMap::from([(local.slot, local.spans)]),
            counts: local.counts,
        }
    })
}

/// Sets the operation id later spans on this thread belong to.
pub fn set_op(op: u64) {
    LOCAL.with(|l| l.borrow_mut().op = op);
}

/// The innermost open span on this thread, to parent spans on other threads.
pub fn current() -> Option<SpanId> {
    LOCAL.with(|l| {
        let l = l.borrow();
        l.stack.last().map(|&i| (l.slot, i))
    })
}

/// Runs `f` inside a span named `name` (a no-op wrapper when recording is off).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let opened = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if !l.enabled {
            return false;
        }
        let parent = match l.stack.last() {
            Some(&i) => Some((l.slot, i)),
            None => l.base_parent,
        };
        let index = l.spans.len() as u32;
        let op = l.op;
        l.spans.push(Span {
            name,
            op,
            parent,
            start_ns: now_ns(),
            end_ns: 0,
        });
        l.stack.push(index);
        true
    });
    let out = f();
    if opened {
        let end = now_ns();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let index = l.stack.pop().expect("span stack balanced") as usize;
            l.spans[index].end_ns = end;
        });
    }
    out
}

/// Adds `n` to the counter `name` (recorded only while spans are on).
pub fn count(name: &'static str, n: f64) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if l.enabled {
            *l.counts.entry(name).or_insert(0.0) += n;
        }
    });
}

/// Spans and counters of one or more threads.
#[derive(Default)]
pub struct Recorded {
    threads: BTreeMap<u32, Vec<Span>>,
    counts: BTreeMap<&'static str, f64>,
}

impl Recorded {
    /// Adds another recording's spans and sums the counters. Its thread
    /// slots move past this one's, so two replays on the same slots keep
    /// both; a parent on a slot the other recording does not hold (a span
    /// of the thread that spawned its threads) keeps its place.
    pub fn absorb(&mut self, other: Recorded) {
        let base = self.threads.keys().next_back().map_or(0, |&slot| slot + 1);
        let own: Vec<u32> = other.threads.keys().copied().collect();
        let renumber = |slot: u32| {
            if own.contains(&slot) {
                base + slot
            } else {
                slot
            }
        };
        for (slot, mut spans) in other.threads {
            for span in &mut spans {
                span.parent = span.parent.map(|(t, i)| (renumber(t), i));
            }
            self.threads.insert(renumber(slot), spans);
        }
        for (name, n) in other.counts {
            *self.counts.entry(name).or_insert(0.0) += n;
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    fn all(&self) -> impl Iterator<Item = (SpanId, &Span)> {
        self.threads.iter().flat_map(|(&slot, spans)| {
            spans
                .iter()
                .enumerate()
                .map(move |(i, s)| ((slot, i as u32), s))
        })
    }

    /// Every span with its self time, in ns: its duration minus the part of
    /// it covered by the union of its children (children on other threads may
    /// overlap one another).
    fn with_self_ns(&self) -> Vec<(SpanId, &Span, u64)> {
        let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
        for (_, s) in self.all() {
            if let Some(parent) = s.parent {
                children
                    .entry(parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        self.all()
            .map(|(id, s)| {
                let covered = children.get_mut(&id).map_or(0, |c| union_len(c));
                (id, s, (s.end_ns - s.start_ns).saturating_sub(covered))
            })
            .collect()
    }

    /// Self time per span name, in ns.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        for (_, s, own) in self.with_self_ns() {
            *totals.entry(s.name).or_insert(0) += own;
        }
        totals
    }

    /// Self time per operation and span name, in ns.
    pub fn self_ns_by_op(&self) -> BTreeMap<u64, BTreeMap<&'static str, u64>> {
        let mut totals: BTreeMap<u64, BTreeMap<&'static str, u64>> = BTreeMap::new();
        for (_, s, own) in self.with_self_ns() {
            *totals.entry(s.op).or_default().entry(s.name).or_insert(0) += own;
        }
        totals
    }

    /// How many spans named `name` each operation has.
    pub fn count_by_op(&self, name: &str) -> BTreeMap<u64, u64> {
        let mut counts = BTreeMap::new();
        for (_, s) in self.all().filter(|(_, s)| s.name == name) {
            *counts.entry(s.op).or_insert(0) += 1;
        }
        counts
    }

    /// Total duration of the spans named `name`, in ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.all()
            .filter(|(_, s)| s.name == name)
            .map(|(_, s)| s.end_ns - s.start_ns)
            .sum()
    }

    /// Writes every span, with its self time, as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for ((slot, index), s, own) in self.with_self_ns() {
            let parent = s
                .parent
                .map_or("null".to_string(), |(t, i)| format!("\"{t}.{i}\""));
            writeln!(
                out,
                "{{\"id\":\"{slot}.{index}\",\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of half-open intervals (sorts them in place).
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children_is_counted_once() {
        let mut v = vec![(0, 10), (5, 15), (20, 25), (21, 22)];
        assert_eq!(union_len(&mut v), 20);
    }

    #[test]
    fn self_time_excludes_nested_children() {
        begin(0, None);
        span("outer", || {
            span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let rec = end();
        let selfs = rec.self_ns();
        assert!(selfs["inner"] >= 2_000_000);
        assert!(selfs["outer"] < selfs["inner"]);
        assert_eq!(rec.total_ns("outer"), selfs["outer"] + selfs["inner"]);
        assert_eq!(rec.self_ns_by_op()[&0], selfs);
        assert_eq!(rec.count_by_op("outer"), BTreeMap::from([(0, 1)]));
    }

    #[test]
    fn absorbing_keeps_both_recordings_and_cross_thread_parents() {
        begin(0, None);
        let worker = span("run", || {
            let root = current();
            std::thread::spawn(move || {
                begin(1, root);
                span("unit", || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
                end()
            })
            .join()
            .expect("worker thread")
        });
        let mut rec = end();
        rec.absorb(worker);
        let copy = Recorded {
            threads: rec.threads.clone(),
            counts: BTreeMap::new(),
        };
        rec.absorb(copy);
        assert_eq!(rec.threads.len(), 4);
        let selfs = rec.self_ns();
        assert_eq!(rec.total_ns("unit"), selfs["unit"]);
        assert!(
            selfs["run"] < rec.total_ns("run") / 2,
            "the units cover both runs"
        );
    }
}
