//! In-memory spans recorded around calls into the engine's public API.
//!
//! A span has a name, a start and an end (relative to the run's epoch),
//! the op it belongs to and the span that caused it. Spans stay in memory
//! until the run ends; [`write_jsonl`] then writes them out with each
//! span's self time — its duration minus the part of its interval that
//! its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name (`module.call`).
    pub name: &'static str,
    /// The op (a report, a request) the span belongs to; 0 is the layer
    /// probe.
    pub op: u64,
    /// Index of the parent span within the same [`OpTrace`].
    pub parent: Option<usize>,
    /// Start, relative to the run's epoch.
    pub start: Duration,
    /// End, relative to the run's epoch.
    pub end: Duration,
}

impl Span {
    /// The span's wall-clock duration.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// The spans of one op, in the order they were opened.
#[derive(Debug, Clone)]
pub struct OpTrace {
    epoch: Instant,
    op: u64,
    /// The recorded spans; a parent always precedes its children.
    pub spans: Vec<Span>,
}

impl OpTrace {
    /// An empty trace for `op`, timed against `epoch`.
    pub fn new(epoch: Instant, op: u64) -> Self {
        OpTrace {
            epoch,
            op,
            spans: Vec::new(),
        }
    }

    /// An empty trace with the same epoch and op, for spans recorded on
    /// another thread.
    pub fn fork(&self) -> Self {
        OpTrace::new(self.epoch, self.op)
    }

    /// Appends the spans of `other` (a [`OpTrace::fork`] of this trace),
    /// keeping their parent links.
    pub fn absorb(&mut self, other: OpTrace) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// The current time relative to the epoch.
    pub fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Duration,
        end: Duration,
    ) -> usize {
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`OpTrace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now();
        self.record(name, parent, now, now)
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Each span's self time: its duration minus the union of its
    /// children's intervals (clipped to the span).
    pub fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort();
                let mut covered = Duration::ZERO;
                let mut reach = s.start;
                for (lo, hi) in kids {
                    let lo = lo.max(reach);
                    let hi = hi.min(s.end);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                s.duration().saturating_sub(covered)
            })
            .collect()
    }

    /// Self times of every span named `name`, in seconds.
    pub fn self_secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.name == name)
            .map(|(_, d)| d.as_secs_f64())
            .collect()
    }
}

/// Self times of every span named `name` across `traces`, in seconds.
pub fn self_secs(traces: &[OpTrace], name: &str) -> Vec<f64> {
    traces.iter().flat_map(|t| t.self_secs(name)).collect()
}

/// Total self time per layer name across `traces`, in seconds, with the
/// span count.
pub fn self_table(traces: &[OpTrace]) -> BTreeMap<&'static str, (f64, usize)> {
    let mut table = BTreeMap::new();
    for t in traces {
        for (s, d) in t.spans.iter().zip(t.self_times()) {
            let e = table.entry(s.name).or_insert((0.0, 0));
            e.0 += d.as_secs_f64();
            e.1 += 1;
        }
    }
    table
}

/// Writes every span to the file at `path` (see [`write_jsonl`]).
///
/// # Errors
///
/// Propagates file-system errors.
pub fn save_jsonl(path: &Path, traces: &[OpTrace]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_jsonl(&mut out, traces)?;
    out.flush()
}

/// Writes every span as one JSON object per line: op, id (unique within
/// the op), parent, name, start/end and self time in microseconds.
///
/// # Errors
///
/// Propagates write errors.
pub fn write_jsonl(out: &mut impl Write, traces: &[OpTrace]) -> std::io::Result<()> {
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    for t in traces {
        for (id, (s, self_time)) in t.spans.iter().zip(t.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"op\": {}, \"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_us\": {}, \"end_us\": {}, \"self_us\": {}}}",
                s.op,
                s.name,
                us(s.start),
                us(s.end),
                us(self_time)
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = OpTrace::new(Instant::now(), 7);
        let root = t.record("op", None, ms(0), ms(100));
        // Two overlapping children (10..40 and 30..50) cover 40 ms, and
        // one child runs past the parent's end (90..120 → 10 ms inside).
        t.record("a", Some(root), ms(10), ms(40));
        t.record("a", Some(root), ms(30), ms(50));
        let c = t.record("b", Some(root), ms(90), ms(120));
        t.record("c", Some(c), ms(95), ms(100));
        let selfs = t.self_times();
        assert_eq!(selfs[root], ms(50));
        assert_eq!(selfs[1], ms(30));
        assert_eq!(selfs[c], ms(25));
        assert_eq!(t.self_secs("a"), vec![0.03, 0.02]);
        assert_eq!(self_table(&[t.clone()])["a"], (0.05, 2));
        assert!(t.spans.iter().all(|s| s.op == 7));

        let mut fork = t.fork();
        let r = fork.record("r", None, ms(0), ms(4));
        fork.record("s", Some(r), ms(1), ms(2));
        t.absorb(fork);
        assert_eq!(t.spans.len(), 7);
        assert_eq!(t.spans[6].parent, Some(5));
        assert_eq!(t.self_times()[5], ms(3));
        assert!(t.spans.iter().all(|s| s.op == 7));
    }

    #[test]
    fn spans_are_written_one_object_per_line() {
        let mut t = OpTrace::new(Instant::now(), 3);
        let root = t.record("op", None, ms(0), ms(2));
        t.record("x", Some(root), ms(1), ms(2));
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &[t]).expect("write");
        let text = String::from_utf8(buf).expect("utf-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"parent\": null, \"name\": \"op\""));
        assert!(lines[1].contains("\"id\": 1, \"parent\": 0, \"name\": \"x\""));
        assert!(lines[0].contains("\"self_us\": 1000"));
    }
}
