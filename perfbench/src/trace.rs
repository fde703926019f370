//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! system's public functions; nothing inside the program is
//! instrumented. Each thread records into its own [`Tracer`] (a
//! "lane"); span ids carry the lane in their high bits, so lanes merge
//! by concatenation and a span may name a parent on another lane (a
//! client thread's burst under the main thread's cycle span).

use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Operation the span belongs to (a mining call, a cycle, a setup
    /// repetition); spans of one operation share it.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    lane: u64,
    origin: Instant,
    /// Parent for spans opened with an empty stack.
    root_parent: Option<u64>,
    stack: Vec<u64>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            lane: 0,
            origin,
            root_parent: None,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A tracer for another thread, whose top-level spans hang under
    /// `parent` (a span of some other lane).
    pub fn lane(&self, lane: u64, parent: Option<u64>) -> Tracer {
        Tracer {
            enabled: self.enabled,
            lane,
            origin: self.origin,
            root_parent: parent,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Id of the innermost open span, if any.
    pub fn current(&self) -> Option<u64> {
        self.stack.last().copied().or(self.root_parent)
    }

    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = (self.lane << 40) | self.spans.len() as u64;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.current(),
            name,
            op,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        Open(Some(self.spans.len() - 1))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(i) = open.0 {
            self.spans[i].end_ns = self.now_ns();
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(self.spans[i].id), "spans must nest");
        }
    }

    /// Record `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, op);
        let out = f();
        self.end(open);
        out
    }

    /// Take another lane's spans into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover (children on other lanes may
    /// overlap each other, so their union is subtracted).
    pub fn self_times_ns(&self) -> HashMap<u64, u64> {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .map(|s| {
                let mut covered = 0u64;
                if let Some(kids) = children.get_mut(&s.id) {
                    kids.sort_unstable();
                    let (mut lo, mut hi) = (0u64, 0u64);
                    for &(a, b) in kids.iter() {
                        let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                        if a >= b {
                            continue;
                        }
                        if a > hi {
                            covered += hi - lo;
                            (lo, hi) = (a, b);
                        } else {
                            hi = hi.max(b);
                        }
                    }
                    covered += hi - lo;
                }
                (s.id, s.dur_ns() - covered.min(s.dur_ns()))
            })
            .collect()
    }

    /// Write every span, one JSON object a line, with its self time.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let self_ns = self.self_times_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id, parent, s.name, s.op, s.start_ns, s.end_ns, self_ns[&s.id]
            )?;
        }
        out.flush()
    }

    /// Per span name: count, total and self time in milliseconds,
    /// sorted by name.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let self_ns = self.self_times_ns();
        let mut by_name: HashMap<&'static str, (usize, u64, u64)> = HashMap::new();
        for s in &self.spans {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += self_ns[&s.id];
        }
        let mut rows: Vec<_> = by_name
            .into_iter()
            .map(|(name, (n, total, own))| (name, n, total as f64 / 1e6, own as f64 / 1e6))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(b.0));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let origin = Instant::now();
        let mut t = Tracer::new(true, origin);
        t.spans = vec![
            Span {
                id: 0,
                parent: None,
                name: "p",
                op: 0,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 1,
                parent: Some(0),
                name: "c",
                op: 0,
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                id: 2,
                parent: Some(0),
                name: "c",
                op: 0,
                start_ns: 30,
                end_ns: 50,
            },
            Span {
                id: 3,
                parent: Some(0),
                name: "c",
                op: 0,
                start_ns: 90,
                end_ns: 120,
            },
        ];
        let own = t.self_times_ns();
        // Children cover 10..50 and 90..100 of the parent.
        assert_eq!(own[&0], 100 - 40 - 10);
        assert_eq!(own[&1], 30);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let v = t.span("x", 0, || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
