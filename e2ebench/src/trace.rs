//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (µs since the tracer began), the
//! span that was open around it, and the id of the operation it served.
//! A disabled tracer records nothing and costs one branch per call, so
//! the untraced runs measure the same code path.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
    /// The operation (query, round or edit) the span belongs to.
    pub op: u64,
}

/// Records spans while enabled.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` for operation `op`.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let ix = self.spans.len();
        self.spans.push(Span {
            name,
            start_us: self.now_us(),
            end_us: 0.0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(ix);
        let out = f(self);
        self.open.pop();
        self.spans[ix].end_us = self.now_us();
        out
    }

    /// A tracer for another thread, sharing this one's clock.
    pub fn fork(&self) -> Self {
        Tracer {
            enabled: self.enabled,
            origin: self.origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Takes over the spans of a forked tracer.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: (count, total ms, self ms), where self time is the
    /// span's duration minus the time its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_us) {
            let e = out.entry(s.name).or_default();
            let dur = s.end_us - s.start_us;
            e.0 += 1;
            e.1 += dur / 1e3;
            e.2 += (dur - child) / 1e3;
        }
        out
    }

    /// A table of [`Tracer::self_times`].
    pub fn self_time_table(&self) -> String {
        let mut out = format!(
            "{:<24} {:>7} {:>12} {:>12}\n",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, (count, total, own)) in self.self_times() {
            let _ = writeln!(out, "{name:<24} {count:>7} {total:>12.3} {own:>12.3}");
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_us, s.end_us, s.op
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[0].op, 7);
        let times = t.self_times();
        let (_, outer_total, outer_self) = times["outer"];
        let (_, inner_total, _) = times["inner"];
        assert!(inner_total >= 20.0);
        assert!((outer_total - inner_total - outer_self).abs() < 1e-6);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let mut t = Tracer::new(true);
        t.span("a", 0, |_| ());
        let mut f = t.fork();
        f.span("outer", 1, |f| f.span("inner", 1, |_| ()));
        t.absorb(f);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[2].parent, Some(1));
        assert_eq!(t.spans()[1].parent, None);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 1, |_| 5), 5);
        assert!(t.spans().is_empty());
    }
}
