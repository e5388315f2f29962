//! Benchmark-side spans: a name, start, end and parent for each call the
//! benchmark makes into a crate's public API, kept in memory and
//! summarized when the run ends. Span names are `<crate>.<call>`, so the
//! layer of a span is the text before its first dot.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Architecture the call worked on, when it worked on one.
    pub arch: Option<&'static str>,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    /// Shared by every span of one serve request.
    pub request: Option<u64>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// The layer (crate) the span's call went into.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Records spans when enabled; a disabled tracer runs the closures and
/// records nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    /// Seconds since the tracer's origin for `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(
        &mut self,
        name: &str,
        arch: Option<&'static str>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.at(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            arch,
            start,
            end: start,
            parent: self.stack.last().copied(),
            request: None,
        });
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        self.spans[id].end = self.at(Instant::now());
        r
    }

    /// Records a span measured elsewhere (serve requests are timed on
    /// the generator thread and from engine responses). Returns its id.
    pub fn record(
        &mut self,
        name: &str,
        arch: Option<&'static str>,
        start: f64,
        end: f64,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> usize {
        let id = self.spans.len();
        if self.on {
            self.spans.push(Span {
                name: name.to_string(),
                arch,
                start,
                end,
                parent: parent.or(self.stack.last().copied()),
                request,
            });
        }
        id
    }

    /// Index the next recorded span will get (marks a phase's first span).
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans named `name` from index `from` on.
    pub fn total(&self, from: usize, name: &str) -> f64 {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Self time of every span from index `from` on: its duration minus
    /// the part of it that its children cover.
    pub fn self_times(&self, from: usize) -> Vec<f64> {
        let mut children: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
        for s in &self.spans[from..] {
            if let Some(p) = s.parent.filter(|&p| p >= from) {
                children.entry(p).or_default().push((s.start, s.end));
            }
        }
        (from..self.spans.len())
            .map(|i| {
                let s = &self.spans[i];
                let covered = children
                    .get(&i)
                    .map_or(0.0, |c| union_len(c, s.start, s.end));
                (s.duration() - covered).max(0.0)
            })
            .collect()
    }

    /// Seconds of `[start, end]` that root spans (those without a parent
    /// in the phase) from index `from` on cover.
    pub fn coverage(&self, from: usize, start: f64, end: f64) -> f64 {
        let roots: Vec<(f64, f64)> = self.spans[from..]
            .iter()
            .filter(|s| s.parent.is_none_or(|p| p < from))
            .map(|s| (s.start, s.end))
            .collect();
        union_len(&roots, start, end)
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut v: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    v.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((a, b)) = cur {
        total += b - a;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(
            union_len(&[(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.0, 10.0),
            4.0
        );
        assert_eq!(union_len(&[(0.0, 2.0)], 1.0, 10.0), 1.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let p = t.record("core.a", None, 0.0, 10.0, None, None);
        t.record("capsnet.b", None, 1.0, 4.0, Some(p), None);
        t.record("capsnet.c", None, 3.0, 5.0, Some(p), None);
        assert_eq!(t.self_times(0), vec![6.0, 3.0, 2.0]);
        assert_eq!(t.coverage(0, 0.0, 20.0), 10.0);
    }
}
