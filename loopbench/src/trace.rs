//! The benchmark's clock, its spans, and the summaries drawn from them.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! system, kept in per-thread buffers, merged when the run ends, and
//! written out as JSON lines. A span's self time is its duration minus
//! the durations of its children.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The one place the benchmark reads the wall clock.
pub fn now() -> Instant {
    Instant::now()
}

/// Seconds between two instants.
pub fn secs(start: Instant, end: Instant) -> f64 {
    end.duration_since(start).as_secs_f64()
}

/// Parent id of a root span.
pub const ROOT: u64 = 0;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    /// Request (or episode) the span belongs to.
    pub request: u64,
    /// Nanoseconds since the run's origin.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span buffer. When disabled it hands out ids and drops
/// every span, so traced and untraced runs share one code path.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    tag: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Spans {
    /// `tag` must differ between the buffers of one run: span ids are
    /// `tag << 40 | counter`.
    pub fn new(enabled: bool, origin: Instant, tag: u64) -> Self {
        Self {
            enabled,
            origin,
            tag,
            next: 0,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh span id, for a span whose children are recorded first.
    pub fn id(&mut self) -> u64 {
        self.next += 1;
        (self.tag << 40) | self.next
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records `[start, end)` under a pre-allocated id.
    pub fn record(
        &mut self,
        id: u64,
        parent: u64,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                id,
                parent,
                name,
                request,
                start_ns,
                end_ns,
            });
        }
    }

    /// Records a span that has no children.
    pub fn leaf(
        &mut self,
        parent: u64,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let id = self.id();
            self.record(id, parent, name, request, start, end);
        }
    }
}

/// Per-name totals over a merged trace.
#[derive(Debug, Default, Clone, Copy)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-name totals of a trace.
pub type Totals = HashMap<&'static str, NameTotals>;

/// A merged trace.
#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn absorb(&mut self, buf: Spans) {
        self.spans.extend(buf.spans);
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> Totals {
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in &self.spans {
            if s.parent != ROOT {
                *child_ns.entry(s.parent).or_default() += s.dur_ns();
            }
        }
        let mut out = Totals::new();
        for s in &self.spans {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            let children = child_ns.get(&s.id).copied().unwrap_or(0);
            t.self_ns += s.dur_ns().saturating_sub(children);
        }
        out
    }

    /// Writes one JSON object per span to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Mean duration of the spans named `name`, in `unit_ns` units (0 when
/// there are none).
pub fn mean(totals: &Totals, name: &str, unit_ns: f64) -> f64 {
    match totals.get(name) {
        Some(t) if t.count > 0 => t.total_ns as f64 / t.count as f64 / unit_ns,
        _ => 0.0,
    }
}

/// Mean self time of the spans named `name`, in `unit_ns` units.
pub fn mean_self(totals: &Totals, name: &str, unit_ns: f64) -> f64 {
    match totals.get(name) {
        Some(t) if t.count > 0 => t.self_ns as f64 / t.count as f64 / unit_ns,
        _ => 0.0,
    }
}

/// Total duration of the spans named `name`, in nanoseconds.
pub fn total_ns(totals: &Totals, name: &str) -> u64 {
    totals.get(name).map_or(0, |t| t.total_ns)
}

pub const US: f64 = 1e3;
pub const MS: f64 = 1e6;

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// The median of `values` (sorted in place); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let origin = now();
        let at = |ms: u64| origin + Duration::from_millis(ms);
        let mut buf = Spans::new(true, origin, 1);
        let parent = buf.id();
        buf.leaf(parent, "child", 0, at(1), at(4));
        buf.record(parent, ROOT, "parent", 0, at(0), at(10));
        let mut trace = Trace::default();
        trace.absorb(buf);
        let totals = trace.totals();
        assert_eq!(totals["parent"].self_ns, 7_000_000);
        assert_eq!(totals["child"].self_ns, 3_000_000);
        assert_eq!(mean(&totals, "parent", MS), 10.0);
    }

    #[test]
    fn disabled_buffers_record_nothing() {
        let origin = now();
        let mut buf = Spans::new(false, origin, 1);
        buf.leaf(ROOT, "x", 0, origin, origin);
        assert!(buf.spans.is_empty());
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }
}
