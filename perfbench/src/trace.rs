//! In-memory span recording for the traced run. Spans are recorded from
//! the benchmark's own code around calls into each layer's public
//! functions, kept in memory, and written out as JSON lines at the end.

use std::collections::HashMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded (or reserved) span.
pub type SpanId = u32;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Request the span belongs to; `0` for per-run probes.
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: the name's prefix before the first
    /// `.` (`engine`, `kernels`, `core`, `ir`, `smat`, `autotune`,
    /// `bench`).
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span sink shared by every benchmark thread.
pub struct Tracer {
    t0: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(t0: Instant) -> Tracer {
        Tracer { t0, next: AtomicU32::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// Allocate an id for a span whose interval is recorded later (so its
    /// children can name it as their parent first).
    pub fn reserve(&self) -> SpanId {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Record an interval under a reserved id.
    pub fn record_as(
        &self,
        id: SpanId,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        req: u64,
    ) {
        let span = Span { id, name, start_ns: self.ns(start), end_ns: self.ns(end), parent, req };
        self.spans.lock().expect("tracer mutex poisoned by a panicking thread").push(span);
    }

    /// Record an interval under a fresh id.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        req: u64,
    ) -> SpanId {
        let id = self.reserve();
        self.record_as(id, name, start, end, parent, req);
        id
    }

    /// Time `f` as a span.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, req);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer mutex poisoned by a panicking thread").clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover.
pub fn self_times(spans: &[Span]) -> HashMap<SpanId, u64> {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut cursor) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Mean duration in seconds of the spans called `name`, with their count.
pub fn mean_secs(spans: &[Span], name: &str) -> (f64, usize) {
    let durs: Vec<u64> = spans.iter().filter(|s| s.name == name).map(Span::dur_ns).collect();
    if durs.is_empty() {
        return (f64::NAN, 0);
    }
    (durs.iter().sum::<u64>() as f64 / durs.len() as f64 / 1e9, durs.len())
}

/// Write every span as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \
             \"req\": {}}}",
            s.id, s.name, s.start_ns, s.end_ns, s.req
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span { id, name: "bench.x", start_ns, end_ns, parent, req: 1 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, 100, None),
            span(2, 10, 40, Some(1)),
            span(3, 30, 60, Some(1)),
            // Outside the parent's interval: covers nothing of it.
            span(4, 200, 300, Some(1)),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 50);
        assert_eq!(st[&2], 30);
        assert_eq!(st[&4], 100);
    }
}
