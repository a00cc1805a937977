//! Benchmark-side spans: recorded around the calls the benchmark makes
//! into each layer, kept in memory, and written out at the end as a
//! Chrome trace-event file (readable by Perfetto and `chrome://tracing`).
//!
//! A disabled tracer records nothing and never reads the clock, so the
//! untraced runs that produce the end-to-end numbers pay one branch per
//! span site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. `parent == 0` marks a root; `op` is the request,
/// merge or keystroke the span belongs to (spans of one operation share
/// it).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub op: u64,
    pub tid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name aggregate of the recorded spans.
#[derive(Debug, Clone, Default)]
pub struct SpanStats {
    /// Span durations in milliseconds, in recording order.
    pub durations_ms: Vec<f64>,
    /// Summed self time (duration minus the part covered by children).
    pub self_ms: f64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`; `f` receives the span id to
    /// parent its own child spans on (0 when tracing is off).
    pub fn span<R>(&self, name: &'static str, parent: u64, op: u64, f: impl FnOnce(u64) -> R) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        self.push(id, parent, name, op, start, end);
        out
    }

    /// Records a span whose bounds were measured elsewhere (a replay, or
    /// a latency timed across two calls). Returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(id, parent, name, op, start, end);
        id
    }

    fn push(
        &self,
        id: u64,
        parent: u64,
        name: &'static str,
        op: u64,
        start: Instant,
        end: Instant,
    ) {
        let ns =
            |t: Instant| u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX);
        let span = Span {
            id,
            parent,
            name,
            op,
            tid: TID.with(|t| *t),
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Durations and self times grouped by span name.
    pub fn stats(&self) -> BTreeMap<&'static str, SpanStats> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for s in &spans {
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let entry = out.entry(s.name).or_default();
            entry.durations_ms.push(s.dur_ns() as f64 / 1e6);
            entry.self_ms += (s.dur_ns() - covered) as f64 / 1e6;
        }
        out
    }

    /// The spans as Chrome trace-event JSON (complete `X` events, times
    /// in microseconds), with `meta` as `otherData`.
    pub fn chrome_json(&self, meta: &[(&str, String)]) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"otherData\":{");
        for (i, (k, v)) in meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_str(k), json_str(v));
        }
        out.push_str("},\"traceEvents\":[");
        for (i, s) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{},\"parent\":{},\"op\":{}}}}}",
                json_str(s.name),
                json_str(s.name.split('.').next().unwrap_or(s.name)),
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.id,
                s.parent,
                s.op
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered_ns(intervals: &[(u64, u64)], start: u64, end: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps_and_clips() {
        assert_eq!(covered_ns(&[(0, 10), (5, 20), (30, 40)], 2, 35), 18 + 5);
        assert_eq!(covered_ns(&[], 0, 10), 0);
    }

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span("root", 0, 1, |root| {
            t.span("child", root, 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let stats = t.stats();
        let root = &stats["root"];
        assert!(root.self_ms < root.durations_ms[0]);
        assert!(stats["child"].durations_ms[0] >= 5.0);
    }
}
