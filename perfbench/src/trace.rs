//! In-memory span recording for the traced runs.
//!
//! A span is one call into a layer, recorded from the benchmark's side
//! of the call: name, start, end, parent span and request id. Spans are
//! kept in memory while the run measures and written out once at the
//! end. A layer's self time is its spans' durations minus the part of
//! each interval that child spans cover.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u64 = 0;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one traced pass; safe to share across the client
/// threads of the serve workload.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; `f` receives the span's id so nested
    /// calls can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("tracer poisoned").push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("tracer poisoned")
    }
}

/// Self time per span name, in nanoseconds: each span's duration minus
/// the union of its children's intervals.
pub fn self_ns_by_name(spans: &[Span]) -> HashMap<&'static str, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != ROOT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: HashMap<&'static str, u64> = HashMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if b <= a {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        *out.entry(s.name).or_default() += s.ns().saturating_sub(covered);
    }
    out
}

/// Appends the spans of traced pass `pass` as JSON lines.
pub fn write_jsonl(out: &mut String, pass: usize, spans: &[Span]) {
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"pass\":{pass},\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\
             \"start_us\":{:.3},\"end_us\":{:.3}}}",
            s.id,
            s.parent,
            s.request,
            s.name,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
        );
    }
}
