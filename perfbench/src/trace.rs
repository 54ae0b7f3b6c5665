//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), start and end on the tracer's
//! clock, the span that caused it, and the operation (job) it belongs
//! to. Spans are kept in memory while a phase runs and written out as
//! Chrome trace-event JSON when the run ends; a layer's *self time* is
//! the time its spans cover minus the part their children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span inside its tracer.
pub type SpanId = u32;

/// Spans kept per phase. Later spans are counted and dropped, so self
/// times cover the stored spans only. Bounds memory on the ladder, which
/// makes one runtime call per task.
const MAX_SPANS: usize = 40_000;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    job: u64,
    tid: u64,
}

/// Span store of one traced phase.
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
    dropped: Mutex<u64>,
}

fn thread_tag() -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    std::thread::current().id().hash(&mut h);
    h.finish() % 100_000
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
            dropped: Mutex::new(0),
        }
    }

    /// Nanoseconds on this tracer's clock at `t`.
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::close`]. Returns `None`
    /// once the store is full.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, job: u64) -> Option<SpanId> {
        self.push(name, Instant::now(), None, parent, job)
    }

    /// Close an open span now.
    pub fn close(&self, id: Option<SpanId>) {
        self.close_at(id, Instant::now());
    }

    /// Close an open span at `end`.
    pub fn close_at(&self, id: Option<SpanId>, end: Instant) {
        if let Some(id) = id {
            let end_ns = self.ns(end);
            let mut spans = self.spans.lock().expect("span store poisoned");
            spans[id as usize].end_ns = end_ns;
        }
    }

    /// Record a finished span.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        job: u64,
    ) -> Option<SpanId> {
        self.push(name, start, Some(end), parent, job)
    }

    fn push(
        &self,
        name: &'static str,
        start: Instant,
        end: Option<Instant>,
        parent: Option<SpanId>,
        job: u64,
    ) -> Option<SpanId> {
        let start_ns = self.ns(start);
        let end_ns = end.map_or(start_ns, |e| self.ns(e));
        let mut spans = self.spans.lock().expect("span store poisoned");
        if spans.len() >= MAX_SPANS {
            *self.dropped.lock().expect("span store poisoned") += 1;
            return None;
        }
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            job,
            tid: thread_tag(),
        });
        Some((spans.len() - 1) as SpanId)
    }

    /// Self time per layer in ms: each span's duration minus the union
    /// of its children's intervals clipped to it, summed by the layer
    /// prefix of the span name.
    pub fn self_ms_by_layer(&self) -> BTreeMap<String, f64> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns.max(s.start_ns)));
            }
        }
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let (lo, hi) = (s.start_ns, s.end_ns.max(s.start_ns));
            let kids = &mut children[i];
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.clamp(lo, hi), b.clamp(lo, hi));
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
            *out.entry(layer).or_insert(0.0) += (hi - lo - covered.min(hi - lo)) as f64 / 1e6;
        }
        out
    }

    /// Spans that did not fit in the store.
    pub fn dropped(&self) -> u64 {
        *self.dropped.lock().expect("span store poisoned")
    }

    /// Append this tracer's spans as Chrome trace events (`ph: "X"`,
    /// microseconds) under process id `pid`, named `phase`.
    pub fn write_chrome(&self, out: &mut impl Write, pid: usize, phase: &str, first: &mut bool) {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut sep = |out: &mut dyn Write| {
            if !*first {
                let _ = out.write_all(b",\n");
            }
            *first = false;
        };
        sep(out);
        let _ = write!(
            out,
            r#"{{"ph":"M","pid":{pid},"name":"process_name","args":{{"name":"{phase}"}}}}"#
        );
        for (i, s) in spans.iter().enumerate() {
            sep(out);
            let parent = s.parent.map_or(-1, i64::from);
            let _ = write!(
                out,
                r#"{{"ph":"X","pid":{pid},"tid":{},"name":"{}","cat":"{}","ts":{:.3},"dur":{:.3},"args":{{"id":{i},"parent":{parent},"job":{}}}}}"#,
                s.tid,
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.job,
            );
        }
    }
}

/// Time `f` under a span when tracing, or just run it.
pub fn span<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
    job: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        None => f(),
        Some(t) => {
            let start = Instant::now();
            let r = f();
            t.record(name, start, Instant::now(), parent, job);
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::new();
        let base = t.t0;
        let at = |ms: u64| base + Duration::from_millis(ms);
        let root = t.record("bench.op", at(0), at(10), None, 1);
        t.record("runtime.a", at(1), at(4), root, 1);
        t.record("runtime.b", at(3), at(6), root, 1);
        t.record("service.c", at(8), at(12), root, 1);
        let by = t.self_ms_by_layer();
        // Children cover [1,6] and [8,10] of the root's [0,10]: 7 ms.
        assert!((by["bench"] - 3.0).abs() < 1e-9, "{by:?}");
        assert!((by["runtime"] - 6.0).abs() < 1e-9, "{by:?}");
        assert!((by["service"] - 4.0).abs() < 1e-9, "{by:?}");
    }
}
