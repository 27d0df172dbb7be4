//! In-memory spans around the benchmark's calls into each layer,
//! written once at exit as Chrome trace-event JSON.
//!
//! A span records its name, start, end and parent; every span of one
//! operation carries that operation's index. A span may also carry
//! `inner` time: work attributed to a child layer that was measured
//! without a span of its own — per-call race analysis inside a check,
//! or the replayed memory-system and work-item time inside a
//! simulation job. Self time is a span's duration minus the part its
//! child spans cover, minus its inner time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary name, e.g. `core.check`.
    pub name: &'static str,
    /// Index of the operation this span belongs to.
    pub op: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in seconds since the recorder was created.
    pub start: f64,
    /// End, in seconds since the recorder was created.
    pub end: f64,
    /// Seconds attributed to a child layer without a span of its own.
    pub inner: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans { t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Spans {
    /// Run `f` inside a span named `name`; returns `f`'s result and the
    /// span's index. Spans opened inside `f` become its children.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: usize,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> (R, usize) {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.t0.elapsed().as_secs_f64();
        self.spans.push(Span { name, op, parent, start, end: start, inner: 0.0 });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end = self.t0.elapsed().as_secs_f64();
        (r, id)
    }

    /// Attribute `secs` of span `id`'s time to a child layer.
    pub fn add_inner(&mut self, id: usize, secs: f64) {
        self.spans[id].inner += secs;
    }

    /// Duration of span `id` in seconds.
    pub fn dur(&self, id: usize) -> f64 {
        self.spans[id].dur()
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Build a recorder from already-recorded spans (for analysis).
    pub fn from_spans(spans: Vec<Span>) -> Spans {
        Spans { t0: Instant::now(), spans, open: Vec::new() }
    }

    /// Total self time per span name, in seconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            *out.entry(s.name).or_default() += s.dur() - coverage(kids) - s.inner;
        }
        out
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete event per span, timestamps in microseconds.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"op\":{},\"span\":{i},\"parent\":{parent},\"inner_us\":{:.3}}}}}",
                s.name,
                s.start * 1e6,
                s.dur() * 1e6,
                s.op,
                s.inner * 1e6
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Seconds an empty `Instant::now()` … `elapsed()` region reads (the
/// median of many). Subtracted once per call from per-call timings, so
/// the clock's own cost is not charged to the timed layer.
pub fn timer_overhead() -> f64 {
    let mut reads: Vec<f64> = (0..1001)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_secs_f64()
        })
        .collect();
    reads.sort_by(f64::total_cmp);
    reads[reads.len() / 2]
}

/// Length of the union of `intervals` (sorted in place).
fn coverage(intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(s, e) in intervals.iter() {
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
