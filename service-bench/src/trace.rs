//! In-memory span recorder for the traced (`--trace`) run.
//!
//! Spans are recorded from the benchmark's own code, around each public
//! call a request path makes; nothing inside the program is instrumented.
//! They stay in memory and are written once, at exit, as
//!
//! ```text
//! {"workload":"daemon-fresh","seed":904212,"spans":[
//!   {"id":0,"request":0,"name":"service.parse_request","start_us":12.5,"end_us":19.25,"parent":null},
//!   ...]}
//! ```
//!
//! `start_us`/`end_us` are microseconds since the recorder was created;
//! `request` groups the spans of one replayed request; `parent` is the
//! `id` of the enclosing span, or `null` for a top-level layer call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Replayed request this span belongs to.
    pub request: usize,
    /// Layer call, named `<crate>.<call>`.
    pub name: &'static str,
    /// Microseconds since the recorder's origin.
    pub start_us: f64,
    /// Microseconds since the recorder's origin.
    pub end_us: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in microseconds.
    #[must_use]
    pub fn us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Collects spans against one time origin.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    fn offset_us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span and returns its result and the span's id.
    pub fn span<T>(
        &mut self,
        request: usize,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (out, self.record(request, name, parent, start, end))
    }

    /// Records a span whose bounds were measured elsewhere (a solver
    /// attempt reported by the supervisor, say).
    pub fn record(
        &mut self,
        request: usize,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            request,
            name,
            start_us: self.offset_us(start),
            end_us: self.offset_us(end),
            parent,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Records `elapsed` as a span starting at `start`.
    pub fn record_for(
        &mut self,
        request: usize,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        elapsed: Duration,
    ) -> usize {
        self.record(request, name, parent, start, start + elapsed)
    }

    /// Every span, in recording order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per request in `requests` that has any span, the summed duration
    /// (µs) of its top-level spans named in `layers`.
    #[must_use]
    pub fn layer_sums_us(&self, layers: &[&str], requests: Range<usize>) -> Vec<f64> {
        let mut sums: BTreeMap<usize, f64> = BTreeMap::new();
        for s in &self.spans {
            if requests.contains(&s.request) {
                let sum = sums.entry(s.request).or_default();
                if s.parent.is_none() && layers.contains(&s.name) {
                    *sum += s.us();
                }
            }
        }
        sums.into_values().collect()
    }

    /// The trace file (see the module docs).
    #[must_use]
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{id},\"request\":{},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{parent}}}",
                s.request, s.name, s.start_us, s.end_us
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    #[test]
    fn nested_spans_sum_only_top_level_layers() {
        let mut rec = Recorder::default();
        let ((), outer) = rec.span(0, "a.outer", None, || {
            std::thread::sleep(Duration::from_millis(2));
        });
        let t = Instant::now();
        rec.record_for(0, "a.inner", Some(outer), t, Duration::from_millis(1));
        rec.span(0, "a.next", None, || ());
        rec.span(1, "a.outer", None, || ());

        let sums = rec.layer_sums_us(&["a.outer", "a.inner", "a.next"], 0..2);
        assert_eq!(sums.len(), 2);
        assert_eq!(rec.layer_sums_us(&["a.outer"], 1..5).len(), 1);
        let first = rec.spans()[0].us() + rec.spans()[2].us();
        assert!(
            (sums[0] - first).abs() < 1e-9,
            "child spans are not re-added"
        );
        assert!(rec.spans()[0].us() >= 2000.0);

        let doc = Value::parse(&rec.to_json("w", 7)).expect("trace file parses");
        let spans = doc.get("spans").and_then(Value::as_array).expect("spans");
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].get("parent").and_then(Value::as_f64), Some(0.0));
        assert_eq!(spans[0].get("parent"), Some(&Value::Null));
    }
}
