//! In-memory spans around the bench's calls into each layer.
//!
//! A span is `{name, start, end, parent}`. Spans are only ever pushed to a
//! `Vec` while the benchmark runs and are written out (Chrome trace-event
//! JSON) when it ends. A disabled tracer records nothing, so the untraced
//! pass pays one branch per call site.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use hetsolve::obs::{Json, TraceBuilder};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Handle returned by [`Tracer::begin`]; give it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

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

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let idx = self.spans.len();
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Close a span; spans close in the reverse order they opened.
    pub fn end(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must nest");
        self.spans[idx].end = self.origin.elapsed().as_secs_f64();
    }

    /// Time `f` inside a span. Returns `f`'s value and its duration in
    /// seconds, measured whether or not the tracer records.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name);
        let t = Instant::now();
        let out = f();
        let dt = t.elapsed().as_secs_f64();
        self.end(id);
        (out, dt)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (s) of every closed span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// A span's self time: its duration minus what its children cover.
    pub fn self_time(&self, idx: usize) -> f64 {
        let s = &self.spans[idx];
        let children: f64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(idx))
            .map(|c| c.end - c.start)
            .sum();
        (s.end - s.start) - children
    }

    /// Per span name: how many, their total time and their total self
    /// time (s) — where the traced pass's wall-clock went.
    pub fn summary(&self) -> Json {
        let mut by_name: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
        for (idx, s) in self.spans.iter().enumerate() {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end - s.start;
            e.2 += self.self_time(idx);
        }
        Json::Obj(
            by_name
                .into_iter()
                .map(|(name, (count, total, own))| {
                    let entry = Json::obj([
                        ("count", Json::from(count)),
                        ("total_s", Json::Num(total)),
                        ("self_s", Json::Num(own)),
                    ]);
                    (name.to_string(), entry)
                })
                .collect(),
        )
    }

    /// Chrome trace-event JSON (loads in Perfetto / `chrome://tracing`):
    /// one complete event per span, `args.parent` naming the causing span.
    pub fn to_chrome(&self, meta: &[(&str, Json)]) -> Json {
        let mut tb = TraceBuilder::new();
        tb.name_process(0, "hetbench");
        tb.name_thread(0, 0, "bench thread");
        for (k, v) in meta {
            tb.set_meta(k, v.clone());
        }
        for (idx, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or("bench");
            let mut args = vec![("span".to_string(), Json::from(idx))];
            if let Some(p) = s.parent {
                args.push(("parent".to_string(), Json::from(p)));
                args.push(("parent_name".to_string(), Json::from(self.spans[p].name)));
            }
            tb.span(
                0,
                0,
                layer,
                s.name,
                s.start * 1e6,
                (s.end - s.start) * 1e6,
                args,
            );
        }
        tb.to_json()
    }

    pub fn write_chrome(&self, path: &Path, meta: &[(&str, Json)]) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome(meta).to_string_compact())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("bench.outer");
        let (v, dt) = tr.timed("fem.inner", || 7);
        assert_eq!(v, 7);
        assert!(dt >= 0.0);
        tr.end(outer);
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[0].parent, None);
        assert!(tr.self_time(0) <= tr.spans()[0].end - tr.spans()[0].start);
        assert_eq!(tr.durations("fem.inner").len(), 1);
        let summary = tr.summary();
        let outer_row = summary.get("bench.outer").expect("summary row");
        assert_eq!(outer_row.get("count").and_then(Json::as_f64), Some(1.0));
        assert!(
            outer_row.get("self_s").and_then(Json::as_f64)
                <= outer_row.get("total_s").and_then(Json::as_f64)
        );
        let json = tr.to_chrome(&[("seed", Json::from(1usize))]);
        let events = json.get("traceEvents").expect("traceEvents").items();
        // two metadata rows + two spans
        assert_eq!(events.len(), 4);
        let inner = &events[3];
        assert_eq!(inner.get("cat").and_then(Json::as_str), Some("fem"));
        assert_eq!(
            inner
                .get("args")
                .and_then(|a| a.get("parent_name"))
                .and_then(Json::as_str),
            Some("bench.outer")
        );
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let mut tr = Tracer::new(false);
        let id = tr.begin("x.y");
        tr.end(id);
        let (_, dt) = tr.timed("x.z", || std::hint::black_box(1 + 1));
        assert!(dt >= 0.0);
        assert!(tr.spans().is_empty());
    }
}
