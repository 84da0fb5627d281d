//! Chrome-trace-event timeline export.
//!
//! [`TraceBuilder`] collects complete ("ph":"X") spans, counter ("ph":"C")
//! samples and process/thread metadata, and serializes them in the Chrome
//! trace-event JSON format understood by Perfetto (`ui.perfetto.dev`) and
//! `chrome://tracing`. A traced `EBE-MCG@CPU-GPU` run reproduces the
//! paper's Fig. 4 overlap diagram: one *process* per process set, one
//! *thread* per device lane (CPU / GPU / C2C link), the predictor spans
//! visibly hidden behind the solver spans, and the adaptive window `s` as a
//! counter track.
//!
//! Timestamps are microseconds (the format's native unit). Modeled
//! timelines pass modeled seconds scaled by 1e6; wall-clock timelines pass
//! real elapsed microseconds — the schema is identical.

use std::io;
use std::path::Path;

use crate::json::Json;

/// Schema identifier embedded in every exported trace (`otherData.schema`).
pub const TRACE_SCHEMA: &str = "hetsolve/trace-event/v1";

/// One trace event. `dur_us` is `None` for counter samples.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    pub name: String,
    /// Category: "cpu", "gpu", "link", "wall", ...
    pub cat: String,
    /// "X" (complete span), "C" (counter), or the flow
    /// phases "s"/"t"/"f" (start/step/end).
    pub ph: char,
    /// Process id — one per process set in the pipelined methods.
    pub pid: usize,
    /// Thread id — one per device lane.
    pub tid: usize,
    /// Start timestamp in microseconds.
    pub ts_us: f64,
    /// Span duration in microseconds (spans only).
    pub dur_us: Option<f64>,
    /// Flow-event binding id (flow phases only). Stable per request, so a
    /// case's life is followable across lanes and restarts.
    pub id: Option<u64>,
    /// Extra payload rendered into `args`.
    pub args: Vec<(String, Json)>,
}

/// Builder for one trace file.
#[derive(Debug, Clone, Default)]
pub struct TraceBuilder {
    events: Vec<TraceEvent>,
    /// (pid, name) and (pid, tid, name) metadata.
    process_names: Vec<(usize, String)>,
    thread_names: Vec<(usize, usize, String)>,
    meta: Vec<(String, Json)>,
}

impl TraceBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Label a process row (e.g. "process set A").
    pub fn name_process(&mut self, pid: usize, name: &str) {
        self.process_names.push((pid, name.to_string()));
    }

    /// Label a thread row (e.g. "GPU (solver)").
    pub fn name_thread(&mut self, pid: usize, tid: usize, name: &str) {
        self.thread_names.push((pid, tid, name.to_string()));
    }

    /// Attach run-level metadata (method label, tolerance, ...) exported
    /// under `otherData`.
    pub fn set_meta(&mut self, key: &str, value: Json) {
        self.meta.push((key.to_string(), value));
    }

    /// Record a complete span. Times are in microseconds.
    #[allow(clippy::too_many_arguments, reason = "the fields of one trace event")]
    pub fn span(
        &mut self,
        pid: usize,
        tid: usize,
        cat: &str,
        name: &str,
        ts_us: f64,
        dur_us: f64,
        args: Vec<(String, Json)>,
    ) {
        self.events.push(TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: 'X',
            pid,
            tid,
            ts_us,
            dur_us: Some(dur_us),
            id: None,
            args,
        });
    }

    #[allow(clippy::too_many_arguments, reason = "the fields of one flow event")]
    fn flow(
        &mut self,
        ph: char,
        pid: usize,
        tid: usize,
        cat: &str,
        name: &str,
        ts_us: f64,
        id: u64,
    ) {
        self.events.push(TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph,
            pid,
            tid,
            ts_us,
            dur_us: None,
            id: Some(id),
            args: Vec::new(),
        });
    }

    /// Begin a flow (ph "s"). Perfetto draws an arrow from here to the
    /// next flow step/end with the same `id`.
    pub fn flow_start(
        &mut self,
        pid: usize,
        tid: usize,
        cat: &str,
        name: &str,
        ts_us: f64,
        id: u64,
    ) {
        self.flow('s', pid, tid, cat, name, ts_us, id);
    }

    /// Continue a flow (ph "t") — an intermediate hop, possibly on a
    /// different pid/tid than the start.
    pub fn flow_step(
        &mut self,
        pid: usize,
        tid: usize,
        cat: &str,
        name: &str,
        ts_us: f64,
        id: u64,
    ) {
        self.flow('t', pid, tid, cat, name, ts_us, id);
    }

    /// End a flow (ph "f", binding-point "e").
    pub fn flow_end(&mut self, pid: usize, tid: usize, cat: &str, name: &str, ts_us: f64, id: u64) {
        self.flow('f', pid, tid, cat, name, ts_us, id);
    }

    /// Record a counter sample (rendered as a step chart in Perfetto).
    pub fn counter(&mut self, pid: usize, name: &str, ts_us: f64, series: &[(&str, f64)]) {
        self.events.push(TraceEvent {
            name: name.to_string(),
            cat: "counter".to_string(),
            ph: 'C',
            pid,
            tid: 0,
            ts_us,
            dur_us: None,
            id: None,
            args: series
                .iter()
                .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                .collect(),
        });
    }

    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serialize to the Chrome trace-event JSON object format.
    pub fn to_json(&self) -> Json {
        let mut events: Vec<Json> = Vec::with_capacity(
            self.events.len() + self.process_names.len() + self.thread_names.len(),
        );
        for (pid, name) in &self.process_names {
            events.push(meta_event("process_name", *pid, 0, name));
        }
        for (pid, tid, name) in &self.thread_names {
            events.push(meta_event("thread_name", *pid, *tid, name));
        }
        for e in &self.events {
            let mut obj = vec![
                ("name", Json::Str(e.name.clone())),
                ("cat", Json::Str(e.cat.clone())),
                ("ph", Json::Str(e.ph.to_string())),
                ("pid", Json::from(e.pid)),
                ("tid", Json::from(e.tid)),
                ("ts", Json::Num(e.ts_us)),
            ];
            if let Some(dur) = e.dur_us {
                obj.push(("dur", Json::Num(dur)));
            }
            if let Some(id) = e.id {
                // flow ids are rendered as strings: u64 survives JSON
                obj.push(("id", Json::Str(format!("{id:#x}"))));
            }
            if e.ph == 'f' {
                obj.push(("bp", Json::from("e"))); // bind to enclosing slice
            }
            if !e.args.is_empty() {
                obj.push(("args", Json::Obj(e.args.iter().cloned().collect())));
            }
            events.push(Json::obj(obj));
        }
        let mut other: Vec<(&'static str, Json)> = vec![("schema", Json::from(TRACE_SCHEMA))];
        let extra: Json = Json::Obj(self.meta.iter().cloned().collect());
        other.push(("run", extra));
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::from("ms")),
            ("otherData", Json::obj(other)),
        ])
    }

    /// Write the trace to `path` (pretty-printed; Perfetto accepts both).
    pub fn write_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_json().to_string_pretty())
    }
}

/// Stable flow id for a request. Derived purely from the request id (no
/// lane, tick or restart state), so the same case carries the same flow id
/// on whichever lane it lands after a restart — Perfetto then draws one
/// continuous arrow chain across lanes. Offset by 1 so id 0 stays valid
/// (flow id 0 is reserved-looking in some viewers).
pub fn flow_id_for_request(request_id: u64) -> u64 {
    request_id.wrapping_add(1)
}

fn meta_event(kind: &str, pid: usize, tid: usize, name: &str) -> Json {
    Json::obj([
        ("name", Json::from(kind)),
        ("ph", Json::from("M")),
        ("pid", Json::from(pid)),
        ("tid", Json::from(tid)),
        ("args", Json::obj([("name", Json::from(name))])),
    ])
}

/// Check that spans on each (pid, tid) lane are non-overlapping — a lane is
/// a serial device timeline, so overlap means the exporter mislabeled
/// concurrency. Returns the offending pair on failure. `tol_us` absorbs
/// floating-point rounding at span boundaries.
pub fn validate_lane_serialization(
    events: &[TraceEvent],
    tol_us: f64,
) -> Result<(), Box<(TraceEvent, TraceEvent)>> {
    let mut lanes: std::collections::BTreeMap<(usize, usize), Vec<&TraceEvent>> =
        std::collections::BTreeMap::new();
    for e in events.iter().filter(|e| e.ph == 'X') {
        lanes.entry((e.pid, e.tid)).or_default().push(e);
    }
    for spans in lanes.values_mut() {
        spans.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
        for pair in spans.windows(2) {
            let end = pair[0].ts_us + pair[0].dur_us.unwrap_or(0.0);
            if pair[1].ts_us < end - tol_us {
                return Err(Box::new((pair[0].clone(), pair[1].clone())));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

    fn sample() -> TraceBuilder {
        let mut t = TraceBuilder::new();
        t.name_process(0, "process set A");
        t.name_thread(0, 1, "GPU (solver)");
        t.set_meta("method", Json::from("EBE-MCG@CPU-GPU"));
        t.span(
            0,
            1,
            "gpu",
            "solver",
            0.0,
            100.0,
            vec![("iterations".to_string(), Json::from(42usize))],
        );
        t.span(0, 0, "cpu", "predictor", 10.0, 50.0, vec![]);
        t.counter(0, "window", 0.0, &[("s", 4.0)]);
        t
    }

    #[test]
    fn export_parses_and_has_schema() {
        let text = sample().to_json().to_string_pretty();
        let v = parse_json(&text).unwrap();
        assert_eq!(
            v.get("otherData").unwrap().get("schema").unwrap().as_str(),
            Some(TRACE_SCHEMA)
        );
        let events = v.get("traceEvents").unwrap().items();
        // 2 metadata + 2 spans + 1 counter
        assert_eq!(events.len(), 5);
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("dur").and_then(Json::as_f64) == Some(100.0)
        }));
    }

    #[test]
    fn lanes_serial_passes_for_disjoint_spans() {
        let mut t = TraceBuilder::new();
        t.span(0, 0, "cpu", "a", 0.0, 10.0, vec![]);
        t.span(0, 0, "cpu", "b", 10.0, 10.0, vec![]);
        t.span(0, 1, "gpu", "c", 5.0, 10.0, vec![]); // other lane may overlap
        assert!(validate_lane_serialization(t.events(), 1e-6).is_ok());
    }

    #[test]
    fn lanes_serial_catches_overlap() {
        let mut t = TraceBuilder::new();
        t.span(0, 0, "cpu", "a", 0.0, 10.0, vec![]);
        t.span(0, 0, "cpu", "b", 5.0, 10.0, vec![]);
        let err = validate_lane_serialization(t.events(), 1e-6).unwrap_err();
        assert_eq!(err.0.name, "a");
        assert_eq!(err.1.name, "b");
    }

    /// A span name with every JSON-hostile character class must survive
    /// export and re-parse byte-for-byte.
    #[test]
    fn span_names_are_json_escaped() {
        let hostile = "fused \"MCG\" \\ solve\n\tπ/2 \u{1} end";
        let mut t = TraceBuilder::new();
        t.span(0, 0, "cpu", hostile, 0.0, 1.0, vec![]);
        let text = t.to_json().to_string_pretty();
        let v = parse_json(&text).expect("escaped export must stay valid JSON");
        let name = v.get("traceEvents").unwrap().items()[0]
            .get("name")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        assert_eq!(name, hostile);
    }

    /// An empty builder still exports a complete, parseable document with
    /// the schema tag and an empty (not absent) traceEvents array.
    #[test]
    fn empty_trace_exports_valid_document() {
        let t = TraceBuilder::new();
        assert!(t.is_empty());
        let text = t.to_json().to_string_pretty();
        let v = parse_json(&text).unwrap();
        assert_eq!(v.get("traceEvents").unwrap().items().len(), 0);
        assert_eq!(
            v.get("otherData").unwrap().get("schema").unwrap().as_str(),
            Some(TRACE_SCHEMA)
        );
    }

    /// Flow events serialize with the binding id and the "f" phase gets
    /// the enclosing-slice binding point.
    #[test]
    fn flow_events_carry_stable_ids() {
        let id = flow_id_for_request(41);
        assert_eq!(id, 42);
        // purely a function of the request id: stable across "restarts"
        assert_eq!(flow_id_for_request(41), id);
        let mut t = TraceBuilder::new();
        t.flow_start(0, 0, "request", "admitted", 0.0, id);
        t.flow_step(1, 1, "request", "step", 5.0, id); // another lane
        t.flow_end(2, 1, "request", "done", 9.0, id); // a third lane
        let text = t.to_json().to_string_pretty();
        let v = parse_json(&text).unwrap();
        let events = v.get("traceEvents").unwrap().items();
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(Json::as_str))
            .collect();
        assert_eq!(phases, ["s", "t", "f"]);
        // all three flow hops share one id even though pids differ
        let ids: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("id").and_then(Json::as_str))
            .collect();
        assert_eq!(ids, ["0x2a", "0x2a", "0x2a"]);
        let end = &events[2];
        assert_eq!(end.get("bp").and_then(Json::as_str), Some("e"));
    }
}
