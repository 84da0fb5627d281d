//! Crash-time flight recorder: a bounded ring of recent structured
//! events, dumped as JSON when something goes wrong.
//!
//! Metrics aggregate and traces need a viewer; when the watchdog evicts a
//! lane or `crash_at` kills a run, what the operator actually wants is
//! *the last N things that happened, in order, with ids* — a black box.
//! [`FlightRecorder`] keeps that ring always on (recording is a
//! `VecDeque` push of a small struct; no I/O, no formatting), and
//! [`FlightRecorder::dump_to`] serializes it only on the failure paths:
//! watchdog breach, eviction, typed `RunError`, or injected crash.
//!
//! Timestamps are **modeled seconds** from the deterministic
//! `ModuleClock`, not wall time — so a dump from a failing CI run is
//! bit-reproducible locally, and two dumps can be diffed. The ring state
//! itself is checkpointed through `hetsolve-ckpt` (the `wire_struct!`
//! lists below; the `FLIT` section of a server image), so a restored
//! server remembers the events that led up to the checkpoint — a crash
//! shortly after restore still dumps a full causal window.

use std::collections::VecDeque;
use std::io;
use std::path::Path;

use crate::json::Json;

/// Schema tag embedded in every dump.
pub const FLIGHT_SCHEMA: &str = "hetsolve/flight-recorder/v1";

/// Default ring capacity (events), sized so a full watchdog ladder plus
/// the per-step events of every in-flight request fit comfortably.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// One structured event. `seq` is a monotonically increasing sequence
/// number assigned by the recorder (it survives ring overflow and
/// checkpoint/restore, so gaps reveal dropped events).
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    pub seq: u64,
    /// Modeled-clock timestamp (s).
    pub t_s: f64,
    /// Event kind, e.g. `admitted`, `step`, `watchdog_breach`, `crash`.
    pub kind: String,
    /// Request id, when the event concerns one.
    pub request: Option<u64>,
    /// Lane index, when the event concerns one.
    pub lane: Option<u64>,
    /// Step or tick counter, when meaningful.
    pub step: Option<u64>,
    /// Free-form human detail (decision, reason, rung).
    pub detail: String,
}

hetsolve_ckpt::wire_struct!(FlightEvent {
    seq,
    t_s,
    kind,
    request,
    lane,
    step,
    detail
});

impl FlightEvent {
    pub fn to_json(&self) -> Json {
        let mut m = std::collections::BTreeMap::new();
        m.insert("seq".into(), Json::from(self.seq as f64));
        m.insert("t_s".into(), Json::from(self.t_s));
        m.insert("kind".into(), Json::from(self.kind.as_str()));
        if let Some(r) = self.request {
            m.insert("request".into(), Json::from(r as f64));
        }
        if let Some(l) = self.lane {
            m.insert("lane".into(), Json::from(l as f64));
        }
        if let Some(s) = self.step {
            m.insert("step".into(), Json::from(s as f64));
        }
        if !self.detail.is_empty() {
            m.insert("detail".into(), Json::from(self.detail.as_str()));
        }
        Json::Obj(m)
    }
}

/// Bounded ring buffer of [`FlightEvent`]s. Always cheap to record into;
/// serialized only on dump.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecorder {
    capacity: usize,
    events: VecDeque<FlightEvent>,
    next_seq: u64,
    dropped: u64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            events: VecDeque::with_capacity(capacity),
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Record one event; the oldest event is dropped when full.
    pub fn record(
        &mut self,
        t_s: f64,
        kind: &str,
        request: Option<u64>,
        lane: Option<u64>,
        step: Option<u64>,
        detail: impl Into<String>,
    ) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(FlightEvent {
            seq: self.next_seq,
            t_s,
            kind: kind.to_string(),
            request,
            lane,
            step,
            detail: detail.into(),
        });
        self.next_seq += 1;
    }

    /// Events currently in the ring, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> {
        self.events.iter()
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted from the ring since construction/restore.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Next sequence number to be assigned (== total events recorded).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Rebuild from checkpointed parts (events oldest first). Excess
    /// events beyond `capacity` are dropped from the front, counted.
    /// `capacity` is outside input: nothing is reserved for it.
    fn from_parts(
        capacity: usize,
        mut events: Vec<FlightEvent>,
        next_seq: u64,
        dropped: u64,
    ) -> Self {
        let capacity = capacity.max(1);
        let excess = events.len().saturating_sub(capacity);
        events.drain(..excess);
        FlightRecorder {
            capacity,
            events: events.into(),
            next_seq,
            dropped: dropped.saturating_add(excess as u64),
        }
    }

    /// Serialize the ring as a dump document:
    /// `{schema, trigger, dropped, events: [...]}`.
    pub fn to_json(&self, trigger: &str) -> Json {
        Json::obj([
            ("schema", Json::from(FLIGHT_SCHEMA)),
            ("trigger", Json::from(trigger)),
            ("dropped", Json::from(self.dropped as f64)),
            (
                "events",
                Json::Arr(self.events.iter().map(|e| e.to_json()).collect()),
            ),
        ])
    }

    /// Write the dump to `path` (parent directories created). `trigger`
    /// names the failure that fired the dump: `watchdog_breach`,
    /// `eviction`, `run_error`, `crash`.
    pub fn dump_to(&self, path: &Path, trigger: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json(trigger).to_string_pretty())
    }
}

hetsolve_ckpt::wire_struct!(
    FlightRecorder { capacity, events, next_seq, dropped } => FlightRecorder::from_parts
);

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(rec: &mut FlightRecorder, i: u64) {
        rec.record(i as f64 * 0.1, "step", Some(i), Some(0), Some(i), "");
    }

    #[test]
    fn ring_is_bounded_and_keeps_newest() {
        let mut rec = FlightRecorder::new(4);
        for i in 0..10 {
            ev(&mut rec, i);
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.dropped(), 6);
        assert_eq!(rec.next_seq(), 10);
        let seqs: Vec<u64> = rec.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest dropped, order kept");
    }

    #[test]
    fn from_parts_round_trips_and_enforces_capacity() {
        let mut rec = FlightRecorder::new(8);
        for i in 0..5 {
            ev(&mut rec, i);
        }
        let back = FlightRecorder::from_parts(
            rec.capacity(),
            rec.events().cloned().collect(),
            rec.next_seq(),
            rec.dropped(),
        );
        assert_eq!(back, rec);
        // restoring into a smaller capacity drops from the front
        let small = FlightRecorder::from_parts(2, rec.events().cloned().collect(), 5, 0);
        assert_eq!(small.len(), 2);
        assert_eq!(small.dropped(), 3);
        assert_eq!(small.events().map(|e| e.seq).collect::<Vec<_>>(), [3, 4]);
        // a capacity no machine has memory for is a number, not a reservation
        let huge = FlightRecorder::from_parts(usize::MAX >> 8, Vec::new(), 0, 0);
        assert_eq!((huge.capacity(), huge.len()), (usize::MAX >> 8, 0));
    }

    #[test]
    fn dump_document_has_schema_trigger_and_ordered_events() {
        let mut rec = FlightRecorder::new(16);
        rec.record(0.0, "admitted", Some(3), None, None, "queued depth=1");
        rec.record(
            0.5,
            "watchdog_breach",
            None,
            Some(1),
            Some(2),
            "overrun 0.4s",
        );
        let j = rec.to_json("watchdog_breach");
        assert_eq!(
            j.get("schema").and_then(|s| s.as_str()),
            Some(FLIGHT_SCHEMA)
        );
        assert_eq!(
            j.get("trigger").and_then(|s| s.as_str()),
            Some("watchdog_breach")
        );
        let events = j.get("events").unwrap().items();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].get("kind").and_then(|k| k.as_str()),
            Some("admitted")
        );
        assert_eq!(events[1].get("lane").and_then(|l| l.as_f64()), Some(1.0));
        // round-trips through the parser
        let text = j.to_string_pretty();
        let parsed = crate::json::parse_json(&text).unwrap();
        assert_eq!(parsed.get("events").unwrap().items().len(), 2);
    }

    #[test]
    fn dump_to_creates_parent_dirs() {
        let dir = std::env::temp_dir().join("hs-flight-test").join("nested");
        let _ = std::fs::remove_dir_all(dir.parent().unwrap());
        let path = dir.join("dump.json");
        let mut rec = FlightRecorder::default();
        rec.record(1.0, "crash", None, None, Some(7), "injected");
        rec.dump_to(&path, "crash").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"trigger\": \"crash\""));
        std::fs::remove_dir_all(dir.parent().unwrap()).unwrap();
    }
}
