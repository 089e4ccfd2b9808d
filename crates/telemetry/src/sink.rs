//! Pluggable event sinks.
//!
//! A sink receives every [`Event`] emitted anywhere in the stack. Sinks
//! must be cheap and non-blocking: they run inline on simulation hot
//! paths. Two implementations ship here — [`RingBufferSink`] (keep the
//! last N in memory) and [`JsonLinesSink`] (serialize to any `Write`).

use std::collections::VecDeque;
use std::io::Write;
use std::sync::Mutex;

use crate::event::{Event, PressureResource, ReplanOutcome, UndeployReason};
use crate::json::Json;

/// Receives emitted events. Implementations must tolerate concurrent
/// calls (`Send + Sync`) and should never panic.
pub trait EventSink: Send + Sync {
    /// Handles one event.
    fn record(&self, event: &Event);
}

/// Keeps the most recent `capacity` events in memory, dropping the
/// oldest on overflow and counting how many were lost.
#[derive(Debug)]
pub struct RingBufferSink {
    inner: Mutex<Ring>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<Event>,
    dropped: u64,
}

impl RingBufferSink {
    /// Creates a ring holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub fn new(capacity: usize) -> RingBufferSink {
        assert!(capacity > 0, "ring buffer sink needs capacity >= 1");
        RingBufferSink {
            inner: Mutex::new(Ring::default()),
            capacity,
        }
    }

    /// Copies out the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.inner
            .lock()
            .expect("ring sink poisoned")
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Number of events lost to overflow so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("ring sink poisoned").dropped
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("ring sink poisoned").events.len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for RingBufferSink {
    fn record(&self, event: &Event) {
        let mut ring = self.inner.lock().expect("ring sink poisoned");
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(event.clone());
    }
}

/// Serializes each event as one JSON object per line to a `Write`.
///
/// Every event becomes `{"event":"<kind>",...fields}` with the fields in
/// declaration order. Write errors are swallowed — telemetry must never
/// take the simulation down.
pub struct JsonLinesSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for JsonLinesSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonLinesSink").finish_non_exhaustive()
    }
}

impl JsonLinesSink {
    /// Wraps any writer (a `File`, `Vec<u8>`, `io::stdout()`, ...).
    pub fn new(out: Box<dyn Write + Send>) -> JsonLinesSink {
        JsonLinesSink {
            out: Mutex::new(out),
        }
    }

    /// Flushes the underlying writer.
    pub fn flush(&self) {
        let _ = self.out.lock().expect("json sink poisoned").flush();
    }
}

impl EventSink for JsonLinesSink {
    fn record(&self, event: &Event) {
        let line = to_json_line(event);
        let mut out = self.out.lock().expect("json sink poisoned");
        let _ = out.write_all(line.as_bytes());
        let _ = out.write_all(b"\n");
    }
}

/// The enums some events carry render as their variant name.
macro_rules! json_from_debug {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Str(format!("{v:?}"))
            }
        }
    )*};
}

json_from_debug!(UndeployReason, ReplanOutcome, PressureResource);

/// Renders one event as a single-line JSON object:
/// `{"event":"<kind>",...fields}`, fields in the order listed here (the
/// declaration order). The patterns are exhaustive, so a new field
/// cannot be left out of the log silently.
pub(crate) fn to_json_line(event: &Event) -> String {
    macro_rules! line {
        ($($variant:ident { $($field:ident),* })*) => {
            match event {$(
                Event::$variant { $($field),* } => Json::obj([("event", Json::from(event.kind()))])
                    $(.with(stringify!($field), $field.clone()))*,
            )*}
        };
    }
    let line = line! {
        SeedDeployed { at_ns, switch, seed, task, poll_interval_ns }
        SeedUndeployed { at_ns, switch, seed, task, reason }
        SeedMigrated { at_ns, from_switch, to_switch, task, state_bytes }
        SeedErrored { at_ns, switch, seed, message }
        PollIssued { at_ns, switch, seed, subjects, latency_ns }
        PollAggregated { at_ns, switch, group, saved }
        PcieSaturation { switch, utilization, saturated }
        ChannelDelivery { at_ns, switch, seed, bytes, latency_ns }
        SolverPhase { phase, elapsed_ns, items }
        ReplanCompleted { at_ns, outcome, actions, dropped_tasks }
        HarvesterReport { at_ns, task, from_switch, bytes, latency_ns }
        SwitchCrashed { at_ns, switch }
        SwitchRestarted { at_ns, switch }
        LinkDown { at_ns, a, b }
        LinkUp { at_ns, a, b }
        SwitchDeclaredFailed { at_ns, switch, missed }
        SeedOrphaned { at_ns, switch, seed, task, has_snapshot }
        SeedShed { at_ns, switch, seed, task, resource, demand, budget }
        SeedRecovered { at_ns, switch, seed, task, cold_start, mttr_ns, attempts }
        RecoveryAbandoned { at_ns, task, seed, attempts }
        DeliveryRetried { at_ns, from_switch, task, attempt }
        DeliveryDeadLettered { at_ns, from_switch, task, attempts }
        ReplanSummary { at_ns, elapsed_us, deploys, migrations, reallocs, undeploys }
        ControlOp { at_ns, op, outcome, elapsed_us }
    };
    line.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deploy(seed: u64) -> Event {
        Event::SeedDeployed {
            at_ns: 1_000,
            switch: 3,
            seed,
            task: "hh".to_string(),
            poll_interval_ns: 50_000,
        }
    }

    #[test]
    fn ring_buffer_retains_and_overflows() {
        let sink = RingBufferSink::new(3);
        for i in 0..5 {
            sink.record(&deploy(i));
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 2);
        let seeds: Vec<u64> = sink
            .events()
            .iter()
            .map(|e| match e {
                Event::SeedDeployed { seed, .. } => *seed,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seeds, [2, 3, 4], "oldest events are dropped first");
    }

    #[test]
    fn json_lines_are_one_object_per_event() {
        let buf: Vec<u8> = Vec::new();
        let line = to_json_line(&deploy(7));
        assert_eq!(
            line,
            "{\"event\":\"seed-deployed\",\"at_ns\":1000,\"switch\":3,\
             \"seed\":7,\"task\":\"hh\",\"poll_interval_ns\":50000}"
        );
        drop(buf);
    }

    #[test]
    fn json_escapes_special_characters() {
        let e = Event::SeedErrored {
            at_ns: 0,
            switch: 0,
            seed: 0,
            message: "bad \"value\"\nline2".to_string(),
        };
        let line = to_json_line(&e);
        assert!(line.contains("bad \\\"value\\\"\\nline2"));
        assert!(!line.contains('\n'));
    }
}
