//! Harness-side tracing for the `--trace 1` run.
//!
//! The generator thread opens a span around each call into a layer;
//! telemetry events the layers already emit (`SolverPhase`,
//! `ReplanSummary`, `ControlOp`, `PollIssued`) arrive through a sink and
//! become child spans of whatever harness span was open when they fired.
//! Such events report work that is over, innermost first: solver phases,
//! then the replan they ran in, then the control op that replanned. Each
//! later one adopts the earlier ones, so the tree reads harness span →
//! served op → replan → solver phase.
//! Everything stays in memory until [`Tracer::document`] renders
//! `trace.json`. Nothing here touches another crate: the spans sit
//! around calls, not inside them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use farm_telemetry::{Event, EventSink};

use crate::json::Json;

/// Spans kept verbatim for `trace.json`; later ones still count in the
/// per-name totals.
const MAX_KEPT_SPANS: usize = 200_000;

/// "No span": the parent of a root span.
const NO_SPAN: u32 = u32::MAX;

struct Span {
    name: u32,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u64,
}

/// Totals of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Time covered by direct children; self time is the difference.
    pub child_ns: u64,
}

impl NameTotals {
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

/// A finished event span that may still be adopted.
struct Orphan {
    id: u32,
    dur_ns: u64,
    parent: u32,
}

#[derive(Default)]
struct Store {
    /// The first [`MAX_KEPT_SPANS`] spans; a span's id is its index here
    /// while it is kept.
    spans: Vec<Span>,
    /// What events said about themselves, by series name: durations in
    /// microseconds under the span's name, plan sizes under
    /// `core.plan_actions`. Medians of these are per-layer metrics.
    samples: BTreeMap<String, Vec<f64>>,
    /// Solver-phase time seen since the last replan summary: a replan
    /// minus its solver phases is what committing the plan cost.
    pending_solver_ns: u64,
    /// Event spans under the open harness span that a later event of
    /// the same operation may still adopt: solver phases wait for their
    /// replan, both wait for their control op.
    orphan_phases: Vec<Orphan>,
    orphan_replans: Vec<Orphan>,
    /// Name of every span ever opened, kept or not, by span id — what a
    /// child needs to find its parent's totals.
    name_of: Vec<u32>,
    names: Vec<String>,
    totals: Vec<NameTotals>,
}

impl Store {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i as u32;
        }
        self.names.push(name.to_string());
        self.totals.push(NameTotals::default());
        (self.names.len() - 1) as u32
    }

    /// Registers a span that starts now and returns its id.
    fn open(&mut self, name: &str, start_ns: u64, parent: u32, request: u64) -> u32 {
        let name = self.intern(name);
        let id = self.name_of.len() as u32;
        self.name_of.push(name);
        if self.spans.len() < MAX_KEPT_SPANS {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                request,
            });
        }
        id
    }

    fn close(&mut self, id: u32, start_ns: u64, end_ns: u64, parent: u32) {
        let dur = end_ns.saturating_sub(start_ns);
        let t = &mut self.totals[self.name_of[id as usize] as usize];
        t.count += 1;
        t.total_ns += dur;
        if let Some(&parent_name) = self.name_of.get(parent as usize) {
            self.totals[parent_name as usize].child_ns += dur;
        }
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end_ns;
        }
    }

    /// Moves finished spans from under their parents to under
    /// `new_parent`.
    fn adopt(&mut self, orphans: Vec<Orphan>, new_parent: u32) {
        for Orphan { id, dur_ns, parent } in orphans {
            if let Some(&name) = self.name_of.get(parent as usize) {
                let t = &mut self.totals[name as usize];
                t.child_ns = t.child_ns.saturating_sub(dur_ns);
            }
            let name = self.name_of[new_parent as usize];
            self.totals[name as usize].child_ns += dur_ns;
            if let Some(span) = self.spans.get_mut(id as usize) {
                span.parent = new_parent;
            }
        }
    }
}

struct Shared {
    t0: Instant,
    store: Mutex<Store>,
    /// The harness span open right now and its request id, read by the
    /// event sink on daemon threads. Relaxed: they label spans, they
    /// publish no other data.
    current: AtomicU32,
    current_request: AtomicU64,
    /// Solver-phase events seen, for the "placement did nothing" checks.
    solver_events: AtomicU64,
    /// Whether solver phases arriving now belong to a from-scratch solve
    /// (`placement.full.*`) or an incremental one (`placement.delta.*`).
    /// The event does not say; the harness knows which call it made.
    full_solve: AtomicBool,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }
}

/// A span the generator thread has open.
#[must_use = "close the span with Tracer::end"]
pub struct OpenSpan {
    id: u32,
    start_ns: u64,
    parent: u32,
    parent_request: u64,
}

#[derive(Clone)]
pub struct Tracer {
    shared: Arc<Shared>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            shared: Arc::new(Shared {
                t0: Instant::now(),
                store: Mutex::new(Store::default()),
                current: AtomicU32::new(NO_SPAN),
                current_request: AtomicU64::new(0),
                solver_events: AtomicU64::new(0),
                full_solve: AtomicBool::new(false),
            }),
        }
    }

    /// Opens a span under the currently open one. Only the generator
    /// thread opens harness spans, so they nest strictly.
    pub fn begin(&self, name: &'static str, request: u64) -> OpenSpan {
        let s = &self.shared;
        let parent = s.current.load(Ordering::Relaxed);
        let parent_request = s.current_request.load(Ordering::Relaxed);
        let mut store = s.store.lock().expect("trace store lock");
        // Whatever the previous operation left unadopted stays where it is.
        store.orphan_phases.clear();
        store.orphan_replans.clear();
        let start_ns = s.now_ns();
        let id = store.open(name, start_ns, parent, request);
        drop(store);
        s.current.store(id, Ordering::Relaxed);
        s.current_request.store(request, Ordering::Relaxed);
        OpenSpan {
            id,
            start_ns,
            parent,
            parent_request,
        }
    }

    /// Closes `span` and makes its parent current again.
    pub fn end(&self, span: OpenSpan) {
        let s = &self.shared;
        let end_ns = s.now_ns();
        s.store.lock().expect("trace store lock").close(
            span.id,
            span.start_ns,
            end_ns,
            span.parent,
        );
        s.current.store(span.parent, Ordering::Relaxed);
        s.current_request
            .store(span.parent_request, Ordering::Relaxed);
    }

    /// The sink to attach to a layer's telemetry.
    pub fn sink(&self) -> Arc<dyn EventSink> {
        Arc::new(SpanSink {
            shared: Arc::clone(&self.shared),
        })
    }

    /// Names the solver phases that follow `placement.full.*` (true) or
    /// `placement.delta.*` (false, the default: a running farm replans
    /// incrementally).
    pub fn set_full_solve(&self, full: bool) {
        self.shared.full_solve.store(full, Ordering::Relaxed);
    }

    pub fn solver_events(&self) -> u64 {
        self.shared.solver_events.load(Ordering::Relaxed)
    }

    /// Per-name totals so far.
    pub fn totals(&self) -> BTreeMap<String, NameTotals> {
        let store = self.shared.store.lock().expect("trace store lock");
        store
            .names
            .iter()
            .cloned()
            .zip(store.totals.iter().copied())
            .collect()
    }

    /// Samples of one event-fed series (see `Store::samples`).
    pub fn samples(&self, series: &str) -> Vec<f64> {
        let store = self.shared.store.lock().expect("trace store lock");
        store.samples.get(series).cloned().unwrap_or_default()
    }

    pub fn span_count(&self) -> u64 {
        let store = self.shared.store.lock().expect("trace store lock");
        store.name_of.len() as u64
    }

    /// The `trace.json` document: every kept span plus the per-name
    /// table with self times.
    pub fn document(&self, workload: &str) -> Json {
        let store = self.shared.store.lock().expect("trace store lock");
        let spans = store
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::Str(store.names[s.name as usize].clone())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        if s.parent == NO_SPAN {
                            Json::Null
                        } else {
                            Json::Num(f64::from(s.parent))
                        },
                    ),
                    ("request", Json::Num(s.request as f64)),
                ])
            })
            .collect();
        let layers: BTreeMap<String, Json> = store
            .names
            .iter()
            .zip(&store.totals)
            .map(|(name, t)| {
                (
                    name.clone(),
                    Json::obj([
                        ("count", Json::Num(t.count as f64)),
                        ("total_ns", Json::Num(t.total_ns as f64)),
                        ("self_ns", Json::Num(t.self_ns() as f64)),
                    ]),
                )
            })
            .collect();
        let dropped = store.name_of.len() - store.spans.len();
        Json::obj([
            ("workload", Json::Str(workload.to_string())),
            ("spans", Json::Arr(spans)),
            ("spans_dropped", Json::Num(dropped as f64)),
            ("layers", Json::Obj(layers)),
        ])
    }
}

/// Runs `f` inside a span when tracing, bare otherwise.
pub fn span<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    request: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => {
            let open = t.begin(name, request);
            let out = f();
            t.end(open);
            out
        }
        None => f(),
    }
}

struct SpanSink {
    shared: Arc<Shared>,
}

impl EventSink for SpanSink {
    fn record(&self, event: &Event) {
        let s = &self.shared;
        // The name of the child span and the wall time the event says it
        // took; the span ends when the event arrives.
        let mut plan_actions = None;
        let (name, dur_ns) = match event {
            Event::SolverPhase {
                phase, elapsed_ns, ..
            } => {
                s.solver_events.fetch_add(1, Ordering::Relaxed);
                let mode = if s.full_solve.load(Ordering::Relaxed) {
                    "full"
                } else {
                    "delta"
                };
                (format!("placement.{mode}.{phase}"), *elapsed_ns)
            }
            Event::ReplanSummary {
                elapsed_us,
                deploys,
                migrations,
                reallocs,
                undeploys,
                ..
            } => {
                plan_actions = Some(deploys + migrations + reallocs + undeploys);
                ("core.replan".to_string(), elapsed_us * 1_000)
            }
            Event::ControlOp { op, elapsed_us, .. } => {
                (format!("ctl.serve.{op}"), elapsed_us * 1_000)
            }
            // The latency a poll event carries is virtual (PCIe model)
            // time; on the wall clock the event is an instant.
            Event::PollIssued { .. } => ("soil.poll_issued".to_string(), 0),
            _ => return,
        };
        let parent = s.current.load(Ordering::Relaxed);
        let request = s.current_request.load(Ordering::Relaxed);
        // A sink must not panic: after a poisoned lock, stop recording.
        let Ok(mut store) = s.store.lock() else {
            return;
        };
        let end_ns = s.now_ns();
        // An event cannot have started before the trace did.
        let start_ns = end_ns.saturating_sub(dur_ns);
        let dur_ns = end_ns - start_ns;
        let id = store.open(&name, start_ns, parent, request);
        store.close(id, start_ns, end_ns, parent);
        match event {
            Event::SolverPhase { .. } => {
                store.pending_solver_ns += dur_ns;
                store.orphan_phases.push(Orphan { id, dur_ns, parent });
            }
            Event::ReplanSummary { .. } => {
                let phases = std::mem::take(&mut store.orphan_phases);
                store.adopt(phases, id);
                store.orphan_replans.push(Orphan { id, dur_ns, parent });
            }
            Event::ControlOp { .. } => {
                let mut inner = std::mem::take(&mut store.orphan_replans);
                inner.append(&mut store.orphan_phases);
                store.adopt(inner, id);
            }
            _ => {}
        }
        if let Some(actions) = plan_actions {
            let commit_ns = dur_ns.saturating_sub(std::mem::take(&mut store.pending_solver_ns));
            for (series, value) in [
                ("core.plan_actions", actions as f64),
                ("core.commit", commit_ns as f64 / 1e3),
            ] {
                store
                    .samples
                    .entry(series.to_string())
                    .or_default()
                    .push(value);
            }
        }
        if !matches!(event, Event::PollIssued { .. }) {
            store
                .samples
                .entry(name)
                .or_default()
                .push(dur_ns as f64 / 1e3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let t = Tracer::new();
        let outer = t.begin("outer", 7);
        let inner = t.begin("inner", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        // An event firing inside `outer` becomes its child too.
        t.sink().record(&Event::SolverPhase {
            phase: "greedy",
            elapsed_ns: 1_000,
            items: 1,
        });
        t.end(outer);
        let totals = t.totals();
        let (outer, inner, ev) = (
            totals["outer"],
            totals["inner"],
            totals["placement.delta.greedy"],
        );
        assert_eq!((outer.count, inner.count, ev.count), (1, 1, 1));
        assert_eq!(outer.child_ns, inner.total_ns + ev.total_ns);
        assert_eq!(outer.self_ns(), outer.total_ns - outer.child_ns);
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(t.solver_events(), 1);
        assert_eq!(t.samples("placement.delta.greedy"), vec![1.0]);
        assert!(
            t.samples("inner").is_empty(),
            "harness spans keep no samples"
        );
        let doc = t.document("w");
        let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(spans[1].get("parent"), Some(&Json::Num(0.0)));
        assert_eq!(spans[2].get("parent"), Some(&Json::Num(0.0)));
        assert_eq!(spans[2].get("request"), Some(&Json::Num(7.0)));

        // A replan of 5 us that spent 1 us in the solver committed for 4.
        t.sink().record(&Event::ReplanSummary {
            at_ns: 0,
            elapsed_us: 5,
            deploys: 2,
            migrations: 1,
            reallocs: 0,
            undeploys: 0,
        });
        assert_eq!(t.samples("core.commit"), vec![4.0]);
        assert_eq!(t.samples("core.plan_actions"), vec![3.0]);
    }

    #[test]
    fn later_events_adopt_the_earlier_ones_of_their_operation() {
        let t = Tracer::new();
        let sink = t.sink();
        // Events are clipped to the trace's start; leave them room.
        std::thread::sleep(std::time::Duration::from_millis(1));
        let op = t.begin("ctl.drain", 0);
        sink.record(&Event::SolverPhase {
            phase: "greedy",
            elapsed_ns: 2_000,
            items: 1,
        });
        sink.record(&Event::ReplanSummary {
            at_ns: 0,
            elapsed_us: 10,
            deploys: 0,
            migrations: 1,
            reallocs: 0,
            undeploys: 0,
        });
        sink.record(&Event::ControlOp {
            at_ns: 0,
            op: "drain".into(),
            outcome: "ok".into(),
            elapsed_us: 12,
        });
        t.end(op);
        let totals = t.totals();
        // harness span → served op → replan → solver phase
        assert_eq!(totals["ctl.serve.drain"].child_ns, 10_000);
        assert_eq!(totals["core.replan"].child_ns, 2_000);
        assert_eq!(totals["ctl.drain"].child_ns, 12_000);
        let doc = t.document("w");
        let parents: Vec<Json> = doc
            .get("spans")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|s| s.get("parent").unwrap().clone())
            .collect();
        assert_eq!(
            parents,
            [Json::Null, Json::Num(2.0), Json::Num(3.0), Json::Num(0.0)]
        );
    }

    #[test]
    fn untraced_span_helper_just_runs_the_closure() {
        assert_eq!(span(None, "x", 0, || 41 + 1), 42);
        let t = Tracer::new();
        assert_eq!(span(Some(&t), "x", 0, || 1), 1);
        assert_eq!(t.span_count(), 1);
    }
}
