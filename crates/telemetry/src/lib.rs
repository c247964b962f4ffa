//! # gepeto-telemetry — structured observability for the GEPETO stack
//!
//! The paper's entire evaluation (per-task runtimes, shuffle volumes,
//! retry counts, speedup curves) comes from jobtracker-side telemetry;
//! this crate is the equivalent measurement substrate for our engine.
//! It captures three things through one cheap handle:
//!
//! - **Spans** — RAII timed regions with identity labels, nested via
//!   parent ids (`phase.map` → `task.map`), emitted as paired
//!   `span_start` / `span_end` [`Event`]s;
//! - **Points** — instantaneous measurements (`kmeans.iteration` with a
//!   centroid-shift value, scheduling decisions with locality tags);
//! - **Aggregates** — monotonic counters and log-bucketed
//!   [`Histogram`]s, kept out of the event stream so hot paths don't
//!   flood it.
//!
//! A [`Recorder`] is an `Option<Arc<...>>` under the hood: cloning is a
//! pointer copy, and the disabled recorder ([`Recorder::disabled`],
//! also `Default`) makes every call a no-op without allocating, so
//! instrumented code pays nothing when observability is off.
//!
//! Exporters: [`Recorder::write_jsonl`] streams the captured events as
//! JSON-Lines (one object per line, hand-serialised — no serde), and
//! [`Recorder::summary`] folds them into a [`SummaryReport`] (per-phase
//! wall time, task-time p50/p95/max, straggler list, retries, shuffle
//! bytes) with a plain-text [`SummaryReport::render`].
//!
//! Every engine metric is declared once, as a row of [`registry`]; the
//! live [`Monitor`], its Prometheus exposition and the summary read
//! their names, folds and help text from there.
//!
//! A process-wide [`TrackingAllocator`] (installed as the global
//! allocator by this crate) counts live/peak/total-allocated bytes, and
//! every span carries a [`LedgerScope`] window over those counters: its
//! `span_end` event is tagged with `mem.peak_delta` / `mem.allocated` /
//! `mem.allocs` labels, and phase spans additionally sample the live
//! heap into the event stream (a `count` event feeding the Chrome-trace
//! `C` counter track).
//!
//! ```
//! use gepeto_telemetry::Recorder;
//!
//! let rec = Recorder::enabled();
//! {
//!     let phase = rec.span("phase.map", &[("job", "demo")]);
//!     let _task = phase.child("task.map", &[("task", "0")]);
//!     rec.observe("bytes.per.task", 4096);
//! } // spans close here, emitting span_end events with durations
//! rec.count("records", 10);
//! let mut out = Vec::new();
//! rec.write_jsonl(&mut out).unwrap();
//! // Four span events plus the phase-end live-heap sample.
//! assert_eq!(out.split(|&b| b == b'\n').filter(|l| !l.is_empty()).count(), 5);
//! ```

pub mod alloc;
mod analysis;
pub mod archive;
pub mod diff;
mod event;
mod flamegraph;
mod histogram;
pub mod json;
mod monitor;
pub mod registry;
mod summary;
mod timeline;
pub mod trace_event;

pub use alloc::{mem_stats, LedgerScope, MemDelta, MemStats, TrackingAllocator};
pub use analysis::{CriticalPath, CriticalPathStep, PhaseCritical, TaskRef, VirtualCriticalPath};
pub use archive::{counter_events, load_segments, stitch, ArchiveWriter, AttemptSegment};
pub use diff::{profile_from_events, Cause, PerfDiff, RunProfile, TaskCohort};
pub use event::{Event, EventKind};
pub use flamegraph::{alloc_folded, host_folded, virtual_folded};
pub use histogram::Histogram;
pub use json::{event_to_json, write_jsonl};
pub use monitor::{MetricsSnapshot, Monitor, Reporter};
pub use summary::{PhaseStat, Straggler, SummaryReport, TaskStats};
pub use timeline::{NodeLane, Timeline};
pub use trace_event::write_chrome_trace;

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    events: Mutex<Vec<Event>>,
    counters: Mutex<BTreeMap<String, u64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    next_span: AtomicU64,
    /// Innermost-open stack of spans created via [`Recorder::span`]:
    /// driver-level spans (`kmeans`, `job`, ...) opened sequentially on
    /// the submitting thread nest under each other, so trace analysis
    /// sees one causal tree (driver → job → phase → task) instead of a
    /// forest of roots. Task-level spans use [`Span::child`] and never
    /// touch this stack, keeping parallel tasks correctly attributed.
    context: Mutex<Vec<u64>>,
    /// Live progress registry, present on [`Recorder::monitored`]
    /// recorders only. Engine hooks update it in place; a background
    /// [`Reporter`] snapshots it at its own cadence.
    monitor: Option<Arc<Monitor>>,
}

/// The telemetry handle threaded through the engine.
///
/// Cheap to clone (one `Arc` bump when enabled, nothing when disabled)
/// and safe to share across task threads. All methods on a disabled
/// recorder return immediately without allocating.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// A recorder that captures everything.
    pub fn enabled() -> Self {
        Self::build(None)
    }

    /// A recorder that captures everything **and** carries a live
    /// [`Monitor`] registry: engine hooks bump its atomics as tasks
    /// finish, so a [`Reporter`] (or any caller of
    /// [`Monitor::snapshot`]) can watch the run in flight.
    pub fn monitored() -> Self {
        Self::build(Some(Arc::new(Monitor::new())))
    }

    fn build(monitor: Option<Arc<Monitor>>) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                events: Mutex::new(Vec::new()),
                counters: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                next_span: AtomicU64::new(1),
                context: Mutex::new(Vec::new()),
                monitor,
            })),
        }
    }

    /// The no-op recorder (also what `Default` gives you).
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// The live progress registry, on [`Recorder::monitored`] recorders.
    pub fn monitor(&self) -> Option<Arc<Monitor>> {
        self.inner.as_ref().and_then(|inner| inner.monitor.clone())
    }

    /// Whether this recorder captures anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn now_us(inner: &Inner) -> u64 {
        inner.epoch.elapsed().as_micros() as u64
    }

    fn push(inner: &Inner, event: Event) {
        inner.events.lock().push(event);
    }

    fn owned_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
        labels
            .iter()
            .map(|&(k, v)| (k.to_owned(), v.to_owned()))
            .collect()
    }

    /// Opens a top-level span. It nests under the innermost span still
    /// open from a previous `span()` call (so sequential driver/job
    /// spans form one causal tree); use [`Span::child`] for explicit
    /// nesting. Ends (and emits `span_end`) when the returned guard
    /// drops.
    pub fn span(&self, name: &'static str, labels: &[(&str, &str)]) -> Span {
        let parent = self
            .inner
            .as_ref()
            .and_then(|inner| inner.context.lock().last().copied())
            .unwrap_or(0);
        let mut span = self.start_span(name, parent, labels);
        if let Some(inner) = &self.inner {
            inner.context.lock().push(span.id);
            span.in_context = true;
        }
        span
    }

    fn start_span(&self, name: &'static str, parent_id: u64, labels: &[(&str, &str)]) -> Span {
        let id = match &self.inner {
            None => 0,
            Some(inner) => {
                let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
                Self::push(
                    inner,
                    Event {
                        ts_us: Self::now_us(inner),
                        kind: EventKind::SpanStart,
                        name,
                        span_id: id,
                        parent_id,
                        dur_us: None,
                        value: None,
                        labels: Self::owned_labels(labels),
                    },
                );
                id
            }
        };
        Span {
            ledger: self.inner.as_ref().map(|_| LedgerScope::open()),
            rec: self.clone(),
            id,
            parent_id,
            name,
            started: Instant::now(),
            in_context: false,
        }
    }

    /// Records an instantaneous measurement into the event stream.
    pub fn point(&self, name: &'static str, value: f64, labels: &[(&str, &str)]) {
        if let Some(inner) = &self.inner {
            Self::push(
                inner,
                Event {
                    ts_us: Self::now_us(inner),
                    kind: EventKind::Point,
                    name,
                    span_id: 0,
                    parent_id: 0,
                    dur_us: None,
                    value: Some(value),
                    labels: Self::owned_labels(labels),
                },
            );
        }
    }

    /// Bumps a monotonic counter (aggregate only — not in the event
    /// stream, so it is safe on hot paths).
    pub fn count(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            let mut counters = inner.counters.lock();
            match counters.get_mut(name) {
                Some(v) => *v += delta,
                None => {
                    counters.insert(name.to_owned(), delta);
                }
            }
        }
    }

    /// Records a sample into the named log-bucketed histogram
    /// (aggregate only).
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            let mut histograms = inner.histograms.lock();
            match histograms.get_mut(name) {
                Some(h) => h.observe(value),
                None => {
                    let mut h = Histogram::new();
                    h.observe(value);
                    histograms.insert(name.to_owned(), h);
                }
            }
        }
    }

    /// Snapshot of all captured events, in capture order.
    pub fn events(&self) -> Vec<Event> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.events.lock().clone(),
        }
    }

    /// Snapshot of the events captured at index `offset` onward —
    /// the incremental read used by the [`ArchiveWriter`] flusher, so
    /// each flush copies only the tail it has not persisted yet.
    pub fn events_from(&self, offset: usize) -> Vec<Event> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => {
                let events = inner.events.lock();
                events.get(offset..).unwrap_or_default().to_vec()
            }
        }
    }

    /// Snapshot of all counters.
    pub fn counters(&self) -> Vec<(String, u64)> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner
                .counters
                .lock()
                .iter()
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
        }
    }

    /// The named counter's current value (0 if never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => inner.counters.lock().get(name).copied().unwrap_or(0),
        }
    }

    /// Snapshot of the named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner
            .as_ref()
            .and_then(|inner| inner.histograms.lock().get(name).cloned())
    }

    /// Streams all captured events as JSON-Lines.
    pub fn write_jsonl<W: Write>(&self, writer: &mut W) -> io::Result<()> {
        json::write_jsonl(writer, &self.events())
    }

    /// Folds the captured events and counters into an end-of-run report.
    pub fn summary(&self) -> SummaryReport {
        SummaryReport::from_events(&self.events(), &self.counters())
    }

    /// Extracts the dominant chain through the host-side span tree.
    pub fn critical_path(&self) -> CriticalPath {
        CriticalPath::from_events(&self.events())
    }

    /// Attributes the dominant job's virtual makespan to its phases and
    /// critical tasks (`None` without simulator scheduling points).
    pub fn virtual_critical_path(&self) -> Option<VirtualCriticalPath> {
        VirtualCriticalPath::from_events(&self.events())
    }

    /// Charts the dominant job's per-node utilization as an ASCII Gantt
    /// (`None` without simulator scheduling points).
    pub fn timeline(&self) -> Option<Timeline> {
        Timeline::from_events(&self.events())
    }

    /// Folds the host-side span tree into flamegraph stacks (see
    /// [`host_folded`]); empty string without spans.
    pub fn host_folded(&self) -> String {
        flamegraph::host_folded(&self.events())
    }

    /// Folds the dominant job's virtual schedule into flamegraph stacks
    /// (see [`virtual_folded`]); `None` without scheduling points.
    pub fn virtual_folded(&self) -> Option<String> {
        flamegraph::virtual_folded(&self.events())
    }
}

/// RAII timed region opened by [`Recorder::span`] / [`Span::child`].
///
/// Dropping emits the `span_end` event carrying the measured wall time.
/// On a disabled recorder the span is inert.
#[derive(Debug)]
pub struct Span {
    rec: Recorder,
    id: u64,
    parent_id: u64,
    name: &'static str,
    started: Instant,
    /// Whether this span sits on the recorder's context stack (created
    /// via [`Recorder::span`]) and must be popped off on drop.
    in_context: bool,
    /// Allocator window attributing heap activity to this span
    /// (enabled recorders only); closed on drop, its delta rides the
    /// `span_end` event as `mem.*` labels.
    ledger: Option<LedgerScope>,
}

impl Span {
    /// Opens a child span nested under this one.
    pub fn child(&self, name: &'static str, labels: &[(&str, &str)]) -> Span {
        self.rec.start_span(name, self.id, labels)
    }

    /// This span's id (0 on a disabled recorder).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Closes the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = &self.rec.inner {
            if self.in_context {
                inner.context.lock().retain(|&id| id != self.id);
            }
            // Close the allocator window first so the span's own labels
            // (and the summary's phase accounting) see its heap delta.
            let mut labels: Vec<(String, String)> = Vec::new();
            if let Some(ledger) = self.ledger.take() {
                let mem = ledger.close();
                labels.push(("mem.peak_delta".to_owned(), mem.peak_delta.to_string()));
                labels.push(("mem.allocated".to_owned(), mem.allocated.to_string()));
                labels.push((registry::MEM_ALLOCS.to_owned(), mem.allocs.to_string()));
                if let Some(phase) = self.name.strip_prefix("phase.") {
                    // Sample the live heap into the stream (rendered as a
                    // `C` counter track by the Chrome-trace exporter) and
                    // feed the per-phase peak into the live monitor.
                    Recorder::push(
                        inner,
                        Event {
                            ts_us: Recorder::now_us(inner),
                            kind: EventKind::Count,
                            name: registry::MEM_LIVE_BYTES,
                            span_id: 0,
                            parent_id: 0,
                            dur_us: None,
                            value: Some(alloc::mem_stats().live_bytes as f64),
                            labels: Vec::new(),
                        },
                    );
                    if let Some(monitor) = &inner.monitor {
                        monitor.note_phase_peak(phase, mem.peak_bytes);
                    }
                }
            }
            let dur_us = self.started.elapsed().as_micros() as u64;
            Recorder::push(
                inner,
                Event {
                    ts_us: Recorder::now_us(inner),
                    kind: EventKind::SpanEnd,
                    name: self.name,
                    span_id: self.id,
                    parent_id: self.parent_id,
                    dur_us: Some(dur_us),
                    value: None,
                    labels,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        let span = rec.span("phase.map", &[("job", "x")]);
        let child = span.child("task.map", &[]);
        drop(child);
        drop(span);
        rec.point("p", 1.0, &[]);
        rec.count("c", 5);
        rec.observe("h", 10);
        assert!(rec.events().is_empty());
        assert_eq!(rec.counter("c"), 0);
        assert!(rec.histogram("h").is_none());
    }

    #[test]
    fn nested_spans_emit_paired_events_with_monotonic_timing() {
        let rec = Recorder::enabled();
        {
            let outer = rec.span("phase.map", &[("job", "j")]);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = outer.child("task.map", &[("task", "0")]);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let events = rec.events();
        assert_eq!(events.len(), 5);
        assert_eq!(events[0].kind, EventKind::SpanStart);
        assert_eq!(events[0].name, "phase.map");
        assert_eq!(events[1].name, "task.map");
        assert_eq!(events[1].parent_id, events[0].span_id);
        // Inner closes before outer; the phase end is preceded by its
        // live-heap sample.
        assert_eq!(events[2].name, "task.map");
        assert_eq!(events[3].name, "mem.live_bytes");
        assert_eq!(events[3].kind, EventKind::Count);
        assert_eq!(events[4].name, "phase.map");
        // Every span end carries its allocator attribution.
        for end in [&events[2], &events[4]] {
            assert!(end.label("mem.allocated").is_some(), "{end:?}");
            assert!(end.label("mem.peak_delta").is_some(), "{end:?}");
            assert!(end.label("mem.allocs").is_some(), "{end:?}");
        }
        let inner_dur = events[2].dur_us.unwrap();
        let outer_dur = events[4].dur_us.unwrap();
        assert!(inner_dur <= outer_dur, "{inner_dur} > {outer_dur}");
        assert!(outer_dur >= 4_000, "outer span too short: {outer_dur}");
        // Timestamps never go backwards.
        for pair in events.windows(2) {
            assert!(pair[0].ts_us <= pair[1].ts_us);
        }
    }

    #[test]
    fn counters_and_histograms_aggregate() {
        let rec = Recorder::enabled();
        rec.count("records", 3);
        rec.count("records", 4);
        rec.observe("latency", 100);
        rec.observe("latency", 200);
        assert_eq!(rec.counter("records"), 7);
        let h = rec.histogram("latency").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 300);
        // Aggregates stay out of the event stream.
        assert!(rec.events().is_empty());
    }

    #[test]
    fn clones_share_the_sink() {
        let rec = Recorder::enabled();
        let clone = rec.clone();
        clone.point("from.clone", 1.0, &[]);
        assert_eq!(rec.events().len(), 1);
    }
}
