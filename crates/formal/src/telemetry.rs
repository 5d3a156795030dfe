//! Run telemetry: structured spans, a counter/gauge metrics registry, and
//! machine-readable sinks for the whole verification pipeline.
//!
//! The checker's value proposition is engine *efficiency*, yet a
//! [`crate::checker::VerificationReport`] alone says nothing about *where*
//! a run spends its time — how long elaboration vs. slicing vs. each engine
//! stage took, how the worker pool scheduled the property tasks, or how
//! effective the proof cache and the stimulus fuzzer were.  This module is
//! that observability layer:
//!
//! * **Spans** — begin/end events carrying a phase tag (`"elab"`,
//!   `"slice"`, `"engine.pdr"`, …), the property name, an optional engine
//!   tag and slice fingerprint, and the recording worker's track id.
//!   Every pipeline stage is instrumented: parse/elaborate/compile/lint,
//!   per-property slicing and optimization fixpoint iterations, fuzzer
//!   rounds, every engine-cascade stage, and the per-task worker spans of
//!   the parallel pool.
//! * **Counters and gauges** — a metrics registry fed by the same
//!   instrumentation: cache hits/misses, fuzz cycles simulated and lanes
//!   retired, solver conflicts/propagations/restarts per engine, slice
//!   gate counts before/after optimization, and pool queue-depth samples.
//! * **Sinks** — a fixed-key-order JSON run report
//!   ([`TelemetryReport::to_json`], the style of
//!   [`crate::lint::LintReport::to_json`]), a Chrome trace-event-format
//!   file ([`TelemetryReport::to_chrome_trace`], loadable in
//!   `about://tracing` / Perfetto, one track per pool worker), and a human
//!   summary section in
//!   [`crate::checker::VerificationReport::render_timed`].
//!
//! # Recording model
//!
//! Recording is *lock-free-ish*: every participating thread registers one
//! `WorkerBuffer` with the run's collector and appends events to it
//! through a thread-local handle, so the hot path never touches a shared
//! lock (each buffer's mutex is only ever taken by its owning thread until
//! the merge).  The buffers are merged once, at run end.  The thread-local
//! handle is empty when telemetry is off, so every probe is a cheap no-op
//! and instrumented code needs no plumbing through its signatures.
//!
//! # Determinism contract
//!
//! Telemetry must never perturb a report:
//! [`crate::checker::VerificationReport::render`] is byte-identical with
//! telemetry on or off, sequential or parallel.  The JSON report keeps the
//! same discipline internally by separating **deterministic** fields
//! (verdict counts, per-phase span counts, the counter registry, gate
//! totals — byte-stable across runs and thread counts; see
//! [`TelemetryReport::deterministic_json`]) from **timing** fields
//! (durations, worker counts, gauge samples), so trajectory tracking and
//! golden tests can assert on the former.

use crate::coi::Fingerprint;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Telemetry knobs (part of [`crate::checker::CheckOptions`]).  Default
/// off: no collector is allocated and every probe is a no-op.
#[derive(Debug, Clone, Default)]
pub struct TelemetryOptions {
    /// Collect spans and metrics and attach a [`TelemetryReport`] to the
    /// run's [`crate::checker::VerificationReport`].
    pub enabled: bool,
    /// Additionally write the Chrome trace-event file here (best-effort;
    /// an I/O failure never fails the run).  Implies `enabled`.
    pub trace_path: Option<PathBuf>,
    /// Additionally write the JSON run report here (best-effort).  Implies
    /// `enabled`.
    pub json_path: Option<PathBuf>,
}

impl TelemetryOptions {
    /// `true` when anything requests collection (the flag or either sink).
    pub fn active(&self) -> bool {
        self.enabled || self.trace_path.is_some() || self.json_path.is_some()
    }
}

// ---------------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------------

/// One raw event in a worker buffer.
#[derive(Debug, Clone)]
enum Event {
    Begin {
        phase: &'static str,
        name: String,
        engine: Option<&'static str>,
        fingerprint: Option<Fingerprint>,
        ts_us: u64,
    },
    End {
        ts_us: u64,
    },
    Count {
        name: &'static str,
        value: u64,
    },
    Gauge {
        name: &'static str,
        ts_us: u64,
        value: u64,
    },
}

/// The per-thread event buffer.  Only its owning thread appends (its mutex
/// is uncontended until the run-end merge), so recording never serializes
/// the worker pool.
struct WorkerBuffer {
    tid: usize,
    events: Mutex<Vec<Event>>,
}

impl WorkerBuffer {
    fn push(&self, event: Event) {
        self.events.lock().expect("worker buffer").push(event);
    }
}

/// The per-run collector: the time epoch and the registered worker buffers.
struct Collector {
    epoch: Instant,
    buffers: Mutex<Vec<Arc<WorkerBuffer>>>,
}

impl Collector {
    fn register(&self) -> Arc<WorkerBuffer> {
        let mut buffers = self.buffers.lock().expect("collector buffers");
        let buffer = Arc::new(WorkerBuffer {
            tid: buffers.len(),
            events: Mutex::new(Vec::new()),
        });
        buffers.push(buffer.clone());
        buffer
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

/// A cheaply cloneable handle to a run's collector; inert (`None`) when
/// telemetry is off, so probes cost one thread-local check.
#[derive(Clone, Default)]
pub(crate) struct Telemetry(Option<Arc<Collector>>);

impl Telemetry {
    /// A collector when `options` request collection, an inert handle
    /// otherwise.
    pub(crate) fn new(options: &TelemetryOptions) -> Telemetry {
        if options.active() {
            Telemetry(Some(Arc::new(Collector {
                epoch: Instant::now(),
                buffers: Mutex::new(Vec::new()),
            })))
        } else {
            Telemetry(None)
        }
    }

    /// The always-inert handle (used where a test run has no telemetry).
    #[cfg(test)]
    pub(crate) fn disabled() -> Telemetry {
        Telemetry(None)
    }

    /// `true` when this handle records.
    pub(crate) fn is_active(&self) -> bool {
        self.0.is_some()
    }
}

/// The thread-local recording scope: the active collector and this
/// thread's buffer.
struct ThreadScope {
    collector: Arc<Collector>,
    buffer: Arc<WorkerBuffer>,
}

thread_local! {
    static CURRENT: RefCell<Option<ThreadScope>> = const { RefCell::new(None) };
}

/// Restores the previous thread-local scope on drop (scopes nest; an inert
/// handle installs `None`, shadowing any outer scope so an inner
/// telemetry-off run never records into an outer collector).
pub(crate) struct ScopeGuard {
    prev: Option<ThreadScope>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        let _ = CURRENT.try_with(|slot| *slot.borrow_mut() = prev);
    }
}

/// Enters `telemetry`'s recording scope on the current thread, registering
/// a fresh worker buffer (one trace track).  The first `enter` of a run —
/// the orchestrating thread — gets track 0.
pub(crate) fn enter(telemetry: &Telemetry) -> ScopeGuard {
    let scope = telemetry.0.as_ref().map(|collector| ThreadScope {
        collector: collector.clone(),
        buffer: collector.register(),
    });
    let prev = CURRENT.with(|slot| slot.replace(scope));
    ScopeGuard { prev }
}

/// Ends its span on drop.  Inert when recording is off.
pub(crate) struct SpanGuard(Option<(Arc<WorkerBuffer>, Arc<Collector>)>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((buffer, collector)) = self.0.take() {
            buffer.push(Event::End {
                ts_us: collector.now_us(),
            });
        }
    }
}

/// Begins a span in the current thread's scope; the returned guard ends it.
pub(crate) fn span(phase: &'static str, name: &str) -> SpanGuard {
    span_detail(phase, name, None, None)
}

/// [`span`] carrying engine provenance and the slice fingerprint (the
/// engine-cascade stages).
pub(crate) fn span_detail(
    phase: &'static str,
    name: &str,
    engine: Option<&'static str>,
    fingerprint: Option<Fingerprint>,
) -> SpanGuard {
    let active = CURRENT
        .try_with(|slot| {
            let slot = slot.borrow();
            let scope = slot.as_ref()?;
            scope.buffer.push(Event::Begin {
                phase,
                name: name.to_string(),
                engine,
                fingerprint,
                ts_us: scope.collector.now_us(),
            });
            Some((scope.buffer.clone(), scope.collector.clone()))
        })
        .ok()
        .flatten();
    SpanGuard(active)
}

/// Adds `value` to counter `name` in the metrics registry (a no-op outside
/// a recording scope, and for `value == 0` — absent counters stay absent).
pub(crate) fn count(name: &'static str, value: u64) {
    if value == 0 {
        return;
    }
    let _ = CURRENT.try_with(|slot| {
        if let Some(scope) = slot.borrow().as_ref() {
            scope.buffer.push(Event::Count { name, value });
        }
    });
}

/// Forces counter `name` to exist in the registry even at zero.  Used for
/// the robustness counters, where "0 faults contained" is itself a signal
/// worth reporting — with [`count`]'s absent-at-zero rule alone, a healthy
/// run's report could not be told apart from one without fault containment.
pub(crate) fn register_counter(name: &'static str) {
    let _ = CURRENT.try_with(|slot| {
        if let Some(scope) = slot.borrow().as_ref() {
            scope.buffer.push(Event::Count { name, value: 0 });
        }
    });
}

/// Records one sample of gauge `name` (timestamped; timing-only data).
pub(crate) fn gauge(name: &'static str, value: u64) {
    let _ = CURRENT.try_with(|slot| {
        if let Some(scope) = slot.borrow().as_ref() {
            scope.buffer.push(Event::Gauge {
                name,
                ts_us: scope.collector.now_us(),
                value,
            });
        }
    });
}

/// Adds the per-engine solver counters for one cascade stage to the
/// registry.
pub(crate) fn count_solver(engine: &'static str, stats: &crate::sat::SolverStats) {
    let names = match engine {
        "bmc" => (
            "solver.bmc.conflicts",
            "solver.bmc.propagations",
            "solver.bmc.restarts",
        ),
        "pdr" => (
            "solver.pdr.conflicts",
            "solver.pdr.propagations",
            "solver.pdr.restarts",
        ),
        _ => return,
    };
    count(names.0, stats.conflicts);
    count(names.1, stats.propagations);
    count(names.2, stats.restarts);
}

// ---------------------------------------------------------------------------
// The merged report
// ---------------------------------------------------------------------------

/// One completed span after the run-end merge.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Phase tag (`"elab"`, `"slice"`, `"engine.pdr"`, `"task"`, …).
    pub phase: &'static str,
    /// Property or artifact name ("" for anonymous spans).
    pub name: String,
    /// Engine provenance, for engine-cascade spans.
    pub engine: Option<&'static str>,
    /// Content fingerprint of the slice the span worked on, if any.
    pub fingerprint: Option<Fingerprint>,
    /// Trace track (worker) the span was recorded on; track 0 is the
    /// orchestrating thread.
    pub tid: usize,
    /// Microseconds from the collector epoch.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
}

/// One gauge sample.
#[derive(Debug, Clone)]
pub struct GaugeSample {
    /// Gauge name (e.g. `"pool.queue_depth"`).
    pub name: &'static str,
    /// Track that recorded the sample.
    pub tid: usize,
    /// Microseconds from the collector epoch.
    pub ts_us: u64,
    /// Sampled value.
    pub value: u64,
}

/// Verdict counts of the run (the deterministic backbone of the report).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerdictCounts {
    /// Properties proven.
    pub proven: usize,
    /// Properties violated.
    pub violated: usize,
    /// Cover targets reached.
    pub covered: usize,
    /// Cover targets proven unreachable.
    pub unreachable: usize,
    /// Undecided properties.
    pub unknown: usize,
    /// Properties not checked (assumptions, X-prop checks).
    pub not_checked: usize,
    /// Properties degraded by a contained engine fault
    /// ([`crate::checker::PropertyStatus::Error`]).
    pub errors: usize,
}

/// The merged telemetry of one verification run: spans, the counter/gauge
/// registry, and the deterministic run summary.  Attached to
/// [`crate::checker::VerificationReport::telemetry`] when
/// [`TelemetryOptions::active`]; see the module docs for the
/// deterministic/timing split.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// DUT name.
    pub dut: String,
    /// Worker tracks that recorded events (the orchestrating thread plus
    /// every pool worker that ran).  Timing-dependent: a parallel run's
    /// count varies with the pool size.
    pub workers: usize,
    /// Wall-clock span of the collector, microseconds.
    pub total_us: u64,
    /// Completed spans, ordered by (track, begin order) — properly nested
    /// within each track.
    pub spans: Vec<SpanRecord>,
    /// The counter registry, name-sorted (deterministic).
    pub counters: Vec<(&'static str, u64)>,
    /// Gauge samples in recording order per track (timing data).
    pub gauges: Vec<GaugeSample>,
    /// Total properties in the run.
    pub properties: usize,
    /// Verdict counts (deterministic).
    pub verdicts: VerdictCounts,
    /// Latches of the full compiled model.
    pub model_latches: usize,
    /// AND gates of the full compiled model.
    pub model_gates: usize,
    /// Summed slice latches over checked properties (deterministic).
    pub slice_latches: usize,
    /// Summed slice gates over checked properties (deterministic).
    pub slice_gates: usize,
}

/// Everything the checker knows that the collector does not: the run
/// context merged into the final [`TelemetryReport`].
pub(crate) struct RunSummary {
    pub dut: String,
    pub properties: usize,
    pub verdicts: VerdictCounts,
    pub model_latches: usize,
    pub model_gates: usize,
    pub slice_latches: usize,
    pub slice_gates: usize,
}

impl Telemetry {
    /// Merges every worker buffer into the final report (`None` for inert
    /// handles).  Call once, after the run; buffers are drained.
    pub(crate) fn finish(&self, summary: RunSummary) -> Option<TelemetryReport> {
        let collector = self.0.as_ref()?;
        let total_us = collector.now_us();
        let buffers = collector.buffers.lock().expect("collector buffers");
        let mut spans: Vec<SpanRecord> = Vec::new();
        let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut gauges: Vec<GaugeSample> = Vec::new();
        for buffer in buffers.iter() {
            let events = std::mem::take(&mut *buffer.events.lock().expect("worker buffer"));
            // Begin/End events are stack-disciplined per thread (RAII
            // guards), so a simple stack re-pairs them; spans land in
            // begin order, properly nested.
            let mut open: Vec<usize> = Vec::new();
            let mut last_ts = 0u64;
            for event in events {
                match event {
                    Event::Begin {
                        phase,
                        name,
                        engine,
                        fingerprint,
                        ts_us,
                    } => {
                        last_ts = last_ts.max(ts_us);
                        open.push(spans.len());
                        spans.push(SpanRecord {
                            phase,
                            name,
                            engine,
                            fingerprint,
                            tid: buffer.tid,
                            start_us: ts_us,
                            dur_us: 0,
                        });
                    }
                    Event::End { ts_us } => {
                        last_ts = last_ts.max(ts_us);
                        if let Some(index) = open.pop() {
                            spans[index].dur_us = ts_us.saturating_sub(spans[index].start_us);
                        }
                    }
                    Event::Count { name, value } => {
                        *counters.entry(name).or_insert(0) += value;
                    }
                    Event::Gauge { name, ts_us, value } => {
                        last_ts = last_ts.max(ts_us);
                        gauges.push(GaugeSample {
                            name,
                            tid: buffer.tid,
                            ts_us,
                            value,
                        });
                    }
                }
            }
            // A torn span (its guard never dropped) closes at the
            // buffer's last timestamp so the trace stays balanced.
            for index in open {
                spans[index].dur_us = last_ts.saturating_sub(spans[index].start_us);
            }
        }
        Some(TelemetryReport {
            dut: summary.dut,
            workers: buffers.len(),
            total_us,
            spans,
            counters: counters.into_iter().collect(),
            gauges,
            properties: summary.properties,
            verdicts: summary.verdicts,
            model_latches: summary.model_latches,
            model_gates: summary.model_gates,
            slice_latches: summary.slice_latches,
            slice_gates: summary.slice_gates,
        })
    }
}

/// Per-phase aggregate: span count and summed duration.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseStat {
    /// Number of spans with this phase tag.
    pub spans: usize,
    /// Summed span duration, microseconds.
    pub total_us: u64,
}

impl TelemetryReport {
    /// Per-phase span counts and summed durations, phase-sorted.  The
    /// counts are deterministic; the durations are not.
    pub fn phases(&self) -> BTreeMap<&'static str, PhaseStat> {
        let mut out: BTreeMap<&'static str, PhaseStat> = BTreeMap::new();
        for span in &self.spans {
            let stat = out.entry(span.phase).or_default();
            stat.spans += 1;
            stat.total_us += span.dur_us;
        }
        out
    }

    /// The value of counter `name`, if it was ever incremented.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The deterministic subset of the report as fixed-key-order JSON:
    /// verdict counts, per-phase span counts, the counter registry and
    /// gate totals.  Byte-identical across repeated runs of the same
    /// testbench at any thread count (scheduling only moves spans between
    /// tracks; it cannot change what runs), so golden tests and
    /// `BENCH_*.json` trajectories can compare it directly.
    pub fn deterministic_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"dut\": \"{}\",", json_escape(&self.dut));
        let _ = writeln!(out, "  \"properties\": {},", self.properties);
        let v = self.verdicts;
        let _ = writeln!(
            out,
            "  \"verdicts\": {{\"proven\": {}, \"violated\": {}, \"covered\": {}, \
             \"unreachable\": {}, \"unknown\": {}, \"not_checked\": {}, \"errors\": {}}},",
            v.proven, v.violated, v.covered, v.unreachable, v.unknown, v.not_checked, v.errors
        );
        let _ = writeln!(
            out,
            "  \"model\": {{\"latches\": {}, \"gates\": {}}},",
            self.model_latches, self.model_gates
        );
        let _ = writeln!(
            out,
            "  \"slices\": {{\"latches\": {}, \"gates\": {}}},",
            self.slice_latches, self.slice_gates
        );
        out.push_str("  \"phases\": [");
        for (i, (phase, stat)) in self.phases().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"phase\": \"{}\", \"spans\": {}}}",
                json_escape(phase),
                stat.spans
            );
        }
        out.push_str("\n  ],\n");
        out.push_str("  \"counters\": [");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"name\": \"{}\", \"value\": {}}}",
                json_escape(name),
                value
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// The full run report as fixed-key-order JSON: the deterministic
    /// subset under `"deterministic"`, durations/workers/gauges under
    /// `"timing"`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n\"schema\": \"autosva-telemetry v1\",\n");
        out.push_str("\"deterministic\": ");
        // Indent the nested object by two spaces to keep the output
        // readable; key order is already fixed.
        let det = self.deterministic_json();
        out.push_str(det.trim_end());
        out.push_str(",\n\"timing\": {\n");
        let _ = writeln!(out, "  \"total_us\": {},", self.total_us);
        let _ = writeln!(out, "  \"workers\": {},", self.workers);
        let _ = writeln!(out, "  \"spans\": {},", self.spans.len());
        out.push_str("  \"phases\": [");
        for (i, (phase, stat)) in self.phases().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"phase\": \"{}\", \"spans\": {}, \"total_us\": {}}}",
                json_escape(phase),
                stat.spans,
                stat.total_us
            );
        }
        out.push_str("\n  ],\n");
        out.push_str("  \"gauges\": [");
        let mut gauge_stats: BTreeMap<&'static str, (usize, u64)> = BTreeMap::new();
        for g in &self.gauges {
            let entry = gauge_stats.entry(g.name).or_insert((0, 0));
            entry.0 += 1;
            entry.1 = entry.1.max(g.value);
        }
        for (i, (name, (samples, max))) in gauge_stats.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"name\": \"{}\", \"samples\": {}, \"max\": {}}}",
                json_escape(name),
                samples,
                max
            );
        }
        out.push_str("\n  ]\n}\n}\n");
        out
    }

    /// The run as a Chrome trace-event-format document (the JSON object
    /// form, `{"traceEvents": [...]}`), loadable in `about://tracing` and
    /// Perfetto.  One track per pool worker (track 0 is the orchestrating
    /// thread), named via `thread_name` metadata events; spans become
    /// `"B"`/`"E"` duration events, gauge samples become `"C"` counter
    /// events.  Within each track the events are balanced and their
    /// timestamps non-decreasing — see [`validate_chrome_trace`].
    pub fn to_chrome_trace(&self) -> String {
        let mut lines: Vec<String> = Vec::new();
        for tid in 0..self.workers {
            let label = if tid == 0 {
                "orchestrator".to_string()
            } else {
                format!("worker-{tid}")
            };
            lines.push(format!(
                "{{\"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \"name\": \"thread_name\", \
                 \"args\": {{\"name\": \"{label}\"}}}}"
            ));
        }
        // Spans are stored in begin order, properly nested per track; an
        // explicit end-time stack interleaves the "E" events back in.
        // Per track that produces non-decreasing timestamps already; the
        // final stable sort only merges the tracks' events and the gauge
        // samples into one globally time-ordered stream.
        let mut timed: Vec<(u64, String)> = Vec::new();
        for tid in 0..self.workers {
            let mut stack: Vec<u64> = Vec::new();
            for span in self.spans.iter().filter(|s| s.tid == tid) {
                let end = span.start_us + span.dur_us;
                while let Some(&top) = stack.last() {
                    if top < span.start_us {
                        stack.pop();
                        timed.push((
                            top,
                            format!("{{\"ph\": \"E\", \"pid\": 1, \"tid\": {tid}, \"ts\": {top}}}"),
                        ));
                    } else {
                        break;
                    }
                }
                let name = if span.name.is_empty() {
                    span.phase.to_string()
                } else {
                    format!("{} {}", span.phase, span.name)
                };
                let mut args = String::new();
                if let Some(engine) = span.engine {
                    let _ = write!(args, "\"engine\": \"{engine}\"");
                }
                if let Some(fp) = span.fingerprint {
                    if !args.is_empty() {
                        args.push_str(", ");
                    }
                    let _ = write!(args, "\"fingerprint\": \"{:016x}{:016x}\"", fp.0, fp.1);
                }
                timed.push((
                    span.start_us,
                    format!(
                        "{{\"ph\": \"B\", \"pid\": 1, \"tid\": {tid}, \"ts\": {}, \
                         \"name\": \"{}\", \"cat\": \"{}\", \"args\": {{{args}}}}}",
                        span.start_us,
                        json_escape(&name),
                        json_escape(span.phase),
                    ),
                ));
                stack.push(end);
            }
            while let Some(top) = stack.pop() {
                timed.push((
                    top,
                    format!("{{\"ph\": \"E\", \"pid\": 1, \"tid\": {tid}, \"ts\": {top}}}"),
                ));
            }
        }
        for g in &self.gauges {
            timed.push((
                g.ts_us,
                format!(
                    "{{\"ph\": \"C\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"name\": \"{}\", \
                     \"args\": {{\"value\": {}}}}}",
                    g.tid,
                    g.ts_us,
                    json_escape(g.name),
                    g.value
                ),
            ));
        }
        timed.sort_by_key(|&(ts, _)| ts);
        lines.extend(timed.into_iter().map(|(_, line)| line));
        let mut out = String::from("{\"traceEvents\": [\n");
        out.push_str(&lines.join(",\n"));
        out.push_str("\n]}\n");
        out
    }

    /// The human summary appended by
    /// [`crate::checker::VerificationReport::render_timed`]: the top-5
    /// phases by summed time, the cache hit rate and the fuzz throughput
    /// (when those subsystems ran).
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "telemetry: {} spans on {} track(s), {} counter(s), total {:.1}ms",
            self.spans.len(),
            self.workers,
            self.counters.len(),
            self.total_us as f64 / 1000.0
        );
        let mut phases: Vec<(&'static str, PhaseStat)> = self
            .phases()
            .into_iter()
            .filter(|(_, stat)| stat.total_us > 0)
            .collect();
        phases.sort_by(|a, b| b.1.total_us.cmp(&a.1.total_us).then(a.0.cmp(b.0)));
        if !phases.is_empty() {
            out.push_str("  top phases by time:");
            for (phase, stat) in phases.iter().take(5) {
                let _ = write!(
                    out,
                    "  {} {:.1}ms ({})",
                    phase,
                    stat.total_us as f64 / 1000.0,
                    stat.spans
                );
            }
            out.push('\n');
        }
        let hits = self.counter("cache.hits");
        let misses = self.counter("cache.misses");
        if hits.is_some() || misses.is_some() {
            let hits = hits.unwrap_or(0);
            let lookups = hits + misses.unwrap_or(0);
            let rate = if lookups > 0 {
                hits as f64 / lookups as f64 * 100.0
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  cache: {hits} hit(s) / {lookups} lookup(s) ({rate:.0}% hit rate)"
            );
        }
        if let Some(cycles) = self.counter("fuzz.cycles") {
            let fuzz_us = self
                .phases()
                .get("fuzz.round")
                .map(|s| s.total_us)
                .unwrap_or(0);
            if fuzz_us > 0 {
                let _ = writeln!(
                    out,
                    "  fuzz: {cycles} stimulus-cycles in {:.1}ms ({:.0} cycles/ms)",
                    fuzz_us as f64 / 1000.0,
                    cycles as f64 / (fuzz_us as f64 / 1000.0)
                );
            } else {
                let _ = writeln!(out, "  fuzz: {cycles} stimulus-cycles");
            }
        }
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Chrome-trace structural validation
// ---------------------------------------------------------------------------

/// Structural summary of a validated Chrome trace (see
/// [`validate_chrome_trace`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events (metadata, duration and counter events).
    pub events: usize,
    /// Distinct tracks (`tid`s) that carry duration events.
    pub tracks: usize,
    /// Balanced begin/end pairs.
    pub spans: usize,
}

/// Extracts the value following `"key": ` in a one-event-per-line trace
/// document (the shape [`TelemetryReport::to_chrome_trace`] writes).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\": ");
    let start = line.find(&pattern)? + pattern.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Structurally validates a Chrome trace-event document: it must parse
/// line-by-line into events whose `"B"`/`"E"` pairs are balanced within
/// every track and whose timestamps are non-decreasing per track.
///
/// This is the guard the telemetry tests and the CI smoke run use — it
/// checks the invariants a trace viewer needs, not full JSON conformance.
///
/// # Errors
///
/// Returns a description of the first structural violation: framing,
/// unparsable event lines, an `"E"` without an open `"B"`, timestamps
/// running backwards within a track, or unbalanced spans at the end.
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let body = text
        .trim()
        .strip_prefix("{\"traceEvents\": [")
        .ok_or("missing {\"traceEvents\": [ framing")?
        .strip_suffix("]}")
        .ok_or("missing ]} framing")?;
    let mut summary = TraceSummary::default();
    let mut open: BTreeMap<u64, usize> = BTreeMap::new();
    let mut last_ts: BTreeMap<u64, u64> = BTreeMap::new();
    let mut tracks: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    for (i, line) in body.lines().enumerate() {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() {
            continue;
        }
        if !line.starts_with('{') || !line.ends_with('}') {
            return Err(format!("event {i}: not a JSON object: {line}"));
        }
        summary.events += 1;
        let ph = field(line, "ph").ok_or_else(|| format!("event {i}: missing \"ph\""))?;
        let ph = ph.trim_matches('"');
        if ph == "M" {
            continue;
        }
        let tid: u64 = field(line, "tid")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("event {i}: missing or bad \"tid\""))?;
        let ts: u64 = field(line, "ts")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("event {i}: missing or bad \"ts\""))?;
        let last = last_ts.entry(tid).or_insert(0);
        if ts < *last {
            return Err(format!(
                "event {i}: timestamp {ts} runs backwards on track {tid} (last {last})"
            ));
        }
        *last = ts;
        match ph {
            "B" => {
                if field(line, "name").is_none() {
                    return Err(format!("event {i}: \"B\" event without a name"));
                }
                *open.entry(tid).or_insert(0) += 1;
                tracks.insert(tid);
            }
            "E" => {
                let depth = open.entry(tid).or_insert(0);
                if *depth == 0 {
                    return Err(format!(
                        "event {i}: \"E\" without an open span on track {tid}"
                    ));
                }
                *depth -= 1;
                summary.spans += 1;
            }
            "C" => {}
            other => return Err(format!("event {i}: unknown phase {other:?}")),
        }
    }
    if let Some((tid, depth)) = open.iter().find(|(_, &depth)| depth > 0) {
        return Err(format!("{depth} unclosed span(s) on track {tid}"));
    }
    summary.tracks = tracks.len();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn active() -> Telemetry {
        Telemetry::new(&TelemetryOptions {
            enabled: true,
            ..TelemetryOptions::default()
        })
    }

    /// Whether the calling thread is currently inside an active recording
    /// scope (probes would record).
    fn enabled() -> bool {
        CURRENT.with(|current| current.borrow().is_some())
    }

    fn summary() -> RunSummary {
        RunSummary {
            dut: "dut".into(),
            properties: 3,
            verdicts: VerdictCounts {
                proven: 2,
                violated: 1,
                ..VerdictCounts::default()
            },
            model_latches: 10,
            model_gates: 20,
            slice_latches: 8,
            slice_gates: 15,
        }
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let telemetry = Telemetry::new(&TelemetryOptions::default());
        assert!(!telemetry.is_active());
        let _scope = enter(&telemetry);
        assert!(!enabled());
        {
            let _span = span("phase", "name");
            count("counter", 5);
            gauge("gauge", 1);
        }
        assert!(telemetry.finish(summary()).is_none());
    }

    #[test]
    fn spans_nest_and_merge_in_begin_order() {
        let telemetry = active();
        let _scope = enter(&telemetry);
        assert!(enabled());
        {
            let _outer = span("outer", "a");
            {
                let _inner = span_detail("inner", "b", Some("bmc"), Some(Fingerprint(1, 2)));
            }
            count("hits", 2);
            count("hits", 3);
            count("zeros", 0);
        }
        let report = telemetry.finish(summary()).expect("active telemetry");
        assert_eq!(report.spans.len(), 2);
        assert_eq!(report.spans[0].phase, "outer");
        assert_eq!(report.spans[1].phase, "inner");
        assert_eq!(report.spans[1].engine, Some("bmc"));
        assert_eq!(report.spans[1].fingerprint, Some(Fingerprint(1, 2)));
        assert!(report.spans[1].start_us >= report.spans[0].start_us);
        assert_eq!(report.counters, vec![("hits", 5)]);
        assert_eq!(report.counter("hits"), Some(5));
        assert_eq!(report.counter("zeros"), None);
        assert_eq!(report.workers, 1);
    }

    #[test]
    fn scopes_restore_on_drop_and_shadow() {
        let outer = active();
        let _outer_scope = enter(&outer);
        {
            // An inert inner run shadows the outer collector entirely.
            let inner = Telemetry::disabled();
            let _inner_scope = enter(&inner);
            assert!(!enabled());
            let _span = span("hidden", "");
        }
        assert!(enabled());
        let report = outer.finish(summary()).unwrap();
        assert!(report.spans.is_empty(), "shadowed span must not record");
    }

    #[test]
    fn worker_threads_get_their_own_tracks() {
        let telemetry = active();
        let _scope = enter(&telemetry);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let handle = telemetry.clone();
                scope.spawn(move || {
                    let _scope = enter(&handle);
                    let _span = span("task", "t");
                    count("work", 1);
                });
            }
        });
        let report = telemetry.finish(summary()).unwrap();
        assert_eq!(report.workers, 4, "main + three workers");
        assert_eq!(report.spans.len(), 3);
        let tids: std::collections::BTreeSet<usize> = report.spans.iter().map(|s| s.tid).collect();
        assert_eq!(tids.len(), 3, "each worker records on its own track");
        assert_eq!(report.counter("work"), Some(3));
    }

    #[test]
    fn chrome_trace_is_structurally_valid() {
        let telemetry = active();
        let _scope = enter(&telemetry);
        {
            let _a = span("phase.a", "p1");
            let _b = span("phase.b", "p2");
            gauge("pool.queue_depth", 7);
        }
        std::thread::scope(|scope| {
            let handle = telemetry.clone();
            scope.spawn(move || {
                let _scope = enter(&handle);
                let _span = span("task", "remote");
            });
        });
        let report = telemetry.finish(summary()).unwrap();
        let trace = report.to_chrome_trace();
        let summary = validate_chrome_trace(&trace).expect("valid trace");
        assert_eq!(summary.spans, 3);
        assert_eq!(summary.tracks, 2);
        assert!(summary.events > 2 + 3 * 2, "metadata + spans + gauge");
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("not a trace").is_err());
        let unbalanced = "{\"traceEvents\": [\n\
            {\"ph\": \"B\", \"pid\": 1, \"tid\": 0, \"ts\": 1, \"name\": \"x\", \"args\": {}}\n\
            ]}";
        assert!(validate_chrome_trace(unbalanced)
            .unwrap_err()
            .contains("unclosed"));
        let orphan_end = "{\"traceEvents\": [\n\
            {\"ph\": \"E\", \"pid\": 1, \"tid\": 0, \"ts\": 1}\n\
            ]}";
        assert!(validate_chrome_trace(orphan_end)
            .unwrap_err()
            .contains("without an open span"));
        let backwards = "{\"traceEvents\": [\n\
            {\"ph\": \"B\", \"pid\": 1, \"tid\": 0, \"ts\": 5, \"name\": \"x\", \"args\": {}},\n\
            {\"ph\": \"E\", \"pid\": 1, \"tid\": 0, \"ts\": 2}\n\
            ]}";
        assert!(validate_chrome_trace(backwards)
            .unwrap_err()
            .contains("backwards"));
    }

    #[test]
    fn json_reports_have_fixed_key_order() {
        let telemetry = active();
        {
            let _scope = enter(&telemetry);
            let _span = span("compile", "");
            count("cache.hits", 4);
            count("cache.misses", 1);
        }
        let report = telemetry.finish(summary()).unwrap();
        let det = report.deterministic_json();
        // Keys appear in the documented fixed order.
        let keys = [
            "\"dut\"",
            "\"properties\"",
            "\"verdicts\"",
            "\"model\"",
            "\"slices\"",
            "\"phases\"",
            "\"counters\"",
        ];
        let mut pos = 0;
        for key in keys {
            let at = det[pos..]
                .find(key)
                .unwrap_or_else(|| panic!("{key} missing or out of order in:\n{det}"));
            pos += at;
        }
        // No timing data leaks into the deterministic subset.
        assert!(!det.contains("total_us"));
        assert!(!det.contains("workers"));
        let full = report.to_json();
        assert!(full.contains("\"deterministic\""));
        assert!(full.contains("\"timing\""));
        assert!(full.contains("\"total_us\""));
        let summary_text = report.render_summary();
        assert!(summary_text.contains("telemetry:"));
        assert!(summary_text.contains("cache: 4 hit(s) / 5 lookup(s) (80% hit rate)"));
    }

    #[test]
    fn solver_counters_register_per_engine() {
        let telemetry = active();
        {
            let _scope = enter(&telemetry);
            let stats = crate::sat::SolverStats {
                conflicts: 3,
                propagations: 100,
                restarts: 1,
                ..crate::sat::SolverStats::default()
            };
            count_solver("bmc", &stats);
            count_solver("pdr", &stats);
            count_solver("unknown-engine", &stats);
        }
        let report = telemetry.finish(summary()).unwrap();
        assert_eq!(report.counter("solver.bmc.conflicts"), Some(3));
        assert_eq!(report.counter("solver.pdr.propagations"), Some(100));
        assert_eq!(report.counter("solver.bmc.restarts"), Some(1));
        assert_eq!(report.counters.len(), 6);
    }
}
