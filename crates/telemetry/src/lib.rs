//! Offline, hand-rolled telemetry core for the nvpim workspace.
//!
//! The crate provides four pieces, all dependency-free (the only imports
//! are the workspace's offline serde stubs, used for JSON event lines):
//!
//! * **Metrics primitives** ([`Histogram`], [`AtomicHistogram`]):
//!   log₂-bucketed latency histograms with deterministic p50/p95/p99 and
//!   associative cross-thread merging.
//! * **A phase/counter taxonomy** ([`Phase`], [`Counter`]): the closed set
//!   of pipeline phases (plan validation, schedule compile vs cache hit,
//!   fault injection, gate execution, analytic clean settle, estimator
//!   redraw, aggregation, report serialization) and first-class event
//!   counters.
//! * **Recording handles** ([`Telemetry`], [`LocalTelemetry`]): a cheap
//!   clonable shared sink, and a per-thread accumulator that folds into the
//!   sink at chunk boundaries so the sliced hot path never touches a shared
//!   atomic per trial. A disabled handle ([`Telemetry::disabled`]) makes
//!   every operation a no-op — including clock reads.
//! * **Export** ([`TelemetrySnapshot`], [`EventLog`]): point-in-time
//!   snapshots renderable as Prometheus-style text exposition, and an
//!   opt-in NDJSON event log with monotone sequence numbers.

#![deny(missing_docs)]

mod events;
mod export;
mod metrics;
mod phase;

pub use events::EventLog;
pub use export::render_prometheus;
pub use metrics::{
    bucket_index, bucket_upper_bound, AtomicHistogram, Histogram, HISTOGRAM_BUCKETS,
};
pub use phase::{Counter, Phase, COUNTER_COUNT, PHASE_COUNT};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Shared recording state behind an enabled [`Telemetry`] handle.
#[derive(Debug)]
struct Shared {
    phase_count: [AtomicU64; PHASE_COUNT],
    phase_nanos: [AtomicU64; PHASE_COUNT],
    counters: [AtomicU64; COUNTER_COUNT],
    /// Low-frequency labeled counters, keyed by rendered series name
    /// (e.g. `trials_by_scheme{scheme="trim"}`). Coarse lock is fine:
    /// these are bumped per job, never per trial.
    labeled: Mutex<BTreeMap<String, u64>>,
    /// Named latency histograms (e.g. queue wait, job run latency),
    /// recorded per job.
    histograms: Mutex<BTreeMap<&'static str, Histogram>>,
}

// Arrays longer than 32 have no derived `Default`.
impl Default for Shared {
    fn default() -> Self {
        Self {
            phase_count: Default::default(),
            phase_nanos: Default::default(),
            counters: [const { AtomicU64::new(0) }; COUNTER_COUNT],
            labeled: Mutex::default(),
            histograms: Mutex::default(),
        }
    }
}

/// A cheap, clonable handle to a telemetry sink.
///
/// An *enabled* handle ([`Telemetry::new`]) records into shared relaxed
/// atomics; a *disabled* handle ([`Telemetry::disabled`], also the
/// [`Default`]) turns every call — including span clock reads — into a
/// no-op, so uninstrumented runs pay nothing.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Shared>>,
}

impl Telemetry {
    /// Creates an enabled telemetry sink.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: Some(Arc::new(Shared::default())),
        }
    }

    /// Creates a disabled handle: every operation is a no-op.
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether this handle records anything.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Starts a span: returns `Some(now)` when enabled, `None` (and no
    /// clock read) when disabled. Pair with [`Telemetry::span_end`].
    #[inline]
    #[must_use]
    pub fn span_start(&self) -> Option<Instant> {
        self.inner.as_ref().map(|_| Instant::now())
    }

    /// Ends a span started with [`Telemetry::span_start`], attributing the
    /// elapsed wall-clock time to `phase`.
    #[inline]
    pub fn span_end(&self, phase: Phase, started: Option<Instant>) {
        if let (Some(shared), Some(start)) = (self.inner.as_deref(), started) {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            shared.phase_count[phase.index()].fetch_add(1, Ordering::Relaxed);
            shared.phase_nanos[phase.index()].fetch_add(nanos, Ordering::Relaxed);
        }
    }

    /// Times a closure as one span of `phase`.
    #[inline]
    pub fn time<T>(&self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let started = self.span_start();
        let out = f();
        self.span_end(phase, started);
        out
    }

    /// Records a completed span measured externally (count + nanos).
    pub fn record_span(&self, phase: Phase, count: u64, nanos: u64) {
        if let Some(shared) = self.inner.as_deref() {
            shared.phase_count[phase.index()].fetch_add(count, Ordering::Relaxed);
            shared.phase_nanos[phase.index()].fetch_add(nanos, Ordering::Relaxed);
        }
    }

    /// Increments a first-class counter by `n`.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        if let Some(shared) = self.inner.as_deref() {
            shared.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value of a first-class counter (0 when disabled).
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        self.inner
            .as_deref()
            .map_or(0, |s| s.counters[counter.index()].load(Ordering::Relaxed))
    }

    /// Increments a labeled counter, e.g.
    /// `add_labeled("trials_by_scheme", "scheme", "trim", 200)`.
    ///
    /// Labeled counters take a coarse lock — use them for per-job
    /// bookkeeping, never per trial.
    pub fn add_labeled(&self, series: &str, label: &str, value: &str, n: u64) {
        if let Some(shared) = self.inner.as_deref() {
            let key = format!("{series}{{{label}=\"{value}\"}}");
            let mut map = shared.labeled.lock().expect("telemetry labeled lock");
            *map.entry(key).or_insert(0) += n;
        }
    }

    /// Records one observation into the named latency histogram (created on
    /// first use). Like labeled counters, this takes a coarse lock — record
    /// per job, never per trial.
    pub fn record_histogram(&self, name: &'static str, value: u64) {
        if let Some(shared) = self.inner.as_deref() {
            let mut map = shared.histograms.lock().expect("telemetry histogram lock");
            map.entry(name).or_default().record(value);
        }
    }

    /// Takes a point-in-time snapshot of everything recorded so far.
    ///
    /// A disabled handle snapshots to all-zero.
    #[must_use]
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::default();
        if let Some(shared) = self.inner.as_deref() {
            for phase in Phase::ALL {
                snap.phase_count[phase.index()] =
                    shared.phase_count[phase.index()].load(Ordering::Relaxed);
                snap.phase_nanos[phase.index()] =
                    shared.phase_nanos[phase.index()].load(Ordering::Relaxed);
            }
            for counter in Counter::ALL {
                snap.counters[counter.index()] =
                    shared.counters[counter.index()].load(Ordering::Relaxed);
            }
            snap.labeled = shared
                .labeled
                .lock()
                .expect("telemetry labeled lock")
                .clone();
            snap.histograms = shared
                .histograms
                .lock()
                .expect("telemetry histogram lock")
                .iter()
                .map(|(&name, hist)| (name.to_string(), hist.clone()))
                .collect();
        }
        snap
    }

    /// Renders a snapshot as Prometheus-style text exposition.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        export::render_prometheus(&self.snapshot())
    }

    fn fold_local(&self, local: &LocalTelemetry) {
        if let Some(shared) = self.inner.as_deref() {
            for i in 0..PHASE_COUNT {
                if local.phase_count[i] != 0 {
                    shared.phase_count[i].fetch_add(local.phase_count[i], Ordering::Relaxed);
                    shared.phase_nanos[i].fetch_add(local.phase_nanos[i], Ordering::Relaxed);
                }
            }
            for i in 0..COUNTER_COUNT {
                if local.counters[i] != 0 {
                    shared.counters[i].fetch_add(local.counters[i], Ordering::Relaxed);
                }
            }
        }
    }
}

/// Per-thread telemetry accumulator: plain `u64` arrays, no atomics.
///
/// The Monte Carlo hot path records into a `LocalTelemetry` owned by its
/// per-thread arena; the accumulated phase times and counters fold into the
/// shared [`Telemetry`] sink when [`flush`](LocalTelemetry::flush) is
/// called — and automatically on [`Drop`], which in the engine happens at
/// the end of every parallel chunk (the rayon `map_init` state is dropped
/// when the chunk's collect finishes). The shared sink therefore sees one
/// fold per thread per chunk, never one write per trial.
#[derive(Debug)]
pub struct LocalTelemetry {
    sink: Telemetry,
    enabled: bool,
    phase_count: [u64; PHASE_COUNT],
    phase_nanos: [u64; PHASE_COUNT],
    counters: [u64; COUNTER_COUNT],
}

impl LocalTelemetry {
    /// Creates a per-thread accumulator feeding `sink`.
    #[must_use]
    pub fn new(sink: &Telemetry) -> Self {
        Self {
            enabled: sink.is_enabled(),
            sink: sink.clone(),
            phase_count: [0; PHASE_COUNT],
            phase_nanos: [0; PHASE_COUNT],
            counters: [0; COUNTER_COUNT],
        }
    }

    /// Creates a disabled accumulator (all operations no-ops).
    #[must_use]
    pub fn disabled() -> Self {
        Self::new(&Telemetry::disabled())
    }

    /// Whether this accumulator records anything.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a span: `Some(now)` when enabled, `None` (no clock read)
    /// when disabled.
    #[inline]
    #[must_use]
    pub fn span_start(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Ends a span, attributing elapsed time to `phase` in thread-local
    /// state.
    #[inline]
    pub fn span_end(&mut self, phase: Phase, started: Option<Instant>) {
        if let Some(start) = started {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.phase_count[phase.index()] += 1;
            self.phase_nanos[phase.index()] += nanos;
        }
    }

    /// Increments a counter in thread-local state.
    #[inline]
    pub fn add(&mut self, counter: Counter, n: u64) {
        if self.enabled {
            self.counters[counter.index()] += n;
        }
    }

    /// Folds accumulated state into the shared sink and zeroes the local
    /// arrays. Called automatically on drop.
    pub fn flush(&mut self) {
        if self.enabled {
            self.sink.fold_local(self);
            self.phase_count = [0; PHASE_COUNT];
            self.phase_nanos = [0; PHASE_COUNT];
            self.counters = [0; COUNTER_COUNT];
        }
    }
}

impl Default for LocalTelemetry {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Drop for LocalTelemetry {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A point-in-time copy of everything a [`Telemetry`] sink has recorded.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Completed span counts per phase, indexed by [`Phase::index`].
    pub phase_count: [u64; PHASE_COUNT],
    /// Accumulated span nanoseconds per phase, indexed by [`Phase::index`].
    pub phase_nanos: [u64; PHASE_COUNT],
    /// First-class counter values, indexed by [`Counter::index`].
    pub counters: [u64; COUNTER_COUNT],
    /// Labeled counters, keyed by rendered series name.
    pub labeled: BTreeMap<String, u64>,
    /// Named latency histograms.
    pub histograms: BTreeMap<String, Histogram>,
}

impl Default for TelemetrySnapshot {
    fn default() -> Self {
        Self {
            phase_count: [0; PHASE_COUNT],
            phase_nanos: [0; PHASE_COUNT],
            counters: [0; COUNTER_COUNT],
            labeled: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }
}

impl TelemetrySnapshot {
    /// Span count for a phase.
    #[must_use]
    pub fn phase_count(&self, phase: Phase) -> u64 {
        self.phase_count[phase.index()]
    }

    /// Accumulated nanoseconds for a phase.
    #[must_use]
    pub fn phase_nanos(&self, phase: Phase) -> u64 {
        self.phase_nanos[phase.index()]
    }

    /// Value of a first-class counter.
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()]
    }

    /// Renders this snapshot as Prometheus-style text exposition.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        export::render_prometheus(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_a_no_op_without_clock_reads() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        assert!(tel.span_start().is_none());
        tel.span_end(Phase::GateExecution, None);
        tel.add(Counter::TrialsExecuted, 5);
        tel.add_labeled("trials_by_scheme", "scheme", "trim", 3);
        tel.record_histogram("queue_wait_ns", 100);
        let snap = tel.snapshot();
        assert_eq!(snap.counter(Counter::TrialsExecuted), 0);
        assert!(snap.labeled.is_empty());
        assert!(snap.histograms.is_empty());

        let mut local = LocalTelemetry::new(&tel);
        assert!(local.span_start().is_none());
        local.add(Counter::CleanSettledTrials, 7);
        local.flush();
        assert_eq!(tel.snapshot().counter(Counter::CleanSettledTrials), 0);
    }

    #[test]
    fn spans_and_counters_accumulate() {
        let tel = Telemetry::new();
        let started = tel.span_start();
        assert!(started.is_some());
        tel.span_end(Phase::PlanValidation, started);
        tel.time(Phase::Aggregation, || ());
        tel.add(Counter::EstimatorRedraws, 3);
        tel.record_span(Phase::GateExecution, 2, 500);
        let snap = tel.snapshot();
        assert_eq!(snap.phase_count(Phase::PlanValidation), 1);
        assert_eq!(snap.phase_count(Phase::Aggregation), 1);
        assert_eq!(snap.phase_count(Phase::GateExecution), 2);
        assert_eq!(snap.phase_nanos(Phase::GateExecution), 500);
        assert_eq!(snap.counter(Counter::EstimatorRedraws), 3);
    }

    #[test]
    fn local_telemetry_folds_on_flush_and_drop() {
        let tel = Telemetry::new();
        {
            let mut local = LocalTelemetry::new(&tel);
            let s = local.span_start();
            local.span_end(Phase::FaultInjection, s);
            local.add(Counter::CleanSettledBatches, 2);
            // Nothing visible before the fold.
            assert_eq!(tel.snapshot().counter(Counter::CleanSettledBatches), 0);
            local.flush();
            assert_eq!(tel.snapshot().counter(Counter::CleanSettledBatches), 2);
            // Flush zeroes local state: a second flush adds nothing.
            local.flush();
            assert_eq!(tel.snapshot().counter(Counter::CleanSettledBatches), 2);
            local.add(Counter::CleanSettledBatches, 1);
            // Dropped here: remaining state folds automatically.
        }
        let snap = tel.snapshot();
        assert_eq!(snap.counter(Counter::CleanSettledBatches), 3);
        assert_eq!(snap.phase_count(Phase::FaultInjection), 1);
    }

    #[test]
    fn labeled_counters_and_histograms_round_trip() {
        let tel = Telemetry::new();
        tel.add_labeled("trials_by_scheme", "scheme", "trim", 10);
        tel.add_labeled("trials_by_scheme", "scheme", "trim", 5);
        tel.add_labeled("trials_by_scheme", "scheme", "ecim", 7);
        tel.record_histogram("queue_wait_ns", 1000);
        tel.record_histogram("queue_wait_ns", 2000);
        let snap = tel.snapshot();
        assert_eq!(
            snap.labeled.get("trials_by_scheme{scheme=\"trim\"}"),
            Some(&15)
        );
        assert_eq!(
            snap.labeled.get("trials_by_scheme{scheme=\"ecim\"}"),
            Some(&7)
        );
        let hist = snap.histograms.get("queue_wait_ns").expect("histogram");
        assert_eq!(hist.count(), 2);
    }
}
