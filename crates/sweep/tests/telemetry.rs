//! Telemetry invariants: instrumentation must observe the pipeline without
//! perturbing it.
//!
//! The load-bearing guarantee is byte-identity — a campaign's report JSON
//! is the same with a live telemetry sink as with [`Telemetry::disabled`],
//! on both execution backends, for the quick plan and the paper-scale
//! plan. The remaining tests pin the counter semantics (trials executed,
//! analytic clean settles, estimator redraws, compile-vs-cache-hit
//! classification) and — opt-in via `NVPIM_BENCH_GUARD=1` — the wall-clock
//! overhead budget.

use std::time::{Duration, Instant};

use nvpim_sweep::{
    prepare_campaign_with_telemetry, run_campaign_on, CampaignControl, EstimatorMode,
    ExecutionBackend, Phase, ScalarBackend, ScheduleCache, SlicedBackend, SweepPlan, Telemetry,
    TelemetryCounter, TelemetrySnapshot,
};

/// The campaign path and its scalar reference oracle.
const BACKENDS: [&dyn ExecutionBackend; 2] = [&ScalarBackend, &SlicedBackend];

/// Runs `plan` on `backend` with the given sink and returns the report
/// JSON plus the sink's final snapshot.
fn run_with_sink(
    plan: &SweepPlan,
    backend: &dyn ExecutionBackend,
    telemetry: Telemetry,
) -> (String, TelemetrySnapshot) {
    let mut cache = ScheduleCache::new();
    let prepared = prepare_campaign_with_telemetry(plan, &mut cache, telemetry.clone())
        .expect("plan prepares");
    let tallies = prepared
        .run_shard(backend, 0, plan.trial_count(), Duration::MAX, |_| {
            CampaignControl::Continue
        })
        .expect("campaign runs");
    let report = prepared
        .report_from_tallies(&tallies)
        .expect("tallies cover the campaign");
    (report.to_json(), telemetry.snapshot())
}

/// Runs `plan` on `backend` through the plain (telemetry-free) path.
fn run_plain(plan: &SweepPlan, backend: &dyn ExecutionBackend) -> String {
    run_campaign_on(plan, backend)
        .expect("campaign runs")
        .to_json()
}

fn assert_identical_with_and_without_telemetry(plan: &SweepPlan) {
    for backend in BACKENDS {
        let plain = run_plain(plan, backend);
        let (instrumented, snap) = run_with_sink(plan, backend, Telemetry::new());
        assert_eq!(
            plain, instrumented,
            "telemetry changed report bytes on {backend:?}"
        );
        assert_eq!(
            snap.counter(TelemetryCounter::TrialsExecuted),
            plan.trial_count(),
            "every trial must be counted exactly once on {backend:?}"
        );
        // A disabled sink is also byte-identical (and records nothing).
        let (disabled_run, disabled_snap) = run_with_sink(plan, backend, Telemetry::disabled());
        assert_eq!(plain, disabled_run);
        assert_eq!(disabled_snap.counter(TelemetryCounter::TrialsExecuted), 0);
    }
}

#[test]
fn quick_plan_reports_are_byte_identical_with_telemetry() {
    let mut plan = SweepPlan::quick();
    plan.seeds_per_point = 4;
    assert_identical_with_and_without_telemetry(&plan);
}

#[test]
fn paper_scale_reports_are_byte_identical_with_telemetry() {
    // The full paper-scale grid, at a trial count that keeps debug-mode CI
    // fast; the grid shape (workloads × technologies × protections ×
    // rates) is exactly `paper_scale`'s.
    let mut plan = SweepPlan::paper_scale();
    plan.seeds_per_point = 2;
    assert_identical_with_and_without_telemetry(&plan);
}

#[test]
fn phase_spans_and_counters_match_the_campaign_shape() {
    let mut plan = SweepPlan::quick();
    plan.seeds_per_point = 8;
    let (_, snap) = run_with_sink(&plan, &ScalarBackend, Telemetry::new());

    assert_eq!(snap.phase_count(Phase::PlanValidation), 1);
    assert!(snap.phase_count(Phase::Aggregation) >= 1);
    // Every schedule lookup is classified as exactly one of compile/hit,
    // and the span counts agree with the first-class counters.
    assert_eq!(
        snap.phase_count(Phase::ScheduleCompile),
        snap.counter(TelemetryCounter::ScheduleCompiles)
    );
    assert_eq!(
        snap.phase_count(Phase::ScheduleCacheHit),
        snap.counter(TelemetryCounter::ScheduleCacheHits)
    );
    assert!(snap.counter(TelemetryCounter::ScheduleCompiles) >= 1);

    // On the scalar backend every trial either settles analytically or
    // runs a gate-execution span — the two partitions cover the campaign.
    let trials = snap.counter(TelemetryCounter::TrialsExecuted);
    let settled = snap.counter(TelemetryCounter::CleanSettledTrials);
    assert_eq!(trials, plan.trial_count());
    assert!(settled <= trials);
    assert_eq!(
        snap.phase_count(Phase::GateExecution) + settled,
        trials,
        "scalar trials partition into gate-executed and clean-settled"
    );
    assert_eq!(
        snap.phase_count(Phase::AnalyticCleanSettle),
        settled,
        "a clean-settle span is recorded iff the fast path settled"
    );
    // The exact estimator never redraws.
    assert_eq!(snap.counter(TelemetryCounter::EstimatorRedraws), 0);
}

#[test]
fn stratified_campaigns_count_estimator_redraws() {
    let mut plan = SweepPlan::quick();
    plan.seeds_per_point = 4;
    plan.estimator = EstimatorMode::Stratified;
    for backend in BACKENDS {
        let (_, snap) = run_with_sink(&plan, backend, Telemetry::new());
        assert_eq!(
            snap.counter(TelemetryCounter::EstimatorRedraws),
            plan.trial_count(),
            "every stratified trial is conditioned (redrawn) exactly once on {backend:?}"
        );
        assert!(snap.phase_count(Phase::EstimatorRedraw) > 0);
        assert_eq!(
            snap.counter(TelemetryCounter::CleanSettledTrials),
            0,
            "conditioned trials can never settle clean"
        );
    }
}

/// Opt-in wall-clock overhead gate (`NVPIM_BENCH_GUARD=1`, CI perf-guard
/// lane): an instrumented quick campaign must stay within 5% of the
/// telemetry-disabled run. Byte-identity above is asserted always; only
/// the timing comparison is gated, because it is meaningless under debug
/// contention on a loaded laptop.
#[test]
fn telemetry_overhead_stays_within_budget() {
    let mut plan = SweepPlan::quick();
    plan.seeds_per_point = 16;
    // Always exercised so the instrumented path stays covered…
    let (instrumented, _) = run_with_sink(&plan, &SlicedBackend, Telemetry::new());
    let plain = run_plain(&plan, &SlicedBackend);
    assert_eq!(plain, instrumented);
    // …but the timing assertion only runs in guard mode.
    if std::env::var("NVPIM_BENCH_GUARD").map(|v| v == "1") != Ok(true) {
        return;
    }
    let best = |f: &dyn Fn()| {
        (0..5)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed()
            })
            .min()
            .expect("five samples")
    };
    let disabled = best(&|| {
        run_plain(&plan, &SlicedBackend);
    });
    let enabled = best(&|| {
        run_with_sink(&plan, &SlicedBackend, Telemetry::new());
    });
    let budget = disabled.mul_f64(1.05) + std::time::Duration::from_millis(2);
    assert!(
        enabled <= budget,
        "instrumented run {enabled:?} exceeds 105% of the plain run {disabled:?}"
    );
}
