//! Statistical validation of the stratified rare-event estimator.
//!
//! Three claims are tested, per the estimator's contract:
//!
//! 1. **Coverage** — over a grid of (scheme × rate) points, the stratified
//!    estimate's 95% Wilson interval covers the exact-mode observed rate
//!    (up to the exact mode's own sampling noise, since both estimates are
//!    finite-sample).
//! 2. **Unbiasedness** — the window-truncated geometric redraw plus `P1`
//!    reweighting is *exactly* unbiased: analytically (the reweighted pmf
//!    mass below any threshold is identically the unconditional
//!    probability) and empirically on a synthetic known-probability
//!    workload.
//! 3. **Byte stability** — exact-mode reports keep `schema_version` 1 and
//!    carry no `estimator` key, and every registered scheme passes the
//!    analytic-clean cross-check the fast path's legality rests on.

use nvpim_core::config::{GateStyle, ProtectionScheme};
use nvpim_sim::array::PimArray;
use nvpim_sim::fault::{ErrorRates, FaultInjector};
use nvpim_sim::technology::Technology;
use nvpim_sweep::{
    run_campaign, EstimatorMode, ProtectionConfig, SweepPlan, SweepWorkload, Telemetry,
    TelemetryCounter, TrialArena, TrialHarness,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn grid_plan(estimator: EstimatorMode, seeds_per_point: u64) -> SweepPlan {
    SweepPlan {
        workloads: vec![SweepWorkload::Mac {
            acc_bits: 8,
            mul_bits: 4,
        }],
        technologies: vec![Technology::SttMram],
        protections: vec![
            ProtectionConfig::UNPROTECTED,
            ProtectionConfig::ECIM,
            ProtectionConfig::TRIM,
            ProtectionConfig::PARITY_DETECT,
        ],
        gate_error_rates: vec![3e-4, 1e-3],
        seeds_per_point,
        campaign_seed: 0xE571_3A7E,
        estimator,
        kind: nvpim_sweep::CampaignKind::Error,
        stuck_at_rate: 0.0,
    }
}

#[test]
fn stratified_cis_cover_exact_mode_rates_across_schemes_and_rates() {
    let exact = run_campaign(&grid_plan(EstimatorMode::Exact, 128)).unwrap();
    let stratified = run_campaign(&grid_plan(EstimatorMode::Stratified, 64)).unwrap();
    assert_eq!(exact.schema_version, 1);
    assert_eq!(stratified.schema_version, 2);
    assert_eq!(exact.points.len(), stratified.points.len());

    for (e, s) in exact.points.iter().zip(&stratified.points) {
        assert_eq!(
            (e.protection.as_str(), e.gate_error_rate),
            (s.protection.as_str(), s.gate_error_rate)
        );
        assert!(e.estimator.is_none(), "exact points carry no estimator");
        let est = s
            .estimator
            .as_ref()
            .unwrap_or_else(|| panic!("stratified point {} lacks an estimator", s.protection));
        assert!(est.stratified, "grid rates lie in (0, 1): must condition");
        assert!(est.decisions_per_trial > 0);
        assert!(est.fault_probability > 0.0 && est.fault_probability < 1.0);
        // Every conditioned trial carries at least one injected fault.
        assert!(
            s.faults_injected >= s.trials,
            "{} @ {}: {} faults over {} conditioned trials",
            s.protection,
            s.gate_error_rate,
            s.faults_injected,
            s.trials
        );

        // Coverage up to the exact mode's own binomial noise: the exact
        // observed rate is itself ±2σ off the true rate the CI targets.
        let n_exact = (e.trials - e.exec_errors) as f64;
        for (label, exact_rate, lo, hi) in [
            (
                "output_error_rate",
                e.output_error_rate,
                est.output_error_ci_low,
                est.output_error_ci_high,
            ),
            (
                "silent_failure_rate",
                e.silent_failures as f64 / n_exact,
                est.silent_failure_ci_low,
                est.silent_failure_ci_high,
            ),
        ] {
            let slack = 2.0 * (hi.max(exact_rate) / n_exact).sqrt();
            assert!(
                exact_rate >= lo - slack && exact_rate <= hi + slack,
                "{} @ {}: {label} {exact_rate:.4e} outside CI [{lo:.4e}, {hi:.4e}] ± {slack:.4e}",
                s.protection,
                s.gate_error_rate,
            );
        }
    }
}

#[test]
fn rare_rates_become_tractable_with_guaranteed_conditional_samples() {
    // The point of the estimator: at a gate rate of 1e-6, eight exact
    // trials would essentially never observe a fault; eight conditioned
    // trials all do, and stand for hundreds to thousands of effective
    // plain trials (1/P1, which depends on each scheme's decision window).
    let mut plan = grid_plan(EstimatorMode::Stratified, 8);
    plan.gate_error_rates = vec![1e-6];
    let report = run_campaign(&plan).unwrap();
    for p in &report.points {
        let est = p.estimator.as_ref().expect("estimator present");
        assert!(est.stratified);
        assert!(
            p.faults_injected >= p.trials,
            "conditioning guarantees faults"
        );
        assert!(
            est.effective_trials > 100.0 * p.trials as f64,
            "{}: {} conditioned trials must stand for >100x effective ones, got {}",
            p.protection,
            p.trials,
            est.effective_trials
        );
        assert!(est.output_error_ci_high < 1.0, "CI reflects the tiny P1");
    }
}

#[test]
fn exact_mode_reports_keep_schema_version_one_and_no_estimator_key() {
    let mut plan = SweepPlan::quick();
    plan.seeds_per_point = 2;
    let json = run_campaign(&plan).unwrap().to_json();
    assert!(json.contains("\"schema_version\": 1"));
    assert!(
        !json.contains("estimator"),
        "exact-mode bytes must be schema-1 stable"
    );
}

/// The decision window of `harness`'s design, measured on the scalar
/// oracle: one fault-free trial on the first clean probe's inputs.
fn scalar_clean_decisions(harness: &TrialHarness) -> u64 {
    let probe_seed = 0xC1EA_0001;
    let technology = harness.config().technology;
    let netlist = &harness.kernel().netlist;
    let mut input_rng = ChaCha8Rng::seed_from_u64(probe_seed);
    let inputs: Vec<bool> = (0..netlist.inputs.len())
        .map(|_| input_rng.gen_bool(0.5))
        .collect();
    let mut array = PimArray::standard(technology);
    array.reset_for_trial(technology, ErrorRates::NONE, probe_seed);
    harness
        .executor()
        .run(netlist, &harness.kernel().schedule, &mut array, 0, &inputs)
        .expect("clean scalar trial runs");
    array.fault_injector().decision_count()
}

#[test]
fn every_registered_scheme_passes_the_analytic_clean_cross_check() {
    // The fast path's legality check: two clean probes with different
    // inputs must agree on the decision window and the clean outcome for
    // every registered scheme (each declares `analytic_clean`), on every
    // gate style, technology and kernel. The profile is captured on the
    // lane engine; the scalar oracle must measure the same window, and a
    // batch the profile settles must match trials simulated in full.
    let workloads = [
        SweepWorkload::Mac {
            acc_bits: 8,
            mul_bits: 4,
        },
        SweepWorkload::RippleAdd { bits: 8 },
    ];
    for scheme in ProtectionScheme::all() {
        for gate_style in [GateStyle::MultiOutput, GateStyle::SingleOutput] {
            let protection = ProtectionConfig { scheme, gate_style };
            for technology in Technology::ALL_EXTENDED {
                for workload in workloads {
                    let label = format!(
                        "{} on {technology}, {}",
                        protection.label(),
                        workload.name()
                    );
                    let harness = TrialHarness::new(
                        workload,
                        protection,
                        protection.design_config(technology),
                        0.0,
                    )
                    .unwrap();
                    let decisions = harness
                        .clean_decisions()
                        .unwrap_or_else(|| panic!("{label} failed the clean-profile cross-check"));
                    assert!(decisions > 0, "{label} must make gate decisions");
                    assert_eq!(
                        decisions,
                        scalar_clean_decisions(&harness),
                        "{label}: lane-captured decision window differs from the scalar oracle's"
                    );

                    let sink = Telemetry::new();
                    let mut arena = TrialArena::with_telemetry(&sink);
                    let settled = harness.run_trial_batch(0xC1EA, 0, 64, &mut arena);
                    arena.flush_telemetry();
                    assert_eq!(
                        sink.counter(TelemetryCounter::CleanSettledBatches),
                        1,
                        "{label}: the rate-0 batch must settle on the clean profile"
                    );
                    let full = harness.without_analytic_fast_path();
                    let mut arena = TrialArena::new();
                    let simulated: Vec<_> = (0..64)
                        .map(|t| full.run_trial(0xC1EA, t, &mut arena))
                        .collect();
                    assert_eq!(
                        settled, simulated,
                        "{label}: the clean profile's outcome differs from a full simulation"
                    );
                }
            }
        }
    }
}

/// `P(first fault among the first t decisions)` for per-decision rate `p`.
fn unconditional_threshold_probability(p: f64, t: u64) -> f64 {
    1.0 - (1.0 - p).powi(t as i32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Analytic unbiasedness: the truncated-geometric pmf, reweighted by
    /// `P1`, puts *exactly* the unconditional probability mass below every
    /// threshold — reweighting introduces no bias at any (p, window, t).
    #[test]
    fn reweighted_truncated_mass_matches_the_unconditional_probability(
        p in 1e-4f64..0.2,
        window in 1u64..1500,
        t_frac in 0.0f64..1.0,
    ) {
        let t = 1 + (t_frac * (window - 1) as f64) as u64; // 1..=window
        let p1 = FaultInjector::fault_within_probability(p, window);
        // Sum of the conditioned pmf (1-p)^s * p / P1 for s < t.
        let mass: f64 = (0..t).map(|s| (1.0 - p).powi(s as i32) * p / p1).sum();
        let expected = unconditional_threshold_probability(p, t);
        let err = (p1 * mass - expected).abs();
        prop_assert!(
            err < 1e-12,
            "p={p}, window={window}, t={t}: reweighted mass {} vs exact {expected}",
            p1 * mass
        );
    }
}

#[test]
fn sampled_reweighted_estimate_is_unbiased_on_a_synthetic_workload() {
    // Synthetic known-probability workload: "failure" = the first fault
    // lands among the first `t` of `window` decisions. True unconditional
    // probability: 1 - (1-p)^t. The stratified estimate draws S from the
    // window-truncated geometric and reports P1 * mean(S < t).
    let p = 2e-3;
    let window = 800u64;
    let t = 250u64;
    let trials = 200_000u64;
    let p1 = FaultInjector::fault_within_probability(p, window);
    let mut rng = ChaCha8Rng::seed_from_u64(0x5717_A71F);
    let hits = (0..trials)
        .filter(|_| FaultInjector::sample_truncated_geometric(&mut rng, p, window) < t)
        .count() as f64;
    let estimate = p1 * hits / trials as f64;
    let expected = unconditional_threshold_probability(p, t);
    // 5σ band on the reweighted binomial estimate.
    let q = expected / p1;
    let sigma = p1 * (q * (1.0 - q) / trials as f64).sqrt();
    assert!(
        (estimate - expected).abs() < 5.0 * sigma,
        "estimate {estimate:.6e} vs true {expected:.6e} (sigma {sigma:.2e})"
    );
}
