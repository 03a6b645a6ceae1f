//! Accuracy-campaign contract tests: inference-accuracy campaigns must be
//! byte-reproducible (across backends, chunk sizes and repeated runs, with
//! stuck-at defect maps a pure function of the campaign seed), statistically
//! sane (top-1 fidelity exactly 1.0 at the fault-free point and
//! non-increasing in the fault rate on the low-rate grid), and must show the
//! paper's headline effect: an online detect-and-recompute scheme recovers
//! measurably more task accuracy than the unprotected baseline at the same
//! fault rate.
//!
//! `RAYON_NUM_THREADS` is process-global (see `determinism.rs`), so this
//! file varies parallelism through backends and chunk sizes only.

use std::time::Duration;

use nvpim_core::config::{GateStyle, ProtectionScheme};
use nvpim_sim::technology::Technology;
use nvpim_sweep::{
    prepare_campaign, run_campaign, run_campaign_on, CampaignControl, CampaignKind, EstimatorMode,
    ProtectionConfig, ScalarBackend, ScheduleCache, SlicedBackend, SweepError, SweepPlan,
    SweepWorkload,
};
use nvpim_workloads::Benchmark;

fn accuracy_plan(rates: &[f64], stuck_at_rate: f64, seeds_per_point: u64) -> SweepPlan {
    SweepPlan {
        workloads: vec![SweepWorkload::Benchmark(Benchmark::Mnist {
            weight_bits: 1,
        })],
        technologies: vec![Technology::ReramCrossbar],
        protections: vec![
            ProtectionConfig::UNPROTECTED,
            ProtectionConfig::DETECT_RECOMPUTE,
        ],
        gate_error_rates: rates.to_vec(),
        seeds_per_point,
        campaign_seed: 0xACC0_CAFE,
        estimator: EstimatorMode::Exact,
        kind: CampaignKind::Accuracy,
        stuck_at_rate,
    }
}

/// Accuracy reports are a pure function of the plan: backend choice, chunk
/// size and repeated execution never change a byte. The report carries
/// `schema_version` 3 and an accuracy summary on every point.
#[test]
fn accuracy_reports_are_byte_identical_across_backends_chunks_and_runs() {
    let plan = accuracy_plan(&[0.0, 1e-3], 1e-4, 6);
    let baseline = run_campaign(&plan).unwrap();
    assert_eq!(baseline.schema_version, 3);
    for point in &baseline.points {
        let accuracy = point
            .accuracy
            .as_ref()
            .unwrap_or_else(|| panic!("{} carries no accuracy summary", point.protection));
        assert_eq!(accuracy.evaluated_trials, plan.seeds_per_point);
        assert!(point.estimator.is_none(), "exact mode carries no estimator");
    }

    let baseline_json = baseline.to_json();
    let again = run_campaign(&plan).unwrap().to_json();
    assert_eq!(baseline_json, again, "same plan twice → identical bytes");

    let scalar = run_campaign_on(&plan, &ScalarBackend).unwrap().to_json();
    assert_eq!(baseline_json, scalar, "scalar backend must agree");

    for cadence in [Duration::ZERO, Duration::from_millis(7)] {
        let mut cache = ScheduleCache::new();
        let prepared = prepare_campaign(&plan, &mut cache).unwrap();
        let tallies = prepared
            .run_shard(&SlicedBackend, 0, prepared.trial_count(), cadence, |_| {
                CampaignControl::Continue
            })
            .unwrap();
        let checkpointed = prepared.report_from_tallies(&tallies).unwrap().to_json();
        assert_eq!(
            baseline_json, checkpointed,
            "checkpoint cadence {cadence:?} must agree"
        );
    }
}

/// Accuracy points run lane-batched, and every registered scheme's lane
/// batch replays the scalar oracle byte for byte under stuck-at defects and
/// transient faults: five schemes over one partial batch, then TRiM over a
/// full 64-lane batch plus a one-lane tail. (ECiM costs the debug-build
/// oracle four times what TRiM does per trial.)
#[test]
fn accuracy_reports_match_the_scalar_oracle_for_every_scheme() {
    let mut plan = accuracy_plan(&[1e-3], 0.02, 9);
    plan.protections = ProtectionScheme::all()
        .map(|scheme| ProtectionConfig {
            scheme,
            gate_style: GateStyle::MultiOutput,
        })
        .collect();
    let mut full_batch = accuracy_plan(&[1e-3], 0.02, 65);
    full_batch.protections = vec![ProtectionConfig::TRIM];
    for plan in [plan, full_batch] {
        let prepared = prepare_campaign(&plan, &mut ScheduleCache::new()).unwrap();
        let sliced = prepared.run().unwrap();
        let tallies = prepared
            .run_shard(
                &ScalarBackend,
                0,
                prepared.trial_count(),
                Duration::MAX,
                |_| CampaignControl::Continue,
            )
            .unwrap();
        let scalar = prepared.report_from_tallies(&tallies).unwrap();
        assert_eq!(
            sliced.to_json(),
            scalar.to_json(),
            "{} seeds per point",
            plan.seeds_per_point
        );
        for point in &sliced.points {
            assert!(point.errors_detected > 0 || point.protection.starts_with("unprotected"));
            if point.protection.starts_with("ECiM") || point.protection.starts_with("TRiM") {
                assert!(
                    point.corrections_written_back > 0,
                    "{}: corrections must meet the defects",
                    point.protection
                );
            }
        }
    }
}

/// Per-trial stuck-at defect maps derive from the campaign seed alone: the
/// same plan reproduces byte-identically, a reseeded plan lands different
/// defects, and the defects are real — at a zero transient rate they alone
/// corrupt inference (silently for the unprotected baseline, visibly for
/// the detecting scheme, whose transient fault log stays empty).
#[test]
fn stuck_at_defect_maps_derive_from_the_campaign_seed() {
    let plan = accuracy_plan(&[0.0], 0.02, 8);
    let report = run_campaign(&plan).unwrap();
    assert_eq!(
        report.to_json(),
        run_campaign(&plan).unwrap().to_json(),
        "defect maps must reproduce from the seed"
    );

    let mut reseeded = plan.clone();
    reseeded.campaign_seed ^= 0x5AD_DEFEC;
    assert_ne!(
        report.to_json(),
        run_campaign(&reseeded).unwrap().to_json(),
        "a different campaign seed must land different defects"
    );

    let unprotected = &report.points[0];
    let recompute = &report.points[1];
    assert!(unprotected.protection.starts_with("unprotected"));
    assert!(recompute.protection.starts_with("detect-recompute"));
    let base_acc = unprotected.accuracy.as_ref().unwrap().accuracy;
    let rec_acc = recompute.accuracy.as_ref().unwrap().accuracy;
    assert!(
        base_acc < 1.0,
        "2% stuck cells must corrupt unprotected inference (got {base_acc})"
    );
    // Stuck pins are permanent state, not injected transient faults — but
    // the parity checker still sees and flags the corrupted levels.
    assert_eq!(unprotected.faults_injected, 0);
    assert_eq!(recompute.faults_injected, 0);
    assert!(recompute.errors_detected > 0, "defects must be detected");
    assert!(
        rec_acc > base_acc,
        "recompute must recover accuracy from defects ({rec_acc} vs {base_acc})"
    );
}

/// On the low-rate smoke grid, top-1 fidelity is exactly 1.0 at the
/// fault-free point and monotonically non-increasing in the gate fault
/// rate — and DetectRecompute recovers measurably more accuracy than the
/// unprotected baseline at every faulty rate (the subsystem's headline
/// claim).
#[test]
fn accuracy_degrades_monotonically_and_recompute_recovers_it() {
    let rates = [0.0, 1e-4, 3e-4];
    let report = run_campaign(&accuracy_plan(&rates, 0.0, 16)).unwrap();
    assert_eq!(report.points.len(), 2 * rates.len());

    let series = |label: &str| -> Vec<f64> {
        report
            .points
            .iter()
            .filter(|p| p.protection.starts_with(label))
            .map(|p| {
                let a = p.accuracy.as_ref().unwrap();
                assert!(a.accuracy_ci_low <= a.accuracy && a.accuracy <= a.accuracy_ci_high);
                assert!((a.top1_delta - (a.accuracy - 1.0)).abs() < 1e-12);
                a.accuracy
            })
            .collect()
    };
    let unprotected = series("unprotected");
    let recompute = series("detect-recompute");

    // Fault-free fidelity is exactly 1.0 by construction: the clean PiM
    // path agrees with the software reference bit for bit.
    assert_eq!(unprotected[0], 1.0);
    assert_eq!(recompute[0], 1.0);
    for pair in unprotected.windows(2) {
        assert!(pair[1] <= pair[0], "unprotected: {unprotected:?}");
    }
    for pair in recompute.windows(2) {
        assert!(pair[1] <= pair[0], "recompute: {recompute:?}");
    }
    // Measurable recovery at both faulty rates, not a rounding artifact.
    for (i, _) in rates.iter().enumerate().skip(1) {
        assert!(
            recompute[i] >= unprotected[i] + 0.15,
            "rate {}: recompute {} vs unprotected {}",
            rates[i],
            recompute[i],
            unprotected[i]
        );
    }
}

/// Accuracy campaigns are validated up front: label-less workloads, the
/// stratified estimator and out-of-range defect densities are rejected
/// before any trial runs.
#[test]
fn accuracy_campaigns_reject_unlabelled_workloads_and_stratified_estimation() {
    let mut unlabelled = accuracy_plan(&[1e-3], 0.0, 2);
    unlabelled.workloads = vec![SweepWorkload::Mac {
        acc_bits: 8,
        mul_bits: 4,
    }];
    assert!(matches!(
        run_campaign(&unlabelled),
        Err(SweepError::UnsupportedCampaign(_))
    ));

    let mut stratified = accuracy_plan(&[1e-3], 0.0, 2);
    stratified.estimator = EstimatorMode::Stratified;
    assert!(matches!(
        run_campaign(&stratified),
        Err(SweepError::UnsupportedCampaign(_))
    ));

    let mut bad_density = accuracy_plan(&[1e-3], 0.0, 2);
    bad_density.stuck_at_rate = 1.5;
    assert!(matches!(
        run_campaign(&bad_density),
        Err(SweepError::InvalidErrorRate(_))
    ));
}
