//! Backend equivalence: the sliced (64-trials-per-`u64`-lane) backend must
//! be observationally indistinguishable from the scalar reference backend —
//! per-trial outcomes, per-trial fault streams and whole-campaign
//! `SweepReport` bytes — across a grid of technologies, protection schemes
//! and error rates, including ragged batch tails (trial counts that are not
//! multiples of 64). Thread-count invariance lives in `determinism.rs`
//! (the one test file allowed to mutate `RAYON_NUM_THREADS`).

use nvpim_sim::technology::Technology;
use nvpim_sweep::{
    run_campaign, run_campaign_on, CampaignKind, EstimatorMode, ProtectionConfig, ScalarBackend,
    SweepPlan, SweepWorkload, TrialArena, TrialHarness, TrialOutcome,
};

const SEED: u64 = 0x51_1CED;

fn mac() -> SweepWorkload {
    SweepWorkload::Mac {
        acc_bits: 8,
        mul_bits: 4,
    }
}

fn both_backends(plan: &SweepPlan) -> (String, String) {
    let scalar = run_campaign_on(plan, &ScalarBackend)
        .expect("scalar campaign runs")
        .to_json();
    let sliced = run_campaign(plan).expect("sliced campaign runs").to_json();
    (scalar, sliced)
}

#[test]
fn reports_are_byte_identical_across_the_technology_scheme_rate_grid() {
    // Every technology × every protection design point (both gate styles)
    // × two error rates, then the ReRAM crossbar with 2% stuck-at cells, so
    // every correction write-back also meets pinned cells. 20 seeds per
    // point is deliberately not a multiple of 64, so every point ends in a
    // ragged lane batch.
    let grid = SweepPlan {
        workloads: vec![mac()],
        technologies: Technology::ALL.to_vec(),
        protections: vec![
            ProtectionConfig::UNPROTECTED,
            ProtectionConfig::ECIM,
            ProtectionConfig::ECIM_SINGLE_OUTPUT,
            ProtectionConfig::TRIM,
            ProtectionConfig::TRIM_SINGLE_OUTPUT,
        ],
        gate_error_rates: vec![3e-4, 2e-3],
        seeds_per_point: 20,
        campaign_seed: SEED,
        estimator: EstimatorMode::Exact,
        kind: CampaignKind::Error,
        stuck_at_rate: 0.0,
    };
    let defective = SweepPlan {
        technologies: vec![Technology::ReramCrossbar],
        stuck_at_rate: 0.02,
        ..grid.clone()
    };
    for plan in [grid, defective] {
        let (scalar, sliced) = both_backends(&plan);
        assert_eq!(
            scalar, sliced,
            "grid reports must be byte-identical at stuck-at {}",
            plan.stuck_at_rate
        );
        assert!(
            scalar.contains("\"faults_injected\""),
            "report shape sanity check"
        );
    }
}

#[test]
fn ragged_trial_counts_are_byte_identical() {
    // 100 = 64 + 36 and 129 = 2×64 + 1: both tails exercise partial lane
    // masks; 129 additionally exercises a single-lane batch. The last plan
    // is the plugin-scheme check: ParityDetect (m-o) at 96 = 64 + 32 trials
    // per point, seed 7, holds the built-ins' byte-identity contract.
    let plans = [
        (ProtectionConfig::paper_trio(), 100u64, SEED ^ 100),
        (ProtectionConfig::paper_trio(), 129, SEED ^ 129),
        (vec![ProtectionConfig::PARITY_DETECT], 96, 7),
    ];
    for (protections, seeds_per_point, campaign_seed) in plans {
        let plan = SweepPlan {
            workloads: vec![mac()],
            technologies: vec![Technology::SttMram],
            protections,
            gate_error_rates: vec![1e-3],
            seeds_per_point,
            campaign_seed,
            estimator: EstimatorMode::Exact,
            kind: CampaignKind::Error,
            stuck_at_rate: 0.0,
        };
        let (scalar, sliced) = both_backends(&plan);
        assert_eq!(
            scalar, sliced,
            "{seeds_per_point} trials/point must not depend on the backend"
        );
    }
}

#[test]
fn batch_outcomes_equal_scalar_outcomes_trial_for_trial() {
    // Below the report aggregation: the raw TrialOutcome structs —
    // including per-trial fault counts — must match for every batch width.
    let harness = TrialHarness::new(
        mac(),
        ProtectionConfig::ECIM,
        ProtectionConfig::ECIM.design_config(Technology::SttMram),
        1e-3,
    )
    .expect("point compiles");
    let mut arena = TrialArena::new();
    let scalar: Vec<TrialOutcome> = (0..129)
        .map(|t| harness.run_trial(SEED, t, &mut arena))
        .collect();
    for widths in [vec![64usize, 64, 1], vec![5, 60, 64], vec![1; 129]] {
        let mut sliced: Vec<TrialOutcome> = Vec::new();
        let mut next = 0u64;
        for w in widths.iter().copied() {
            sliced.extend(harness.run_trial_batch(SEED, next, w, &mut arena));
            next += w as u64;
        }
        assert_eq!(next, 129);
        assert_eq!(sliced, scalar, "batch shape {widths:?}");
    }
    assert!(
        scalar.iter().any(|o| o.faults_injected > 0),
        "this regime must inject faults"
    );
}

#[test]
fn one_arena_serves_sliced_batches_of_interleaved_points() {
    // The sliced arena-purity contract: one TrialBatch reused across
    // batches of different points (technology, scheme, Hamming code) must
    // reproduce fresh-arena results bit for bit.
    let points = [
        TrialHarness::new(
            mac(),
            ProtectionConfig::ECIM,
            ProtectionConfig::ECIM.design_config(Technology::SttMram),
            1e-3,
        )
        .unwrap(),
        TrialHarness::new(
            mac(),
            ProtectionConfig::TRIM,
            ProtectionConfig::TRIM.design_config(Technology::ReRam),
            3e-4,
        )
        .unwrap(),
        TrialHarness::new(
            mac(),
            ProtectionConfig::ECIM,
            ProtectionConfig::ECIM
                .design_config(Technology::SotSheMram)
                .with_hamming_data_bits(64), // Hamming(71, 64)
            1e-4,
        )
        .unwrap(),
    ];
    let mut shared = TrialArena::new();
    let mut interleaved: Vec<Vec<TrialOutcome>> = vec![Vec::new(); points.len()];
    for round in 0..3u64 {
        for (pi, h) in points.iter().enumerate() {
            interleaved[pi].extend(h.run_trial_batch(SEED, round * 64, 64, &mut shared));
        }
    }
    for (pi, h) in points.iter().enumerate() {
        let mut fresh_outcomes = Vec::new();
        for round in 0..3u64 {
            let mut fresh = TrialArena::new();
            fresh_outcomes.extend(h.run_trial_batch(SEED, round * 64, 64, &mut fresh));
        }
        assert_eq!(
            interleaved[pi], fresh_outcomes,
            "point {pi} must be unaffected by arena sharing"
        );
    }
}

#[test]
fn extreme_error_rates_stay_equivalent() {
    // p = 0 (no faults, no RNG) and p = 1 (every gate output flips, no
    // RNG) take special paths in both samplers; they must still agree.
    for rate in [0.0, 1.0] {
        let plan = SweepPlan {
            workloads: vec![mac()],
            technologies: vec![Technology::SttMram],
            protections: ProtectionConfig::paper_trio(),
            gate_error_rates: vec![rate],
            seeds_per_point: 7,
            campaign_seed: SEED,
            estimator: EstimatorMode::Exact,
            kind: CampaignKind::Error,
            stuck_at_rate: 0.0,
        };
        let (scalar, sliced) = both_backends(&plan);
        assert_eq!(scalar, sliced, "rate {rate}");
    }
}
