//! Scheme-registry contract tests: every registered
//! [`SchemeRuntime`](nvpim_core::scheme::SchemeRuntime) — including ones
//! added after the engine shipped, like `ParityDetect` — must round-trip
//! through every identity surface (names, plan JSON, content digests) and
//! honour its declared capabilities (and every scheme's required sliced run
//! path must produce lane-for-lane scalar-identical trials).

use std::str::FromStr;

use nvpim_core::config::{DesignConfig, GateStyle, ProtectionScheme};
use nvpim_core::scheme::registry;
use nvpim_sim::technology::Technology;
use nvpim_sweep::{
    run_campaign, run_campaign_on, ProtectionConfig, ScalarBackend, SweepPlan, SweepWorkload,
    TrialArena, TrialHarness,
};
use proptest::prelude::*;

fn registry_protections() -> Vec<ProtectionConfig> {
    // Both gate styles of every registered scheme.
    ProtectionScheme::all()
        .flat_map(|scheme| {
            [GateStyle::MultiOutput, GateStyle::SingleOutput]
                .into_iter()
                .map(move |gate_style| ProtectionConfig { scheme, gate_style })
        })
        .collect()
}

/// The registry-completeness gate: a scheme may not be registered without a
/// usable identity and a consistent capability sheet.
#[test]
fn every_registered_scheme_declares_consistent_capabilities() {
    let mut wire_names = std::collections::HashSet::new();
    for runtime in registry() {
        let wire = runtime.wire_name();
        assert!(wire_names.insert(wire), "duplicate wire name {wire}");

        // Identity: wire name, display name and every alias parse back to
        // the same scheme; parsing is case-exact and registry-driven.
        let scheme = ProtectionScheme::from_str(wire)
            .unwrap_or_else(|e| panic!("{wire} must parse by wire name: {e}"));
        assert_eq!(scheme.wire_name(), wire);
        assert_eq!(
            ProtectionScheme::from_str(runtime.display_name()).unwrap(),
            scheme,
            "{wire} must parse by display name"
        );
        for alias in runtime.aliases() {
            assert_eq!(
                ProtectionScheme::from_str(alias).unwrap(),
                scheme,
                "{wire} alias {alias} must parse"
            );
        }

        // Geometry: the capability sheet must agree with what the design
        // configuration actually reserves.
        let config = DesignConfig::for_scheme(scheme, Technology::SttMram);
        let caps = runtime.capabilities(&config);
        assert_eq!(caps.metadata_columns, config.metadata_columns(), "{wire}");
        assert_eq!(caps.cells_per_value, config.cells_per_value(), "{wire}");
        assert_eq!(caps.detect_only, runtime.detect_only(), "{wire}");
        let layout = config.row_layout();
        assert_eq!(layout.metadata_columns, caps.metadata_columns, "{wire}");
        assert_eq!(layout.cells_per_value, caps.cells_per_value, "{wire}");
        // A scheme claiming online recompute writes corrections back, so it
        // cannot also claim to be detection-only.
        if caps.recompute {
            assert!(!caps.detect_only, "{wire}: recompute schemes correct");
        }
    }
    assert!(
        wire_names.contains("ParityDetect"),
        "the plugin-path proof scheme must stay registered"
    );
    assert!(
        wire_names.contains("DetectRecompute"),
        "the recompute scheme must stay registered"
    );
    let recompute = ProtectionScheme::from_str("DetectRecompute")
        .unwrap()
        .runtime();
    let caps = recompute.capabilities(&DesignConfig::for_scheme(
        ProtectionScheme::from_str("DetectRecompute").unwrap(),
        Technology::SttMram,
    ));
    assert!(caps.recompute && caps.stuck_at_aware);
}

/// DetectRecompute's lane-batched path is bit-identical to its scalar path
/// even with permanent stuck-at defects in the fault regime — the sliced
/// injector's per-lane defect maps replay the scalar hash exactly, and the
/// recompute write-backs land on the same cells.
#[test]
fn detect_recompute_runs_lane_for_lane_with_stuck_at_defects() {
    let mut plan = SweepPlan::quick();
    let recompute = ProtectionScheme::from_str("DetectRecompute").unwrap();
    plan.protections = vec![
        ProtectionConfig {
            scheme: recompute,
            gate_style: GateStyle::MultiOutput,
        },
        ProtectionConfig {
            scheme: recompute,
            gate_style: GateStyle::SingleOutput,
        },
    ];
    plan.gate_error_rates = vec![0.0, 1e-3];
    plan.stuck_at_rate = 1e-3;
    plan.seeds_per_point = 70; // crosses a 64-lane batch boundary
    let sliced = run_campaign(&plan).unwrap();
    let scalar = run_campaign_on(&plan, &ScalarBackend).unwrap();
    assert_eq!(
        sliced.to_json(),
        scalar.to_json(),
        "sliced and scalar DetectRecompute must agree with defects present"
    );
    let faulty: Vec<_> = sliced
        .points
        .iter()
        .filter(|p| p.gate_error_rate > 0.0)
        .collect();
    assert!(!faulty.is_empty());
    for point in faulty {
        assert!(point.errors_detected > 0, "{}", point.protection);
        assert!(
            point.corrections_written_back > 0,
            "{}: recompute must write corrections back",
            point.protection
        );
    }
}

/// Every scheme's sliced run path is exercised: a lane batch of its trials
/// is bit-identical to the same trials run one-by-one on the scalar path.
#[test]
fn declared_sliced_capability_is_exercised_for_every_scheme() {
    let workload = SweepWorkload::Mac {
        acc_bits: 8,
        mul_bits: 4,
    };
    for protection in registry_protections() {
        let config = protection.design_config(Technology::SttMram);
        let harness = TrialHarness::new(workload, protection, config, 1.5e-3)
            .unwrap_or_else(|e| panic!("{}: {e}", protection.label()));
        let mut arena = TrialArena::new();
        let batched = harness.run_trial_batch(0xcafe, 0, 9, &mut arena);
        let singles: Vec<_> = (0..9u64)
            .map(|t| harness.run_trial(0xcafe, t, &mut arena))
            .collect();
        assert_eq!(
            batched,
            singles,
            "{}: sliced batch must equal scalar trials",
            protection.label()
        );
    }
}

/// Detection-only schemes never write corrections back, and their
/// detections surface as uncorrectable (would-be-retry) counts so no
/// failure is silent while the parity holds.
#[test]
fn detect_only_schemes_never_correct() {
    let mut plan = SweepPlan::quick();
    plan.protections = registry_protections()
        .into_iter()
        .filter(|p| p.scheme.runtime().detect_only())
        .collect();
    assert!(
        !plan.protections.is_empty(),
        "registry carries at least one detection-only scheme"
    );
    plan.gate_error_rates = vec![2e-3];
    plan.seeds_per_point = 32;
    let report = run_campaign(&plan).unwrap();
    for point in &report.points {
        assert_eq!(point.corrections_written_back, 0, "{}", point.protection);
        assert!(point.errors_detected > 0, "{}", point.protection);
        assert_eq!(
            point.uncorrectable_checks, point.errors_detected,
            "{}: every detection is one would-be retry",
            point.protection
        );
    }
}

/// A campaign spanning the whole registry (both gate styles) is
/// byte-identical across backends — the ExecutionBackend contract holds
/// for plugin schemes exactly as for built-ins.
#[test]
fn full_registry_campaign_is_backend_invariant() {
    let mut plan = SweepPlan::quick();
    plan.protections = registry_protections();
    plan.gate_error_rates = vec![0.0, 1e-3];
    plan.seeds_per_point = 5;
    let sliced = run_campaign(&plan).unwrap();
    let scalar = run_campaign_on(&plan, &ScalarBackend).unwrap();
    assert_eq!(sliced.to_json(), scalar.to_json());
    assert_eq!(
        sliced.points.len(),
        registry().len() * 2 * 2,
        "every registered scheme ran under both gate styles and both rates"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `FromStr` round-trips every registered scheme through both its
    /// names under arbitrary decoration-free selection.
    #[test]
    fn from_str_roundtrips_over_the_registry(index in 0usize..64, by_display in 0u8..2) {
        let schemes: Vec<ProtectionScheme> = ProtectionScheme::all().collect();
        let scheme = schemes[index % schemes.len()];
        let text = if by_display == 1 { scheme.name() } else { scheme.wire_name() };
        let parsed = ProtectionScheme::from_str(text).unwrap();
        prop_assert_eq!(parsed, scheme);
    }

    /// Canonical plan JSON round-trips through the parser with identical
    /// canonical bytes and content digest, for plans drawn from the full
    /// scheme registry (including `ParityDetect`).
    #[test]
    fn plan_json_roundtrips_over_the_registry(
        n_protections in 1usize..9,
        offset in 0usize..8,
        seeds in 1u64..20,
        seed in 0u64..u64::MAX,
    ) {
        let pool = registry_protections();
        let mut plan = SweepPlan::quick();
        plan.protections = pool
            .iter()
            .cycle()
            .skip(offset)
            .take(n_protections)
            .copied()
            .collect();
        plan.seeds_per_point = seeds;
        plan.campaign_seed = seed;

        let canonical = plan.canonical_json();
        let parsed = SweepPlan::from_json_str(&canonical).unwrap();
        prop_assert_eq!(parsed.canonical_json(), canonical.clone());
        prop_assert_eq!(parsed.content_digest(), plan.content_digest());
        prop_assert_eq!(&parsed.protections, &plan.protections);

        // Digest sensitivity: swapping any scheme for a different one
        // changes the content address.
        let mut mutated = plan.clone();
        let replacement = pool
            .iter()
            .copied()
            .find(|p| p != &mutated.protections[0])
            .unwrap();
        mutated.protections[0] = replacement;
        prop_assert_ne!(mutated.content_digest(), plan.content_digest());
    }
}
