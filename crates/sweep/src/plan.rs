//! Campaign plans: the cartesian product of workload × technology ×
//! protection × error rate, expanded into deterministic Monte Carlo trials.

use nvpim_compiler::builder::CircuitBuilder;
use nvpim_compiler::netlist::Netlist;
use nvpim_core::config::{DesignConfig, GateStyle, ProtectionScheme};
use nvpim_sim::technology::Technology;
use nvpim_workloads::Benchmark;
use serde::{Serialize, Value};

/// A protection design point: scheme plus gate style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct ProtectionConfig {
    /// Protection scheme (unprotected baseline, ECiM or TRiM).
    pub scheme: ProtectionScheme,
    /// Multi- or single-output metadata generation.
    pub gate_style: GateStyle,
}

impl ProtectionConfig {
    /// The unprotected iso-area baseline.
    pub const UNPROTECTED: ProtectionConfig = ProtectionConfig {
        scheme: ProtectionScheme::Unprotected,
        gate_style: GateStyle::MultiOutput,
    };
    /// ECiM with multi-output gates (the paper's primary design point).
    pub const ECIM: ProtectionConfig = ProtectionConfig {
        scheme: ProtectionScheme::Ecim,
        gate_style: GateStyle::MultiOutput,
    };
    /// ECiM with single-output gates.
    pub const ECIM_SINGLE_OUTPUT: ProtectionConfig = ProtectionConfig {
        scheme: ProtectionScheme::Ecim,
        gate_style: GateStyle::SingleOutput,
    };
    /// TRiM with multi-output gates.
    pub const TRIM: ProtectionConfig = ProtectionConfig {
        scheme: ProtectionScheme::Trim,
        gate_style: GateStyle::MultiOutput,
    };
    /// TRiM with single-output gates.
    pub const TRIM_SINGLE_OUTPUT: ProtectionConfig = ProtectionConfig {
        scheme: ProtectionScheme::Trim,
        gate_style: GateStyle::SingleOutput,
    };
    /// Detection-only even parity with multi-output gates (lands through
    /// the scheme registry's plugin path — no engine dispatch knows it).
    pub const PARITY_DETECT: ProtectionConfig = ProtectionConfig {
        scheme: ProtectionScheme::ParityDetect,
        gate_style: GateStyle::MultiOutput,
    };
    /// Detection-only even parity with single-output gates.
    pub const PARITY_DETECT_SINGLE_OUTPUT: ProtectionConfig = ProtectionConfig {
        scheme: ProtectionScheme::ParityDetect,
        gate_style: GateStyle::SingleOutput,
    };
    /// Detect-and-recompute with multi-output gates: parity detection plus
    /// bounded periphery recompute of the affected level (registry plugin,
    /// like [`Self::PARITY_DETECT`]).
    pub const DETECT_RECOMPUTE: ProtectionConfig = ProtectionConfig {
        scheme: ProtectionScheme::DetectRecompute,
        gate_style: GateStyle::MultiOutput,
    };
    /// Detect-and-recompute with single-output gates.
    pub const DETECT_RECOMPUTE_SINGLE_OUTPUT: ProtectionConfig = ProtectionConfig {
        scheme: ProtectionScheme::DetectRecompute,
        gate_style: GateStyle::SingleOutput,
    };

    /// The three multi-output design points of the paper's evaluation.
    pub fn paper_trio() -> Vec<ProtectionConfig> {
        vec![Self::UNPROTECTED, Self::ECIM, Self::TRIM]
    }

    /// One multi-output design point per registered scheme, in registry
    /// order — automatically includes schemes added after this crate
    /// shipped.
    pub fn registry_sweep() -> Vec<ProtectionConfig> {
        ProtectionScheme::all()
            .map(|scheme| ProtectionConfig {
                scheme,
                gate_style: GateStyle::MultiOutput,
            })
            .collect()
    }

    /// The full design configuration for a technology — scheme-agnostic:
    /// any registered scheme resolves through
    /// [`DesignConfig::for_scheme`], never through a per-scheme match.
    pub fn design_config(&self, technology: Technology) -> DesignConfig {
        let base = DesignConfig::for_scheme(self.scheme, technology);
        match self.gate_style {
            GateStyle::MultiOutput => base,
            GateStyle::SingleOutput => base.with_single_output_gates(),
        }
    }

    /// Short label, e.g. `"ECiM/m-o"`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.scheme, self.gate_style)
    }
}

/// The per-row program a trial executes functionally on the simulated array.
///
/// Kernels are synthesized on the fly with [`CircuitBuilder`]; `Benchmark`
/// workloads reuse the paper suite's row netlists (they must fit a single
/// row without spilling — the engine validates this when the campaign
/// compiles its schedules).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum SweepWorkload {
    /// Multiply-accumulate: `acc + x * y` with an `acc_bits`-bit accumulator
    /// and `mul_bits`-bit operands (the executor test workload family).
    Mac {
        /// Accumulator width in bits.
        acc_bits: usize,
        /// Multiplier operand width in bits.
        mul_bits: usize,
    },
    /// Ripple-carry addition of two `bits`-bit words.
    RippleAdd {
        /// Operand width in bits.
        bits: usize,
    },
    /// Unsigned multiplication of two `bits`-bit words.
    Multiplier {
        /// Operand width in bits.
        bits: usize,
    },
    /// A paper-suite benchmark's per-row netlist.
    Benchmark(Benchmark),
}

impl SweepWorkload {
    /// Stable workload name (doubles as the schedule-cache key component).
    pub fn name(&self) -> String {
        match self {
            SweepWorkload::Mac { acc_bits, mul_bits } => format!("mac{acc_bits}x{mul_bits}"),
            SweepWorkload::RippleAdd { bits } => format!("add{bits}"),
            SweepWorkload::Multiplier { bits } => format!("mul{bits}"),
            SweepWorkload::Benchmark(b) => b.name(),
        }
    }

    /// Whether the workload carries a labelled task an accuracy campaign
    /// can evaluate (a dataset with per-sample references, not just random
    /// operand vectors). Only the MNIST benchmark qualifies today; plan
    /// validation rejects [`CampaignKind::Accuracy`] on anything else.
    pub fn supports_labels(&self) -> bool {
        matches!(self, SweepWorkload::Benchmark(Benchmark::Mnist { .. }))
    }

    /// Synthesizes the workload's row netlist.
    pub fn netlist(&self) -> Netlist {
        match self {
            SweepWorkload::Mac { acc_bits, mul_bits } => {
                let mut b = CircuitBuilder::new();
                let acc = b.input_word(*acc_bits);
                let x = b.input_word(*mul_bits);
                let y = b.input_word(*mul_bits);
                let out = b.mac(&acc, &x, &y);
                b.mark_output_word(&out);
                b.finish()
            }
            SweepWorkload::RippleAdd { bits } => {
                let mut b = CircuitBuilder::new();
                let x = b.input_word(*bits);
                let y = b.input_word(*bits);
                let (sum, carry) = b.ripple_add(&x, &y, None);
                b.mark_output_word(&sum);
                b.mark_output(carry);
                b.finish()
            }
            SweepWorkload::Multiplier { bits } => {
                let mut b = CircuitBuilder::new();
                let x = b.input_word(*bits);
                let y = b.input_word(*bits);
                let p = b.mul_unsigned(&x, &y);
                b.mark_output_word(&p);
                b.finish()
            }
            SweepWorkload::Benchmark(bench) => bench.row_netlist(),
        }
    }
}

/// How a campaign turns trial outcomes into point statistics.
///
/// [`Exact`](EstimatorMode::Exact) is the historical behaviour: every trial
/// executes in full and the report is byte-identical to plans that predate
/// this enum (the field is omitted from serialized plans when `Exact`, so
/// plan content digests are unchanged too).
///
/// [`Stratified`](EstimatorMode::Stratified) conditions every trial on
/// "at least one gate fault lands inside the trial's decision window" and
/// reweights the measured failure rates by that window's analytic fault
/// probability `P1` — an exactly unbiased rare-event estimator (see
/// `docs/performance.md`). Reports gain per-point confidence intervals and
/// bump `schema_version`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EstimatorMode {
    /// Plain Monte Carlo: run every trial in full (byte-identical to plans
    /// that predate estimator modes).
    #[default]
    Exact,
    /// Rare-event mode: condition trials on at-least-one-fault and reweight
    /// by the analytic fault probability; reports carry Wilson confidence
    /// intervals.
    Stratified,
}

impl EstimatorMode {
    /// Stable serialized name (`"exact"` / `"stratified"`).
    pub fn wire_name(self) -> &'static str {
        match self {
            EstimatorMode::Exact => "exact",
            EstimatorMode::Stratified => "stratified",
        }
    }
}

impl std::fmt::Display for EstimatorMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.wire_name())
    }
}

impl std::str::FromStr for EstimatorMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "exact" => Ok(EstimatorMode::Exact),
            "stratified" => Ok(EstimatorMode::Stratified),
            other => Err(format!(
                "unknown estimator mode `{other}` (expected `exact` or `stratified`)"
            )),
        }
    }
}

/// What a campaign's trials measure.
///
/// [`Error`](CampaignKind::Error) is the historical campaign type: trials
/// execute random operand vectors and the report carries error counters and
/// output-error rates. The `kind` key is omitted from serialized plans when
/// `Error`, so pre-existing plan digests and exact-mode report bytes are
/// unchanged.
///
/// [`Accuracy`](CampaignKind::Accuracy) promotes a labelled workload (the
/// MNIST benchmark) into an inference-accuracy evaluation: each trial runs
/// one image through the reduced PiM MLP under fault injection and records
/// whether the faulty top-1 prediction still matches the clean model's
/// prediction. Per-point reports gain an `accuracy` block (task accuracy,
/// top-1 delta vs the clean baseline, Wilson interval) next to the error
/// counters, and `schema_version` bumps to 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CampaignKind {
    /// Fault/error-counter campaign over random operand vectors (the
    /// historical behaviour; serialized plans omit the key).
    #[default]
    Error,
    /// Inference-accuracy-under-fault campaign over a labelled workload.
    Accuracy,
}

impl CampaignKind {
    /// Stable serialized name (`"error"` / `"accuracy"`).
    pub fn wire_name(self) -> &'static str {
        match self {
            CampaignKind::Error => "error",
            CampaignKind::Accuracy => "accuracy",
        }
    }
}

impl std::fmt::Display for CampaignKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.wire_name())
    }
}

impl std::str::FromStr for CampaignKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Ok(CampaignKind::Error),
            "accuracy" => Ok(CampaignKind::Accuracy),
            other => Err(format!(
                "unknown campaign kind `{other}` (expected `error` or `accuracy`)"
            )),
        }
    }
}

/// A full Monte Carlo campaign description.
///
/// The campaign expands into `workloads × technologies × protections ×
/// gate_error_rates` *points*, each executed for [`seeds_per_point`] trials
/// whose RNG seeds derive deterministically from [`campaign_seed`] — so a
/// campaign is reproducible byte-for-byte no matter how it is scheduled
/// across threads.
///
/// [`seeds_per_point`]: SweepPlan::seeds_per_point
/// [`campaign_seed`]: SweepPlan::campaign_seed
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// Workloads to execute.
    pub workloads: Vec<SweepWorkload>,
    /// Technologies to simulate.
    pub technologies: Vec<Technology>,
    /// Protection design points.
    pub protections: Vec<ProtectionConfig>,
    /// Gate-output bit-flip probabilities to sweep.
    pub gate_error_rates: Vec<f64>,
    /// Monte Carlo trials per point.
    pub seeds_per_point: u64,
    /// Root seed every per-trial seed derives from.
    pub campaign_seed: u64,
    /// How trial outcomes become point statistics ([`EstimatorMode::Exact`]
    /// by default, which reproduces historical report bytes).
    pub estimator: EstimatorMode,
    /// What trials measure ([`CampaignKind::Error`] by default, which
    /// reproduces historical report bytes).
    pub kind: CampaignKind,
    /// Permanent stuck-at defect density in `[0, 1]`: the probability each
    /// array cell is fabricated stuck (at 0 or 1, equiprobable). Per-trial
    /// defect maps derive from the same deterministic seed discipline as
    /// transient faults, so reports stay byte-reproducible. `0.0` (the
    /// default, omitted from serialized plans) means no permanent defects.
    pub stuck_at_rate: f64,
}

// Hand-rolled so the `estimator` key is *omitted* when `Exact`: serialized
// plans (and therefore plan content digests and exact-mode report bytes)
// stay byte-identical to versions that predate estimator modes.
impl Serialize for SweepPlan {
    fn to_json(&self) -> Value {
        let mut fields = vec![
            ("workloads".to_string(), self.workloads.to_json()),
            ("technologies".to_string(), self.technologies.to_json()),
            ("protections".to_string(), self.protections.to_json()),
            (
                "gate_error_rates".to_string(),
                self.gate_error_rates.to_json(),
            ),
            (
                "seeds_per_point".to_string(),
                self.seeds_per_point.to_json(),
            ),
            ("campaign_seed".to_string(), self.campaign_seed.to_json()),
        ];
        if self.estimator != EstimatorMode::Exact {
            fields.push((
                "estimator".to_string(),
                Value::Str(self.estimator.wire_name().to_string()),
            ));
        }
        if self.kind != CampaignKind::Error {
            fields.push((
                "kind".to_string(),
                Value::Str(self.kind.wire_name().to_string()),
            ));
        }
        if self.stuck_at_rate != 0.0 {
            fields.push(("stuck_at_rate".to_string(), self.stuck_at_rate.to_json()));
        }
        Value::Object(fields)
    }
}

impl SweepPlan {
    /// A small smoke campaign (single workload/technology, the paper trio,
    /// three error rates, a handful of seeds) for quick runs and tests.
    pub fn quick() -> Self {
        Self {
            workloads: vec![SweepWorkload::Mac {
                acc_bits: 8,
                mul_bits: 4,
            }],
            technologies: vec![Technology::SttMram],
            protections: ProtectionConfig::paper_trio(),
            gate_error_rates: vec![1e-4, 3e-4, 1e-3],
            seeds_per_point: 8,
            campaign_seed: 0x5eed_cafe,
            estimator: EstimatorMode::Exact,
            kind: CampaignKind::Error,
            stuck_at_rate: 0.0,
        }
    }

    /// A small inference-accuracy smoke campaign: the 1-bit MNIST benchmark
    /// on the ReRAM crossbar, the unprotected baseline against
    /// detect-and-recompute, a fault-rate ramp including the clean point,
    /// and a light permanent-defect density.
    pub fn accuracy_quick() -> Self {
        Self {
            workloads: vec![SweepWorkload::Benchmark(Benchmark::Mnist {
                weight_bits: 1,
            })],
            technologies: vec![Technology::ReramCrossbar],
            protections: vec![
                ProtectionConfig::UNPROTECTED,
                ProtectionConfig::DETECT_RECOMPUTE,
            ],
            gate_error_rates: vec![0.0, 1e-3, 3e-3],
            seeds_per_point: 8,
            campaign_seed: 0xacc0_cafe,
            estimator: EstimatorMode::Exact,
            kind: CampaignKind::Accuracy,
            stuck_at_rate: 1e-4,
        }
    }

    /// The paper-scale campaign behind the harness binaries' `--sweep`
    /// mode: two kernels, all three technologies, all five protection
    /// design points, a four-decade error-rate grid.
    pub fn paper_scale() -> Self {
        Self {
            workloads: vec![
                SweepWorkload::Mac {
                    acc_bits: 8,
                    mul_bits: 4,
                },
                SweepWorkload::RippleAdd { bits: 8 },
            ],
            technologies: Technology::ALL.to_vec(),
            protections: vec![
                ProtectionConfig::UNPROTECTED,
                ProtectionConfig::ECIM,
                ProtectionConfig::ECIM_SINGLE_OUTPUT,
                ProtectionConfig::TRIM,
                ProtectionConfig::TRIM_SINGLE_OUTPUT,
            ],
            gate_error_rates: vec![1e-5, 1e-4, 3e-4, 1e-3],
            seeds_per_point: 25,
            campaign_seed: 0x15ca_2024,
            estimator: EstimatorMode::Exact,
            kind: CampaignKind::Error,
            stuck_at_rate: 0.0,
        }
    }

    /// The plan a name stands for — the one table of named plans the
    /// protocol's `"plan": "NAME"` shorthand and `nvpim-cli` share:
    /// `quick`, `paper_scale` and `accuracy_quick`. `None` for any other
    /// name.
    pub fn named(name: &str) -> Option<Self> {
        match name {
            "quick" => Some(Self::quick()),
            "paper_scale" => Some(Self::paper_scale()),
            "accuracy_quick" => Some(Self::accuracy_quick()),
            _ => None,
        }
    }

    /// Number of campaign points (workload × technology × protection × rate).
    pub fn point_count(&self) -> usize {
        self.workloads.len()
            * self.technologies.len()
            * self.protections.len()
            * self.gate_error_rates.len()
    }

    /// Total number of Monte Carlo trials the campaign will run
    /// (saturating; [`Self::validate`] rejects plans whose count overflows).
    pub fn trial_count(&self) -> u64 {
        (self.point_count() as u64).saturating_mul(self.seeds_per_point)
    }

    /// Checks the plan is non-degenerate.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SweepError::EmptyPlan`] naming the empty axis.
    pub fn validate(&self) -> Result<(), crate::SweepError> {
        if self.workloads.is_empty() {
            return Err(crate::SweepError::EmptyPlan("workloads"));
        }
        if self.technologies.is_empty() {
            return Err(crate::SweepError::EmptyPlan("technologies"));
        }
        if self.protections.is_empty() {
            return Err(crate::SweepError::EmptyPlan("protections"));
        }
        if self.gate_error_rates.is_empty() {
            return Err(crate::SweepError::EmptyPlan("gate_error_rates"));
        }
        if self.seeds_per_point == 0 {
            return Err(crate::SweepError::EmptyPlan("seeds_per_point"));
        }
        if (self.point_count() as u64)
            .checked_mul(self.seeds_per_point)
            .is_none()
        {
            return Err(crate::SweepError::UnsupportedCampaign(
                "the plan's trial count overflows a 64-bit counter".to_string(),
            ));
        }
        for &rate in &self.gate_error_rates {
            // The explicit finiteness test matters: `contains` happens to
            // reject NaN today, but a non-finite rate must fail loudly as an
            // invalid rate, not ride on a comparison side effect.
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(crate::SweepError::InvalidErrorRate(rate));
            }
        }
        if !self.stuck_at_rate.is_finite() || !(0.0..=1.0).contains(&self.stuck_at_rate) {
            return Err(crate::SweepError::InvalidErrorRate(self.stuck_at_rate));
        }
        if self.kind == CampaignKind::Accuracy {
            // Accuracy fidelity is a per-trial Bernoulli against the clean
            // prediction; the stratified estimator's zero-fault stratum is
            // defined over error counters, not task metrics.
            if self.estimator == EstimatorMode::Stratified {
                return Err(crate::SweepError::UnsupportedCampaign(
                    "accuracy campaigns run the exact estimator only".to_string(),
                ));
            }
            for workload in &self.workloads {
                if !workload.supports_labels() {
                    return Err(crate::SweepError::UnsupportedCampaign(format!(
                        "workload `{}` carries no labels; accuracy campaigns \
                         need a labelled workload (the MNIST benchmark)",
                        workload.name()
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_plans_resolve_to_their_constructors() {
        for (name, plan) in [
            ("quick", SweepPlan::quick()),
            ("paper_scale", SweepPlan::paper_scale()),
            ("accuracy_quick", SweepPlan::accuracy_quick()),
        ] {
            let named = SweepPlan::named(name).unwrap_or_else(|| panic!("{name} resolves"));
            assert_eq!(named.content_digest(), plan.content_digest(), "{name}");
        }
        assert!(SweepPlan::named("paper-scale").is_none());
        assert!(SweepPlan::named("").is_none());
    }

    #[test]
    fn counts_are_the_cartesian_product() {
        let plan = SweepPlan::quick();
        assert_eq!(plan.point_count(), 3 * 3);
        assert_eq!(plan.trial_count(), 9 * 8);
        plan.validate().unwrap();
    }

    #[test]
    fn degenerate_plans_are_rejected() {
        let mut plan = SweepPlan::quick();
        plan.gate_error_rates.clear();
        assert!(plan.validate().is_err());
        let mut plan = SweepPlan::quick();
        plan.gate_error_rates = vec![1.5];
        assert!(plan.validate().is_err());
        let mut plan = SweepPlan::quick();
        plan.seeds_per_point = 0;
        assert!(plan.validate().is_err());
        let mut plan = SweepPlan::quick();
        plan.seeds_per_point = u64::MAX / 2;
        assert_eq!(plan.trial_count(), u64::MAX, "saturates, never panics");
        assert!(matches!(
            plan.validate(),
            Err(crate::SweepError::UnsupportedCampaign(_))
        ));
    }

    #[test]
    fn non_finite_rates_are_explicitly_invalid() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut plan = SweepPlan::quick();
            plan.gate_error_rates = vec![bad];
            match plan.validate() {
                Err(crate::SweepError::InvalidErrorRate(r)) => {
                    assert!(r.is_nan() == bad.is_nan() && (r.is_nan() || r == bad));
                }
                other => panic!("expected InvalidErrorRate for {bad}, got {other:?}"),
            }
        }
    }

    #[test]
    fn estimator_mode_parses_and_displays() {
        use std::str::FromStr;
        assert_eq!(
            EstimatorMode::from_str("exact").unwrap(),
            EstimatorMode::Exact
        );
        assert_eq!(
            EstimatorMode::from_str("Stratified").unwrap(),
            EstimatorMode::Stratified
        );
        assert!(EstimatorMode::from_str("importance").is_err());
        assert_eq!(EstimatorMode::default(), EstimatorMode::Exact);
        assert_eq!(EstimatorMode::Stratified.to_string(), "stratified");
    }

    #[test]
    fn exact_plans_serialize_without_the_estimator_key() {
        let exact = serde_json::to_string(&SweepPlan::quick()).unwrap();
        assert!(!exact.contains("estimator"));
        let mut plan = SweepPlan::quick();
        plan.estimator = EstimatorMode::Stratified;
        let stratified = serde_json::to_string(&plan).unwrap();
        assert!(stratified.contains("\"estimator\":\"stratified\""));
    }

    #[test]
    fn error_plans_serialize_without_the_kind_or_stuck_at_keys() {
        // Historical plan bytes (and therefore content digests) must be
        // unchanged by the accuracy-campaign fields.
        let error = serde_json::to_string(&SweepPlan::quick()).unwrap();
        assert!(!error.contains("\"kind\""));
        assert!(!error.contains("stuck_at_rate"));
        let accuracy = serde_json::to_string(&SweepPlan::accuracy_quick()).unwrap();
        assert!(accuracy.contains("\"kind\":\"accuracy\""));
        assert!(accuracy.contains("\"stuck_at_rate\":"));
    }

    #[test]
    fn campaign_kind_parses_and_displays() {
        use std::str::FromStr;
        assert_eq!(
            CampaignKind::from_str("error").unwrap(),
            CampaignKind::Error
        );
        assert_eq!(
            CampaignKind::from_str("Accuracy").unwrap(),
            CampaignKind::Accuracy
        );
        assert!(CampaignKind::from_str("fidelity").is_err());
        assert_eq!(CampaignKind::default(), CampaignKind::Error);
        assert_eq!(CampaignKind::Accuracy.to_string(), "accuracy");
    }

    #[test]
    fn accuracy_plans_require_labelled_workloads() {
        let plan = SweepPlan::accuracy_quick();
        plan.validate().unwrap();
        assert!(plan.workloads.iter().all(SweepWorkload::supports_labels));

        // Accuracy on an unlabelled workload is rejected by name.
        let mut unlabelled = SweepPlan::accuracy_quick();
        unlabelled.workloads = vec![SweepWorkload::Mac {
            acc_bits: 8,
            mul_bits: 4,
        }];
        match unlabelled.validate() {
            Err(crate::SweepError::UnsupportedCampaign(msg)) => {
                assert!(msg.contains("mac8x4"), "{msg}")
            }
            other => panic!("expected UnsupportedCampaign, got {other:?}"),
        }

        // The stratified estimator cannot drive an accuracy campaign.
        let mut stratified = SweepPlan::accuracy_quick();
        stratified.estimator = EstimatorMode::Stratified;
        assert!(matches!(
            stratified.validate(),
            Err(crate::SweepError::UnsupportedCampaign(_))
        ));

        // Stuck-at densities outside [0, 1] are invalid rates.
        for bad in [-0.1, 1.5, f64::NAN] {
            let mut plan = SweepPlan::quick();
            plan.stuck_at_rate = bad;
            assert!(matches!(
                plan.validate(),
                Err(crate::SweepError::InvalidErrorRate(_))
            ));
        }
    }

    #[test]
    fn workload_netlists_have_inputs_and_outputs() {
        for w in [
            SweepWorkload::Mac {
                acc_bits: 8,
                mul_bits: 4,
            },
            SweepWorkload::RippleAdd { bits: 8 },
            SweepWorkload::Multiplier { bits: 4 },
        ] {
            let n = w.netlist();
            assert!(!n.inputs.is_empty(), "{}", w.name());
            assert!(!n.outputs.is_empty(), "{}", w.name());
        }
    }

    #[test]
    fn protection_labels_and_configs_line_up() {
        let p = ProtectionConfig::ECIM_SINGLE_OUTPUT;
        assert_eq!(p.label(), "ECiM/s-o");
        let cfg = p.design_config(Technology::ReRam);
        assert_eq!(cfg.scheme, ProtectionScheme::Ecim);
        assert_eq!(cfg.gate_style, GateStyle::SingleOutput);
    }
}
