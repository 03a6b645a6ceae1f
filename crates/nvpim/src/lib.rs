//! # nvpim
//!
//! Facade crate of the `nvpim` workspace — a from-scratch Rust
//! reproduction of *"On Error Correction for Nonvolatile
//! Processing-In-Memory"* (Cılasun et al., ISCA 2024) — and its **stable
//! public surface**: downstream code (the CLIs, the service daemon, the
//! benches, the examples) depends on this one crate instead of reaching
//! into the internal layer crates.
//!
//! | Layer | Crate | Re-export |
//! |---|---|---|
//! | ECC substrate (GF(2), Hamming, BCH, voting) | `nvpim-ecc` | [`ecc`] |
//! | PiM array substrate (cells, gates, faults, electrical model) | `nvpim-sim` | [`sim`] |
//! | Application mapping (NOR synthesis, scheduling, reclaims) | `nvpim-compiler` | [`compiler`] |
//! | Scheme registry, executors, Checker, SEP analysis, system model | `nvpim-core` | [`core`] |
//! | Benchmarks (mm, mnist, fft) | `nvpim-workloads` | [`workloads`] |
//! | Monte Carlo fault-sweep campaigns | `nvpim-sweep` | [`sweep`] |
//! | Offline metrics core (spans, counters, histograms) | `nvpim-telemetry` | [`telemetry`] |
//! | Campaign daemon, NDJSON protocol, client | `nvpim-service` | [`service`] |
//!
//! Protection schemes are **plugins**: every scheme is a
//! [`SchemeRuntime`] registered in the compile-time [`schemes`]`()`
//! registry, and everything downstream — executors, the sweep engine, the
//! service wire protocol, the CLIs and this facade's builder — dispatches
//! through the trait. Adding a scheme is one `impl` file plus one registry
//! line; see `docs/api.md`.
//!
//! # The builder entry point
//!
//! [`Campaign::builder`] assembles and runs a Monte Carlo fault-injection
//! campaign without touching any internal crate:
//!
//! ```
//! use nvpim::{Campaign, ProtectionScheme, Technology};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let report = Campaign::builder()
//!     .technology(Technology::SttMram)
//!     .scheme(ProtectionScheme::Ecim)
//!     .scheme(ProtectionScheme::ParityDetect)
//!     .rate_grid([1e-4, 1e-3])
//!     .trials(8)
//!     .build()?
//!     .run()?;
//! assert_eq!(report.total_trials, 2 * 2 * 8);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub use nvpim_compiler as compiler;
pub use nvpim_core as core;
pub use nvpim_ecc as ecc;
pub use nvpim_service as service;
pub use nvpim_sim as sim;
pub use nvpim_sweep as sweep;
pub use nvpim_telemetry as telemetry;
pub use nvpim_workloads as workloads;

pub use nvpim_core::config::{DesignConfig, GateStyle, ProtectionScheme};
pub use nvpim_core::scheme::{SchemeCapabilities, SchemeRuntime};
pub use nvpim_sim::technology::Technology;
pub use nvpim_sweep::{
    AccuracySummary, CampaignKind, EstimatorMode, ExecutionBackend, ProtectionConfig, SweepError,
    SweepPlan, SweepReport, SweepWorkload,
};
pub use nvpim_telemetry::{Telemetry, TelemetrySnapshot};
pub use nvpim_workloads::Benchmark;

/// The compile-time protection-scheme registry, in stable wire order —
/// the list behind `nvpim-cli schemes` and the proptest generators.
pub fn schemes() -> &'static [&'static dyn SchemeRuntime] {
    nvpim_core::scheme::registry()
}

/// The capability sheet of every registered scheme, evaluated at the
/// paper's standard design point (STT-MRAM defaults) — the single source
/// behind `nvpim-cli schemes` and the harness binaries' `--list-schemes`.
pub fn scheme_capabilities() -> Vec<(ProtectionScheme, SchemeCapabilities)> {
    ProtectionScheme::all()
        .map(|scheme| {
            let config = DesignConfig::for_scheme(scheme, Technology::SttMram);
            (scheme, scheme.runtime().capabilities(&config))
        })
        .collect()
}

/// A fully-assembled Monte Carlo fault-injection campaign: a validated
/// [`SweepPlan`]. Built with [`Campaign::builder`]; consumed with
/// [`Campaign::run`].
#[derive(Debug, Clone)]
pub struct Campaign {
    plan: SweepPlan,
}

impl Campaign {
    /// Starts assembling a campaign. Every axis left empty falls back to a
    /// sensible default (see the individual [`CampaignBuilder`] methods);
    /// `trials` must be set explicitly.
    pub fn builder() -> CampaignBuilder {
        CampaignBuilder::default()
    }

    /// The validated campaign plan.
    pub fn plan(&self) -> &SweepPlan {
        &self.plan
    }

    /// Runs every trial and aggregates the deterministic report
    /// (byte-identical for any thread count and checkpoint cadence).
    ///
    /// # Errors
    ///
    /// Schedule-compilation failures; individual trial execution errors
    /// are recorded in the report, never raised.
    pub fn run(&self) -> Result<SweepReport, SweepError> {
        nvpim_sweep::run_campaign(&self.plan)
    }
}

/// Builder for [`Campaign`] — the facade's one-stop entry point
/// (`Campaign::builder().technology(..).scheme(..).rate_grid(..).trials(..).build()?.run()`).
#[derive(Debug, Clone, Default)]
pub struct CampaignBuilder {
    workloads: Vec<SweepWorkload>,
    technologies: Vec<Technology>,
    protections: Vec<ProtectionConfig>,
    rates: Vec<f64>,
    trials: u64,
    seed: Option<u64>,
    estimator: EstimatorMode,
    kind: CampaignKind,
    stuck_at_rate: f64,
}

impl CampaignBuilder {
    /// Adds a workload (default when none added: the 8×4 MAC kernel).
    pub fn workload(mut self, workload: SweepWorkload) -> Self {
        self.workloads.push(workload);
        self
    }

    /// Adds a paper-suite benchmark as a workload.
    pub fn benchmark(self, benchmark: Benchmark) -> Self {
        self.workload(SweepWorkload::Benchmark(benchmark))
    }

    /// Adds a technology (default when none added: STT-MRAM).
    pub fn technology(mut self, technology: Technology) -> Self {
        self.technologies.push(technology);
        self
    }

    /// Adds a protection scheme with multi-output gates. Any registered
    /// scheme works — the builder never matches on the scheme.
    pub fn scheme(self, scheme: ProtectionScheme) -> Self {
        self.protection(ProtectionConfig {
            scheme,
            gate_style: GateStyle::MultiOutput,
        })
    }

    /// Adds an explicit protection design point (scheme + gate style).
    /// Default when none added: one multi-output point per registered
    /// scheme.
    pub fn protection(mut self, protection: ProtectionConfig) -> Self {
        self.protections.push(protection);
        self
    }

    /// Sets the gate-error-rate grid (default: `[1e-4, 3e-4, 1e-3]`).
    pub fn rate_grid(mut self, rates: impl IntoIterator<Item = f64>) -> Self {
        self.rates = rates.into_iter().collect();
        self
    }

    /// Sets the Monte Carlo trials per campaign point (required).
    pub fn trials(mut self, trials: u64) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the campaign's root seed (default: the quick-plan seed, so
    /// builder campaigns reproduce byte-for-byte run to run).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Selects the estimator mode (default: [`EstimatorMode::Exact`], the
    /// byte-stable plain Monte Carlo path).
    /// [`EstimatorMode::Stratified`] conditions trials on the rare
    /// at-least-one-fault stratum and adds unbiased reweighted rates with
    /// confidence intervals to every point — the mode for gate rates at or
    /// below ~1e-5.
    pub fn estimator(mut self, estimator: EstimatorMode) -> Self {
        self.estimator = estimator;
        self
    }

    /// Selects the campaign kind (default: [`CampaignKind::Error`], the
    /// historical error-counting campaign). [`CampaignKind::Accuracy`]
    /// promotes each trial into an inference-accuracy evaluation — labelled
    /// workloads only — whose per-point report carries top-1 fidelity to the
    /// clean model next to the error counters.
    pub fn kind(mut self, kind: CampaignKind) -> Self {
        self.kind = kind;
        self
    }

    /// Sets the permanent stuck-at cell-defect density (default 0.0).
    /// Per-trial defect maps derive from the same deterministic seed
    /// discipline as transient faults, so reports stay byte-reproducible.
    pub fn stuck_at_rate(mut self, density: f64) -> Self {
        self.stuck_at_rate = density;
        self
    }

    /// Validates the assembled plan and returns the runnable [`Campaign`].
    ///
    /// # Errors
    ///
    /// [`SweepError`] when the plan is degenerate (zero trials, an
    /// out-of-range error rate, …).
    pub fn build(self) -> Result<Campaign, SweepError> {
        let quick = SweepPlan::quick();
        let plan = SweepPlan {
            workloads: if self.workloads.is_empty() {
                quick.workloads
            } else {
                self.workloads
            },
            technologies: if self.technologies.is_empty() {
                vec![Technology::SttMram]
            } else {
                self.technologies
            },
            protections: if self.protections.is_empty() {
                ProtectionConfig::registry_sweep()
            } else {
                self.protections
            },
            gate_error_rates: if self.rates.is_empty() {
                quick.gate_error_rates
            } else {
                self.rates
            },
            seeds_per_point: self.trials,
            campaign_seed: self.seed.unwrap_or(quick.campaign_seed),
            estimator: self.estimator,
            kind: self.kind,
            stuck_at_rate: self.stuck_at_rate,
        };
        plan.validate()?;
        Ok(Campaign { plan })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_cover_the_registry() {
        let campaign = Campaign::builder().trials(1).build().unwrap();
        assert_eq!(campaign.plan().protections.len(), schemes().len());
        assert_eq!(campaign.plan().technologies, vec![Technology::SttMram]);
    }

    #[test]
    fn builder_rejects_zero_trials() {
        assert!(Campaign::builder().build().is_err());
    }

    #[test]
    fn builder_campaign_matches_direct_plan_execution() {
        // The facade adds no behaviour: a builder campaign's report is
        // byte-identical to running the equivalent plan directly, and to
        // the scalar reference oracle.
        let campaign = Campaign::builder()
            .technology(Technology::ReRam)
            .scheme(ProtectionScheme::Trim)
            .scheme(ProtectionScheme::ParityDetect)
            .rate_grid([5e-4])
            .trials(6)
            .seed(0xbead)
            .build()
            .unwrap();
        let direct = nvpim_sweep::run_campaign(campaign.plan()).unwrap();
        let via_facade = campaign.run().unwrap();
        assert_eq!(via_facade.to_json(), direct.to_json());
        let scalar_report =
            nvpim_sweep::run_campaign_on(campaign.plan(), &nvpim_sweep::ScalarBackend).unwrap();
        assert_eq!(scalar_report.to_json(), direct.to_json());
    }
}
