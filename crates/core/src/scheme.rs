//! Scheme-as-plugin: the [`SchemeRuntime`] trait and the compile-time
//! scheme registry.
//!
//! Historically the protection-scheme set was a closed `enum` whose
//! behaviour was re-implemented in five parallel `match` sites (row-layout
//! geometry, the scalar executor, the bit-sliced executor, the analytic
//! system model, and name parsing). A [`SchemeRuntime`] owns *all* of that
//! for one scheme, so the engine, the sweep planner, the service protocol
//! and the CLIs dispatch through one trait object instead — and adding a
//! scheme means writing one `impl SchemeRuntime` file and registering it in
//! [`registry`], with **zero** edits to any dispatch code.
//!
//! The registry is a compile-time list of `&'static dyn SchemeRuntime`
//! (no global mutable state, no registration order hazards); a
//! [`ProtectionScheme`](crate::config::ProtectionScheme) value is a copyable
//! handle to one entry. The built-in schemes live under
//! [`crate::schemes`]; [`crate::schemes::parity_detect`] is the template to
//! copy when adding a new one.

use nvpim_compiler::netlist::Netlist;
use nvpim_compiler::schedule::RowSchedule;
use nvpim_sim::array::PimArray;
use nvpim_sim::periphery::PeripheryModel;
use nvpim_sim::sliced::SlicedPimArray;

use crate::checker::CheckerCostModel;
use crate::config::DesignConfig;
use crate::executor::{ExecScratch, ProtectedExecError, ProtectedExecutor, ProtectedRunReport};
use crate::sliced::{SlicedExecScratch, SlicedExecutor, SlicedRunReport};
use crate::system::CostBreakdown;

/// Everything a scheme declares about itself, evaluated against one design
/// point. Surfaced by `nvpim-cli schemes` / `--list-schemes` and asserted
/// by the registry-completeness tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemeCapabilities {
    /// Whether the scheme only detects errors (it never writes corrections
    /// back; detections are accounted as would-be retries).
    pub detect_only: bool,
    /// In-memory parity bits the scheme maintains per check group.
    pub parity_bits: usize,
    /// Columns the scheme reserves per row for metadata under this design.
    pub metadata_columns: usize,
    /// Cells each computed value occupies (3 for triple-redundant TRiM).
    pub cells_per_value: usize,
    /// Whether a zero-fault trial of the scheme is analytically settleable:
    /// the clean-run operation sequence, check count and metadata traffic
    /// are a pure function of the schedule (never of the inputs), so one
    /// captured clean trial stands for every zero-fault trial of a point.
    /// This legalizes the engine's analytic fast path and the stratified
    /// estimator's zero-fault stratum.
    pub analytic_clean: bool,
    /// Whether the scheme recovers from detections by re-evaluating the
    /// affected logic level in periphery logic and writing the results back
    /// (detect-and-recompute), rather than only counting retries or
    /// decoding a code.
    pub recompute: bool,
    /// Whether the scheme's write-back path accounts for permanent
    /// stuck-at defects: verified writes that a broken cell pins to the
    /// wrong value are surfaced as uncorrectable instead of silently
    /// trusted.
    pub stuck_at_aware: bool,
}

/// Per-technology cost parameters handed to
/// [`SchemeRuntime::metadata_costs`] — the slice of the §V analytic model
/// that is independent of the protection scheme.
#[derive(Debug, Clone)]
pub struct CostEnv {
    /// Switching delay of one in-array gate operation (ns).
    pub t_gate: f64,
    /// Energy of one NOR/copy operation (fJ).
    pub nor_e: f64,
    /// Energy of one THR operation (fJ).
    pub thr_e: f64,
    /// Energy of one cell write (fJ).
    pub write_e: f64,
    /// Whether the design uses multi-output gates.
    pub multi_output: bool,
    /// Array-interface (read/write port) model for Checker communication.
    pub periphery: PeripheryModel,
}

/// One protection scheme's complete behaviour: identity, row geometry,
/// capabilities, analytic cost hooks and both Monte Carlo run paths.
///
/// Implementations are zero-sized statics registered in [`registry`];
/// everything is dispatched through `&'static dyn SchemeRuntime`, so no
/// engine code ever matches on a scheme again. See `docs/api.md` for the
/// add-a-scheme walkthrough.
pub trait SchemeRuntime: std::fmt::Debug + Sync {
    // ------------------------------------------------------------------
    // Identity
    // ------------------------------------------------------------------

    /// Stable serialized name — what campaign-plan JSON carries (e.g.
    /// `"Ecim"`). Changing it changes plan content digests; never reuse a
    /// retired name.
    fn wire_name(&self) -> &'static str;

    /// Human-readable display label (e.g. `"ECiM"`), used in report labels
    /// and tables.
    fn display_name(&self) -> &'static str;

    /// Additional accepted spellings for parsing (the wire and display
    /// names always parse).
    fn aliases(&self) -> &'static [&'static str] {
        &[]
    }

    // ------------------------------------------------------------------
    // Row geometry
    // ------------------------------------------------------------------

    /// Columns reserved in every row for the scheme's metadata under
    /// `config` (running parity cells, working cells, redundant copies).
    fn metadata_columns(&self, config: &DesignConfig) -> usize;

    /// Cells each computed value occupies in the scratch region (3 for
    /// triple-redundant computation, 1 otherwise).
    fn cells_per_value(&self) -> usize {
        1
    }

    // ------------------------------------------------------------------
    // Capabilities
    // ------------------------------------------------------------------

    /// Whether the scheme is detection-only (no correction write-backs).
    fn detect_only(&self) -> bool {
        false
    }

    /// Whether a fault-free trial of this scheme is analytically
    /// settleable: its clean-run operation sequence, check count and
    /// metadata traffic must be a pure function of the schedule — never of
    /// the trial's input data — so a single captured clean trial stands for
    /// every zero-fault trial of the same design point. All registered
    /// schemes satisfy this (their run paths are schedule-driven on GF(2));
    /// a future scheme whose zero-fault op count branches on data must
    /// override this to `false`, which routes its points through plain
    /// exhaustive Monte Carlo. The engine additionally cross-checks the
    /// claim at preparation time by capturing the clean profile twice with
    /// different inputs.
    fn analytic_clean(&self) -> bool {
        true
    }

    /// Whether the scheme recovers from detections by bounded software
    /// recompute of the affected level with verified write-back.
    fn recompute(&self) -> bool {
        false
    }

    /// Whether the scheme's write-back path detects stuck-at-pinned
    /// residual errors (see [`SchemeCapabilities::stuck_at_aware`]).
    fn stuck_at_aware(&self) -> bool {
        false
    }

    /// In-memory parity bits maintained per check group under `config`.
    fn parity_bits(&self, config: &DesignConfig) -> usize {
        let _ = config;
        0
    }

    /// The scheme's capability sheet for one design point (assembled from
    /// the individual declarations; override only to annotate more).
    fn capabilities(&self, config: &DesignConfig) -> SchemeCapabilities {
        SchemeCapabilities {
            detect_only: self.detect_only(),
            parity_bits: self.parity_bits(config),
            metadata_columns: self.metadata_columns(config),
            cells_per_value: self.cells_per_value(),
            analytic_clean: self.analytic_clean(),
            recompute: self.recompute(),
            stuck_at_aware: self.stuck_at_aware(),
        }
    }

    // ------------------------------------------------------------------
    // Analytic model hooks (§V)
    // ------------------------------------------------------------------

    /// Cost model of the external Checker block this scheme pairs with.
    fn checker_cost(&self, config: &DesignConfig) -> CheckerCostModel;

    /// Adds the scheme's metadata and Checker terms to an execution-cost
    /// breakdown whose *compute* terms (`compute_time_ns`,
    /// `compute_energy_fj`) have already been accumulated, and returns the
    /// Checker traffic in bits. Implementations must iterate
    /// `schedule.level_profile` in order and skip levels with no outputs,
    /// so estimates stay bit-reproducible.
    fn metadata_costs(
        &self,
        schedule: &RowSchedule,
        config: &DesignConfig,
        env: &CostEnv,
        breakdown: &mut CostBreakdown,
    ) -> u64;

    // ------------------------------------------------------------------
    // Monte Carlo run paths
    // ------------------------------------------------------------------

    /// Runs one trial of `schedule` on the scalar array, maintaining the
    /// scheme's metadata in memory and checking at logic-level boundaries.
    /// Invoked by [`ProtectedExecutor::run_with_scratch`] after validation;
    /// implementations drive the executor's public helpers
    /// (`materialize_inputs`, `execute_plain_gate`, `read_outputs`).
    #[allow(clippy::too_many_arguments)]
    fn run_scalar(
        &self,
        exec: &ProtectedExecutor,
        netlist: &Netlist,
        schedule: &RowSchedule,
        array: &mut PimArray,
        row: usize,
        inputs: &[bool],
        scratch: &mut ExecScratch,
    ) -> Result<ProtectedRunReport, ProtectedExecError>;

    /// Runs up to 64 trials of `schedule` at once on the bit-sliced array,
    /// mirroring [`Self::run_scalar`] lane for lane (same gate order, same
    /// per-op fault-decision order, same stuck-at pinning on every store).
    /// This is the path every campaign runs; the operation sequence must be
    /// a pure function of the schedule, and data-dependent recovery is
    /// written per lane (see [`crate::schemes::detect_recompute`]).
    #[allow(clippy::too_many_arguments)]
    fn run_sliced(
        &self,
        exec: &SlicedExecutor,
        netlist: &Netlist,
        schedule: &RowSchedule,
        array: &mut SlicedPimArray,
        row: usize,
        inputs: &[u64],
        scratch: &mut SlicedExecScratch,
    ) -> Result<SlicedRunReport, ProtectedExecError>;
}

/// The compile-time scheme registry, in stable wire order. `FromStr`,
/// serialization, the CLI listings and the proptest generators all iterate
/// this slice — registering a scheme here is the *only* step besides the
/// `impl SchemeRuntime` itself.
pub fn registry() -> &'static [&'static dyn SchemeRuntime] {
    static REGISTRY: [&'static dyn SchemeRuntime; 5] = [
        &crate::schemes::unprotected::UnprotectedScheme,
        &crate::schemes::ecim::EcimScheme,
        &crate::schemes::trim::TrimScheme,
        &crate::schemes::parity_detect::ParityDetectScheme,
        &crate::schemes::detect_recompute::DetectRecomputeScheme,
    ];
    &REGISTRY
}

/// Looks a scheme up by wire name, display name or alias.
pub fn lookup(name: &str) -> Option<&'static dyn SchemeRuntime> {
    registry()
        .iter()
        .copied()
        .find(|s| s.wire_name() == name || s.display_name() == name || s.aliases().contains(&name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let mut seen = std::collections::HashSet::new();
        for scheme in registry() {
            assert!(
                seen.insert(scheme.wire_name()),
                "duplicate wire name {}",
                scheme.wire_name()
            );
            assert_eq!(
                lookup(scheme.wire_name()).unwrap().wire_name(),
                scheme.wire_name()
            );
            assert_eq!(
                lookup(scheme.display_name()).unwrap().wire_name(),
                scheme.wire_name()
            );
            for alias in scheme.aliases() {
                assert_eq!(lookup(alias).unwrap().wire_name(), scheme.wire_name());
            }
        }
        assert!(lookup("NoSuchScheme").is_none());
    }
}
