//! Campaign execution: schedule caching, deterministic per-trial seeding,
//! and the parallel Monte Carlo trial loop.
//!
//! Design invariants:
//!
//! * **Compile once, run many** — schedules are compiled per
//!   `(workload, row layout)` and shared (via [`Arc`]) by every trial of
//!   every point that uses that layout, instead of recompiling per trial.
//! * **Deterministic seeding** — each trial's input RNG and fault-injector
//!   RNG seeds are pure functions of `(campaign_seed, point index, trial
//!   index)`, so results do not depend on which thread ran the trial.
//! * **Order-independent aggregation** — trial outcomes fold into
//!   per-point integer tallies, whose sums do not depend on the order they
//!   were added in, so the report is byte-identical for any thread count
//!   (`RAYON_NUM_THREADS=1` vs default), checkpoint cadence or shard
//!   geometry.
//! * **Bounded memory** — trial coordinates are walked arithmetically and
//!   never materialised, so memory does not grow with the trial count.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use nvpim_compiler::netlist::Netlist;
use nvpim_compiler::schedule::{map_netlist, RowSchedule};
use nvpim_core::config::DesignConfig;
use nvpim_core::executor::{ExecScratch, ProtectedExecutor};
use nvpim_core::sliced::{SlicedExecScratch, SlicedExecutor};
use nvpim_core::system::{evaluate_schedule, WorkloadShape};
use nvpim_sim::array::PimArray;
use nvpim_sim::fault::{ErrorRates, FaultInjector};
use nvpim_sim::sliced::{SlicedPimArray, LANES};
use nvpim_telemetry::{Counter as TelemetryCounter, LocalTelemetry, Phase, Telemetry};
use nvpim_workloads::mnist::{self, MnistAccuracyBaseline, MnistAccuracyModel, SyntheticMnist};
use nvpim_workloads::Benchmark;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::plan::{CampaignKind, EstimatorMode, ProtectionConfig, SweepPlan, SweepWorkload};
use crate::report::{
    EstimatorSummary, PointSummary, PointTally, SweepReport, Tallies, TrialOutcome,
};
use crate::SweepError;

/// A compiled `(netlist, schedule)` pair shared by all trials of the
/// points that map onto the same row layout.
#[derive(Debug)]
pub struct CompiledKernel {
    /// The workload's row netlist.
    pub netlist: Netlist,
    /// The schedule compiled for one specific row layout.
    pub schedule: RowSchedule,
}

/// Schedule-cache key: the workload (a `Copy` enum — no per-lookup string
/// allocation), the campaign kind (an accuracy campaign runs a different
/// netlist for the same workload) and the row layout's `(total, metadata,
/// cells_per_value)` columns.
type LayoutKey = (SweepWorkload, CampaignKind, (usize, usize, usize));

/// The row netlist a campaign of `kind` runs for `workload`: the
/// workload's own netlist, or for accuracy campaigns the shared MAC chain
/// every hidden neuron executes (it depends only on the weight width).
fn campaign_netlist(workload: SweepWorkload, kind: CampaignKind) -> Netlist {
    match kind {
        CampaignKind::Error => workload.netlist(),
        CampaignKind::Accuracy => {
            mnist::row_netlist_with_terms(accuracy_weight_bits(workload), mnist::EVAL_PIXELS)
        }
    }
}

/// Cache of compiled schedules keyed by `(workload, campaign kind, row
/// layout)`.
///
/// Technologies never affect the layout, and distinct protection schemes
/// frequently share one (e.g. every technology's ECiM design), so a
/// campaign compiles far fewer schedules than it has points. The cache
/// keeps no counters: each lookup records a compile or a hit into the
/// telemetry sink it is given.
#[derive(Debug, Default)]
pub struct ScheduleCache {
    entries: HashMap<LayoutKey, Arc<CompiledKernel>>,
    netlists: HashMap<(SweepWorkload, CampaignKind), Netlist>,
}

impl ScheduleCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct compiled schedules.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns the compiled kernel a `kind` campaign runs for `workload`
    /// under `config.row_layout()`, compiling (and validating) it on first
    /// use. The lookup is timed into `telemetry` as a
    /// [`Phase::ScheduleCompile`] or [`Phase::ScheduleCacheHit`] span and
    /// counted as a compile or a hit.
    ///
    /// # Errors
    ///
    /// [`SweepError::Map`] when mapping fails outright and
    /// [`SweepError::NotDirectlyExecutable`] when the schedule spills (a
    /// spilled schedule cannot run on a single simulated row).
    pub fn get_or_compile(
        &mut self,
        workload: SweepWorkload,
        kind: CampaignKind,
        config: &DesignConfig,
        telemetry: &Telemetry,
    ) -> Result<Arc<CompiledKernel>, SweepError> {
        let span = telemetry.span_start();
        let layout = config.row_layout();
        let key = (
            workload,
            kind,
            (
                layout.total_columns,
                layout.metadata_columns,
                layout.cells_per_value,
            ),
        );
        if let Some(kernel) = self.entries.get(&key) {
            telemetry.span_end(Phase::ScheduleCacheHit, span);
            telemetry.add(TelemetryCounter::ScheduleCacheHits, 1);
            return Ok(Arc::clone(kernel));
        }
        // Netlist synthesis is itself cached: every layout of a workload
        // shares one netlist build. The kernel's copy is taken after
        // mapping, so mapping never holds two copies at once.
        let netlist = self
            .netlists
            .entry((workload, kind))
            .or_insert_with(|| campaign_netlist(workload, kind));
        let schedule = map_netlist(netlist, layout).map_err(|err| SweepError::Map {
            workload: workload.name(),
            detail: err.to_string(),
        })?;
        if !schedule.is_directly_executable() {
            return Err(SweepError::NotDirectlyExecutable {
                workload: workload.name(),
                layout_label: format!(
                    "{} cols, {} metadata, {} cells/value",
                    layout.total_columns, layout.metadata_columns, layout.cells_per_value
                ),
            });
        }
        let kernel = Arc::new(CompiledKernel {
            netlist: netlist.clone(),
            schedule,
        });
        self.entries.insert(key, Arc::clone(&kernel));
        telemetry.span_end(Phase::ScheduleCompile, span);
        telemetry.add(TelemetryCounter::ScheduleCompiles, 1);
        Ok(kernel)
    }
}

/// One captured fault-free trial of a design point: what every zero-fault
/// trial of that point deterministically reproduces.
///
/// Legality rests on the scheme's
/// [`analytic_clean`](nvpim_core::scheme::SchemeRuntime::analytic_clean)
/// capability — the clean-run operation sequence, check count and metadata
/// traffic are a pure function of the schedule, never of the inputs. The
/// engine does not take the declaration on faith:
/// [`capture_clean_profile`] probes the point with two *different* input
/// vectors and returns `None` (disabling the fast path and the estimator)
/// on any disagreement, any injected fault, any wrong output bit or any
/// execution error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CleanProfile {
    /// Gate-output fault decisions one trial makes — the decision window
    /// `D` over which "zero faults" is defined.
    pub(crate) decisions: u64,
    /// The outcome every zero-fault trial of the point reproduces.
    pub(crate) outcome: TrialOutcome,
}

/// Probes one design point with two fault-free trials on different inputs,
/// run as one 2-lane batch on the lane engine the point's trials run on,
/// and returns the shared clean profile, or `None` when the point cannot
/// legally settle zero-fault trials analytically (scheme opt-out, probe
/// disagreement, or a probe that faulted/failed/errored).
pub(crate) fn capture_clean_profile(point: &PointContext) -> Option<CleanProfile> {
    if !point.config.scheme.runtime().analytic_clean() {
        return None;
    }
    // Lane k draws its inputs from `probe_seeds[k]` as its input stream.
    let probe_seeds = [0xC1EA_0001u64, 0xC1EA_0002];
    let mut array = SlicedPimArray::standard_rows(1);
    array.reset_for_batch(ErrorRates::NONE, &probe_seeds);
    let mut batch = TrialBatch::default();
    batch.input_seeds.extend(probe_seeds);
    let mut outcomes = [TrialOutcome::default(), TrialOutcome::default()];
    run_batch_rows(point, &mut array, &mut batch, &mut outcomes);
    let [first, second] = outcomes;
    // The two probes used different inputs; any divergence falsifies the
    // scheme's input-independence claim for this point.
    if first != second
        || first.exec_error.is_some()
        || first.faults_injected != 0
        || first.wrong_output_bits != 0
    {
        return None;
    }
    Some(CleanProfile {
        decisions: array.injector().decision_count(),
        outcome: first,
    })
}

/// Evaluation images of an accuracy campaign. Trials cycle through them by
/// their input stream, so every image is exercised across a point's seeds.
pub(crate) const ACCURACY_IMAGES: usize = 64;

/// Seed-stream tweak of the accuracy model's weights (mixed with the
/// campaign seed, distinct from every trial stream).
const ACCURACY_MODEL_STREAM: u64 = 0xACC0_4D0D_E11A_57A1;
/// Seed-stream tweak of the accuracy campaign's evaluation images.
const ACCURACY_IMAGE_STREAM: u64 = 0xACC0_1A6E_0DA7_A5E7;

/// Everything an accuracy campaign shares across one workload's points: the
/// reduced inference model, the pooled evaluation set, the once-per-campaign
/// clean baseline, and the precomputed per-`(image, neuron)` row inputs and
/// fault-free accumulator reference bits (so the trial hot path packs and
/// evaluates nothing).
#[derive(Debug)]
pub(crate) struct AccuracyContext {
    pub(crate) model: MnistAccuracyModel,
    pub(crate) baseline: MnistAccuracyBaseline,
    /// Row input bits, indexed `[image][neuron]`.
    inputs: Vec<Vec<Vec<bool>>>,
    /// Fault-free accumulator output bits, indexed `[image][neuron]`.
    expected: Vec<Vec<Vec<bool>>>,
}

impl AccuracyContext {
    /// Builds one workload's shared accuracy state. Model weights and
    /// evaluation images derive from the campaign seed through distinct mix
    /// streams, so the whole campaign — clean baseline included — is a pure
    /// function of the plan.
    pub(crate) fn prepare(weight_bits: usize, campaign_seed: u64) -> Self {
        let model =
            MnistAccuracyModel::generate(weight_bits, mix(campaign_seed ^ ACCURACY_MODEL_STREAM));
        let dataset =
            SyntheticMnist::generate(ACCURACY_IMAGES, mix(campaign_seed ^ ACCURACY_IMAGE_STREAM));
        let pooled: Vec<Vec<u8>> = dataset
            .images
            .iter()
            .map(|img| mnist::downsample(img))
            .collect();
        let baseline = MnistAccuracyBaseline::capture(&model, &pooled, &dataset.labels);
        let netlist = model.netlist();
        let mut eval_values = Vec::new();
        let mut inputs = Vec::with_capacity(pooled.len());
        let mut expected = Vec::with_capacity(pooled.len());
        for image in &pooled {
            let mut image_inputs = Vec::with_capacity(mnist::EVAL_HIDDEN);
            let mut image_expected = Vec::with_capacity(mnist::EVAL_HIDDEN);
            for neuron in 0..mnist::EVAL_HIDDEN {
                let row_inputs = model.neuron_inputs(image, neuron);
                let mut outputs = Vec::new();
                netlist.evaluate_into(&row_inputs, &mut eval_values, &mut outputs);
                image_inputs.push(row_inputs);
                image_expected.push(outputs);
            }
            inputs.push(image_inputs);
            expected.push(image_expected);
        }
        Self {
            model,
            baseline,
            inputs,
            expected,
        }
    }

    /// The evaluation image a trial with `input_seed` classifies.
    fn image_of(&self, input_seed: u64) -> usize {
        (input_seed % self.inputs.len() as u64) as usize
    }

    /// The cached once-per-campaign clean-run baseline accuracy (the clean
    /// model's agreement with the synthetic labels).
    pub(crate) fn clean_label_accuracy(&self) -> f64 {
        self.baseline.label_accuracy
    }
}

/// The weight precision of an accuracy workload. Plan validation guarantees
/// accuracy campaigns run only on labelled (MNIST) workloads.
fn accuracy_weight_bits(workload: SweepWorkload) -> usize {
    match workload {
        SweepWorkload::Benchmark(Benchmark::Mnist { weight_bits }) => weight_bits,
        other => unreachable!("accuracy campaign on unlabelled workload {}", other.name()),
    }
}

/// One fully-resolved campaign point, ready to run trials. Public so
/// [`ExecutionBackend`] implementations can be written outside this
/// module; construction stays inside the engine.
#[derive(Debug, Clone)]
pub struct PointContext {
    pub(crate) workload: SweepWorkload,
    pub(crate) protection: ProtectionConfig,
    pub(crate) config: DesignConfig,
    pub(crate) gate_error_rate: f64,
    pub(crate) kernel: Arc<CompiledKernel>,
    /// Lane-batched executor for the design point; shares the point's
    /// compiled schedule.
    pub(crate) sliced: Arc<SlicedExecutor>,
    /// Analytic single-row time estimate (ns) from the system model.
    pub(crate) est_time_ns: f64,
    /// Analytic single-row energy estimate (fJ) from the system model.
    pub(crate) est_energy_fj: f64,
    /// Workload name, formatted once at preparation time so report
    /// assembly never re-formats labels.
    pub(crate) workload_name: String,
    /// Technology display label, cached like [`Self::workload_name`].
    pub(crate) technology_label: String,
    /// Protection label (e.g. `"ECiM/m-o"`), cached like
    /// [`Self::workload_name`] — built from the scheme runtime's
    /// `&'static str` display name.
    pub(crate) protection_label: String,
    /// The point's verified clean profile: `Some` enables the analytic
    /// zero-fault fast path (byte-identical — the skip-sampled injector
    /// proves no fault lands in the decision window, so the trial returns
    /// the captured outcome without executing a gate). `None` runs every
    /// trial in full.
    pub(crate) clean: Option<CleanProfile>,
    /// Whether trials of this point are conditioned on the at-least-one-
    /// fault stratum (stratified estimator mode with a verified clean
    /// profile, a positive decision window and a rate in `(0, 1)`). Exact
    /// mode never sets this.
    pub(crate) conditioned: bool,
    /// Permanent stuck-at cell density of this point's fault regime
    /// (plan-level, 0.0 for defect-free campaigns).
    pub(crate) stuck_at_rate: f64,
    /// Accuracy-campaign state shared by every point of the workload
    /// (`None` for error campaigns).
    pub(crate) accuracy: Option<Arc<AccuracyContext>>,
}

impl PointContext {
    /// Assembles a design point at rate 0 with no clean profile: its lane
    /// executor, its analytic estimate and its report labels, built once
    /// per design (the scheme's `&'static str` display name plus the
    /// gate-style and technology labels) so the per-point aggregation path
    /// allocates no fresh formatting. Callers clone it per rate.
    pub(crate) fn new(
        workload: SweepWorkload,
        protection: ProtectionConfig,
        config: DesignConfig,
        kernel: Arc<CompiledKernel>,
    ) -> Self {
        let shape = WorkloadShape::new(workload.name(), 1, 1);
        let estimate = evaluate_schedule(&kernel.schedule, &shape, &config);
        let sliced = Arc::new(SlicedExecutor::new(config.clone()));
        let workload_name = workload.name();
        let technology_label = config.technology.to_string();
        let protection_label = protection.label();
        Self {
            workload,
            protection,
            config,
            gate_error_rate: 0.0,
            kernel,
            sliced,
            est_time_ns: estimate.time_ns,
            est_energy_fj: estimate.energy_fj,
            workload_name,
            technology_label,
            protection_label,
            clean: None,
            conditioned: false,
            stuck_at_rate: 0.0,
            accuracy: None,
        }
    }

    /// The analytic fault probability `P1` this point's estimator reweights
    /// by: the chance at least one gate fault lands in the decision window
    /// (1.0 for unconditioned points, where the estimate is the plain
    /// Monte Carlo one).
    pub fn fault_probability(&self) -> f64 {
        if !self.conditioned {
            return 1.0;
        }
        let decisions = self.clean.as_ref().map_or(0, |c| c.decisions);
        FaultInjector::fault_within_probability(self.gate_error_rate, decisions)
    }

    /// The design configuration of this point.
    pub fn config(&self) -> &DesignConfig {
        &self.config
    }

    /// The workload this point executes.
    pub fn workload(&self) -> SweepWorkload {
        self.workload
    }

    /// The protection design point (scheme + gate style).
    pub fn protection(&self) -> ProtectionConfig {
        self.protection
    }

    /// The cached point label triple `(workload, technology, protection)`.
    pub fn labels(&self) -> (&str, &str, &str) {
        (
            &self.workload_name,
            &self.technology_label,
            &self.protection_label,
        )
    }

    /// The shared accuracy-campaign context, when this point belongs to an
    /// accuracy campaign.
    pub(crate) fn accuracy_context(&self) -> Option<&AccuracyContext> {
        self.accuracy.as_deref()
    }

    /// The point's fault regime as [`ErrorRates`]: transient gate-output
    /// faults plus the plan's permanent stuck-at defect density.
    fn rates(&self) -> ErrorRates {
        ErrorRates {
            gate: self.gate_error_rate,
            ..ErrorRates::NONE
        }
        .with_stuck_at(self.stuck_at_rate)
    }
}

/// SplitMix64-style mix used for per-trial seed derivation.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a trial's base seed from the campaign seed and its coordinates.
///
/// Pure function of its arguments — never of scheduling order.
pub fn derive_trial_seed(campaign_seed: u64, point_index: u64, trial_index: u64) -> u64 {
    mix(mix(campaign_seed ^ mix(point_index)) ^ trial_index)
}

/// The `(input_rng_seed, fault_injector_seed)` pair a trial derives from
/// its base seed — the engine's exact stream split, exposed so code
/// outside the engine that rebuilds a trial replays the very same inputs
/// and fault pattern as the engine path.
pub fn trial_stream_seeds(base_seed: u64) -> (u64, u64) {
    (mix(base_seed ^ 0x1), mix(base_seed ^ 0x2))
}

/// Reusable per-thread working memory for the Monte Carlo trial loop.
///
/// One arena holds the simulated array (reset in place per trial — a
/// memset over the packed words, not a reallocation), the input/expected
/// buffers, and the executor's [`ExecScratch`]. The rayon trial loop
/// creates one arena per worker via `map_init`, so steady-state trials
/// allocate nothing.
///
/// For lane batches the arena additionally holds the transposed 64-lane
/// array (one row for error trials, one per hidden neuron for accuracy
/// trials) and a `TrialBatch`: the lane-word input/expected buffers and
/// the [`SlicedExecScratch`] — reset in place per batch, with per-lane
/// fault logs reusing their capacity.
///
/// **Purity contract:** a trial run through a warmed-up arena is
/// bit-identical to one run with fresh allocations — trial outcomes are a
/// pure function of `(point, seed)`, never of which arena (or thread, or
/// lane batch) ran them. The arena-purity tests assert this.
#[derive(Debug, Default)]
pub struct TrialArena {
    array: Option<PimArray>,
    inputs: Vec<bool>,
    expected: Vec<bool>,
    eval_values: Vec<bool>,
    scratch: ExecScratch,
    lane_array: Option<SlicedPimArray>,
    batch: TrialBatch,
    /// A batch task's outcomes, reused across tasks until they are tallied.
    outcomes: Vec<TrialOutcome>,
    /// Per-thread telemetry accumulator: plain `u64` arrays the hot path
    /// records into with no shared-atomic traffic. Folds into the shared
    /// sink after every task the engine runs in the arena and on drop.
    /// Disabled (all no-ops, zero clock reads) for arenas built with
    /// [`TrialArena::new`].
    telemetry: LocalTelemetry,
}

impl TrialArena {
    /// Creates an empty arena (buffers grow on first use) with telemetry
    /// disabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty arena whose trials record phase timings and
    /// counters into `sink` (folded once per task, see
    /// [`LocalTelemetry`]). A disabled sink behaves exactly like
    /// [`TrialArena::new`].
    pub fn with_telemetry(sink: &Telemetry) -> Self {
        Self {
            telemetry: LocalTelemetry::new(sink),
            ..Self::default()
        }
    }

    /// Folds any accumulated telemetry into the shared sink now (also
    /// happens automatically on drop).
    pub fn flush_telemetry(&mut self) {
        self.telemetry.flush();
    }
}

/// The lane buffers of a [`TrialArena`]: everything a 64-lane batch needs
/// besides its array, reusable across batches of different points,
/// technologies and codes with no steady-state allocation. Crate-private —
/// callers only ever touch it through [`TrialArena`].
#[derive(Debug, Default)]
pub(crate) struct TrialBatch {
    /// Per-lane fault seeds of the current batch.
    fault_seeds: Vec<u64>,
    /// Per-lane input seeds of the current batch (kept alongside the fault
    /// seeds so the zero-fault fast path can decide before any input work).
    input_seeds: Vec<u64>,
    /// Transposed primary inputs: word `i` holds input bit `i` across lanes.
    input_words: Vec<u64>,
    /// Lane-parallel netlist evaluation working array.
    eval_words: Vec<u64>,
    /// Transposed fault-free reference outputs.
    expected_words: Vec<u64>,
    scratch: SlicedExecScratch,
}

/// Executes one Monte Carlo trial of `ctx` in `arena` on the scalar path,
/// driven by `executor` (built for `ctx`'s design configuration).
/// `base_seed` comes from [`derive_trial_seed`]. Public so out-of-crate
/// [`ExecutionBackend`] implementations can compose the engine's exact
/// per-trial semantics.
pub fn run_trial(
    ctx: &PointContext,
    executor: &ProtectedExecutor,
    base_seed: u64,
    arena: &mut TrialArena,
) -> TrialOutcome {
    if let Some(accuracy) = &ctx.accuracy {
        return run_accuracy_trial(ctx, executor, accuracy, base_seed, arena);
    }
    // Independent streams for input generation and fault injection.
    let (input_seed, fault_seed) = trial_stream_seeds(base_seed);

    // Split the arena into disjoint field borrows so the telemetry
    // accumulator can record while the array is live.
    let TrialArena {
        array: array_slot,
        inputs,
        expected,
        eval_values,
        scratch,
        telemetry,
        ..
    } = arena;

    let rates = ctx.rates();
    let array = array_slot.get_or_insert_with(|| PimArray::standard(ctx.config.technology));
    let span = telemetry.span_start();
    array.reset_for_trial(ctx.config.technology, rates, fault_seed);
    telemetry.span_end(Phase::FaultInjection, span);

    if let Some(clean) = &ctx.clean {
        let window = clean.decisions;
        if ctx.conditioned {
            // Stratified mode: force the first gate fault inside the decision
            // window (a truncated-geometric redraw); the trial then runs in
            // full and its counters describe the at-least-one-fault stratum.
            let span = telemetry.span_start();
            array.fault_injector_mut().condition_first_fault(window);
            telemetry.span_end(Phase::EstimatorRedraw, span);
            telemetry.add(TelemetryCounter::EstimatorRedraws, 1);
        } else if window > 0 {
            // Analytic zero-fault fast path: the skip sampler already knows
            // the index of the trial's first would-be gate fault. If it lies
            // beyond the decision window, every one of the trial's fault
            // decisions comes up clean and the outcome is — provably, via the
            // captured profile — the clean outcome. Peeking consumes exactly
            // the draw `apply` would have consumed lazily, so slow-path
            // trials that fall through remain byte-identical.
            let span = telemetry.span_start();
            let next = array.fault_injector_mut().next_fault_in();
            if next >= window {
                let outcome = clean.outcome.clone();
                telemetry.span_end(Phase::AnalyticCleanSettle, span);
                telemetry.add(TelemetryCounter::CleanSettledTrials, 1);
                telemetry.add(TelemetryCounter::TrialsExecuted, 1);
                return outcome;
            }
        }
    }

    let span = telemetry.span_start();
    let mut input_rng = ChaCha8Rng::seed_from_u64(input_seed);
    let netlist = &ctx.kernel.netlist;
    inputs.clear();
    inputs.extend((0..netlist.inputs.len()).map(|_| input_rng.gen_bool(0.5)));
    netlist.evaluate_into(inputs, eval_values, expected);

    let outcome =
        match executor.run_with_scratch(netlist, &ctx.kernel.schedule, array, 0, inputs, scratch) {
            Ok(report) => {
                let wrong_bits = report
                    .outputs
                    .iter()
                    .zip(expected.iter())
                    .filter(|(got, want)| got != want)
                    .count() as u64;
                TrialOutcome {
                    faults_injected: array.fault_injector().fault_count() as u64,
                    checks: report.checks,
                    errors_detected: report.errors_detected,
                    corrections_written_back: report.corrections_written_back,
                    uncorrectable: report.uncorrectable,
                    wrong_output_bits: wrong_bits,
                    ..TrialOutcome::default()
                }
            }
            Err(err) => TrialOutcome::exec_failed(
                array.fault_injector().fault_count() as u64,
                err.to_string(),
            ),
        };
    telemetry.span_end(Phase::GateExecution, span);
    telemetry.add(TelemetryCounter::TrialsExecuted, 1);
    outcome
}

/// Executes one accuracy-campaign trial: the trial's evaluation image is
/// picked by its input stream, each hidden neuron's row program runs on its
/// own array row under one shared fault/defect draw, and the periphery
/// classifies the (possibly corrupted) accumulator sums. `correct` records
/// whether that prediction matches the clean baseline's for the same image —
/// top-1 fidelity, so a fault-free trial is always correct and accuracy
/// degradation is attributable to the injected faults alone.
fn run_accuracy_trial(
    ctx: &PointContext,
    executor: &ProtectedExecutor,
    accuracy: &AccuracyContext,
    base_seed: u64,
    arena: &mut TrialArena,
) -> TrialOutcome {
    let (input_seed, fault_seed) = trial_stream_seeds(base_seed);
    let TrialArena {
        array: array_slot,
        scratch,
        telemetry,
        ..
    } = arena;

    let rates = ctx.rates();
    let array = array_slot.get_or_insert_with(|| PimArray::standard(ctx.config.technology));
    let span = telemetry.span_start();
    array.reset_for_trial(ctx.config.technology, rates, fault_seed);
    telemetry.span_end(Phase::FaultInjection, span);

    let image = accuracy.image_of(input_seed);
    let netlist = &ctx.kernel.netlist;

    let span = telemetry.span_start();
    let mut outcome = TrialOutcome::default();
    let mut hidden_sums = [0u64; mnist::EVAL_HIDDEN];
    for (neuron, sum_slot) in hidden_sums.iter_mut().enumerate() {
        let inputs = &accuracy.inputs[image][neuron];
        let expected = &accuracy.expected[image][neuron];
        match executor.run_with_scratch(
            netlist,
            &ctx.kernel.schedule,
            array,
            neuron,
            inputs,
            scratch,
        ) {
            Ok(report) => {
                outcome.checks += report.checks;
                outcome.errors_detected += report.errors_detected;
                outcome.corrections_written_back += report.corrections_written_back;
                outcome.uncorrectable += report.uncorrectable;
                outcome.wrong_output_bits += report
                    .outputs
                    .iter()
                    .zip(expected)
                    .filter(|(got, want)| got != want)
                    .count() as u64;
                *sum_slot = report
                    .outputs
                    .iter()
                    .enumerate()
                    .fold(0u64, |acc, (i, &bit)| acc | (u64::from(bit) << i));
            }
            Err(err) => {
                // Mirror the scalar error path: zeroed counters, the fault
                // count so far, no prediction.
                let failed = TrialOutcome::exec_failed(
                    array.fault_injector().fault_count() as u64,
                    err.to_string(),
                );
                telemetry.span_end(Phase::GateExecution, span);
                telemetry.add(TelemetryCounter::TrialsExecuted, 1);
                return failed;
            }
        }
    }
    outcome.faults_injected = array.fault_injector().fault_count() as u64;
    let prediction = accuracy.model.classify_from_sums(&hidden_sums);
    outcome.correct = Some(prediction == accuracy.baseline.clean_predictions[image]);
    telemetry.span_end(Phase::GateExecution, span);
    telemetry.add(TelemetryCounter::TrialsExecuted, 1);
    outcome
}

/// Executes trials `first_trial .. first_trial + lanes` of one point as a
/// single sliced batch (one trial per `u64` lane), appending one
/// [`TrialOutcome`] per trial — in trial order, bit-identical to `lanes`
/// scalar [`run_trial`] calls with the same coordinates, for error and
/// accuracy points alike. Public for out-of-crate [`ExecutionBackend`]
/// implementations; callers must pass `1..=64` lanes.
pub fn run_trial_batch(
    ctx: &PointContext,
    campaign_seed: u64,
    point_index: u64,
    first_trial: u64,
    lanes: usize,
    arena: &mut TrialArena,
    out: &mut Vec<TrialOutcome>,
) {
    debug_assert!((1..=LANES).contains(&lanes));
    let TrialArena {
        lane_array,
        batch,
        telemetry,
        ..
    } = arena;

    // Per-lane seeds: lane k replays trial `first_trial + k`'s exact input
    // and fault streams. Fault seeds come first so the batch can settle
    // analytically before any input work.
    batch.fault_seeds.clear();
    batch.input_seeds.clear();
    for lane in 0..lanes {
        let base_seed = derive_trial_seed(campaign_seed, point_index, first_trial + lane as u64);
        let (input_seed, fault_seed) = trial_stream_seeds(base_seed);
        batch.fault_seeds.push(fault_seed);
        batch.input_seeds.push(input_seed);
    }

    // An accuracy trial runs one row program per hidden neuron, on rows
    // `0..EVAL_HIDDEN`; an error trial runs its workload's on row 0.
    let rows = if ctx.accuracy.is_some() {
        mnist::EVAL_HIDDEN
    } else {
        1
    };
    if lane_array.as_ref().is_some_and(|a| a.rows() != rows) {
        *lane_array = None;
    }
    let array = lane_array.get_or_insert_with(|| SlicedPimArray::standard_rows(rows));
    let window = ctx.clean.as_ref().map_or(0, |c| c.decisions);
    if ctx.conditioned {
        // Stratified mode: redraw every lane's first gate fault from the
        // window-truncated geometric, so all 64 lanes land in the
        // at-least-one-fault stratum.
        let span = telemetry.span_start();
        array.reset_for_conditioned_batch(ctx.rates(), &batch.fault_seeds, window);
        telemetry.span_end(Phase::EstimatorRedraw, span);
        telemetry.add(TelemetryCounter::EstimatorRedraws, lanes as u64);
    } else {
        let span = telemetry.span_start();
        array.reset_for_batch(ctx.rates(), &batch.fault_seeds);
        telemetry.span_end(Phase::FaultInjection, span);
        if let Some(clean) = &ctx.clean {
            // Analytic zero-fault fast path, whole-batch edition: the lane
            // injector draws every lane's first fault index eagerly at
            // reset, so one compare settles all 64 lanes. If even one lane
            // faults inside the window the batch runs in full (its injector
            // state after reset is byte-identical to the no-fast-path
            // reset, so outcomes are unchanged).
            if window > 0 && array.injector().next_fault_decision() >= window {
                let span = telemetry.span_start();
                for _ in 0..lanes {
                    out.push(clean.outcome.clone());
                }
                telemetry.span_end(Phase::AnalyticCleanSettle, span);
                telemetry.add(TelemetryCounter::CleanSettledBatches, 1);
                telemetry.add(TelemetryCounter::CleanSettledTrials, lanes as u64);
                telemetry.add(TelemetryCounter::TrialsExecuted, lanes as u64);
                return;
            }
        }
    }

    let span = telemetry.span_start();
    let first = out.len();
    out.resize(first + lanes, TrialOutcome::default());
    run_batch_rows(ctx, array, batch, &mut out[first..]);
    telemetry.span_end(Phase::GateExecution, span);
    telemetry.add(TelemetryCounter::TrialsExecuted, lanes as u64);
}

/// ORs `bits` into bit `lane` of `words`, one word per bit.
fn load_lane(words: &mut [u64], bits: &[bool], lane: usize) {
    for (word, &bit) in words.iter_mut().zip(bits) {
        *word |= u64::from(bit) << lane;
    }
}

/// Runs a reset batch's row programs and fills one outcome per lane. An
/// error lane draws random inputs from its input stream and runs one row
/// program; an accuracy lane runs the `EVAL_HIDDEN` row programs of the
/// image its input stream picks, then classifies its own hidden sums, as
/// [`run_accuracy_trial`] does.
fn run_batch_rows(
    ctx: &PointContext,
    array: &mut SlicedPimArray,
    batch: &mut TrialBatch,
    outcomes: &mut [TrialOutcome],
) {
    let netlist = &ctx.kernel.netlist;
    let TrialBatch {
        input_seeds,
        input_words,
        eval_words,
        expected_words,
        scratch,
        ..
    } = batch;
    let mut hidden_sums = [[0u64; mnist::EVAL_HIDDEN]; LANES];
    for row in 0..array.rows() {
        input_words.clear();
        input_words.resize(netlist.inputs.len(), 0);
        if let Some(accuracy) = &ctx.accuracy {
            expected_words.clear();
            expected_words.resize(netlist.outputs.len(), 0);
            for (lane, &input_seed) in input_seeds.iter().enumerate() {
                let image = accuracy.image_of(input_seed);
                load_lane(input_words, &accuracy.inputs[image][row], lane);
                load_lane(expected_words, &accuracy.expected[image][row], lane);
            }
        } else {
            for (lane, &input_seed) in input_seeds.iter().enumerate() {
                let mut input_rng = ChaCha8Rng::seed_from_u64(input_seed);
                for word in input_words.iter_mut() {
                    *word |= u64::from(input_rng.gen_bool(0.5)) << lane;
                }
            }
            netlist.evaluate_lanes_into(input_words, eval_words, expected_words);
        }
        let report = match ctx.sliced.run_batch(
            netlist,
            &ctx.kernel.schedule,
            array,
            row,
            input_words,
            scratch,
        ) {
            Ok(report) => report,
            Err(err) => {
                // As on the scalar path: zeroed counters, the faults so far
                // (none: validation precedes every fault draw), no
                // prediction.
                let message = err.to_string();
                for (lane, outcome) in outcomes.iter_mut().enumerate() {
                    let faults = array.injector().lane_fault_count(lane) as u64;
                    *outcome = TrialOutcome::exec_failed(faults, message.clone());
                }
                return;
            }
        };
        // Per-lane wrong-output-bit counts: word-parallel diff against the
        // reference, then a popcount-bounded lane scan.
        let valid = array.injector().valid_mask();
        for (got, want) in scratch.output_words.iter().zip(&*expected_words) {
            let mut diff = (got ^ want) & valid;
            while diff != 0 {
                let lane = diff.trailing_zeros() as usize;
                diff &= diff - 1;
                outcomes[lane].wrong_output_bits += 1;
            }
        }
        for (lane, (outcome, sums)) in outcomes.iter_mut().zip(&mut hidden_sums).enumerate() {
            outcome.checks += report.checks;
            outcome.errors_detected += report.errors_detected[lane];
            outcome.corrections_written_back += report.corrections_written_back[lane];
            outcome.uncorrectable += report.uncorrectable[lane];
            if ctx.accuracy.is_some() {
                for (i, &word) in scratch.output_words.iter().enumerate() {
                    sums[row] |= ((word >> lane) & 1) << i;
                }
            }
        }
    }
    for (lane, outcome) in outcomes.iter_mut().enumerate() {
        outcome.faults_injected = array.injector().lane_fault_count(lane) as u64;
        if let Some(accuracy) = &ctx.accuracy {
            let image = accuracy.image_of(input_seeds[lane]);
            let prediction = accuracy.model.classify_from_sums(&hidden_sums[lane]);
            outcome.correct = Some(prediction == accuracy.baseline.clean_predictions[image]);
        }
    }
}

/// A standalone single-point trial runner: one workload compiled under one
/// design configuration, exposing the engine's exact per-trial hot path
/// (arena reuse, skip-sampled faults, deterministic seeding) to benches
/// and tests without building a whole campaign plan.
#[derive(Debug)]
pub struct TrialHarness {
    ctx: PointContext,
    executor: ProtectedExecutor,
}

impl TrialHarness {
    /// Compiles `workload` for `config` and prepares a runnable point.
    ///
    /// # Errors
    ///
    /// Schedule compilation failures (see [`ScheduleCache::get_or_compile`]).
    pub fn new(
        workload: SweepWorkload,
        protection: ProtectionConfig,
        config: DesignConfig,
        gate_error_rate: f64,
    ) -> Result<Self, SweepError> {
        let kernel = ScheduleCache::new().get_or_compile(
            workload,
            CampaignKind::Error,
            &config,
            &Telemetry::disabled(),
        )?;
        let executor = ProtectedExecutor::new(config.clone());
        let mut ctx = PointContext::new(workload, protection, config, kernel);
        ctx.clean = capture_clean_profile(&ctx);
        ctx.gate_error_rate = gate_error_rate;
        Ok(Self { ctx, executor })
    }

    /// Disables the analytic zero-fault fast path (and conditioning), so
    /// every trial simulates in full — the reference benches and tests
    /// compare the fast path against.
    pub fn without_analytic_fast_path(mut self) -> Self {
        self.ctx.clean = None;
        self.ctx.conditioned = false;
        self
    }

    /// Switches the harness to the stratified rare-event estimator: every
    /// trial is conditioned on at least one gate fault landing inside the
    /// decision window, and estimates must be reweighted by
    /// [`Self::fault_probability`].
    ///
    /// # Panics
    ///
    /// Panics when conditioning is illegal for the point: no verified clean
    /// profile, a zero decision window, or a rate outside `(0, 1)`.
    pub fn with_stratified_estimator(mut self) -> Self {
        let decisions = self.ctx.clean.as_ref().map_or(0, |c| c.decisions);
        assert!(
            decisions > 0 && self.ctx.gate_error_rate > 0.0 && self.ctx.gate_error_rate < 1.0,
            "stratified estimation needs a verified clean profile and a rate in (0, 1)"
        );
        self.ctx.conditioned = true;
        self
    }

    /// Gate-output fault decisions one trial of this point makes (the
    /// decision window `D`), if a clean profile was verified.
    pub fn clean_decisions(&self) -> Option<u64> {
        self.ctx.clean.as_ref().map(|c| c.decisions)
    }

    /// The reweighting factor `P1` (see [`PointContext::fault_probability`]).
    pub fn fault_probability(&self) -> f64 {
        self.ctx.fault_probability()
    }

    /// The compiled `(netlist, schedule)` kernel.
    pub fn kernel(&self) -> &CompiledKernel {
        &self.ctx.kernel
    }

    /// The scalar executor [`Self::run_trial`] drives.
    pub fn executor(&self) -> &ProtectedExecutor {
        &self.executor
    }

    /// The design configuration of this point.
    pub fn config(&self) -> &DesignConfig {
        &self.ctx.config
    }

    /// The gate-output error rate of this point.
    pub fn gate_error_rate(&self) -> f64 {
        self.ctx.gate_error_rate
    }

    /// Runs trial `trial_index` (seeded exactly like a campaign point at
    /// index 0 under `campaign_seed`) in `arena`, on the scalar backend.
    pub fn run_trial(
        &self,
        campaign_seed: u64,
        trial_index: u64,
        arena: &mut TrialArena,
    ) -> TrialOutcome {
        run_trial(
            &self.ctx,
            &self.executor,
            derive_trial_seed(campaign_seed, 0, trial_index),
            arena,
        )
    }

    /// Runs trials `first_trial .. first_trial + count` as one sliced
    /// batch (one trial per `u64` lane), returning outcomes in trial order
    /// — bit-identical to `count` [`Self::run_trial`] calls.
    ///
    /// # Panics
    ///
    /// Panics if `count` is 0 or exceeds 64.
    pub fn run_trial_batch(
        &self,
        campaign_seed: u64,
        first_trial: u64,
        count: usize,
        arena: &mut TrialArena,
    ) -> Vec<TrialOutcome> {
        assert!(
            (1..=LANES).contains(&count),
            "a sliced batch runs 1..={LANES} trials, got {count}"
        );
        let mut out = Vec::with_capacity(count);
        run_trial_batch(
            &self.ctx,
            campaign_seed,
            0,
            first_trial,
            count,
            arena,
            &mut out,
        );
        out
    }
}

/// Whether a campaign should keep running after a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignControl {
    /// Keep executing the remaining trials.
    Continue,
    /// Stop the run; [`PreparedCampaign::run_shard`] returns
    /// [`SweepError::Cancelled`].
    Cancel,
}

/// A progress snapshot delivered to the observer at every checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignProgress {
    /// Trials completed so far.
    pub trials_done: u64,
    /// Total trials the campaign will run.
    pub trials_total: u64,
}

/// What [`PreparedCampaign::run_shard`]'s observer sees at each
/// checkpoint: the run's progress plus the per-point tallies of the
/// trials between the previous checkpoint and this one — the next segment
/// of the contiguous completed prefix of the run's range. Merging every
/// checkpoint's `new_tallies` yields a prefix from which a restarted
/// campaign resumes without recomputing — tallies merge in any order, and
/// the merged tallies aggregate into byte-identical report JSON.
#[derive(Debug, Clone, Copy)]
pub struct ChunkCheckpoint<'a> {
    /// Progress within the run's range (`trials_total == end - start`).
    pub progress: CampaignProgress,
    /// Tallies of the trials completed since the previous checkpoint.
    pub new_tallies: &'a Tallies,
}

/// A validated plan with every point resolved and every schedule compiled,
/// ready to run trials — possibly with observable, cancellable
/// checkpoints.
///
/// Produced by [`prepare_campaign`]. Preparation is the only phase that
/// needs the (shared, mutable) [`ScheduleCache`]; execution borrows nothing
/// but the prepared points, so a service can hold its process-wide cache
/// lock only while preparing and run many campaigns concurrently.
#[derive(Debug)]
pub struct PreparedCampaign {
    plan: SweepPlan,
    points: Vec<PointContext>,
    /// Distinct schedules this campaign uses (a pure function of the plan,
    /// *not* of cache warmth — so reports stay byte-identical whether the
    /// schedules were compiled fresh or served from a warm cache).
    schedules_used: usize,
    /// Telemetry sink execution records into (disabled unless attached by
    /// [`prepare_campaign_with_telemetry`]). Never affects report bytes.
    telemetry: Telemetry,
}

/// Resolves a plan's points and compiles their schedules through `cache`.
///
/// # Errors
///
/// Plan-validation and schedule-compilation failures.
pub fn prepare_campaign(
    plan: &SweepPlan,
    cache: &mut ScheduleCache,
) -> Result<PreparedCampaign, SweepError> {
    prepare_campaign_with_telemetry(plan, cache, Telemetry::disabled())
}

/// [`prepare_campaign`] with phase-timing instrumentation: plan validation,
/// per-lookup schedule compile vs cache hit, and clean-profile probes are
/// recorded as spans into `telemetry`, which the returned campaign keeps
/// (and its `run*` methods record into). Telemetry never changes report
/// bytes — the instrumented-run equivalence test asserts this.
///
/// # Errors
///
/// As [`prepare_campaign`].
pub fn prepare_campaign_with_telemetry(
    plan: &SweepPlan,
    cache: &mut ScheduleCache,
    telemetry: Telemetry,
) -> Result<PreparedCampaign, SweepError> {
    telemetry.time(Phase::PlanValidation, || plan.validate())?;
    let mut points: Vec<PointContext> = Vec::with_capacity(plan.point_count());
    let mut layouts_used: Vec<*const CompiledKernel> = Vec::new();
    let mut accuracy_contexts: HashMap<SweepWorkload, Arc<AccuracyContext>> = HashMap::new();
    for &workload in &plan.workloads {
        for &technology in &plan.technologies {
            for &protection in &plan.protections {
                let config = protection.design_config(technology);
                let accuracy = if plan.kind == CampaignKind::Accuracy {
                    Some(Arc::clone(
                        accuracy_contexts.entry(workload).or_insert_with(|| {
                            Arc::new(AccuracyContext::prepare(
                                accuracy_weight_bits(workload),
                                plan.campaign_seed,
                            ))
                        }),
                    ))
                } else {
                    None
                };
                let kernel = cache.get_or_compile(workload, plan.kind, &config, &telemetry)?;
                let ptr = Arc::as_ptr(&kernel);
                if !layouts_used.contains(&ptr) {
                    layouts_used.push(ptr);
                }
                let mut design = PointContext::new(workload, protection, config, kernel);
                design.stuck_at_rate = plan.stuck_at_rate;
                design.accuracy = accuracy;
                // One clean-profile capture per (workload, technology,
                // protection) — rates share it, since a fault-free trial is
                // rate-independent by construction. Accuracy campaigns and
                // defect-bearing plans run without the analytic fast path:
                // with stuck-at defects a zero-transient-fault trial is not
                // clean, and accuracy trials never settle analytically.
                if design.accuracy.is_none() && design.stuck_at_rate == 0.0 {
                    design.clean =
                        telemetry.time(Phase::CleanProbe, || capture_clean_profile(&design));
                }
                for &gate_error_rate in &plan.gate_error_rates {
                    let mut point = design.clone();
                    point.gate_error_rate = gate_error_rate;
                    // Conditioning requires a verified window and a rate
                    // where "at least one fault" is neither impossible nor
                    // certain; other points fall back to plain Monte Carlo
                    // (their estimator summary says so).
                    point.conditioned = plan.estimator == EstimatorMode::Stratified
                        && point.clean.as_ref().is_some_and(|c| c.decisions > 0)
                        && gate_error_rate > 0.0
                        && gate_error_rate < 1.0;
                    points.push(point);
                }
            }
        }
    }
    Ok(PreparedCampaign {
        plan: plan.clone(),
        points,
        schedules_used: layouts_used.len(),
        telemetry,
    })
}

/// One parallel work item: `count` consecutive trials of one point, fused
/// according to the backend's [`ExecutionBackend::task_width`].
#[derive(Debug, Clone, Copy)]
struct TrialTask {
    /// Point index within the prepared campaign.
    point: usize,
    /// First trial index of the run.
    first: u64,
    /// Number of consecutive trials (1 for scalar tasks, up to 64 lanes
    /// for sliced batches).
    count: u64,
}

/// Tasks claimed but not yet folded into the contiguous completed prefix,
/// at most. Participants that get this far ahead of the slowest unfinished
/// task wait, so memory stays bounded for any trial count and any mix of
/// fast and slow tasks.
const MAX_TASKS_IN_FLIGHT: u64 = 1024;

/// What one run's participants share: the lazily cut task sequence and the
/// completed-prefix bookkeeping.
struct Pipeline {
    state: Mutex<PipelineState>,
    /// Signalled whenever the prefix advances or the run stops.
    advanced: Condvar,
}

struct PipelineState {
    /// Next trial to cut a task from (plan-ordered trial index).
    cursor: u64,
    /// End of the run's trial range.
    end: u64,
    /// Sequence number the next claimed task gets.
    next_seq: u64,
    /// Sequence number of the first task not yet folded into the prefix.
    prefix_seq: u64,
    /// Finished tasks past the prefix, by sequence number.
    finished: BTreeMap<u64, (usize, u64, PointTally)>,
    /// Trials folded into the prefix so far.
    prefix_trials: u64,
    /// Tallies of the prefix trials not yet handed to the observer.
    segment: Tallies,
    /// Set on cancellation or a task panic: nothing more is claimed.
    stopped: bool,
}

impl Pipeline {
    /// Locks the shared state, ignoring poison: tasks run outside the lock
    /// and no update under it can panic, so the state is always whole.
    fn lock(&self) -> MutexGuard<'_, PipelineState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn stop(&self) {
        self.lock().stopped = true;
        self.advanced.notify_all();
    }
}

/// Sets the pipeline's stop flag if a task unwinds, so no participant waits
/// for a prefix that can no longer advance.
struct StopOnUnwind<'a>(&'a Pipeline);

impl Drop for StopOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.stop();
        }
    }
}

/// Why a participant found nothing to claim.
enum Idle {
    /// Every task is claimed, or the run stopped.
    Exhausted,
    /// The in-flight window is full: wait for the prefix to advance.
    WindowFull,
}

impl PipelineState {
    /// Cuts and claims the next task: trials of one point, at most the
    /// backend's width, never crossing a point boundary.
    fn claim(
        &mut self,
        backend: &dyn ExecutionBackend,
        points: &[PointContext],
        seeds_per_point: u64,
    ) -> Result<(u64, TrialTask), Idle> {
        if self.stopped || self.cursor >= self.end {
            return Err(Idle::Exhausted);
        }
        if self.next_seq >= self.prefix_seq + MAX_TASKS_IN_FLIGHT {
            return Err(Idle::WindowFull);
        }
        let point = (self.cursor / seeds_per_point) as usize;
        let first = self.cursor % seeds_per_point;
        let width = backend.task_width(&points[point]).max(1) as u64;
        let count = width
            .min(seeds_per_point - first)
            .min(self.end - self.cursor);
        self.cursor += count;
        let seq = self.next_seq;
        self.next_seq += 1;
        Ok((
            seq,
            TrialTask {
                point,
                first,
                count,
            },
        ))
    }

    /// Records a finished task and folds every task now contiguous with
    /// the prefix into the pending segment. Returns whether the prefix
    /// advanced.
    fn finish(&mut self, seq: u64, task: TrialTask, tally: PointTally) -> bool {
        self.finished.insert(seq, (task.point, task.count, tally));
        let before = self.prefix_seq;
        while let Some((point, count, tally)) = self.finished.remove(&self.prefix_seq) {
            self.segment.add(point, &tally);
            self.prefix_trials += count;
            self.prefix_seq += 1;
        }
        self.prefix_seq > before
    }
}

/// Splits the plan-ordered trial range `from .. to` into
/// `(point, first trial, trial count)` runs, one per point it touches,
/// computed arithmetically (trial `i` is trial `i % seeds_per_point` of
/// point `i / seeds_per_point`) so no trial list is ever materialised.
pub(crate) fn point_spans(
    from: u64,
    to: u64,
    seeds_per_point: u64,
) -> impl Iterator<Item = (usize, u64, u64)> {
    let mut cursor = from;
    std::iter::from_fn(move || {
        if cursor >= to || seeds_per_point == 0 {
            return None;
        }
        let first = cursor % seeds_per_point;
        let count = (seeds_per_point - first).min(to - cursor);
        let point = (cursor / seeds_per_point) as usize;
        cursor += count;
        Some((point, first, count))
    })
}

/// How one task of consecutive trials of a single point executes. Task
/// grouping, the parallel loop and aggregation all dispatch through this
/// trait. Campaigns always run on [`SlicedBackend`], which runs every point
/// lane-batched. The trait is otherwise a test seam: [`ScalarBackend`] is the reference
/// oracle the equivalence suites compare against (via [`run_campaign_on`]),
/// and the service's chaos suite substitutes fault-injecting fakes.
///
/// **Contract:** every trial's outcome is a pure function of `(point,
/// campaign seed, trial index)` — never of task shape, arena history,
/// thread or backend — so reports stay byte-identical across backends (the
/// backend-equivalence suite asserts this).
pub trait ExecutionBackend: std::fmt::Debug + Send + Sync {
    /// Maximum number of consecutive trials of `point` one task may fuse.
    fn task_width(&self, point: &PointContext) -> usize;

    /// Runs trials `first_trial .. first_trial + count` of `point` in
    /// `arena`, returning their tally. `count` never exceeds
    /// [`Self::task_width`] for this point.
    #[allow(clippy::too_many_arguments)]
    fn run_task(
        &self,
        point: &PointContext,
        campaign_seed: u64,
        point_index: u64,
        first_trial: u64,
        count: usize,
        arena: &mut TrialArena,
    ) -> PointTally;
}

/// The reference oracle: one trial at a time on the scalar bit-packed
/// array. Campaigns never select it; the equivalence suites run it through
/// [`run_campaign_on`] to check [`SlicedBackend`] byte for byte.
#[derive(Debug)]
pub struct ScalarBackend;

impl ExecutionBackend for ScalarBackend {
    fn task_width(&self, _point: &PointContext) -> usize {
        1
    }

    fn run_task(
        &self,
        point: &PointContext,
        campaign_seed: u64,
        point_index: u64,
        first_trial: u64,
        count: usize,
        arena: &mut TrialArena,
    ) -> PointTally {
        let executor = ProtectedExecutor::new(point.config.clone());
        let mut tally = PointTally::default();
        for trial in first_trial..first_trial + count as u64 {
            let seed = derive_trial_seed(campaign_seed, point_index, trial);
            tally.record(&run_trial(point, &executor, seed, arena));
        }
        tally
    }
}

/// The execution path every campaign runs on: up to 64 trials at once, one
/// per `u64` lane, on the transposed bit-sliced array — error and accuracy
/// points alike, with the bytes of [`ScalarBackend`].
#[derive(Debug)]
pub struct SlicedBackend;

impl ExecutionBackend for SlicedBackend {
    fn task_width(&self, _point: &PointContext) -> usize {
        LANES
    }

    fn run_task(
        &self,
        point: &PointContext,
        campaign_seed: u64,
        point_index: u64,
        first_trial: u64,
        count: usize,
        arena: &mut TrialArena,
    ) -> PointTally {
        let mut out = std::mem::take(&mut arena.outcomes);
        out.clear();
        run_trial_batch(
            point,
            campaign_seed,
            point_index,
            first_trial,
            count,
            arena,
            &mut out,
        );
        let tally = PointTally::from_outcomes(&out);
        arena.outcomes = out;
        tally
    }
}

impl PreparedCampaign {
    /// Number of campaign points.
    pub fn point_count(&self) -> usize {
        self.points.len()
    }

    /// Total trials the campaign will run.
    pub fn trial_count(&self) -> u64 {
        self.plan.trial_count()
    }

    /// Runs every trial in one shot (no progress events, not cancellable):
    /// [`Self::run_shard`] over the whole trial list, aggregated by
    /// [`Self::report_from_tallies`].
    ///
    /// # Errors
    ///
    /// Never fails after successful preparation; the `Result` mirrors
    /// [`Self::run_shard`].
    pub fn run(&self) -> Result<SweepReport, SweepError> {
        self.run_whole(&SlicedBackend)
    }

    /// [`Self::run`] on an explicit backend.
    fn run_whole(&self, backend: &dyn ExecutionBackend) -> Result<SweepReport, SweepError> {
        let tallies = self.run_shard(backend, 0, self.trial_count(), Duration::MAX, |_| {
            CampaignControl::Continue
        })?;
        self.report_from_tallies(&tallies)
    }

    /// Runs trials `start .. end` of the plan-ordered trial list on
    /// `backend` (campaigns pass [`SlicedBackend`]; tests substitute
    /// others) and returns their tallies — the one way to run trials.
    ///
    /// A whole campaign is the shard `0 .. trial_count`; a fleet
    /// coordinator splits `[0, trial_count)` into contiguous ranges (see
    /// [`shard_ranges`]) and runs each on any worker; a campaign or shard
    /// cut short resumes by running the rest of its range as a shard of
    /// its own, its checkpointed tallies staying merged where they were
    /// received. Merged tallies aggregate via [`Self::report_from_tallies`]
    /// into a report **byte-identical** to one uninterrupted run, because
    /// every trial outcome is a pure function of `(point, campaign seed,
    /// trial index)` and tallies merge in any order.
    ///
    /// The observer sees a [`ChunkCheckpoint`] at most once per
    /// `checkpoint_every` (and always once at the end of a non-empty
    /// range): progress within the range (`trials_done` out of
    /// `trials_total == end - start`) and the tallies of the trials
    /// completed since the previous checkpoint. The cadence never changes
    /// results. Returning [`CampaignControl::Cancel`] stops the run at that
    /// checkpoint without poisoning anything.
    ///
    /// # Errors
    ///
    /// [`SweepError::BadCheckpoint`] when the range is inverted or exceeds
    /// the campaign's trial count; [`SweepError::Cancelled`] when the
    /// observer says so. Trial execution errors are recorded in the
    /// tallies, never raised.
    pub fn run_shard(
        &self,
        backend: &dyn ExecutionBackend,
        start: u64,
        end: u64,
        checkpoint_every: Duration,
        mut observer: impl FnMut(ChunkCheckpoint<'_>) -> CampaignControl,
    ) -> Result<Tallies, SweepError> {
        let total = self.trial_count();
        if start > end || end > total {
            return Err(SweepError::BadCheckpoint(format!(
                "shard range {start}..{end} is invalid for a campaign of {total} trials"
            )));
        }
        self.execute(backend, checkpoint_every, start, end, &mut observer)
    }

    /// Aggregates complete tallies — e.g. shard tallies merged by a fleet
    /// coordinator — into the campaign's report, executing nothing.
    /// Byte-identical to the report an uninterrupted single-node run would
    /// have produced from the same plan.
    ///
    /// # Errors
    ///
    /// [`SweepError::BadCheckpoint`] unless `tallies` holds exactly
    /// [`PreparedCampaign::trial_count`] trials, `seeds_per_point` of them
    /// for every point.
    pub fn report_from_tallies(&self, tallies: &Tallies) -> Result<SweepReport, SweepError> {
        let total = self.trial_count();
        if !tallies.covers_range(0, total, self.plan.seeds_per_point) {
            return Err(SweepError::BadCheckpoint(format!(
                "merge tallies {} trials but the campaign needs all {total}, {} per point",
                tallies.trials(),
                self.plan.seeds_per_point
            )));
        }
        Ok(self.aggregate_report(tallies))
    }

    /// Executes trials `start .. end` of the plan-ordered trial list as one
    /// run on the persistent rayon pool and returns the tallies of every
    /// trial it ran.
    ///
    /// Tasks (one point's consecutive trials, up to the backend's width)
    /// are cut lazily and claimed one at a time by the calling thread and
    /// up to `current_num_threads() - 1` pool helpers, at most
    /// [`MAX_TASKS_IN_FLIGHT`] ahead of the contiguous completed prefix.
    /// The calling thread also collects: between its own tasks it hands
    /// `observer` the tallies of the prefix trials completed since the
    /// previous checkpoint, once the prefix has advanced and
    /// `checkpoint_every` has passed since the previous checkpoint, and
    /// always when the prefix reaches `end`. Progress counts the prefix
    /// against `end - start`. An empty range emits no checkpoint.
    ///
    /// A cancel takes effect at the checkpoint that returns it: no further
    /// task is claimed, tasks already running finish and are discarded.
    fn execute(
        &self,
        backend: &dyn ExecutionBackend,
        checkpoint_every: Duration,
        start: u64,
        end: u64,
        observer: &mut dyn FnMut(ChunkCheckpoint<'_>) -> CampaignControl,
    ) -> Result<Tallies, SweepError> {
        let pipeline = Pipeline {
            state: Mutex::new(PipelineState {
                cursor: start,
                end,
                next_seq: 0,
                prefix_seq: 0,
                finished: BTreeMap::new(),
                prefix_trials: 0,
                segment: Tallies::new(),
                stopped: false,
            }),
            advanced: Condvar::new(),
        };
        let seeds_per_point = self.plan.seeds_per_point;
        let campaign_seed = self.plan.campaign_seed;
        let points = &self.points;
        let telemetry = &self.telemetry;
        let run_task = |arena: &mut TrialArena, seq: u64, task: TrialTask| {
            let guard = StopOnUnwind(&pipeline);
            let tally = backend.run_task(
                &points[task.point],
                campaign_seed,
                task.point as u64,
                task.first,
                task.count as usize,
                arena,
            );
            drop(guard);
            // Fold this participant's phase timings into the shared sink
            // per task, so live metrics trail the run by one task.
            arena.flush_telemetry();
            if pipeline.lock().finish(seq, task, tally) {
                pipeline.advanced.notify_all();
            }
        };
        let helper = || {
            let mut arena = TrialArena::with_telemetry(telemetry);
            let mut state = pipeline.lock();
            loop {
                match state.claim(backend, points, seeds_per_point) {
                    Ok((seq, task)) => {
                        drop(state);
                        run_task(&mut arena, seq, task);
                        state = pipeline.lock();
                    }
                    Err(Idle::Exhausted) => return,
                    Err(Idle::WindowFull) => {
                        state = pipeline
                            .advanced
                            .wait(state)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        };
        let helpers = rayon::current_num_threads()
            .min(usize::try_from(end - start).unwrap_or(usize::MAX))
            .saturating_sub(1);
        rayon::in_place_scope(|scope| {
            for _ in 0..helpers {
                scope.spawn(|_| helper());
            }
            let mut arena = TrialArena::with_telemetry(telemetry);
            let mut tallies = Tallies::new();
            let mut last_checkpoint = Instant::now();
            let mut reported = 0u64;
            loop {
                let mut state = pipeline.lock();
                if state.stopped {
                    // A task panicked; the scope re-raises it.
                    return Err(SweepError::Cancelled);
                }
                let complete = state.prefix_trials == end - start;
                let waited = last_checkpoint.elapsed();
                if state.prefix_trials > reported && (complete || waited >= checkpoint_every) {
                    let segment = std::mem::take(&mut state.segment);
                    reported = state.prefix_trials;
                    drop(state);
                    let control = observer(ChunkCheckpoint {
                        progress: CampaignProgress {
                            trials_done: reported,
                            trials_total: end - start,
                        },
                        new_tallies: &segment,
                    });
                    last_checkpoint = Instant::now();
                    if control == CampaignControl::Cancel {
                        pipeline.stop();
                        return Err(SweepError::Cancelled);
                    }
                    tallies.merge(&segment);
                    continue;
                }
                if complete {
                    return Ok(tallies);
                }
                match state.claim(backend, points, seeds_per_point) {
                    Ok((seq, task)) => {
                        drop(state);
                        run_task(&mut arena, seq, task);
                    }
                    // Helpers hold the remaining tasks: wake on the next
                    // prefix advance, or when a pending checkpoint falls due.
                    Err(_) if state.prefix_trials > reported => {
                        let due = checkpoint_every.saturating_sub(waited);
                        drop(
                            pipeline
                                .advanced
                                .wait_timeout(state, due)
                                .unwrap_or_else(PoisonError::into_inner),
                        );
                    }
                    Err(_) => drop(
                        pipeline
                            .advanced
                            .wait(state)
                            .unwrap_or_else(PoisonError::into_inner),
                    ),
                }
            }
        })
    }

    /// Aggregates tallies covering every trial of the campaign, per point
    /// in plan order, into the final report.
    fn aggregate_report(&self, tallies: &Tallies) -> SweepReport {
        let agg_span = self.telemetry.span_start();
        let summaries: Vec<PointSummary> = self
            .points
            .iter()
            .enumerate()
            .map(|(pi, ctx)| {
                let tally = tallies.get(pi).copied().unwrap_or_default();
                let mut summary = PointSummary::aggregate(ctx, &tally);
                if self.plan.estimator == EstimatorMode::Stratified {
                    // In stratified mode the raw counters describe the
                    // conditional stratum; the unbiased unconditional rates
                    // (and their Wilson intervals) are computed here from
                    // the analytic reweighting factor. Unconditioned points
                    // carry the plain-MC estimate with `stratified: false`.
                    let executed = summary.trials.saturating_sub(summary.exec_errors);
                    summary.estimator = Some(EstimatorSummary::from_counts(
                        ctx.conditioned,
                        ctx.clean.as_ref().map_or(0, |c| c.decisions),
                        ctx.fault_probability(),
                        executed,
                        summary.failed_trials,
                        summary.silent_failures,
                    ));
                }
                summary
            })
            .collect();
        self.telemetry.span_end(Phase::Aggregation, agg_span);

        SweepReport::new(&self.plan, summaries, self.schedules_used)
    }
}

/// Splits `[0, trials_total)` into at most `shards` contiguous, non-empty
/// ranges as evenly as possible (earlier ranges get the remainder). The
/// coordinator's scatter geometry: the ranges partition the plan-ordered
/// trial list, and shard tallies merge in any order, so the merged report
/// is byte-identical to a single-node run.
///
/// Returns fewer than `shards` ranges when the campaign has fewer trials
/// than shards, and no ranges for an empty campaign. `shards == 0` is
/// treated as 1.
#[must_use]
pub fn shard_ranges(trials_total: u64, shards: usize) -> Vec<(u64, u64)> {
    let shards = (shards.max(1) as u64).min(trials_total);
    let mut ranges = Vec::with_capacity(shards as usize);
    if shards == 0 {
        return ranges;
    }
    let base = trials_total / shards;
    let rem = trials_total % shards;
    let mut start = 0u64;
    for i in 0..shards {
        let len = base + u64::from(i < rem);
        ranges.push((start, start + len));
        start += len;
    }
    debug_assert_eq!(start, trials_total);
    ranges
}

/// Runs a full campaign: compiles each point's schedule once (shared via
/// a fresh [`ScheduleCache`]), fans the trials out on the rayon pool, and
/// aggregates per-point tallies into a deterministic [`SweepReport`].
///
/// Long-running callers (the `nvpim-service` daemon) should instead call
/// [`prepare_campaign`] with a shared cache and
/// [`PreparedCampaign::run_shard`] for checkpoints, progress,
/// cancellation and resume; this convenience wrapper is the one-shot path
/// and produces byte-identical reports.
///
/// # Errors
///
/// Plan-validation and schedule-compilation failures; individual trial
/// execution errors are *recorded* in the report rather than failing the
/// campaign.
pub fn run_campaign(plan: &SweepPlan) -> Result<SweepReport, SweepError> {
    run_campaign_on(plan, &SlicedBackend)
}

/// [`run_campaign`] on an explicit backend — how the equivalence suites run
/// the [`ScalarBackend`] oracle. Any backend honouring the
/// [`ExecutionBackend`] contract yields the same bytes as [`run_campaign`].
///
/// # Errors
///
/// As [`run_campaign`].
pub fn run_campaign_on(
    plan: &SweepPlan,
    backend: &dyn ExecutionBackend,
) -> Result<SweepReport, SweepError> {
    let mut cache = ScheduleCache::new();
    prepare_campaign(plan, &mut cache)?.run_whole(backend)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvpim_sim::technology::Technology;

    #[test]
    fn trial_seeds_are_stable_and_coordinate_sensitive() {
        assert_eq!(derive_trial_seed(1, 2, 3), derive_trial_seed(1, 2, 3));
        assert_ne!(derive_trial_seed(1, 2, 3), derive_trial_seed(1, 2, 4));
        assert_ne!(derive_trial_seed(1, 2, 3), derive_trial_seed(1, 3, 3));
        assert_ne!(derive_trial_seed(1, 2, 3), derive_trial_seed(2, 2, 3));
    }

    #[test]
    fn schedule_cache_shares_compilations_across_technologies() {
        let workload = SweepWorkload::Mac {
            acc_bits: 8,
            mul_bits: 4,
        };
        let mut cache = ScheduleCache::new();
        let off = Telemetry::disabled();
        let a = cache
            .get_or_compile(
                workload,
                CampaignKind::Error,
                &ProtectionConfig::ECIM.design_config(Technology::SttMram),
                &off,
            )
            .unwrap();
        let b = cache
            .get_or_compile(
                workload,
                CampaignKind::Error,
                &ProtectionConfig::ECIM.design_config(Technology::ReRam),
                &off,
            )
            .unwrap();
        // Same layout → the exact same Arc, not a recompilation.
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
        // A different layout compiles a second schedule.
        let c = cache
            .get_or_compile(
                workload,
                CampaignKind::Error,
                &ProtectionConfig::TRIM.design_config(Technology::SttMram),
                &off,
            )
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn exec_error_trials_cannot_masquerade_as_success() {
        // A point whose trials all fail to execute must not report a
        // perfect output_error_rate — the rate's denominator counts only
        // executed trials, and exec_errors stays visible.
        let workload = SweepWorkload::Mac {
            acc_bits: 8,
            mul_bits: 4,
        };
        let protection = ProtectionConfig::ECIM;
        let config = protection.design_config(Technology::SttMram);
        let kernel = ScheduleCache::new()
            .get_or_compile(
                workload,
                CampaignKind::Error,
                &config,
                &Telemetry::disabled(),
            )
            .unwrap();
        let ctx = PointContext::new(workload, protection, config, kernel);
        let broken = TrialOutcome {
            faults_injected: 0,
            checks: 0,
            errors_detected: 0,
            corrections_written_back: 0,
            uncorrectable: 0,
            wrong_output_bits: 0,
            exec_error: Some("array too small".into()),
            correct: None,
        };
        let failed = TrialOutcome {
            wrong_output_bits: 2,
            exec_error: None,
            ..broken.clone()
        };

        // All trials broken: rate 0.0 but exec_errors == trials.
        let all_broken = PointSummary::aggregate(
            &ctx,
            &PointTally::from_outcomes(&[broken.clone(), broken.clone()]),
        );
        assert_eq!(all_broken.exec_errors, 2);
        assert_eq!(all_broken.failed_trials, 0);
        assert_eq!(all_broken.output_error_rate, 0.0);

        // Mixed: one executed-and-failed trial out of one executed trial
        // gives rate 1.0, not 1/3.
        let mixed = PointSummary::aggregate(
            &ctx,
            &PointTally::from_outcomes(&[broken.clone(), broken, failed]),
        );
        assert_eq!(mixed.exec_errors, 2);
        assert_eq!(mixed.failed_trials, 1);
        assert!((mixed.output_error_rate - 1.0).abs() < f64::EPSILON);
    }

    /// Cadences every run must be byte-identical under: a checkpoint on
    /// every prefix advance, the daemon default, and only the final one.
    const CADENCES: [Duration; 3] = [
        Duration::ZERO,
        Duration::from_millis(250),
        Duration::from_millis(u64::MAX),
    ];

    #[test]
    fn checkpoints_are_contiguous_prefix_segments_at_any_cadence() {
        let mut plan = SweepPlan::quick();
        plan.seeds_per_point = 70; // ragged 64-lane tasks
        let baseline = run_campaign(&plan).unwrap().to_json();
        let mut cache = ScheduleCache::new();
        let prepared = prepare_campaign(&plan, &mut cache).unwrap();
        let total = prepared.trial_count();
        for backend in [&ScalarBackend as &dyn ExecutionBackend, &SlicedBackend] {
            for cadence in CADENCES {
                let mut done = 0u64;
                let mut events = 0u64;
                let tallies = prepared
                    .run_shard(backend, 0, total, cadence, |cp| {
                        // Each checkpoint extends the previous one's prefix
                        // by exactly the trials it carries.
                        assert!(cp.progress.trials_done > done, "{cadence:?}");
                        assert_eq!(cp.progress.trials_total, total);
                        assert!(
                            cp.new_tallies.covers_range(
                                done,
                                cp.progress.trials_done,
                                plan.seeds_per_point
                            ),
                            "{cadence:?}: segment {done}..{} is not contiguous",
                            cp.progress.trials_done
                        );
                        done = cp.progress.trials_done;
                        events += 1;
                        CampaignControl::Continue
                    })
                    .unwrap();
                assert_eq!(done, total, "the last checkpoint carries the whole range");
                let report = prepared.report_from_tallies(&tallies).unwrap();
                assert_eq!(report.to_json(), baseline, "{backend:?} at {cadence:?}");
                if cadence == Duration::from_millis(u64::MAX) {
                    assert_eq!(events, 1, "only the final checkpoint");
                }
            }
        }
    }

    #[test]
    fn shard_ranges_partition_the_trial_list() {
        assert_eq!(shard_ranges(10, 3), vec![(0, 4), (4, 7), (7, 10)]);
        assert_eq!(shard_ranges(2, 5), vec![(0, 1), (1, 2)]);
        assert_eq!(shard_ranges(0, 3), Vec::<(u64, u64)>::new());
        assert_eq!(shard_ranges(7, 0), vec![(0, 7)]);
        for (total, shards) in [(1u64, 1usize), (64, 3), (1000, 16), (5, 5)] {
            let ranges = shard_ranges(total, shards);
            assert!(ranges.len() <= shards.max(1));
            let mut next = 0u64;
            for &(s, e) in &ranges {
                assert_eq!(s, next);
                assert!(e > s, "ranges are non-empty");
                next = e;
            }
            assert_eq!(next, total);
        }
    }

    #[test]
    fn sharded_tallies_merge_byte_identically() {
        // Scatter/gather over any shard geometry must aggregate into the
        // same bytes as a one-shot run, merged in any order.
        let mut plan = SweepPlan::quick();
        plan.seeds_per_point = 5;
        let baseline = run_campaign(&plan).unwrap().to_json();
        let mut cache = ScheduleCache::new();
        let prepared = prepare_campaign(&plan, &mut cache).unwrap();
        let backend = &SlicedBackend;
        for shards in [1usize, 2, 3, 7] {
            let mut merged = Tallies::new();
            for (start, end) in shard_ranges(prepared.trial_count(), shards)
                .into_iter()
                .rev()
            {
                let shard = prepared
                    .run_shard(backend, start, end, Duration::ZERO, |_| {
                        CampaignControl::Continue
                    })
                    .unwrap();
                assert!(shard.covers_range(start, end, plan.seeds_per_point));
                merged.merge(&shard);
            }
            let report = prepared.report_from_tallies(&merged).unwrap();
            assert_eq!(report.to_json(), baseline, "{shards} shards");
        }
    }

    #[test]
    fn shard_resume_skips_checkpointed_prefix() {
        let plan = SweepPlan::quick();
        let mut cache = ScheduleCache::new();
        let prepared = prepare_campaign(&plan, &mut cache).unwrap();
        let backend = &SlicedBackend;
        let total = prepared.trial_count();
        let (start, end) = (total / 4, 3 * total / 4);

        // First pass: keep the first checkpoint's tallies, then die.
        let mut checkpointed = Tallies::new();
        let mut done = 0;
        let err = prepared
            .run_shard(backend, start, end, Duration::ZERO, |cp| {
                checkpointed.merge(cp.new_tallies);
                done = cp.progress.trials_done;
                CampaignControl::Cancel
            })
            .unwrap_err();
        assert_eq!(err, SweepError::Cancelled);
        assert_eq!(checkpointed.trials(), done);
        assert!(checkpointed.covers_range(start, start + done, plan.seeds_per_point));

        // Second pass runs only the rest of the range; merged with the
        // checkpoint it equals a clean one-pass shard.
        let mut rest = prepared
            .run_shard(backend, start + done, end, Duration::ZERO, |cp| {
                assert_eq!(cp.progress.trials_total, end - start - done);
                CampaignControl::Continue
            })
            .unwrap();
        rest.merge(&checkpointed);
        let clean = prepared
            .run_shard(backend, start, end, Duration::MAX, |_| {
                CampaignControl::Continue
            })
            .unwrap();
        assert_eq!(rest, clean);

        // Range and merge validation.
        assert!(matches!(
            prepared.run_shard(backend, 5, 4, Duration::ZERO, |_| CampaignControl::Continue),
            Err(SweepError::BadCheckpoint(_))
        ));
        assert!(matches!(
            prepared.run_shard(backend, 0, total + 1, Duration::ZERO, |_| {
                CampaignControl::Continue
            }),
            Err(SweepError::BadCheckpoint(_))
        ));
        assert!(matches!(
            prepared.report_from_tallies(&clean),
            Err(SweepError::BadCheckpoint(_))
        ));
    }

    /// Peak resident set size of this process, in kB.
    fn peak_rss_kb() -> u64 {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|status| {
                status
                    .lines()
                    .find_map(|line| line.strip_prefix("VmHWM:"))
                    .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
            })
            .unwrap_or(0)
    }

    #[test]
    fn a_billion_trial_campaign_starts_in_bounded_memory() {
        // Nothing the engine keeps grows with the trial count: cancelling
        // after a few checkpoints costs a few in-flight windows, not a
        // per-trial list.
        let mut plan = SweepPlan::quick();
        plan.seeds_per_point = 1_000_000_000 / plan.point_count() as u64;
        let mut cache = ScheduleCache::new();
        let prepared = prepare_campaign(&plan, &mut cache).unwrap();
        for resume in [Tallies::new(), {
            let mut prefix = Tallies::new();
            prefix.merge(
                &prepared
                    .run_shard(&SlicedBackend, 0, 64, Duration::ZERO, |_| {
                        CampaignControl::Continue
                    })
                    .unwrap(),
            );
            prefix
        }] {
            let mut chunks = 0;
            let err = prepared
                .run_shard(
                    &SlicedBackend,
                    resume.trials(),
                    prepared.trial_count(),
                    Duration::ZERO,
                    |cp| {
                        chunks += 1;
                        assert!(cp.new_tallies.iter().count() <= 2);
                        if chunks == 3 {
                            CampaignControl::Cancel
                        } else {
                            CampaignControl::Continue
                        }
                    },
                )
                .unwrap_err();
            assert_eq!(err, SweepError::Cancelled);
        }
        let peak_mb = peak_rss_kb() / 1024;
        assert!(peak_mb < 512, "peak RSS {peak_mb} MB");
    }

    #[test]
    fn observer_cancellation_aborts_between_chunks() {
        let plan = SweepPlan::quick();
        let mut cache = ScheduleCache::new();
        let prepared = prepare_campaign(&plan, &mut cache).unwrap();
        let mut seen = Vec::new();
        // Cancel at the first checkpoint: every non-empty run emits one,
        // while a second exists only if the caller collects before the
        // helpers finish the run.
        let err = prepared
            .run_shard(
                &ScalarBackend,
                0,
                prepared.trial_count(),
                Duration::ZERO,
                |cp| {
                    seen.push(cp.progress.trials_done);
                    CampaignControl::Cancel
                },
            )
            .unwrap_err();
        assert_eq!(err, SweepError::Cancelled);
        // No checkpoint follows the one that cancelled.
        assert_eq!(seen.len(), 1, "{seen:?}");
    }

    #[test]
    fn warm_cache_preparation_compiles_nothing_and_reports_identically() {
        let plan = SweepPlan::quick();
        let mut cache = ScheduleCache::new();
        let telemetry = Telemetry::new();
        let lookups = |t: &Telemetry| {
            let snap = t.snapshot();
            (
                snap.counter(TelemetryCounter::ScheduleCompiles),
                snap.counter(TelemetryCounter::ScheduleCacheHits),
            )
        };
        let cold = prepare_campaign_with_telemetry(&plan, &mut cache, telemetry.clone()).unwrap();
        let (compiles_after_cold, hits_after_cold) = lookups(&telemetry);
        assert!(compiles_after_cold > 0);
        assert_eq!(hits_after_cold + compiles_after_cold, 3); // one lookup per (wl, tech, prot)

        let warm = prepare_campaign_with_telemetry(&plan, &mut cache, telemetry.clone()).unwrap();
        let (compiles, hits) = lookups(&telemetry);
        assert_eq!(compiles, compiles_after_cold, "no recompilation");
        assert_eq!(hits, hits_after_cold + 3);
        // `schedules_compiled` in the report reflects schedules *used*, so
        // warm and cold runs emit byte-identical JSON.
        assert_eq!(cold.run().unwrap().to_json(), warm.run().unwrap().to_json());
    }

    #[test]
    fn accuracy_kernels_compile_once_per_cache_not_per_campaign() {
        let mut cache = ScheduleCache::new();
        let telemetry = Telemetry::new();
        let mut plan = SweepPlan::accuracy_quick();
        plan.seeds_per_point = 1;
        let first = prepare_campaign_with_telemetry(&plan, &mut cache, telemetry.clone()).unwrap();
        let compiles = telemetry
            .snapshot()
            .counter(TelemetryCounter::ScheduleCompiles);
        assert!(compiles > 0);
        plan.campaign_seed ^= 1;
        let second = prepare_campaign_with_telemetry(&plan, &mut cache, telemetry.clone()).unwrap();
        assert_eq!(
            telemetry
                .snapshot()
                .counter(TelemetryCounter::ScheduleCompiles),
            compiles,
            "a second accuracy campaign reuses the cached kernels"
        );
        // Schedules used stay a per-campaign figure.
        assert_eq!(first.schedules_used, second.schedules_used);
        // The error-campaign kernel of the same workload is a separate entry.
        let entries = cache.len();
        plan.kind = CampaignKind::Error;
        prepare_campaign(&plan, &mut cache).unwrap();
        assert!(cache.len() > entries);
    }

    #[test]
    fn campaign_reports_protection_efficacy() {
        // At a demanding error rate the unprotected baseline must fail
        // trials while ECiM/TRiM keep the output intact far more often.
        let mut plan = SweepPlan::quick();
        plan.gate_error_rates = vec![1e-3];
        plan.seeds_per_point = 16;
        let report = run_campaign(&plan).unwrap();
        assert_eq!(report.points.len(), 3);
        let by_label = |label: &str| {
            report
                .points
                .iter()
                .find(|p| p.protection == label)
                .unwrap_or_else(|| panic!("missing point {label}"))
                .clone()
        };
        let unprotected = by_label("unprotected/m-o");
        let ecim = by_label("ECiM/m-o");
        let trim = by_label("TRiM/m-o");
        assert!(
            unprotected.failed_trials > 0,
            "unprotected baseline should corrupt some trials"
        );
        assert!(ecim.errors_detected > 0, "ECiM should detect faults");
        assert!(trim.errors_detected > 0, "TRiM should detect faults");
        assert!(ecim.failed_trials < unprotected.failed_trials);
        assert!(trim.failed_trials < unprotected.failed_trials);
        assert_eq!(report.total_trials, 48);
        // Three distinct layouts (unprotected, ECiM metadata, TRiM copies).
        assert_eq!(report.schedules_compiled, 3);
    }
}
