//! Campaign results: per-trial outcomes, mergeable per-point tallies,
//! per-point aggregates and the serializable [`SweepReport`].

use serde::{Serialize, Value};

use crate::engine::PointContext;
use crate::plan::{CampaignKind, EstimatorMode, SweepPlan};

/// Raw counters from one Monte Carlo trial. The default is a trial that
/// injected, checked and corrected nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrialOutcome {
    /// Faults the injector actually fired during the trial.
    pub faults_injected: u64,
    /// Checker invocations.
    pub checks: u64,
    /// Checks that detected an error.
    pub errors_detected: u64,
    /// Data bits corrected and written back.
    pub corrections_written_back: u64,
    /// Checks whose error pattern exceeded the correction capability.
    pub uncorrectable: u64,
    /// Final output bits differing from the fault-free reference.
    pub wrong_output_bits: u64,
    /// Execution error, if the trial failed to run at all.
    pub exec_error: Option<String>,
    /// Accuracy-campaign verdict: whether the trial's faulty top-1
    /// prediction matched the clean model's prediction for the same image.
    /// `None` for error-campaign trials.
    pub correct: Option<bool>,
}

impl TrialOutcome {
    /// A trial that failed to execute: zeroed counters, the `faults` fired
    /// before the failure and no prediction.
    pub fn exec_failed(faults: u64, message: String) -> Self {
        Self {
            faults_injected: faults,
            exec_error: Some(message),
            ..Self::default()
        }
    }

    /// Whether the final output was wrong (a failed trial).
    pub fn failed(&self) -> bool {
        self.wrong_output_bits > 0
    }

    /// A *silent* failure: wrong output with no uncorrectable flag — the
    /// scheme believed the computation was fine (or corrected), yet the
    /// result is corrupt. This is the error class SEP exists to eliminate.
    pub fn silent_failure(&self) -> bool {
        self.failed() && self.uncorrectable == 0
    }
}

/// Integer sums over a set of trials of one point: everything
/// [`PointSummary`] is derived from.
///
/// Tallies are mergeable and commutative: the tally of two disjoint trial
/// sets is the sum of their tallies, in any order. That makes a tally
/// (plus a trial cursor) a complete checkpoint — chunk observers, journal
/// records, shard streams and the fleet merge all carry tallies, never
/// per-trial outcomes, so their size does not grow with the trial count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PointTally {
    /// Trials tallied.
    pub trials: u64,
    /// Faults the injector fired, over all trials.
    pub faults_injected: u64,
    /// Checker invocations.
    pub checks: u64,
    /// Checks that detected an error.
    pub errors_detected: u64,
    /// Corrections written back to the array.
    pub corrections_written_back: u64,
    /// Checks flagged uncorrectable.
    pub uncorrectable_checks: u64,
    /// Executed trials whose final output was wrong.
    pub failed_trials: u64,
    /// Failed trials that raised no uncorrectable flag.
    pub silent_failures: u64,
    /// Wrong output bits over the executed trials.
    pub wrong_output_bits: u64,
    /// Trials that could not execute at all.
    pub exec_errors: u64,
    /// Accuracy trials whose prediction matched the clean model's.
    pub correct_trials: u64,
    /// Accuracy trials that executed and produced a prediction.
    pub evaluated_trials: u64,
}

impl PointTally {
    /// Counter names in encoding order (the journal and wire keys).
    const NAMES: [&'static str; 12] = [
        "trials",
        "faults_injected",
        "checks",
        "errors_detected",
        "corrections_written_back",
        "uncorrectable_checks",
        "failed_trials",
        "silent_failures",
        "wrong_output_bits",
        "exec_errors",
        "correct_trials",
        "evaluated_trials",
    ];

    fn counters(&self) -> [u64; 12] {
        [
            self.trials,
            self.faults_injected,
            self.checks,
            self.errors_detected,
            self.corrections_written_back,
            self.uncorrectable_checks,
            self.failed_trials,
            self.silent_failures,
            self.wrong_output_bits,
            self.exec_errors,
            self.correct_trials,
            self.evaluated_trials,
        ]
    }

    fn counters_mut(&mut self) -> [&mut u64; 12] {
        [
            &mut self.trials,
            &mut self.faults_injected,
            &mut self.checks,
            &mut self.errors_detected,
            &mut self.corrections_written_back,
            &mut self.uncorrectable_checks,
            &mut self.failed_trials,
            &mut self.silent_failures,
            &mut self.wrong_output_bits,
            &mut self.exec_errors,
            &mut self.correct_trials,
            &mut self.evaluated_trials,
        ]
    }

    /// The tally of `outcomes`.
    pub fn from_outcomes(outcomes: &[TrialOutcome]) -> Self {
        let mut tally = Self::default();
        for outcome in outcomes {
            tally.record(outcome);
        }
        tally
    }

    /// Adds one trial's outcome.
    pub fn record(&mut self, o: &TrialOutcome) {
        self.trials += 1;
        self.faults_injected += o.faults_injected;
        self.checks += o.checks;
        self.errors_detected += o.errors_detected;
        self.corrections_written_back += o.corrections_written_back;
        self.uncorrectable_checks += o.uncorrectable;
        if o.exec_error.is_some() {
            // An exec-errored trial is excluded from `output_error_rate`'s
            // denominator, so its half-executed output must not feed the
            // numerator's failure counters either — otherwise one broken
            // trial inflates a rate whose denominator disowned it.
            self.exec_errors += 1;
            return;
        }
        self.wrong_output_bits += o.wrong_output_bits;
        self.failed_trials += u64::from(o.failed());
        self.silent_failures += u64::from(o.silent_failure());
        if let Some(correct) = o.correct {
            self.evaluated_trials += 1;
            self.correct_trials += u64::from(correct);
        }
    }

    /// Adds another tally of a disjoint trial set. Saturates rather than
    /// overflows: tallies also arrive from journals and the wire.
    pub fn merge(&mut self, other: &PointTally) {
        for (mine, theirs) in self.counters_mut().into_iter().zip(other.counters()) {
            *mine = mine.saturating_add(theirs);
        }
    }

    /// Whether the counters could come from real trials: every trial is
    /// executed or errored, and each subset stays inside its superset.
    fn is_consistent(&self) -> bool {
        let executed = self.trials.checked_sub(self.exec_errors);
        executed.is_some_and(|executed| {
            self.failed_trials <= executed
                && self.silent_failures <= self.failed_trials
                && self.evaluated_trials <= executed
                && self.correct_trials <= self.evaluated_trials
        })
    }
}

/// Per-point tallies of a set of trials, keyed by point index: the one
/// checkpoint currency of the engine, the journal, the shard wire and the
/// fleet merge.
///
/// A checkpoint of a contiguous run of the plan-ordered trial list is its
/// tallies alone — the trial cursor is [`Self::trials`] past the run's
/// start, and [`Self::covers_range`] checks the tallies against the exact
/// per-point trial counts the run must have.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tallies {
    /// `(point index, tally)`, sorted by point index, one entry per point.
    points: Vec<(usize, PointTally)>,
}

impl Tallies {
    /// No trials.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trials tallied across all points.
    pub fn trials(&self) -> u64 {
        self.points
            .iter()
            .fold(0, |sum, (_, t)| sum.saturating_add(t.trials))
    }

    /// Whether no trial has been tallied.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The tally of point `point`, if any of its trials were tallied.
    pub fn get(&self, point: usize) -> Option<&PointTally> {
        self.points
            .binary_search_by_key(&point, |&(p, _)| p)
            .ok()
            .map(|i| &self.points[i].1)
    }

    /// `(point index, tally)` pairs in point order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &PointTally)> {
        self.points.iter().map(|(p, t)| (*p, t))
    }

    /// Merges `tally` into point `point`'s entry.
    pub fn add(&mut self, point: usize, tally: &PointTally) {
        match self.points.binary_search_by_key(&point, |&(p, _)| p) {
            Ok(i) => self.points[i].1.merge(tally),
            Err(i) => self.points.insert(i, (point, *tally)),
        }
    }

    /// Merges every entry of `other` (tallies of a disjoint trial set).
    pub fn merge(&mut self, other: &Tallies) {
        for (point, tally) in other.iter() {
            self.add(point, tally);
        }
    }

    /// The sum over all points.
    pub fn total(&self) -> PointTally {
        let mut total = PointTally::default();
        for (_, tally) in self.iter() {
            total.merge(tally);
        }
        total
    }

    /// Whether these tallies hold exactly the trials of the plan-ordered
    /// range `start .. end` of a campaign with `seeds_per_point` trials per
    /// point: one entry per point the range touches, each with that
    /// point's trial count in the range, and nothing else.
    pub fn covers_range(&self, start: u64, end: u64, seeds_per_point: u64) -> bool {
        if start > end {
            return false;
        }
        let mut expected = crate::engine::point_spans(start, end, seeds_per_point);
        let mut got = self.points.iter();
        loop {
            match (expected.next(), got.next()) {
                (None, None) => return true,
                (Some((point, _, count)), Some((p, tally)))
                    if point == *p && count == tally.trials => {}
                _ => return false,
            }
        }
    }

    /// Decodes the [`Serialize`] encoding: an array of objects, each a
    /// `point` index plus every [`PointTally`] counter, in strictly
    /// increasing point order (the order [`Serialize`] writes), so decoding
    /// runs in time linear in the entry count.
    ///
    /// # Errors
    ///
    /// A description naming the malformed entry or field, an entry out of
    /// point order or repeating a point, or an entry whose counters no set
    /// of trials could produce (more failures than executed trials, say).
    pub fn from_json_value(value: &Value) -> Result<Self, String> {
        let entries = value.as_array().ok_or("tallies must be an array")?;
        let mut tallies = Tallies::new();
        for entry in entries {
            let num = |key: &str| {
                entry
                    .get(key)
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("tally field `{key}` must be a non-negative integer"))
            };
            let point = usize::try_from(num("point")?)
                .map_err(|_| "tally field `point` is out of range".to_string())?;
            let mut tally = PointTally::default();
            for (slot, name) in tally.counters_mut().into_iter().zip(PointTally::NAMES) {
                *slot = num(name)?;
            }
            if !tally.is_consistent() {
                return Err(format!("tally of point {point} is inconsistent"));
            }
            if let Some(&(previous, _)) = tallies.points.last() {
                if point <= previous {
                    return Err(format!(
                        "tally of point {point} follows point {previous}: points must strictly increase"
                    ));
                }
            }
            tallies.points.push((point, tally));
        }
        Ok(tallies)
    }
}

impl Serialize for Tallies {
    fn to_json(&self) -> Value {
        Value::Array(
            self.iter()
                .map(|(point, tally)| {
                    let mut fields = vec![("point".to_string(), Value::UInt(point as u64))];
                    fields.extend(
                        PointTally::NAMES
                            .iter()
                            .zip(tally.counters())
                            .map(|(name, n)| (name.to_string(), Value::UInt(n))),
                    );
                    Value::Object(fields)
                })
                .collect(),
        )
    }
}

/// Rare-event statistics for one point, present only in
/// [`EstimatorMode::Stratified`] campaigns (exact-mode report bytes are
/// unchanged).
///
/// The stratified estimator splits each trial's probability space into two
/// strata: *zero faults in the decision window* (settled analytically — the
/// captured clean profile proves the output is correct) and *at least one
/// fault* (probability [`fault_probability`], simulated conditionally). With
/// `q̂` the conditional failure fraction over [`conditional_trials`], the
/// unconditional rate is exactly `fault_probability · q̂` — unbiased because
/// the zero-fault stratum contributes zero failures by construction.
/// Confidence intervals are 95% Wilson score intervals on `q̂`, scaled by
/// the same factor.
///
/// [`fault_probability`]: Self::fault_probability
/// [`conditional_trials`]: Self::conditional_trials
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EstimatorSummary {
    /// Whether trials were actually conditioned on the fault stratum.
    /// `false` means the point fell back to plain Monte Carlo (no clean
    /// profile, zero decision window, or a degenerate rate) and the
    /// intervals below describe the unconditioned estimate
    /// (`fault_probability` is 1).
    pub stratified: bool,
    /// Gate-output fault decisions one trial makes (the decision window).
    pub decisions_per_trial: u64,
    /// Probability that at least one fault lands in the decision window
    /// (`1 − (1−p)^decisions`); the reweighting factor `P1`.
    pub fault_probability: f64,
    /// Trials simulated in the at-least-one-fault stratum.
    pub conditional_trials: u64,
    /// Plain Monte Carlo trials that would match this estimate's variance
    /// (`conditional_trials / fault_probability`).
    pub effective_trials: f64,
    /// Unbiased unconditional output-error-rate estimate.
    pub output_error_rate: f64,
    /// Lower 95% Wilson bound on the output error rate.
    pub output_error_ci_low: f64,
    /// Upper 95% Wilson bound on the output error rate.
    pub output_error_ci_high: f64,
    /// Unbiased unconditional silent-failure-rate estimate.
    pub silent_failure_rate: f64,
    /// Lower 95% Wilson bound on the silent failure rate.
    pub silent_failure_ci_low: f64,
    /// Upper 95% Wilson bound on the silent failure rate.
    pub silent_failure_ci_high: f64,
}

/// 95% Wilson score interval for `successes / n`, clamped to `[0, 1]`.
/// Returns `(0.0, 1.0)` when `n == 0` (no evidence, full uncertainty).
/// Shared by the stratified estimator's rate intervals and the accuracy
/// campaign's fidelity interval.
pub(crate) fn wilson_interval(successes: u64, n: u64) -> (f64, f64) {
    if n == 0 {
        return (0.0, 1.0);
    }
    const Z: f64 = 1.96;
    let n = n as f64;
    let q = successes as f64 / n;
    let z2 = Z * Z;
    let denom = 1.0 + z2 / n;
    let center = (q + z2 / (2.0 * n)) / denom;
    let half = Z * (q * (1.0 - q) / n + z2 / (4.0 * n * n)).sqrt() / denom;
    ((center - half).max(0.0), (center + half).min(1.0))
}

impl EstimatorSummary {
    /// Builds the summary from the conditional stratum's counters.
    /// `fault_probability` must be the analytic `P1` of the decision window
    /// when `stratified`, and `1.0` for the plain-Monte-Carlo fallback.
    pub(crate) fn from_counts(
        stratified: bool,
        decisions_per_trial: u64,
        fault_probability: f64,
        conditional_trials: u64,
        failed: u64,
        silent: u64,
    ) -> Self {
        let p1 = fault_probability;
        let n = conditional_trials;
        let (fail_lo, fail_hi) = wilson_interval(failed, n);
        let (silent_lo, silent_hi) = wilson_interval(silent, n);
        let rate = |k: u64| {
            if n == 0 {
                0.0
            } else {
                p1 * k as f64 / n as f64
            }
        };
        EstimatorSummary {
            stratified,
            decisions_per_trial,
            fault_probability: p1,
            conditional_trials: n,
            effective_trials: if p1 > 0.0 { n as f64 / p1 } else { n as f64 },
            output_error_rate: rate(failed),
            output_error_ci_low: p1 * fail_lo,
            output_error_ci_high: p1 * fail_hi,
            silent_failure_rate: rate(silent),
            silent_failure_ci_low: p1 * silent_lo,
            silent_failure_ci_high: p1 * silent_hi,
        }
    }
}

/// Task-accuracy statistics for one point, present only in
/// [`CampaignKind::Accuracy`](crate::plan::CampaignKind::Accuracy)
/// campaigns (error-campaign report bytes are unchanged).
///
/// Accuracy is measured as *top-1 fidelity*: the fraction of evaluated
/// trials whose faulty prediction matched the clean model's prediction for
/// the same image. The clean model scores 1.0 by construction, so
/// [`top1_delta`](Self::top1_delta) is the accuracy lost to faults. The
/// synthetic dataset's labels are random, so the model's agreement with
/// them ([`clean_label_accuracy`](Self::clean_label_accuracy), the cached
/// once-per-campaign clean-run baseline) contextualizes the task rather
/// than measuring learning.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AccuracySummary {
    /// Trials whose faulty prediction matched the clean prediction.
    pub correct_trials: u64,
    /// Trials that executed and produced a prediction (exec-errored trials
    /// are excluded, mirroring `output_error_rate`'s denominator).
    pub evaluated_trials: u64,
    /// Top-1 fidelity `correct_trials / evaluated_trials` (0.0 when nothing
    /// executed — check `exec_errors`).
    pub accuracy: f64,
    /// Lower 95% Wilson bound on the fidelity.
    pub accuracy_ci_low: f64,
    /// Upper 95% Wilson bound on the fidelity.
    pub accuracy_ci_high: f64,
    /// Accuracy delta against the clean baseline (fidelity − 1.0, ≤ 0).
    pub top1_delta: f64,
    /// The clean model's agreement with the synthetic labels — the
    /// once-per-campaign cached clean-run baseline constant.
    pub clean_label_accuracy: f64,
}

impl AccuracySummary {
    /// Builds the summary from the point's correct/evaluated counts.
    pub(crate) fn from_counts(
        correct_trials: u64,
        evaluated_trials: u64,
        clean_label_accuracy: f64,
    ) -> Self {
        let accuracy = if evaluated_trials == 0 {
            0.0
        } else {
            correct_trials as f64 / evaluated_trials as f64
        };
        let (ci_low, ci_high) = wilson_interval(correct_trials, evaluated_trials);
        AccuracySummary {
            correct_trials,
            evaluated_trials,
            accuracy,
            accuracy_ci_low: ci_low,
            accuracy_ci_high: ci_high,
            top1_delta: accuracy - 1.0,
            clean_label_accuracy,
        }
    }
}

/// Aggregated results of one campaign point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSummary {
    /// Workload name.
    pub workload: String,
    /// Technology label.
    pub technology: String,
    /// Protection label (e.g. `"ECiM/m-o"`).
    pub protection: String,
    /// Gate-output bit-flip probability of this point.
    pub gate_error_rate: f64,
    /// Trials run.
    pub trials: u64,
    /// Total faults injected across the trials.
    pub faults_injected: u64,
    /// Total Checker invocations.
    pub checks: u64,
    /// Checks that detected an error.
    pub errors_detected: u64,
    /// Corrections written back to the array.
    pub corrections_written_back: u64,
    /// Checks flagged uncorrectable.
    pub uncorrectable_checks: u64,
    /// Trials whose final output was wrong.
    pub failed_trials: u64,
    /// Failed trials that raised no uncorrectable flag (silent errors).
    pub silent_failures: u64,
    /// Total wrong output bits across all trials.
    pub wrong_output_bits: u64,
    /// `failed_trials / (trials − exec_errors)` — the denominator counts
    /// only trials that actually executed, so a broken point (all trials
    /// erroring) cannot masquerade as a perfect 0.0 error rate. `NaN`-free:
    /// reported as 0.0 when nothing executed (check [`Self::exec_errors`]).
    pub output_error_rate: f64,
    /// Trials that could not execute at all. Always inspect alongside
    /// [`Self::output_error_rate`]: a nonzero value means the point's
    /// statistics rest on fewer trials than planned.
    pub exec_errors: u64,
    /// Analytic per-row execution time estimate (ns) from the system model.
    pub est_time_ns: f64,
    /// Analytic per-row energy estimate (fJ) from the system model.
    pub est_energy_fj: f64,
    /// Rare-event estimator statistics — `Some` only in
    /// [`EstimatorMode::Stratified`] campaigns. In stratified mode the raw
    /// counters above describe the *conditional* stratum (every simulated
    /// trial had ≥ 1 fault forced into its window); the unbiased
    /// unconditional rates live here.
    pub estimator: Option<EstimatorSummary>,
    /// Task-accuracy statistics — `Some` only in accuracy campaigns, where
    /// every trial classifies one image and the counters above additionally
    /// describe the per-neuron row programs.
    pub accuracy: Option<AccuracySummary>,
}

// Hand-rolled so the `estimator` key is *omitted* (not `null`) when absent:
// exact-mode reports stay byte-identical to schema version 1. Field order
// must mirror declaration order exactly (what `derive(Serialize)` emitted
// before this field existed).
impl Serialize for PointSummary {
    fn to_json(&self) -> Value {
        let mut fields = vec![
            ("workload".to_string(), self.workload.to_json()),
            ("technology".to_string(), self.technology.to_json()),
            ("protection".to_string(), self.protection.to_json()),
            (
                "gate_error_rate".to_string(),
                self.gate_error_rate.to_json(),
            ),
            ("trials".to_string(), self.trials.to_json()),
            (
                "faults_injected".to_string(),
                self.faults_injected.to_json(),
            ),
            ("checks".to_string(), self.checks.to_json()),
            (
                "errors_detected".to_string(),
                self.errors_detected.to_json(),
            ),
            (
                "corrections_written_back".to_string(),
                self.corrections_written_back.to_json(),
            ),
            (
                "uncorrectable_checks".to_string(),
                self.uncorrectable_checks.to_json(),
            ),
            ("failed_trials".to_string(), self.failed_trials.to_json()),
            (
                "silent_failures".to_string(),
                self.silent_failures.to_json(),
            ),
            (
                "wrong_output_bits".to_string(),
                self.wrong_output_bits.to_json(),
            ),
            (
                "output_error_rate".to_string(),
                self.output_error_rate.to_json(),
            ),
            ("exec_errors".to_string(), self.exec_errors.to_json()),
            ("est_time_ns".to_string(), self.est_time_ns.to_json()),
            ("est_energy_fj".to_string(), self.est_energy_fj.to_json()),
        ];
        if let Some(est) = &self.estimator {
            fields.push(("estimator".to_string(), est.to_json()));
        }
        if let Some(acc) = &self.accuracy {
            fields.push(("accuracy".to_string(), acc.to_json()));
        }
        Value::Object(fields)
    }
}

impl PointSummary {
    /// Builds a point's summary from the tally of all its trials.
    pub(crate) fn aggregate(ctx: &PointContext, tally: &PointTally) -> Self {
        let executed = tally.trials.saturating_sub(tally.exec_errors);
        PointSummary {
            // Labels were formatted exactly once at preparation time (from
            // the scheme runtime's `&'static str` name); report assembly
            // only clones the cached strings.
            workload: ctx.workload_name.clone(),
            technology: ctx.technology_label.clone(),
            protection: ctx.protection_label.clone(),
            gate_error_rate: ctx.gate_error_rate,
            trials: tally.trials,
            faults_injected: tally.faults_injected,
            checks: tally.checks,
            errors_detected: tally.errors_detected,
            corrections_written_back: tally.corrections_written_back,
            uncorrectable_checks: tally.uncorrectable_checks,
            failed_trials: tally.failed_trials,
            silent_failures: tally.silent_failures,
            wrong_output_bits: tally.wrong_output_bits,
            output_error_rate: if executed > 0 {
                tally.failed_trials as f64 / executed as f64
            } else {
                0.0
            },
            exec_errors: tally.exec_errors,
            est_time_ns: ctx.est_time_ns,
            est_energy_fj: ctx.est_energy_fj,
            estimator: None,
            accuracy: ctx.accuracy_context().map(|accuracy| {
                AccuracySummary::from_counts(
                    tally.correct_trials,
                    tally.evaluated_trials,
                    accuracy.clean_label_accuracy(),
                )
            }),
        }
    }
}

/// The serializable result of a whole campaign.
///
/// Field order is declaration order and every value derives solely from the
/// plan and the trial outcomes (never from wall-clock time or thread
/// scheduling), so `to_json()` is byte-identical across runs and across
/// `RAYON_NUM_THREADS` settings.
///
/// `schema_version` is 1 for exact-mode error campaigns (bytes unchanged
/// since that schema shipped), 2 for stratified-estimator campaigns (points
/// carry an extra `estimator` object), and 3 for accuracy campaigns (points
/// carry an extra `accuracy` object and trials a `correct` verdict).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepReport {
    /// Report schema version.
    pub schema_version: u32,
    /// The campaign's root seed.
    pub campaign_seed: u64,
    /// Trials per point.
    pub seeds_per_point: u64,
    /// Total trials run.
    pub total_trials: u64,
    /// Total failed trials across all points.
    pub total_failed_trials: u64,
    /// Total trials that could not execute, across all points (nonzero
    /// means some points' statistics rest on fewer trials than planned).
    pub total_exec_errors: u64,
    /// Distinct schedules the cache compiled (vs `points.len()` had every
    /// trial recompiled its own mapping).
    pub schedules_compiled: usize,
    /// Per-point aggregates, in plan (cartesian) order.
    pub points: Vec<PointSummary>,
}

impl SweepReport {
    pub(crate) fn new(
        plan: &SweepPlan,
        points: Vec<PointSummary>,
        schedules_compiled: usize,
    ) -> Self {
        let total_trials = points.iter().map(|p| p.trials).sum();
        let total_failed_trials = points.iter().map(|p| p.failed_trials).sum();
        let total_exec_errors = points.iter().map(|p| p.exec_errors).sum();
        SweepReport {
            // Accuracy campaigns reject the stratified estimator at plan
            // validation, so the versions never contend.
            schema_version: match (plan.kind, plan.estimator) {
                (CampaignKind::Accuracy, _) => 3,
                (_, EstimatorMode::Exact) => 1,
                (_, EstimatorMode::Stratified) => 2,
            },
            campaign_seed: plan.campaign_seed,
            seeds_per_point: plan.seeds_per_point,
            total_trials,
            total_failed_trials,
            total_exec_errors,
            schedules_compiled,
            points,
        }
    }

    /// Pretty-printed deterministic JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("sweep reports serialize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silent_failure_classification() {
        let base = TrialOutcome {
            faults_injected: 2,
            checks: 10,
            errors_detected: 1,
            corrections_written_back: 1,
            uncorrectable: 0,
            wrong_output_bits: 0,
            exec_error: None,
            correct: None,
        };
        assert!(!base.failed());
        let silent = TrialOutcome {
            wrong_output_bits: 3,
            ..base.clone()
        };
        assert!(silent.failed() && silent.silent_failure());
        let loud = TrialOutcome {
            wrong_output_bits: 3,
            uncorrectable: 1,
            ..base
        };
        assert!(loud.failed() && !loud.silent_failure());
    }

    fn trial(wrong_output_bits: u64, uncorrectable: u64) -> TrialOutcome {
        TrialOutcome {
            faults_injected: 1,
            checks: 4,
            errors_detected: 1,
            corrections_written_back: 1,
            uncorrectable,
            wrong_output_bits,
            exec_error: None,
            correct: None,
        }
    }

    #[test]
    fn tallies_round_trip_through_json() {
        let mut tallies = Tallies::new();
        tallies.add(3, &PointTally::from_outcomes(&[trial(0, 0), trial(2, 0)]));
        let accuracy = TrialOutcome {
            correct: Some(true),
            ..trial(0, 1)
        };
        tallies.add(1, &PointTally::from_outcomes(&[accuracy]));
        let encoded = serde_json::to_string(&tallies).unwrap();
        assert!(
            encoded.starts_with(r#"[{"point":1,"trials":1,"#),
            "{encoded}"
        );
        let value = serde_json::from_str(&encoded).unwrap();
        assert_eq!(Tallies::from_json_value(&value).unwrap(), tallies);

        let mut inconsistent = serde_json::to_string(&tallies).unwrap();
        inconsistent = inconsistent.replacen(r#""failed_trials":0"#, r#""failed_trials":9"#, 1);
        // The two entries swapped, and the first one twice.
        let inner = &encoded[1..encoded.len() - 1];
        let split = inner.find("},{").unwrap() + 1;
        let (first, second) = (&inner[..split], &inner[split + 1..]);
        let descending = format!("[{second},{first}]");
        let duplicated = format!("[{first},{first}]");
        for bad in [
            r#"{}"#,
            r#"[{"point":0}]"#,
            r#"[{"point":-1,"trials":1}]"#,
            inconsistent.as_str(),
            descending.as_str(),
            duplicated.as_str(),
        ] {
            let value = serde_json::from_str(bad).unwrap();
            assert!(Tallies::from_json_value(&value).is_err(), "{bad}");
        }
    }

    #[test]
    fn tallies_merge_in_any_order() {
        let outcomes = [trial(0, 0), trial(3, 0), trial(1, 1), trial(0, 0)];
        let whole = PointTally::from_outcomes(&outcomes);
        assert_eq!(whole.trials, 4);
        assert_eq!(whole.failed_trials, 2);
        assert_eq!(whole.silent_failures, 1);
        assert_eq!(whole.wrong_output_bits, 4);
        let (a, b) = outcomes.split_at(1);
        let mut forward = Tallies::new();
        forward.add(0, &PointTally::from_outcomes(a));
        forward.add(0, &PointTally::from_outcomes(b));
        let mut backward = Tallies::new();
        backward.add(0, &PointTally::from_outcomes(b));
        backward.add(0, &PointTally::from_outcomes(a));
        assert_eq!(forward, backward);
        assert_eq!(forward.get(0), Some(&whole));
        assert_eq!(forward.total(), whole);
    }

    #[test]
    fn covers_range_checks_the_exact_per_point_counts() {
        // Three trials per point; the range 2..7 touches points 0, 1, 2.
        let mut tallies = Tallies::new();
        for (point, n) in [(0, 1), (1, 3), (2, 1)] {
            tallies.add(point, &PointTally::from_outcomes(&vec![trial(0, 0); n]));
        }
        assert_eq!(tallies.trials(), 5);
        assert!(tallies.covers_range(2, 7, 3));
        assert!(!tallies.covers_range(0, 5, 3), "wrong start");
        assert!(!tallies.covers_range(2, 8, 3), "missing a trial");
        assert!(!tallies.covers_range(7, 2, 3), "inverted range");
        assert!(Tallies::new().covers_range(4, 4, 3));
        tallies.add(5, &PointTally::from_outcomes(&[trial(0, 0)]));
        assert!(!tallies.covers_range(2, 7, 3), "a stray point");
    }

    #[test]
    fn accuracy_summary_statistics_are_consistent() {
        let s = AccuracySummary::from_counts(6, 8, 0.125);
        assert_eq!(s.correct_trials, 6);
        assert_eq!(s.evaluated_trials, 8);
        assert!((s.accuracy - 0.75).abs() < 1e-12);
        assert!((s.top1_delta - -0.25).abs() < 1e-12);
        assert!(s.accuracy_ci_low < s.accuracy && s.accuracy < s.accuracy_ci_high);
        assert!((0.0..=1.0).contains(&s.accuracy_ci_low));
        assert!((0.0..=1.0).contains(&s.accuracy_ci_high));
        // No evidence: zero accuracy, full-width interval.
        let empty = AccuracySummary::from_counts(0, 0, 0.5);
        assert_eq!(empty.accuracy, 0.0);
        assert_eq!((empty.accuracy_ci_low, empty.accuracy_ci_high), (0.0, 1.0));
    }
}
