//! Fault models and fault injection (§II-C of the paper).
//!
//! The paper's error model targets *direct* soft errors: faults induced by
//! intended operations — an in-array gate whose output fails to switch (or
//! switches spuriously), a faulty write, or a bit flip in a stored cell.
//! Regardless of physical origin (thermal noise, retention failure, TMR-ratio
//! variation, oxygen-vacancy diffusion, …), these manifest as single bit
//! flips, uniformly distributed across the array during row-parallel
//! computation.
//!
//! The simulator draws that model as transient flips of gate outputs —
//! every value a row-parallel computation leaves in the array is a gate
//! output — plus permanent stuck-at defects that pin every store. This one
//! fault space is shared by both injectors: [`FaultInjector`] (the scalar
//! oracle) and [`SlicedFaultInjector`](crate::sliced::SlicedFaultInjector)
//! (the lane engine every campaign runs on). Writes, presets and Checker
//! write-backs take no transient decision and reads sense the stored value,
//! so a gate decision is the only consumer of a trial's RNG stream.

use rand::RngCore;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Per-operation gate-output flip probability, plus the permanent-defect
/// density.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ErrorRates {
    /// Probability that a gate operation produces a flipped output bit.
    pub gate: f64,
    /// Probability that any given cell is a permanent stuck-at defect
    /// (SA0 or SA1 with equal probability). Unlike the gate rate this is a
    /// per-*cell* density, not a per-operation one: the defect map is fixed
    /// for the whole trial and derived by hashing `(row, col)` against the
    /// trial's defect seed, so it consumes no RNG stream state (see
    /// [`stuck_at_state`]).
    pub stuck_at: f64,
}

impl ErrorRates {
    /// No faults at all (functional-validation mode).
    pub const NONE: ErrorRates = ErrorRates {
        gate: 0.0,
        stuck_at: 0.0,
    };

    /// Returns a copy with the given permanent stuck-at cell density.
    pub fn with_stuck_at(mut self, density: f64) -> Self {
        self.stuck_at = density;
        self
    }
}

impl Default for ErrorRates {
    fn default() -> Self {
        ErrorRates::NONE
    }
}

/// SplitMix64 finalizer — the stateless mixing function behind the
/// per-trial stuck-at defect maps. Kept in the sim crate (rather than
/// reusing the sweep engine's seed mixer) so the scalar and lane-parallel
/// injectors are equivalent by construction: both call this exact function.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Domain-separation salt between a trial's transient fault seed and its
/// permanent-defect map seed.
const STUCK_SALT: u64 = 0x5AD0_DEFE_C7A6_3A1B;

/// Derives the defect-map seed for a trial from its fault-stream seed.
/// Pure function — the ChaCha8 transient stream is untouched, so enabling
/// stuck-at defects never perturbs the transient fault sequence.
#[inline]
pub fn stuck_defect_seed(trial_fault_seed: u64) -> u64 {
    splitmix64(trial_fault_seed ^ STUCK_SALT)
}

/// Maps a stuck-at cell density to the 64-bit hash threshold under which a
/// cell's hash marks it defective.
#[inline]
pub fn stuck_threshold(density: f64) -> u64 {
    if density <= 0.0 {
        0
    } else if density >= 1.0 {
        u64::MAX
    } else {
        (density * u64::MAX as f64) as u64
    }
}

/// The permanent-defect status of cell (`row`, `col`) under a trial's
/// defect map: `Some(v)` means the cell is stuck at logic value `v`
/// (SA0/SA1), `None` means the cell is healthy.
///
/// O(1) and stateless: defective iff `h(seed, row, col) < threshold`, and
/// the stuck polarity comes from a *second* hash of `h` (so polarity is
/// independent of the magnitude comparison that selected the cell —
/// deriving it from `h`'s low bit would bias defective cells toward SA0).
#[inline]
pub fn stuck_at_state(defect_seed: u64, threshold: u64, row: usize, col: usize) -> Option<bool> {
    if threshold == 0 {
        return None;
    }
    let h = splitmix64(defect_seed ^ (((row as u64) << 32) | (col as u64 & 0xFFFF_FFFF)));
    if h < threshold {
        Some(splitmix64(h) & 1 == 1)
    } else {
        None
    }
}

/// A single injected gate-output fault, for logging and analysis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InjectedFault {
    /// Array row.
    pub row: usize,
    /// Array column.
    pub col: usize,
}

/// A deterministic, seedable fault injector.
///
/// The array consults the injector on every gate output, which it may
/// flip, and on every store, which a stuck-at defect may pin. The injector
/// keeps a log of every injected fault so tests and experiments can verify
/// coverage claims.
///
/// Decisions use geometric skip-ahead sampling: one RNG draw per *injected
/// fault* picks the index of the next faulting operation, and the
/// operations in between only decrement a counter. At paper-regime rates
/// (~1e-4) this removes ~99.99% of the RNG work while producing exactly the
/// Bernoulli(p) marginal per operation.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rates: ErrorRates,
    rng: ChaCha8Rng,
    log: Vec<InjectedFault>,
    /// Clean gate decisions left before the next fault; `None` until the
    /// first gate decision (or a peek) samples it.
    skip: Option<u64>,
    /// Gate-output fault decisions made. Counted at every rate — including
    /// zero — so a fault-free probe run measures exactly how many decisions
    /// a real trial at the same design point will face.
    decisions: u64,
    /// Hash threshold of the permanent stuck-at defect map (0 = no defects).
    stuck_threshold: u64,
    /// Seed of the trial's defect map (see [`stuck_defect_seed`]).
    defect_seed: u64,
}

impl FaultInjector {
    /// Creates an injector with the given rates and a fixed seed.
    pub fn new(rates: ErrorRates, seed: u64) -> Self {
        Self {
            rates,
            rng: ChaCha8Rng::seed_from_u64(seed),
            log: Vec::new(),
            skip: None,
            decisions: 0,
            stuck_threshold: stuck_threshold(rates.stuck_at),
            defect_seed: stuck_defect_seed(seed),
        }
    }

    /// Creates an injector that never injects faults.
    pub fn disabled() -> Self {
        Self::new(ErrorRates::NONE, 0)
    }

    /// Re-seeds the injector in place for a fresh trial: new rates, a fresh
    /// RNG stream, cleared log (keeping its allocation) and no pending skip
    /// state. Equivalent to `FaultInjector::new(rates, seed)`.
    pub fn reset(&mut self, rates: ErrorRates, seed: u64) {
        self.rates = rates;
        self.rng = ChaCha8Rng::seed_from_u64(seed);
        self.log.clear();
        self.skip = None;
        self.decisions = 0;
        self.stuck_threshold = stuck_threshold(rates.stuck_at);
        self.defect_seed = stuck_defect_seed(seed);
    }

    /// Whether this trial's defect map contains any stuck-at cells in
    /// principle (`rates.stuck_at > 0`). Array fast paths that store whole
    /// words must take the per-cell path when this holds.
    pub fn has_defects(&self) -> bool {
        self.stuck_threshold != 0
    }

    /// The permanent-defect status of (`row`, `col`) under this trial's
    /// defect map — `Some(v)` when the cell is stuck at `v`. Stateless:
    /// consumes no RNG and may be queried at any time.
    pub fn stuck_value(&self, row: usize, col: usize) -> Option<bool> {
        stuck_at_state(self.defect_seed, self.stuck_threshold, row, col)
    }

    /// One gate-output decision: whether the bit a gate produces at
    /// (`row`, `col`) is flipped, returning the value the output cell ends
    /// up holding. A stuck-at defect then pins the cell whatever the gate
    /// produced; the transient decision still runs first (and consumes
    /// exactly its usual RNG state), so enabling stuck-at never perturbs
    /// the transient fault stream.
    pub fn apply_gate(&mut self, row: usize, col: usize, value: bool) -> bool {
        self.decisions += 1;
        let faulted = self.skip_decide();
        if faulted {
            self.log.push(InjectedFault { row, col });
        }
        self.pin(row, col, value ^ faulted)
    }

    /// The value a store of `value` to (`row`, `col`) leaves in the cell:
    /// `value` itself, unless a stuck-at defect pins the cell — no amount
    /// of rewriting fixes broken hardware. Stores take no transient
    /// decision and consume no RNG.
    #[inline]
    pub fn pin(&self, row: usize, col: usize, value: bool) -> bool {
        self.stuck_value(row, col).unwrap_or(value)
    }

    /// Skip-ahead decision for one gate operation at the gate rate `p`.
    ///
    /// The rate is fixed between resets, so one pending counter serves the
    /// whole trial. Operations at `p == 0` consume no skip state, and at
    /// `p >= 1` every operation faults without touching the RNG.
    #[inline]
    fn skip_decide(&mut self) -> bool {
        let p = self.rates.gate;
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let remaining = match self.skip {
            Some(remaining) => remaining,
            None => Self::sample_geometric(&mut self.rng, p),
        };
        if remaining == 0 {
            self.skip = Some(Self::sample_geometric(&mut self.rng, p));
            true
        } else {
            self.skip = Some(remaining - 1);
            false
        }
    }

    /// Number of clean operations before the next fault: a geometric sample
    /// `floor(ln(1 − u) / ln(1 − p))` with `u` uniform in `[0, 1)`, which
    /// makes each operation fault with exactly probability `p`.
    ///
    /// Hardened against subnormal `p`: `ln_1p(-p)` can underflow to `-0.0`,
    /// making the quotient `NaN` (when `u` draws 0) or `+∞`. A float → int
    /// cast saturates `NaN` to **0**, which would turn a practically-zero
    /// rate into a fault on *every* operation; both non-finite cases mean
    /// "no fault in any reachable horizon" and map to `u64::MAX`.
    ///
    /// `pub(crate)` so the lane-parallel injector
    /// ([`crate::sliced::SlicedFaultInjector`]) draws the *identical*
    /// skip distribution from each lane's RNG stream.
    #[inline]
    pub(crate) fn sample_geometric(rng: &mut ChaCha8Rng, p: f64) -> u64 {
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let skip = (1.0 - u).ln() / (-p).ln_1p();
        if skip.is_nan() || skip >= u64::MAX as f64 {
            u64::MAX
        } else {
            skip as u64
        }
    }

    /// A geometric sample conditioned on landing within the next `window`
    /// decisions: the distribution of "clean operations before the next
    /// fault" *given* that at least one fault occurs in `window` operations.
    ///
    /// Inversion sampling on the truncated CDF: with `P₁ = 1 − (1 − p)^w`
    /// the sample is `floor(ln(1 − u·P₁) / ln(1 − p))`, so
    /// `P(S = s) = (1 − p)^s · p / P₁` for `s ∈ [0, w)` — exactly the
    /// unconditional geometric probability rescaled by `P₁`, which is what
    /// makes the stratified estimator's reweighting unbiased. Consumes one
    /// RNG draw, like [`Self::sample_geometric`]. The `min` clamp guards
    /// the floating-point edge where the quotient rounds up to `window`.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or `p` is outside `(0, 1)` — callers gate on
    /// a nondegenerate regime.
    pub fn sample_truncated_geometric(rng: &mut ChaCha8Rng, p: f64, window: u64) -> u64 {
        assert!(window > 0, "conditioning window must be nonempty");
        assert!(
            p > 0.0 && p < 1.0,
            "truncated-geometric sampling needs p in (0, 1), got {p}"
        );
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let log_q = (-p).ln_1p();
        let p1 = -f64::exp_m1(window as f64 * log_q);
        let skip = f64::ln_1p(-u * p1) / log_q;
        if skip.is_nan() {
            return 0;
        }
        (skip as u64).min(window - 1)
    }

    /// Probability that at least one fault fires over `window` decisions at
    /// per-op rate `p`: `1 − (1 − p)^window`, computed in log space so
    /// paper-regime values (`window·p ≪ 1`) keep full precision.
    pub fn fault_within_probability(p: f64, window: u64) -> f64 {
        if window == 0 || p <= 0.0 {
            return 0.0;
        }
        if p >= 1.0 {
            return 1.0;
        }
        -f64::exp_m1(window as f64 * (-p).ln_1p())
    }

    /// Gate-output fault decisions made so far (at any rate — zero-rate
    /// decisions count too). A fault-free probe trial thus measures the
    /// decision window a real trial of the same design point spans, which
    /// is what the analytic zero-fault fast path and the stratified
    /// estimator condition on.
    pub fn decision_count(&self) -> u64 {
        self.decisions
    }

    /// The number of clean upcoming gate decisions before the next fault
    /// fires (`0` = the very next decision faults, `u64::MAX` = never).
    ///
    /// Priming is stream-preserving: if the first skip has not been sampled
    /// yet, this consumes exactly the RNG draw the first
    /// [`Self::apply_gate`] would have consumed, so peeking and then
    /// executing yields the identical fault pattern as executing blind.
    /// This is the scalar half of the analytic zero-fault fast path: when
    /// the returned index is at or beyond the trial's whole decision
    /// window, the trial is settled clean without simulating a gate.
    pub fn next_fault_in(&mut self) -> u64 {
        let p = self.rates.gate;
        if p <= 0.0 {
            return u64::MAX;
        }
        if p >= 1.0 {
            return 0;
        }
        *self
            .skip
            .get_or_insert_with(|| Self::sample_geometric(&mut self.rng, p))
    }

    /// Replaces the pending skip with one conditioned on a fault firing
    /// within the next `window` gate decisions (see
    /// [`Self::sample_truncated_geometric`]). Decisions after that first
    /// fault resample unconditionally, which together yields exactly the
    /// law of a fault sequence conditioned on "≥ 1 fault in the window" —
    /// the sampled stratum of the stratified estimator. No-op in regimes
    /// where conditioning is meaningless (`p ≤ 0`, `p ≥ 1`, empty window).
    pub fn condition_first_fault(&mut self, window: u64) {
        let p = self.rates.gate;
        if window == 0 || p <= 0.0 || p >= 1.0 {
            return;
        }
        self.skip = Some(Self::sample_truncated_geometric(&mut self.rng, p, window));
    }

    /// Log of all injected faults so far.
    pub fn log(&self) -> &[InjectedFault] {
        &self.log
    }

    /// Number of injected faults.
    pub fn fault_count(&self) -> usize {
        self.log.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_never_flips() {
        let mut inj = FaultInjector::disabled();
        for i in 0..1000 {
            assert!(inj.apply_gate(0, i, true));
            assert!(!inj.pin(0, i, false));
        }
        assert_eq!(inj.fault_count(), 0);
    }

    #[test]
    fn always_faulty_injector_always_flips() {
        let mut inj = FaultInjector::new(
            ErrorRates {
                gate: 1.0,
                ..ErrorRates::NONE
            },
            1,
        );
        assert!(!inj.apply_gate(0, 0, true));
        assert!(inj.apply_gate(1, 2, false));
        // Stores take no transient decision, even at rate 1.
        assert!(inj.pin(1, 3, true));
        assert_eq!(inj.fault_count(), 2);
        assert_eq!(inj.log()[0], InjectedFault { row: 0, col: 0 });
        assert_eq!(inj.log()[1].row, 1);
    }

    #[test]
    fn fault_rate_is_approximately_respected() {
        let mut inj = FaultInjector::new(
            ErrorRates {
                gate: 0.1,
                ..ErrorRates::NONE
            },
            42,
        );
        let n = 20_000;
        for i in 0..n {
            inj.apply_gate(0, i, false);
        }
        let rate = inj.fault_count() as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "observed rate {rate}");
        // Stores add no faults.
        let faults = inj.fault_count();
        for i in 0..n {
            assert!(!inj.pin(0, i, false));
        }
        assert_eq!(inj.fault_count(), faults);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let run = |seed| {
            let mut inj = FaultInjector::new(
                ErrorRates {
                    gate: 0.05,
                    ..ErrorRates::NONE
                },
                seed,
            );
            (0..500)
                .map(|i| inj.apply_gate(0, i, false))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn same_seed_yields_the_identical_fault_sequence() {
        // Not just the same flip decisions: the logged fault sequence
        // (row, col) must be identical event for event, across a stream of
        // gate decisions interleaved with stores.
        let rates = ErrorRates {
            gate: 0.02,
            ..ErrorRates::NONE
        }
        .with_stuck_at(0.01);
        let run = |seed| {
            let mut inj = FaultInjector::new(rates, seed);
            for i in 0..2_000usize {
                if i % 2 == 0 {
                    inj.apply_gate(i % 7, i % 253, i % 4 == 0);
                } else {
                    inj.pin(i % 7, i % 253, i % 3 == 0);
                }
            }
            inj.log().to_vec()
        };
        let first = run(99);
        assert!(!first.is_empty(), "this regime must inject faults");
        assert_eq!(first, run(99), "same seed => identical fault log");
        assert_ne!(first, run(100), "different seed => different log");
    }

    #[test]
    fn skip_sampling_matches_bernoulli_rate_within_confidence_interval() {
        // The geometric skip sampler must reproduce the Bernoulli(p)
        // marginal: over n ops the empirical rate of the injector and of a
        // reference per-op Bernoulli loop must both sit within a 4σ
        // binomial confidence interval of p, for rates spanning the paper
        // regime.
        use rand::Rng;
        for p in [1e-2, 1e-3] {
            let n: usize = 2_000_000;
            let sigma = (p * (1.0 - p) / n as f64).sqrt();
            let tolerance = 4.0 * sigma;

            let rates = ErrorRates {
                gate: p,
                ..ErrorRates::NONE
            };
            let mut inj = FaultInjector::new(rates, 0xFA57);
            for i in 0..n {
                inj.apply_gate(0, i % 251, false);
            }
            let skip_rate = inj.fault_count() as f64 / n as f64;
            let mut rng = ChaCha8Rng::seed_from_u64(0xFA57);
            let bernoulli_rate = (0..n).filter(|_| rng.gen_bool(p)).count() as f64 / n as f64;
            assert!(
                (skip_rate - p).abs() < tolerance,
                "skip-ahead rate {skip_rate} vs p={p} (±{tolerance})"
            );
            assert!(
                (bernoulli_rate - p).abs() < tolerance,
                "per-op rate {bernoulli_rate} vs p={p} (±{tolerance})"
            );
        }
    }

    #[test]
    fn subnormal_rates_never_fault_instead_of_always_faulting() {
        // ln_1p(-p) underflows toward -0.0 for subnormal p; the quotient in
        // sample_geometric can then be NaN, and `NaN as u64` saturates to 0
        // — i.e. a fault on every operation at a rate of ~5e-324. The NaN
        // guard must map that regime to "no fault in any horizon".
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for _ in 0..64 {
            let skip = FaultInjector::sample_geometric(&mut rng, f64::MIN_POSITIVE);
            assert_eq!(skip, u64::MAX, "subnormal p must skip forever");
        }
        let rates = ErrorRates {
            gate: f64::MIN_POSITIVE,
            ..ErrorRates::NONE
        };
        let mut inj = FaultInjector::new(rates, 0x5AB);
        for i in 0..10_000 {
            inj.apply_gate(0, i % 251, false);
        }
        assert_eq!(inj.fault_count(), 0, "p = f64::MIN_POSITIVE is ~never");
    }

    #[test]
    fn truncated_geometric_matches_the_conditioned_distribution() {
        // Every sample must land in [0, window), and the empirical pmf must
        // match (1-p)^s * p / P1 — the unconditional geometric rescaled by
        // the fault-within-window probability.
        let (p, window) = (0.05, 20u64);
        let p1 = FaultInjector::fault_within_probability(p, window);
        let n = 400_000usize;
        let mut counts = vec![0u64; window as usize];
        let mut rng = ChaCha8Rng::seed_from_u64(0x7121);
        for _ in 0..n {
            let s = FaultInjector::sample_truncated_geometric(&mut rng, p, window);
            assert!(s < window, "sample {s} outside window {window}");
            counts[s as usize] += 1;
        }
        for (s, &k) in counts.iter().enumerate() {
            let expect = (1.0 - p).powi(s as i32) * p / p1;
            let got = k as f64 / n as f64;
            let tol = 5.0 * (expect * (1.0 - expect) / n as f64).sqrt();
            assert!(
                (got - expect).abs() < tol,
                "pmf at s={s}: got {got}, want {expect} (±{tol})"
            );
        }
    }

    #[test]
    fn fault_within_probability_handles_degenerate_regimes() {
        assert_eq!(FaultInjector::fault_within_probability(0.0, 100), 0.0);
        assert_eq!(FaultInjector::fault_within_probability(0.5, 0), 0.0);
        assert_eq!(FaultInjector::fault_within_probability(1.0, 3), 1.0);
        let p1 = FaultInjector::fault_within_probability(1e-4, 1000);
        assert!((p1 - 0.09516).abs() < 1e-4, "got {p1}");
        // Deep rare-event regime: log-space evaluation keeps precision.
        let tiny = FaultInjector::fault_within_probability(1e-9, 10);
        assert!((tiny - 1e-8).abs() < 1e-12, "got {tiny}");
    }

    #[test]
    fn peeking_the_next_fault_preserves_the_decision_stream() {
        // next_fault_in primes the lazy first skip with the exact RNG draw
        // apply would have made, so peek-then-execute equals execute-blind.
        let rates = ErrorRates {
            gate: 0.01,
            ..ErrorRates::NONE
        };
        let run = |peek: bool| {
            let mut inj = FaultInjector::new(rates, 0xBEEF);
            let next = peek.then(|| inj.next_fault_in());
            let decisions: Vec<bool> = (0..2_000)
                .map(|i| inj.apply_gate(0, i % 13, false))
                .collect();
            (next, decisions)
        };
        let (next, peeked) = run(true);
        let (_, blind) = run(false);
        assert_eq!(peeked, blind, "peeking must not perturb the stream");
        let first_fault = peeked.iter().position(|&f| f);
        assert_eq!(
            first_fault.map(|i| i as u64),
            next.filter(|&n| n < 2_000),
            "the peeked index must be the first firing decision"
        );
        // Degenerate regimes answer without touching the RNG.
        let mut zero = FaultInjector::new(ErrorRates::NONE, 1);
        assert_eq!(zero.next_fault_in(), u64::MAX);
        let mut certain = FaultInjector::new(
            ErrorRates {
                gate: 1.0,
                ..ErrorRates::NONE
            },
            1,
        );
        assert_eq!(certain.next_fault_in(), 0);
    }

    #[test]
    fn conditioning_guarantees_a_fault_inside_the_window() {
        let rates = ErrorRates {
            gate: 1e-4,
            ..ErrorRates::NONE
        };
        let window = 500u64;
        for seed in 0..200 {
            let mut inj = FaultInjector::new(rates, seed);
            inj.condition_first_fault(window);
            let mut fired = false;
            for i in 0..window {
                if inj.apply_gate(0, i as usize % 251, false) {
                    fired = true;
                    break;
                }
            }
            assert!(fired, "seed {seed}: conditioned trial must fault in-window");
        }
        assert_eq!(FaultInjector::new(rates, 9).decision_count(), 0);
        let mut counted = FaultInjector::new(ErrorRates::NONE, 9);
        for i in 0..37 {
            counted.apply_gate(0, i, false);
        }
        // A store is not a decision.
        counted.pin(0, 0, false);
        assert_eq!(counted.decision_count(), 37);
        counted.reset(ErrorRates::NONE, 9);
        assert_eq!(counted.decision_count(), 0);
    }

    #[test]
    fn skip_sampling_is_deterministic_and_resets_cleanly() {
        let rates = ErrorRates {
            gate: 0.01,
            ..ErrorRates::NONE
        };
        let run = |inj: &mut FaultInjector| {
            (0..5_000)
                .map(|i| inj.apply_gate(0, i % 61, false))
                .collect::<Vec<_>>()
        };
        let mut fresh = FaultInjector::new(rates, 77);
        let baseline = run(&mut fresh);
        // Reset-in-place must reproduce the fresh stream exactly.
        fresh.reset(rates, 77);
        assert_eq!(run(&mut fresh), baseline);
        // A once-used injector reset to a different seed diverges.
        fresh.reset(rates, 78);
        assert_ne!(run(&mut fresh), baseline);
    }

    #[test]
    fn stuck_at_maps_are_reproducible_and_respect_the_density() {
        let rates = ErrorRates::NONE.with_stuck_at(0.05);
        let a = FaultInjector::new(rates, 0xD00D);
        let b = FaultInjector::new(rates, 0xD00D);
        let c = FaultInjector::new(rates, 0xD00E);
        let mut defects = 0usize;
        let mut sa1 = 0usize;
        let mut differs_from_other_seed = false;
        for row in 0..64 {
            for col in 0..256 {
                let s = a.stuck_value(row, col);
                assert_eq!(s, b.stuck_value(row, col), "same seed => same map");
                if s != c.stuck_value(row, col) {
                    differs_from_other_seed = true;
                }
                if let Some(v) = s {
                    defects += 1;
                    sa1 += usize::from(v);
                }
            }
        }
        assert!(differs_from_other_seed, "different seed => different map");
        let density = defects as f64 / (64.0 * 256.0);
        assert!(
            (density - 0.05).abs() < 0.01,
            "defect density {density} should approximate 0.05"
        );
        // Both polarities occur in roughly equal shares.
        let sa1_frac = sa1 as f64 / defects as f64;
        assert!(
            (sa1_frac - 0.5).abs() < 0.15,
            "SA1 fraction {sa1_frac} should be near 0.5"
        );
    }

    #[test]
    fn stuck_cells_pin_stores_without_perturbing_the_transient_stream() {
        let transient = ErrorRates {
            gate: 0.01,
            ..ErrorRates::NONE
        };
        let run = |rates: ErrorRates| {
            let mut inj = FaultInjector::new(rates, 0x57CC);
            (0..3_000)
                .map(|i| inj.apply_gate(i % 5, i % 191, false))
                .collect::<Vec<_>>()
        };
        let plain = run(transient);
        let with_defects = run(transient.with_stuck_at(0.02));
        // The streams differ only at defective cells, where the stored bit
        // is pinned to the stuck value regardless of the transient outcome.
        let inj = FaultInjector::new(transient.with_stuck_at(0.02), 0x57CC);
        assert!(inj.has_defects());
        let mut overridden = 0usize;
        for (i, (&p, &d)) in plain.iter().zip(&with_defects).enumerate() {
            match inj.stuck_value(i % 5, i % 191) {
                Some(stuck) => {
                    assert_eq!(d, stuck, "op {i}: defective cell must read stuck value");
                    overridden += usize::from(p != d);
                }
                None => assert_eq!(p, d, "op {i}: healthy cells must be unaffected"),
            }
        }
        assert!(overridden > 0, "some stores must actually be overridden");
        // Every store lands on a defect at density 1.0.
        let all_stuck = FaultInjector::new(ErrorRates::NONE.with_stuck_at(1.0), 3);
        let pinned = all_stuck.pin(0, 0, true);
        assert_eq!(all_stuck.pin(0, 0, !pinned), pinned);
    }

    #[test]
    fn defect_seed_derivation_is_salted_off_the_fault_stream() {
        // The defect map comes from a SplitMix hash of the trial seed, not
        // from the ChaCha stream — two injectors with the same seed but
        // different stuck densities produce identical transient decisions.
        assert_ne!(stuck_defect_seed(1), stuck_defect_seed(2));
        assert_ne!(stuck_defect_seed(7), splitmix64(7));
        assert_eq!(stuck_threshold(0.0), 0);
        assert_eq!(stuck_threshold(1.5), u64::MAX);
        assert!(stuck_threshold(0.5) > u64::MAX / 3);
        assert_eq!(stuck_at_state(9, 0, 3, 4), None);
    }

    #[test]
    fn interleaved_stores_neither_consume_nor_perturb_the_gate_stream() {
        // Stores (writes, presets, write-backs) must not consume or
        // invalidate the pending gate skip counter.
        let rates = ErrorRates {
            gate: 0.02,
            ..ErrorRates::NONE
        };
        let gates_only = {
            let mut inj = FaultInjector::new(rates, 5);
            (0..4_000)
                .map(|i| inj.apply_gate(0, i % 17, false))
                .collect::<Vec<_>>()
        };
        let interleaved = {
            let mut inj = FaultInjector::new(rates, 5);
            (0..4_000)
                .map(|i| {
                    assert!(inj.pin(0, i % 17, true));
                    inj.apply_gate(0, i % 17, false)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(gates_only, interleaved);
    }
}
