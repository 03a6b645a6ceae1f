//! Transposed, bit-sliced simulation backend: 64 Monte Carlo trials per
//! `u64` lane.
//!
//! The scalar [`PimArray`](crate::array::PimArray) packs the *columns* of
//! one trial into `u64` words; this module transposes the layout so each
//! logical cell is one `u64` whose bit *k* is that cell's value in **trial
//! *k***. Every gate-level operation of a fault-injection trial — NOR /
//! THR / copy semantics, the fused two-step XOR, presets, metadata writes —
//! is a bitwise function on GF(2), so one word operation advances 64
//! independent trials at once (the bulk-bitwise idea of Leitersdorf et
//! al., applied across trials instead of across columns).
//!
//! Fault injection stays *exact*: [`SlicedFaultInjector`] keeps one ChaCha8
//! stream and one geometric skip counter per lane, seeded with that trial's
//! existing per-trial seed, and merges the per-lane decisions into one
//! 64-bit flip mask per gate-output site. Lane *k*'s flip decisions, RNG
//! consumption and fault log are bit-identical to a scalar
//! [`FaultInjector`](crate::fault::FaultInjector) in its default skip-ahead
//! mode running trial *k* alone — the equivalence tests in this module and
//! the backend-equivalence suite in `nvpim-sweep` assert this end to end.
//!
//! The injector's per-op fast path is a single comparison: a global
//! gate-decision counter against the minimum next-fault index across all
//! lanes. At paper-regime rates (~1e-4) the 64-lane scan below that
//! comparison runs on well under 1% of operations.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use nvpim_ecc::gf2::lanes::{self, at_least_three_zeros};

use crate::fault::{
    stuck_at_state, stuck_defect_seed, stuck_threshold, ErrorRates, FaultInjector, InjectedFault,
};

/// Number of Monte Carlo trials a sliced batch advances per word operation.
pub const LANES: usize = lanes::LANES;

/// Lane-masked fault injector: per-lane geometric skip sampling merged into
/// per-operation 64-bit flip masks.
///
/// It draws the same fault space as the scalar
/// [`FaultInjector`] (see [`crate::fault`]): gate-output flips at one rate
/// plus stuck-at defects that pin every store. A fault model that grows
/// beyond that grows in both injectors, or the oracle no longer checks
/// what campaigns run.
#[derive(Debug, Clone, Default)]
pub struct SlicedFaultInjector {
    gate_rate: f64,
    /// `gate_rate >= 1.0`: every operation faults in every lane (the scalar
    /// skip decider's certain-fault path, which consumes no RNG).
    always: bool,
    lane_count: usize,
    valid: u64,
    /// One deterministic stream per lane (trial), seeded with the trial's
    /// fault seed.
    rngs: Vec<ChaCha8Rng>,
    /// Absolute gate-decision index of each lane's next fault
    /// (`u64::MAX` = never).
    next_event: Vec<u64>,
    /// Gate-output decisions made so far.
    event_index: u64,
    /// `min(next_event)` — the one comparison the per-op fast path makes.
    min_next: u64,
    /// Per-lane fault logs (allocation reused across resets).
    logs: Vec<Vec<InjectedFault>>,
    /// Hash threshold of the permanent stuck-at defect maps (0 = none).
    stuck_thresh: u64,
    /// Per-lane defect-map seeds, derived from each lane's fault seed by
    /// the same [`stuck_defect_seed`] hash the scalar injector uses.
    defect_seeds: Vec<u64>,
}

impl SlicedFaultInjector {
    /// An empty injector with no active lanes; [`Self::reset`] arms it.
    pub fn new() -> Self {
        Self {
            logs: (0..LANES).map(|_| Vec::new()).collect(),
            min_next: u64::MAX,
            ..Self::default()
        }
    }

    /// Whether `rates` are probabilities: a gate rate and a stuck-at
    /// density in `[0, 1]`. The per-lane defect maps are stateless hashes,
    /// so the lane streams stay bit-identical to their scalar counterparts
    /// at any density.
    pub fn supports(rates: &ErrorRates) -> bool {
        (0.0..=1.0).contains(&rates.gate) && (0.0..=1.0).contains(&rates.stuck_at)
    }

    /// Re-arms the injector for a fresh batch: one lane per seed, each
    /// lane's RNG stream and skip counter exactly as a scalar skip-ahead
    /// injector seeded with that value. Logs are cleared but keep their
    /// capacity (no steady-state allocation).
    ///
    /// # Panics
    ///
    /// Panics if `rates` is outside the supported regime (see
    /// [`Self::supports`]) or `seeds` is empty / longer than [`LANES`].
    pub fn reset(&mut self, rates: ErrorRates, seeds: &[u64]) {
        assert!(
            Self::supports(&rates),
            "error rates must lie in [0, 1], got {rates:?}"
        );
        assert!(
            (1..=LANES).contains(&seeds.len()),
            "a sliced batch carries 1..={LANES} lanes, got {}",
            seeds.len()
        );
        self.gate_rate = rates.gate;
        self.always = rates.gate >= 1.0;
        self.lane_count = seeds.len();
        self.valid = lanes::lane_mask(seeds.len());
        self.event_index = 0;
        for log in &mut self.logs {
            log.clear();
        }
        self.rngs.clear();
        self.next_event.clear();
        self.stuck_thresh = stuck_threshold(rates.stuck_at);
        self.defect_seeds.clear();
        if self.stuck_thresh != 0 {
            self.defect_seeds
                .extend(seeds.iter().map(|&s| stuck_defect_seed(s)));
        }
        let mut min_next = u64::MAX;
        for &seed in seeds {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            // The scalar injector samples its first skip lazily at the
            // first gate decision; gate decisions are the only RNG
            // consumers, so sampling it here yields the identical stream.
            let next = if self.always || self.gate_rate <= 0.0 {
                u64::MAX
            } else {
                FaultInjector::sample_geometric(&mut rng, self.gate_rate)
            };
            min_next = min_next.min(next);
            self.rngs.push(rng);
            self.next_event.push(next);
        }
        self.min_next = min_next;
    }

    /// Re-arms the injector like [`Self::reset`], but with every lane's
    /// *first* skip drawn from the geometric distribution conditioned on a
    /// fault landing within the next `window` gate decisions (see
    /// [`FaultInjector::sample_truncated_geometric`]). Later skips resample
    /// unconditionally, so each lane carries exactly the law of a trial
    /// conditioned on "≥ 1 fault in the window" — the sampled stratum of
    /// the stratified estimator. Falls back to [`Self::reset`] in regimes
    /// where conditioning is meaningless (rate 0, rate ≥ 1, empty window).
    ///
    /// # Panics
    ///
    /// As [`Self::reset`].
    pub fn reset_conditioned(&mut self, rates: ErrorRates, seeds: &[u64], window: u64) {
        self.reset(rates, seeds);
        if window == 0 || self.always || self.gate_rate <= 0.0 {
            return;
        }
        // Redraw each lane's eagerly-sampled first skip from the truncated
        // distribution. The lane RNGs have already consumed their first
        // draw in `reset`; conditioned streams are a different law than
        // exact streams by design, so no replay equivalence is owed here.
        let mut min_next = u64::MAX;
        for (rng, next) in self.rngs.iter_mut().zip(&mut self.next_event) {
            *next = FaultInjector::sample_truncated_geometric(rng, self.gate_rate, window);
            min_next = min_next.min(*next);
        }
        self.min_next = min_next;
    }

    /// Number of active lanes in the current batch.
    pub fn lane_count(&self) -> usize {
        self.lane_count
    }

    /// The earliest upcoming gate-decision index (counted from the current
    /// decision) at which *any* lane faults — `u64::MAX` if no lane ever
    /// will. Immediately after a reset this is the minimum first-fault
    /// index over all lanes: if it is at or beyond the whole batch's
    /// decision window, every lane runs clean and the batch can be settled
    /// analytically without executing a single gate (the sliced half of
    /// the zero-fault fast path).
    pub fn next_fault_decision(&self) -> u64 {
        if self.always {
            // Certain-fault mode bypasses the per-lane counters: the very
            // next decision faults in every lane.
            0
        } else if self.min_next == u64::MAX {
            u64::MAX
        } else {
            self.min_next.saturating_sub(self.event_index)
        }
    }

    /// Gate-output fault decisions the batch made since the last reset,
    /// each one a decision in every lane. In a fault-free batch it equals
    /// what a scalar injector running any one lane's trial alone reports
    /// as [`FaultInjector::decision_count`].
    pub fn decision_count(&self) -> u64 {
        self.event_index
    }

    /// Mask of the valid (active) lanes.
    pub fn valid_mask(&self) -> u64 {
        self.valid
    }

    /// The gate-output fault rate in force.
    pub fn gate_rate(&self) -> f64 {
        self.gate_rate
    }

    /// The fault log of one lane — bit-identical to the scalar injector's
    /// log for that trial.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= lane_count()`.
    pub fn lane_log(&self, lane: usize) -> &[InjectedFault] {
        assert!(lane < self.lane_count, "lane {lane} out of range");
        &self.logs[lane]
    }

    /// Number of faults injected into one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= lane_count()`.
    pub fn lane_fault_count(&self, lane: usize) -> usize {
        assert!(lane < self.lane_count, "lane {lane} out of range");
        self.logs[lane].len()
    }

    /// Current capacity of a lane's log allocation (observability for the
    /// arena-purity tests: capacity must survive [`Self::reset`]).
    pub fn lane_log_capacity(&self, lane: usize) -> usize {
        self.logs[lane].capacity()
    }

    /// Whether any permanent stuck-at density is in force. When false,
    /// every store path below is the plain pre-defect word operation.
    #[inline]
    pub fn has_defects(&self) -> bool {
        self.stuck_thresh != 0
    }

    /// Per-lane stuck-at masks for cell (`row`, `col`): `(sa0, sa1)` where
    /// bit *k* of `sa0` means trial *k*'s cell is stuck-at-0 and bit *k* of
    /// `sa1` stuck-at-1. A stored word `v` lands as `(v & !sa0) | sa1` —
    /// the lane-parallel form of the scalar injector's post-decision
    /// override. Pure hash lookups: no RNG state is consumed, so transient
    /// lane streams are untouched.
    #[inline]
    pub fn stuck_masks(&self, row: usize, col: usize) -> (u64, u64) {
        if self.stuck_thresh == 0 {
            return (0, 0);
        }
        let mut sa0 = 0u64;
        let mut sa1 = 0u64;
        for lane in 0..self.lane_count {
            match stuck_at_state(self.defect_seeds[lane], self.stuck_thresh, row, col) {
                Some(true) => sa1 |= 1u64 << lane,
                Some(false) => sa0 |= 1u64 << lane,
                None => {}
            }
        }
        (sa0, sa1)
    }

    /// One gate-output fault decision for all lanes at cell (`row`, `col`):
    /// returns the mask of lanes whose produced bit flips, logging each
    /// flip. The per-trial marginal is exactly Bernoulli(`gate_rate`), and
    /// lane *k*'s decision sequence matches a scalar skip-ahead injector
    /// seeded with lane *k*'s seed, decision for decision.
    #[inline]
    pub fn gate_flip_mask(&mut self, row: usize, col: usize) -> u64 {
        let e = self.event_index;
        self.event_index += 1;
        if self.always {
            for lane in 0..self.lane_count {
                self.logs[lane].push(InjectedFault { row, col });
            }
            return self.valid;
        }
        if e < self.min_next {
            return 0;
        }
        // Slow path: at least one lane faults at this decision. Rebuild the
        // minimum while resampling the faulting lanes.
        let mut mask = 0u64;
        let mut min_next = u64::MAX;
        for lane in 0..self.lane_count {
            let mut next = self.next_event[lane];
            if next == e {
                mask |= 1u64 << lane;
                self.logs[lane].push(InjectedFault { row, col });
                // Scalar resample: after a fault at decision `e` with a
                // fresh geometric skip `s`, the next fault lands at
                // decision `e + s + 1`.
                let skip = FaultInjector::sample_geometric(&mut self.rngs[lane], self.gate_rate);
                next = e.saturating_add(1).saturating_add(skip);
                self.next_event[lane] = next;
            }
            min_next = min_next.min(next);
        }
        self.min_next = min_next;
        mask
    }
}

/// A PiM array in the transposed lane layout: cell (`row`, `col`) is one
/// `u64` whose bit *k* is the cell's logic value in trial *k*.
///
/// The op surface mirrors what `ProtectedExecutor` drives on the scalar
/// array — gate execution, presets, metadata writes, cell reads. Bounds are validated by the executor before a
/// run; out-of-range cells panic via slice indexing.
#[derive(Debug, Clone)]
pub struct SlicedPimArray {
    rows: usize,
    cols: usize,
    cells: Vec<u64>,
    injector: SlicedFaultInjector,
}

impl SlicedPimArray {
    /// An array of `rows × cols` lane-cells, all zero, injector disarmed.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            cells: vec![0; rows * cols],
            injector: SlicedFaultInjector::new(),
        }
    }

    /// The first `rows` rows of the paper's standard 256×256 array, which
    /// computes row-parallel: an error trial exercises one row, an accuracy
    /// trial one per hidden neuron.
    pub fn standard_rows(rows: usize) -> Self {
        Self::new(rows, 256)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The lane-masked fault injector.
    pub fn injector(&self) -> &SlicedFaultInjector {
        &self.injector
    }

    #[inline]
    fn idx(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.rows && col < self.cols);
        row * self.cols + col
    }

    /// The lane word of cell (`row`, `col`) — the sliced `peek`.
    #[inline]
    pub fn cell(&self, row: usize, col: usize) -> u64 {
        self.cells[self.idx(row, col)]
    }

    /// Overwrites the lane word of cell (`row`, `col`). Private: every
    /// public store pins stuck-at lanes, as the scalar storing sites do.
    #[inline]
    fn set_cell(&mut self, row: usize, col: usize, word: u64) {
        let i = self.idx(row, col);
        self.cells[i] = word;
    }

    /// Applies the cell's per-lane stuck-at masks to a word about to be
    /// stored — the lane-parallel twin of the scalar injector's
    /// [`FaultInjector::pin`].
    #[inline]
    fn pin_defects(&self, row: usize, col: usize, word: u64) -> u64 {
        let (sa0, sa1) = self.injector.stuck_masks(row, col);
        (word & !sa0) | sa1
    }

    /// Writes per-lane values: a plain store pinned by any stuck-at
    /// defects, exactly as the scalar `write_cell`.
    #[inline]
    pub fn write_lanes(&mut self, row: usize, col: usize, values: u64) {
        let stored = self.pin_defects(row, col, values);
        self.set_cell(row, col, stored);
    }

    /// Writes the same constant into every lane of a cell (the `Preset`
    /// data write of constant gates), pinned by any stuck-at defects.
    #[inline]
    pub fn write_const(&mut self, row: usize, col: usize, value: bool) {
        self.write_lanes(row, col, if value { u64::MAX } else { 0 });
    }

    /// Writes `values` into the lanes set in `lanes` only; the other lanes
    /// keep their stored bits. The per-lane write-back of a correction or a
    /// recompute: a reliable store with no transient fault decision
    /// (consumes no RNG), but stuck cells still pin the written lanes, as
    /// in the scalar array's `write_cell` — rewriting
    /// cannot repair broken hardware.
    #[inline]
    pub fn write_masked_lanes(&mut self, row: usize, col: usize, values: u64, lanes: u64) {
        let before = self.cell(row, col);
        let stored = self.pin_defects(row, col, values);
        self.set_cell(row, col, (before & !lanes) | (stored & lanes));
    }

    /// Presets a contiguous column range of `row` to `value` in all lanes
    /// (the row-parallel metadata preset). A pure range fill without
    /// defects; per-cell pinned stores when a defect map is in force.
    pub fn preset_range(&mut self, row: usize, cols: std::ops::Range<usize>, value: bool) {
        if cols.is_empty() {
            return;
        }
        if self.injector.has_defects() {
            for col in cols {
                self.write_const(row, col, value);
            }
            return;
        }
        let start = self.idx(row, cols.start);
        let end = self.idx(row, cols.end - 1) + 1;
        self.cells[start..end].fill(if value { u64::MAX } else { 0 });
    }

    /// Multi-output NOR: every output cell receives `NOR(inputs)` XOR its
    /// own per-lane fault mask, in output order (one fault decision per
    /// output cell, matching the scalar gate's per-output injection).
    pub fn gate_nor(&mut self, row: usize, inputs: &[usize], outputs: &[usize]) {
        let mut any = 0u64;
        for &col in inputs {
            any |= self.cell(row, col);
        }
        let ideal = !any;
        for &col in outputs {
            let flips = self.injector.gate_flip_mask(row, col);
            let stored = self.pin_defects(row, col, ideal ^ flips);
            self.set_cell(row, col, stored);
        }
    }

    /// Single-output copy.
    pub fn gate_copy(&mut self, row: usize, input: usize, output: usize) {
        let ideal = self.cell(row, input);
        let flips = self.injector.gate_flip_mask(row, output);
        let stored = self.pin_defects(row, output, ideal ^ flips);
        self.set_cell(row, output, stored);
    }

    /// The 4-input thresholding gate (output switches when ≥ 3 inputs are
    /// 0), evaluated lane-parallel with the bit-sliced zero counter.
    pub fn gate_thr(&mut self, row: usize, inputs: &[usize], output: usize) {
        let ideal = at_least_three_zeros(inputs.iter().map(|&col| self.cell(row, col)));
        let flips = self.injector.gate_flip_mask(row, output);
        let stored = self.pin_defects(row, output, ideal ^ flips);
        self.set_cell(row, output, stored);
    }

    /// The fused two-step in-array XOR (`s1 = s2 = NOR(a, b)` then
    /// `dst = THR(a, b, s1, s2)`), with fault decisions in the scalar
    /// order: `s1`, `s2`, `dst`. ECiM's parity-fold primitive.
    pub fn gate_xor2(
        &mut self,
        row: usize,
        a_col: usize,
        b_col: usize,
        s1_col: usize,
        s2_col: usize,
        dst_col: usize,
    ) {
        let a = self.cell(row, a_col);
        let b = self.cell(row, b_col);
        let nor = !(a | b);
        // Stuck pins apply before the THR step reads the working cells back,
        // matching the scalar order (decision, override, then step 2).
        let s1_flips = self.injector.gate_flip_mask(row, s1_col);
        let s1 = self.pin_defects(row, s1_col, nor ^ s1_flips);
        self.set_cell(row, s1_col, s1);
        let s2_flips = self.injector.gate_flip_mask(row, s2_col);
        let s2 = self.pin_defects(row, s2_col, nor ^ s2_flips);
        self.set_cell(row, s2_col, s2);
        let thr = at_least_three_zeros([a, b, s1, s2]);
        let dst_flips = self.injector.gate_flip_mask(row, dst_col);
        let out = self.pin_defects(row, dst_col, thr ^ dst_flips);
        self.set_cell(row, dst_col, out);
    }

    /// Resets the array in place for a fresh batch of up to 64 trials:
    /// every cell back to 0 in every lane (one memset) and the injector
    /// re-armed with one seed per lane. A reset array is observationally
    /// identical to a freshly constructed one.
    ///
    /// # Panics
    ///
    /// As [`SlicedFaultInjector::reset`].
    pub fn reset_for_batch(&mut self, rates: ErrorRates, seeds: &[u64]) {
        self.cells.fill(0);
        self.injector.reset(rates, seeds);
    }

    /// [`Self::reset_for_batch`] with every lane conditioned on injecting
    /// at least one fault within the next `window` gate decisions (the
    /// stratified estimator's sampled stratum; see
    /// [`SlicedFaultInjector::reset_conditioned`]).
    ///
    /// # Panics
    ///
    /// As [`SlicedFaultInjector::reset`].
    pub fn reset_for_conditioned_batch(&mut self, rates: ErrorRates, seeds: &[u64], window: u64) {
        self.cells.fill(0);
        self.injector.reset_conditioned(rates, seeds, window);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::PimArray;
    use crate::gates::GateKind;
    use crate::technology::Technology;

    fn gate_rates(p: f64) -> ErrorRates {
        ErrorRates {
            gate: p,
            ..ErrorRates::NONE
        }
    }

    fn lane_seed(batch_seed: u64, lane: usize) -> u64 {
        batch_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (lane as u64)
    }

    #[test]
    fn flip_masks_match_scalar_skip_ahead_injectors_decision_for_decision() {
        for p in [0.0, 1e-3, 0.05, 0.5, 1.0] {
            let lanes = 64usize;
            let seeds: Vec<u64> = (0..lanes).map(|l| lane_seed(7, l)).collect();
            let mut sliced = SlicedFaultInjector::new();
            sliced.reset(gate_rates(p), &seeds);
            let mut scalars: Vec<FaultInjector> = seeds
                .iter()
                .map(|&s| FaultInjector::new(gate_rates(p), s))
                .collect();
            for op in 0..4_000usize {
                let (row, col) = (op % 3, op % 251);
                let mask = sliced.gate_flip_mask(row, col);
                for (lane, scalar) in scalars.iter_mut().enumerate() {
                    // `apply` on a `false` bit returns `true` iff flipped.
                    let flipped = scalar.apply_gate(row, col, false);
                    assert_eq!(
                        (mask >> lane) & 1 == 1,
                        flipped,
                        "p={p} op={op} lane={lane}"
                    );
                }
            }
            for (lane, scalar) in scalars.iter().enumerate() {
                assert_eq!(
                    sliced.lane_log(lane),
                    scalar.log(),
                    "p={p} lane={lane}: logs must be bit-identical"
                );
            }
            if p > 0.0 && p < 1.0 {
                assert!(
                    (0..lanes).any(|l| sliced.lane_fault_count(l) > 0),
                    "p={p}: this regime must inject faults"
                );
            }
        }
    }

    #[test]
    fn ragged_batches_never_touch_invalid_lanes() {
        let seeds: Vec<u64> = (0..5).map(|l| lane_seed(3, l)).collect();
        let mut inj = SlicedFaultInjector::new();
        inj.reset(gate_rates(0.2), &seeds);
        assert_eq!(inj.lane_count(), 5);
        assert_eq!(inj.valid_mask(), 0b11111);
        let mut any = 0u64;
        for op in 0..2_000 {
            any |= inj.gate_flip_mask(0, op % 17);
        }
        assert_ne!(any, 0, "faults must fire");
        assert_eq!(any & !0b11111, 0, "no flips outside the valid lanes");
    }

    #[test]
    fn reset_reuses_log_capacity_and_reproduces_streams() {
        let seeds: Vec<u64> = (0..16).map(|l| lane_seed(11, l)).collect();
        let mut inj = SlicedFaultInjector::new();
        inj.reset(gate_rates(0.1), &seeds);
        let run = |inj: &mut SlicedFaultInjector| -> Vec<u64> {
            (0..1_500)
                .map(|op| inj.gate_flip_mask(0, op % 13))
                .collect()
        };
        let baseline = run(&mut inj);
        let caps: Vec<usize> = (0..16).map(|l| inj.lane_log_capacity(l)).collect();
        assert!(caps.iter().any(|&c| c > 0));
        // Reset to the same seeds: identical masks, no capacity loss.
        inj.reset(gate_rates(0.1), &seeds);
        for (lane, &cap) in caps.iter().enumerate() {
            assert!(
                inj.lane_log_capacity(lane) >= cap,
                "lane {lane}: log capacity must survive reset"
            );
        }
        assert_eq!(run(&mut inj), baseline);
        // A different seed vector diverges.
        let other: Vec<u64> = (0..16).map(|l| lane_seed(12, l)).collect();
        inj.reset(gate_rates(0.1), &other);
        assert_ne!(run(&mut inj), baseline);
    }

    #[test]
    fn unsupported_rate_regimes_are_rejected() {
        assert!(SlicedFaultInjector::supports(&gate_rates(1e-4)));
        assert!(SlicedFaultInjector::supports(&ErrorRates::NONE));
        assert!(SlicedFaultInjector::supports(
            &gate_rates(1.0).with_stuck_at(1.0)
        ));
        assert!(!SlicedFaultInjector::supports(&gate_rates(1.5)));
        assert!(!SlicedFaultInjector::supports(&gate_rates(-0.1)));
        assert!(!SlicedFaultInjector::supports(&gate_rates(f64::NAN)));
        assert!(!SlicedFaultInjector::supports(
            &ErrorRates::NONE.with_stuck_at(2.0)
        ));
        let mut inj = SlicedFaultInjector::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inj.reset(gate_rates(1.5), &[1, 2]);
        }));
        assert!(result.is_err(), "a rate above 1 must be refused");
    }

    /// Drives the same operation program through one sliced array and 64
    /// scalar arrays (one per lane seed), then asserts every cell and every
    /// fault log agree lane for lane.
    #[test]
    fn sliced_gate_programs_match_per_lane_scalar_arrays() {
        let p = 0.05; // high enough to exercise flips in a short program
        let lanes = 64usize;
        let seeds: Vec<u64> = (0..lanes).map(|l| lane_seed(21, l)).collect();
        let mut sliced = SlicedPimArray::new(1, 32);
        sliced.reset_for_batch(gate_rates(p), &seeds);
        let mut scalars: Vec<PimArray> = seeds
            .iter()
            .map(|&s| {
                PimArray::new(Technology::SttMram, 1, 32)
                    .with_fault_injector(FaultInjector::new(gate_rates(p), s))
            })
            .collect();

        // Per-lane data writes: lane l starts from a distinct bit pattern.
        for col in 0..4 {
            let mut word = 0u64;
            for (lane, _) in seeds.iter().enumerate() {
                let bit = (lane + col) % 3 == 0;
                word |= u64::from(bit) << lane;
                scalars[lane].write_cell(0, col, bit).unwrap();
            }
            sliced.write_lanes(0, col, word);
        }

        // A mixed program covering every op class, repeated for depth.
        for round in 0..40usize {
            sliced.gate_nor(0, &[0, 1], &[4, 5]);
            sliced.gate_copy(0, 4, 6);
            sliced.gate_thr(0, &[0, 1, 4, 5], 7);
            sliced.gate_xor2(0, 2, 3, 8, 9, 10);
            sliced.preset_range(0, 12..20, round % 2 == 0);
            sliced.gate_nor(0, &[10, 6], &[2]);
            for scalar in &mut scalars {
                scalar
                    .execute_gate_with(GateKind::NOR22, 0, &[0, 1], &[4, 5])
                    .unwrap();
                scalar
                    .execute_gate_with(GateKind::Copy, 0, &[4], &[6])
                    .unwrap();
                scalar
                    .execute_gate_with(GateKind::THR, 0, &[0, 1, 4, 5], &[7])
                    .unwrap();
                scalar.execute_xor2_step(0, 2, 3, 8, 9, 10).unwrap();
                scalar.preset_cells(0, 12..20, round % 2 == 0).unwrap();
                scalar
                    .execute_gate_with(GateKind::NOR2, 0, &[10, 6], &[2])
                    .unwrap();
            }
        }

        for (lane, scalar) in scalars.iter().enumerate() {
            for col in 0..32 {
                assert_eq!(
                    (sliced.cell(0, col) >> lane) & 1 == 1,
                    scalar.peek(0, col).unwrap(),
                    "lane {lane} col {col}"
                );
            }
            assert_eq!(
                sliced.injector().lane_log(lane),
                scalar.fault_injector().log(),
                "lane {lane} fault log"
            );
        }
        assert!(
            (0..lanes).any(|l| sliced.injector().lane_fault_count(l) > 0),
            "program must inject faults at p = {p}"
        );
    }

    /// The same program as above, but with a permanent stuck-at defect map
    /// layered on top of the transient faults: every store path must pin
    /// defective lanes exactly like the scalar injector's override, and the
    /// transient lane streams must stay bit-identical (defect lookups are
    /// stateless hashes that consume no RNG).
    #[test]
    fn stuck_at_defect_maps_match_per_lane_scalar_arrays() {
        let rates = ErrorRates {
            gate: 0.05,
            ..ErrorRates::NONE
        }
        .with_stuck_at(0.08);
        assert!(SlicedFaultInjector::supports(&rates));
        let lanes = 64usize;
        let seeds: Vec<u64> = (0..lanes).map(|l| lane_seed(33, l)).collect();
        let mut sliced = SlicedPimArray::new(1, 32);
        sliced.reset_for_batch(rates, &seeds);
        assert!(sliced.injector().has_defects());
        let mut scalars: Vec<PimArray> = seeds
            .iter()
            .map(|&s| {
                PimArray::new(Technology::ReramCrossbar, 1, 32)
                    .with_fault_injector(FaultInjector::new(rates, s))
            })
            .collect();

        for col in 0..4 {
            let mut word = 0u64;
            for (lane, _) in seeds.iter().enumerate() {
                let bit = (lane + col) % 3 == 0;
                word |= u64::from(bit) << lane;
                scalars[lane].write_cell(0, col, bit).unwrap();
            }
            sliced.write_lanes(0, col, word);
        }

        for round in 0..40usize {
            sliced.gate_nor(0, &[0, 1], &[4, 5]);
            sliced.gate_copy(0, 4, 6);
            sliced.gate_thr(0, &[0, 1, 4, 5], 7);
            sliced.gate_xor2(0, 2, 3, 8, 9, 10);
            sliced.preset_range(0, 12..20, round % 2 == 0);
            // A write-back to every third lane, a different third each round.
            let written = 0x9249_2492_4924_9249u64.rotate_left(round as u32);
            sliced.write_masked_lanes(0, 11, if round % 2 == 0 { u64::MAX } else { 0 }, written);
            sliced.gate_nor(0, &[10, 6], &[2]);
            for (lane, scalar) in scalars.iter_mut().enumerate() {
                scalar
                    .execute_gate_with(GateKind::NOR22, 0, &[0, 1], &[4, 5])
                    .unwrap();
                scalar
                    .execute_gate_with(GateKind::Copy, 0, &[4], &[6])
                    .unwrap();
                scalar
                    .execute_gate_with(GateKind::THR, 0, &[0, 1, 4, 5], &[7])
                    .unwrap();
                scalar.execute_xor2_step(0, 2, 3, 8, 9, 10).unwrap();
                scalar.preset_cells(0, 12..20, round % 2 == 0).unwrap();
                if (written >> lane) & 1 == 1 {
                    scalar.write_cell(0, 11, round % 2 == 0).unwrap();
                }
                scalar
                    .execute_gate_with(GateKind::NOR2, 0, &[10, 6], &[2])
                    .unwrap();
            }
        }

        let mut defective_lanes = 0usize;
        for (lane, scalar) in scalars.iter().enumerate() {
            for col in 0..32 {
                assert_eq!(
                    (sliced.cell(0, col) >> lane) & 1 == 1,
                    scalar.peek(0, col).unwrap(),
                    "lane {lane} col {col}"
                );
                if scalar.fault_injector().stuck_value(0, col).is_some() {
                    defective_lanes += 1;
                }
            }
            assert_eq!(
                sliced.injector().lane_log(lane),
                scalar.fault_injector().log(),
                "lane {lane} fault log must be untouched by the defect map"
            );
        }
        assert!(
            defective_lanes > 0,
            "density 0.08 over 64 lanes x 32 cells must place defects"
        );
    }

    #[test]
    fn conditioned_reset_faults_every_lane_inside_the_window() {
        let (p, window) = (1e-4, 800u64);
        for batch_seed in 0..8u64 {
            let seeds: Vec<u64> = (0..64).map(|l| lane_seed(batch_seed, l)).collect();
            let mut inj = SlicedFaultInjector::new();
            inj.reset_conditioned(gate_rates(p), &seeds, window);
            assert!(
                inj.next_fault_decision() < window,
                "batch {batch_seed}: some lane must fault in-window"
            );
            let mut fired = 0u64;
            for op in 0..window {
                fired |= inj.gate_flip_mask(0, op as usize % 251);
            }
            assert_eq!(
                fired,
                inj.valid_mask(),
                "batch {batch_seed}: every lane must fault within the window"
            );
        }
    }

    #[test]
    fn next_fault_decision_tracks_the_min_over_lanes() {
        let seeds: Vec<u64> = (0..64).map(|l| lane_seed(77, l)).collect();
        let mut inj = SlicedFaultInjector::new();
        inj.reset(gate_rates(0.0), &seeds);
        assert_eq!(inj.next_fault_decision(), u64::MAX, "rate 0 never faults");
        inj.reset(gate_rates(1.0), &seeds);
        assert_eq!(
            inj.next_fault_decision(),
            0,
            "certain faults fire immediately"
        );
        inj.reset(gate_rates(0.01), &seeds);
        let first = inj.next_fault_decision();
        assert!(first < u64::MAX);
        // Mirror against 64 scalar injectors: the minimum primed first-fault
        // index must agree.
        let scalar_min = seeds
            .iter()
            .map(|&s| {
                let mut scalar = FaultInjector::new(gate_rates(0.01), s);
                scalar.next_fault_in()
            })
            .min()
            .unwrap();
        assert_eq!(first, scalar_min);
        // Decisions made so far shift the remaining distance down.
        for op in 0..3usize {
            inj.gate_flip_mask(0, op);
        }
        assert!(inj.next_fault_decision() <= first);
    }

    #[test]
    fn batch_reset_restores_a_pristine_array() {
        let seeds: Vec<u64> = (0..8).map(|l| lane_seed(5, l)).collect();
        let mut reused = SlicedPimArray::new(2, 16);
        reused.reset_for_batch(gate_rates(0.1), &seeds);
        reused.write_lanes(0, 3, u64::MAX);
        reused.gate_nor(0, &[0, 1], &[2]);
        reused.reset_for_batch(gate_rates(0.1), &seeds);

        let mut fresh = SlicedPimArray::new(2, 16);
        fresh.reset_for_batch(gate_rates(0.1), &seeds);
        for col in 0..16 {
            assert_eq!(reused.cell(0, col), fresh.cell(0, col), "col {col}");
        }
        for op in 0..500 {
            reused.gate_nor(0, &[0, 1], &[2]);
            fresh.gate_nor(0, &[0, 1], &[2]);
            assert_eq!(reused.cell(0, 2), fresh.cell(0, 2), "op {op}");
        }
        for lane in 0..8 {
            assert_eq!(
                reused.injector().lane_log(lane),
                fresh.injector().lane_log(lane)
            );
        }
    }
}
