//! The PiM memory array: a grid of nonvolatile cells that stores data *and*
//! executes Boolean gates in place (§II-A, Fig. 1).
//!
//! Each gate operation names a row, a set of input columns and one or more
//! output columns within that row. Execution follows the hardware semantics:
//! the output cells are preset, the control lines are biased, and the outputs
//! switch according to the gate's thresholding function of the input cells'
//! resistance states. Reads and writes go through the array interface (one
//! row-interface transaction at a time), which is what the paper's Checker
//! communication competes with.
//!
//! Faults follow [`crate::fault`]: gate outputs may flip, stuck-at defects
//! pin every store, and reads sense the stored value exactly.

use nvpim_ecc::gf2::BitVec;

use crate::fault::FaultInjector;
use crate::gates::GateKind;
use crate::technology::Technology;

/// Errors raised by array operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArrayError {
    /// A row or column index exceeded the array dimensions.
    OutOfBounds {
        /// Offending row.
        row: usize,
        /// Offending column.
        col: usize,
    },
    /// The number of output columns does not match the gate kind.
    OutputArityMismatch {
        /// Outputs the gate kind drives.
        expected: usize,
        /// Outputs supplied.
        got: usize,
    },
}

impl std::fmt::Display for ArrayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArrayError::OutOfBounds { row, col } => {
                write!(f, "cell ({row}, {col}) is outside the array")
            }
            ArrayError::OutputArityMismatch { expected, got } => {
                write!(f, "gate drives {expected} outputs but {got} were supplied")
            }
        }
    }
}

impl std::error::Error for ArrayError {}

/// A nonvolatile PiM array of `rows × cols` cells.
///
/// Cell logic values are bit-packed into `u64` words, row-major
/// (`cols.div_ceil(64)` words per row): a 256×256 array is 8 KiB of words
/// instead of 64 KiB of `bool`s, resets with a `fill(0)` memset, and exposes
/// word-level row read/write/compare paths for the ECC layer's word-parallel
/// kernels. Bits beyond `cols` in each row's last word are always zero.
#[derive(Debug, Clone)]
pub struct PimArray {
    technology: Technology,
    rows: usize,
    cols: usize,
    words_per_row: usize,
    /// Packed logic values of the cells, row-major.
    words: Vec<u64>,
    injector: FaultInjector,
}

impl PimArray {
    /// Creates an array with all cells holding logic 0 and fault injection
    /// disabled.
    pub fn new(technology: Technology, rows: usize, cols: usize) -> Self {
        let words_per_row = cols.div_ceil(64);
        Self {
            technology,
            rows,
            cols,
            words_per_row,
            words: vec![0; rows * words_per_row],
            injector: FaultInjector::disabled(),
        }
    }

    /// The 256×256 array used throughout the paper's evaluation.
    pub fn standard(technology: Technology) -> Self {
        Self::new(technology, 256, 256)
    }

    /// Replaces the fault injector.
    pub fn with_fault_injector(mut self, injector: FaultInjector) -> Self {
        self.injector = injector;
        self
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The array's technology.
    pub fn technology(&self) -> Technology {
        self.technology
    }

    /// Access to the fault injector (e.g. to read the fault log).
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// Mutable access to the fault injector.
    pub fn fault_injector_mut(&mut self) -> &mut FaultInjector {
        &mut self.injector
    }

    /// Word index and bit mask of cell (`row`, `col`), bounds-checked.
    #[inline]
    fn locate(&self, row: usize, col: usize) -> Result<(usize, u64), ArrayError> {
        if row >= self.rows || col >= self.cols {
            Err(ArrayError::OutOfBounds { row, col })
        } else {
            Ok((row * self.words_per_row + col / 64, 1u64 << (col % 64)))
        }
    }

    #[inline]
    fn store(&mut self, word: usize, mask: u64, value: bool) {
        if value {
            self.words[word] |= mask;
        } else {
            self.words[word] &= !mask;
        }
    }

    /// Reads a cell's logic value: the one read primitive, used by gate
    /// execution, the Checker's transfers and output read-back alike.
    pub fn peek(&self, row: usize, col: usize) -> Result<bool, ArrayError> {
        let (word, mask) = self.locate(row, col)?;
        Ok(self.words[word] & mask != 0)
    }

    /// Writes a cell's logic value without fault injection. Used to initialize test fixtures and load input data that
    /// is assumed already resident (the paper's inputs live in the array).
    pub fn poke(&mut self, row: usize, col: usize, value: bool) -> Result<(), ArrayError> {
        let (word, mask) = self.locate(row, col)?;
        self.store(word, mask, value);
        Ok(())
    }

    /// Loads a whole row of logic values without fault injection — a
    /// word-level copy, not a per-bit loop.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != cols`.
    pub fn load_row(&mut self, row: usize, values: &BitVec) -> Result<(), ArrayError> {
        assert_eq!(values.len(), self.cols, "row load must cover every column");
        if row >= self.rows {
            return Err(ArrayError::OutOfBounds { row, col: 0 });
        }
        let base = row * self.words_per_row;
        self.words[base..base + self.words_per_row].copy_from_slice(values.words());
        Ok(())
    }

    /// The packed words backing one row (bit `c` of the row is word `c / 64`,
    /// bit `c % 64`; bits beyond `cols` are zero).
    pub fn row_words(&self, row: usize) -> Result<&[u64], ArrayError> {
        if row >= self.rows {
            return Err(ArrayError::OutOfBounds { row, col: 0 });
        }
        let base = row * self.words_per_row;
        Ok(&self.words[base..base + self.words_per_row])
    }

    /// Word-level row compare: whether rows `a` and `b` hold identical bits.
    pub fn rows_equal(&self, a: usize, b: usize) -> Result<bool, ArrayError> {
        Ok(self.row_words(a)? == self.row_words(b)?)
    }

    /// Writes a cell: the one store primitive (data loads, Checker
    /// write-backs). A store takes no transient fault decision and consumes
    /// no RNG state, but a permanent stuck-at defect still pins the cell.
    pub fn write_cell(&mut self, row: usize, col: usize, value: bool) -> Result<(), ArrayError> {
        let (word, mask) = self.locate(row, col)?;
        let stored = self.injector.pin(row, col, value);
        self.store(word, mask, stored);
        Ok(())
    }

    /// Reads `cols.len()` cells of a row through the interface as one
    /// transaction (what a Checker transfer uses).
    pub fn read_bits(&mut self, row: usize, cols: &[usize]) -> Result<BitVec, ArrayError> {
        let mut out = BitVec::zeros(cols.len());
        self.read_bits_into(row, cols, &mut out)?;
        Ok(out)
    }

    /// [`Self::read_bits`] into a caller-owned buffer (resized in place), so
    /// steady-state Checker transfers allocate nothing.
    pub fn read_bits_into(
        &mut self,
        row: usize,
        cols: &[usize],
        out: &mut BitVec,
    ) -> Result<(), ArrayError> {
        out.clear_resize(cols.len());
        // Accumulate sensed bits 64 at a time instead of per-bit set calls.
        let mut acc = 0u64;
        for (i, &col) in cols.iter().enumerate() {
            acc |= u64::from(self.peek(row, col)?) << (i % 64);
            if i % 64 == 63 {
                out.set_word(i / 64, acc);
                acc = 0;
            }
        }
        if !cols.len().is_multiple_of(64) {
            out.set_word(cols.len() / 64, acc);
        }
        Ok(())
    }

    /// Presets a contiguous range of columns in `row` to `value` as one
    /// row-parallel write transaction (the partition-parallel preset the
    /// paper's metadata pipeline and area-reclaim paths use).
    ///
    /// A pure word-mask operation, unless the trial has stuck-at defects:
    /// then each cell is stored like [`Self::write_cell`], so stuck cells
    /// keep their pinned values.
    pub fn preset_cells(
        &mut self,
        row: usize,
        cols: std::ops::Range<usize>,
        value: bool,
    ) -> Result<(), ArrayError> {
        if cols.is_empty() {
            return Ok(());
        }
        // Validate both endpoints up front.
        let (first_word, _) = self.locate(row, cols.start)?;
        let (last_word, _) = self.locate(row, cols.end - 1)?;
        if self.injector.has_defects() {
            for col in cols {
                self.write_cell(row, col, value)?;
            }
        } else {
            let start_bit = cols.start % 64;
            let end_bit = (cols.end - 1) % 64 + 1;
            for word in first_word..=last_word {
                let lo = if word == first_word { start_bit } else { 0 };
                let hi = if word == last_word { end_bit } else { 64 };
                let mask = (u64::MAX >> (64 - (hi - lo))) << lo;
                if value {
                    self.words[word] |= mask;
                } else {
                    self.words[word] &= !mask;
                }
            }
        }
        Ok(())
    }

    /// Writes `values.len()` cells of a row through the interface as one
    /// transaction (what a Checker correction write-back uses).
    pub fn write_bits(
        &mut self,
        row: usize,
        cols: &[usize],
        values: &BitVec,
    ) -> Result<(), ArrayError> {
        assert_eq!(cols.len(), values.len(), "column/value count mismatch");
        for (i, &col) in cols.iter().enumerate() {
            self.write_cell(row, col, values.get(i))?;
        }
        Ok(())
    }

    /// Executes one in-array gate operation in `row`, returning the value the
    /// output cells ended up holding (after any injected fault). Inputs and
    /// outputs are column slices, so a run allocates nothing per gate.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::OutputArityMismatch`] if the number of output
    /// columns disagrees with the gate kind, or [`ArrayError::OutOfBounds`]
    /// for invalid cell coordinates.
    pub fn execute_gate_with(
        &mut self,
        kind: GateKind,
        row: usize,
        inputs: &[usize],
        outputs: &[usize],
    ) -> Result<bool, ArrayError> {
        if outputs.len() != kind.output_count() {
            return Err(ArrayError::OutputArityMismatch {
                expected: kind.output_count(),
                got: outputs.len(),
            });
        }
        // Gather input logic values (in-array: no sensing cost) into a stack
        // buffer — gates have at most 4 inputs in practice, so the heap
        // fallback is effectively dead code kept for safety.
        let mut input_buf = [false; 8];
        let mut input_overflow;
        let input_values: &[bool] = if inputs.len() <= input_buf.len() {
            for (slot, &col) in input_buf.iter_mut().zip(inputs) {
                *slot = self.peek(row, col)?;
            }
            &input_buf[..inputs.len()]
        } else {
            input_overflow = Vec::with_capacity(inputs.len());
            for &col in inputs {
                input_overflow.push(self.peek(row, col)?);
            }
            &input_overflow
        };
        let ideal = kind.evaluate(input_values);
        let preset = kind.preset_value();
        // Preset, then switch each output cell independently; faults are per
        // output.
        let mut first_output_value = ideal;
        for (i, &col) in outputs.iter().enumerate() {
            let (word, mask) = self.locate(row, col)?;
            self.store(word, mask, preset);
            let value = self.injector.apply_gate(row, col, ideal);
            self.store(word, mask, value);
            if i == 0 {
                first_output_value = value;
            }
        }
        Ok(first_output_value)
    }

    /// Executes the paper's two-step in-array XOR (`NOR22` then `THR`,
    /// Table I) as one fused call: `s1 = s2 = NOR(a, b)` followed by
    /// `dst = THR(a, b, s1, s2) = a XOR b`.
    ///
    /// Semantically identical to two [`Self::execute_gate_with`] calls —
    /// same fault-injection sites in the same order (s1, s2, then dst) —
    /// but without re-sensing `s1`/`s2` for the THR
    /// step, since their post-fault values are already in hand. This is
    /// ECiM's parity-fold primitive and dominates the Monte Carlo gate-op
    /// count, hence the dedicated path.
    pub fn execute_xor2_step(
        &mut self,
        row: usize,
        a_col: usize,
        b_col: usize,
        s1_col: usize,
        s2_col: usize,
        dst_col: usize,
    ) -> Result<bool, ArrayError> {
        let a = self.peek(row, a_col)?;
        let b = self.peek(row, b_col)?;
        // Step 1: NOR22 into the working cells.
        let nor = !(a | b);
        let (s1_word, s1_mask) = self.locate(row, s1_col)?;
        let s1 = self.injector.apply_gate(row, s1_col, nor);
        self.store(s1_word, s1_mask, s1);
        let (s2_word, s2_mask) = self.locate(row, s2_col)?;
        let s2 = self.injector.apply_gate(row, s2_col, nor);
        self.store(s2_word, s2_mask, s2);
        // Step 2: THR over (a, b, s1, s2).
        let zeros = u32::from(!a) + u32::from(!b) + u32::from(!s1) + u32::from(!s2);
        let thr = zeros >= 3;
        let (dst_word, dst_mask) = self.locate(row, dst_col)?;
        let out = self.injector.apply_gate(row, dst_col, thr);
        self.store(dst_word, dst_mask, out);
        Ok(out)
    }

    /// Returns a whole row's logic values (debugging/validation).
    /// A word-level copy of the packed row.
    pub fn snapshot_row(&self, row: usize) -> Result<BitVec, ArrayError> {
        Ok(BitVec::from_words(self.row_words(row)?.to_vec(), self.cols))
    }

    /// Resets the array in place for a fresh Monte Carlo trial: every cell
    /// back to logic 0 (one memset over the packed words) and the fault
    /// injector re-seeded with `rates`/`seed`.
    ///
    /// Steady-state trial loops call this instead of allocating a new array;
    /// a reset array is observationally identical to a freshly constructed
    /// one (the arena-purity tests in `nvpim-sweep` assert this bit for
    /// bit). The technology is switched too, so one arena serves campaign
    /// points of different technologies.
    pub fn reset_for_trial(
        &mut self,
        technology: Technology,
        rates: crate::fault::ErrorRates,
        seed: u64,
    ) {
        self.technology = technology;
        self.words.fill(0);
        self.injector.reset(rates, seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ErrorRates;

    #[test]
    fn poke_peek_roundtrip_and_bounds() {
        let mut a = PimArray::new(Technology::SttMram, 4, 8);
        a.poke(2, 3, true).unwrap();
        assert!(a.peek(2, 3).unwrap());
        assert!(!a.peek(0, 0).unwrap());
        assert_eq!(
            a.poke(4, 0, true),
            Err(ArrayError::OutOfBounds { row: 4, col: 0 })
        );
        assert_eq!(
            a.peek(0, 8),
            Err(ArrayError::OutOfBounds { row: 0, col: 8 })
        );
    }

    #[test]
    fn standard_array_is_256x256() {
        let a = PimArray::standard(Technology::ReRam);
        assert_eq!((a.rows(), a.cols()), (256, 256));
    }

    #[test]
    fn nor_gate_executes_truth_table_in_array() {
        let mut a = PimArray::new(Technology::SttMram, 1, 8);
        for (x, y, expected) in [
            (false, false, true),
            (false, true, false),
            (true, false, false),
            (true, true, false),
        ] {
            a.poke(0, 0, x).unwrap();
            a.poke(0, 1, y).unwrap();
            let out = a
                .execute_gate_with(GateKind::NOR2, 0, &[0, 1], &[2])
                .unwrap();
            assert_eq!(out, expected);
            assert_eq!(a.peek(0, 2).unwrap(), expected);
        }
    }

    #[test]
    fn nor22_writes_both_outputs() {
        let mut a = PimArray::new(Technology::SotSheMram, 1, 8);
        a.poke(0, 0, false).unwrap();
        a.poke(0, 1, false).unwrap();
        assert!(a
            .execute_gate_with(GateKind::NOR22, 0, &[0, 1], &[3, 6])
            .unwrap());
        assert!(a.peek(0, 3).unwrap());
        assert!(a.peek(0, 6).unwrap());
    }

    #[test]
    fn output_arity_mismatch_detected() {
        let mut a = PimArray::new(Technology::SttMram, 1, 8);
        assert_eq!(
            a.execute_gate_with(GateKind::NOR22, 0, &[0, 1], &[2]),
            Err(ArrayError::OutputArityMismatch {
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn two_step_xor_in_array_matches_boolean_xor() {
        for x in [false, true] {
            for y in [false, true] {
                let mut a = PimArray::new(Technology::SttMram, 1, 8);
                a.poke(0, 0, x).unwrap();
                a.poke(0, 1, y).unwrap();
                // s1 = s2 = NOR22(a, b) into cols 2 and 3
                a.execute_gate_with(GateKind::NOR22, 0, &[0, 1], &[2, 3])
                    .unwrap();
                // out = THR(a, b, s1, s2) into col 4
                let out = a
                    .execute_gate_with(GateKind::THR, 0, &[0, 1, 2, 3], &[4])
                    .unwrap();
                assert_eq!(out, x ^ y, "({x}, {y})");
            }
        }
    }

    #[test]
    fn gate_faults_flip_output() {
        let mut a =
            PimArray::new(Technology::SttMram, 1, 4).with_fault_injector(FaultInjector::new(
                ErrorRates {
                    gate: 1.0,
                    ..ErrorRates::NONE
                },
                11,
            ));
        a.poke(0, 0, false).unwrap();
        a.poke(0, 1, false).unwrap();
        let out = a
            .execute_gate_with(GateKind::NOR2, 0, &[0, 1], &[2])
            .unwrap();
        assert!(
            !out,
            "NOR(0,0)=1 must be flipped to 0 by the injected fault"
        );
    }

    #[test]
    fn snapshot_row_reflects_loads() {
        let mut a = PimArray::new(Technology::ReRam, 2, 8);
        let row: BitVec = (0..8).map(|i| i % 2 == 0).collect();
        a.load_row(1, &row).unwrap();
        assert_eq!(a.snapshot_row(1).unwrap(), row);
    }

    #[test]
    fn packed_rows_expose_word_level_read_write_compare() {
        let mut a = PimArray::new(Technology::SttMram, 3, 200);
        let pattern: BitVec = (0..200).map(|i| (i * 13) % 7 < 3).collect();
        a.load_row(0, &pattern).unwrap();
        a.load_row(2, &pattern).unwrap();
        // Word-level row access matches the BitVec's packed words exactly.
        assert_eq!(a.row_words(0).unwrap(), pattern.words());
        assert!(a.rows_equal(0, 2).unwrap());
        assert!(!a.rows_equal(0, 1).unwrap());
        a.poke(2, 199, !pattern.get(199)).unwrap();
        assert!(!a.rows_equal(0, 2).unwrap());
        assert!(a.row_words(3).is_err());
        // A Checker-style transfer: one multi-cell write, read back intact.
        let cols: Vec<usize> = (0..8).collect();
        a.write_bits(1, &cols, &BitVec::from_u64(0xA5, 8)).unwrap();
        assert_eq!(a.read_bits(1, &cols).unwrap().to_u64(), 0xA5);
    }

    #[test]
    fn preset_cells_is_equivalent_to_per_cell_writes() {
        let mut a = PimArray::new(Technology::ReRam, 1, 130);
        for col in 0..130 {
            a.poke(0, col, true).unwrap();
        }
        a.preset_cells(0, 3..97, false).unwrap();
        let mut b = PimArray::new(Technology::ReRam, 1, 130);
        for col in 0..130 {
            b.poke(0, col, true).unwrap();
        }
        for col in 3..97 {
            b.write_cell(0, col, false).unwrap();
        }
        assert_eq!(a.snapshot_row(0).unwrap(), b.snapshot_row(0).unwrap());
    }

    #[test]
    fn fused_xor_step_matches_two_gate_calls() {
        for x in [false, true] {
            for y in [false, true] {
                let mut fused = PimArray::new(Technology::SttMram, 1, 8);
                fused.poke(0, 0, x).unwrap();
                fused.poke(0, 1, y).unwrap();
                let out = fused.execute_xor2_step(0, 0, 1, 2, 3, 4).unwrap();
                assert_eq!(out, x ^ y, "({x}, {y})");

                let mut generic = PimArray::new(Technology::SttMram, 1, 8);
                generic.poke(0, 0, x).unwrap();
                generic.poke(0, 1, y).unwrap();
                generic
                    .execute_gate_with(GateKind::NOR22, 0, &[0, 1], &[2, 3])
                    .unwrap();
                generic
                    .execute_gate_with(GateKind::THR, 0, &[0, 1, 2, 3], &[4])
                    .unwrap();
                assert_eq!(
                    fused.snapshot_row(0).unwrap(),
                    generic.snapshot_row(0).unwrap()
                );
            }
        }
    }

    #[test]
    fn fused_xor_step_consumes_the_same_fault_stream_as_two_gate_calls() {
        // With gate faults enabled, the fused path must draw the injector
        // in the same order (s1, s2, dst) as the two-gate sequence.
        let rates = ErrorRates {
            gate: 0.5,
            ..ErrorRates::NONE
        };
        for seed in 0..20u64 {
            let mut fused = PimArray::new(Technology::SttMram, 1, 8)
                .with_fault_injector(FaultInjector::new(rates, seed));
            fused.poke(0, 0, true).unwrap();
            fused.execute_xor2_step(0, 0, 1, 2, 3, 4).unwrap();

            let mut generic = PimArray::new(Technology::SttMram, 1, 8)
                .with_fault_injector(FaultInjector::new(rates, seed));
            generic.poke(0, 0, true).unwrap();
            generic
                .execute_gate_with(GateKind::NOR22, 0, &[0, 1], &[2, 3])
                .unwrap();
            generic
                .execute_gate_with(GateKind::THR, 0, &[0, 1, 2, 3], &[4])
                .unwrap();

            assert_eq!(
                fused.snapshot_row(0).unwrap(),
                generic.snapshot_row(0).unwrap(),
                "seed {seed}"
            );
            assert_eq!(
                fused.fault_injector().log(),
                generic.fault_injector().log(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn stuck_cells_pin_every_store_path_but_not_pokes() {
        let rates = ErrorRates::NONE.with_stuck_at(0.15);
        let mut a = PimArray::new(Technology::ReramCrossbar, 2, 128)
            .with_fault_injector(FaultInjector::new(rates, 0xABCD));
        let mut checked_defect = false;
        for col in 0..128 {
            let stuck = a.fault_injector().stuck_value(0, col);
            // Rewriting cannot repair broken cells, whichever value lands.
            for value in [true, false] {
                a.write_cell(0, col, value).unwrap();
                assert_eq!(a.peek(0, col).unwrap(), stuck.unwrap_or(value), "col {col}");
            }
            checked_defect |= stuck.is_some();
        }
        assert!(
            checked_defect,
            "density 0.15 over 128 cells must hit defects"
        );
        // Presets take the per-cell path and respect the defect map.
        a.preset_cells(0, 0..128, true).unwrap();
        for col in 0..128 {
            let stuck = a.fault_injector().stuck_value(0, col);
            assert_eq!(a.peek(0, col).unwrap(), stuck.unwrap_or(true));
        }
        // Raw pokes bypass the defect model (test-fixture loads).
        let defect_col = (0..128)
            .find(|&c| a.fault_injector().stuck_value(0, c) == Some(false))
            .expect("an SA0 cell exists at this density");
        a.poke(0, defect_col, true).unwrap();
        assert!(a.peek(0, defect_col).unwrap());
    }

    #[test]
    fn gate_outputs_land_on_stuck_cells_pinned() {
        let rates = ErrorRates::NONE.with_stuck_at(1.0);
        let mut a = PimArray::new(Technology::ReramCrossbar, 1, 8)
            .with_fault_injector(FaultInjector::new(rates, 7));
        let stuck = a.fault_injector().stuck_value(0, 2).unwrap();
        a.execute_gate_with(GateKind::NOR2, 0, &[0, 1], &[2])
            .unwrap();
        assert_eq!(a.peek(0, 2).unwrap(), stuck);
    }

    #[test]
    fn reset_for_trial_restores_a_pristine_array() {
        let rates = ErrorRates {
            gate: 0.1,
            ..ErrorRates::NONE
        };
        let mut reused = PimArray::new(Technology::SttMram, 4, 64)
            .with_fault_injector(FaultInjector::new(rates, 1));
        // Dirty it thoroughly.
        for col in 0..64 {
            reused.write_cell(2, col, true).unwrap();
        }
        reused
            .execute_gate_with(GateKind::NOR2, 1, &[0, 1], &[2])
            .unwrap();
        // Reset must match a freshly built array in contents and fault
        // stream — including a switch to another technology.
        reused.reset_for_trial(Technology::ReRam, rates, 42);
        let mut fresh = PimArray::new(Technology::ReRam, 4, 64)
            .with_fault_injector(FaultInjector::new(rates, 42));
        assert_eq!(reused.technology(), Technology::ReRam);
        for row in 0..4 {
            assert_eq!(
                reused.snapshot_row(row).unwrap(),
                fresh.snapshot_row(row).unwrap()
            );
        }
        for i in 0..200 {
            assert_eq!(
                reused
                    .execute_gate_with(GateKind::NOR2, 0, &[0, 1], &[2])
                    .unwrap(),
                fresh
                    .execute_gate_with(GateKind::NOR2, 0, &[0, 1], &[2])
                    .unwrap(),
                "op {i}"
            );
        }
        assert_eq!(reused.fault_injector().log(), fresh.fault_injector().log());
    }
}
