//! Systematic Hamming codes with explicit generator / parity-check matrices.
//!
//! The paper's ECiM design maintains Hamming parity bits *inside* the PiM
//! array: every gate output that lands in data position `j` of the codeword
//! must toggle exactly the parity bits selected by the `j`-th row of `Aᵀ`
//! (Equation 1 of the paper). [`HammingCode::parity_update_mask`] exposes
//! that row directly, which is what the in-memory parity-update pipeline
//! consumes; [`HammingCode::syndrome`] / [`HammingCode::decode`] implement
//! the external Checker's decoding step.
//!
//! The default configuration used in the evaluation is `Hamming(255, 247)`
//! (`n = 255`, `k = 247`, 8 parity bits), matching a 256-column PiM array
//! row; the illustrative SEP example of Fig. 6 uses `Hamming(7, 4)`.
//!
//! # Examples
//!
//! ```
//! use nvpim_ecc::hamming::{DecodeOutcome, HammingCode};
//! use nvpim_ecc::gf2::BitVec;
//!
//! let code = HammingCode::new_standard(3); // Hamming(7, 4)
//! let data = BitVec::from_u64(0b1011, 4);
//! let mut cw = code.encode(&data);
//! cw.flip(2); // single-bit error in a data position
//! assert_eq!(code.decode(&mut cw), DecodeOutcome::Corrected { position: 2 });
//! assert_eq!(code.extract_data(&cw), data);
//! ```

use std::collections::HashMap;
use std::fmt;

use crate::error::EccError;
use crate::gf2::{BitMatrix, BitVec};

/// Result of decoding a (possibly corrupted) codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecodeOutcome {
    /// The syndrome was zero: no error detected.
    Clean,
    /// A single-bit error was detected and corrected at `position`
    /// (codeword index; positions `< k` are data bits, the rest parity bits).
    Corrected {
        /// Codeword position that was flipped back.
        position: usize,
    },
    /// The syndrome was non-zero but did not match any single-bit error
    /// pattern. Only possible for shortened codes, where some syndromes are
    /// unreachable by single-bit flips; signals an uncorrectable error.
    Uncorrectable,
}

/// A systematic Hamming single-error-correcting code.
///
/// Codewords have layout `[data (k bits) | parity (n−k bits)]` with
/// `G = [I_k | Aᵀ]` and `H = [A | I_{n−k}]`.
#[derive(Clone)]
pub struct HammingCode {
    n: usize,
    k: usize,
    /// The (n−k) × k submatrix `A` from Equation 1.
    a: BitMatrix,
    /// Rows of `Aᵀ`: for data bit `j`, the set of parity bits it participates in.
    update_masks: Vec<BitVec>,
    /// Maps a non-zero syndrome (as integer) to the unique codeword position
    /// whose single-bit flip produces it.
    syndrome_to_position: HashMap<u64, usize>,
}

impl fmt::Debug for HammingCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HammingCode")
            .field("n", &self.n)
            .field("k", &self.k)
            .finish()
    }
}

impl HammingCode {
    /// Builds the standard `Hamming(2^r − 1, 2^r − 1 − r)` code.
    ///
    /// `r = 3` gives Hamming(7, 4); `r = 8` gives Hamming(255, 247), the
    /// configuration used throughout the paper's evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `r < 2` or `r > 16`.
    pub fn new_standard(r: usize) -> Self {
        assert!((2..=16).contains(&r), "r must be in 2..=16, got {r}");
        let n = (1usize << r) - 1;
        let k = n - r;
        Self::build(n, k, r)
    }

    /// Builds a (possibly shortened) systematic Hamming code protecting `k`
    /// data bits with the minimum number of parity bits `r` satisfying
    /// `2^r − 1 − r ≥ k`.
    ///
    /// # Errors
    ///
    /// Returns [`EccError::InvalidParameters`] if `k == 0`.
    pub fn with_data_bits(k: usize) -> Result<Self, EccError> {
        if k == 0 {
            return Err(EccError::InvalidParameters(
                "Hamming code requires at least one data bit".into(),
            ));
        }
        let mut r = 2usize;
        while (1usize << r) - 1 - r < k {
            r += 1;
        }
        Ok(Self::build(k + r, k, r))
    }

    /// Builds an `(n, k)` Hamming code.
    ///
    /// # Errors
    ///
    /// Returns [`EccError::InvalidParameters`] if the parameters cannot form
    /// a single-error-correcting Hamming code (i.e. `2^(n−k) − 1 < n`).
    pub fn new(n: usize, k: usize) -> Result<Self, EccError> {
        if k == 0 || n <= k {
            return Err(EccError::InvalidParameters(format!(
                "invalid Hamming parameters n={n}, k={k}"
            )));
        }
        let r = n - k;
        if r > 32 || ((1usize << r) - 1) < n {
            return Err(EccError::InvalidParameters(format!(
                "{r} parity bits cannot protect a length-{n} codeword"
            )));
        }
        Ok(Self::build(n, k, r))
    }

    fn build(n: usize, k: usize, r: usize) -> Self {
        // Columns of H for data positions: the first k values with Hamming
        // weight >= 2, in increasing numeric order. Parity positions use the
        // identity columns (weight-1 values).
        let mut data_cols = Vec::with_capacity(k);
        let mut value = 3u64;
        while data_cols.len() < k {
            if value.count_ones() >= 2 {
                data_cols.push(value);
            }
            value += 1;
        }
        let mut a = BitMatrix::zeros(r, k);
        for (j, &col) in data_cols.iter().enumerate() {
            for i in 0..r {
                if (col >> i) & 1 == 1 {
                    a.set(i, j, true);
                }
            }
        }
        let update_masks: Vec<BitVec> = (0..k).map(|j| a.column(j)).collect();
        let mut syndrome_to_position = HashMap::with_capacity(n);
        for (j, &col) in data_cols.iter().enumerate() {
            syndrome_to_position.insert(col, j);
        }
        for i in 0..r {
            syndrome_to_position.insert(1u64 << i, k + i);
        }
        Self {
            n,
            k,
            a,
            update_masks,
            syndrome_to_position,
        }
    }

    /// Codeword length `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of data bits `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of parity (check) bits `n − k`.
    pub fn parity_bits(&self) -> usize {
        self.n - self.k
    }

    /// The generator matrix `G = [I_k | Aᵀ]` (`k × n`).
    pub fn generator_matrix(&self) -> BitMatrix {
        BitMatrix::identity(self.k).hconcat(&self.a.transpose())
    }

    /// The parity-check matrix `H = [A | I_{n−k}]` (`(n−k) × n`).
    pub fn parity_check_matrix(&self) -> BitMatrix {
        self.a.hconcat(&BitMatrix::identity(self.n - self.k))
    }

    /// For data bit `j`, the parity bits that must be toggled when that data
    /// bit flips — i.e. the `j`-th row of `Aᵀ`. This is the quantity ECiM's
    /// in-memory parity-update pipeline consumes after every gate operation.
    ///
    /// # Panics
    ///
    /// Panics if `j >= k`.
    pub fn parity_update_mask(&self, j: usize) -> &BitVec {
        assert!(j < self.k, "data bit {j} out of range {}", self.k);
        &self.update_masks[j]
    }

    /// Number of parity bits affected by data bit `j` (the number of XOR
    /// updates ECiM performs for a gate output written to position `j`).
    ///
    /// # Panics
    ///
    /// Panics if `j >= k`.
    pub fn parity_updates_for_bit(&self, j: usize) -> usize {
        self.parity_update_mask(j).count_ones()
    }

    /// [`Self::parity_update_mask`] packed into a single `u64` word (bit
    /// `i` = parity bit `i`). Valid because a Hamming code never has more
    /// than 32 parity bits; this is the form the lane-parallel (bit-sliced)
    /// syndrome kernel consumes.
    ///
    /// # Panics
    ///
    /// Panics if `j >= k`.
    pub fn update_mask_word(&self, j: usize) -> u64 {
        self.parity_update_mask(j).words()[0]
    }

    /// The unique codeword position whose single-bit flip produces
    /// `syndrome`, or `None` when no single-bit error pattern matches (an
    /// uncorrectable syndrome — possible only for shortened codes). The
    /// zero syndrome also returns `None`: a clean word has no error
    /// position. This is the per-lane decode step of the sliced backend;
    /// [`Self::decode`] is the full-codeword variant.
    pub fn position_for_syndrome(&self, syndrome: u64) -> Option<usize> {
        self.syndrome_to_position.get(&syndrome).copied()
    }

    /// Encodes `data` into a systematic codeword `[data | parity]`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != k`.
    pub fn encode(&self, data: &BitVec) -> BitVec {
        assert_eq!(data.len(), self.k, "data length must equal k = {}", self.k);
        let parity = self.a.mul_vec(data);
        data.concat(&parity)
    }

    /// Computes the parity bits for `data` without forming the codeword.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != k`.
    pub fn parity_of(&self, data: &BitVec) -> BitVec {
        assert_eq!(data.len(), self.k, "data length must equal k = {}", self.k);
        self.a.mul_vec(data)
    }

    /// Computes the syndrome `H · codeword` of a received word.
    ///
    /// # Panics
    ///
    /// Panics if `codeword.len() != n`.
    pub fn syndrome(&self, codeword: &BitVec) -> BitVec {
        BitVec::from_u64(self.syndrome_value(codeword), self.n - self.k)
    }

    /// The syndrome as an integer (bit `i` = syndrome bit `i`), computed
    /// allocation-free: each syndrome bit is the parity of `A`-row AND
    /// codeword words (the `A` rows are `k` bits long with zeroed tails, so
    /// the AND masks out the parity region automatically) XOR the stored
    /// parity bit. This is the word-parallel path the ECiM Checker runs per
    /// logic level.
    ///
    /// # Panics
    ///
    /// Panics if `codeword.len() != n`.
    pub fn syndrome_value(&self, codeword: &BitVec) -> u64 {
        assert_eq!(
            codeword.len(),
            self.n,
            "codeword length must equal n = {}",
            self.n
        );
        let cw = codeword.words();
        let mut syndrome = 0u64;
        for i in 0..self.n - self.k {
            let row = self.a.row(i).words();
            let ones: u32 = row.iter().zip(cw).map(|(a, c)| (a & c).count_ones()).sum();
            let bit = (ones & 1 == 1) ^ codeword.get(self.k + i);
            syndrome |= u64::from(bit) << i;
        }
        syndrome
    }

    /// Decodes and corrects `codeword` in place (single-error correction).
    ///
    /// # Panics
    ///
    /// Panics if `codeword.len() != n`.
    pub fn decode(&self, codeword: &mut BitVec) -> DecodeOutcome {
        let syndrome = self.syndrome_value(codeword);
        if syndrome == 0 {
            return DecodeOutcome::Clean;
        }
        match self.syndrome_to_position.get(&syndrome) {
            Some(&position) => {
                codeword.flip(position);
                DecodeOutcome::Corrected { position }
            }
            None => DecodeOutcome::Uncorrectable,
        }
    }

    /// Extracts the data bits from a systematic codeword.
    ///
    /// # Panics
    ///
    /// Panics if `codeword.len() != n`.
    pub fn extract_data(&self, codeword: &BitVec) -> BitVec {
        assert_eq!(
            codeword.len(),
            self.n,
            "codeword length must equal n = {}",
            self.n
        );
        codeword.slice(0..self.k)
    }

    /// Number of errors the code can correct per codeword.
    pub fn correctable_errors(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_parameters() {
        let h74 = HammingCode::new_standard(3);
        assert_eq!((h74.n(), h74.k(), h74.parity_bits()), (7, 4, 3));
        let h255 = HammingCode::new_standard(8);
        assert_eq!((h255.n(), h255.k(), h255.parity_bits()), (255, 247, 8));
    }

    #[test]
    fn with_data_bits_picks_minimum_parity() {
        let code = HammingCode::with_data_bits(4).unwrap();
        assert_eq!((code.n(), code.k()), (7, 4));
        let code = HammingCode::with_data_bits(11).unwrap();
        assert_eq!((code.n(), code.k()), (15, 11));
        let code = HammingCode::with_data_bits(100).unwrap();
        assert_eq!(code.parity_bits(), 7);
        assert!(HammingCode::with_data_bits(0).is_err());
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(HammingCode::new(7, 0).is_err());
        assert!(HammingCode::new(4, 4).is_err());
        assert!(HammingCode::new(20, 17).is_err()); // 3 parity bits can't cover 20
        assert!(HammingCode::new(255, 247).is_ok());
    }

    #[test]
    fn gh_orthogonality() {
        for r in [3usize, 4, 5] {
            let code = HammingCode::new_standard(r);
            let g = code.generator_matrix();
            let h = code.parity_check_matrix();
            // H * Gᵀ must be the zero matrix.
            assert!(h.mul(&g.transpose()).is_zero(), "H·Gᵀ != 0 for r={r}");
        }
    }

    #[test]
    fn encode_zero_syndrome() {
        let code = HammingCode::new_standard(4);
        for value in [0u64, 1, 0b101_0101_0101, 0x7FF] {
            let data = BitVec::from_u64(value, code.k());
            let cw = code.encode(&data);
            assert!(code.syndrome(&cw).is_zero());
            assert_eq!(code.extract_data(&cw), data);
        }
    }

    #[test]
    fn corrects_every_single_bit_error_h74() {
        let code = HammingCode::new_standard(3);
        let data = BitVec::from_u64(0b1011, 4);
        let clean = code.encode(&data);
        for pos in 0..code.n() {
            let mut corrupted = clean.clone();
            corrupted.flip(pos);
            let outcome = code.decode(&mut corrupted);
            assert_eq!(outcome, DecodeOutcome::Corrected { position: pos });
            assert_eq!(corrupted, clean);
        }
    }

    #[test]
    fn corrects_every_single_bit_error_h255() {
        let code = HammingCode::new_standard(8);
        let data: BitVec = (0..code.k()).map(|i| i % 3 == 0).collect();
        let clean = code.encode(&data);
        for pos in (0..code.n()).step_by(17).chain([0, 254]) {
            let mut corrupted = clean.clone();
            corrupted.flip(pos);
            assert_eq!(
                code.decode(&mut corrupted),
                DecodeOutcome::Corrected { position: pos }
            );
            assert_eq!(corrupted, clean);
        }
    }

    #[test]
    fn clean_codeword_reports_clean() {
        let code = HammingCode::new_standard(5);
        let data: BitVec = (0..code.k()).map(|i| i % 2 == 1).collect();
        let mut cw = code.encode(&data);
        assert_eq!(code.decode(&mut cw), DecodeOutcome::Clean);
    }

    #[test]
    fn parity_update_mask_matches_encode_delta() {
        // Flipping data bit j changes the parity exactly by the update mask.
        let code = HammingCode::new_standard(4);
        let data = BitVec::zeros(code.k());
        let base_parity = code.parity_of(&data);
        for j in 0..code.k() {
            let mut flipped = data.clone();
            flipped.flip(j);
            let delta = code.parity_of(&flipped).xor(&base_parity);
            assert_eq!(&delta, code.parity_update_mask(j), "bit {j}");
            assert!(code.parity_updates_for_bit(j) >= 2);
            assert!(code.parity_updates_for_bit(j) <= code.parity_bits());
        }
    }

    #[test]
    fn shortened_code_round_trip() {
        let code = HammingCode::new(12, 8).unwrap();
        let data = BitVec::from_u64(0b1100_1010, 8);
        let clean = code.encode(&data);
        for pos in 0..code.n() {
            let mut corrupted = clean.clone();
            corrupted.flip(pos);
            assert_eq!(
                code.decode(&mut corrupted),
                DecodeOutcome::Corrected { position: pos }
            );
        }
    }

    #[test]
    fn syndrome_positions_match_decode_for_every_single_bit_error() {
        for code in [
            HammingCode::new_standard(3),
            HammingCode::with_data_bits(64).unwrap(),
        ] {
            let data: BitVec = (0..code.k()).map(|i| i % 5 == 2).collect();
            let clean = code.encode(&data);
            assert_eq!(code.position_for_syndrome(0), None, "zero syndrome");
            for pos in 0..code.n() {
                let mut corrupted = clean.clone();
                corrupted.flip(pos);
                let syndrome = code.syndrome_value(&corrupted);
                assert_eq!(
                    code.position_for_syndrome(syndrome),
                    Some(pos),
                    "n={} pos={pos}",
                    code.n()
                );
            }
        }
    }

    #[test]
    fn update_mask_words_match_the_bitvec_masks() {
        let code = HammingCode::new_standard(8);
        for j in [0usize, 1, 100, code.k() - 1] {
            let word = code.update_mask_word(j);
            let mask = code.parity_update_mask(j);
            for i in 0..code.parity_bits() {
                assert_eq!((word >> i) & 1 == 1, mask.get(i), "bit {j} parity {i}");
            }
        }
    }

    #[test]
    fn double_error_not_silently_accepted_as_clean() {
        let code = HammingCode::new_standard(3);
        let data = BitVec::from_u64(0b0110, 4);
        let clean = code.encode(&data);
        let mut corrupted = clean.clone();
        corrupted.flip(0);
        corrupted.flip(3);
        // A double error must never decode to "Clean" (distance-3 code).
        assert_ne!(code.decode(&mut corrupted), DecodeOutcome::Clean);
    }
}
