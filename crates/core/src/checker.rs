//! The external Checker block (§IV-B, Fig. 3).
//!
//! Checkers are small, hardened logic blocks sitting outside (but near) each
//! PiM array. They receive, at logic-level granularity, the level's
//! computation results plus metadata — parity bits for ECiM, two redundant
//! copies for TRiM — through conventional memory reads, detect errors
//! (syndrome computation / majority vote), and send corrected data back to
//! the array through a write.
//!
//! The paper sizes the Checker with the NanGate 45 nm library and OpenROAD;
//! offline, [`CheckerCostModel`] substitutes a gate-count based area, energy
//! and latency model with per-operation costs in the same regime.

use nvpim_ecc::gf2::BitVec;
use nvpim_ecc::hamming::{DecodeOutcome, HammingCode};
use serde::{Deserialize, Serialize};

/// Outcome of one lean (allocation-free) ECiM level decode; see
/// [`EcimChecker::decode_level`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelDecode {
    /// Zero syndrome — nothing to write back.
    Clean,
    /// A single-bit error in data position `position` of the level: the
    /// caller flips that bit in the array.
    CorrectedData {
        /// Position within the level's data bits.
        position: usize,
    },
    /// A single-bit error in an unused data position or a parity bit —
    /// detected and corrected, but no data write-back is needed.
    CorrectedMeta,
    /// The syndrome matched no single-bit pattern (shortened codes only).
    Uncorrectable,
}

/// The ECiM Checker: a hardwired Hamming syndrome decoder plus a correction
/// XOR stage.
///
/// Borrows its [`HammingCode`] so per-run construction is free — the
/// Monte Carlo sweep builds one checker per trial, and cloning the code's
/// syndrome table there would dominate the hot path.
#[derive(Debug, Clone)]
pub struct EcimChecker<'a> {
    code: &'a HammingCode,
    checks: u64,
    /// Reusable codeword assembly buffer for [`Self::decode_level`].
    codeword: BitVec,
}

impl<'a> EcimChecker<'a> {
    /// Builds a checker for the given Hamming code.
    pub fn new(code: &'a HammingCode) -> Self {
        Self {
            code,
            checks: 0,
            codeword: BitVec::default(),
        }
    }

    /// Logic-level decode: `data` holds the level's gate outputs (at most
    /// `k` bits; shorter vectors are implicitly zero-padded, matching unused
    /// codeword positions), `parity` the in-memory running parity bits.
    /// Assembles `[data | padding | parity]` into an internal reusable
    /// buffer, decodes, and reports just what the executor needs to act (at
    /// most one write-back position for a single-error code). The steady
    /// state allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `data` exceeds `k` bits or `parity` is not `n − k` bits.
    pub fn decode_level(&mut self, data: &BitVec, parity: &BitVec) -> LevelDecode {
        assert!(
            data.len() <= self.code.k(),
            "level data ({}) exceeds code dimension k = {}",
            data.len(),
            self.code.k()
        );
        assert_eq!(
            parity.len(),
            self.code.parity_bits(),
            "parity width must match the code"
        );
        self.checks += 1;
        self.codeword.clear_resize(self.code.n());
        self.codeword.or_range(0, data);
        self.codeword.or_range(self.code.k(), parity);
        match self.code.decode(&mut self.codeword) {
            DecodeOutcome::Clean => LevelDecode::Clean,
            DecodeOutcome::Corrected { position } => {
                if position < data.len() {
                    LevelDecode::CorrectedData { position }
                } else {
                    LevelDecode::CorrectedMeta
                }
            }
            DecodeOutcome::Uncorrectable => LevelDecode::Uncorrectable,
        }
    }

    /// Lane-parallel logic-level decode for the sliced backend: the level's
    /// data and parity bits arrive *transposed* — `data_words[j]` holds
    /// codeword position `j` across 64 trials (one per bit lane),
    /// `parity_words[i]` holds parity bit `i` likewise. The syndrome is
    /// evaluated for all lanes at once by folding each position's
    /// parity-update column over its lane word; `on_lane` is invoked (in
    /// ascending lane order) only for lanes whose syndrome is non-zero,
    /// with exactly the [`LevelDecode`] the scalar
    /// [`Self::decode_level`] would return for that lane's bits. Counts one
    /// check (the Checker block decodes all lanes in one invocation per
    /// trial, mirroring the scalar one-check-per-level accounting).
    ///
    /// Almost every lane is clean at paper-regime rates, so the per-lane
    /// scalar work runs on a handful of lanes per campaign.
    ///
    /// # Panics
    ///
    /// Panics if `data_words` exceeds the code dimension or `parity_words`
    /// is not `n − k` words.
    pub fn decode_level_lanes(
        &mut self,
        data_words: &[u64],
        parity_words: &[u64],
        valid: u64,
        syndrome: &mut Vec<u64>,
        mut on_lane: impl FnMut(usize, LevelDecode),
    ) {
        assert!(
            data_words.len() <= self.code.k(),
            "level data ({}) exceeds code dimension k = {}",
            data_words.len(),
            self.code.k()
        );
        assert_eq!(
            parity_words.len(),
            self.code.parity_bits(),
            "parity width must match the code"
        );
        self.checks += 1;
        syndrome.clear();
        syndrome.resize(parity_words.len(), 0);
        for (j, &word) in data_words.iter().enumerate() {
            if word == 0 {
                continue;
            }
            let mut mask = self.code.update_mask_word(j);
            while mask != 0 {
                let i = mask.trailing_zeros() as usize;
                syndrome[i] ^= word;
                mask &= mask - 1;
            }
        }
        let mut nonzero = 0u64;
        for (s, &p) in syndrome.iter_mut().zip(parity_words) {
            *s ^= p;
            nonzero |= *s;
        }
        let mut pending = nonzero & valid;
        while pending != 0 {
            let lane = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            let mut value = 0u64;
            for (i, &s) in syndrome.iter().enumerate() {
                value |= ((s >> lane) & 1) << i;
            }
            let outcome = match self.code.position_for_syndrome(value) {
                Some(position) if position < data_words.len() => {
                    LevelDecode::CorrectedData { position }
                }
                Some(_) => LevelDecode::CorrectedMeta,
                None => LevelDecode::Uncorrectable,
            };
            on_lane(lane, outcome);
        }
    }

    /// Number of checks performed.
    pub fn checks(&self) -> u64 {
        self.checks
    }
}

/// The TRiM Checker: per-bit majority voting over three copies.
#[derive(Debug, Clone, Default)]
pub struct TrimChecker {
    checks: u64,
}

impl TrimChecker {
    /// Builds a TRiM checker that has made no checks yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of checks performed.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Majority vote into a caller-owned buffer: `voted` receives the
    /// bitwise majority; returns whether any copy dissented (an error was
    /// detected). Allocation-free; the caller derives write-back positions
    /// by diffing each copy against `voted`.
    ///
    /// # Panics
    ///
    /// Panics if the copies differ in length.
    pub fn vote_level_into(
        &mut self,
        primary: &BitVec,
        copy1: &BitVec,
        copy2: &BitVec,
        voted: &mut BitVec,
    ) -> bool {
        self.checks += 1;
        nvpim_ecc::redundancy::tmr_vote_into(primary, copy1, copy2, voted)
    }

    /// Lane-parallel majority vote for the sliced backend: `a[g]`, `b[g]`
    /// and `c[g]` hold gate `g`'s three copies across 64 trials (one per
    /// bit lane). Writes the per-gate lane-parallel majority into `voted`
    /// and returns the mask of valid lanes in which *any* copy dissented —
    /// per lane, exactly the boolean [`Self::vote_level_into`] returns for
    /// that lane's bits. Counts one check.
    ///
    /// # Panics
    ///
    /// Panics if the copy slices differ in length.
    pub fn vote_level_lanes(
        &mut self,
        a: &[u64],
        b: &[u64],
        c: &[u64],
        valid: u64,
        voted: &mut Vec<u64>,
    ) -> u64 {
        assert!(
            a.len() == b.len() && b.len() == c.len(),
            "three equal-length copy planes required"
        );
        self.checks += 1;
        voted.clear();
        voted.reserve(a.len());
        let mut dissent = 0u64;
        for g in 0..a.len() {
            let v = nvpim_ecc::gf2::lanes::majority3(a[g], b[g], c[g]);
            dissent |= (a[g] ^ v) | (b[g] ^ v) | (c[g] ^ v);
            voted.push(v);
        }
        dissent & valid
    }
}

/// Gate-count based area / energy / latency model of a Checker block
/// (NanGate 45 nm + OpenROAD substitute).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CheckerCostModel {
    /// Equivalent NAND2 gate count of the block.
    pub gate_equivalents: u64,
    /// Energy per check invocation (fJ).
    pub energy_per_check_fj: f64,
    /// Latency per check invocation (ns).
    pub latency_per_check_ns: f64,
    /// Estimated silicon area (µm²), ~0.8 µm² per NAND2 at 45 nm.
    pub area_um2: f64,
}

/// Energy of one NAND2-equivalent toggling at 45 nm (fJ).
const ENERGY_PER_GATE_FJ: f64 = 0.003;
/// Area of one NAND2-equivalent at 45 nm (µm²).
const AREA_PER_GATE_UM2: f64 = 0.8;

impl CheckerCostModel {
    /// Cost of a hardwired Hamming syndrome decoder + corrector for `code`.
    ///
    /// Syndrome generation is `(n−k)` XOR trees over (on average) half the
    /// codeword, the corrector is an `n`-way decoder plus an XOR per data
    /// bit.
    pub fn for_hamming(code: &HammingCode) -> Self {
        let n = code.n() as u64;
        let r = code.parity_bits() as u64;
        let syndrome_gates = r * n / 2 * 3; // XOR2 ≈ 3 NAND2 equivalents
        let corrector_gates = n * 4;
        let gate_equivalents = syndrome_gates + corrector_gates;
        Self::from_gates(gate_equivalents, 2.0)
    }

    /// Cost of a per-bit 3-way majority voter + comparator over `bits` bits.
    pub fn for_majority(bits: usize) -> Self {
        // MAJ3 + XOR-compare per bit ≈ 7 NAND2 equivalents.
        Self::from_gates(bits as u64 * 7, 1.0)
    }

    /// Cost of a detection-only even-parity checker over `bits` bits: an
    /// XOR reduction tree plus one comparator against the stored parity
    /// bit (the ParityDetect Checker).
    pub fn for_parity(bits: usize) -> Self {
        // A `bits`-wide XOR reduce is (bits − 1) XOR2s at ≈ 3 NAND2
        // equivalents each, plus the final compare.
        Self::from_gates((bits.max(1) as u64 - 1) * 3 + 1, 1.0)
    }

    fn from_gates(gate_equivalents: u64, latency_ns: f64) -> Self {
        Self {
            gate_equivalents,
            energy_per_check_fj: gate_equivalents as f64 * ENERGY_PER_GATE_FJ,
            latency_per_check_ns: latency_ns,
            area_um2: gate_equivalents as f64 * AREA_PER_GATE_UM2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvpim_sim::fault::splitmix64;

    fn bv(bits: &[u8]) -> BitVec {
        bits.iter().map(|&b| b == 1).collect()
    }

    #[test]
    fn clean_level_passes_through() {
        let code = HammingCode::new_standard(3);
        let mut checker = EcimChecker::new(&code);
        let data = bv(&[1, 0, 1, 1]);
        let parity = code.parity_of(&data);
        assert_eq!(checker.decode_level(&data, &parity), LevelDecode::Clean);
        assert_eq!(checker.checks(), 1);
    }

    #[test]
    fn single_data_error_is_corrected_and_flagged_for_writeback() {
        let code = HammingCode::new_standard(3);
        let mut checker = EcimChecker::new(&code);
        let clean = bv(&[0, 1, 1, 0]);
        let parity = code.parity_of(&clean);
        let mut corrupted = clean.clone();
        corrupted.flip(2);
        assert_eq!(
            checker.decode_level(&corrupted, &parity),
            LevelDecode::CorrectedData { position: 2 }
        );
        // Writing the flagged position back restores the clean level.
        corrupted.flip(2);
        assert_eq!(corrupted, clean);
        assert_eq!(
            checker.decode_level(&corrupted, &parity),
            LevelDecode::Clean
        );
    }

    #[test]
    fn parity_bit_error_needs_no_data_writeback() {
        let code = HammingCode::new_standard(3);
        let mut checker = EcimChecker::new(&code);
        let data = bv(&[1, 1, 0, 0]);
        let mut parity = code.parity_of(&data);
        parity.flip(1);
        assert_eq!(
            checker.decode_level(&data, &parity),
            LevelDecode::CorrectedMeta
        );
    }

    #[test]
    fn short_levels_are_zero_padded() {
        // A level with fewer outputs than k still decodes correctly.
        let code = HammingCode::new_standard(8);
        let mut checker = EcimChecker::new(&code);
        let mut data = BitVec::zeros(10);
        data.set(3, true);
        data.set(7, true);
        let full = data.concat(&BitVec::zeros(code.k() - 10));
        let parity = code.parity_of(&full);
        assert_eq!(checker.decode_level(&data, &parity), LevelDecode::Clean);
        let mut corrupted = data.clone();
        corrupted.flip(5);
        assert_eq!(
            checker.decode_level(&corrupted, &parity),
            LevelDecode::CorrectedData { position: 5 }
        );
    }

    #[test]
    fn trim_checker_votes_out_single_copy_errors() {
        let mut checker = TrimChecker::new();
        let good = bv(&[1, 0, 1, 1, 0, 0, 1, 0]);
        let mut bad = good.clone();
        bad.flip(4);
        let mut voted = BitVec::default();
        assert!(checker.vote_level_into(&bad, &good, &good, &mut voted));
        assert_eq!(voted, good);
        // The primary copy differs from the vote at the one write-back
        // position.
        assert_eq!(bad.diff_ones(&voted).collect::<Vec<_>>(), vec![4]);

        assert!(!checker.vote_level_into(&good, &good, &good, &mut voted));
        assert_eq!(voted, good);
        assert_eq!(checker.checks(), 2);
    }

    #[test]
    fn trim_checker_corrects_errors_in_redundant_copies_without_writeback() {
        let mut checker = TrimChecker::new();
        let good = bv(&[0, 1, 1, 0]);
        let mut bad_copy = good.clone();
        bad_copy.flip(0);
        let mut voted = BitVec::default();
        assert!(checker.vote_level_into(&good, &bad_copy, &good, &mut voted));
        assert_eq!(voted, good);
        // The primary copy was already correct: nothing to write back.
        assert_eq!(good.diff_ones(&voted).count(), 0);
    }

    /// A deterministic bit stream for the lane-equivalence tests.
    struct Bits(u64);

    impl Bits {
        fn word(&mut self) -> u64 {
            self.0 = splitmix64(self.0);
            self.0
        }

        /// A word with each bit set with probability 1/8.
        fn sparse(&mut self) -> u64 {
            self.word() & self.word() & self.word()
        }
    }

    /// Bit `lane` of each word, as a `BitVec`.
    fn lane_bits(words: &[u64], lane: usize) -> BitVec {
        words.iter().map(|w| (w >> lane) & 1 == 1).collect()
    }

    #[test]
    fn lane_decode_matches_the_scalar_decode_in_every_lane() {
        // A full-length code (every syndrome names a position) and a
        // shortened one (some syndromes are uncorrectable); levels shorter
        // than k leave unused data positions, so every LevelDecode arm
        // shows up. Lanes carry clean encodings plus sparse flips in the
        // data and parity planes (0, 1 or several errors per lane).
        let codes = [
            HammingCode::new_standard(4),
            HammingCode::with_data_bits(8).expect("shortened code"),
        ];
        let mut bits = Bits(0xC0DE_1EE7);
        let mut seen = [false; 4];
        for code in &codes {
            for data_len in [code.k(), code.k() - 3] {
                for _ in 0..40 {
                    let mut data_words: Vec<u64> = (0..data_len).map(|_| bits.word()).collect();
                    let mut parity_words = vec![0u64; code.parity_bits()];
                    for lane in 0..64 {
                        let data = lane_bits(&data_words, lane)
                            .concat(&BitVec::zeros(code.k() - data_len));
                        for (i, bit) in code.parity_of(&data).iter().enumerate() {
                            parity_words[i] |= u64::from(bit) << lane;
                        }
                    }
                    for word in data_words.iter_mut().chain(parity_words.iter_mut()) {
                        *word ^= bits.sparse() & bits.sparse();
                    }
                    let valid = bits.word() | bits.word();

                    let mut lanes = EcimChecker::new(code);
                    let mut got = Vec::new();
                    lanes.decode_level_lanes(
                        &data_words,
                        &parity_words,
                        valid,
                        &mut Vec::new(),
                        |lane, outcome| got.push((lane, outcome)),
                    );
                    assert_eq!(lanes.checks(), 1, "one check per invocation");

                    let mut scalar = EcimChecker::new(code);
                    let want: Vec<(usize, LevelDecode)> = (0..64)
                        .filter(|&lane| (valid >> lane) & 1 == 1)
                        .map(|lane| {
                            let data = lane_bits(&data_words, lane);
                            let parity = lane_bits(&parity_words, lane);
                            (lane, scalar.decode_level(&data, &parity))
                        })
                        .filter(|&(_, outcome)| outcome != LevelDecode::Clean)
                        .collect();
                    assert_eq!(got, want, "k = {}, data_len = {data_len}", code.k());
                    for (_, outcome) in got {
                        seen[match outcome {
                            LevelDecode::Clean => 0,
                            LevelDecode::CorrectedData { .. } => 1,
                            LevelDecode::CorrectedMeta => 2,
                            LevelDecode::Uncorrectable => 3,
                        }] = true;
                    }
                }
            }
        }
        assert_eq!(seen, [false, true, true, true], "every non-clean outcome");
    }

    #[test]
    fn lane_vote_matches_the_scalar_vote_in_every_lane() {
        let mut bits = Bits(0x07E1_A4E5);
        let mut dissenting_lanes = 0u32;
        for gates in [1usize, 7, 64, 130] {
            for _ in 0..20 {
                let truth: Vec<u64> = (0..gates).map(|_| bits.word()).collect();
                let mut copy = || -> Vec<u64> {
                    truth
                        .iter()
                        .map(|&w| w ^ (bits.sparse() & bits.sparse()))
                        .collect()
                };
                let (a, b, c) = (copy(), copy(), copy());
                let valid = bits.word() | bits.word();

                let mut lanes = TrimChecker::new();
                let mut voted = Vec::new();
                let dissent = lanes.vote_level_lanes(&a, &b, &c, valid, &mut voted);
                assert_eq!(lanes.checks(), 1, "one check per invocation");
                assert_eq!(dissent & !valid, 0, "only valid lanes dissent");

                let mut scalar = TrimChecker::new();
                let mut scalar_voted = BitVec::default();
                for lane in 0..64 {
                    let lane_dissent = scalar.vote_level_into(
                        &lane_bits(&a, lane),
                        &lane_bits(&b, lane),
                        &lane_bits(&c, lane),
                        &mut scalar_voted,
                    );
                    assert_eq!(scalar_voted, lane_bits(&voted, lane), "lane {lane}");
                    if (valid >> lane) & 1 == 1 {
                        assert_eq!((dissent >> lane) & 1 == 1, lane_dissent, "lane {lane}");
                    }
                }
                dissenting_lanes += dissent.count_ones();
            }
        }
        assert!(
            dissenting_lanes > 0,
            "the flips must make some lanes dissent"
        );
    }

    #[test]
    fn cost_models_scale_with_problem_size() {
        let small = CheckerCostModel::for_hamming(&HammingCode::new_standard(3));
        let large = CheckerCostModel::for_hamming(&HammingCode::new_standard(8));
        assert!(large.gate_equivalents > small.gate_equivalents);
        assert!(large.energy_per_check_fj > small.energy_per_check_fj);
        assert!(large.area_um2 > small.area_um2);

        let maj_small = CheckerCostModel::for_majority(16);
        let maj_large = CheckerCostModel::for_majority(256);
        assert!(maj_large.gate_equivalents > maj_small.gate_equivalents);
        // The ECiM checker for Hamming(255,247) is heavier than a 256-bit
        // majority voter but both stay small (well under a million gates).
        assert!(large.gate_equivalents < 1_000_000);
    }
}
