//! Binary primitive BCH codes, the multi-error extension of ECiM (§VI,
//! "Extension to Higher-Coverage Codes" and Fig. 8 of the paper).
//!
//! A `BCH(n = 2^m − 1, k, t)` code corrects up to `t` bit errors per
//! codeword using `n − k = deg g(x)` parity bits, where `g(x)` is the least
//! common multiple of the minimal polynomials of `α, α², …, α^{2t}`.
//! ECiM maintains these parity bits in memory exactly like Hamming parity
//! bits — only the per-data-bit update mask (a column of the non-identity
//! part of `G`) changes — so the paper's Fig. 8 reduces to the parity-bit
//! count of BCH-255 as a function of `t`, which
//! [`BchCode::parity_bits_for`] reproduces exactly.
//!
//! # Examples
//!
//! ```
//! use nvpim_ecc::bch::BchCode;
//! use nvpim_ecc::gf2::BitVec;
//!
//! let code = BchCode::new(8, 2).unwrap(); // BCH(255, 239), corrects 2 errors
//! assert_eq!(code.n(), 255);
//! assert_eq!(code.parity_bits(), 16);
//!
//! let data = BitVec::zeros(code.k());
//! let mut cw = code.encode(&data);
//! cw.flip(3);
//! cw.flip(200);
//! let corrected = code.decode(&mut cw).unwrap();
//! assert_eq!(corrected, 2);
//! assert_eq!(code.extract_data(&cw), data);
//! ```

use std::fmt;

use crate::error::EccError;
use crate::gf2::BitVec;
use crate::gf2m::{poly_mul_gf2, Gf2m};

/// A binary primitive BCH code over GF(2^m) with design error-correction
/// capability `t`.
#[derive(Clone)]
pub struct BchCode {
    field: Gf2m,
    n: usize,
    k: usize,
    t: usize,
    /// Generator polynomial coefficients, little-endian over GF(2).
    generator: Vec<u8>,
    /// Parity-update masks: for data bit `j`, the parity bits toggled when it
    /// flips (the remainder of `x^{n-k+j}` modulo `g(x)`).
    update_masks: Vec<BitVec>,
}

impl fmt::Debug for BchCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BchCode")
            .field("n", &self.n)
            .field("k", &self.k)
            .field("t", &self.t)
            .finish()
    }
}

impl BchCode {
    /// Constructs the primitive BCH code of length `n = 2^m − 1` correcting
    /// `t` errors.
    ///
    /// # Errors
    ///
    /// Returns [`EccError::InvalidParameters`] if `m` is outside `3..=16`,
    /// `t == 0`, or `t` is so large that no data bits remain.
    pub fn new(m: usize, t: usize) -> Result<Self, EccError> {
        if !(3..=16).contains(&m) {
            return Err(EccError::InvalidParameters(format!(
                "BCH requires 3 <= m <= 16, got m={m}"
            )));
        }
        if t == 0 {
            return Err(EccError::InvalidParameters(
                "BCH requires t >= 1 correctable errors".into(),
            ));
        }
        let field = Gf2m::new(m)?;
        let n = field.order();
        let generator = Self::generator_poly(&field, t);
        let parity = generator.len() - 1;
        if parity >= n {
            return Err(EccError::InvalidParameters(format!(
                "t={t} leaves no data bits for n={n}"
            )));
        }
        let k = n - parity;
        let update_masks = (0..k)
            .map(|j| {
                // remainder of x^{parity + j} mod g(x)
                let mut poly = vec![0u8; parity + j + 1];
                poly[parity + j] = 1;
                let rem = poly_mod_gf2(&poly, &generator);
                let mut mask = BitVec::zeros(parity);
                for (i, &bit) in rem.iter().enumerate() {
                    if bit == 1 {
                        mask.set(i, true);
                    }
                }
                mask
            })
            .collect();
        Ok(Self {
            field,
            n,
            k,
            t,
            generator,
            update_masks,
        })
    }

    /// Number of parity bits a BCH code of length `2^m − 1` needs to correct
    /// `t` errors. This is the quantity plotted in Fig. 8 (for `m = 8`,
    /// BCH-255).
    ///
    /// # Errors
    ///
    /// Propagates the constructor's parameter validation.
    pub fn parity_bits_for(m: usize, t: usize) -> Result<usize, EccError> {
        if !(3..=16).contains(&m) {
            return Err(EccError::InvalidParameters(format!(
                "BCH requires 3 <= m <= 16, got m={m}"
            )));
        }
        if t == 0 {
            return Err(EccError::InvalidParameters(
                "BCH requires t >= 1 correctable errors".into(),
            ));
        }
        let field = Gf2m::new(m)?;
        Ok(Self::generator_poly(&field, t).len() - 1)
    }

    /// Builds the generator polynomial as the LCM of the minimal polynomials
    /// of `α, α², …, α^{2t}`.
    fn generator_poly(field: &Gf2m, t: usize) -> Vec<u8> {
        let mut covered = vec![false; field.order() + 1];
        let mut generator = vec![1u8];
        for i in 1..=(2 * t) {
            let exp = i % field.order();
            if exp == 0 || covered[exp] {
                continue;
            }
            // Cyclotomic coset of `exp` modulo 2^m - 1.
            let mut coset = Vec::new();
            let mut e = exp;
            loop {
                if covered[e] {
                    break;
                }
                covered[e] = true;
                coset.push(e);
                e = (e * 2) % field.order();
                if e == exp {
                    break;
                }
            }
            if coset.is_empty() {
                continue;
            }
            // Minimal polynomial = prod (x - alpha^j) for j in coset,
            // computed over GF(2^m); coefficients collapse to GF(2).
            let mut min_poly: Vec<u32> = vec![1];
            for &j in &coset {
                let root = field.alpha_pow(j as i64);
                // multiply min_poly by (x + root)
                let mut next = vec![0u32; min_poly.len() + 1];
                for (idx, &c) in min_poly.iter().enumerate() {
                    next[idx + 1] ^= c; // c * x
                    next[idx] = field.add(next[idx], field.mul(c, root));
                }
                min_poly = next;
            }
            let min_poly_gf2: Vec<u8> = min_poly
                .iter()
                .map(|&c| {
                    debug_assert!(c <= 1, "minimal polynomial coefficient not in GF(2)");
                    c as u8
                })
                .collect();
            generator = poly_mul_gf2(&generator, &min_poly_gf2);
        }
        generator
    }

    /// Codeword length `n = 2^m − 1`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of data bits `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Designed error-correction capability `t`.
    pub fn t(&self) -> usize {
        self.t
    }

    /// Number of parity bits `n − k`.
    pub fn parity_bits(&self) -> usize {
        self.n - self.k
    }

    /// Generator polynomial coefficients (little-endian, over GF(2)).
    pub fn generator(&self) -> &[u8] {
        &self.generator
    }

    /// For data bit `j`, the parity bits that must be toggled when it flips.
    /// This generalizes [`crate::hamming::HammingCode::parity_update_mask`]
    /// and is what ECiM's in-memory pipeline would maintain for BCH coverage.
    ///
    /// # Panics
    ///
    /// Panics if `j >= k`.
    pub fn parity_update_mask(&self, j: usize) -> &BitVec {
        assert!(j < self.k, "data bit {j} out of range {}", self.k);
        &self.update_masks[j]
    }

    /// Encodes `data` into a systematic codeword laid out `[data | parity]`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != k`.
    pub fn encode(&self, data: &BitVec) -> BitVec {
        assert_eq!(data.len(), self.k, "data length must equal k = {}", self.k);
        let mut parity = BitVec::zeros(self.parity_bits());
        for j in 0..self.k {
            if data.get(j) {
                parity.xor_assign(&self.update_masks[j]);
            }
        }
        data.concat(&parity)
    }

    /// Computes the `2t` syndromes `S_i = r(α^i)` of a received word.
    ///
    /// # Panics
    ///
    /// Panics if `codeword.len() != n`.
    pub fn syndromes(&self, codeword: &BitVec) -> Vec<u32> {
        assert_eq!(
            codeword.len(),
            self.n,
            "codeword length must equal n = {}",
            self.n
        );
        // Received polynomial r(x): coefficient of x^i is bit i of the
        // codeword in *polynomial* layout. Our systematic layout is
        // [data | parity] where data bit j corresponds to x^{parity + j} and
        // parity bit i to x^i.
        let parity = self.parity_bits();
        (1..=2 * self.t)
            .map(|i| {
                let alpha_i = self.field.alpha_pow(i as i64);
                let mut acc = 0u32;
                // Word-level scan: only set bits contribute to r(α^i).
                for pos in codeword.iter_ones() {
                    let poly_deg = if pos < self.k {
                        parity + pos
                    } else {
                        pos - self.k
                    };
                    acc = self
                        .field
                        .add(acc, self.field.pow(alpha_i, poly_deg as u64));
                }
                acc
            })
            .collect()
    }

    /// Decodes and corrects `codeword` in place, returning the number of
    /// corrected bit errors.
    ///
    /// # Errors
    ///
    /// Returns [`EccError::Uncorrectable`] if more than `t` errors are
    /// present (detected via Berlekamp–Massey failure or an inconsistent
    /// Chien search).
    ///
    /// # Panics
    ///
    /// Panics if `codeword.len() != n`.
    pub fn decode(&self, codeword: &mut BitVec) -> Result<usize, EccError> {
        let syndromes = self.syndromes(codeword);
        if syndromes.iter().all(|&s| s == 0) {
            return Ok(0);
        }
        let sigma = self.berlekamp_massey(&syndromes);
        let num_errors = sigma.len() - 1;
        if num_errors > self.t {
            return Err(EccError::Uncorrectable {
                errors_found: num_errors,
                capability: self.t,
            });
        }
        // Chien search: roots of sigma are alpha^{-loc} for error locations.
        let mut error_positions = Vec::new();
        for loc in 0..self.n {
            let x = self.field.alpha_pow(-(loc as i64));
            if self.field.poly_eval(&sigma, x) == 0 {
                error_positions.push(loc);
            }
        }
        if error_positions.len() != num_errors {
            return Err(EccError::Uncorrectable {
                errors_found: error_positions.len().max(num_errors),
                capability: self.t,
            });
        }
        let parity = self.parity_bits();
        for &poly_deg in &error_positions {
            // Map the polynomial degree back to the systematic layout index.
            let pos = if poly_deg >= parity {
                poly_deg - parity
            } else {
                self.k + poly_deg
            };
            codeword.flip(pos);
        }
        // Verify.
        if self.syndromes(codeword).iter().any(|&s| s != 0) {
            return Err(EccError::Uncorrectable {
                errors_found: error_positions.len(),
                capability: self.t,
            });
        }
        Ok(error_positions.len())
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

    /// Berlekamp–Massey: returns the error-locator polynomial σ(x)
    /// (little-endian coefficients in GF(2^m)).
    fn berlekamp_massey(&self, syndromes: &[u32]) -> Vec<u32> {
        let f = &self.field;
        let mut sigma: Vec<u32> = vec![1];
        let mut b: Vec<u32> = vec![1];
        let mut l = 0usize;
        let mut m = 1usize;
        let mut bb = 1u32;
        for n in 0..syndromes.len() {
            // discrepancy
            let mut d = syndromes[n];
            for i in 1..=l {
                if i < sigma.len() {
                    d = f.add(d, f.mul(sigma[i], syndromes[n - i]));
                }
            }
            if d == 0 {
                m += 1;
            } else if 2 * l <= n {
                let t = sigma.clone();
                let coef = f.div(d, bb);
                sigma = poly_add_scaled_shifted(f, &sigma, &b, coef, m);
                l = n + 1 - l;
                b = t;
                bb = d;
                m = 1;
            } else {
                let coef = f.div(d, bb);
                sigma = poly_add_scaled_shifted(f, &sigma, &b, coef, m);
                m += 1;
            }
        }
        sigma.truncate(l + 1);
        sigma
    }
}

/// Returns `a(x) + coef · x^shift · b(x)` over GF(2^m).
fn poly_add_scaled_shifted(f: &Gf2m, a: &[u32], b: &[u32], coef: u32, shift: usize) -> Vec<u32> {
    let len = a.len().max(b.len() + shift);
    let mut out = vec![0u32; len];
    out[..a.len()].copy_from_slice(a);
    for (i, &bi) in b.iter().enumerate() {
        out[i + shift] = f.add(out[i + shift], f.mul(coef, bi));
    }
    out
}

/// Remainder of polynomial division over GF(2) (coefficients little-endian).
fn poly_mod_gf2(dividend: &[u8], divisor: &[u8]) -> Vec<u8> {
    let deg_divisor = divisor.len() - 1;
    let mut rem = dividend.to_vec();
    while rem.len() > deg_divisor {
        let lead = rem.len() - 1;
        if rem[lead] == 1 {
            let shift = lead - deg_divisor;
            for (i, &d) in divisor.iter().enumerate() {
                rem[shift + i] ^= d;
            }
        }
        rem.pop();
    }
    rem.resize(deg_divisor, 0);
    rem
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn bch_255_parity_bits_match_standard_table() {
        // Standard BCH(255, k) table: t -> n-k.
        let expected = [
            (1usize, 8usize),
            (2, 16),
            (3, 24),
            (4, 32),
            (5, 40),
            (6, 48),
            (7, 56),
            (8, 64),
            (9, 68),
            (10, 76),
        ];
        for (t, parity) in expected {
            assert_eq!(BchCode::parity_bits_for(8, t).unwrap(), parity, "t = {t}");
        }
    }

    #[test]
    fn bch_t1_matches_hamming() {
        // A t=1 BCH code of length 2^m - 1 is a Hamming code.
        for m in [4usize, 5, 8] {
            let code = BchCode::new(m, 1).unwrap();
            assert_eq!(code.parity_bits(), m);
            assert_eq!(code.k(), code.n() - m);
        }
    }

    #[test]
    fn invalid_parameters() {
        assert!(BchCode::new(2, 1).is_err());
        assert!(BchCode::new(8, 0).is_err());
        assert!(BchCode::parity_bits_for(8, 0).is_err());
        // t large enough to exhaust the cyclotomic cosets leaves a single
        // data bit (the repetition-like limit), never zero.
        assert_eq!(BchCode::new(3, 3).unwrap().k(), 1);
    }

    #[test]
    fn encode_produces_zero_syndromes() {
        let code = BchCode::new(5, 2).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..10 {
            let data: BitVec = (0..code.k()).map(|_| rng.gen_bool(0.5)).collect();
            let cw = code.encode(&data);
            assert!(code.syndromes(&cw).iter().all(|&s| s == 0));
            assert_eq!(code.extract_data(&cw), data);
        }
    }

    #[test]
    fn corrects_up_to_t_errors() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        for (m, t) in [(4usize, 2usize), (5, 3), (6, 2)] {
            let code = BchCode::new(m, t).unwrap();
            for trial in 0..20 {
                let data: BitVec = (0..code.k()).map(|_| rng.gen_bool(0.5)).collect();
                let clean = code.encode(&data);
                let mut corrupted = clean.clone();
                let num_errs = 1 + (trial % t);
                let mut positions: Vec<usize> = (0..code.n()).collect();
                positions.shuffle(&mut rng);
                for &p in positions.iter().take(num_errs) {
                    corrupted.flip(p);
                }
                let fixed = code.decode(&mut corrupted).unwrap();
                assert_eq!(fixed, num_errs, "m={m} t={t} trial={trial}");
                assert_eq!(corrupted, clean);
            }
        }
    }

    #[test]
    fn corrects_two_errors_in_bch_255() {
        let code = BchCode::new(8, 2).unwrap();
        let data: BitVec = (0..code.k()).map(|i| i % 5 == 0).collect();
        let clean = code.encode(&data);
        let mut corrupted = clean.clone();
        corrupted.flip(10);
        corrupted.flip(250);
        assert_eq!(code.decode(&mut corrupted).unwrap(), 2);
        assert_eq!(corrupted, clean);
    }

    #[test]
    fn rejects_more_than_t_errors_most_of_the_time() {
        // With t=1 and 3 injected errors the decoder must never silently
        // return success with the wrong data; it either errors out or
        // "corrects" to a different valid codeword (which we detect here by
        // comparing data). We assert it never reports 3 corrections.
        let code = BchCode::new(5, 1).unwrap();
        let data = BitVec::zeros(code.k());
        let clean = code.encode(&data);
        let mut corrupted = clean.clone();
        corrupted.flip(1);
        corrupted.flip(7);
        corrupted.flip(20);
        match code.decode(&mut corrupted) {
            Ok(fixed) => assert!(fixed <= code.t()),
            Err(EccError::Uncorrectable { .. }) => {}
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn parity_update_mask_matches_encode_delta() {
        let code = BchCode::new(5, 2).unwrap();
        let zero = BitVec::zeros(code.k());
        let base = code.encode(&zero).slice(code.k()..code.n());
        for j in (0..code.k()).step_by(3) {
            let mut flipped = zero.clone();
            flipped.flip(j);
            let parity = code.encode(&flipped).slice(code.k()..code.n());
            assert_eq!(&parity.xor(&base), code.parity_update_mask(j));
        }
    }

    #[test]
    fn generator_divides_codeword_polynomials() {
        // Every codeword, viewed as a polynomial, must be divisible by g(x).
        let code = BchCode::new(4, 2).unwrap();
        let data = BitVec::from_u64(0b10110, code.k());
        let cw = code.encode(&data);
        let parity = code.parity_bits();
        let mut poly = vec![0u8; code.n()];
        for pos in 0..code.n() {
            let deg = if pos < code.k() {
                parity + pos
            } else {
                pos - code.k()
            };
            poly[deg] = u8::from(cw.get(pos));
        }
        let rem = poly_mod_gf2(&poly, code.generator());
        assert!(rem.iter().all(|&b| b == 0));
    }
}
