//! NOR-based synthesis of Boolean and fixed-point arithmetic circuits
//! (§II-B step 2: gate-level opcode generation).
//!
//! The targeted PiM technologies execute NOR-family gates and the 4-input
//! THR gate natively, so every higher-level operation — XOR, adders,
//! multipliers, comparators — is expanded into those primitives here.
//! The builder produces a [`Netlist`] in topological order; multi-bit values
//! are plain `Vec<NetId>` little-endian *words*.
//!
//! # Examples
//!
//! ```
//! use nvpim_compiler::builder::CircuitBuilder;
//!
//! let mut b = CircuitBuilder::new();
//! let a = b.input_word(4);
//! let c = b.input_word(4);
//! let (sum, carry) = b.ripple_add(&a, &c, None);
//! b.mark_output_word(&sum);
//! b.mark_output(carry);
//! let netlist = b.finish();
//!
//! // 9 + 5 = 14
//! let out = netlist.evaluate(&[true, false, false, true, true, false, true, false]);
//! assert_eq!(out, vec![false, true, true, true, false]);
//! ```

use crate::netlist::{Gate, LogicOp, NetId, Netlist};

/// A little-endian multi-bit value (bit 0 first).
pub type Word = Vec<NetId>;

/// Incrementally builds a NOR/THR netlist.
#[derive(Debug, Default)]
pub struct CircuitBuilder {
    netlist: Netlist,
    zero: Option<NetId>,
    one: Option<NetId>,
}

impl CircuitBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn fresh_net(&mut self) -> NetId {
        let id = self.netlist.net_count;
        self.netlist.net_count += 1;
        id
    }

    fn push_gate(&mut self, op: LogicOp, inputs: Vec<NetId>) -> NetId {
        let output = self.fresh_net();
        self.netlist.gates.push(Gate { op, inputs, output });
        output
    }

    /// Declares a new primary input.
    pub fn input(&mut self) -> NetId {
        let id = self.fresh_net();
        self.netlist.inputs.push(id);
        id
    }

    /// Declares `width` primary inputs forming a little-endian word.
    pub fn input_word(&mut self, width: usize) -> Word {
        (0..width).map(|_| self.input()).collect()
    }

    /// The constant-0 net (created on first use).
    pub fn zero(&mut self) -> NetId {
        if let Some(z) = self.zero {
            return z;
        }
        let z = self.push_gate(LogicOp::Zero, vec![]);
        self.zero = Some(z);
        z
    }

    /// The constant-1 net (created on first use).
    pub fn one(&mut self) -> NetId {
        if let Some(o) = self.one {
            return o;
        }
        let o = self.push_gate(LogicOp::One, vec![]);
        self.one = Some(o);
        o
    }

    /// A constant word of the given width holding `value` (little-endian).
    pub fn constant_word(&mut self, value: u64, width: usize) -> Word {
        (0..width)
            .map(|i| {
                if (value >> i) & 1 == 1 {
                    self.one()
                } else {
                    self.zero()
                }
            })
            .collect()
    }

    /// Marks a net as a primary output.
    pub fn mark_output(&mut self, net: NetId) {
        self.netlist.outputs.push(net);
    }

    /// Marks every bit of a word as a primary output (LSB first).
    pub fn mark_output_word(&mut self, word: &Word) {
        for &net in word {
            self.mark_output(net);
        }
    }

    /// Finalizes the netlist.
    pub fn finish(self) -> Netlist {
        self.netlist
    }

    // ------------------------------------------------------------------
    // Bitwise primitives
    // ------------------------------------------------------------------

    /// Multi-input NOR (the native PiM gate).
    ///
    /// # Panics
    ///
    /// Panics if no inputs are given or more than 4 are given (the array
    /// supports 2–4 input gates; wider NORs must be composed).
    pub fn nor(&mut self, inputs: &[NetId]) -> NetId {
        assert!(
            (1..=4).contains(&inputs.len()),
            "NOR gates support 1 to 4 inputs, got {}",
            inputs.len()
        );
        self.push_gate(LogicOp::Nor, inputs.to_vec())
    }

    /// Logical NOT (single-input NOR).
    pub fn not(&mut self, a: NetId) -> NetId {
        self.nor(&[a])
    }

    /// Copy of a net (Table I's `CP`; fusable into a multi-output NOR by the
    /// scheduler when the source is itself a NOR).
    pub fn copy(&mut self, a: NetId) -> NetId {
        self.push_gate(LogicOp::Copy, vec![a])
    }

    /// Logical OR.
    pub fn or(&mut self, a: NetId, b: NetId) -> NetId {
        let n = self.nor(&[a, b]);
        self.not(n)
    }

    /// Logical AND (`NOR` of the negated inputs).
    pub fn and(&mut self, a: NetId, b: NetId) -> NetId {
        let na = self.not(a);
        let nb = self.not(b);
        self.nor(&[na, nb])
    }

    /// Logical NAND.
    pub fn nand(&mut self, a: NetId, b: NetId) -> NetId {
        let g = self.and(a, b);
        self.not(g)
    }

    /// XOR using the paper's 2-step construction (Table I): a 2-output NOR
    /// (modeled as NOR + Copy, fused by multi-output-capable schedulers)
    /// followed by the 4-input THR gate.
    pub fn xor(&mut self, a: NetId, b: NetId) -> NetId {
        let s1 = self.nor(&[a, b]);
        let s2 = self.copy(s1);
        self.push_gate(LogicOp::Thr, vec![a, b, s1, s2])
    }

    /// XNOR.
    pub fn xnor(&mut self, a: NetId, b: NetId) -> NetId {
        let x = self.xor(a, b);
        self.not(x)
    }

    /// 3-input majority, `NOR(NOR(a,b), NOR(a,c), NOR(b,c))`.
    pub fn majority3(&mut self, a: NetId, b: NetId, c: NetId) -> NetId {
        let ab = self.nor(&[a, b]);
        let ac = self.nor(&[a, c]);
        let bc = self.nor(&[b, c]);
        self.nor(&[ab, ac, bc])
    }

    /// 2-to-1 multiplexer: `sel ? b : a`.
    pub fn mux(&mut self, sel: NetId, a: NetId, b: NetId) -> NetId {
        let nsel = self.not(sel);
        let pick_b = self.and(sel, b);
        let pick_a = self.and(nsel, a);
        self.or(pick_a, pick_b)
    }

    // ------------------------------------------------------------------
    // Arithmetic
    // ------------------------------------------------------------------

    /// Full adder: returns `(sum, carry_out)`.
    pub fn full_adder(&mut self, a: NetId, b: NetId, cin: NetId) -> (NetId, NetId) {
        let ab = self.xor(a, b);
        let sum = self.xor(ab, cin);
        let carry = self.majority3(a, b, cin);
        (sum, carry)
    }

    /// Ripple-carry addition of two equal-width words, returning
    /// `(sum_word, carry_out)`.
    ///
    /// # Panics
    ///
    /// Panics if the words have different widths or are empty.
    pub fn ripple_add(&mut self, a: &Word, b: &Word, cin: Option<NetId>) -> (Word, NetId) {
        assert_eq!(a.len(), b.len(), "ripple_add requires equal widths");
        assert!(!a.is_empty(), "ripple_add requires at least one bit");
        let mut carry = match cin {
            Some(c) => c,
            None => self.zero(),
        };
        let mut sum = Vec::with_capacity(a.len());
        for (&ai, &bi) in a.iter().zip(b) {
            let (s, c) = self.full_adder(ai, bi, carry);
            sum.push(s);
            carry = c;
        }
        (sum, carry)
    }

    /// Two's-complement subtraction `a − b`, returning
    /// `(difference, borrow_is_clear)` where the second element is the final
    /// carry (1 means no borrow, i.e. `a >= b` for unsigned operands).
    pub fn ripple_sub(&mut self, a: &Word, b: &Word) -> (Word, NetId) {
        assert_eq!(a.len(), b.len(), "ripple_sub requires equal widths");
        let nb: Word = b.iter().map(|&bit| self.not(bit)).collect();
        let one = self.one();
        self.ripple_add(a, &nb, Some(one))
    }

    /// Zero-extends a word to `width` bits.
    pub fn zero_extend(&mut self, a: &Word, width: usize) -> Word {
        let mut out = a.clone();
        while out.len() < width {
            out.push(self.zero());
        }
        out
    }

    /// Sign-extends a word to `width` bits (two's complement).
    pub fn sign_extend(&mut self, a: &Word, width: usize) -> Word {
        let mut out = a.clone();
        let msb = *a.last().expect("sign_extend of empty word");
        while out.len() < width {
            out.push(msb);
        }
        out
    }

    /// Unsigned array multiplication, returning a word of width
    /// `a.len() + b.len()`.
    ///
    /// # Panics
    ///
    /// Panics if either word is empty.
    pub fn mul_unsigned(&mut self, a: &Word, b: &Word) -> Word {
        assert!(
            !a.is_empty() && !b.is_empty(),
            "multiplication of empty words"
        );
        let out_width = a.len() + b.len();
        // Accumulate shifted partial products with ripple adders.
        let mut acc: Word = (0..out_width).map(|_| self.zero()).collect();
        for (i, &bi) in b.iter().enumerate() {
            // partial product i: (a AND bi) << i, zero-extended to out_width
            let mut pp: Word = Vec::with_capacity(out_width);
            for _ in 0..i {
                pp.push(self.zero());
            }
            for &aj in a {
                let bit = self.and(aj, bi);
                pp.push(bit);
            }
            while pp.len() < out_width {
                pp.push(self.zero());
            }
            let (sum, _) = self.ripple_add(&acc, &pp, None);
            acc = sum;
        }
        acc
    }

    /// Multiply–accumulate: `acc + a·b`, truncated/zero-extended to
    /// `acc.len()` bits. The standard building block of the paper's dense
    /// matrix-multiplication and MLP benchmarks.
    pub fn mac(&mut self, acc: &Word, a: &Word, b: &Word) -> Word {
        let product = self.mul_unsigned(a, b);
        let product = if product.len() >= acc.len() {
            product[..acc.len()].to_vec()
        } else {
            self.zero_extend(&product, acc.len())
        };
        let (sum, _) = self.ripple_add(acc, &product, None);
        sum
    }

    /// Unsigned comparison `a >= b` (single bit).
    pub fn greater_equal(&mut self, a: &Word, b: &Word) -> NetId {
        let (_, no_borrow) = self.ripple_sub(a, b);
        no_borrow
    }

    /// Reduction OR over a word (true if any bit set). Useful for
    /// zero-detection in activations.
    pub fn reduce_or(&mut self, a: &Word) -> NetId {
        assert!(!a.is_empty(), "reduce_or of empty word");
        let mut acc = a[0];
        for &bit in &a[1..] {
            acc = self.or(acc, bit);
        }
        acc
    }

    /// Bitwise XOR of two equal-width words.
    pub fn xor_word(&mut self, a: &Word, b: &Word) -> Word {
        assert_eq!(a.len(), b.len(), "xor_word requires equal widths");
        a.iter().zip(b).map(|(&x, &y)| self.xor(x, y)).collect()
    }

    /// Sum of several equal-width words via a balanced adder tree, truncated
    /// to the operand width (the accumulation pattern of dot products).
    pub fn adder_tree(&mut self, words: &[Word]) -> Word {
        assert!(!words.is_empty(), "adder_tree of no operands");
        let mut layer: Vec<Word> = words.to_vec();
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                if pair.len() == 2 {
                    let (sum, _) = self.ripple_add(&pair[0], &pair[1], None);
                    next.push(sum);
                } else {
                    next.push(pair[0].clone());
                }
            }
            layer = next;
        }
        layer.pop().expect("non-empty adder tree")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_bits(value: u64, width: usize) -> Vec<bool> {
        (0..width).map(|i| (value >> i) & 1 == 1).collect()
    }

    fn from_bits(bits: &[bool]) -> u64 {
        bits.iter()
            .enumerate()
            .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i))
    }

    #[test]
    fn basic_gates_truth_tables() {
        for (f, table) in [
            (
                CircuitBuilder::or as fn(&mut CircuitBuilder, NetId, NetId) -> NetId,
                [false, true, true, true],
            ),
            (CircuitBuilder::and, [false, false, false, true]),
            (CircuitBuilder::nand, [true, true, true, false]),
            (CircuitBuilder::xor, [false, true, true, false]),
            (CircuitBuilder::xnor, [true, false, false, true]),
        ] {
            for (i, &expected) in table.iter().enumerate() {
                let mut b = CircuitBuilder::new();
                let x = b.input();
                let y = b.input();
                let out = f(&mut b, x, y);
                b.mark_output(out);
                let n = b.finish();
                let a_val = i & 1 == 1;
                let b_val = i & 2 == 2;
                assert_eq!(n.evaluate(&[a_val, b_val]), vec![expected], "case {i}");
            }
        }
    }

    #[test]
    fn majority_and_mux() {
        for bits in 0..8u32 {
            let (a, b2, c) = (bits & 1 == 1, bits & 2 == 2, bits & 4 == 4);
            let mut builder = CircuitBuilder::new();
            let x = builder.input();
            let y = builder.input();
            let z = builder.input();
            let maj = builder.majority3(x, y, z);
            let mux = builder.mux(x, y, z);
            builder.mark_output(maj);
            builder.mark_output(mux);
            let n = builder.finish();
            let out = n.evaluate(&[a, b2, c]);
            assert_eq!(out[0], (a & b2) | (a & c) | (b2 & c));
            assert_eq!(out[1], if a { c } else { b2 });
        }
    }

    #[test]
    fn full_adder_exhaustive() {
        for bits in 0..8u32 {
            let (a, b2, cin) = (bits & 1 == 1, bits & 2 == 2, bits & 4 == 4);
            let mut builder = CircuitBuilder::new();
            let x = builder.input();
            let y = builder.input();
            let c = builder.input();
            let (s, cout) = builder.full_adder(x, y, c);
            builder.mark_output(s);
            builder.mark_output(cout);
            let n = builder.finish();
            let out = n.evaluate(&[a, b2, cin]);
            let total = u32::from(a) + u32::from(b2) + u32::from(cin);
            assert_eq!(out[0], total & 1 == 1);
            assert_eq!(out[1], total >= 2);
        }
    }

    #[test]
    fn ripple_add_8bit_random_cases() {
        for (a, b) in [(0u64, 0u64), (255, 1), (100, 155), (77, 33), (200, 200)] {
            let mut builder = CircuitBuilder::new();
            let wa = builder.input_word(8);
            let wb = builder.input_word(8);
            let (sum, carry) = builder.ripple_add(&wa, &wb, None);
            builder.mark_output_word(&sum);
            builder.mark_output(carry);
            let n = builder.finish();
            let mut inputs = to_bits(a, 8);
            inputs.extend(to_bits(b, 8));
            let out = n.evaluate(&inputs);
            let expected = a + b;
            assert_eq!(from_bits(&out[..8]), expected & 0xFF, "{a}+{b}");
            assert_eq!(out[8], expected > 0xFF, "carry of {a}+{b}");
        }
    }

    #[test]
    fn ripple_sub_and_comparison() {
        for (a, b) in [(10u64, 3u64), (3, 10), (200, 200), (0, 1), (255, 0)] {
            let mut builder = CircuitBuilder::new();
            let wa = builder.input_word(8);
            let wb = builder.input_word(8);
            let (diff, no_borrow) = builder.ripple_sub(&wa, &wb);
            let ge = builder.greater_equal(&wa, &wb);
            builder.mark_output_word(&diff);
            builder.mark_output(no_borrow);
            builder.mark_output(ge);
            let n = builder.finish();
            let mut inputs = to_bits(a, 8);
            inputs.extend(to_bits(b, 8));
            let out = n.evaluate(&inputs);
            assert_eq!(from_bits(&out[..8]), a.wrapping_sub(b) & 0xFF, "{a}-{b}");
            assert_eq!(out[8], a >= b);
            assert_eq!(out[9], a >= b);
        }
    }

    #[test]
    fn multiplication_4x4_exhaustive() {
        // Build once, evaluate for every input pair.
        let mut builder = CircuitBuilder::new();
        let wa = builder.input_word(4);
        let wb = builder.input_word(4);
        let product = builder.mul_unsigned(&wa, &wb);
        builder.mark_output_word(&product);
        let n = builder.finish();
        for a in 0..16u64 {
            for b in 0..16u64 {
                let mut inputs = to_bits(a, 4);
                inputs.extend(to_bits(b, 4));
                assert_eq!(from_bits(&n.evaluate(&inputs)), a * b, "{a}*{b}");
            }
        }
    }

    #[test]
    fn mac_accumulates() {
        let mut builder = CircuitBuilder::new();
        let acc = builder.input_word(12);
        let a = builder.input_word(4);
        let b = builder.input_word(4);
        let out = builder.mac(&acc, &a, &b);
        builder.mark_output_word(&out);
        let n = builder.finish();
        let mut inputs = to_bits(1000, 12);
        inputs.extend(to_bits(13, 4));
        inputs.extend(to_bits(11, 4));
        assert_eq!(from_bits(&n.evaluate(&inputs)), 1000 + 13 * 11);
    }

    #[test]
    fn adder_tree_sums_words() {
        let mut builder = CircuitBuilder::new();
        let words: Vec<Word> = (0..5).map(|_| builder.input_word(10)).collect();
        let sum = builder.adder_tree(&words);
        builder.mark_output_word(&sum);
        let n = builder.finish();
        let values = [17u64, 200, 3, 450, 99];
        let mut inputs = Vec::new();
        for v in values {
            inputs.extend(to_bits(v, 10));
        }
        assert_eq!(from_bits(&n.evaluate(&inputs)), values.iter().sum::<u64>());
    }

    #[test]
    fn xor_word_and_reduce_or() {
        let mut builder = CircuitBuilder::new();
        let a = builder.input_word(6);
        let b = builder.input_word(6);
        let x = builder.xor_word(&a, &b);
        let any = builder.reduce_or(&x);
        builder.mark_output_word(&x);
        builder.mark_output(any);
        let n = builder.finish();
        let mut inputs = to_bits(0b101010, 6);
        inputs.extend(to_bits(0b100110, 6));
        let out = n.evaluate(&inputs);
        assert_eq!(from_bits(&out[..6]), 0b001100);
        assert!(out[6]);
        // identical inputs -> zero, reduce_or false
        let mut inputs = to_bits(0b111000, 6);
        inputs.extend(to_bits(0b111000, 6));
        let out = n.evaluate(&inputs);
        assert_eq!(from_bits(&out[..6]), 0);
        assert!(!out[6]);
    }

    #[test]
    fn sign_and_zero_extension() {
        let mut builder = CircuitBuilder::new();
        let a = builder.input_word(4);
        let se = builder.sign_extend(&a, 8);
        let ze = builder.zero_extend(&a, 8);
        builder.mark_output_word(&se);
        builder.mark_output_word(&ze);
        let n = builder.finish();
        let out = n.evaluate(&to_bits(0b1010, 4));
        assert_eq!(from_bits(&out[..8]), 0b1111_1010);
        assert_eq!(from_bits(&out[8..]), 0b0000_1010);
    }

    #[test]
    #[should_panic(expected = "NOR gates support 1 to 4 inputs")]
    fn wide_nor_rejected() {
        let mut b = CircuitBuilder::new();
        let nets: Vec<NetId> = (0..5).map(|_| b.input()).collect();
        b.nor(&nets);
    }

    #[test]
    fn only_nor_thr_copy_and_constants_are_emitted() {
        // Every derived operation must lower to PiM-native gate kinds.
        let mut builder = CircuitBuilder::new();
        let a = builder.input_word(6);
        let b = builder.input_word(6);
        let p = builder.mul_unsigned(&a, &b);
        let (s, _) = builder.ripple_add(&p[..6].to_vec(), &b, None);
        builder.mark_output_word(&s);
        let n = builder.finish();
        assert!(n.gate_count() > 100);
        for gate in &n.gates {
            assert!(matches!(
                gate.op,
                LogicOp::Nor | LogicOp::Thr | LogicOp::Copy | LogicOp::Zero | LogicOp::One
            ));
        }
    }
}
