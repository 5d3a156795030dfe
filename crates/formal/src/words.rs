//! Word-level operations over vectors of AIG literals.
//!
//! The elaborator works on words (LSB-first vectors of [`Lit`]); this module
//! provides the arithmetic and relational circuits it needs: ripple-carry
//! addition and subtraction, unsigned comparison, equality, shifts by
//! constant amounts, multiplexing and width adjustment.

use crate::aig::{Aig, Lit};

/// Zero-extends or truncates `word` to exactly `width` bits.
pub fn resize(word: &[Lit], width: usize) -> Vec<Lit> {
    let mut out: Vec<Lit> = word.iter().copied().take(width).collect();
    while out.len() < width {
        out.push(Lit::FALSE);
    }
    out
}

/// The `width` bits of `word` from bit `lsb` up; bits past its end read 0.
pub fn slice(word: &[Lit], lsb: usize, width: usize) -> Vec<Lit> {
    resize(word.get(lsb..).unwrap_or_default(), width)
}

/// Builds a constant word of `width` bits holding `value` (LSB first).
pub fn constant(value: u128, width: usize) -> Vec<Lit> {
    (0..width)
        .map(|i| {
            if i < 128 && (value >> i) & 1 == 1 {
                Lit::TRUE
            } else {
                Lit::FALSE
            }
        })
        .collect()
}

/// Reads a constant word back as an integer, if every bit is constant.
pub fn as_constant(word: &[Lit]) -> Option<u128> {
    let mut out: u128 = 0;
    for (i, &bit) in word.iter().enumerate() {
        if bit == Lit::TRUE {
            if i < 128 {
                out |= 1 << i;
            }
        } else if bit != Lit::FALSE {
            return None;
        }
    }
    Some(out)
}

/// Reduction OR of a word (non-zero test).
pub fn reduce_or(aig: &mut Aig, word: &[Lit]) -> Lit {
    aig.or_many(word)
}

/// Reduction AND of a word.
pub fn reduce_and(aig: &mut Aig, word: &[Lit]) -> Lit {
    aig.and_many(word)
}

/// Reduction XOR of a word.
pub fn reduce_xor(aig: &mut Aig, word: &[Lit]) -> Lit {
    let mut acc = Lit::FALSE;
    for &b in word {
        acc = aig.xor(acc, b);
    }
    acc
}

/// Bitwise NOT.
pub fn not(word: &[Lit]) -> Vec<Lit> {
    word.iter().map(|b| b.invert()).collect()
}

/// Bitwise binary operation applied lane-wise after width equalization.
pub fn bitwise(
    aig: &mut Aig,
    a: &[Lit],
    b: &[Lit],
    f: impl Fn(&mut Aig, Lit, Lit) -> Lit,
) -> Vec<Lit> {
    let width = a.len().max(b.len());
    let a = resize(a, width);
    let b = resize(b, width);
    a.iter().zip(&b).map(|(&x, &y)| f(aig, x, y)).collect()
}

/// Ripple-carry addition; the result has the width of the wider operand
/// (carry-out discarded, i.e. wrapping semantics).
pub fn add(aig: &mut Aig, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
    let width = a.len().max(b.len());
    let a = resize(a, width);
    let b = resize(b, width);
    let mut out = Vec::with_capacity(width);
    let mut carry = Lit::FALSE;
    for i in 0..width {
        let (s, c) = full_adder(aig, a[i], b[i], carry);
        out.push(s);
        carry = c;
    }
    out
}

/// Wrapping subtraction `a - b` (two's complement).
pub fn sub(aig: &mut Aig, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
    let width = a.len().max(b.len());
    let a = resize(a, width);
    let b = resize(b, width);
    let mut out = Vec::with_capacity(width);
    let mut carry = Lit::TRUE;
    for i in 0..width {
        let (s, c) = full_adder(aig, a[i], b[i].invert(), carry);
        out.push(s);
        carry = c;
    }
    out
}

fn full_adder(aig: &mut Aig, a: Lit, b: Lit, cin: Lit) -> (Lit, Lit) {
    let axb = aig.xor(a, b);
    let sum = aig.xor(axb, cin);
    let c1 = aig.and(a, b);
    let c2 = aig.and(axb, cin);
    let cout = aig.or(c1, c2);
    (sum, cout)
}

/// Equality of two words (after width equalization).
pub fn eq(aig: &mut Aig, a: &[Lit], b: &[Lit]) -> Lit {
    let width = a.len().max(b.len());
    let a = resize(a, width);
    let b = resize(b, width);
    aig.word_eq(&a, &b)
}

/// Unsigned `a < b`.
pub fn ult(aig: &mut Aig, a: &[Lit], b: &[Lit]) -> Lit {
    let width = a.len().max(b.len());
    let a = resize(a, width);
    let b = resize(b, width);
    // a < b  <=>  a - b underflows  <=>  NOT carry-out of a + ~b + 1
    let mut carry = Lit::TRUE;
    for i in 0..width {
        let (_, c) = full_adder(aig, a[i], b[i].invert(), carry);
        carry = c;
    }
    carry.invert()
}

/// Unsigned `a <= b`.
pub fn ule(aig: &mut Aig, a: &[Lit], b: &[Lit]) -> Lit {
    ult(aig, b, a).invert()
}

/// Word-level multiplexer: `sel ? t : e` (width-equalized).
pub fn mux(aig: &mut Aig, sel: Lit, t: &[Lit], e: &[Lit]) -> Vec<Lit> {
    let width = t.len().max(e.len());
    let t = resize(t, width);
    let e = resize(e, width);
    t.iter()
        .zip(&e)
        .map(|(&x, &y)| aig.mux(sel, x, y))
        .collect()
}

/// Logical shift left by a constant amount.
pub fn shl_const(word: &[Lit], amount: usize) -> Vec<Lit> {
    let width = word.len();
    (0..width)
        .map(|i| {
            if i >= amount {
                word[i - amount]
            } else {
                Lit::FALSE
            }
        })
        .collect()
}

/// Logical shift right by a constant amount.
pub fn shr_const(word: &[Lit], amount: usize) -> Vec<Lit> {
    let width = word.len();
    (0..width)
        .map(|i| {
            if i + amount < width {
                word[i + amount]
            } else {
                Lit::FALSE
            }
        })
        .collect()
}

/// Dynamic element select from a list of equally sized words: returns
/// `words[index]` as a mux tree, with out-of-range indices reading as zero.
/// An index narrower than the list reaches only the elements whose number
/// fits in its width.
pub fn select(aig: &mut Aig, words: &[Vec<Lit>], index: &[Lit]) -> Vec<Lit> {
    let width = words.iter().map(Vec::len).max().unwrap_or(0);
    let reach = u32::try_from(index.len())
        .ok()
        .and_then(|bits| 1usize.checked_shl(bits))
        .unwrap_or(usize::MAX);
    let mut result = constant(0, width);
    for (i, word) in words.iter().enumerate().take(reach) {
        let idx_const = constant(i as u128, index.len());
        let is_this = eq(aig, index, &idx_const);
        result = mux(aig, is_this, word, &result);
    }
    result
}

/// Simple unsigned multiplication by shift-and-add, truncated to the width of
/// the wider operand.  Only used for constant folding of parameter
/// expressions in practice.
pub fn mul(aig: &mut Aig, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
    let width = a.len().max(b.len());
    let a = resize(a, width);
    let b = resize(b, width);
    let mut acc = constant(0, width);
    for (i, &b_bit) in b.iter().enumerate() {
        let shifted = shl_const(&a, i);
        let addend = mux(aig, b_bit, &shifted, &constant(0, width));
        acc = add(aig, &acc, &addend);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(aig: &Aig, word: &[Lit], env: &dyn Fn(usize) -> bool) -> u128 {
        // Recursive constant evaluation for tests (inputs resolved by env).
        fn eval_lit(aig: &Aig, lit: Lit, env: &dyn Fn(usize) -> bool) -> bool {
            use crate::aig::Node;
            let v = match aig.node(lit.node()) {
                Node::False => false,
                Node::Input | Node::Latch => env(lit.node()),
                Node::And(a, b) => eval_lit(aig, a, env) && eval_lit(aig, b, env),
            };
            v ^ lit.is_inverted()
        }
        word.iter()
            .enumerate()
            .map(|(i, &b)| if eval_lit(aig, b, env) { 1u128 << i } else { 0 })
            .sum()
    }

    #[test]
    fn constants_roundtrip() {
        let w = constant(0b1011, 6);
        assert_eq!(as_constant(&w), Some(0b1011));
        assert_eq!(as_constant(&constant(0, 4)), Some(0));
        assert_eq!(resize(&w, 2).len(), 2);
        assert_eq!(as_constant(&resize(&w, 2)), Some(0b11));
        assert_eq!(as_constant(&resize(&w, 10)), Some(0b1011));
    }

    #[test]
    fn adder_matches_arithmetic() {
        let mut aig = Aig::new();
        for (a, b) in [(3u128, 5u128), (15, 1), (7, 7), (0, 0)] {
            let wa = constant(a, 4);
            let wb = constant(b, 4);
            let sum = add(&mut aig, &wa, &wb);
            assert_eq!(eval(&aig, &sum, &|_| false), (a + b) & 0xF, "{a}+{b}");
        }
    }

    #[test]
    fn subtractor_matches_arithmetic() {
        let mut aig = Aig::new();
        for (a, b) in [(9u128, 3u128), (3, 9), (0, 1), (15, 15)] {
            let wa = constant(a, 4);
            let wb = constant(b, 4);
            let diff = sub(&mut aig, &wa, &wb);
            assert_eq!(
                eval(&aig, &diff, &|_| false),
                a.wrapping_sub(b) & 0xF,
                "{a}-{b}"
            );
        }
    }

    #[test]
    fn comparisons() {
        let mut aig = Aig::new();
        for (a, b) in [(3u128, 5u128), (5, 3), (4, 4), (0, 15)] {
            let wa = constant(a, 4);
            let wb = constant(b, 4);
            let lt = ult(&mut aig, &wa, &wb);
            let le = ule(&mut aig, &wa, &wb);
            let equal = eq(&mut aig, &wa, &wb);
            assert_eq!(lt == Lit::TRUE, a < b, "{a}<{b}");
            assert_eq!(le == Lit::TRUE, a <= b, "{a}<={b}");
            assert_eq!(equal == Lit::TRUE, a == b, "{a}=={b}");
        }
    }

    #[test]
    fn reductions() {
        let mut aig = Aig::new();
        assert_eq!(reduce_or(&mut aig, &constant(0, 4)), Lit::FALSE);
        assert_eq!(reduce_or(&mut aig, &constant(8, 4)), Lit::TRUE);
        assert_eq!(reduce_and(&mut aig, &constant(0xF, 4)), Lit::TRUE);
        assert_eq!(reduce_and(&mut aig, &constant(0x7, 4)), Lit::FALSE);
        assert_eq!(reduce_xor(&mut aig, &constant(0b101, 3)), Lit::FALSE);
        assert_eq!(reduce_xor(&mut aig, &constant(0b100, 3)), Lit::TRUE);
    }

    #[test]
    fn shifts() {
        assert_eq!(
            as_constant(&shl_const(&constant(0b0011, 4), 1)),
            Some(0b0110)
        );
        assert_eq!(
            as_constant(&shr_const(&constant(0b1100, 4), 2)),
            Some(0b0011)
        );
        assert_eq!(as_constant(&shl_const(&constant(0b1111, 4), 4)), Some(0));
    }

    #[test]
    fn mux_and_select() {
        let mut aig = Aig::new();
        let sel = aig.add_input("sel");
        let t = constant(5, 4);
        let e = constant(9, 4);
        let m = mux(&mut aig, sel, &t, &e);
        assert_eq!(eval(&aig, &m, &|n| n == sel.node()), 5);
        assert_eq!(eval(&aig, &m, &|_| false), 9);

        let words = vec![constant(1, 4), constant(2, 4), constant(3, 4)];
        let idx = constant(2, 2);
        let s = select(&mut aig, &words, &idx);
        assert_eq!(as_constant(&s), Some(3));
        // Out-of-range index reads zero.
        let idx_oob = constant(3, 2);
        let s = select(&mut aig, &words, &idx_oob);
        assert_eq!(as_constant(&s), Some(0));
    }

    #[test]
    fn multiplication() {
        let mut aig = Aig::new();
        for (a, b) in [(3u128, 5u128), (7, 2), (0, 9)] {
            let p = mul(&mut aig, &constant(a, 5), &constant(b, 5));
            assert_eq!(eval(&aig, &p, &|_| false), (a * b) & 0x1F, "{a}*{b}");
        }
    }

    #[test]
    fn bitwise_ops() {
        let mut aig = Aig::new();
        let a = constant(0b1100, 4);
        let b = constant(0b1010, 4);
        let and = bitwise(&mut aig, &a, &b, |g, x, y| g.and(x, y));
        let or = bitwise(&mut aig, &a, &b, |g, x, y| g.or(x, y));
        let xor = bitwise(&mut aig, &a, &b, |g, x, y| g.xor(x, y));
        assert_eq!(as_constant(&and), Some(0b1000));
        assert_eq!(as_constant(&or), Some(0b1110));
        assert_eq!(as_constant(&xor), Some(0b0110));
        assert_eq!(as_constant(&not(&a)), Some(0b0011));
    }
}
