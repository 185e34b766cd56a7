//! Arithmetic modulo the two primes of the Schnorr group.
//!
//! [`crate::schnorr`] works in `Z_p^*` with `p = 2^126 + 0x337` and in
//! the exponent ring `Z_q` with `q = (p - 1) / 2 = 2^125 + 0x19b`. Both
//! are pseudo-Mersenne: `m = 2^k + c` with a small `c`. That shape is
//! what makes multiplication cheap. Writing `d = c · 2^(128 - k)`,
//!
//! ```text
//! 2^128 = 2^(128 - k) · m - d  ≡  -d   (mod m)
//! ```
//!
//! so a 256-bit product `hi · 2^128 + lo` is congruent to
//! `lo - d · hi`, a number barely wider than 128 bits. For `p` the fold
//! constant is `d = 4 · 0x337 = 0xcdc`; for `q` it is
//! `d = 8 · 0x19b = 0xcd8`. [`Modulus::mul`] forms the full product from
//! four 64×64 limb products, folds it twice at bit 128, and finishes
//! with a fold at bit `k` and one conditional subtraction. No step
//! divides.
//!
//! The only values of [`Modulus`] are [`MOD_P`] and [`MOD_Q`]; every
//! operand must already be reduced (`< m`).

/// A pseudo-Mersenne prime `m = 2^k + c` with `125 <= k <= 126` and
/// `c < 2^10`, plus the constant its fold needs.
#[derive(Clone, Copy, Debug)]
pub struct Modulus {
    m: u128,
    k: u32,
    c: u128,
    /// `d = c · 2^(128 - k)`, so that `2^128 ≡ -d (mod m)`.
    d: u128,
}

/// The field prime `p = 2^126 + 0x337` of the Schnorr group.
pub const MOD_P: Modulus = Modulus::pseudo_mersenne(126, 0x337);
/// The subgroup order `q = 2^125 + 0x19b`, the modulus of exponents.
pub const MOD_Q: Modulus = Modulus::pseudo_mersenne(125, 0x19b);

impl Modulus {
    const fn pseudo_mersenne(k: u32, c: u128) -> Self {
        Modulus { m: (1 << k) + c, k, c, d: c << (128 - k) }
    }

    /// The modulus as an integer.
    pub const fn value(&self) -> u128 {
        self.m
    }

    /// `a + b (mod m)`. Cannot overflow: `a, b < m < 2^127`.
    #[inline]
    pub fn add(&self, a: u128, b: u128) -> u128 {
        debug_assert!(a < self.m && b < self.m);
        let s = a + b;
        if s >= self.m {
            s - self.m
        } else {
            s
        }
    }

    /// `a - b (mod m)`.
    #[inline]
    pub fn sub(&self, a: u128, b: u128) -> u128 {
        debug_assert!(a < self.m && b < self.m);
        if a >= b {
            a - b
        } else {
            self.m - (b - a)
        }
    }

    /// `a · b (mod m)` by limb product and pseudo-Mersenne fold.
    #[inline]
    pub fn mul(&self, a: u128, b: u128) -> u128 {
        debug_assert!(a < self.m && b < self.m);
        let (hi, lo) = mul_wide(a, b);
        // hi < 2^126, so d·hi = t1·2^128 + t0 with t1 < 2^10.
        let (t1, t0) = mul_wide_small(hi, self.d as u64);
        // a·b ≡ lo - t0 - t1·2^128 ≡ lo - t0 + d·t1.
        let (r, borrow) = lo.overflowing_sub(t0);
        // A borrow took 2^128 ≡ -d away; put d back instead.
        let e = self.d * t1 + if borrow { self.d } else { 0 };
        let (r, carry) = r.overflowing_add(e);
        // A carry dropped 2^128 ≡ -d; r < e is tiny, so add m - d.
        let r = if carry { r + (self.m - self.d) } else { r };
        // r < 2^128 = h·2^k + l with h < 2^(128-k) and l < 2^k:
        // r ≡ l - c·h, lifted by m to stay non-negative, lands in [0, 2m).
        let h = r >> self.k;
        let l = r & ((1 << self.k) - 1);
        let r = l + self.m - self.c * h;
        if r >= self.m {
            r - self.m
        } else {
            r
        }
    }

    /// `base^exp (mod m)` by left-to-right square-and-multiply.
    pub fn pow(&self, base: u128, exp: u128) -> u128 {
        debug_assert!(base < self.m);
        let mut acc = 1;
        for i in (0..u128::BITS - exp.leading_zeros()).rev() {
            acc = self.mul(acc, acc);
            if (exp >> i) & 1 == 1 {
                acc = self.mul(acc, base);
            }
        }
        acc
    }

    /// `a^x · b^y (mod m)` in one Shamir/Straus pass: a single chain of
    /// squarings, multiplying in `a`, `b` or `a·b` per bit pair.
    pub fn pow2(&self, a: u128, x: u128, b: u128, y: u128) -> u128 {
        debug_assert!(a < self.m && b < self.m);
        let ab = self.mul(a, b);
        let mut acc = 1;
        for i in (0..u128::BITS - (x | y).leading_zeros()).rev() {
            acc = self.mul(acc, acc);
            match ((x >> i) & 1, (y >> i) & 1) {
                (1, 1) => acc = self.mul(acc, ab),
                (1, 0) => acc = self.mul(acc, a),
                (0, 1) => acc = self.mul(acc, b),
                _ => {}
            }
        }
        acc
    }
}

/// The full 256-bit product of `a, b < 2^127`, as `(hi, lo)`.
#[inline]
fn mul_wide(a: u128, b: u128) -> (u128, u128) {
    let (a1, a0) = ((a >> 64) as u64, a as u64);
    let (b1, b0) = ((b >> 64) as u64, b as u64);
    // a1, b1 < 2^63, so each cross term is < 2^127 and their sum fits.
    let mid = mul64(a0, b1) + mul64(a1, b0);
    let (lo, carry) = mul64(a0, b0).overflowing_add(mid << 64);
    (mul64(a1, b1) + (mid >> 64) + carry as u128, lo)
}

/// `x · d` for `d < 2^64`, as `(hi, lo)` halves of the 192-bit result.
#[inline]
fn mul_wide_small(x: u128, d: u64) -> (u128, u128) {
    let top = mul64((x >> 64) as u64, d);
    let (lo, carry) = mul64(x as u64, d).overflowing_add(top << 64);
    ((top >> 64) + carry as u128, lo)
}

/// One 64×64 → 128-bit hardware multiply.
#[inline]
fn mul64(x: u64, y: u64) -> u128 {
    x as u128 * y as u128
}

/// The double-and-add ladder the field code replaced, kept as the
/// bit-exact oracle for tests.
#[cfg(test)]
#[path = "ladder.rs"]
pub(crate) mod ladder;

#[cfg(test)]
mod tests {
    use super::ladder;
    use super::*;

    const P: u128 = MOD_P.value();
    const Q: u128 = MOD_Q.value();

    #[test]
    fn addmod_wraps() {
        for f in [MOD_P, MOD_Q] {
            let m = f.value();
            assert_eq!(f.add(m - 1, 1), 0);
            assert_eq!(f.add(m - 1, 2), 1);
            assert_eq!(f.add(m - 1, m - 1), m - 2);
            assert_eq!(f.add(0, 0), 0);
        }
    }

    #[test]
    fn submod_wraps() {
        for f in [MOD_P, MOD_Q] {
            let m = f.value();
            assert_eq!(f.sub(0, 1), m - 1);
            assert_eq!(f.sub(5, 3), 2);
            assert_eq!(f.sub(0, m - 1), 1);
        }
    }

    #[test]
    fn mulmod_small_cases() {
        for f in [MOD_P, MOD_Q] {
            let m = f.value();
            assert_eq!(f.mul(7, 6), 42);
            assert_eq!(f.mul(0, 12345), 0);
            assert_eq!(f.mul(1, 12345), 12345);
            assert_eq!(f.mul(7, 6), ladder::mulmod(7, 6, m));
        }
    }

    #[test]
    fn mulmod_large_operands() {
        for f in [MOD_P, MOD_Q] {
            let m = f.value();
            // (m-1)^2 ≡ 1 since m-1 ≡ -1.
            assert_eq!(f.mul(m - 1, m - 1), 1);
            // (m-1)·2 ≡ m - 2.
            assert_eq!(f.mul(m - 1, 2), m - 2);
            // Products near 2^252 exercise both folds.
            let big = 1u128 << 124;
            assert_eq!(f.mul(big, m - 2), ladder::mulmod(big, m - 2, m));
            assert_eq!(f.mul(m - 2, m - 1), 2);
        }
    }

    #[test]
    fn modpow_matches_naive() {
        for f in [MOD_P, MOD_Q] {
            let m = f.value();
            for base in [2u128, 3, 65537, m - 2] {
                let mut naive = 1u128;
                for e in 0..40u128 {
                    assert_eq!(f.pow(base, e), naive, "base {base} exp {e}");
                    assert_eq!(naive, ladder::modpow(base, e, m));
                    naive = ladder::mulmod(naive, base, m);
                }
            }
        }
    }

    #[test]
    fn fermat_holds_in_group() {
        // a^(m-1) == 1 for m prime, in both fields.
        for f in [MOD_P, MOD_Q] {
            let m = f.value();
            for a in [2u128, 3, 0x1234_5678_9abc_def0, m - 1] {
                assert_eq!(f.pow(a, m - 1), 1);
            }
        }
        assert_eq!(P, 2 * Q + 1);
    }

    #[test]
    fn invmod_is_inverse() {
        // Fermat inverse a^(m-2).
        for f in [MOD_P, MOD_Q] {
            let m = f.value();
            for a in [2u128, 999, 0xdead_beef, m - 2] {
                let inv = f.pow(a, m - 2);
                assert_eq!(f.mul(a, inv), 1);
                assert_eq!(inv, ladder::invmod(a, m));
            }
        }
    }

    #[test]
    fn pow2_is_product_of_pows() {
        for f in [MOD_P, MOD_Q] {
            let m = f.value();
            for (a, x, b, y) in [(4, m - 2, 7, 3), (4, 0, 9, 0), (2, 1, 3, m - 1), (m - 1, 5, 1, 7)]
            {
                assert_eq!(f.pow2(a, x, b, y), f.mul(f.pow(a, x), f.pow(b, y)));
            }
        }
    }
}
