//! Double-and-add modular arithmetic for any modulus below 2^127.
//!
//! This is the generic multiply the pseudo-Mersenne field code in
//! [`modmath`](crate::modmath) replaced: 128 conditional additions per
//! product, no wide intermediates. It is compiled for tests only, as
//! the oracle that the fast path must match bit for bit. The crate's
//! unit tests reach it as `modmath::ladder`; integration tests include
//! this file by path.

#![cfg(test)]
#![allow(dead_code)]

/// `a + b (mod m)`. Requires `a, b < m < 2^127`.
pub fn addmod(a: u128, b: u128, m: u128) -> u128 {
    let s = a + b;
    if s >= m {
        s - m
    } else {
        s
    }
}

/// `a - b (mod m)`. Requires `a, b < m`.
pub fn submod(a: u128, b: u128, m: u128) -> u128 {
    if a >= b {
        a - b
    } else {
        m - (b - a)
    }
}

/// `a · b (mod m)` via double-and-add. Requires `m < 2^127`.
pub fn mulmod(mut a: u128, mut b: u128, m: u128) -> u128 {
    a %= m;
    b %= m;
    if a < b {
        std::mem::swap(&mut a, &mut b);
    }
    let mut acc = 0;
    while b > 0 {
        if b & 1 == 1 {
            acc = addmod(acc, a, m);
        }
        a = addmod(a, a, m);
        b >>= 1;
    }
    acc
}

/// `base^exp (mod m)` by right-to-left square-and-multiply.
pub fn modpow(mut base: u128, mut exp: u128, m: u128) -> u128 {
    let mut acc = 1;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mulmod(acc, base, m);
        }
        base = mulmod(base, base, m);
        exp >>= 1;
    }
    acc
}

/// Fermat inverse `a^(m-2) mod m` for prime `m`.
pub fn invmod(a: u128, m: u128) -> u128 {
    modpow(a, m - 2, m)
}
