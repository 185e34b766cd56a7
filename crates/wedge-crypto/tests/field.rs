//! Bit-identity of the pseudo-Mersenne field code and the joint-power
//! verify against the double-and-add ladder they replaced.
//!
//! The ladder lives in `src/ladder.rs`, compiled only for tests; this
//! file includes it by path so both test harnesses share one oracle.

use wedge_crypto::modmath::{Modulus, MOD_P, MOD_Q};
use wedge_crypto::schnorr::{Keypair, PublicKey, Signature, G, P, Q};
use wedge_crypto::sha256_concat;

#[path = "../src/ladder.rs"]
mod ladder;

/// SplitMix64, seeded per test so every run checks the same cases.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish in `[0, n)`.
    fn below(&mut self, n: u128) -> u128 {
        (((self.next() as u128) << 64) | self.next() as u128) % n
    }
}

/// The values where carries, borrows and conditional subtractions turn.
fn edges(m: u128) -> [u128; 5] {
    [0, 1, 2, m - 2, m - 1]
}

fn check_mul(f: Modulus, seed: u64) {
    let m = f.value();
    for a in edges(m) {
        for b in edges(m) {
            assert_eq!(f.mul(a, b), ladder::mulmod(a, b, m), "{a} * {b} mod {m}");
        }
    }
    let mut rng = Rng(seed);
    for i in 0..100_000 {
        let a = rng.below(m);
        // Every fourth pair takes an edge value as one operand.
        let b = if i % 4 == 0 { edges(m)[i / 4 % 5] } else { rng.below(m) };
        assert_eq!(f.mul(a, b), ladder::mulmod(a, b, m), "{a} * {b} mod {m}");
    }
}

#[test]
fn mul_matches_ladder_mod_p() {
    check_mul(MOD_P, 0x50_0001);
}

#[test]
fn mul_matches_ladder_mod_q() {
    check_mul(MOD_Q, 0x51_0001);
}

/// 100 random `(base, exp, stride)` starts, each walked 1000 strides:
/// pair `i` is `(b, e + i·δ mod (m - 1))`. Fermat makes the oracle
/// value of each pair the previous one times `b^δ`, so the walk costs
/// one ladder multiply per pair instead of a ladder power.
fn check_pow(f: Modulus, seed: u64) {
    let m = f.value();
    for base in edges(m) {
        for exp in edges(m).into_iter().chain([m, u128::MAX >> 2]) {
            assert_eq!(f.pow(base, exp), ladder::modpow(base, exp, m), "{base}^{exp} mod {m}");
        }
    }
    let mut rng = Rng(seed);
    let mut pairs = 0;
    for _ in 0..100 {
        let base = 1 + rng.below(m - 1);
        let step = rng.below(m - 1);
        let mut exp = rng.below(m - 1);
        let mut want = ladder::modpow(base, exp, m);
        let base_step = ladder::modpow(base, step, m);
        for _ in 0..1000 {
            assert_eq!(f.pow(base, exp), want, "{base}^{exp} mod {m}");
            exp = ladder::addmod(exp, step, m - 1);
            want = ladder::mulmod(want, base_step, m);
            pairs += 1;
        }
    }
    assert_eq!(pairs, 100_000);
}

#[test]
fn pow_matches_ladder_mod_p() {
    check_pow(MOD_P, 0x52_0001);
}

#[test]
fn pow_matches_ladder_mod_q() {
    check_pow(MOD_Q, 0x53_0001);
}

#[test]
fn pow2_matches_two_ladder_pows() {
    let mut rng = Rng(0x54_0001);
    for _ in 0..500 {
        let (a, b) = (rng.below(P), rng.below(P));
        let (x, y) = (rng.below(Q), rng.below(Q));
        let want = ladder::mulmod(ladder::modpow(a, x, P), ladder::modpow(b, y, P), P);
        assert_eq!(MOD_P.pow2(a, x, b, y), want);
    }
}

/// Public keys and signatures recorded from the double-and-add
/// implementation: `(seed, message, y, sig.to_bytes())`.
const KNOWN_ANSWERS: [(&[u8], &[u8], u128, &str); 5] = [
    (
        b"edge-node-1",
        b"block 42 digest abc",
        0x24365675cffbfaed161e0d2e73f1e388,
        "12e31d099f1f0a86676ca6f56a4501a11fabbd416199fb5ac17f88791182f941",
    ),
    (
        b"cloud",
        b"",
        0x0a15eb010a1b4054b32b9861bf34a46b,
        "16df65fb3a18328bf03ef99f175b389807a28c22218994124dfec2ff9fa9ca5b",
    ),
    (
        b"client-7",
        &[0x42; 256],
        0x33ea89f78ff104ab499b0514cc574317,
        "08c6e7ca4384d0a722ca74412d471b9b17313533693a7223d88a701ab26a440c",
    ),
    (
        b"bench",
        &[0x42; 256],
        0x2ab5c1222a5b88af60c3e2272d83cd01,
        "0dc1a03f7a4e0f20251eb1a5f9505ef51a2903ba6657319d6b25041158dddf74",
    ),
    (
        b"",
        b"wedgechain",
        0x2a842e28606f7316f532b86b254fc6b1,
        "03506121924569c6de6140c80293a83b1ac95b4de36a54eef82a61cd31bb044b",
    ),
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn keys_and_signatures_match_known_answers() {
    for (seed, msg, y, sig) in KNOWN_ANSWERS {
        let kp = Keypair::from_seed(seed);
        assert_eq!(kp.public().to_u128(), y, "public key for seed {seed:?}");
        assert_eq!(hex(&kp.sign(msg).to_bytes()), sig, "signature for seed {seed:?}");
    }
}

/// The verify the joint power replaced, verbatim but on the ladder:
/// two separate powers, a multiply, and the `e % Q` that the range
/// check already made redundant.
fn verify_two_modpow(y: u128, msg: &[u8], sig: &Signature) -> bool {
    if sig.e >= Q || sig.s >= Q {
        return false;
    }
    if y == 0 || y == 1 || y >= P {
        return false;
    }
    let g_s = ladder::modpow(G, sig.s, P);
    let y_inv_e = ladder::modpow(y, ladder::submod(0, sig.e % Q, Q), P);
    let r_v = ladder::mulmod(g_s, y_inv_e, P);
    sha256_concat(&[b"wedge-schnorr-v1", &r_v.to_be_bytes(), msg]).to_u128() % Q == sig.e
}

fn assert_same_verdict(y: u128, msg: &[u8], sig: &Signature) -> bool {
    let got = PublicKey::from_u128(y).verify(msg, sig);
    assert_eq!(got, verify_two_modpow(y, msg, sig), "y={y:#x} sig={sig:?}");
    got
}

#[test]
fn joint_verify_accepts_exactly_what_two_modpow_verify_accepts() {
    let mut rng = Rng(0x55_0001);
    let mut accepted = 0;
    for case in 0..48u64 {
        let kp = Keypair::from_seed(&case.to_be_bytes());
        let y = kp.public().to_u128();
        let msg = format!("message {case}");
        let sig = kp.sign(msg.as_bytes());
        assert!(assert_same_verdict(y, msg.as_bytes(), &sig));
        accepted += 1;
        // Tampered s and e: neighbours, range edges, random values.
        let rs = rng.below(Q);
        for s in [sig.s ^ 1, MOD_Q.add(sig.s, 1), 0, Q - 1, rs, Q, u128::MAX] {
            assert!(!assert_same_verdict(y, msg.as_bytes(), &Signature { e: sig.e, s }));
        }
        let re = rng.below(Q);
        for e in [sig.e ^ 1, MOD_Q.add(sig.e, 1), 0, Q - 1, re, Q, u128::MAX] {
            assert!(!assert_same_verdict(y, msg.as_bytes(), &Signature { e, s: sig.s }));
        }
        // The wrong message.
        assert!(!assert_same_verdict(y, b"other", &sig));
    }
    assert_eq!(accepted, 48);
}

#[test]
fn joint_verify_agrees_on_degenerate_keys() {
    let kp = Keypair::from_seed(b"node");
    let sig = kp.sign(b"msg");
    let mut rng = Rng(0x56_0001);
    // Range rejects, the identity, the order-2 element, a generator of
    // the whole group and elements outside the order-q subgroup.
    let keys = [0, 1, P - 1, P, P + 1, u128::MAX, 2, 3, G, rng.below(P)];
    for y in keys {
        assert_same_verdict(y, b"msg", &sig);
        for _ in 0..8 {
            let forged = Signature { e: rng.below(Q), s: rng.below(Q) };
            assert_same_verdict(y, b"msg", &forged);
        }
    }
    // With y = p - 1 = -1, y^(q-e) is ±1 by the parity of e, so about
    // half of all (s, e = H(g^s || m)) pairs verify. Both verifies
    // must accept the same ones.
    let mut forgeries = 0;
    for _ in 0..32 {
        let s = rng.below(Q);
        let r = MOD_P.pow(G, s);
        let e = sha256_concat(&[b"wedge-schnorr-v1", &r.to_be_bytes(), b"msg"]).to_u128() % Q;
        if assert_same_verdict(P - 1, b"msg", &Signature { e, s }) {
            forgeries += 1;
        }
    }
    assert!(forgeries > 0 && forgeries < 32, "{forgeries} of 32 accepted");
}

/// `verify` used `sig.e % Q` after rejecting `sig.e >= Q`. Dropping the
/// dead reduction must not move a verdict at the edges of the range,
/// where `q - e` is `0` (e = 0) or `1` (e = q - 1).
#[test]
fn dropping_dead_e_mod_q_keeps_verdicts() {
    let mut rng = Rng(0x57_0001);
    for y in [Keypair::from_seed(b"node").public().to_u128(), P - 1, 2] {
        for e in [0, 1, Q - 2, Q - 1] {
            for _ in 0..8 {
                assert_same_verdict(y, b"msg", &Signature { e, s: rng.below(Q) });
            }
        }
    }
}
