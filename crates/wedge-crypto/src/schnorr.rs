//! Schnorr signatures over a 127-bit safe-prime group.
//!
//! Every WedgeChain message is signed by its sender (§III of the paper):
//! clients sign add/put requests, edge nodes sign add-responses (the
//! client's dispute evidence), and the cloud signs block-proofs and
//! Merkle roots. The paper assumes a standard signature scheme; we
//! implement classic Schnorr over the subgroup of order `q` in `Z_p^*`
//! with `p = 2q + 1` (both prime, found by Miller-Rabin search).
//!
//! **Security note.** A 127-bit discrete-log group is *not* production
//! strength. It is structurally identical to a production scheme — sign
//! with a secret scalar, verify with a public group element, no shared
//! secrets — which is what the reproduction needs: the protocol's code
//! paths, message sizes and relative costs are exercised faithfully.
//! The README's crypto section records what the substitution costs.
//!
//! Nonces are derived deterministically (RFC 6979-style) via
//! HMAC-SHA256 of the secret key and message, so signing never needs an
//! external RNG and signatures are reproducible across runs.

use crate::digest::Digest;
use crate::hmac::hmac_sha256;
use crate::modmath::{MOD_P, MOD_Q};
use crate::sha256::sha256_concat;
use std::fmt;

/// The 127-bit safe prime `p = 2q + 1 = 2^126 + 0x337`.
pub const P: u128 = MOD_P.value();
/// The 126-bit prime subgroup order `q = (p - 1) / 2 = 2^125 + 0x19b`.
pub const Q: u128 = MOD_Q.value();
/// Generator of the order-`q` subgroup (a quadratic residue mod `p`).
pub const G: u128 = 4;

/// A secret signing key: a scalar in `[1, q)`.
#[derive(Clone, PartialEq, Eq)]
pub struct SecretKey {
    x: u128,
}

/// A public verification key: `y = g^x mod p`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey {
    y: u128,
}

/// A Schnorr signature `(e, s)` with the standard verification equation
/// `e == H(g^s · y^{-e} mod p || m)`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    pub e: u128,
    pub s: u128,
}

/// A signing keypair.
#[derive(Clone)]
pub struct Keypair {
    secret: SecretKey,
    public: PublicKey,
}

impl Keypair {
    /// Derives a keypair deterministically from seed bytes. Determinism
    /// keeps simulations reproducible; distinct seeds give distinct keys
    /// (up to SHA-256 collisions).
    pub fn from_seed(seed: &[u8]) -> Self {
        let d = sha256_concat(&[b"wedge-keygen-v1", seed]);
        // Reduce into [1, q). The 2^-126 bias is irrelevant here.
        let x = d.to_u128() % (Q - 1) + 1;
        let y = MOD_P.pow(G, x);
        Keypair { secret: SecretKey { x }, public: PublicKey { y } }
    }

    /// The public half.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Signs `message` with deterministic nonce derivation.
    pub fn sign(&self, message: &[u8]) -> Signature {
        // k = HMAC(x, m) reduced into [1, q): unique per (key, message).
        let k_digest = hmac_sha256(&self.secret.x.to_be_bytes(), message);
        let k = k_digest.to_u128() % (Q - 1) + 1;
        let r = MOD_P.pow(G, k);
        let e = challenge(r, message);
        // s = k + x·e mod q
        let s = MOD_Q.add(k, MOD_Q.mul(self.secret.x, e));
        Signature { e, s }
    }
}

impl PublicKey {
    /// Verifies `sig` over `message`.
    ///
    /// Recomputes `r_v = g^s · y^{-e} mod p` and accepts iff the
    /// challenge hash of `r_v` matches `e`. `y^{-e}` is computed as
    /// `y^{q-e}` since `y` has order `q`, and both powers share one
    /// squaring chain ([`crate::modmath::Modulus::pow2`]).
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        if sig.e >= Q || sig.s >= Q {
            return false;
        }
        if self.y == 0 || self.y == 1 || self.y >= P {
            return false;
        }
        let r_v = MOD_P.pow2(G, sig.s, self.y, MOD_Q.sub(0, sig.e));
        challenge(r_v, message) == sig.e
    }

    /// Raw group element, for canonical encoding.
    pub fn to_u128(&self) -> u128 {
        self.y
    }

    /// Reconstructs a key from its raw encoding (no subgroup check
    /// beyond range; `verify` re-checks degenerate values).
    pub fn from_u128(y: u128) -> Self {
        PublicKey { y }
    }
}

/// Fiat-Shamir challenge: `H(r || m)` folded into the scalar field.
fn challenge(r: u128, message: &[u8]) -> u128 {
    let d: Digest = sha256_concat(&[b"wedge-schnorr-v1", &r.to_be_bytes(), message]);
    d.to_u128() % Q
}

impl Signature {
    /// Canonical 32-byte wire encoding: `e || s`, each 16 bytes BE.
    pub fn to_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        out[..16].copy_from_slice(&self.e.to_be_bytes());
        out[16..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Decodes the wire encoding.
    pub fn from_bytes(b: &[u8; 32]) -> Self {
        let mut e = [0u8; 16];
        let mut s = [0u8; 16];
        e.copy_from_slice(&b[..16]);
        s.copy_from_slice(&b[16..]);
        Signature { e: u128::from_be_bytes(e), s: u128::from_be_bytes(s) }
    }
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey({:#034x})", self.y)
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signature(e={:#x}, s={:#x})", self.e, self.s)
    }
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the scalar.
        f.write_str("SecretKey(<redacted>)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_parameters_are_consistent() {
        assert_eq!(P, 2 * Q + 1);
        // g generates the order-q subgroup: g^q == 1, g != 1.
        assert_eq!(MOD_P.pow(G, Q), 1);
        assert_ne!(MOD_P.pow(G, 1), 1);
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = Keypair::from_seed(b"edge-node-1");
        let msg = b"block 42 digest abc";
        let sig = kp.sign(msg);
        assert!(kp.public().verify(msg, &sig));
    }

    #[test]
    fn tampered_message_rejected() {
        let kp = Keypair::from_seed(b"edge-node-1");
        let sig = kp.sign(b"block 42");
        assert!(!kp.public().verify(b"block 43", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let kp1 = Keypair::from_seed(b"node-a");
        let kp2 = Keypair::from_seed(b"node-b");
        let sig = kp1.sign(b"msg");
        assert!(!kp2.public().verify(b"msg", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let kp = Keypair::from_seed(b"node");
        let mut sig = kp.sign(b"msg");
        sig.s = MOD_Q.add(sig.s, 1);
        assert!(!kp.public().verify(b"msg", &sig));
        let mut sig2 = kp.sign(b"msg");
        sig2.e = MOD_Q.add(sig2.e, 1);
        assert!(!kp.public().verify(b"msg", &sig2));
    }

    #[test]
    fn out_of_range_signature_rejected() {
        let kp = Keypair::from_seed(b"node");
        let sig = Signature { e: Q, s: 0 };
        assert!(!kp.public().verify(b"msg", &sig));
        let sig = Signature { e: 0, s: Q + 5 };
        assert!(!kp.public().verify(b"msg", &sig));
    }

    #[test]
    fn degenerate_public_key_rejected() {
        let pk = PublicKey::from_u128(1);
        let kp = Keypair::from_seed(b"node");
        let sig = kp.sign(b"msg");
        assert!(!pk.verify(b"msg", &sig));
    }

    #[test]
    fn deterministic_signatures() {
        let kp = Keypair::from_seed(b"node");
        assert_eq!(kp.sign(b"m").to_bytes(), kp.sign(b"m").to_bytes());
        assert_ne!(kp.sign(b"m1").to_bytes(), kp.sign(b"m2").to_bytes());
    }

    #[test]
    fn signature_wire_roundtrip() {
        let kp = Keypair::from_seed(b"node");
        let sig = kp.sign(b"payload");
        let decoded = Signature::from_bytes(&sig.to_bytes());
        assert_eq!(sig, decoded);
        assert!(kp.public().verify(b"payload", &decoded));
    }

    #[test]
    fn distinct_seeds_distinct_keys() {
        let a = Keypair::from_seed(b"a").public();
        let b = Keypair::from_seed(b"b").public();
        assert_ne!(a.to_u128(), b.to_u128());
    }
}
