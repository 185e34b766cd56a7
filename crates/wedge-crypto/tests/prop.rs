//! Property-style tests for the crypto substrate.
//!
//! The container has no third-party crates, so instead of proptest
//! these run each property over a deterministic stream of SplitMix64-
//! generated cases — same coverage intent, fully reproducible.

use wedge_crypto::merkle::MerkleTree;
use wedge_crypto::modmath::{MOD_P, MOD_Q};
use wedge_crypto::schnorr::{Keypair, Q};
use wedge_crypto::sha256::{sha256, Sha256};

/// Minimal SplitMix64 case generator (test-local; the simulator has
/// its own copy — crypto stays dependency-free).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn below_u128(&mut self, n: u128) -> u128 {
        (((self.next() as u128) << 64) | self.next() as u128) % n.max(1)
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

#[test]
fn sha256_chunking_invariant() {
    for case in 0..48u64 {
        let mut rng = Rng::new(0x5AA5 ^ case);
        let n = rng.below(2048) as usize;
        let data = rng.bytes(n);
        let oneshot = sha256(&data);
        let mut inc = Sha256::new();
        let mut rest: &[u8] = &data;
        for _ in 0..rng.below(8) {
            if rest.is_empty() {
                break;
            }
            let at = rng.below(rest.len() as u64) as usize;
            let (a, b) = rest.split_at(at);
            inc.update(a);
            rest = b;
        }
        inc.update(rest);
        assert_eq!(oneshot, inc.finalize(), "case {case}");
    }
}

#[test]
fn sha256_injective_in_practice() {
    for case in 0..48u64 {
        let mut rng = Rng::new(0xD1FF ^ case);
        let na = rng.below(256) as usize;
        let a = rng.bytes(na);
        let nb = rng.below(256) as usize;
        let b = rng.bytes(nb);
        if a != b {
            assert_ne!(sha256(&a), sha256(&b), "case {case}");
        }
    }
}

#[test]
fn modmath_field_axioms() {
    for case in 0..64u64 {
        let mut rng = Rng::new(0xF1E1D ^ case);
        for f in [MOD_P, MOD_Q] {
            let m = f.value();
            let a = rng.below_u128(m);
            let b = rng.below_u128(m);
            let c = rng.below_u128(m);
            // Commutativity and associativity of mul.
            assert_eq!(f.mul(a, b), f.mul(b, a));
            assert_eq!(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
            // Distributivity.
            assert_eq!(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
            // add/sub inverse.
            assert_eq!(f.sub(f.add(a, b), b), a);
        }
    }
}

#[test]
fn modmath_inverses() {
    for case in 0..64u64 {
        let mut rng = Rng::new(0x1479 ^ case);
        for f in [MOD_P, MOD_Q] {
            let m = f.value();
            let a = 1 + rng.below_u128(m - 1);
            // Fermat inverse a^(m-2).
            assert_eq!(f.mul(a, f.pow(a, m - 2)), 1, "a = {a}");
        }
    }
}

#[test]
fn modpow_exponent_addition() {
    for case in 0..32u64 {
        let mut rng = Rng::new(0xE4B0 ^ case);
        let a = rng.below_u128(Q);
        let b = rng.below_u128(Q);
        let g = wedge_crypto::schnorr::G;
        let lhs = MOD_P.pow(g, MOD_Q.add(a, b));
        let rhs = MOD_P.mul(MOD_P.pow(g, a), MOD_P.pow(g, b));
        assert_eq!(lhs, rhs, "a = {a}, b = {b}");
    }
}

#[test]
fn schnorr_roundtrip() {
    for case in 0..16u64 {
        let mut rng = Rng::new(0x5C40 ^ case);
        let ns = 1 + rng.below(63) as usize;
        let seed = rng.bytes(ns);
        let nm = rng.below(512) as usize;
        let msg = rng.bytes(nm);
        let kp = Keypair::from_seed(&seed);
        let sig = kp.sign(&msg);
        assert!(kp.public().verify(&msg, &sig), "case {case}");
        // Flip one byte (if non-empty and the flip actually changes it).
        let flip = rng.next() as u8;
        if !msg.is_empty() && flip != 0 {
            let mut tampered = msg.clone();
            let i = rng.below(tampered.len() as u64) as usize;
            tampered[i] ^= flip;
            assert!(!kp.public().verify(&tampered, &sig), "case {case}");
        }
    }
}

#[test]
fn schnorr_key_separation() {
    for case in 0..16u64 {
        let mut rng = Rng::new(0x5E9A ^ case);
        let na = 1 + rng.below(31) as usize;
        let seed_a = rng.bytes(na);
        let nb = 1 + rng.below(31) as usize;
        let seed_b = rng.bytes(nb);
        if seed_a == seed_b {
            continue;
        }
        let nm = rng.below(128) as usize;
        let msg = rng.bytes(nm);
        let ka = Keypair::from_seed(&seed_a);
        let kb = Keypair::from_seed(&seed_b);
        let sig = ka.sign(&msg);
        assert!(!kb.public().verify(&msg, &sig), "case {case}");
    }
}

#[test]
fn merkle_soundness() {
    for case in 0..32u64 {
        let mut rng = Rng::new(0x3E61E ^ case);
        let n = 1 + rng.below(39) as usize;
        let leaves: Vec<_> = (0..n).map(|i| sha256(format!("leaf{i}").as_bytes())).collect();
        let tree = MerkleTree::from_leaves(&leaves);
        let i = rng.below(n as u64) as usize;
        let proof = tree.prove(i).unwrap();
        assert!(MerkleTree::verify(&tree.root(), &leaves[i], &proof), "n = {n}, i = {i}");
        let mutated = sha256(b"evil");
        assert!(!MerkleTree::verify(&tree.root(), &mutated, &proof), "n = {n}, i = {i}");
    }
}

#[test]
fn merkle_index_binding() {
    for case in 0..32u64 {
        let mut rng = Rng::new(0x1DB ^ case);
        let n = 2 + rng.below(38) as usize;
        let leaves: Vec<_> = (0..n).map(|i| sha256(format!("leaf{i}").as_bytes())).collect();
        let tree = MerkleTree::from_leaves(&leaves);
        let i = rng.below(n as u64) as usize;
        let j = (i + 1) % n;
        let proof = tree.prove(i).unwrap();
        assert!(!MerkleTree::verify(&tree.root(), &leaves[j], &proof), "n = {n}, i = {i}");
    }
}

#[test]
fn merkle_root_binds_content() {
    for case in 0..32u64 {
        let mut rng = Rng::new(0x3007 ^ case);
        let n = 1 + rng.below(19) as usize;
        let leaves: Vec<_> = (0..n).map(|i| sha256(format!("leaf{i}").as_bytes())).collect();
        let mut other = leaves.clone();
        let i = rng.below(n as u64) as usize;
        other[i] = sha256(b"mutated");
        let t1 = MerkleTree::from_leaves(&leaves);
        let t2 = MerkleTree::from_leaves(&other);
        assert_ne!(t1.root(), t2.root(), "n = {n}, i = {i}");
    }
}
