//! Timed calls into `wedge_crypto` on the workloads' message sizes.

use crate::stats::median;
use crate::workload::{Spec, VALUE_LEN};
use std::hint::black_box;
use std::time::Instant;
use wedge_crypto::{sha256, Identity, KeyRegistry};
use wedge_log::Entry;

/// Per-call costs in microseconds.
pub struct CryptoCosts {
    pub sign_us: f64,
    pub verify_us: f64,
    pub sha256_us_per_kb: f64,
}

/// Median over `rounds` of the mean time per call of `f`, in µs.
fn time_us(rounds: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let per_round: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / calls as f64
        })
        .collect();
    median(&per_round)
}

/// Signs and verifies a message the size of one signed entry, and
/// hashes a buffer the size of one sealed block of `spec.batch_size`
/// entries.
pub fn measure(spec: &Spec) -> CryptoCosts {
    let ident = Identity::derive("client", 1000);
    let mut registry = KeyRegistry::new();
    registry.register(ident.id, ident.public()).expect("fresh registry");
    let entry = Entry::new_signed(&ident, 0, vec![0xAB; VALUE_LEN]);
    let msg = vec![0x5Au8; entry.encoded_len()];
    let sig = ident.sign(&msg);
    let block = vec![0xC3u8; entry.encoded_len() * spec.batch_size];

    let sign_us = time_us(5, 200, || {
        black_box(ident.sign(black_box(&msg)));
    });
    let verify_us = time_us(5, 200, || {
        assert!(registry.verify(ident.id, black_box(&msg), black_box(&sig)));
    });
    let hash_us = time_us(5, 2000, || {
        black_box(sha256(black_box(&block)));
    });
    CryptoCosts { sign_us, verify_us, sha256_us_per_kb: hash_us * 1024.0 / block.len() as f64 }
}
