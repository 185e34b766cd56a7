//! CPU cost model for the simulated nodes.
//!
//! The simulator charges virtual CPU time for protocol work so that
//! processing — not just propagation — shapes latency and throughput,
//! exactly as it does on the paper's m5d.xlarge machines. The constants
//! below are calibrated so the three systems land near the paper's
//! headline numbers (Fig 4a: WedgeChain ~15–20 ms, Cloud-only
//! ~78–83 ms, Edge-baseline ~109–213 ms). Matching the *shape* is the
//! goal: a simulator cannot reproduce the testbed's absolute numbers,
//! but it can reproduce who wins and by what factor.
//!
//! All costs are in nanoseconds of virtual time.

use wedge_sim::SimDuration;

/// Tunable CPU costs (virtual nanoseconds).
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Hashing throughput, ns per byte (≈ 3 ns/B ⇒ ~330 MB/s).
    pub hash_ns_per_byte: f64,
    /// One signature creation.
    pub sign_ns: u64,
    /// One signature verification.
    pub verify_ns: u64,
    /// Fixed cost to process one batch/block at a node (request
    /// parsing, allocation, log append, fsync-ish work).
    pub block_base_ns: u64,
    /// Per-operation processing inside a batch (decode, buffer,
    /// index insert).
    pub per_op_ns: u64,
    /// Per-operation cost on the *asynchronous* certification path at
    /// the edge (digest bookkeeping, queueing, I/O). This is what
    /// makes Phase II throughput degrade with batch size in Fig 6
    /// while Phase I stays fast.
    pub cert_per_op_ns: u64,
    /// Fixed certification dispatch cost per block.
    pub cert_base_ns: u64,
    /// Cloud-side cost to record + countersign one digest.
    pub cloud_cert_ns: u64,
    /// Cloud-only baseline: fixed commit cost at the cloud (it is the
    /// system of record: storage commit + trusted index update).
    pub cloud_only_commit_ns: u64,
    /// Edge-baseline: per-operation Merkle regeneration at the cloud
    /// (the synchronous index rebuild the paper blames for its slope).
    pub eb_index_per_op_ns: u64,
    /// Edge-baseline: fixed cloud-side cost per block.
    pub eb_cloud_base_ns: u64,
    /// Edge-baseline: edge-side cost to install a new tree version.
    pub eb_edge_apply_ns: u64,
    /// Cost to build a read proof per L0 page touched.
    pub proof_per_page_ns: u64,
    /// Fixed read handling cost at a node.
    pub read_base_ns: u64,
    /// Client-side verification of a read proof (the 0.19 ms of
    /// Fig 5d).
    pub client_verify_read_ns: u64,
    /// Per-record merge cost at the cloud.
    pub merge_per_record_ns: u64,
    /// Storage I/O cost factor: ns per level probed, scaled by
    /// log2(dataset_keys). Models the §VI-E dataset-size sweep without
    /// materializing 100 M keys.
    pub io_ns_per_level_log2key: f64,
    /// Dataset size (keys) for the I/O model.
    pub dataset_keys: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            hash_ns_per_byte: 3.0,
            sign_ns: 120_000,         // 0.12 ms
            verify_ns: 180_000,       // 0.18 ms — Fig 5d's client verify is ~0.19 ms
            block_base_ns: 4_300_000, // 4.3 ms
            per_op_ns: 2_500,
            cert_per_op_ns: 50_000, // 50 µs — Fig 6 calibration
            cert_base_ns: 500_000,
            cloud_cert_ns: 400_000,
            cloud_only_commit_ns: 14_500_000, // 14.5 ms
            eb_index_per_op_ns: 50_000,       // 50 µs/op Merkle regen
            eb_cloud_base_ns: 30_000_000,     // 30 ms
            eb_edge_apply_ns: 2_000_000,      // 2 ms
            proof_per_page_ns: 30_000,
            read_base_ns: 250_000,          // 0.25 ms edge-side read handling
            client_verify_read_ns: 190_000, // 0.19 ms (Fig 5d)
            merge_per_record_ns: 1_500,
            io_ns_per_level_log2key: 1_200.0,
            dataset_keys: 100_000,
        }
    }
}

impl CostModel {
    /// Hashing cost for `bytes` bytes.
    pub fn hash(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos((bytes as f64 * self.hash_ns_per_byte) as u64)
    }

    /// Edge-side cost to ingest and seal a batch of `ops` operations of
    /// `bytes` total payload (includes hashing the block once).
    pub fn seal_block(&self, ops: u64, bytes: u64) -> SimDuration {
        SimDuration::from_nanos(self.block_base_ns + ops * self.per_op_ns)
            + self.hash(bytes)
            + SimDuration::from_nanos(self.sign_ns)
    }

    /// Edge-side asynchronous certification dispatch for a block of
    /// `ops` operations.
    pub fn certify_dispatch(&self, ops: u64) -> SimDuration {
        SimDuration::from_nanos(self.cert_base_ns + ops * self.cert_per_op_ns)
    }

    /// Cloud-side certification of one digest.
    pub fn cloud_certify(&self) -> SimDuration {
        SimDuration::from_nanos(self.cloud_cert_ns + self.verify_ns + self.sign_ns)
    }

    /// Cloud-only baseline: full commit of a batch at the cloud.
    pub fn cloud_only_commit(&self, ops: u64) -> SimDuration {
        SimDuration::from_nanos(self.cloud_only_commit_ns + ops * self.per_op_ns)
    }

    /// Edge-baseline: cloud-side synchronous certification + Merkle
    /// regeneration for a batch.
    pub fn eb_cloud_process(&self, ops: u64) -> SimDuration {
        SimDuration::from_nanos(self.eb_cloud_base_ns + ops * self.eb_index_per_op_ns)
    }

    /// Edge-baseline: edge-side tree installation.
    pub fn eb_edge_apply(&self) -> SimDuration {
        SimDuration::from_nanos(self.eb_edge_apply_ns)
    }

    /// Edge-side read proof construction over `pages_touched` pages.
    pub fn build_read_proof(&self, pages_touched: u64) -> SimDuration {
        SimDuration::from_nanos(self.read_base_ns + pages_touched * self.proof_per_page_ns)
            + self.io_probe()
    }

    /// Client-side read verification.
    pub fn verify_read(&self) -> SimDuration {
        SimDuration::from_nanos(self.client_verify_read_ns)
    }

    /// Cloud-side merge of `records` records.
    pub fn merge(&self, records: u64) -> SimDuration {
        SimDuration::from_nanos(records * self.merge_per_record_ns + self.sign_ns * 3)
    }

    /// Storage I/O probe cost under the dataset-size model (§VI-E):
    /// grows with log2 of the key count — sub-millisecond even at
    /// 100 M keys, which is why the paper sees flat write latency.
    pub fn io_probe(&self) -> SimDuration {
        let log2 = (self.dataset_keys.max(2) as f64).log2();
        SimDuration::from_nanos((self.io_ns_per_level_log2key * log2) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_block_scales_with_ops() {
        let c = CostModel::default();
        let small = c.seal_block(100, 13_000);
        let large = c.seal_block(2000, 260_000);
        assert!(large > small);
        // Calibration window: ~5 ms at B=100, ~10 ms at B=2000, so
        // Phase-I latency lands at ~15/20 ms with a 10 ms local RTT.
        assert!((4.5..6.5).contains(&small.as_millis_f64()), "{small}");
        assert!((8.0..12.0).contains(&large.as_millis_f64()), "{large}");
    }

    #[test]
    fn cert_path_dominates_at_large_batches() {
        let c = CostModel::default();
        // Fig 6: at B>=500 the async certification dispatch exceeds
        // the P1 inter-batch time (~16 ms), so P2 lags; at B=100 it
        // keeps up.
        let dispatch = c.certify_dispatch(1000);
        assert!(dispatch.as_millis_f64() > 20.0);
        let dispatch_small = c.certify_dispatch(100);
        assert!(dispatch_small.as_millis_f64() < 10.0);
    }

    #[test]
    fn io_probe_is_submillisecond_even_at_100m_keys() {
        let c = CostModel { dataset_keys: 100_000_000, ..CostModel::default() };
        assert!(c.io_probe().as_millis_f64() < 1.0);
        let c_small = CostModel { dataset_keys: 100_000, ..CostModel::default() };
        assert!(c_small.io_probe() < c.io_probe());
    }

    #[test]
    fn baseline_costs_ordered() {
        let c = CostModel::default();
        // Edge-baseline cloud processing exceeds cloud-only's commit at
        // large batches (the Merkle regeneration slope).
        assert!(c.eb_cloud_process(2000) > c.cloud_only_commit(2000));
        assert!(c.cloud_only_commit(100) > c.seal_block(100, 13_000));
    }
}
