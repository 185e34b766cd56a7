//! The in-process real-threads runtime: [`crate::driver::Cluster`]
//! over [`MemLink`].
//!
//! The simulator is the measurement substrate; this runtime is the
//! proof that the *same protocol engines* run on actual concurrency
//! primitives. Every service is a thread with a bounded inbox, exactly
//! as over TCP (`wedge_net::NetCluster` is the same cluster over the
//! socket link); here a message moves into the peer's inbox as a value,
//! never encoded. The cluster, its config, its report and its one
//! cloud→edge backpressure policy live in [`crate::driver`]; this
//! module keeps the names callers know.

use crate::driver::{Cluster, ClusterConfig, ClusterReport};
pub use crate::driver::{EdgeRunReport, MemLink, PutOps, PutReply, PutShed};

/// A running N-edge + cloud cluster on in-process links.
pub type ThreadedCluster = Cluster<MemLink>;
/// Configuration for the in-process cluster (the one [`ClusterConfig`]).
pub type ThreadedConfig = ClusterConfig;
/// Final state of an in-process run (the one [`ClusterReport`]).
pub type ThreadedReport = ClusterReport;

#[cfg(test)]
mod tests {
    //! The shared scenario suite on the in-process link; the same
    //! bodies run over TCP in `wedge-net`.
    use super::MemLink;
    use crate::driver::scenarios as s;

    #[test]
    fn threaded_put_get_roundtrip() {
        s::put_get_roundtrip::<MemLink>();
    }

    #[test]
    fn threaded_merges_preserve_data() {
        s::merges_preserve_data::<MemLink>();
    }

    #[test]
    fn threaded_absent_key_is_none() {
        s::absent_key_is_none::<MemLink>();
    }

    #[test]
    fn threaded_with_injected_latency() {
        s::injected_cloud_hop_latency::<MemLink>();
    }

    #[test]
    fn threaded_concurrent_writers_lose_nothing() {
        s::concurrent_writers_lose_nothing::<MemLink>();
    }

    #[test]
    fn threaded_pipelined_writers_lose_nothing() {
        s::pipelined_writers_lose_nothing::<MemLink>();
    }

    #[test]
    fn threaded_scripted_seal_times_are_deterministic() {
        s::scripted_seal_times_are_deterministic::<MemLink>();
    }

    #[test]
    fn threaded_n_edges_partition_data_and_certification() {
        s::n_edges_partition_data::<MemLink>();
    }

    #[test]
    fn threaded_gossip_reaches_clients_via_engine_deadline() {
        s::gossip_reaches_clients_via_engine_deadline::<MemLink>();
    }

    #[test]
    fn threaded_gossip_and_dispute() {
        s::gossip_and_dispute::<MemLink>();
    }

    #[test]
    fn threaded_admission_sheds_puts_instead_of_blocking() {
        s::admission_sheds_puts_instead_of_blocking::<MemLink>();
    }

    #[test]
    fn threaded_backpressure_sheds_gossip_but_defers_proofs() {
        s::backpressure_sheds_gossip_but_defers_proofs::<MemLink>();
    }

    #[test]
    fn threaded_merge_replies_are_delta_encoded() {
        s::merge_replies_are_delta_encoded::<MemLink>();
    }

    #[test]
    fn threaded_oversized_full_request_merges_as_small_delta() {
        s::oversized_full_request_merges_as_small_delta::<MemLink>();
    }

    #[test]
    #[should_panic(expected = "cannot combine")]
    fn threaded_seal_times_reject_merge_retry() {
        s::seal_times_reject_merge_retry::<MemLink>();
    }
}
