//! One face for both real runtimes: what the generator calls, and the
//! parts of their shutdown reports the benchmark reads.

use crate::workload::{Runtime, Spec, EDGES, PIPELINE_DEPTH};
use std::sync::Arc;
use wedge_core::engine::GetOutcome;
use wedge_core::threaded::{PutReply, ThreadedCluster, ThreadedConfig, ThreadedReport};
use wedge_lsmerkle::{LsmConfig, ProofError};
use wedge_net::{NetCluster, NetConfig, NetReport};

/// A running cluster of either runtime.
pub enum Cluster {
    Threaded(Arc<ThreadedCluster>),
    Tcp(Arc<NetCluster>),
}

/// The counters the benchmark reads from a shutdown report.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub wan_bytes_to_cloud: u64,
    pub merges_completed: u64,
    pub merges_retried: u64,
    pub merge_req_resends: u64,
    pub punished: usize,
    pub verdicts: usize,
    pub reads_rejected: u64,
    pub shed_cloud_msgs: u64,
    pub deferred_cloud_msgs: u64,
    pub puts_shed: u64,
    pub proof_cache_hits: u64,
    pub proof_cache_misses: u64,
    /// TCP only (0 for the threaded runtime).
    pub frames_sent: u64,
    pub frame_writes: u64,
    pub failed_sends: u64,
}

impl Report {
    /// The protocol stayed honest and nothing was dropped: no punished
    /// edge, no verdicts, no rejected read proof, no lost frame, no shed
    /// put.
    pub fn clean(&self) -> bool {
        self.punished == 0
            && self.verdicts == 0
            && self.reads_rejected == 0
            && self.failed_sends == 0
            && self.puts_shed == 0
    }

    /// Sheds and defers of every kind.
    pub fn sheds_defers(&self) -> u64 {
        self.shed_cloud_msgs + self.deferred_cloud_msgs + self.puts_shed
    }
}

/// The cluster shape every workload shares; only batch size and
/// runtime differ.
fn lsm() -> LsmConfig {
    LsmConfig::paper_eval()
}

impl Cluster {
    /// Starts the workload's runtime (no preload).
    pub fn start(spec: &Spec) -> Cluster {
        match spec.runtime {
            Runtime::Threaded => Cluster::Threaded(ThreadedCluster::start(ThreadedConfig {
                lsm: lsm(),
                num_edges: EDGES,
                batch_size: spec.batch_size,
                pipeline_depth: PIPELINE_DEPTH,
                ..ThreadedConfig::default()
            })),
            Runtime::Tcp => Cluster::Tcp(NetCluster::start(NetConfig {
                lsm: lsm(),
                num_edges: EDGES,
                batch_size: spec.batch_size,
                pipeline_depth: PIPELINE_DEPTH,
                ..NetConfig::default()
            })),
        }
    }

    pub fn put_on(&self, edge: usize, key: u64, value: Vec<u8>) -> Option<PutReply> {
        match self {
            Cluster::Threaded(c) => c.put_on(edge, key, value),
            Cluster::Tcp(c) => c.put_on(edge, key, value),
        }
    }

    pub fn flush_on(&self, edge: usize) -> Option<PutReply> {
        match self {
            Cluster::Threaded(c) => c.flush_on(edge),
            Cluster::Tcp(c) => c.flush_on(edge),
        }
    }

    pub fn get_on(&self, edge: usize, key: u64) -> Result<GetOutcome, ProofError> {
        match self {
            Cluster::Threaded(c) => c.get_on(edge, key),
            Cluster::Tcp(c) => c.get_on(edge, key),
        }
    }

    /// Stops every service thread, waits for each, and returns the
    /// report (`None` if a service thread panicked).
    pub fn shutdown(self) -> Option<Report> {
        match self {
            Cluster::Threaded(c) => c.shutdown().map(|r| from_threaded(&r)),
            Cluster::Tcp(c) => c.shutdown().map(|r| from_net(&r)),
        }
    }
}

fn from_threaded(r: &ThreadedReport) -> Report {
    let mut out = Report {
        punished: r.punished.len(),
        shed_cloud_msgs: r.shed_cloud_msgs,
        deferred_cloud_msgs: r.deferred_cloud_msgs,
        puts_shed: r.puts_shed,
        proof_cache_hits: r.proof_cache_hits,
        proof_cache_misses: r.proof_cache_misses,
        ..Report::default()
    };
    for e in &r.edges {
        add_edge(&mut out, e);
    }
    out
}

fn from_net(r: &NetReport) -> Report {
    let mut out = Report {
        punished: r.punished.len(),
        shed_cloud_msgs: r.shed_cloud_msgs,
        deferred_cloud_msgs: r.deferred_cloud_msgs,
        puts_shed: r.puts_shed,
        proof_cache_hits: r.proof_cache_hits,
        proof_cache_misses: r.proof_cache_misses,
        frames_sent: r.frames_sent,
        frame_writes: r.frame_writes,
        failed_sends: r.failed_sends,
        ..Report::default()
    };
    for e in &r.edges {
        add_edge(&mut out, e);
    }
    out
}

fn add_edge(out: &mut Report, e: &wedge_core::threaded::EdgeRunReport) {
    out.wan_bytes_to_cloud += e.edge_stats.wan_bytes_to_cloud;
    out.merges_completed += e.edge_stats.merges_completed;
    out.merges_retried += e.edge_stats.merges_retried;
    out.merge_req_resends += e.edge_stats.merge_req_resends;
    out.verdicts += e.verdicts.len();
    out.reads_rejected += e.client_metrics.reads_rejected;
}
