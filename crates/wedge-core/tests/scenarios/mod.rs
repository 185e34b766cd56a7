//! The cluster scenario suite: one body per scenario, generic over the
//! link. `wedge_core::threaded`'s unit tests run every scenario on the
//! in-process link and `wedge_net`'s run the same file on the TCP link
//! (both include it by path), so both links are held to the same
//! behaviour.

use std::sync::Arc;
use std::time::{Duration, Instant};
use wedge_core::driver::{Cluster, ClusterConfig, ClusterReport, Link, PutReply, PutShed};
use wedge_core::fault::FaultPlan;
use wedge_log::MAX_FRAME_PAYLOAD;
use wedge_lsmerkle::LsmConfig;

fn start<L: Link>(cfg: ClusterConfig) -> Arc<Cluster<L>> {
    Cluster::<L>::start(cfg)
}

fn batch(batch_size: usize) -> ClusterConfig {
    ClusterConfig { batch_size, ..ClusterConfig::default() }
}

/// No frame was refused or lost (always true in process).
fn no_lost_frames(report: &ClusterReport) {
    assert_eq!(
        report.failed_sends, 0,
        "no frame may be dropped: {:?}",
        report.failed_sends_by_peer
    );
}

pub fn put_get_roundtrip<L: Link>() {
    let cluster = start::<L>(batch(2));
    assert!(cluster.put(1, b"a".to_vec()).is_none()); // buffered
    let reply = cluster.put(2, b"b".to_vec()).expect("batch sealed");
    assert!(reply.receipt.verify(&cluster.registry));
    // Phase II arrives asynchronously.
    let proof = reply.certified.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(proof.digest, reply.receipt.block_digest);
    // Verified read.
    let read = cluster.get(1).unwrap();
    assert_eq!(read.value.as_deref(), Some(b"a".as_ref()));
    no_lost_frames(&cluster.shutdown().expect("report"));
}

/// 20 single-put blocks cross the exposition L0 threshold repeatedly:
/// merge requests and results move between edge and cloud.
pub fn merges_preserve_data<L: Link>() {
    let cluster = start::<L>(batch(1));
    let mut last = None;
    for k in 0..20u64 {
        last = cluster.put(k, format!("v{k}").into_bytes());
    }
    // Wait for the final certification so merges settle.
    if let Some(reply) = last {
        let _ = reply.certified.recv_timeout(Duration::from_secs(5));
    }
    for k in 0..20u64 {
        let read = cluster.get(k).unwrap();
        assert_eq!(read.value, Some(format!("v{k}").into_bytes()), "key {k}");
    }
    let report = cluster.shutdown().expect("sole owner gets the report");
    assert_eq!(report.edges[0].edge_stats.blocks_sealed, 20);
    assert!(report.cloud_stats.merges_processed > 0, "merges ran");
    no_lost_frames(&report);
}

pub fn absent_key_is_none<L: Link>() {
    let cluster = start::<L>(ClusterConfig::default());
    cluster.put(5, b"x".to_vec());
    cluster.flush();
    let read = cluster.get(999).unwrap();
    assert_eq!(read.value, None);
    cluster.shutdown();
}

pub fn injected_cloud_hop_latency<L: Link>() {
    let cluster = start::<L>(ClusterConfig {
        batch_size: 1,
        cloud_hop_latency: Duration::from_millis(5),
        ..ClusterConfig::default()
    });
    let t0 = Instant::now();
    let reply = cluster.put(1, b"v".to_vec()).unwrap();
    let p1 = t0.elapsed();
    let _ = reply.certified.recv_timeout(Duration::from_secs(5)).unwrap();
    let p2 = t0.elapsed();
    // Phase I returns without waiting for the cloud hop; Phase II pays
    // it.
    assert!(p2 >= Duration::from_millis(5));
    assert!(p1 < p2);
    cluster.shutdown();
}

/// Four writer threads, 25 puts each, in batches of 2. Checks that
/// every sealed batch is certified and every key reads back, then
/// returns the report.
fn four_writers<L: Link>(cfg: ClusterConfig) -> ClusterReport {
    let cluster = start::<L>(cfg);
    let mut replies: Vec<PutReply> = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..4u64)
            .map(|t| {
                let cluster = &cluster;
                scope.spawn(move || {
                    (0..25u64)
                        .filter_map(|i| cluster.put(t * 1000 + i, vec![t as u8, i as u8]))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        writers.into_iter().flat_map(|w| w.join().unwrap()).collect()
    });
    replies.extend(cluster.flush());
    for reply in replies {
        let proof = reply.certified.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(proof.digest, reply.receipt.block_digest);
    }
    // Every one of the 100 distinct keys must be readable: no batch
    // was rejected by the replay window.
    for t in 0..4u64 {
        for i in 0..25u64 {
            let read = cluster.get(t * 1000 + i).unwrap();
            assert_eq!(read.value, Some(vec![t as u8, i as u8]), "key {t}/{i}");
        }
    }
    let report = cluster.shutdown().expect("report");
    assert_eq!(report.edges[0].edge_stats.blocks_sealed, 50, "100 entries in batches of 2");
    assert_eq!(report.edges[0].certified_len, 50);
    report
}

/// Regression: batches must reach the client engine in submission
/// order (sequence numbers are assigned on the client thread) —
/// otherwise the engine's replay window silently drops a late batch.
pub fn concurrent_writers_lose_nothing<L: Link>() {
    four_writers::<L>(batch(2));
}

/// With `pipeline_depth` > 1, queued batches drain eagerly into
/// several outstanding slots. Correctness must be unchanged: every key
/// readable, every block sealed once and certified.
pub fn pipelined_writers_lose_nothing<L: Link>() {
    let report = four_writers::<L>(ClusterConfig { pipeline_depth: 4, ..batch(2) });
    no_lost_frames(&report);
}

pub fn scripted_seal_times_are_deterministic<L: Link>() {
    let run = || {
        let cluster = start::<L>(ClusterConfig {
            seal_times: Some(vec![vec![1_000, 2_000, 3_000]]),
            ..batch(2)
        });
        for k in 0..6u64 {
            cluster.put(k, vec![k as u8; 8]);
        }
        cluster.shutdown().expect("report")
    };
    let (a, b) = (run(), run());
    assert_eq!(a.edges[0].blocks.len(), 3);
    for (x, y) in a.edges[0].blocks.iter().zip(&b.edges[0].blocks) {
        assert_eq!(x.0, y.0);
        assert_eq!(x.1, y.1, "scripted seal times make digests reproducible");
    }
}

pub fn n_edges_partition_data<L: Link>() {
    let cluster = start::<L>(ClusterConfig { num_edges: 3, ..batch(1) });
    let mut last = Vec::new();
    for p in 0..3usize {
        for k in 0..4u64 {
            last.push(cluster.put_on(p, k + 10 * p as u64, vec![p as u8, k as u8]).unwrap());
        }
    }
    for reply in last {
        let proof = reply.certified.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(proof.digest, reply.receipt.block_digest);
    }
    // Partitioned keyspaces: each edge serves its own keys...
    for p in 0..3usize {
        for k in 0..4u64 {
            let read = cluster.get_on(p, k + 10 * p as u64).unwrap();
            assert_eq!(read.value, Some(vec![p as u8, k as u8]));
        }
    }
    // ...and not its neighbours'.
    assert_eq!(cluster.get_on(0, 21).unwrap().value, None);
    let report = cluster.shutdown().expect("report");
    assert_eq!(report.edges.len(), 3);
    for (p, edge) in report.edges.iter().enumerate() {
        assert_eq!(edge.edge_stats.blocks_sealed, 4, "edge {p}");
        assert_eq!(edge.certified_len, 4, "edge {p} fully certified");
        for (bid, digest, edge_proof, certified) in &edge.blocks {
            assert_eq!(certified.as_ref(), Some(digest), "block {bid} certified honestly");
            assert_eq!(edge_proof.as_ref(), Some(digest), "block {bid} proof attached");
        }
    }
    assert!(report.punished.is_empty());
    no_lost_frames(&report);
}

/// No driver schedules gossip: the cadence lives in the cloud engine,
/// the thread just sleeps until the engine's deadline.
pub fn gossip_reaches_clients_via_engine_deadline<L: Link>() {
    let cluster =
        start::<L>(ClusterConfig { gossip_period: Some(Duration::from_millis(5)), ..batch(1) });
    for k in 0..3u64 {
        let reply = cluster.put(k, b"v".to_vec()).unwrap();
        let _ = reply.certified.recv_timeout(Duration::from_secs(5)).unwrap();
    }
    // Let at least one gossip round fire after the last cert.
    std::thread::sleep(Duration::from_millis(30));
    let report = cluster.shutdown().expect("report");
    assert!(report.cloud_stats.gossip_rounds >= 1, "engine-owned gossip fired");
    assert_eq!(
        report.edges[0].watermark_len,
        Some(3),
        "client holds the freshest watermark (certified prefix)"
    );
}

/// A withholding edge is convicted purely by the client engine's
/// dispute deadline; the dispute and the verdict cross the link.
pub fn gossip_and_dispute<L: Link>() {
    let cluster = start::<L>(ClusterConfig {
        faults: vec![FaultPlan::withhold_on(1)],
        gossip_period: Some(Duration::from_millis(20)),
        dispute_timeout: Duration::from_millis(200),
        ..batch(1)
    });
    let r0 = cluster.put(0, b"a".to_vec()).unwrap();
    let _ = r0.certified.recv_timeout(Duration::from_secs(5)).unwrap();
    let _withheld = cluster.put(1, b"b".to_vec()).unwrap();
    // Dispute deadline (200 ms) + verdict round trip.
    std::thread::sleep(Duration::from_millis(600));
    let report = cluster.shutdown().expect("report");
    assert_eq!(report.punished, vec![report.edges[0].edge], "withholder convicted");
    assert_eq!(report.edges[0].client_metrics.disputes_filed, 1);
    assert_eq!(report.edges[0].client_metrics.disputes_upheld, 1);
    assert!(report.cloud_stats.gossip_rounds >= 1, "gossip flowed");
}

/// A slow edge (20 ms per cloud message) with a tiny inbox and a 1 ms
/// gossip flood keeps the edge inbox full, so Phase I lags far past
/// the 2 ms admission timeout: `try_put_on` must shed (fail fast)
/// rather than wedge the caller. A shed put is not cancelled, so every
/// key must still become readable.
pub fn admission_sheds_puts_instead_of_blocking<L: Link>() {
    let cluster = start::<L>(ClusterConfig {
        gossip_period: Some(Duration::from_millis(1)),
        edge_apply_latency: Duration::from_millis(20),
        edge_inbox_cap: 2,
        admission_timeout: Some(Duration::from_millis(2)),
        ..batch(1)
    });
    let mut shed = 0u64;
    for k in 0..8u64 {
        match cluster.try_put_on(0, k, vec![k as u8]) {
            Ok(Some(_)) | Ok(None) => {}
            Err(PutShed::AdmissionTimeout) => shed += 1,
            Err(PutShed::Rejected) => panic!("batches must not be rejected here"),
        }
    }
    assert!(shed > 0, "an overloaded edge must shed puts, not block the caller");
    // Shed puts still commit: wait for the pipeline to drain, then read
    // everything back.
    for k in 0..8u64 {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if cluster.get(k).unwrap().value == Some(vec![k as u8]) {
                break;
            }
            assert!(Instant::now() < deadline, "key {k} never committed");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    let report = cluster.shutdown().expect("report");
    assert_eq!(report.puts_shed, shed, "every shed counted exactly once");
    assert_eq!(report.edges[0].edge_stats.blocks_sealed, 8, "shed puts still sealed");
}

/// A slow edge (5 ms per cloud message) with a tiny inbox and a 1 ms
/// gossip cadence: the gate must shed gossip, but every certification
/// proof must still arrive (deferred, not lost).
pub fn backpressure_sheds_gossip_but_defers_proofs<L: Link>() {
    let cluster = start::<L>(ClusterConfig {
        gossip_period: Some(Duration::from_millis(1)),
        edge_apply_latency: Duration::from_millis(5),
        edge_inbox_cap: 2,
        ..batch(1)
    });
    let mut replies = Vec::new();
    for k in 0..6u64 {
        replies.push(cluster.put(k, vec![k as u8]).unwrap());
    }
    for reply in replies {
        let proof = reply.certified.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(proof.digest, reply.receipt.block_digest, "no proof lost to shedding");
    }
    // Keep the gossip flood running against the slow edge a while.
    std::thread::sleep(Duration::from_millis(100));
    let report = cluster.shutdown().expect("report");
    assert!(
        report.shed_cloud_msgs > 0,
        "overloaded edge inbox must shed droppable traffic (shed {}, deferred {})",
        report.shed_cloud_msgs,
        report.deferred_cloud_msgs
    );
    assert_eq!(report.edges[0].certified_len, 6, "certification complete despite overload");
}

/// Sequential keys: every L0→L1 merge extends the target level on the
/// right, so the pages to its left come back from the cloud as
/// references into the request the edge just sent — and L1→L2 moves
/// into an empty level reuse the source pages outright. Every reply is
/// a `MergeResDelta` that resolves against the edge's in-flight
/// request.
pub fn merge_replies_are_delta_encoded<L: Link>() {
    let cluster = start::<L>(batch(1));
    let mut last = None;
    for k in 0..40u64 {
        last = cluster.put(k, vec![k as u8; 64]);
    }
    if let Some(reply) = last {
        let _ = reply.certified.recv_timeout(Duration::from_secs(5));
    }
    for k in 0..40u64 {
        let read = cluster.get(k).unwrap();
        assert_eq!(read.value, Some(vec![k as u8; 64]), "key {k}");
    }
    let report = cluster.shutdown().expect("report");
    let stats = &report.cloud_stats;
    assert!(stats.merges_processed > 0, "merges ran");
    assert!(
        stats.merge_reply_pages_reused > 0,
        "replies shipped references for unchanged pages (full {}, reused {})",
        stats.merge_reply_pages_full,
        stats.merge_reply_pages_reused
    );
    assert!(stats.merge_reply_bytes_saved > 0, "delta shrank the replies");
    assert_eq!(report.edges[0].edge_stats.merge_deltas_unresolved, 0, "every delta resolved");
    no_lost_frames(&report);
}

/// 70 sequential keys with 256 KiB values and one-record pages: by the
/// last L0→L1 merge the target level holds ~67 pages (~17 MiB), so a
/// *full* merge request re-shipping it would blow the 16 MiB frame cap
/// — over TCP `write_frame` would refuse it and the merge would wedge.
/// Delta-encoded requests reference the retained run in 5 bytes per
/// page, so every merge crosses small.
pub fn oversized_full_request_merges_as_small_delta<L: Link>() {
    let cluster = start::<L>(ClusterConfig {
        lsm: LsmConfig { level_thresholds: vec![2, 1000], page_capacity: 1 },
        ..batch(1)
    });
    let mut last = None;
    for k in 0..70u64 {
        last = cluster.put(k, vec![k as u8; 256 * 1024]);
    }
    if let Some(reply) = last {
        let _ = reply.certified.recv_timeout(Duration::from_secs(30));
    }
    for k in (0..70u64).step_by(13) {
        let read = cluster.get(k).unwrap();
        assert_eq!(read.value, Some(vec![k as u8; 256 * 1024]), "key {k}");
    }
    let report = cluster.shutdown().expect("report");
    let stats = &report.cloud_stats;
    assert!(stats.merges_processed > 0, "merges ran");
    assert!(
        stats.merge_req_pages_reused > stats.merge_req_pages_full,
        "requests mostly reference retained pages (full {}, reused {})",
        stats.merge_req_pages_full,
        stats.merge_req_pages_reused
    );
    // The last merge alone re-ships a >16 MiB target as references:
    // its saving exceeds an entire frame cap.
    assert!(
        stats.merge_req_bytes_saved > MAX_FRAME_PAYLOAD as u64,
        "request dedup saved more than one whole frame cap (saved {})",
        stats.merge_req_bytes_saved
    );
    assert_eq!(stats.merge_req_nacks, 0, "warm retention: no resend nacks");
    assert_eq!(report.edges[0].edge_stats.merge_req_resends, 0);
    assert_eq!(report.edges[0].edge_stats.merge_deltas_unresolved, 0);
    no_lost_frames(&report);
}

/// Scripted seal times are virtual; a wall-clock merge retry armed
/// beside them would fire spurious retries, so `start` refuses the
/// combination (panics with "cannot combine").
pub fn seal_times_reject_merge_retry<L: Link>() {
    start::<L>(ClusterConfig {
        seal_times: Some(vec![vec![1_000]]),
        merge_retry: Some(Duration::from_millis(50)),
        ..ClusterConfig::default()
    });
}
