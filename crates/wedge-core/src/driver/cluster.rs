//! [`Cluster`]: an N-edge + cloud deployment on real threads, the same
//! for every [`Link`].
//!
//! The topology mirrors the simulator's `MultiPartitionHarness`: one
//! service thread per edge, one per partition client, and one cloud
//! thread, all cryptography real. The threads contain no protocol
//! logic and no protocol clocks: they turn inbox messages into engine
//! commands, queue engine effects onto links, and turn each engine's
//! `next_deadline_ns()` into a receive timeout, issuing `Tick` once it
//! passes. Gossip cadence, retries and dispute timeouts therefore run
//! on the engines' own clocks, as in the simulator.
//!
//! Each service wakeup drains its inbox greedily (up to a budget),
//! handles the batch, ticks if due, then flushes its links — so over
//! TCP every frame a wakeup produces for one peer leaves in one write.
//!
//! Backpressure: the cloud and edge inboxes are bounded, so edges and
//! clients block when the cloud lags, and clients block when their
//! edge lags. The cloud never blocks toward an edge; its traffic passes
//! the gate (see `gate.rs`), which sheds gossip and refreshes and
//! defers the rest. Client inboxes are unbounded: blocking there would
//! close the client→edge→cloud→client cycle.

use super::gate::CloudGate;
use super::link::{Endpoint, Link, Route, Sink};
use super::{elapsed_ns, recv_until, ClientCompletions, Inbox, PutBatcher, PutOps, PutReply};
use crate::config::CryptoMode;
use crate::cost::CostModel;
use crate::engine::{
    ClientCommand, ClientEngine, ClientPlan, CloudCommand, CloudEffect, CloudEngine, CloudStats,
    EdgeCommand, EdgeEffect, EdgeEngine, EdgeStats, GetOutcome,
};
use crate::fault::FaultPlan;
use crate::harness::client_workload_seed;
use crate::messages::{DisputeVerdict, WireMsg};
use crate::metrics::ClientMetrics;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wedge_crypto::{Digest, Identity, IdentityId, KeyRegistry};
use wedge_log::BlockId;
use wedge_lsmerkle::{
    CloudIndex, CompactionStats, LsMerkle, LsmConfig, ProofError, ShardedReadProofCache,
};

/// Configuration of a [`Cluster`], whatever its link.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// LSMerkle shape.
    pub lsm: LsmConfig,
    /// Number of edge partitions (each with one edge service, one
    /// client service, and one caller-side batcher).
    pub num_edges: usize,
    /// Operations per sealed block (caller-side batching).
    pub batch_size: usize,
    /// Injected latency before the cloud handles each inbound message.
    pub cloud_hop_latency: Duration,
    /// Injected processing latency per cloud→edge message at the edge
    /// (slows the edge's drain rate; used to exercise backpressure).
    pub edge_apply_latency: Duration,
    /// Scripted `sealed_at_ns` per edge, in seal order. When present,
    /// edge `p`'s block `i` seals at `seal_times[p][i]` instead of the
    /// wall clock — this makes block digests reproducible and
    /// comparable across runtimes (the differential tests replay the
    /// simulator's seal times here). Falls back to the wall clock when
    /// exhausted. Cannot combine with a wall-clock retry clock.
    pub seal_times: Option<Vec<Vec<u64>>>,
    /// Scripted misbehaviour per edge (missing entries are honest).
    pub faults: Vec<FaultPlan>,
    /// Cloud gossip cadence; `None` disables gossip. Engine-owned: the
    /// cloud thread only relays the deadline into its receive timeout.
    pub gossip_period: Option<Duration>,
    /// How long a client waits for Phase II before disputing.
    pub dispute_timeout: Duration,
    /// Edge certification retry interval; `None` disables retries.
    pub cert_retry: Option<Duration>,
    /// Edge merge-request retry interval; `None` disables retries.
    pub merge_retry: Option<Duration>,
    /// Background compaction sweep period; `None` disables it. Each
    /// sweep an idle edge asks the cloud to fold fragmented levels
    /// back to whole pages.
    pub compaction_period: Option<Duration>,
    /// Client read-freshness window (§V-D); `None` disables the check.
    pub freshness_window: Option<Duration>,
    /// Put batches each client keeps in flight (≥ 1). Receipts
    /// correlate by `req_id`, so deeper pipelines overlap Phase-I
    /// round trips.
    pub pipeline_depth: usize,
    /// Capacity of the cloud service's inbox.
    pub cloud_inbox_cap: usize,
    /// Capacity of each edge service's inbox (bounds cloud→edge too).
    pub edge_inbox_cap: usize,
    /// Per-caller admission control for [`Cluster::try_put_on`]: how
    /// long a caller waits for Phase I before the put is *shed*
    /// (counted in [`ClusterReport::puts_shed`]) instead of blocking
    /// forever behind a full edge inbox. `None` keeps the blocking
    /// behaviour for `try_put_on` too.
    pub admission_timeout: Option<Duration>,
    /// Worker-pool width for the hash/verify hot paths (cloud merge
    /// rebuilds, edge forest rebuilds, batched signature checks).
    /// Defaults from `WEDGE_POOL_THREADS` (1 when unset = inline).
    /// Results are byte-identical for every width.
    pub pool_threads: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            lsm: LsmConfig::exposition(),
            num_edges: 1,
            batch_size: 4,
            cloud_hop_latency: Duration::ZERO,
            edge_apply_latency: Duration::ZERO,
            seal_times: None,
            faults: Vec::new(),
            gossip_period: None,
            dispute_timeout: Duration::from_secs(30),
            cert_retry: None,
            merge_retry: None,
            compaction_period: None,
            freshness_window: None,
            pipeline_depth: 1,
            cloud_inbox_cap: 1024,
            edge_inbox_cap: 1024,
            admission_timeout: None,
            pool_threads: wedge_pool::threads_from_env(),
        }
    }
}

/// Identity derivation mirrors the simulator harness (cloud 1, edges
/// 100+p, clients 1000+p) so entries and blocks are byte-identical
/// across runtimes.
const CLOUD_ID: u64 = 1;
const EDGE_ID_BASE: u64 = 100;
const CLIENT_ID_BASE: u64 = 1000;

/// The edge engine's single client peer handle.
const CLIENT_PEER: u8 = 0;

/// How many extra inbox messages a service drains without blocking
/// after each blocking receive, before ticking and flushing. The
/// greedy drain lets frames for the same peer share a write; the
/// budget bounds how long queued responses wait for the wire.
const DRAIN_BUDGET: usize = 32;

/// Final per-partition state of a run.
#[derive(Clone, Debug)]
pub struct EdgeRunReport {
    /// The partition's edge identity.
    pub edge: IdentityId,
    /// Per log block, in id order: the block's digest, the proof
    /// digest attached at the edge (if Phase II arrived), and the
    /// digest the cloud's ledger certified (if any).
    pub blocks: Vec<(BlockId, Digest, Option<Digest>, Option<Digest>)>,
    /// Edge-side counters.
    pub edge_stats: EdgeStats,
    /// The partition client's metrics (disputes filed/upheld included).
    pub client_metrics: ClientMetrics,
    /// Contiguously certified prefix length in the cloud's ledger —
    /// the content of the edge's gossip watermark.
    pub certified_len: u64,
    /// The freshest gossip watermark the client holds for this edge.
    pub watermark_len: Option<u64>,
    /// Every dispute verdict the client received, in arrival order.
    pub verdicts: Vec<DisputeVerdict>,
}

/// Final state of a run, extracted at shutdown. This is what the
/// differential tests compare against the simulator.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Per-partition state, indexed like `ClusterConfig::faults`.
    pub edges: Vec<EdgeRunReport>,
    /// Cloud-side counters.
    pub cloud_stats: CloudStats,
    /// Punished edge identities, sorted.
    pub punished: Vec<IdentityId>,
    /// Droppable cloud→edge messages (gossip, freshness refreshes)
    /// shed because an edge inbox was full.
    pub shed_cloud_msgs: u64,
    /// Critical cloud→edge messages (proofs, merge results) deferred
    /// because an edge inbox was full (applied later, in order).
    pub deferred_cloud_msgs: u64,
    /// Caller puts shed by the admission path (`try_put_on` hit its
    /// admission timeout, or the batch was rejected outright).
    pub puts_shed: u64,
    /// Frames refused or lost, summed over every connection (0 on the
    /// in-process link). A healthy run is zero — the differential test
    /// asserts it — and anything else means a peer silently missed
    /// protocol messages (torn connection, oversized frame).
    pub failed_sends: u64,
    /// Per-connection breakdown of `failed_sends` (non-zero entries
    /// only), labelled `sender→receiver`.
    pub failed_sends_by_peer: Vec<(String, u64)>,
    /// Frames that reached a socket (0 on the in-process link).
    pub frames_sent: u64,
    /// Writes that carried those frames (≤ `frames_sent`).
    pub frame_writes: u64,
    /// Frames that shared a write with a predecessor queued for the
    /// same peer in the same wakeup (`frames_sent - frame_writes`).
    pub coalesced_frames: u64,
    /// Fold work across every merge the cloud processed (organic
    /// merges and background compaction requests alike).
    pub compaction: CompactionStats,
    /// Witness checks the process-shared read-proof cache answered
    /// without re-derivation, across all clients.
    pub proof_cache_hits: u64,
    /// Witness checks that paid the full re-derivation.
    pub proof_cache_misses: u64,
}

/// Why [`Cluster::try_put_on`] shed a put instead of returning its
/// Phase-I reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PutShed {
    /// Phase I did not commit within the configured admission timeout.
    /// The batch is *not* cancelled — it may still commit later; the
    /// shed is about never wedging the caller behind a full edge
    /// inbox.
    AdmissionTimeout,
    /// The client service dropped the batch (rejected by the edge, or
    /// the dispute deadline freed the slot, or shutdown).
    Rejected,
}

impl std::fmt::Display for PutShed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PutShed::AdmissionTimeout => write!(f, "put shed: admission timeout"),
            PutShed::Rejected => write!(f, "put shed: batch rejected"),
        }
    }
}

impl std::error::Error for PutShed {}

/// Inbox of an edge service.
// `WireMsg` dwarfs `Shutdown`; inbox values are moved once per hop.
#[allow(clippy::large_enum_variant)]
pub(super) enum EdgeIn {
    /// A protocol message from the partition's client.
    FromClient(WireMsg),
    /// A protocol message from the cloud, passed by the gate.
    FromCloud(WireMsg),
    Shutdown,
}

/// Inbox of the cloud service.
#[allow(clippy::large_enum_variant)]
pub(super) enum CloudIn {
    /// A protocol message from peer `peer` (edges `0..E`, partition
    /// clients `E..2E`).
    From {
        peer: usize,
        msg: WireMsg,
    },
    Shutdown,
}

/// Inbox of a client service.
#[allow(clippy::large_enum_variant)]
pub(super) enum ClientIn {
    /// A caller-submitted batch of puts; the reply carries the Phase-I
    /// receipt plus a channel resolving at Phase II.
    PutBatch {
        ops: PutOps,
        reply: SyncSender<PutReply>,
    },
    /// A caller-submitted verified get.
    Get {
        key: u64,
        reply: SyncSender<GetOutcome>,
    },
    /// A caller-submitted log-read audit (fire and forget; verdicts
    /// surface in the report).
    LogRead(BlockId),
    /// A protocol message from the partition's edge or the cloud.
    Wire(WireMsg),
    Shutdown,
}

/// What a joined client service thread yields.
type ClientExit = (ClientEngine, Vec<DisputeVerdict>);

/// A running N-edge + cloud cluster whose services talk over link `L`.
pub struct Cluster<L: Link> {
    client_txs: Vec<Sender<ClientIn>>,
    edge_txs: Vec<SyncSender<EdgeIn>>,
    cloud_tx: SyncSender<CloudIn>,
    edge_handles: Vec<Option<JoinHandle<EdgeEngine<u8>>>>,
    client_handles: Vec<Option<JoinHandle<ClientExit>>>,
    cloud_handle: Option<JoinHandle<CloudEngine<usize>>>,
    gates: Vec<Arc<CloudGate>>,
    net: L::Net,
    /// Public registry for caller-side verification.
    pub registry: KeyRegistry,
    /// The cloud's identity id.
    pub cloud_id: IdentityId,
    /// Edge identity per partition.
    pub edge_ids: Vec<IdentityId>,
    /// Caller-side batching per partition (ops, not entries: sequence
    /// numbers are assigned by the client engine, on its thread, so
    /// ordering is automatic).
    batcher: PutBatcher,
    admission_timeout: Option<Duration>,
    /// Puts shed by the admission path.
    puts_shed: AtomicU64,
    /// The process-wide read-proof cache every client shares —
    /// sharded, so partitions verifying in parallel contend per-shard,
    /// not on one global lock.
    proof_cache: Arc<ShardedReadProofCache>,
}

/// Spawns a named service thread.
fn spawn<T: Send + 'static>(name: String, f: impl FnOnce() -> T + Send + 'static) -> JoinHandle<T> {
    std::thread::Builder::new()
        .name(name)
        .spawn(f)
        // lint:allow(no-panic-path): thread spawn at cluster construction, on the caller thread — failing fast before the run starts is the harness contract
        .expect("spawn service thread")
}

impl<L: Link> Cluster<L> {
    /// Wires the topology over link `L` and spawns the cloud, edge and
    /// client service threads.
    pub fn start(cfg: ClusterConfig) -> Arc<Self> {
        assert!(cfg.num_edges > 0, "need at least one edge");
        assert!(cfg.cloud_inbox_cap > 0 && cfg.edge_inbox_cap > 0, "inboxes need capacity");
        // Scripted seal times put BatchAdd handling on a virtual clock
        // while deadlines tick on the wall clock; a retry deadline
        // armed in one domain and checked in the other would fire at a
        // meaningless moment.
        assert!(
            cfg.seal_times.is_none()
                || (cfg.cert_retry.is_none()
                    && cfg.merge_retry.is_none()
                    && cfg.compaction_period.is_none()),
            "seal_times (virtual timestamps) and cert_retry/merge_retry/compaction_period \
             (wall-clock deadlines) cannot combine"
        );
        let edges = cfg.num_edges;
        let cloud_ident = Identity::derive("cloud", CLOUD_ID);
        let edge_idents: Vec<Identity> =
            (0..edges).map(|p| Identity::derive("edge", EDGE_ID_BASE + p as u64)).collect();
        let client_idents: Vec<Identity> =
            (0..edges).map(|p| Identity::derive("client", CLIENT_ID_BASE + p as u64)).collect();
        let mut registry = KeyRegistry::new();
        for ident in std::iter::once(&cloud_ident).chain(&edge_idents).chain(&client_idents) {
            // lint:allow(no-panic-path): cluster construction on the caller thread — freshly derived ids cannot collide, and a failure must abort the harness before any service thread exists
            registry.register(ident.id, ident.public()).unwrap();
        }

        let mut index = CloudIndex::new(cfg.lsm.clone());
        // Each engine runs on its own service thread and scopes its
        // own parallel sections; a shared pool would serialize them,
        // so the cloud and every edge get a pool of their own.
        index.set_pool(wedge_pool::Pool::new(cfg.pool_threads));
        let inits: Vec<_> =
            edge_idents.iter().map(|e| index.init_edge(&cloud_ident, e.id, 0)).collect();
        let edge_ids: Vec<IdentityId> = edge_idents.iter().map(|e| e.id).collect();
        let cloud_id = cloud_ident.id;
        let cost = CostModel::default();
        let cloud_engine = CloudEngine::new(
            cloud_ident,
            registry.clone(),
            cost.clone(),
            index,
            (0..edges).map(|p| (p, edge_ids[p])).collect::<HashMap<_, _>>(),
            cfg.gossip_period.map(|d| d.as_nanos() as u64),
        );

        // --- inboxes ---
        let (cloud_tx, cloud_rx) = sync_channel::<CloudIn>(cfg.cloud_inbox_cap);
        let (edge_txs, edge_rxs): (Vec<_>, Vec<_>) =
            (0..edges).map(|_| sync_channel::<EdgeIn>(cfg.edge_inbox_cap)).unzip();
        let gates: Vec<Arc<CloudGate>> =
            edge_txs.iter().map(|tx| Arc::new(CloudGate::new(tx.clone()))).collect();
        let (client_txs, client_rxs): (Vec<_>, Vec<_>) = (0..edges)
            // lint:allow(bounded-channels): deliberately unbounded — the client inbox is the one queue that must never block, or the client→edge→cloud→client send cycle deadlocks; inbound volume is bounded by the pipeline depth
            .map(|_| channel::<ClientIn>())
            .unzip();

        // --- links: edge p ↔ cloud, client p ↔ edge p, client p ↔ cloud ---
        let mut net = L::open();
        let to_cloud = |peer| Sink::new(Route::Cloud { tx: cloud_tx.clone(), peer });
        let to_client = |p: usize| Sink::new(Route::Client(client_txs[p].clone()));
        let mut cloud_links = Vec::with_capacity(2 * edges);
        let mut edge_ups = Vec::with_capacity(edges);
        for (p, gate) in gates.iter().enumerate() {
            let to_edge = Sink::new(Route::EdgeGate(Arc::clone(gate)));
            let (up, down) =
                L::pair(&mut net, Endpoint::Edge(p), to_edge, Endpoint::Cloud, to_cloud(p));
            edge_ups.push(up);
            cloud_links.push(down);
        }
        let mut client_links = Vec::with_capacity(edges);
        let mut edge_downs = Vec::with_capacity(edges);
        for (p, edge_tx) in edge_txs.iter().enumerate() {
            let to_edge = Sink::new(Route::Edge(edge_tx.clone()));
            let client = Endpoint::Client(p);
            let (to_e, from_e) =
                L::pair(&mut net, client, to_client(p), Endpoint::Edge(p), to_edge);
            edge_downs.push(from_e);
            let (to_c, from_c) =
                L::pair(&mut net, client, to_client(p), Endpoint::Cloud, to_cloud(edges + p));
            cloud_links.push(from_c);
            client_links.push((to_e, to_c));
        }

        let epoch = Instant::now();
        let prefix = L::THREAD_PREFIX;
        let hop = cfg.cloud_hop_latency;
        let cloud_handle = spawn(format!("{prefix}cloud"), move || {
            cloud_service(cloud_engine, cloud_rx, cloud_links, epoch, hop)
        });

        let mut edge_handles = Vec::new();
        let edge_parts =
            edge_idents.into_iter().zip(edge_rxs).zip(edge_ups.into_iter().zip(edge_downs));
        for (p, ((ident, rx), (up, down))) in edge_parts.enumerate() {
            let tree = LsMerkle::new(ident.id, cfg.lsm.clone(), inits[p].clone());
            let fault = cfg.faults.get(p).cloned().unwrap_or_default();
            let mut engine = EdgeEngine::new(
                ident,
                cloud_id,
                registry.clone(),
                cost.clone(),
                CryptoMode::Real,
                fault,
                tree,
                vec![CLIENT_PEER],
            );
            engine.set_pool(wedge_pool::Pool::new(cfg.pool_threads));
            engine.set_cert_retry_ns(cfg.cert_retry.map(|d| d.as_nanos() as u64));
            engine.set_merge_retry_ns(cfg.merge_retry.map(|d| d.as_nanos() as u64));
            engine.set_compaction_period_ns(cfg.compaction_period.map(|d| d.as_nanos() as u64));
            let seal_times: VecDeque<u64> = cfg
                .seal_times
                .as_ref()
                .and_then(|per_edge| per_edge.get(p).cloned())
                .unwrap_or_default()
                .into();
            let edge = EdgeService {
                engine,
                gate: Arc::clone(&gates[p]),
                cloud: up,
                client: down,
                epoch,
                seal_times,
                apply_latency: cfg.edge_apply_latency,
            };
            edge_handles.push(Some(spawn(format!("{prefix}edge-{p}"), move || edge.run(rx))));
        }

        // One proof cache for the whole process: a witness verified by
        // any partition's client is verified for all of them (the
        // cache's trust rule is content-based, not per-client).
        let proof_cache = Arc::new(ShardedReadProofCache::default());
        let mut client_handles = Vec::new();
        let client_parts = client_idents.into_iter().zip(client_rxs).zip(client_links);
        for (p, ((ident, rx), (edge, cloud))) in client_parts.enumerate() {
            let seed = client_workload_seed(0, ident.id);
            let mut engine = ClientEngine::new(
                ident,
                edge_ids[p],
                cloud_id,
                registry.clone(),
                cost.clone(),
                CryptoMode::Real,
                ClientPlan::idle(),
                cfg.freshness_window.map(|d| d.as_nanos() as u64),
                cfg.dispute_timeout.as_nanos() as u64,
                seed,
            );
            engine.set_pipeline_depth(cfg.pipeline_depth);
            engine.share_proof_cache(Arc::clone(&proof_cache));
            let handle = spawn(format!("{prefix}client-{p}"), move || {
                client_service(engine, rx, edge, cloud, epoch)
            });
            client_handles.push(Some(handle));
        }

        Arc::new(Cluster {
            client_txs,
            edge_txs,
            cloud_tx,
            edge_handles,
            client_handles,
            cloud_handle: Some(cloud_handle),
            gates,
            net,
            registry,
            cloud_id,
            edge_ids,
            batcher: PutBatcher::new(edges, cfg.batch_size),
            admission_timeout: cfg.admission_timeout,
            puts_shed: AtomicU64::new(0),
            proof_cache,
        })
    }

    /// Puts a key-value pair through partition `edge`'s client.
    /// Buffers caller-side until a batch is full, then submits the
    /// batch and returns the Phase-I reply. Returns `None` while
    /// buffering.
    pub fn put_on(&self, edge: usize, key: u64, value: Vec<u8>) -> Option<PutReply> {
        self.batcher.put(edge, key, value, |ops| self.submit(edge, ops))
    }

    /// Flushes partition `edge`'s buffered entries as a partial batch.
    pub fn flush_on(&self, edge: usize) -> Option<PutReply> {
        self.batcher.flush(edge, |ops| self.submit(edge, ops))
    }

    /// Like [`Cluster::put_on`], but with per-caller admission control:
    /// if the batch's Phase-I reply does not arrive within
    /// `ClusterConfig::admission_timeout`, the put is *shed* — counted
    /// in [`ClusterReport::puts_shed`] and surfaced as [`PutShed`] —
    /// instead of blocking the caller indefinitely behind a full edge
    /// inbox. `Ok(None)` means the put is still buffering client-side.
    /// With no timeout configured this is `put_on` with a `Result`
    /// wrapper.
    pub fn try_put_on(
        &self,
        edge: usize,
        key: u64,
        value: Vec<u8>,
    ) -> Result<Option<PutReply>, PutShed> {
        let Some(rx) = self.batcher.put_submit(edge, key, value, |ops| self.submit(edge, ops))
        else {
            return Ok(None);
        };
        // Without a timeout this is still the *fallible* API: a
        // rejected batch (dropped reply sender) is `PutShed::Rejected`,
        // never the panic `put_on`'s infallible contract uses.
        let reply = match self.admission_timeout {
            Some(timeout) => rx.recv_timeout(timeout),
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        reply.map(Some).map_err(|err| {
            self.puts_shed.fetch_add(1, Ordering::Relaxed);
            match err {
                RecvTimeoutError::Timeout => PutShed::AdmissionTimeout,
                RecvTimeoutError::Disconnected => PutShed::Rejected,
            }
        })
    }

    /// Sends one batch to the partition's client service. Called with
    /// the batcher lock held so batches enqueue in submission order;
    /// sequence signing happens on the (single) client thread, so no
    /// ordering hazard remains past this point.
    fn submit(&self, edge: usize, ops: PutOps) -> Receiver<PutReply> {
        // Single-shot reply: exactly one Phase-I reply ever rides the
        // channel, so the rendezvous send cannot block the service.
        let (tx, rx) = sync_channel(1);
        // lint:allow(discarded-result): client service gone = shutdown race; the caller sees the closed reply channel and sheds the put
        let _ = self.client_txs[edge].send(ClientIn::PutBatch { ops, reply: tx });
        rx
    }

    /// Puts on partition 0 (single-edge convenience).
    pub fn put(&self, key: u64, value: Vec<u8>) -> Option<PutReply> {
        self.put_on(0, key, value)
    }

    /// Flushes partition 0 (single-edge convenience).
    pub fn flush(&self) -> Option<PutReply> {
        self.flush_on(0)
    }

    /// Gets a key through partition `edge`'s client, with full
    /// engine-side verification (proof cache included).
    pub fn get_on(&self, edge: usize, key: u64) -> Result<GetOutcome, ProofError> {
        let (tx, rx) = sync_channel(1);
        // lint:allow(no-panic-path): caller-facing harness API; the client service outlives the cluster handle by construction, and a violated contract must fail fast here, not corrupt a measurement
        self.client_txs[edge].send(ClientIn::Get { key, reply: tx }).expect("client service alive");
        // lint:allow(no-panic-path): same contract as the send above — the service replies or the run is already broken
        let outcome = rx.recv().expect("client service replies");
        match outcome.verify_error.clone() {
            Some(e) => Err(e),
            None => Ok(outcome),
        }
    }

    /// Gets on partition 0 (single-edge convenience).
    pub fn get(&self, key: u64) -> Result<GetOutcome, ProofError> {
        self.get_on(0, key)
    }

    /// Audits a log block through partition `edge`'s client. Fire and
    /// forget: a lying edge surfaces as a verdict in the report.
    pub fn log_read_on(&self, edge: usize, bid: BlockId) {
        // lint:allow(discarded-result): fire-and-forget audit — a dead client service means shutdown already began and there is nothing left to audit
        let _ = self.client_txs[edge].send(ClientIn::LogRead(bid));
    }

    /// Shuts all services down, joins their threads, closes the link,
    /// and returns the final protocol state (for assertions and the
    /// differential tests). Returns `None` unless called on the last
    /// owner, or if a service thread panicked.
    pub fn shutdown(mut self: Arc<Self>) -> Option<ClusterReport> {
        // Only the last owner actually joins.
        let this = Arc::get_mut(&mut self)?;
        for tx in &this.client_txs {
            // lint:allow(discarded-result): best-effort shutdown — a service whose inbox is closed has already exited, which is the goal
            let _ = tx.send(ClientIn::Shutdown);
        }
        for tx in &this.edge_txs {
            // lint:allow(discarded-result): best-effort shutdown, as above
            let _ = tx.send(EdgeIn::Shutdown);
        }
        // lint:allow(discarded-result): best-effort shutdown, as above
        let _ = this.cloud_tx.send(CloudIn::Shutdown);
        let clients: Vec<ClientExit> = this
            .client_handles
            .iter_mut()
            .map(|h| h.take().and_then(|h| h.join().ok()))
            .collect::<Option<_>>()?;
        let edges: Vec<EdgeEngine<u8>> = this
            .edge_handles
            .iter_mut()
            .map(|h| h.take().and_then(|h| h.join().ok()))
            .collect::<Option<_>>()?;
        let cloud = this.cloud_handle.take().and_then(|h| h.join().ok())?;
        let link = L::close(&mut this.net);

        let mut reports = Vec::new();
        for (p, (edge, (client, verdicts))) in edges.into_iter().zip(clients).enumerate() {
            let edge_id = this.edge_ids[p];
            let blocks = edge
                .log
                .iter()
                .map(|sb| {
                    (
                        sb.block.id,
                        sb.block.digest(),
                        sb.proof.as_ref().map(|pr| pr.digest),
                        cloud.ledger.lookup(edge_id, sb.block.id).copied(),
                    )
                })
                .collect();
            reports.push(EdgeRunReport {
                edge: edge_id,
                blocks,
                edge_stats: edge.stats.clone(),
                client_metrics: client.metrics.clone(),
                certified_len: cloud.ledger.contiguous_len(edge_id),
                watermark_len: client.watermarks.latest(edge_id).map(|wm| wm.log_len),
                verdicts,
            });
        }
        let mut punished: Vec<IdentityId> = cloud.punished.iter().copied().collect();
        punished.sort_by_key(|id| id.0);
        let gate_sum = |count: fn(&CloudGate) -> &AtomicU64| -> u64 {
            this.gates.iter().map(|g| count(g).load(Ordering::Relaxed)).sum()
        };
        Some(ClusterReport {
            edges: reports,
            cloud_stats: cloud.stats.clone(),
            punished,
            shed_cloud_msgs: gate_sum(|g| &g.shed),
            deferred_cloud_msgs: gate_sum(|g| &g.deferred_total),
            puts_shed: this.puts_shed.load(Ordering::Relaxed),
            failed_sends: link.failed_sends,
            failed_sends_by_peer: link.failed_sends_by_peer,
            frames_sent: link.frames_sent,
            frame_writes: link.frame_writes,
            coalesced_frames: link.frames_sent.saturating_sub(link.frame_writes),
            compaction: cloud.index.compaction_stats(),
            proof_cache_hits: this.proof_cache.hits(),
            proof_cache_misses: this.proof_cache.misses(),
        })
    }
}

/// Waits for the next inbox message (or the engine's deadline), then
/// drains up to [`DRAIN_BUDGET`] more without blocking. Returns
/// `false` once every sender is gone.
fn drain<T>(
    rx: &Receiver<T>,
    deadline_ns: Option<u64>,
    epoch: Instant,
    batch: &mut Vec<T>,
) -> bool {
    match recv_until(rx, deadline_ns, epoch) {
        Inbox::Msg(msg) => batch.push(msg),
        Inbox::Disconnected => return false,
        Inbox::Deadline => {}
    }
    while batch.len() <= DRAIN_BUDGET {
        match rx.try_recv() {
            Ok(msg) => batch.push(msg),
            Err(_) => break,
        }
    }
    true
}

/// The edge service: one engine, a link up to the cloud and one down
/// to the client.
struct EdgeService<L> {
    engine: EdgeEngine<u8>,
    gate: Arc<CloudGate>,
    cloud: L,
    client: L,
    epoch: Instant,
    /// Scripted seal times still to use (see `ClusterConfig`).
    seal_times: VecDeque<u64>,
    apply_latency: Duration,
}

impl<L: Link> EdgeService<L> {
    fn apply(&mut self, cmd: EdgeCommand<u8>, now_ns: u64) {
        for effect in self.engine.handle(cmd, now_ns) {
            match effect {
                EdgeEffect::SendCloud { msg, .. } => self.cloud.queue(msg),
                EdgeEffect::Send { msg, .. } => self.client.queue(msg),
                // CPU accounting has no real-time counterpart here.
                EdgeEffect::UseCpu(_) | EdgeEffect::UseCpuBackground(_) => {}
            }
        }
    }

    fn apply_wire(&mut self, msg: WireMsg, now_ns: u64) {
        if let Some(cmd) = EdgeCommand::from_wire(CLIENT_PEER, msg) {
            self.apply(cmd, now_ns);
        }
    }

    fn apply_from_cloud(&mut self, msg: WireMsg) {
        if !self.apply_latency.is_zero() {
            std::thread::sleep(self.apply_latency);
        }
        self.apply_wire(msg, elapsed_ns(self.epoch));
    }

    fn run(mut self, rx: Receiver<EdgeIn>) -> EdgeEngine<u8> {
        let mut batch = Vec::new();
        while drain(&rx, self.engine.next_deadline_ns(), self.epoch, &mut batch) {
            let mut shutdown = false;
            for msg in batch.drain(..) {
                match msg {
                    EdgeIn::FromClient(msg) => {
                        // Scripted seal times make block digests
                        // reproducible.
                        let now_ns = match msg {
                            WireMsg::BatchAdd { .. } => self.seal_times.pop_front(),
                            _ => None,
                        };
                        self.apply_wire(msg, now_ns.unwrap_or_else(|| elapsed_ns(self.epoch)));
                    }
                    EdgeIn::FromCloud(msg) => {
                        self.apply_from_cloud(msg);
                        self.gate.applied();
                    }
                    EdgeIn::Shutdown => {
                        shutdown = true;
                        break;
                    }
                }
            }
            if !shutdown {
                for msg in self.gate.release() {
                    self.apply_from_cloud(msg);
                }
                let now_ns = elapsed_ns(self.epoch);
                if self.engine.next_deadline_ns().is_some_and(|d| d <= now_ns) {
                    self.apply(EdgeCommand::Tick, now_ns);
                }
            }
            self.cloud.flush();
            self.client.flush();
            if shutdown {
                break;
            }
        }
        self.engine
    }
}

/// The cloud service: the engine plus one link per peer (edges `0..E`,
/// clients `E..2E`).
fn cloud_service<L: Link>(
    mut engine: CloudEngine<usize>,
    rx: Receiver<CloudIn>,
    mut peers: Vec<L>,
    epoch: Instant,
    hop: Duration,
) -> CloudEngine<usize> {
    let apply = |engine: &mut CloudEngine<usize>,
                 cmd: CloudCommand<usize>,
                 now_ns: u64,
                 peers: &mut [L]| {
        for effect in engine.handle(cmd, now_ns) {
            match effect {
                CloudEffect::Send { to, msg, .. } => {
                    if let Some(link) = peers.get_mut(to) {
                        link.queue(msg);
                    }
                }
                CloudEffect::UseCpu(_) => {}
            }
        }
    };
    let mut batch = Vec::new();
    while drain(&rx, engine.next_deadline_ns(), epoch, &mut batch) {
        let mut shutdown = false;
        for msg in batch.drain(..) {
            match msg {
                CloudIn::From { peer, msg } => {
                    if !hop.is_zero() {
                        std::thread::sleep(hop);
                    }
                    if let Some(cmd) = CloudCommand::from_wire(peer, msg) {
                        apply(&mut engine, cmd, elapsed_ns(epoch), &mut peers);
                    }
                }
                CloudIn::Shutdown => {
                    shutdown = true;
                    break;
                }
            }
        }
        if !shutdown {
            let now_ns = elapsed_ns(epoch);
            if engine.next_deadline_ns().is_some_and(|d| d <= now_ns) {
                apply(&mut engine, CloudCommand::Tick, now_ns, &mut peers);
            }
        }
        for link in &mut peers {
            link.flush();
        }
        if shutdown {
            break;
        }
    }
    engine
}

/// The client service: drives a [`ClientEngine`] from its inbox,
/// routing caller requests in and completions back out via the shared
/// [`ClientCompletions`] router; wire sends go to the two links.
fn client_service<L: Link>(
    mut engine: ClientEngine,
    rx: Receiver<ClientIn>,
    mut edge: L,
    mut cloud: L,
    epoch: Instant,
) -> ClientExit {
    let mut comp = ClientCompletions::new();
    let mut batch = Vec::new();
    while drain(&rx, engine.next_deadline_ns(), epoch, &mut batch) {
        let mut shutdown = false;
        {
            let mut send_edge = |msg: WireMsg| edge.queue(msg);
            let mut send_cloud = |msg: WireMsg| cloud.queue(msg);
            let (send_edge, send_cloud) = (&mut send_edge, &mut send_cloud);
            for msg in batch.drain(..) {
                let cmd = match msg {
                    ClientIn::PutBatch { ops, reply } => {
                        comp.queue_put(ops, reply);
                        continue;
                    }
                    ClientIn::Get { key, reply } => {
                        ClientCommand::Get { token: comp.register_get(reply), key }
                    }
                    ClientIn::LogRead(bid) => ClientCommand::LogRead { bid },
                    ClientIn::Wire(msg) => match ClientCommand::from_wire(msg) {
                        Some(cmd) => cmd,
                        None => continue,
                    },
                    ClientIn::Shutdown => {
                        shutdown = true;
                        break;
                    }
                };
                comp.run(&mut engine, cmd, elapsed_ns(epoch), send_edge, send_cloud);
            }
            if !shutdown {
                let now_ns = elapsed_ns(epoch);
                comp.pump_puts(&mut engine, now_ns, send_edge, send_cloud);
                if engine.next_deadline_ns().is_some_and(|d| d <= now_ns) {
                    comp.run(&mut engine, ClientCommand::Tick, now_ns, send_edge, send_cloud);
                }
            }
        }
        edge.flush();
        cloud.flush();
        if shutdown {
            break;
        }
    }
    (engine, comp.into_verdicts())
}
