//! The traced engine pass: a workload's op sequence replayed on one
//! thread through the public sans-IO engines, with every effect routed
//! by hand through the `*Command::from_wire` constructors.
//!
//! Every engine call gets a span `<engine>.<command>` whose parent is
//! the op that caused it (merges and certifications a put triggers are
//! charged to that put). On TCP workloads each hop also encodes and
//! decodes the message (`wire.encode` / `wire.decode`), as the socket
//! runtime does. Nothing runs concurrently, so a span is busy time on
//! one core, never latency.

use crate::model::AckModel;
use crate::trace::Tracer;
use crate::workload::{Kind, Op, Runtime, Spec, Writes, EDGES, PIPELINE_DEPTH};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wedge_core::engine::{
    ClientCommand, ClientEffect, ClientEngine, ClientEvent, ClientPlan, CloudCommand, CloudEffect,
    CloudEngine, EdgeCommand, EdgeEffect, EdgeEngine,
};
use wedge_core::{CostModel, CryptoMode, FaultPlan, WireMsg};
use wedge_crypto::merkle::hash_stats;
use wedge_crypto::{Identity, KeyRegistry};
use wedge_lsmerkle::{CloudIndex, LsMerkle, LsmConfig, ShardedReadProofCache};

/// Identity derivation of the real runtimes (cloud 1, edges 100+p,
/// clients 1000+p), so the replay signs the same bytes they do.
const CLOUD_ID: u64 = 1;
const EDGE_ID_BASE: u64 = 100;
const CLIENT_ID_BASE: u64 = 1000;
const CLIENT_PEER: u8 = 0;

/// Where a routed message goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Node {
    Client(usize),
    Edge(usize),
    Cloud,
}

/// What the engine pass measured.
#[derive(Default)]
pub struct EngineOut {
    /// Spans of the measured replay (set-up writes are not traced).
    pub spans: Vec<crate::trace::Span>,
    pub puts: u64,
    pub gets: u64,
    /// Gets whose value disagreed with the acknowledged writes, puts
    /// with no receipt, and reads whose proof failed.
    pub failed: u64,
    pub blocks_certified: u64,
    pub interior_hashes: u64,
    pub leaf_hashes: u64,
    pub cache_misses: u64,
    /// Encoded payload bytes (TCP workloads only).
    pub edge_to_cloud_bytes: u64,
    pub cloud_to_edge_bytes: u64,
    /// Get requests plus get responses.
    pub client_edge_get_bytes: u64,
}

struct Replay {
    tcp: bool,
    batch_size: usize,
    epoch: Instant,
    clients: Vec<ClientEngine>,
    edges: Vec<EdgeEngine<u8>>,
    cloud: CloudEngine<usize>,
    cache: Arc<ShardedReadProofCache>,
    queue: VecDeque<(Node, Node, WireMsg)>,
    buf: Vec<u8>,
    tracer: Option<Tracer>,
    models: Vec<AckModel>,
    /// Buffered puts per edge (client-side batching, as `PutBatcher`).
    buffered: Vec<Writes>,
    /// Sealed batches awaiting their Phase-I receipt, by token.
    in_flight: HashMap<u64, (usize, Writes)>,
    /// Gets awaiting completion, by token.
    reads: HashMap<u64, (usize, u64)>,
    next_token: u64,
    out: EngineOut,
    /// The op and root span the current calls are charged to.
    cur: (u64, u64),
}

fn edge_cmd_name(cmd: &EdgeCommand<u8>) -> &'static str {
    match cmd {
        EdgeCommand::BatchAdd { .. } => "edge.BatchAdd",
        EdgeCommand::LogRead { .. } => "edge.LogRead",
        EdgeCommand::Get { .. } => "edge.Get",
        EdgeCommand::BlockProof(_) => "edge.BlockProof",
        EdgeCommand::MergeResult(_) => "edge.MergeResult",
        EdgeCommand::MergeResultDelta(_) => "edge.MergeResultDelta",
        EdgeCommand::MergeReqResend { .. } => "edge.MergeReqResend",
        EdgeCommand::CertRejected { .. } => "edge.CertRejected",
        EdgeCommand::GlobalRefresh(_) => "edge.GlobalRefresh",
        EdgeCommand::Gossip(_) => "edge.Gossip",
        EdgeCommand::Tick => "edge.Tick",
    }
}

fn cloud_cmd_name(cmd: &CloudCommand<usize>) -> &'static str {
    match cmd {
        CloudCommand::Certify { .. } => "cloud.Certify",
        CloudCommand::Merge { .. } => "cloud.Merge",
        CloudCommand::MergeDelta { .. } => "cloud.MergeDelta",
        CloudCommand::Dispute { .. } => "cloud.Dispute",
        CloudCommand::Tick => "cloud.Tick",
    }
}

fn client_cmd_name(cmd: &ClientCommand) -> &'static str {
    match cmd {
        ClientCommand::Start => "client.Start",
        ClientCommand::PutBatch { .. } => "client.PutBatch",
        ClientCommand::Get { .. } => "client.Get",
        ClientCommand::LogRead { .. } => "client.LogRead",
        ClientCommand::AddResponse(_) => "client.AddResponse",
        ClientCommand::BlockProof(_) => "client.BlockProof",
        ClientCommand::GetResponse { .. } => "client.GetResponse",
        ClientCommand::Gossip(_) => "client.Gossip",
        ClientCommand::LogReadResponse { .. } => "client.LogReadResponse",
        ClientCommand::Verdict(_) => "client.Verdict",
        ClientCommand::Tick => "client.Tick",
    }
}

impl Replay {
    fn new(spec: &Spec, seed: u64) -> Replay {
        let lsm = LsmConfig::paper_eval();
        let cloud_ident = Identity::derive("cloud", CLOUD_ID);
        let edge_idents: Vec<Identity> =
            (0..EDGES).map(|p| Identity::derive("edge", EDGE_ID_BASE + p as u64)).collect();
        let client_idents: Vec<Identity> =
            (0..EDGES).map(|p| Identity::derive("client", CLIENT_ID_BASE + p as u64)).collect();
        let mut registry = KeyRegistry::new();
        registry.register(cloud_ident.id, cloud_ident.public()).expect("fresh registry");
        for ident in edge_idents.iter().chain(&client_idents) {
            registry.register(ident.id, ident.public()).expect("distinct ids");
        }
        let mut index = CloudIndex::new(lsm.clone());
        index.set_pool(wedge_pool::Pool::new(1));
        let inits: Vec<_> =
            edge_idents.iter().map(|e| index.init_edge(&cloud_ident, e.id, 0)).collect();
        let edge_ids: Vec<_> = edge_idents.iter().map(|e| e.id).collect();
        let cloud_id = cloud_ident.id;
        let cost = CostModel::default();
        let cloud = CloudEngine::new(
            cloud_ident,
            registry.clone(),
            cost.clone(),
            index,
            (0..EDGES).map(|p| (p, edge_ids[p])).collect(),
            None,
        );
        let edges = edge_idents
            .into_iter()
            .enumerate()
            .map(|(p, ident)| {
                let tree = LsMerkle::new(ident.id, lsm.clone(), inits[p].clone());
                let mut e = EdgeEngine::new(
                    ident,
                    cloud_id,
                    registry.clone(),
                    cost.clone(),
                    CryptoMode::Real,
                    FaultPlan::default(),
                    tree,
                    vec![CLIENT_PEER],
                );
                e.set_pool(wedge_pool::Pool::new(1));
                e
            })
            .collect();
        let cache = Arc::new(ShardedReadProofCache::default());
        let clients = client_idents
            .into_iter()
            .enumerate()
            .map(|(p, ident)| {
                let mut c = ClientEngine::new(
                    ident,
                    edge_ids[p],
                    cloud_id,
                    registry.clone(),
                    cost.clone(),
                    CryptoMode::Real,
                    ClientPlan::idle(),
                    None,
                    Duration::from_secs(30).as_nanos() as u64,
                    seed,
                );
                c.set_pipeline_depth(PIPELINE_DEPTH);
                c.share_proof_cache(Arc::clone(&cache));
                c
            })
            .collect();
        Replay {
            tcp: spec.runtime == Runtime::Tcp,
            batch_size: spec.batch_size,
            epoch: Instant::now(),
            clients,
            edges,
            cloud,
            cache,
            queue: VecDeque::new(),
            buf: Vec::new(),
            tracer: None,
            models: vec![AckModel::default(); EDGES],
            buffered: vec![Vec::new(); EDGES],
            in_flight: HashMap::new(),
            reads: HashMap::new(),
            next_token: 0,
            out: EngineOut::default(),
            cur: (0, 0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` as a span `name` under the current op.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let start = Instant::now();
        let out = f(self);
        let (op, root) = self.cur;
        if let Some(t) = &mut self.tracer {
            t.record(name, op, root, start, Instant::now());
        }
        out
    }

    /// Sends `msg` from `from` to `to`: on TCP workloads it crosses the
    /// wire codec first, as the socket runtime's hops do.
    fn send(&mut self, from: Node, to: Node, msg: WireMsg) {
        let msg = if self.tcp {
            let mut buf = std::mem::take(&mut self.buf);
            self.span("wire.encode", |_| msg.encode_payload_into(&mut buf));
            let len = buf.len() as u64;
            match (from, to) {
                (Node::Edge(_), Node::Cloud) => self.out.edge_to_cloud_bytes += len,
                (Node::Cloud, Node::Edge(_)) => self.out.cloud_to_edge_bytes += len,
                _ => {}
            }
            if matches!(msg, WireMsg::Get { .. } | WireMsg::GetResponse { .. }) {
                self.out.client_edge_get_bytes += len;
            }
            let kind = msg.kind();
            let decoded = self.span("wire.decode", |_| WireMsg::decode_payload(kind, &buf));
            self.buf = buf;
            decoded.expect("an encoded message decodes")
        } else {
            msg
        };
        self.queue.push_back((from, to, msg));
    }

    /// Delivers queued messages until the system is quiet.
    fn pump(&mut self) {
        while let Some((from, to, msg)) = self.queue.pop_front() {
            match to {
                Node::Edge(p) => {
                    let Some(cmd) = EdgeCommand::from_wire(CLIENT_PEER, msg) else { continue };
                    let now = self.now_ns();
                    let effects = self.span(edge_cmd_name(&cmd), |r| r.edges[p].handle(cmd, now));
                    for e in effects {
                        match e {
                            EdgeEffect::Send { msg, .. } => {
                                self.send(Node::Edge(p), Node::Client(p), msg)
                            }
                            EdgeEffect::SendCloud { msg, .. } => {
                                self.send(Node::Edge(p), Node::Cloud, msg)
                            }
                            EdgeEffect::UseCpu(_) | EdgeEffect::UseCpuBackground(_) => {}
                        }
                    }
                }
                Node::Cloud => {
                    let peer = match from {
                        Node::Edge(p) => p,
                        Node::Client(p) => EDGES + p,
                        Node::Cloud => continue,
                    };
                    let Some(cmd) = CloudCommand::from_wire(peer, msg) else { continue };
                    let now = self.now_ns();
                    let effects = self.span(cloud_cmd_name(&cmd), |r| r.cloud.handle(cmd, now));
                    for e in effects {
                        if let CloudEffect::Send { to, msg, .. } = e {
                            let dest =
                                if to < EDGES { Node::Edge(to) } else { Node::Client(to - EDGES) };
                            self.send(Node::Cloud, dest, msg);
                        }
                    }
                }
                Node::Client(p) => {
                    let Some(cmd) = ClientCommand::from_wire(msg) else { continue };
                    self.client(p, cmd);
                }
            }
        }
    }

    fn client(&mut self, p: usize, cmd: ClientCommand) {
        let now = self.now_ns();
        let effects = self.span(client_cmd_name(&cmd), |r| r.clients[p].handle(cmd, now));
        for e in effects {
            match e {
                ClientEffect::SendEdge { msg, .. } => {
                    self.send(Node::Client(p), Node::Edge(p), msg)
                }
                ClientEffect::SendCloud { msg, .. } => self.send(Node::Client(p), Node::Cloud, msg),
                ClientEffect::Notify(ev) => self.event(ev),
                ClientEffect::UseCpu(_) => {}
            }
        }
    }

    fn event(&mut self, ev: ClientEvent) {
        match ev {
            ClientEvent::Phase1 { token, .. } => {
                if let Some((edge, ops)) = self.in_flight.remove(&token) {
                    for (key, value) in ops {
                        self.models[edge].ack(edge, key, value);
                    }
                }
            }
            ClientEvent::Phase2 { .. } => self.out.blocks_certified += 1,
            ClientEvent::ReadDone { token, outcome } => {
                if let Some((edge, key)) = self.reads.remove(&token) {
                    let ok = outcome.verify_error.is_none()
                        && self.models[edge].check(edge, key, outcome.value.as_deref());
                    if !ok {
                        self.out.failed += 1;
                    }
                }
            }
            ClientEvent::BatchFailed { token } => {
                if let Some((_, ops)) = self.in_flight.remove(&token) {
                    self.out.failed += ops.len() as u64;
                }
            }
            ClientEvent::Verdict(_) | ClientEvent::Halted => self.out.failed += 1,
        }
    }

    fn seal(&mut self, edge: usize) {
        let ops = std::mem::take(&mut self.buffered[edge]);
        if ops.is_empty() {
            return;
        }
        let token = self.next_token;
        self.next_token += 1;
        self.in_flight.insert(token, (edge, ops.clone()));
        self.client(edge, ClientCommand::PutBatch { token, ops });
        self.pump();
    }

    fn op(&mut self, edge: usize, op: &Op) {
        let start = Instant::now();
        if let Some(t) = &mut self.tracer {
            // The root span is recorded at the end; reserve its id now
            // so children can name it.
            let root = t.record("op", op.id, 0, start, start);
            self.cur = (op.id, root);
        }
        match op.kind {
            Kind::Put => {
                self.out.puts += 1;
                self.buffered[edge].push((op.key, op.value.clone()));
                if self.buffered[edge].len() >= self.batch_size {
                    self.seal(edge);
                }
            }
            Kind::Get => {
                self.out.gets += 1;
                let token = self.next_token;
                self.next_token += 1;
                self.reads.insert(token, (edge, op.key));
                self.client(edge, ClientCommand::Get { token, key: op.key });
                self.pump();
            }
        }
        if let Some(t) = &mut self.tracer {
            let end = t.at(Instant::now());
            let root = self.cur.1;
            if let Some(s) = t.spans.iter_mut().rev().find(|s| s.id == root) {
                s.end_ns = end;
            }
        }
    }

    /// Replays per-edge op lists, interleaved in due-time order.
    fn replay(&mut self, sched: &[Vec<Op>]) {
        let mut all: Vec<(usize, &Op)> =
            sched.iter().enumerate().flat_map(|(e, ops)| ops.iter().map(move |o| (e, o))).collect();
        all.sort_by_key(|(e, o)| (o.due_ns, *e));
        for (edge, op) in all {
            self.op(edge, op);
        }
        for edge in 0..EDGES {
            self.seal(edge);
        }
    }
}

/// Replays `preload` untraced, then `sched` traced, and returns the
/// traced replay's spans and counters.
pub fn run(spec: &Spec, seed: u64, preload: &[Vec<Op>], sched: &[Vec<Op>]) -> EngineOut {
    let mut r = Replay::new(spec, seed);
    r.replay(preload);
    let failed_in_setup = r.out.failed;
    r.out = EngineOut { failed: failed_in_setup, ..EngineOut::default() };
    let misses0 = r.cache.misses();
    let (int0, leaf0) = (hash_stats::interior_hashes(), hash_stats::leaf_hashes());
    r.tracer = Some(Tracer::new(r.epoch, 100));
    r.replay(sched);
    let mut out = std::mem::take(&mut r.out);
    out.failed += r.in_flight.len() as u64 + r.reads.len() as u64;
    out.interior_hashes = hash_stats::interior_hashes() - int0;
    out.leaf_hashes = hash_stats::leaf_hashes() - leaf0;
    out.cache_misses = r.cache.misses() - misses0;
    out.spans = r.tracer.take().map(|t| t.spans).unwrap_or_default();
    out
}
