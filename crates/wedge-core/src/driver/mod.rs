//! The real-time driver: one cluster of service threads around the
//! sans-IO engines, generic over the [`Link`] that carries messages
//! between them.
//!
//! [`Cluster`] owns everything that does not depend on how a message
//! travels: the config and the report, the three bounded-inbox service
//! loops (edge, cloud, client), the caller API (`put_on`, `get_on`, …)
//! and the one cloud→edge backpressure policy. A link only queues a
//! [`WireMsg`](crate::messages::WireMsg) toward its peer and flushes.
//! Two links exist:
//!
//! - [`MemLink`] (here): moves the message into the peer's inbox
//!   without encoding it — `wedge_core::threaded::ThreadedCluster`;
//! - `wedge_net::TcpLink`: frames the message onto a loopback socket
//!   — `wedge_net::NetCluster`.
//!
//! This module also holds the service loops' helpers:
//!
//! - `ClientCompletions` — caller-reply bookkeeping around a
//!   [`ClientEngine`]: queued batches draining into pipeline slots,
//!   Phase-I/Phase-II/read completion channels, dispute verdicts;
//! - `PutBatcher` — caller-side batching per partition;
//! - `recv_until` / `elapsed_ns` — the deadline-into-receive-timeout
//!   discipline every service loop uses to consume
//!   `next_deadline_ns()`.

mod cluster;
mod gate;
mod link;

pub use cluster::{Cluster, ClusterConfig, ClusterReport, EdgeRunReport, PutShed};
pub use link::{Endpoint, Link, LinkStats, MemLink, Sink};

use crate::engine::{ClientCommand, ClientEffect, ClientEngine, ClientEvent, GetOutcome};
use crate::messages::{AddReceipt, DisputeVerdict, WireMsg};
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::PoisonError;
use std::time::{Duration, Instant};
use wedge_log::{BlockId, BlockProof};

/// A batch of caller-submitted KV puts, pre-signing (sequence numbers
/// are assigned by the client engine, on its service thread).
pub type PutOps = Vec<(u64, Vec<u8>)>;

/// Reply to a driver-level put: the Phase-I receipt plus a channel
/// that later yields the Phase-II proof.
pub struct PutReply {
    /// The edge's signed Phase-I promise.
    pub receipt: AddReceipt,
    /// Resolves once the cloud certifies the block (never, if the
    /// edge withholds certification — that is what disputes are for).
    pub certified: Receiver<BlockProof>,
}

/// Nanoseconds since the runtime's epoch (its wall-clock zero).
fn elapsed_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// What one service-inbox wait produced.
enum Inbox<T> {
    /// A message arrived.
    Msg(T),
    /// The engine's deadline passed first: time to `Tick`.
    Deadline,
    /// Every sender is gone: the service should exit.
    Disconnected,
}

/// Blocks on a service inbox until a message arrives, the engine's
/// deadline passes, or the channel disconnects.
fn recv_until<T>(rx: &Receiver<T>, deadline_ns: Option<u64>, epoch: Instant) -> Inbox<T> {
    match deadline_ns {
        Some(d) => {
            let timeout = Duration::from_nanos(d.saturating_sub(elapsed_ns(epoch)));
            match rx.recv_timeout(timeout) {
                Ok(m) => Inbox::Msg(m),
                Err(RecvTimeoutError::Timeout) => Inbox::Deadline,
                Err(RecvTimeoutError::Disconnected) => Inbox::Disconnected,
            }
        }
        None => match rx.recv() {
            Ok(m) => Inbox::Msg(m),
            Err(_) => Inbox::Disconnected,
        },
    }
}

/// Caller-side batching per partition: accumulates puts until a batch
/// fills, then hands the ops to the runtime's submit function and
/// blocks on the Phase-I reply. Shared by every driver so the
/// batching/submission semantics (and the failure contract of the
/// reply channel) stay identical across transports.
struct PutBatcher {
    batchers: Vec<std::sync::Mutex<PutOps>>,
    batch_size: usize,
}

impl PutBatcher {
    /// One batcher per partition; `batch_size` is clamped to ≥ 1.
    pub fn new(partitions: usize, batch_size: usize) -> Self {
        PutBatcher {
            batchers: (0..partitions).map(|_| std::sync::Mutex::new(Vec::new())).collect(),
            batch_size: batch_size.max(1),
        }
    }

    /// Buffers one put; once the batch fills, submits it (under the
    /// batcher lock, so batches enqueue in submission order) and waits
    /// for Phase I. Returns `None` while buffering.
    pub fn put(
        &self,
        partition: usize,
        key: u64,
        value: Vec<u8>,
        submit: impl FnOnce(PutOps) -> Receiver<PutReply>,
    ) -> Option<PutReply> {
        self.put_submit(partition, key, value, submit).and_then(Self::await_phase1)
    }

    /// The buffering/submission half of [`PutBatcher::put`] without
    /// the blocking Phase-I wait: returns the reply channel when the
    /// put sealed a batch, so callers can apply their own admission
    /// policy (timeout, fail-fast) instead of waiting forever.
    pub fn put_submit(
        &self,
        partition: usize,
        key: u64,
        value: Vec<u8>,
        submit: impl FnOnce(PutOps) -> Receiver<PutReply>,
    ) -> Option<Receiver<PutReply>> {
        // Poison recovery: the batcher holds plain data (a Vec of
        // pending ops); a caller thread that panicked elsewhere must
        // not wedge every other writer on this partition.
        let mut pending = self.batchers[partition].lock().unwrap_or_else(PoisonError::into_inner);
        pending.push((key, value));
        (pending.len() >= self.batch_size).then(|| submit(std::mem::take(&mut *pending)))
    }

    /// Flushes the partition's buffered entries as a partial batch.
    pub fn flush(
        &self,
        partition: usize,
        submit: impl FnOnce(PutOps) -> Receiver<PutReply>,
    ) -> Option<PutReply> {
        let rx = {
            let mut pending =
                self.batchers[partition].lock().unwrap_or_else(PoisonError::into_inner);
            (!pending.is_empty()).then(|| submit(std::mem::take(&mut *pending)))
        };
        rx.and_then(Self::await_phase1)
    }

    /// Blocks until the batch's Phase-I reply arrives. `None` means
    /// the reply channel closed first: the edge rejected the batch or
    /// went unresponsive past the dispute timeout — a protocol
    /// failure the caller observes, never a panic in the put path.
    pub fn await_phase1(rx: Receiver<PutReply>) -> Option<PutReply> {
        rx.recv().ok()
    }
}

/// Caller-completion routing around a [`ClientEngine`]: every runtime
/// pairs one of these with its client service loop. The transport
/// appears only as the two send sinks passed to [`run`] /
/// [`pump_puts`].
///
/// [`run`]: ClientCompletions::run
/// [`pump_puts`]: ClientCompletions::pump_puts
#[derive(Default)]
struct ClientCompletions {
    next_token: u64,
    /// Caller-submitted batches not yet handed to the engine; drains
    /// eagerly into every free pipeline slot.
    queued_puts: VecDeque<(PutOps, SyncSender<PutReply>)>,
    put_waiters: HashMap<u64, SyncSender<PutReply>>,
    get_waiters: HashMap<u64, SyncSender<GetOutcome>>,
    proof_waiters: HashMap<BlockId, SyncSender<BlockProof>>,
    verdicts: Vec<DisputeVerdict>,
}

impl ClientCompletions {
    /// Empty state: no waiters, no verdicts.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a caller-submitted batch; [`pump_puts`] hands it to the
    /// engine once a pipeline slot frees.
    ///
    /// [`pump_puts`]: ClientCompletions::pump_puts
    pub fn queue_put(&mut self, ops: PutOps, reply: SyncSender<PutReply>) {
        self.queued_puts.push_back((ops, reply));
    }

    /// Registers a caller's get reply channel, returning the token to
    /// put on the [`ClientCommand::Get`].
    pub fn register_get(&mut self, reply: SyncSender<GetOutcome>) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        self.get_waiters.insert(token, reply);
        token
    }

    /// The dispute verdicts received so far, surrendered at shutdown.
    pub fn into_verdicts(self) -> Vec<DisputeVerdict> {
        self.verdicts
    }

    /// Runs one command through the engine, routing wire sends to the
    /// transport sinks and completions back to callers.
    pub fn run(
        &mut self,
        engine: &mut ClientEngine,
        cmd: ClientCommand,
        now_ns: u64,
        send_edge: &mut dyn FnMut(WireMsg),
        send_cloud: &mut dyn FnMut(WireMsg),
    ) {
        for effect in engine.handle(cmd, now_ns) {
            match effect {
                ClientEffect::SendEdge { msg, .. } => send_edge(msg),
                ClientEffect::SendCloud { msg, .. } => send_cloud(msg),
                ClientEffect::Notify(event) => self.notify(event),
                // CPU accounting has no real-time counterpart.
                ClientEffect::UseCpu(_) => {}
            }
        }
    }

    /// Hands queued batches to the engine while pipeline slots remain
    /// (depth 1 degenerates to strict one-at-a-time submission).
    pub fn pump_puts(
        &mut self,
        engine: &mut ClientEngine,
        now_ns: u64,
        send_edge: &mut dyn FnMut(WireMsg),
        send_cloud: &mut dyn FnMut(WireMsg),
    ) {
        while engine.can_accept_batch() {
            let Some((ops, reply)) = self.queued_puts.pop_front() else { break };
            let token = self.next_token;
            self.next_token += 1;
            self.put_waiters.insert(token, reply);
            self.run(engine, ClientCommand::PutBatch { token, ops }, now_ns, send_edge, send_cloud);
        }
    }

    fn notify(&mut self, event: ClientEvent) {
        match event {
            ClientEvent::Phase1 { token, receipt } => {
                if let Some(reply) = self.put_waiters.remove(&token) {
                    // Single-shot: exactly one proof ever rides this
                    // channel, so the rendezvous send cannot block.
                    let (ptx, prx) = sync_channel(1);
                    self.proof_waiters.insert(receipt.bid, ptx);
                    // lint:allow(discarded-result): caller dropped its reply receiver (admission shed or abandoned put); a closed reply channel is the failure signal itself
                    let _ = reply.send(PutReply { receipt, certified: prx });
                }
            }
            ClientEvent::Phase2 { proof } => {
                if let Some(tx) = self.proof_waiters.remove(&proof.bid) {
                    // lint:allow(discarded-result): caller stopped waiting for certification; the proof still lives in the engine's log for audits
                    let _ = tx.send(proof);
                }
            }
            ClientEvent::ReadDone { token, outcome } => {
                if let Some(tx) = self.get_waiters.remove(&token) {
                    // lint:allow(discarded-result): caller abandoned the get; dropping the outcome changes no protocol state
                    let _ = tx.send(outcome);
                }
            }
            ClientEvent::Verdict(verdict) => self.verdicts.push(verdict),
            ClientEvent::BatchFailed { token } => {
                // Drop the reply sender: the caller observes a closed
                // channel instead of hanging behind a dead batch, and
                // the engine slot is free for the next queued batch.
                self.put_waiters.remove(&token);
            }
            ClientEvent::Halted => {}
        }
    }
}

#[cfg(test)]
#[path = "../../tests/scenarios/mod.rs"]
pub(crate) mod scenarios;
