//! Links: how a [`WireMsg`] crosses from one cluster service to
//! another.
//!
//! The cluster wires its topology as bidirectional pairs (client p ↔
//! edge p, edge p ↔ cloud, client p ↔ cloud). For each pair it hands
//! the link one [`Sink`] per direction — the receiving service's inbox
//! with that direction's delivery policy — and gets back one sending
//! half per direction. Services queue onto their halves while they
//! handle a batch and flush once per wakeup.

use super::cluster::{ClientIn, CloudIn, EdgeIn};
use super::gate::CloudGate;
use crate::messages::WireMsg;
use std::sync::mpsc::{Sender, SyncSender};
use std::sync::Arc;

/// A service in the cluster topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// The cloud service.
    Cloud,
    /// Partition `p`'s edge service.
    Edge(usize),
    /// Partition `p`'s client service.
    Client(usize),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Cloud => write!(f, "cloud"),
            Endpoint::Edge(p) => write!(f, "edge{p}"),
            Endpoint::Client(p) => write!(f, "client{p}"),
        }
    }
}

/// The receiving end of one link direction: hands a carried message
/// to the receiving service's inbox under that direction's policy.
#[derive(Clone)]
pub struct Sink(Route);

#[derive(Clone)]
pub(super) enum Route {
    /// Into the cloud's bounded inbox as peer `peer` (edges `0..E`,
    /// clients `E..2E`). Blocks while the inbox is full: backpressure
    /// onto the sending edge or client.
    Cloud { tx: SyncSender<CloudIn>, peer: usize },
    /// Client → edge. Blocks while the edge inbox is full.
    Edge(SyncSender<EdgeIn>),
    /// Cloud → edge, through the gate. Never blocks.
    EdgeGate(Arc<CloudGate>),
    /// Edge or cloud → client. The client inbox is unbounded.
    Client(Sender<ClientIn>),
}

impl Sink {
    pub(super) fn new(route: Route) -> Self {
        Sink(route)
    }

    /// Delivers `msg`. Returns `false` once the receiving service is
    /// gone (the cluster is shutting down).
    pub fn deliver(&self, msg: WireMsg) -> bool {
        match &self.0 {
            Route::Cloud { tx, peer } => tx.send(CloudIn::From { peer: *peer, msg }).is_ok(),
            Route::Edge(tx) => tx.send(EdgeIn::FromClient(msg)).is_ok(),
            Route::EdgeGate(gate) => gate.deliver(msg),
            Route::Client(tx) => tx.send(ClientIn::Wire(msg)).is_ok(),
        }
    }
}

/// What a link counted about the frames it sent (all zero on a link
/// that sends no frames).
#[derive(Clone, Debug, Default)]
pub struct LinkStats {
    /// Frames refused or lost, summed over every connection.
    pub failed_sends: u64,
    /// Per-connection breakdown of `failed_sends` (non-zero entries
    /// only), labelled `sender→receiver`.
    pub failed_sends_by_peer: Vec<(String, u64)>,
    /// Frames that reached a socket.
    pub frames_sent: u64,
    /// Writes that carried those frames.
    pub frame_writes: u64,
}

/// How messages travel between the cluster's services. A value of the
/// type is one sending half: it queues a [`WireMsg`] toward its peer
/// and flushes. `Net` is the state the whole link keeps until the
/// cluster shuts down.
pub trait Link: Send + Sized + 'static {
    /// Link-wide state: listeners, reader threads, counters.
    type Net: Send + Sync;
    /// Prefix of every service thread's name (`{prefix}cloud`,
    /// `{prefix}edge-{p}`, `{prefix}client-{p}`).
    const THREAD_PREFIX: &'static str;

    /// Opens the link before any pair is connected.
    fn open() -> Self::Net;
    /// Connects `a` with `b` in both directions; messages for `a` go to
    /// `to_a`, for `b` to `to_b`. Returns the `a→b` and `b→a` halves.
    fn pair(net: &mut Self::Net, a: Endpoint, to_a: Sink, b: Endpoint, to_b: Sink) -> (Self, Self);
    /// Queues one message toward the peer.
    fn queue(&mut self, msg: WireMsg);
    /// Sends everything queued since the last flush.
    fn flush(&mut self);
    /// Stops what the link runs once every service has exited, and
    /// reports what it counted.
    fn close(net: &mut Self::Net) -> LinkStats;
}

/// The in-process link: `queue` moves the message straight into the
/// peer's inbox — no encoding, no copy — so `flush` has nothing to do.
pub struct MemLink(Sink);

impl Link for MemLink {
    type Net = ();
    const THREAD_PREFIX: &'static str = "wedge-";

    fn open() {}

    fn pair(_: &mut (), _: Endpoint, to_a: Sink, _: Endpoint, to_b: Sink) -> (Self, Self) {
        (MemLink(to_b), MemLink(to_a))
    }

    fn queue(&mut self, msg: WireMsg) {
        // A closed inbox means that service already took its Shutdown;
        // the sender sees its own Shutdown next.
        self.0.deliver(msg);
    }

    fn flush(&mut self) {}

    fn close(_: &mut ()) -> LinkStats {
        LinkStats::default()
    }
}
