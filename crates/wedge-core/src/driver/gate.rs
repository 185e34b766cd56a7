//! The cloud→edge backpressure gate: the one admission policy between
//! the cloud and an edge's bounded inbox.
//!
//! The cloud never blocks toward an edge: a blocking send could cycle
//! with an edge blocked on its own cloud send, and one slow edge must
//! not stall the rest of the cluster. When the edge inbox is full the
//! gate *sheds* droppable traffic (gossip and freshness refreshes,
//! which the next round re-issues) and *defers* everything else in
//! FIFO order. The edge service applies the deferred queue itself,
//! once no earlier cloud message is left in its inbox, so order holds
//! without a flusher thread or a retry timer.

use super::cluster::EdgeIn;
use crate::messages::WireMsg;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::{Mutex, PoisonError};

/// True for cloud→edge traffic that may be shed under backpressure:
/// the next gossip round re-issues it.
pub(super) fn droppable(msg: &WireMsg) -> bool {
    matches!(msg, WireMsg::Gossip(_) | WireMsg::GlobalRefresh(_))
}

/// One edge's gate, shared by whoever delivers cloud traffic to it
/// (the cloud service in process, a socket reader over TCP) and the
/// edge service.
pub(super) struct CloudGate {
    tx: SyncSender<EdgeIn>,
    /// Critical messages waiting for the edge, FIFO. Every delivery
    /// happens under this lock, so nothing overtakes a deferred
    /// message.
    deferred: Mutex<VecDeque<WireMsg>>,
    /// Cloud messages the gate put in the edge inbox that the edge has
    /// not applied yet. Only grows while nothing is deferred. Relaxed
    /// suffices: every increment happens under the `deferred` lock,
    /// which `release` also takes, and every decrement happens on the
    /// edge thread, the one that calls `release`.
    in_inbox: AtomicU64,
    pub(super) shed: AtomicU64,
    pub(super) deferred_total: AtomicU64,
}

impl CloudGate {
    pub(super) fn new(tx: SyncSender<EdgeIn>) -> Self {
        CloudGate {
            tx,
            deferred: Mutex::new(VecDeque::new()),
            in_inbox: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deferred_total: AtomicU64::new(0),
        }
    }

    /// Delivers one cloud message without blocking. Returns `false`
    /// once the edge is gone.
    pub(super) fn deliver(&self, msg: WireMsg) -> bool {
        // Poison recovery: the queue is plain data; a panic elsewhere
        // must not wedge cloud→edge traffic.
        let mut q = self.deferred.lock().unwrap_or_else(PoisonError::into_inner);
        if !q.is_empty() {
            self.queue_or_shed(&mut q, msg);
            return true;
        }
        self.in_inbox.fetch_add(1, Ordering::Relaxed);
        match self.tx.try_send(EdgeIn::FromCloud(msg)) {
            Ok(()) => true,
            Err(TrySendError::Full(back)) => {
                self.in_inbox.fetch_sub(1, Ordering::Relaxed);
                if let EdgeIn::FromCloud(msg) = back {
                    self.queue_or_shed(&mut q, msg);
                }
                true
            }
            Err(TrySendError::Disconnected(_)) => false,
        }
    }

    fn queue_or_shed(&self, q: &mut VecDeque<WireMsg>, msg: WireMsg) {
        if droppable(&msg) {
            self.shed.fetch_add(1, Ordering::Relaxed);
        } else {
            q.push_back(msg);
            self.deferred_total.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The edge applied one cloud message it took from its inbox.
    pub(super) fn applied(&self) {
        self.in_inbox.fetch_sub(1, Ordering::Relaxed);
    }

    /// The deferred messages the edge must apply now: all of them once
    /// every earlier cloud message is applied, none before. Emptying
    /// the queue reopens the inbox path, and later messages queue in
    /// the inbox behind these.
    pub(super) fn release(&self) -> VecDeque<WireMsg> {
        let mut q = self.deferred.lock().unwrap_or_else(PoisonError::into_inner);
        if self.in_inbox.load(Ordering::Relaxed) == 0 {
            std::mem::take(&mut *q)
        } else {
            VecDeque::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::sync_channel;
    use wedge_crypto::{sha256, Identity, IdentityId};
    use wedge_log::{BlockId, GossipWatermark};
    use wedge_lsmerkle::GlobalRootCert;

    #[test]
    fn gate_sheds_only_gossip_and_applies_deferred_in_order() {
        // A two-slot inbox and an edge that is not reading: the first
        // two messages land in the inbox, the rest hit the gate.
        let (tx, rx) = sync_channel(2);
        let gate = CloudGate::new(tx);
        let cloud = Identity::derive("cloud", 1);
        let gossip = |t| WireMsg::Gossip(GossipWatermark::issue(&cloud, IdentityId(100), t, t));
        let refresh = |t| {
            WireMsg::GlobalRefresh(GlobalRootCert::issue(
                &cloud,
                IdentityId(100),
                0,
                t,
                sha256(b""),
            ))
        };
        let cert = |i| WireMsg::CertRejected { bid: BlockId(i) };
        let sent = [cert(0), gossip(1), cert(1), refresh(2), cert(2), cert(3), gossip(3), cert(4)];
        for msg in sent.iter().cloned() {
            assert!(gate.deliver(msg));
        }
        // Inbox: cert 0, gossip 1. Gate: certs 1..=4 deferred, the
        // refresh and the later gossip shed.
        assert_eq!(gate.shed.load(Ordering::Relaxed), 2);
        assert_eq!(gate.deferred_total.load(Ordering::Relaxed), 4);

        // Drive the gate the way the edge service does: apply what the
        // inbox holds, then what the gate releases, and deliver more
        // cloud traffic in between.
        let mut applied = Vec::new();
        let take_inbox = |applied: &mut Vec<WireMsg>| {
            while let Ok(EdgeIn::FromCloud(msg)) = rx.try_recv() {
                gate.applied();
                applied.push(msg);
            }
        };
        // Nothing is released while an earlier message is unapplied.
        assert!(gate.release().is_empty());
        take_inbox(&mut applied);
        // This arrives after the deferred certs, so it queues behind them.
        assert!(gate.deliver(cert(5)));
        applied.extend(gate.release());
        assert!(gate.release().is_empty(), "released once");
        // The queue is empty again: the next message takes the inbox.
        assert!(gate.deliver(cert(6)));
        take_inbox(&mut applied);

        let want = [cert(0), gossip(1), cert(1), cert(2), cert(3), cert(4), cert(5), cert(6)];
        assert_eq!(applied, want, "every cloud message applied once, in cloud order");
        assert!(
            applied.iter().skip(2).all(|m| !droppable(m)),
            "only gossip and refreshes were shed"
        );
    }
}
