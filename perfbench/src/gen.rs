//! The open-loop generator: one thread per edge replays that edge's
//! schedule against a running cluster, timing every op from when it was
//! *due*, so a stall shows up in the latencies of the ops queued behind
//! it rather than slowing the arrival process. A second thread per edge
//! only waits for that edge's certificates and timestamps them.

use crate::model::AckModel;
use crate::procfs::GEN_THREAD_PREFIX;
use crate::stats::Latencies;
use crate::target::Cluster;
use crate::trace::Tracer;
use crate::workload::{Kind, Op};
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};
use wedge_core::threaded::PutReply;
use wedge_log::BlockProof;

/// What one edge's generator thread measured.
#[derive(Default)]
pub struct EdgeOutcome {
    pub put: Latencies,
    pub certify: Latencies,
    pub get: Latencies,
    /// How late each op was issued relative to its due time.
    pub late: Latencies,
    pub attempted: u64,
    /// Puts acknowledged plus gets verified and correct.
    pub completed: u64,
    /// Puts whose batch drew no Phase-I reply.
    pub no_reply: u64,
    /// Acknowledged puts whose certificate did not arrive in time.
    pub uncertified: u64,
    /// Gets whose verified value disagreed with the acknowledged writes.
    pub wrong: u64,
    /// Gets whose proof failed verification.
    pub rejected: u64,
    /// Time of the last Phase-I reply or get completion.
    pub last_done: Option<Instant>,
    pub tracer: Option<Tracer>,
}

impl EdgeOutcome {
    pub fn failed(&self) -> u64 {
        self.no_reply + self.uncertified + self.wrong + self.rejected
    }

    /// Folds another edge's outcome into this one.
    pub fn merge(&mut self, o: EdgeOutcome) {
        self.put.extend(&o.put);
        self.certify.extend(&o.certify);
        self.get.extend(&o.get);
        self.late.extend(&o.late);
        self.attempted += o.attempted;
        self.completed += o.completed;
        self.no_reply += o.no_reply;
        self.uncertified += o.uncertified;
        self.wrong += o.wrong;
        self.rejected += o.rejected;
        self.last_done = self.last_done.max(o.last_done);
        if let Some(t) = o.tracer {
            match &mut self.tracer {
                Some(mine) => mine.spans.extend(t.spans),
                None => self.tracer = Some(t),
            }
        }
    }
}

/// A sealed batch waiting for its Phase-II certificate.
struct CertWait {
    rx: Receiver<BlockProof>,
    /// Due time of every put in the batch.
    dues: Vec<Instant>,
    /// The op whose call sealed the batch, and its root span.
    op: u64,
    span: u64,
    acked_at: Instant,
}

/// What the generator hands an edge's certificate receiver.
enum ToReceiver {
    Batch(CertWait),
    /// No more batches; what has not certified by then is uncertified.
    Drain(Instant),
}

/// What a certificate receiver measured.
struct Certs {
    certify: Latencies,
    uncertified: u64,
    tracer: Option<Tracer>,
}

/// How often a receiver waiting on a certificate looks for the drain
/// deadline while the generator is still issuing.
const RECEIVER_POLL: Duration = Duration::from_millis(50);

/// Receives one edge's certificates on a thread of its own, so each is
/// timed when it reaches the caller, never when the generator returns
/// from a blocking `put_on` or `get_on`. Batches arrive in seal order
/// and the cloud certifies one edge's blocks in that order, so waiting
/// on the oldest batch first delays no timestamp.
fn receive_certs(batches: Receiver<ToReceiver>, tracer: Option<Tracer>) -> Certs {
    let mut c = Certs { certify: Latencies::default(), uncertified: 0, tracer };
    let mut pending: VecDeque<CertWait> = VecDeque::new();
    let mut deadline: Option<Instant> = None;
    let absorb = |m, pending: &mut VecDeque<CertWait>, deadline: &mut Option<Instant>| match m {
        ToReceiver::Batch(w) => pending.push_back(w),
        ToReceiver::Drain(d) => *deadline = Some(d),
    };
    loop {
        while let Ok(m) = batches.try_recv() {
            absorb(m, &mut pending, &mut deadline);
        }
        let Some(front) = pending.front() else {
            if deadline.is_some() {
                break;
            }
            match batches.recv() {
                Ok(m) => absorb(m, &mut pending, &mut deadline),
                Err(_) => break,
            }
            continue;
        };
        let wait = deadline.map_or(RECEIVER_POLL, |d| d.saturating_duration_since(Instant::now()));
        match front.rx.recv_timeout(wait) {
            Ok(_) => {
                let at = Instant::now();
                let w = pending.pop_front().expect("front exists");
                for due in &w.dues {
                    c.certify.push(at.saturating_duration_since(*due).as_nanos() as u64);
                }
                if let Some(t) = &mut c.tracer {
                    t.record("gen.certified", w.op, w.span, w.acked_at, at);
                }
            }
            Err(RecvTimeoutError::Timeout) if deadline.is_some_and(|d| Instant::now() >= d) => {
                c.uncertified += pending.drain(..).map(|w| w.dues.len() as u64).sum::<u64>();
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                let w = pending.pop_front().expect("front exists");
                c.uncertified += w.dues.len() as u64;
            }
        }
    }
    c
}

/// One edge's replay state.
struct EdgeGen<'a> {
    cluster: &'a Cluster,
    edge: usize,
    batch_size: usize,
    model: &'a mut AckModel,
    out: EdgeOutcome,
    /// Puts buffered client-side, not yet in a sealed batch.
    buffered: Vec<(Instant, u64, Vec<u8>)>,
    certs: Sender<ToReceiver>,
}

impl EdgeGen<'_> {
    fn note_done(&mut self, t: Instant) {
        self.out.last_done = self.out.last_done.max(Some(t));
    }

    /// Settles the buffered puts with the reply of the call that
    /// sealed them.
    fn settle_batch(&mut self, reply: Option<PutReply>, op: u64, span: u64, at: Instant) {
        let batch = std::mem::take(&mut self.buffered);
        let Some(reply) = reply else {
            for (_, key, _) in batch {
                self.out.no_reply += 1;
                self.model.lost(self.edge, key);
            }
            return;
        };
        let mut dues = Vec::with_capacity(batch.len());
        for (due, key, value) in batch {
            self.out.put.push(at.saturating_duration_since(due).as_nanos() as u64);
            self.out.completed += 1;
            self.model.ack(self.edge, key, value);
            dues.push(due);
        }
        self.note_done(at);
        let wait = CertWait { rx: reply.certified, dues, op, span, acked_at: at };
        if let Err(e) = self.certs.send(ToReceiver::Batch(wait)) {
            // The receiver is gone only if it panicked; its batch can
            // no longer certify.
            if let ToReceiver::Batch(w) = e.0 {
                self.out.uncertified += w.dues.len() as u64;
            }
        }
    }

    fn run_op(&mut self, op: &Op, due: Instant) {
        let issued = Instant::now();
        self.out.late.push(issued.saturating_duration_since(due).as_nanos() as u64);
        self.out.attempted += 1;
        match op.kind {
            Kind::Put => {
                self.buffered.push((due, op.key, op.value.clone()));
                let seals = self.buffered.len() >= self.batch_size;
                let reply = self.cluster.put_on(self.edge, op.key, op.value.clone());
                let done = Instant::now();
                let span = self.trace_call("gen.put_on", op.id, issued, done, due);
                if seals {
                    self.settle_batch(reply, op.id, span, done);
                }
            }
            Kind::Get => {
                let res = self.cluster.get_on(self.edge, op.key);
                let done = Instant::now();
                self.trace_call("gen.get_on", op.id, issued, done, due);
                match res {
                    Ok(out) if self.model.check(self.edge, op.key, out.value.as_deref()) => {
                        self.out.get.push(done.saturating_duration_since(due).as_nanos() as u64);
                        self.out.completed += 1;
                        self.note_done(done);
                    }
                    Ok(_) => self.out.wrong += 1,
                    Err(_) => self.out.rejected += 1,
                }
            }
        }
    }

    /// Records an op's root span (due → done) and the call inside it;
    /// returns the root span's id (0 when untraced).
    fn trace_call(
        &mut self,
        name: &'static str,
        op: u64,
        start: Instant,
        end: Instant,
        due: Instant,
    ) -> u64 {
        let Some(t) = &mut self.out.tracer else { return 0 };
        let root = t.record("op", op, 0, due, end);
        t.record(name, op, root, start, end);
        root
    }

    /// Seals a trailing partial batch.
    fn flush(&mut self, last_op: u64) {
        if self.buffered.is_empty() {
            return;
        }
        let start = Instant::now();
        let reply = self.cluster.flush_on(self.edge);
        let done = Instant::now();
        let span = match &mut self.out.tracer {
            Some(t) => t.record("gen.flush_on", last_op, 0, start, done),
            None => 0,
        };
        self.settle_batch(reply, last_op, span, done);
    }
}

/// Tracer lane of edge `edge`'s certificate receiver (the generator
/// threads use lanes `1..=EDGES`).
fn receiver_lane(edge: usize) -> u64 {
    64 + edge as u64
}

/// Replays `ops` (one edge's schedule, due times relative to `start`)
/// on `edge`, then seals any partial batch and waits up to `drain` for
/// the certificates, which a receiver thread of the edge collects
/// meanwhile. With `late_cap`, stops issuing once an op would start
/// more than that late. With `epoch`, records spans.
#[allow(clippy::too_many_arguments)]
pub fn run_edge(
    cluster: &Cluster,
    edge: usize,
    batch_size: usize,
    ops: &[Op],
    start: Instant,
    drain: Duration,
    late_cap: Option<Duration>,
    model: &mut AckModel,
    epoch: Option<Instant>,
) -> EdgeOutcome {
    let (tx, rx) = channel();
    let receiver_tracer = epoch.map(|e| Tracer::new(e, receiver_lane(edge)));
    let tracer = epoch.map(|e| Tracer::new(e, edge as u64 + 1));
    std::thread::scope(|s| {
        let receiver = std::thread::Builder::new()
            .name(format!("{GEN_THREAD_PREFIX}-cert-{edge}"))
            .spawn_scoped(s, move || receive_certs(rx, receiver_tracer))
            .expect("spawn certificate receiver");
        let mut g = EdgeGen {
            cluster,
            edge,
            batch_size,
            model,
            out: EdgeOutcome { tracer, ..EdgeOutcome::default() },
            buffered: Vec::new(),
            certs: tx,
        };
        for op in ops {
            let due = start + Duration::from_nanos(op.due_ns);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            // A probe far past capacity stops issuing once the generator
            // runs this late: the rest of its schedule counts as not done.
            if late_cap.is_some_and(|cap| Instant::now().saturating_duration_since(due) > cap) {
                break;
            }
            g.run_op(op, due);
        }
        g.flush(ops.last().map_or(0, |o| o.id));
        // A send fails only if the receiver panicked; the join says so.
        let _ = g.certs.send(ToReceiver::Drain(Instant::now() + drain));
        let certs = receiver.join().expect("certificate receiver");
        let mut out = g.out;
        out.certify = certs.certify;
        out.uncertified += certs.uncertified;
        if let (Some(mine), Some(theirs)) = (&mut out.tracer, certs.tracer) {
            mine.spans.extend(theirs.spans);
        }
        out
    })
}

/// Runs every edge's schedule on its own named generator thread and
/// merges the outcomes. Returns them with the schedule's start time.
pub fn run_all(
    cluster: &Cluster,
    batch_size: usize,
    sched: &[Vec<Op>],
    drain: Duration,
    late_cap: Option<Duration>,
    models: &mut [AckModel],
    epoch: Option<Instant>,
) -> (EdgeOutcome, Instant) {
    // A short lead lets every thread start before the first op is due.
    let start = Instant::now() + Duration::from_millis(20);
    let outcomes: Vec<EdgeOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = sched
            .iter()
            .zip(models.iter_mut())
            .enumerate()
            .map(|(edge, (ops, model))| {
                std::thread::Builder::new()
                    .name(format!("{GEN_THREAD_PREFIX}-{edge}"))
                    .spawn_scoped(s, move || {
                        run_edge(
                            cluster, edge, batch_size, ops, start, drain, late_cap, model, epoch,
                        )
                    })
                    .expect("spawn generator thread")
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("generator thread")).collect()
    });
    let mut all = EdgeOutcome::default();
    for o in outcomes {
        all.merge(o);
    }
    (all, start)
}
