//! # wedge-net
//!
//! The TCP link for the WedgeChain cluster: the *same* cluster
//! ([`wedge_core::driver::Cluster`]) that runs in process, with every
//! protocol message crossing a real loopback socket. One cluster, two
//! links — [`wedge_core::driver::MemLink`] moves values between
//! inboxes, [`TcpLink`] frames bytes onto sockets — and one
//! backpressure policy, owned by the cluster. [`NetCluster`] is the
//! cluster over this link.
//!
//! Topology: one cloud node, `num_edges` edge nodes, and one client
//! node per edge, each a service thread in this process:
//!
//! ```text
//!   client p ──TCP──▶ edge p ──TCP──▶ cloud
//!       └─────────────TCP──────────────┘      (disputes, verdicts, gossip)
//! ```
//!
//! Every message on those connections is a [`WireMsg`] inside the
//! length-framed envelope of [`wedge_log::frame`] (magic, version,
//! type tag, guarded payload length) — the canonical byte format,
//! decoded with hostile-input checks on every hop. The caller surface
//! (`put_on`, `get_on`, …) stays in process: control commands have no
//! wire encoding.
//!
//! Each connection opens with a hello naming the dialing peer. Each
//! end then has one *reader thread* that blocks on
//! [`wedge_log::read_frame_into`], decodes, and hands the message to
//! the receiving service's inbox through the cluster's [`Sink`]: a
//! full bounded inbox stops the reader, and TCP flow control pushes
//! back on the writer — except toward an edge from the cloud, where
//! the cluster's gate never blocks. Writes come from the service
//! thread only: each frame is packed `[header | payload]` into the
//! link's scratch buffer, and every frame a service wakeup queues for
//! the same peer leaves in one `write_all` (`TCP_NODELAY` set) —
//! counted in [`NetReport::coalesced_frames`].

#![forbid(unsafe_code)]

use std::io::Write;
use std::net::{Shutdown as SockShutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use wedge_core::driver::{Cluster, ClusterConfig, ClusterReport, Endpoint, Link, LinkStats, Sink};
use wedge_core::messages::WireMsg;
use wedge_log::{read_frame, read_frame_into, write_frame, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD};

pub use wedge_core::engine::CloudStats;

/// A running N-edge + cloud cluster where every protocol message
/// crosses a real TCP socket on loopback.
pub type NetCluster = Cluster<TcpLink>;
/// Configuration for the socket cluster (the one [`ClusterConfig`]).
pub type NetConfig = ClusterConfig;
/// Final state of a socket run (the one [`ClusterReport`]).
pub type NetReport = ClusterReport;

/// Envelope kind of the one-shot connection hello (outside the
/// `WireMsg` tag space, which starts at 1 and stays below 0xF0).
const HELLO_KIND: u8 = 0xF0;

/// Connection roles announced in the hello.
const ROLE_EDGE: u8 = 0;
const ROLE_CLIENT: u8 = 1;
const ROLE_CLOUD: u8 = 2;

/// Per-connection send accounting. A send error is never thrown away
/// silently: the service degrades to message loss (retries and dispute
/// deadlines keep the protocol live), but the drop is *counted* per
/// peer and logged once per connection so an operator — and the run
/// report — can see the partition was starved. Also counts frames
/// packed vs writes issued.
struct SendTracker {
    /// `sender→receiver` label for logs and the report.
    peer: String,
    failed: AtomicU64,
    logged: AtomicBool,
    /// Frames that reached the socket on this connection.
    frames: AtomicU64,
    /// `write_all` calls that carried them (≤ `frames`; the gap is
    /// frames that shared a write with a predecessor).
    writes: AtomicU64,
}

impl SendTracker {
    fn new(peer: String) -> Arc<Self> {
        Arc::new(SendTracker {
            peer,
            failed: AtomicU64::new(0),
            logged: AtomicBool::new(false),
            frames: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        })
    }

    /// Counts `frames` lost messages (one torn write can lose a whole
    /// coalesced batch), logging the first loss on this connection.
    // First-loss diagnostic on an otherwise silent counter: the one
    // place library code writes to stderr, and it fires at most once
    // per connection.
    #[allow(clippy::print_stderr)]
    fn record_failed(&self, err: &dyn std::fmt::Display, frames: u64) {
        if !self.logged.swap(true, Ordering::Relaxed) {
            eprintln!(
                "wedge-net: dropped frame on {}: {err} (further drops on this connection \
                 are counted silently)",
                self.peer
            );
        }
        self.failed.fetch_add(frames, Ordering::Relaxed);
    }

    fn count(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }
}

/// Coalescing bound: a queued batch never grows past one frame cap,
/// so a flush write is at most `FRAME_HEADER_LEN + MAX_FRAME_PAYLOAD`
/// past it (the frame that tripped the bound).
const COALESCE_CAP: usize = MAX_FRAME_PAYLOAD as usize;

/// Scratch capacity retained across flushes/frames. One near-cap
/// merge frame must not pin 16 MiB per connection forever.
const SCRATCH_RETAIN: usize = 256 * 1024;

/// One direction of a loopback connection: the stream, its send
/// accounting, and the scratch buffer frames are packed into.
pub struct TcpLink {
    /// `None` when the connection's hello failed: every send is then
    /// counted as lost.
    stream: Option<TcpStream>,
    tracker: Arc<SendTracker>,
    /// Queued frames laid out back to back, each `[header | payload]`
    /// contiguous, written with a single `write_all` per flush.
    scratch: Vec<u8>,
    /// Frames currently packed in `scratch`.
    queued: u64,
}

impl TcpLink {
    fn new(stream: Option<TcpStream>, tracker: Arc<SendTracker>) -> Self {
        TcpLink { stream, tracker, scratch: Vec::new(), queued: 0 }
    }
}

/// The TCP link's shared state: the listener every connection dials,
/// the reader threads, and one stream clone per connection end for
/// waking those readers at shutdown.
pub struct TcpNet {
    listener: Option<TcpListener>,
    readers: Vec<JoinHandle<()>>,
    sockets: Vec<TcpStream>,
    trackers: Vec<Arc<SendTracker>>,
}

impl TcpNet {
    fn track(&mut self, peer: String) -> Arc<SendTracker> {
        let tracker = SendTracker::new(peer);
        self.trackers.push(Arc::clone(&tracker));
        tracker
    }

    /// Dials the listener as `a`, runs the hello, and starts a reader
    /// on each end. Returns the `a` end and the accepted end.
    fn connect(
        &mut self,
        a: Endpoint,
        to_a: &Sink,
        b: Endpoint,
        to_b: &Sink,
    ) -> Result<(TcpStream, TcpStream), HandshakeError> {
        let listener = self
            .listener
            .as_ref()
            .ok_or(std::io::Error::from(std::io::ErrorKind::AddrNotAvailable))?;
        let mut sa = TcpStream::connect(listener.local_addr()?)?;
        let (role, index) = hello_of(a);
        send_hello(&mut sa, role, index)?;
        let (mut sb, _) = listener.accept()?;
        if read_hello(&mut sb)? != (role, index) {
            return Err(HandshakeError::BadHello("hello names another peer"));
        }
        for (end, label, sink) in
            [(&sa, format!("{a}-r{b}"), to_a), (&sb, format!("{b}-r{a}"), to_b)]
        {
            end.set_nodelay(true)?;
            self.sockets.push(end.try_clone()?);
            self.readers.push(spawn_reader(
                format!("wedge-net-{label}"),
                end.try_clone()?,
                sink.clone(),
            )?);
        }
        Ok((sa, sb))
    }
}

/// Why a connection hello failed. Hellos run once per connection at
/// cluster start; a failure means the connection tore before the
/// cluster was even wired (or the peer spoke garbage), and the cluster
/// starts without it — counted in [`NetReport::failed_sends`] instead
/// of panicking the process.
#[derive(Debug)]
pub enum HandshakeError {
    /// The socket failed mid-hello.
    Io(std::io::Error),
    /// The peer closed cleanly before sending its hello.
    Closed,
    /// The first frame was not a well-formed hello.
    BadHello(&'static str),
}

impl From<std::io::Error> for HandshakeError {
    fn from(err: std::io::Error) -> Self {
        HandshakeError::Io(err)
    }
}

impl std::fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HandshakeError::Io(err) => write!(f, "hello io error: {err}"),
            HandshakeError::Closed => write!(f, "peer closed before hello"),
            HandshakeError::BadHello(what) => write!(f, "malformed hello: {what}"),
        }
    }
}

impl std::error::Error for HandshakeError {}

/// The hello's `(role, index)` for an endpoint.
fn hello_of(end: Endpoint) -> (u8, u64) {
    match end {
        Endpoint::Edge(p) => (ROLE_EDGE, p as u64),
        Endpoint::Client(p) => (ROLE_CLIENT, p as u64),
        Endpoint::Cloud => (ROLE_CLOUD, 0),
    }
}

/// Sends the connection hello identifying this peer to the acceptor.
fn send_hello(stream: &mut TcpStream, role: u8, index: u64) -> Result<(), HandshakeError> {
    let mut payload = Vec::with_capacity(9);
    payload.push(role);
    payload.extend_from_slice(&index.to_be_bytes());
    Ok(write_frame(stream, HELLO_KIND, &payload)?)
}

/// Reads and parses the hello frame that opens every connection.
fn read_hello(stream: &mut TcpStream) -> Result<(u8, u64), HandshakeError> {
    let frame = read_frame(stream)?.ok_or(HandshakeError::Closed)?;
    if frame.kind != HELLO_KIND {
        return Err(HandshakeError::BadHello("first frame must be the hello"));
    }
    match frame.payload[..] {
        [role, ref index @ ..] if index.len() == 8 => {
            let mut be = [0u8; 8];
            be.copy_from_slice(index);
            Ok((role, u64::from_be_bytes(be)))
        }
        _ => Err(HandshakeError::BadHello("hello payload is role + index")),
    }
}

/// Spawns the per-connection reader: blocks on frames, decodes each
/// payload with the hostile-input-hardened codec, and hands the
/// message to `sink` (which may block — that is how a bounded inbox
/// turns into TCP backpressure). Exits on EOF, error, an undecodable
/// frame (a peer speaking garbage is indistinguishable from a torn
/// connection), or once the receiving service is gone.
fn spawn_reader(
    name: String,
    mut stream: TcpStream,
    sink: Sink,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name(name).spawn(move || {
        // One payload buffer for the connection's life: every frame
        // lands in place instead of allocating a fresh Vec.
        let mut payload = Vec::new();
        while let Ok(Some(kind)) = read_frame_into(&mut stream, &mut payload) {
            let Ok(msg) = WireMsg::decode_payload(kind, &payload) else { break };
            if !sink.deliver(msg) {
                break;
            }
            payload.shrink_to(SCRATCH_RETAIN);
        }
    })
}

impl Link for TcpLink {
    type Net = TcpNet;
    const THREAD_PREFIX: &'static str = "wedge-net-";

    fn open() -> TcpNet {
        // A host without a working loopback still gets a cluster: every
        // hello fails, and every send is counted as lost.
        let listener = TcpListener::bind("127.0.0.1:0").ok();
        TcpNet { listener, readers: Vec::new(), sockets: Vec::new(), trackers: Vec::new() }
    }

    fn pair(net: &mut TcpNet, a: Endpoint, to_a: Sink, b: Endpoint, to_b: Sink) -> (Self, Self) {
        let (sa, sb) = match net.connect(a, &to_a, b, &to_b) {
            Ok((sa, sb)) => (Some(sa), Some(sb)),
            Err(err) => {
                net.track(format!("{a}→{b} (hello)")).record_failed(&err, 1);
                (None, None)
            }
        };
        let ab = TcpLink::new(sa, net.track(format!("{a}→{b}")));
        let ba = TcpLink::new(sb, net.track(format!("{b}→{a}")));
        (ab, ba)
    }

    /// Packs one framed message into the scratch buffer. A frame that
    /// would grow the batch past [`COALESCE_CAP`] flushes the batch
    /// first. A refused oversized frame is counted message loss — a
    /// service must never panic mid-protocol.
    fn queue(&mut self, msg: WireMsg) {
        let need = FRAME_HEADER_LEN + msg.encoded_len();
        if !self.scratch.is_empty() && self.scratch.len() + need > COALESCE_CAP {
            self.flush();
        }
        match msg.append_frame_to(&mut self.scratch) {
            Ok(()) => self.queued += 1,
            Err(err) => self.tracker.record_failed(&err, 1),
        }
    }

    /// Writes every queued frame with one `write_all`. A failure (torn
    /// connection) loses the whole batch; each lost frame is counted.
    fn flush(&mut self) {
        if self.scratch.is_empty() {
            return;
        }
        let written = match &mut self.stream {
            Some(stream) => stream.write_all(&self.scratch),
            None => Err(std::io::ErrorKind::NotConnected.into()),
        };
        match written {
            Ok(()) => {
                self.tracker.frames.fetch_add(self.queued, Ordering::Relaxed);
                self.tracker.writes.fetch_add(1, Ordering::Relaxed);
            }
            Err(err) => self.tracker.record_failed(&err, self.queued),
        }
        self.scratch.clear();
        self.scratch.shrink_to(SCRATCH_RETAIN);
        self.queued = 0;
    }

    /// Readers block in `read`; closing both directions of every
    /// socket wakes them, and they are joined before the counts are
    /// read.
    fn close(net: &mut TcpNet) -> LinkStats {
        for s in &net.sockets {
            // lint:allow(discarded-result): teardown — a socket that fails to shut down is already torn, and its reader joins below either way
            let _ = s.shutdown(SockShutdown::Both);
        }
        for reader in net.readers.drain(..) {
            // A reader that panicked has nothing left to report.
            let _ = reader.join();
        }
        let failed_sends_by_peer: Vec<(String, u64)> = net
            .trackers
            .iter()
            .filter(|t| t.count() > 0)
            .map(|t| (t.peer.clone(), t.count()))
            .collect();
        let sum = |f: fn(&SendTracker) -> &AtomicU64| -> u64 {
            net.trackers.iter().map(|t| f(t).load(Ordering::Relaxed)).sum()
        };
        LinkStats {
            failed_sends: failed_sends_by_peer.iter().map(|(_, n)| n).sum(),
            failed_sends_by_peer,
            frames_sent: sum(|t| &t.frames),
            frame_writes: sum(|t| &t.writes),
        }
    }
}

#[cfg(test)]
#[path = "../../wedge-core/tests/scenarios/mod.rs"]
mod scenarios;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios as s;
    use wedge_log::BlockId;

    /// A connected loopback socket pair.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let a = TcpStream::connect(addr).expect("connect");
        let (b, _) = listener.accept().expect("accept");
        (a, b)
    }

    #[test]
    fn coalesced_writes_decode_to_same_sequence() {
        // N messages queued in one wakeup must cross the wire in one
        // write and decode to exactly the sequence one-frame-per-write
        // would have produced.
        let (writer, mut reader) = socket_pair();
        let msgs = vec![
            WireMsg::Get { req_id: 7, key: 42 },
            WireMsg::LogRead { bid: BlockId(3) },
            WireMsg::MergeReqResend {
                edge: wedge_crypto::IdentityId(9),
                source_level: 1,
                epoch: 5,
            },
            WireMsg::Get { req_id: 8, key: 43 },
        ];
        let mut link = TcpLink::new(Some(writer), SendTracker::new("test→peer".into()));
        for msg in &msgs {
            link.queue(msg.clone());
        }
        link.flush();
        assert_eq!(link.tracker.frames.load(Ordering::Relaxed), msgs.len() as u64);
        assert_eq!(link.tracker.writes.load(Ordering::Relaxed), 1, "one syscall for the batch");
        assert_eq!(link.tracker.count(), 0);
        // Half-close so the reader sees EOF after the batch.
        link.stream.as_ref().expect("connected").shutdown(SockShutdown::Write).expect("half-close");
        let mut decoded = Vec::new();
        let mut payload = Vec::new();
        while let Some(kind) = read_frame_into(&mut reader, &mut payload).expect("read") {
            decoded.push(WireMsg::decode_payload(kind, &payload).expect("decode"));
        }
        assert_eq!(decoded, msgs, "coalesced frames decode to the same message sequence");
    }

    #[test]
    fn flush_on_torn_connection_counts_the_whole_batch() {
        let (writer, reader) = socket_pair();
        drop(reader);
        let _ = writer.shutdown(SockShutdown::Both);
        let mut link = TcpLink::new(Some(writer), SendTracker::new("test→gone".into()));
        for key in 0..3u64 {
            link.queue(WireMsg::Get { req_id: key, key });
        }
        link.flush();
        assert_eq!(link.tracker.count(), 3, "every frame in the lost batch is counted");
        assert_eq!(link.tracker.frames.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn hello_on_torn_connection_is_a_typed_error_not_a_panic() {
        let (mut writer, reader) = socket_pair();
        drop(reader);
        let _ = writer.shutdown(SockShutdown::Both);
        match send_hello(&mut writer, ROLE_EDGE, 0) {
            Err(HandshakeError::Io(_)) => {}
            other => panic!("expected an io handshake error, got {other:?}"),
        }
    }

    #[test]
    fn hello_read_on_closed_peer_is_a_typed_error() {
        let (writer, mut reader) = socket_pair();
        drop(writer); // peer closes without sending a hello
        match read_hello(&mut reader) {
            Err(HandshakeError::Closed) => {}
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    #[test]
    fn hello_with_wrong_first_frame_is_a_typed_error() {
        let (mut writer, mut reader) = socket_pair();
        write_frame(&mut writer, 1, b"not a hello").expect("write");
        match read_hello(&mut reader) {
            Err(HandshakeError::BadHello(_)) => {}
            other => panic!("expected BadHello, got {other:?}"),
        }
    }

    // The shared scenario suite on the TCP link; the same bodies run in
    // process in `wedge_core::threaded`.

    #[test]
    fn net_put_get_roundtrip_over_tcp() {
        s::put_get_roundtrip::<TcpLink>();
    }

    #[test]
    fn net_merges_preserve_data_over_tcp() {
        s::merges_preserve_data::<TcpLink>();
    }

    #[test]
    fn net_absent_key_is_none() {
        s::absent_key_is_none::<TcpLink>();
    }

    #[test]
    fn net_with_injected_latency() {
        s::injected_cloud_hop_latency::<TcpLink>();
    }

    #[test]
    fn net_concurrent_writers_lose_nothing() {
        s::concurrent_writers_lose_nothing::<TcpLink>();
    }

    #[test]
    fn net_pipelined_puts_complete() {
        s::pipelined_writers_lose_nothing::<TcpLink>();
    }

    #[test]
    fn net_scripted_seal_times_are_deterministic() {
        s::scripted_seal_times_are_deterministic::<TcpLink>();
    }

    #[test]
    fn net_n_edges_partition_data() {
        s::n_edges_partition_data::<TcpLink>();
    }

    #[test]
    fn net_gossip_reaches_clients_via_engine_deadline() {
        s::gossip_reaches_clients_via_engine_deadline::<TcpLink>();
    }

    #[test]
    fn net_gossip_and_dispute_over_tcp() {
        s::gossip_and_dispute::<TcpLink>();
    }

    #[test]
    fn net_admission_sheds_puts_instead_of_blocking() {
        s::admission_sheds_puts_instead_of_blocking::<TcpLink>();
    }

    #[test]
    fn net_backpressure_sheds_gossip_but_defers_proofs() {
        s::backpressure_sheds_gossip_but_defers_proofs::<TcpLink>();
    }

    #[test]
    fn net_merge_replies_are_delta_encoded_over_tcp() {
        s::merge_replies_are_delta_encoded::<TcpLink>();
    }

    #[test]
    fn net_oversized_full_request_merges_as_small_delta_over_tcp() {
        s::oversized_full_request_merges_as_small_delta::<TcpLink>();
    }

    #[test]
    #[should_panic(expected = "cannot combine")]
    fn net_seal_times_reject_merge_retry() {
        s::seal_times_reject_merge_retry::<TcpLink>();
    }
}
