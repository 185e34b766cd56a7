//! The three workloads and the seeded op schedules they offer.

use wedge_sim::SimRng;
use wedge_workload::{KeyDist, KeySampler};

/// Edges (partitions) in every workload; one generator thread each.
pub const EDGES: usize = 2;
/// Value size of every put.
pub const VALUE_LEN: usize = 64;
/// Key space of the uniform and 1M-Zipf draws.
pub const KEY_SPACE: u64 = 1_000_000;
/// Zipf exponent of the skewed draws.
pub const ZIPF_ALPHA: f64 = 0.99;
/// Client pipeline depth (batches in flight per edge) of every runtime.
pub const PIPELINE_DEPTH: usize = 4;

/// Which real runtime a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Runtime {
    /// `wedge_net::NetCluster`: loopback TCP, every message encoded.
    Tcp,
    /// `wedge_core::threaded::ThreadedCluster`: in-process channels.
    Threaded,
}

/// Where an op's key comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Keys {
    /// Uniform over [`KEY_SPACE`].
    Uniform,
    /// Zipf over the edge's preloaded keys.
    Preloaded,
    /// Half Zipf over [`KEY_SPACE`], half uniform over it.
    HalfZipfHalfUniform,
}

/// One workload.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub runtime: Runtime,
    /// Puts per sealed block.
    pub batch_size: usize,
    /// Share of puts in the mixed part of the schedule.
    pub put_share: f64,
    pub keys: Keys,
    /// Keys written per edge during set-up.
    pub preload_per_edge: u64,
    /// The fixed offered rate, ops/s over all edges.
    pub rate: f64,
}

impl Spec {
    /// A workload that issues no gets of its own reads back what each
    /// slice of its measured phase wrote (see [`read_back`]).
    pub fn reads_back(&self) -> bool {
        self.put_share >= 1.0
    }
}

/// Every workload, by name.
pub fn all() -> Vec<Spec> {
    vec![
        Spec {
            name: "ingest",
            runtime: Runtime::Tcp,
            batch_size: 8,
            put_share: 1.0,
            keys: Keys::Uniform,
            preload_per_edge: 0,
            rate: 340.0,
        },
        Spec {
            name: "read-heavy",
            runtime: Runtime::Tcp,
            batch_size: 1,
            put_share: 0.1,
            keys: Keys::Preloaded,
            preload_per_edge: 1000,
            rate: 300.0,
        },
        Spec {
            name: "mixed-inproc",
            runtime: Runtime::Threaded,
            batch_size: 1,
            put_share: 0.8,
            keys: Keys::HalfZipfHalfUniform,
            preload_per_edge: 0,
            rate: 130.0,
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

/// (key, value) writes, in order.
pub type Writes = Vec<(u64, Vec<u8>)>;

/// Put or get.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Put,
    Get,
}

/// One scheduled operation.
#[derive(Clone, Debug)]
pub struct Op {
    /// Unique within the run (shared by the op's trace spans).
    pub id: u64,
    /// When the op is due, relative to the schedule's start.
    pub due_ns: u64,
    pub kind: Kind,
    pub key: u64,
    /// The value to write (empty for gets).
    pub value: Vec<u8>,
}

/// Schedule streams: the same seed gives independent ops per stream.
#[derive(Clone, Copy, Debug)]
pub enum Stream {
    Preload = 1,
    Fixed = 2,
    Probe = 3,
    ReadBack = 4,
}

/// The 64-byte value of op `id` on `edge`: unique per op, so a read
/// can tell which write it saw.
pub fn value_for(seed: u64, edge: usize, id: u64) -> Vec<u8> {
    let mut v = vec![0u8; VALUE_LEN];
    v[..8].copy_from_slice(&id.to_le_bytes());
    v[8..16].copy_from_slice(&seed.to_le_bytes());
    v[16] = edge as u8;
    for (i, b) in v[17..].iter_mut().enumerate() {
        *b = (id as u8).wrapping_mul(31).wrapping_add(i as u8);
    }
    v
}

/// The keys edge `edge` holds after set-up: spread evenly over the key
/// space.
pub fn preload_keys(spec: &Spec) -> Vec<u64> {
    let n = spec.preload_per_edge;
    (0..n).map(|i| i * (KEY_SPACE / n.max(1))).collect()
}

/// The per-edge index bits of an op id.
const OP_INDEX_MASK: u64 = (1 << 40) - 1;

fn op_id(stream: Stream, edge: usize, i: u64) -> u64 {
    ((stream as u64) << 48) | ((edge as u64) << 40) | i
}

/// The set-up writes of one edge, in order (no due times).
pub fn preload_ops(spec: &Spec, seed: u64, edge: usize) -> Vec<Op> {
    preload_keys(spec)
        .into_iter()
        .enumerate()
        .map(|(i, key)| {
            let id = op_id(Stream::Preload, edge, i as u64);
            let value = value_for(seed, edge, id);
            Op { id, due_ns: 0, kind: Kind::Put, key, value }
        })
        .collect()
}

/// The open-loop schedule of every edge at `rate` ops/s (all edges
/// together) for `seconds`. Arrivals are evenly spaced per edge and
/// the edges are offset by half a gap, so the offered load is smooth;
/// keys and op kinds come from `seed` alone.
pub fn schedule(spec: &Spec, seed: u64, stream: Stream, rate: f64, seconds: f64) -> Vec<Vec<Op>> {
    let per_edge = ((rate * seconds) / EDGES as f64).round().max(1.0) as usize;
    let gap_ns = EDGES as f64 * 1e9 / rate;
    let preloaded = preload_keys(spec);
    (0..EDGES)
        .map(|edge| {
            let mut rng = SimRng::new(seed ^ ((stream as u64) << 56) ^ ((edge as u64 + 1) << 32));
            let mut zipf_1m = KeySampler::new(KeyDist::Zipf { alpha: ZIPF_ALPHA }, KEY_SPACE);
            let mut zipf_pre = (!preloaded.is_empty()).then(|| {
                KeySampler::new(KeyDist::Zipf { alpha: ZIPF_ALPHA }, preloaded.len() as u64)
            });
            // The mix is exact (only the positions are random), so every
            // seed offers the same number of puts and gets.
            let mut kinds: Vec<Kind> = Vec::new();
            kinds.resize((spec.put_share * per_edge as f64).round() as usize, Kind::Put);
            kinds.resize(per_edge, Kind::Get);
            rng.shuffle(&mut kinds);
            kinds
                .into_iter()
                .enumerate()
                .map(|(i, kind)| {
                    let id = op_id(stream, edge, i as u64);
                    let due_ns = due(edge, i, gap_ns);
                    let key = match (spec.keys, zipf_pre.as_mut()) {
                        (Keys::Preloaded, Some(z)) => preloaded[z.sample(&mut rng) as usize],
                        (Keys::HalfZipfHalfUniform, _) if rng.gen_bool(0.5) => {
                            zipf_1m.sample(&mut rng)
                        }
                        _ => rng.gen_range(KEY_SPACE),
                    };
                    let value =
                        if kind == Kind::Put { value_for(seed, edge, id) } else { Vec::new() };
                    Op { id, due_ns, kind, key, value }
                })
                .collect()
        })
        .collect()
}

/// Due time of an edge's `i`-th op: evenly spaced per edge, the edges
/// offset by a fraction of a gap.
fn due(edge: usize, i: usize, gap_ns: f64) -> u64 {
    ((i as f64 + edge as f64 / EDGES as f64) * gap_ns) as u64
}

/// The read-back of a slice of the measured phase: one get of every key
/// the slice put on each edge, in the order written, offered at the
/// workload's fixed rate from a new start. It runs after the slice has
/// drained, so the slice's own traffic stays pure puts, and it checks
/// every write the slice made.
pub fn read_back(spec: &Spec, slice: &[Vec<Op>]) -> Vec<Vec<Op>> {
    let gap_ns = EDGES as f64 * 1e9 / spec.rate;
    slice
        .iter()
        .enumerate()
        .map(|(edge, ops)| {
            ops.iter()
                .filter(|o| o.kind == Kind::Put)
                .enumerate()
                .map(|(i, o)| Op {
                    id: op_id(Stream::ReadBack, edge, o.id & OP_INDEX_MASK),
                    due_ns: due(edge, i, gap_ns),
                    kind: Kind::Get,
                    key: o.key,
                    value: Vec::new(),
                })
                .collect()
        })
        .collect()
}

/// Cuts a schedule into `parts` consecutive time slices of equal length,
/// each re-based to start at 0, so the measured phase can be spread
/// over a run in pieces.
pub fn split(sched: Vec<Vec<Op>>, parts: usize, seconds: f64) -> Vec<Vec<Vec<Op>>> {
    let slice_ns = (seconds * 1e9 / parts as f64) as u64;
    let mut out: Vec<Vec<Vec<Op>>> = vec![vec![Vec::new(); sched.len()]; parts];
    for (edge, ops) in sched.into_iter().enumerate() {
        for mut op in ops {
            let part = ((op.due_ns / slice_ns.max(1)) as usize).min(parts - 1);
            op.due_ns -= part as u64 * slice_ns;
            out[part][edge].push(op);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_keeps_every_op_and_rebases() {
        let spec = by_name("mixed-inproc").unwrap();
        let s = schedule(&spec, 1, Stream::Fixed, 100.0, 4.0);
        let n: usize = s.iter().map(Vec::len).sum();
        let parts = split(s, 4, 4.0);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.iter().flatten().map(Vec::len).sum::<usize>(), n);
        for part in &parts {
            assert!(part.iter().flatten().all(|o| o.due_ns < 1_000_000_000));
            assert!(part.iter().all(|ops| !ops.is_empty()));
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let spec = by_name("mixed-inproc").unwrap();
        let a = schedule(&spec, 7, Stream::Fixed, 100.0, 2.0);
        let b = schedule(&spec, 7, Stream::Fixed, 100.0, 2.0);
        let c = schedule(&spec, 8, Stream::Fixed, 100.0, 2.0);
        let keys = |s: &Vec<Vec<Op>>| s.iter().flatten().map(|o| o.key).collect::<Vec<_>>();
        assert_eq!(keys(&a), keys(&b));
        assert_ne!(keys(&a), keys(&c));
        assert_eq!(a.iter().map(Vec::len).sum::<usize>(), 200);
    }

    #[test]
    fn ingest_is_pure_puts_and_reads_back_every_write() {
        let spec = by_name("ingest").unwrap();
        assert!(spec.reads_back());
        assert!(!by_name("read-heavy").unwrap().reads_back());
        let sched = schedule(&spec, 3, Stream::Fixed, spec.rate, 2.0);
        assert!(sched.iter().flatten().all(|o| o.kind == Kind::Put));
        let back = read_back(&spec, &sched);
        for (puts, gets) in sched.iter().zip(&back) {
            assert!(gets.iter().all(|o| o.kind == Kind::Get));
            let keys = |ops: &[Op]| ops.iter().map(|o| o.key).collect::<Vec<_>>();
            assert_eq!(keys(gets), keys(puts));
            assert_eq!(gets[0].due_ns, puts[0].due_ns);
            assert_eq!(gets[1].due_ns - gets[0].due_ns, puts[1].due_ns - puts[0].due_ns);
        }
        let mut ids: Vec<u64> = sched.iter().chain(&back).flatten().map(|o| o.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn read_heavy_stays_on_preloaded_keys() {
        let spec = by_name("read-heavy").unwrap();
        let pre = preload_keys(&spec);
        let sched = schedule(&spec, 5, Stream::Fixed, 300.0, 4.0);
        let ops: Vec<&Op> = sched.iter().flatten().collect();
        assert!(ops.iter().all(|o| pre.contains(&o.key)));
        let puts = ops.iter().filter(|o| o.kind == Kind::Put).count() as f64;
        assert_eq!(puts / ops.len() as f64, 0.1);
    }

    #[test]
    fn values_are_unique_per_op() {
        let spec = by_name("mixed-inproc").unwrap();
        let sched = schedule(&spec, 1, Stream::Fixed, 200.0, 1.0);
        let mut values: Vec<&Vec<u8>> =
            sched.iter().flatten().filter(|o| o.kind == Kind::Put).map(|o| &o.value).collect();
        let n = values.len();
        values.sort();
        values.dedup();
        assert_eq!(values.len(), n);
        assert!(values.iter().all(|v| v.len() == VALUE_LEN));
    }

    #[test]
    fn arrivals_are_evenly_spaced_and_interleaved() {
        let spec = by_name("mixed-inproc").unwrap();
        let s = schedule(&spec, 1, Stream::Fixed, 100.0, 1.0);
        assert_eq!(s[0][1].due_ns - s[0][0].due_ns, 20_000_000);
        assert_eq!(s[1][0].due_ns, 10_000_000);
    }
}
