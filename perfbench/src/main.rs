//! WedgeChain benchmark: drives both real runtimes with an open-loop
//! generator, checks every read and certificate, and prints one JSON
//! result line. See `README.md` for the workloads and metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mixed-inproc --seed 1 --seconds 12 --trace 0
//! ```
// A benchmark binary reports on stdout and stderr by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

mod crypto;
mod engine_pass;
mod gen;
mod model;
mod procfs;
mod report;
mod search;
mod stats;
mod target;
mod trace;
mod workload;

use gen::EdgeOutcome;
use model::AckModel;
use procfs::{CpuSnapshot, Role};
use report::{Metrics, ResultFile};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use target::{Cluster, Report};
use workload::{Spec, Stream, Writes, EDGES};

/// Set-ups per untraced run: the three clusters the run uses, then more
/// (up to `MAX_SETUPS`) while their total stays under `SETUP_BUDGET_S`,
/// so a cheap set-up gets a steadier median. `setup_s` is their median.
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET_S: f64 = 2.0;
/// The measured phase runs in this many slices, interleaved with the
/// rate probes, so it samples the whole run rather than one stretch.
const FIXED_SLICES: usize = 6;
/// Offered-rate probes of the `max_rate_ops_s` search.
const PROBE_SECONDS: f64 = 1.5;
const PROBE_LATE_CAP: Duration = Duration::from_millis(500);
const PROBE_DRAIN: Duration = Duration::from_secs(3);
/// The search starts at twice the workload's fixed rate (well under the
/// knee, and past the batch-fill time that keeps a batched workload's
/// put p99 over the limit at low rates).
const SEARCH_START_X_RATE: f64 = 2.0;
const SEARCH_GROWTH: f64 = 1.4;
const SEARCH_RESOLUTION: f64 = 0.05;
const SEARCH_RATES: usize = 6;
const SEARCH_RETRIES: usize = 1;
/// How long the generator waits, after its last op, for outstanding
/// certificates before counting them as failed.
const DRAIN_DEADLINE: Duration = Duration::from_secs(15);
/// Longest wait for the runtimes to go idle before a slice or a probe.
const IDLE_WAIT: Duration = Duration::from_secs(2);
/// Set-up writer threads per edge (set-up is not the generator).
const PRELOAD_THREADS_PER_EDGE: usize = 4;

struct Args {
    workload: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::by_name(&val).ok_or(format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(val.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => match val.as_str() {
                "0" | "1" => trace = Some(val == "1"),
                _ => return Err(format!("--trace {val}: expected 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = seconds.unwrap_or(12.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} outside (0, 120]"));
    }
    Ok(Args { workload, seed: seed.unwrap_or(1), seconds, trace: trace.unwrap_or(false) })
}

/// A started, preloaded cluster and the writes it has acknowledged.
struct Ready {
    cluster: Cluster,
    models: Vec<AckModel>,
    setup_s: f64,
    failed: u64,
}

/// Starts the runtime and writes the preload, waiting for every
/// preloaded block's certificate: set-up ends when the store is settled.
fn setup(spec: &Spec, seed: u64) -> Ready {
    let t0 = Instant::now();
    let cluster = Cluster::start(spec);
    let mut models = vec![AckModel::default(); EDGES];
    let mut failed = 0;
    if spec.preload_per_edge > 0 {
        let results: Vec<(usize, Writes, u64)> = std::thread::scope(|s| {
            let cluster = &cluster;
            let handles: Vec<_> = (0..EDGES)
                .flat_map(|edge| (0..PRELOAD_THREADS_PER_EDGE).map(move |lane| (edge, lane)))
                .map(|(edge, lane)| s.spawn(move || preload_lane(cluster, spec, seed, edge, lane)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("preload thread")).collect()
        });
        for (edge, acked, f) in results {
            failed += f;
            for (key, value) in acked {
                models[edge].ack(edge, key, value);
            }
        }
    }
    Ready { cluster, models, setup_s: t0.elapsed().as_secs_f64(), failed }
}

/// One set-up writer: every `PRELOAD_THREADS_PER_EDGE`-th preload key of
/// `edge`, then a wait for their certificates. Returns the acknowledged
/// writes and the count that failed.
fn preload_lane(
    cluster: &Cluster,
    spec: &Spec,
    seed: u64,
    edge: usize,
    lane: usize,
) -> (usize, Writes, u64) {
    let ops = workload::preload_ops(spec, seed, edge);
    let (mut acked, mut certs, mut failed) = (Vec::new(), Vec::new(), 0);
    for op in ops.into_iter().skip(lane).step_by(PRELOAD_THREADS_PER_EDGE) {
        match cluster.put_on(edge, op.key, op.value.clone()) {
            Some(reply) => {
                certs.push(reply.certified);
                acked.push((op.key, op.value));
            }
            None => failed += 1,
        }
    }
    let deadline = Instant::now() + DRAIN_DEADLINE;
    for rx in certs {
        if rx.recv_timeout(deadline.saturating_duration_since(Instant::now())).is_err() {
            failed += 1;
        }
    }
    (edge, acked, failed)
}

/// The measured phase so far: its ops' outcomes and the CPU spent, in
/// total and per slice.
#[derive(Default)]
struct Fixed {
    out: EdgeOutcome,
    /// The read-backs of a workload that only writes; their gets are
    /// checked and timed, but not counted in `out` or in the CPU.
    reads: EdgeOutcome,
    /// CPU ms per role, summed over the slices (slice start to drain end).
    cpu: BTreeMap<Role, f64>,
    /// Per slice: put, certify and get p50 (ms) and CPU ms per op.
    slices: [Vec<f64>; 4],
}

impl Fixed {
    /// Runs one slice of the fixed-rate schedule on `ready`, then its
    /// read-back if the workload has one.
    fn run(&mut self, spec: &Spec, slice: &[Vec<workload::Op>], ready: &mut Ready, traced: bool) {
        let epoch = traced.then(Instant::now);
        let run = |sched: &[Vec<workload::Op>], ready: &mut Ready| {
            procfs::wait_idle(IDLE_WAIT);
            let before = CpuSnapshot::take();
            let (out, _) = gen::run_all(
                &ready.cluster,
                spec.batch_size,
                sched,
                DRAIN_DEADLINE,
                None,
                &mut ready.models,
                epoch,
            );
            (out, CpuSnapshot::take().since(&before))
        };
        let (mut out, cpu) = run(slice, ready);
        let mut reads = EdgeOutcome::default();
        if spec.reads_back() {
            reads = run(&workload::read_back(spec, slice), ready).0;
        }
        for (role, ms) in &cpu {
            *self.cpu.entry(*role).or_default() += ms;
        }
        let mut get = out.get.clone();
        get.extend(&reads.get);
        for (i, l) in [&mut out.put, &mut out.certify, &mut get].into_iter().enumerate() {
            let n = l.len();
            if let Some(p50) = l.pct_ms(0.5).filter(|_| stats::reportable(n, 0.5)) {
                self.slices[i].push(p50);
            }
        }
        if out.completed > 0 {
            self.slices[3].push(procfs::system_ms(&cpu) / out.completed as f64);
        }
        self.out.merge(out);
        self.reads.merge(reads);
    }

    /// Get latencies of the measured phase and its read-backs.
    fn gets(&self) -> stats::Latencies {
        let mut l = self.out.get.clone();
        l.extend(&self.reads.get);
        l
    }

    /// Ops attempted and failed, read-backs included.
    fn attempted(&self) -> u64 {
        self.out.attempted + self.reads.attempted
    }

    fn failed(&self) -> u64 {
        self.out.failed() + self.reads.failed()
    }
}

fn fixed_schedule(spec: &Spec, args: &Args) -> Vec<Vec<workload::Op>> {
    workload::schedule(spec, args.seed, Stream::Fixed, spec.rate, args.seconds)
}

/// One probe of the rate search: a short schedule at `rate` on `ready`.
fn probe(spec: &Spec, seed: u64, n: u64, rate: f64, ready: &mut Ready) -> (search::Probe, u64) {
    procfs::wait_idle(IDLE_WAIT);
    let sched = workload::schedule(spec, seed ^ (n << 20), Stream::Probe, rate, PROBE_SECONDS);
    let (mut out, start) = gen::run_all(
        &ready.cluster,
        spec.batch_size,
        &sched,
        PROBE_DRAIN,
        Some(PROBE_LATE_CAP),
        &mut ready.models,
        None,
    );
    let span = out.last_done.map_or(0.0, |t| t.saturating_duration_since(start).as_secs_f64());
    let p = search::Probe {
        offered: rate,
        achieved: if span > 0.0 { out.completed as f64 / span } else { 0.0 },
        put_p99_ms: out.put.pct_ms(0.99),
        get_p99_ms: out.get.pct_ms(0.99),
        samples: (out.put.len(), out.get.len()),
        failed: out.failed(),
    };
    (p, out.wrong + out.rejected)
}

fn shutdown(ready: Ready) -> Report {
    ready.cluster.shutdown().expect("every service thread exits cleanly")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace { traced_run(&args) } else { untraced_run(&args) };
    eprintln!("perfbench: {} seed {} trace {}", result.workload, result.seed, u8::from(args.trace));
    result.metrics.print_table();
    let path = result.write();
    eprintln!("perfbench: result file {}", path.display());
    println!("{}", result.json_line());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: correctness violation ({} failed)", result.failed);
        ExitCode::FAILURE
    }
}

/// Tracks correctness across every cluster of a run.
#[derive(Default)]
struct Checks {
    /// Failed set-up writes and wrong or rejected probe reads.
    failed: u64,
    /// Some shutdown report was not clean.
    dirty: bool,
    /// Every set-up time of the run.
    setups: Vec<f64>,
}

impl Checks {
    /// Sets a cluster up, recording its set-up time and failures.
    fn setup(&mut self, spec: &Spec, seed: u64) -> Ready {
        let r = setup(spec, seed);
        self.setups.push(r.setup_s);
        self.failed += r.failed;
        r
    }

    fn shutdown(&mut self, ready: Ready) -> Report {
        let r = shutdown(ready);
        self.dirty |= !r.clean();
        r
    }

    /// One more set-up (started and stopped at once) for the `setup_s`
    /// median, while set-ups are cheap.
    fn extra_setup(&mut self, spec: &Spec, seed: u64) {
        if self.setups.len() < MAX_SETUPS && self.setups.iter().sum::<f64>() < SETUP_BUDGET_S {
            let r = self.setup(spec, seed);
            self.shutdown(r);
        }
    }
}

fn untraced_run(args: &Args) -> ResultFile {
    let spec = &args.workload;
    let mut res = ResultFile::new(spec, args.seed, false);
    let mut checks = Checks::default();
    // Three clusters: the first only measures set-up and the preload's
    // WAN bytes (which the measured phase's count must exclude), the
    // second hosts the measured phase, the third the rate search.
    let warm = checks.setup(spec, args.seed);
    let mut fixed_on = checks.setup(spec, args.seed);
    let mut search_on = checks.setup(spec, args.seed);
    let baseline = checks.shutdown(warm);

    let mut fixed = Fixed::default();
    let mut slices =
        workload::split(fixed_schedule(spec, args), FIXED_SLICES, args.seconds).into_iter();
    let mut probes = 0u64;
    let plan = search::Plan {
        start: SEARCH_START_X_RATE * spec.rate,
        growth: SEARCH_GROWTH,
        resolution: SEARCH_RESOLUTION,
        max_rates: SEARCH_RATES,
        retries: SEARCH_RETRIES,
    };
    // Each probe is preceded by a slice of the measured phase and, while
    // set-ups are cheap, one more set-up: all three sample the whole run.
    let found = search::max_rate(&plan, |rate| {
        checks.extra_setup(spec, args.seed);
        if let Some(slice) = slices.next() {
            fixed.run(spec, &slice, &mut fixed_on, false);
        }
        probes += 1;
        let (p, wrong) = probe(spec, args.seed, probes, rate, &mut search_on);
        checks.failed += wrong;
        p
    });
    for slice in slices {
        checks.extra_setup(spec, args.seed);
        fixed.run(spec, &slice, &mut fixed_on, false);
    }
    let report = checks.shutdown(fixed_on);
    checks.shutdown(search_on);

    let m = &mut res.metrics;
    // Latency and CPU are medians over the slices: a disturbance that
    // hits only a few slices does not move them.
    let names = ["put_p50_ms", "certify_p50_ms", "get_p50_ms", "cpu_ms_per_op"];
    for (name, per_slice) in names.into_iter().zip(&fixed.slices) {
        if !per_slice.is_empty() {
            m.push(name, stats::median(per_slice), "ms");
        }
        m.note_list(&format!("{name}_slices"), per_slice);
    }
    let (attempted, failed) = (fixed.attempted(), fixed.failed());
    m.latency("get", &mut fixed.gets());
    let o = &mut fixed.out;
    m.latency("put", &mut o.put);
    m.latency("certify", &mut o.certify);
    let done = o.completed.max(1) as f64;
    m.note("cpu_ms_per_op_all", procfs::system_ms(&fixed.cpu) / done);
    let wan = report.wan_bytes_to_cloud.saturating_sub(baseline.wan_bytes_to_cloud);
    m.push("wan_bytes_per_op", wan as f64 / done, "B");
    m.push("max_rate_ops_s", found.max_rate, "ops/s");
    m.push("setup_s", stats::median(&checks.setups), "s");
    let share = failed as f64 / attempted.max(1) as f64;
    m.push("success_frac", 1.0 - share, "ratio");
    m.note("failed_frac", share);
    m.note_list("setup_s_each", &checks.setups);
    m.note("offered_ops", o.attempted as f64);
    m.note("read_back_ops", fixed.reads.attempted as f64);
    m.note("gen_late_p99_ms", o.late.pct_ms(0.99).unwrap_or(0.0));
    m.note("late_samples", o.late.len() as f64);
    res.probes = found.probes;
    let fail = failed + checks.failed;
    res.finish(attempted, fail, !checks.dirty && fail == 0);
    res
}

fn traced_run(args: &Args) -> ResultFile {
    let spec = &args.workload;
    let mut res = ResultFile::new(spec, args.seed, true);
    let mut checks = Checks::default();

    // Untraced baseline for the tracing overhead, then the runtime
    // pass: the same schedule with a span around every call.
    let mut base = Fixed::default();
    let mut f = Fixed::default();
    let mut report = Report::default();
    for (pass, traced) in [(&mut base, false), (&mut f, true)] {
        let mut ready = checks.setup(spec, args.seed);
        pass.run(spec, &fixed_schedule(spec, args), &mut ready, traced);
        report = checks.shutdown(ready);
    }

    // Engine pass: the same ops, one thread, sans-IO engines.
    let preload: Vec<Vec<_>> =
        (0..EDGES).map(|e| workload::preload_ops(spec, args.seed, e)).collect();
    let eng = engine_pass::run(spec, args.seed, &preload, &fixed_schedule(spec, args));
    let costs = crypto::measure(spec);

    let m = &mut res.metrics;
    // Per op kind, traced p50 over untraced p50; the overhead is their
    // mean minus 1 (puts and gets are not pooled: on `ingest` their
    // p50s differ twentyfold, and a pooled p50 falls between them).
    let ratios: Vec<f64> = [(base.out.put.clone(), f.out.put.clone()), (base.gets(), f.gets())]
        .into_iter()
        .filter_map(|(mut b, mut t)| Some(t.pct_ms(0.5)? / b.pct_ms(0.5)?))
        .collect();
    let overhead = if ratios.is_empty() {
        0.0
    } else {
        ratios.iter().sum::<f64>() / ratios.len() as f64 - 1.0
    };
    // Tails of the untraced pass: too noisy on a shared host to gate, so
    // they are reported here without a bound.
    let mut base_gets = base.gets();
    let o = &mut base.out;
    for (name, l) in [("put", &mut o.put), ("certify", &mut o.certify), ("get", &mut base_gets)] {
        m.push(&format!("tail.{name}_p95_ms"), l.pct_ms(0.95).unwrap_or(0.0), "ms");
        m.note(&format!("tail_{name}_samples"), l.len() as f64);
    }
    m.push("trace.overhead_frac", overhead, "ratio");

    layer_metrics(m, &eng, &costs);
    let done = f.out.completed.max(1) as f64;
    m.push("runtime.client_cpu_ms_per_op", role_ms(&f, Role::Client) / done, "ms");
    m.push("runtime.edge_cpu_ms_per_op", role_ms(&f, Role::Edge) / done, "ms");
    m.push("runtime.cloud_cpu_ms_per_op", role_ms(&f, Role::Cloud) / done, "ms");
    let busy_ms = phase1_busy_ms(&eng, spec);
    let put_p50 = f.out.put.pct_ms(0.5).unwrap_or(0.0);
    m.push("runtime.put_wait_ms_p50", put_p50 - busy_ms, "ms");
    m.push("runtime.sheds_defers", report.sheds_defers() as f64, "count");
    let merges = report.merges_completed as f64;
    let attempts = merges + (report.merges_retried + report.merge_req_resends) as f64;
    m.push(
        "edge.useful_merge_ratio",
        if attempts > 0.0 { merges / attempts } else { 0.0 },
        "ratio",
    );
    let lookups = (report.proof_cache_hits + report.proof_cache_misses) as f64;
    let hit_rate = if lookups > 0.0 { report.proof_cache_hits as f64 / lookups } else { 0.0 };
    m.push("proofcache.hit_rate", hit_rate, "ratio");
    let frames = report.frames_sent as f64;
    m.push("net.frames_per_op", frames / done, "count");
    let writes = report.frame_writes as f64;
    m.push("net.frames_per_write", if writes > 0.0 { frames / writes } else { 0.0 }, "count");
    m.push("gen.late_p99_ms", f.out.late.pct_ms(0.99).unwrap_or(0.0), "ms");
    m.note("traced_put_p50_ms", put_p50);
    m.note("traced_put_samples", f.out.put.len() as f64);
    m.note("late_samples", f.out.late.len() as f64);
    m.note("engine_phase1_busy_ms", busy_ms);

    let mut spans = f.out.tracer.take().map(|t| t.spans).unwrap_or_default();
    spans.extend(f.reads.tracer.take().map(|t| t.spans).unwrap_or_default());
    spans.extend(eng.spans.iter().cloned());
    res.spans = spans;

    let fail = f.failed() + base.failed() + checks.failed + eng.failed;
    res.finish(f.attempted(), fail, !checks.dirty && fail == 0);
    res
}

fn role_ms(f: &Fixed, role: Role) -> f64 {
    f.cpu.get(&role).copied().unwrap_or(0.0)
}

/// Busy time of the engine calls on the Phase-I path, per sealed batch,
/// in ms: client `PutBatch`, edge `BatchAdd`, client `AddResponse`, and
/// (TCP) the codec work of those two messages.
fn phase1_busy_ms(eng: &engine_pass::EngineOut, spec: &Spec) -> f64 {
    let t = trace::totals(&eng.spans);
    let ns = |name: &str| t.get(name).map_or(0, |x| x.total_ns) as f64;
    let batches = t.get("edge.BatchAdd").map_or(0, |x| x.count).max(1) as f64;
    let mut busy = ns("client.PutBatch") + ns("edge.BatchAdd") + ns("client.AddResponse");
    if spec.runtime == workload::Runtime::Tcp {
        // Two of the messages a put batch causes ride the Phase-I path
        // (BatchAdd, AddResponse); charge the mean codec cost of two.
        let msgs = t.get("wire.encode").map_or(0, |x| x.count).max(1) as f64;
        busy += 2.0 * batches * (ns("wire.encode") + ns("wire.decode")) / msgs;
    }
    busy / batches / 1e6
}

/// Per-layer numbers of the engine pass and the crypto micro-timings.
fn layer_metrics(m: &mut Metrics, eng: &engine_pass::EngineOut, c: &crypto::CryptoCosts) {
    let t = trace::totals(&eng.spans);
    let ops = (eng.puts + eng.gets).max(1) as f64;
    let gets = eng.gets.max(1) as f64;
    let us = |names: &[&str]| -> f64 {
        names.iter().map(|n| t.get(n).map_or(0, |x| x.total_ns)).sum::<u64>() as f64 / 1e3
    };
    let count = |names: &[&str]| -> f64 {
        names.iter().map(|n| t.get(n).map_or(0, |x| x.count)).sum::<u64>() as f64
    };
    m.push("crypto.sign_us", c.sign_us, "us");
    m.push("crypto.verify_us", c.verify_us, "us");
    m.push("crypto.sha256_us_per_kb", c.sha256_us_per_kb, "us");
    m.push("client.put_batch_us_per_op", us(&["client.PutBatch"]) / ops, "us");
    m.push("client.add_response_us_per_op", us(&["client.AddResponse"]) / ops, "us");
    m.push("client.block_proof_us_per_op", us(&["client.BlockProof"]) / ops, "us");
    m.push("client.get_response_us_per_get", us(&["client.GetResponse"]) / gets, "us");
    m.push("edge.batch_add_us_per_op", us(&["edge.BatchAdd"]) / ops, "us");
    m.push("edge.get_us_per_get", us(&["edge.Get"]) / gets, "us");
    m.push("edge.block_proof_us_per_op", us(&["edge.BlockProof"]) / ops, "us");
    let merge_res = ["edge.MergeResult", "edge.MergeResultDelta"];
    m.push("edge.merge_result_us_per_op", us(&merge_res) / ops, "us");
    let certifies = count(&["cloud.Certify"]);
    m.push("cloud.certify_us_per_block", us(&["cloud.Certify"]) / certifies.max(1.0), "us");
    let merges = ["cloud.Merge", "cloud.MergeDelta"];
    m.push("cloud.merge_us_per_op", us(&merges) / ops, "us");
    m.push("cloud.certs_per_op", certifies / ops, "count");
    m.push("cloud.merges_per_kop", count(&merges) * 1000.0 / ops, "count");
    let hashes = (eng.interior_hashes + eng.leaf_hashes) as f64;
    m.push("lsmerkle.merkle_hashes_per_op", hashes / ops, "count");
    m.push("lsmerkle.merkle_leaf_hashes_per_op", eng.leaf_hashes as f64 / ops, "count");
    m.push("lsmerkle.proof_cache_misses_per_get", eng.cache_misses as f64 / gets, "count");
    m.push("wire.encode_us_per_op", us(&["wire.encode"]) / ops, "us");
    m.push("wire.decode_us_per_op", us(&["wire.decode"]) / ops, "us");
    m.push("wire.edge_to_cloud_bytes_per_op", eng.edge_to_cloud_bytes as f64 / ops, "B");
    m.push("wire.cloud_to_edge_bytes_per_op", eng.cloud_to_edge_bytes as f64 / ops, "B");
    m.push("wire.client_edge_bytes_per_get", eng.client_edge_get_bytes as f64 / gets, "B");
    m.note("engine_puts", eng.puts as f64);
    m.note("engine_gets", eng.gets as f64);
    m.note("engine_blocks_certified", eng.blocks_certified as f64);
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_workload_is_named_in_the_benchmark_file() {
        let json = include_str!("../../BENCHMARK.json");
        for spec in crate::workload::all() {
            assert!(json.contains(&format!("\"name\": \"{}\"", spec.name)), "{}", spec.name);
        }
    }
}
