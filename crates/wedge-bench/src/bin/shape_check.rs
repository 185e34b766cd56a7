//! Shape checker for `BENCH_*.json` regression artifacts.
//!
//! CI used to upload the JSON and rely on a human diffing it against
//! the previous run. This binary encodes the *shape* each bench must
//! have — which metric keys exist and which inequalities hold between
//! them — so a regression fails the job instead of waiting for
//! someone to read the artifact:
//!
//! ```text
//! shape_check bench-json/BENCH_compaction_decay.json ...
//! ```
//!
//! Two kinds of check per known bench:
//!
//! - **keys**: every metric the bench promises is present (a renamed
//!   or dropped series silently breaks downstream tracking);
//! - **bounds**: the claims the bench exists to defend, e.g.
//!   `delta_reply_bytes` stays ~flat while the target grows 16x, or
//!   `partial_pages_on` stays bounded while the off-twin's debris
//!   does not shrink.
//!
//! Unknown benches only get the generic structural check. The parser
//! targets exactly the format `wedge_bench::write_json` emits (one
//! result object per line) — it is a checker for our own artifacts,
//! not a general JSON reader.

// CI gate CLI: verdicts go to stdout/stderr by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Parsed artifact: bench name plus `name -> mean_ns` (all compaction
/// and wire-size metrics are exact counts, so mean == median == min)
/// and `name -> median_ns` for the timed rows.
struct Artifact {
    bench: String,
    metrics: BTreeMap<String, u64>,
    medians: BTreeMap<String, u64>,
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

fn parse(path: &str) -> Result<Artifact, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut bench = None;
    let mut metrics = BTreeMap::new();
    let mut medians = BTreeMap::new();
    for line in text.lines() {
        if bench.is_none() {
            if let Some(b) = field(line, "bench") {
                bench = Some(b.to_string());
                continue;
            }
        }
        if let (Some(name), Some(mean)) = (field(line, "name"), field(line, "mean_ns")) {
            let mean: u64 =
                mean.parse().map_err(|_| format!("{path}: non-integer mean_ns in {name}"))?;
            metrics.insert(name.to_string(), mean);
            if let Some(median) = field(line, "median_ns").and_then(|m| m.parse().ok()) {
                medians.insert(name.to_string(), median);
            }
        }
    }
    let bench = bench.ok_or(format!("{path}: no \"bench\" field"))?;
    if metrics.is_empty() {
        return Err(format!("{path}: no results"));
    }
    Ok(Artifact { bench, metrics, medians })
}

/// One failed expectation, formatted for the CI log.
type Failure = String;

fn require(a: &Artifact, key: &str, failures: &mut Vec<Failure>) -> u64 {
    match a.metrics.get(key) {
        Some(v) => *v,
        None => {
            failures.push(format!("missing metric: {key}"));
            0
        }
    }
}

fn require_median(a: &Artifact, key: &str, failures: &mut Vec<Failure>) -> u64 {
    match a.medians.get(key) {
        Some(v) => *v,
        None => {
            failures.push(format!("missing median: {key}"));
            0
        }
    }
}

/// Sign and verify as multiples of one 64-byte SHA-256 on the same
/// host, so the bar holds on any machine. With double-and-add field
/// arithmetic sign measured ~300x and verify ~680x; the bar sits a
/// few times above what the pseudo-Mersenne fold reaches (~10x).
fn check_micro_crypto(a: &Artifact, failures: &mut Vec<Failure>) {
    const MAX_SHA_MULTIPLE: u64 = 64;
    let sha = require_median(a, "sha256_64b", failures).max(1);
    for op in ["schnorr_sign_256b", "schnorr_verify_256b"] {
        let ns = require_median(a, op, failures);
        if ns > MAX_SHA_MULTIPLE * sha {
            failures.push(format!(
                "{op}: median {ns} ns is {:.0}x sha256_64b ({sha} ns), above the {MAX_SHA_MULTIPLE}x bar",
                ns as f64 / sha as f64
            ));
        }
    }
}

fn check_compaction_decay(a: &Artifact, failures: &mut Vec<Failure>) {
    let targets = [1_024u64, 4_096, 16_384];
    let hashes: Vec<u64> = targets
        .iter()
        .map(|t| {
            require(
                a,
                &format!("compaction_decay/target_{t}/interior_hashes_small_merge"),
                failures,
            )
        })
        .collect();
    let pages: Vec<u64> = targets
        .iter()
        .map(|t| require(a, &format!("compaction_decay/target_{t}/level_pages"), failures))
        .collect();
    // O(delta), not O(level): growing the level 16x may add the
    // log-depth path but nothing like the page count. A rebuild costs
    // ~level_pages interior hashes; demand an order of magnitude under
    // that, and absolute growth bounded by the depth increase.
    if hashes.last().unwrap() * 8 >= *pages.last().unwrap() {
        failures.push(format!(
            "interior hashes scale with level size: {} hashes for a {}-page level",
            hashes.last().unwrap(),
            pages.last().unwrap()
        ));
    }
    if hashes.last().unwrap().saturating_sub(hashes[0]) > 16 {
        failures.push(format!("interior hashes not ~flat across 16x: {hashes:?}"));
    }

    let cycles = 24u64;
    let mut last = (0u64, 0u64);
    let mut max_on = 0u64;
    for c in 0..cycles {
        let on = require(a, &format!("compaction_decay/cycle_{c}/partial_pages_on"), failures);
        let off = require(a, &format!("compaction_decay/cycle_{c}/partial_pages_off"), failures);
        let pages_on = require(a, &format!("compaction_decay/cycle_{c}/total_pages_on"), failures);
        let pages_off =
            require(a, &format!("compaction_decay/cycle_{c}/total_pages_off"), failures);
        // Monotone bound: the compacting twin never holds more pages
        // than the identical workload without compaction.
        if pages_on > pages_off {
            failures.push(format!(
                "cycle {c}: compacting store has MORE pages ({pages_on} > {pages_off})"
            ));
        }
        max_on = max_on.max(on);
        last = (on, off);
    }
    let summary_max = require(a, "compaction_decay/summary/max_partial_pages_on", failures);
    if summary_max != max_on {
        failures
            .push(format!("summary max_partial_pages_on {summary_max} != per-cycle max {max_on}"));
    }
    if require(a, "compaction_decay/summary/fold_runs", failures) == 0 {
        failures.push("compactor never folded anything".into());
    }
    let folded_in = require(a, "compaction_decay/summary/pages_folded_in", failures);
    let folded_out = require(a, "compaction_decay/summary/pages_folded_out", failures);
    if folded_in <= folded_out {
        failures.push(format!("folds did not shrink: {folded_in} pages -> {folded_out}"));
    }
    // Bounded decay: once the hot range has moved on, the compacting
    // twin must end at or below the frozen-debris twin.
    if last.0 > last.1 {
        failures.push(format!("final partial pages: compaction on {} > off {}", last.0, last.1));
    }
}

fn check_merge_reply_bytes(a: &Artifact, failures: &mut Vec<Failure>) {
    let targets = [2_048u64, 8_192, 32_768];
    let mut deltas = Vec::new();
    for t in targets {
        let full = require(a, &format!("merge_reply_bytes/target_{t}/full_reply_bytes"), failures);
        let delta =
            require(a, &format!("merge_reply_bytes/target_{t}/delta_reply_bytes"), failures);
        require(a, &format!("merge_reply_bytes/target_{t}/pages_reused"), failures);
        require(a, &format!("merge_reply_bytes/target_{t}/pages_shipped"), failures);
        if delta >= full {
            failures.push(format!(
                "target {t}: delta reply ({delta} B) not smaller than full ({full} B)"
            ));
        }
        deltas.push(delta);
    }
    // The delta reply scales with changed pages plus 5 B/reference —
    // a 16x target may grow it by the references, not by 16x.
    if *deltas.last().unwrap() > deltas[0] * 4 {
        failures.push(format!("delta_reply_bytes not ~flat across 16x: {deltas:?}"));
    }
}

fn check_merge_request_bytes(a: &Artifact, failures: &mut Vec<Failure>) {
    let targets = [2_048u64, 8_192, 32_768];
    let mut deltas = Vec::new();
    let mut reused = Vec::new();
    let mut last_ratio = 0u64;
    for t in targets {
        let full =
            require(a, &format!("merge_request_bytes/target_{t}/full_request_bytes"), failures);
        let delta =
            require(a, &format!("merge_request_bytes/target_{t}/delta_request_bytes"), failures);
        let r = require(a, &format!("merge_request_bytes/target_{t}/pages_reused"), failures);
        require(a, &format!("merge_request_bytes/target_{t}/pages_shipped"), failures);
        if delta >= full {
            failures.push(format!(
                "target {t}: delta request ({delta} B) not smaller than full ({full} B)"
            ));
        }
        deltas.push(delta);
        reused.push(r);
        last_ratio = full.checked_div(delta).unwrap_or(0);
    }
    // The delta request scales with the changed pages plus 5 B per
    // retained-page reference — a 16x target may grow it by the
    // references, not by 16x.
    if *deltas.last().unwrap() > deltas[0] * 4 {
        failures.push(format!("delta_request_bytes not ~flat across 16x: {deltas:?}"));
    }
    // References must track the retained level: 16x the target pages
    // means 16x the reused references, not a constant.
    if *reused.last().unwrap() < reused[0] * 8 {
        failures.push(format!("pages_reused does not scale with the retained level: {reused:?}"));
    }
    // Headline claim (PR 7 acceptance): at the largest target the full
    // request is at least 10x the delta.
    if last_ratio < 10 {
        failures.push(format!(
            "full/delta ratio at largest target is {last_ratio}x, below the 10x bar"
        ));
    }
}

fn check_merge_cpu_parallel(a: &Artifact, failures: &mut Vec<Failure>) {
    for w in [1u64, 2, 4, 8] {
        require(a, &format!("merge_wall_ns_p{w}"), failures);
        require(a, &format!("merge_cpu_ns_p{w}"), failures);
    }
    // Determinism is non-negotiable: the wire-encoded MergeResult must
    // be byte-identical at every pool width.
    if require(a, "roots_match", failures) != 1 {
        failures.push("merge results are NOT byte-identical across pool widths".into());
    }
    // The caller-thread CPU speedup is scheduler-independent (condvar
    // waits accrue no thread CPU), so it must show the fan-out on any
    // host, single-core CI runners included.
    let cpu_speedup = require(a, "speedup_cpu_x1000_p4", failures);
    if cpu_speedup < 2_000 {
        failures.push(format!(
            "caller-thread CPU speedup at width 4 is {:.2}x, below the 2x bar",
            cpu_speedup as f64 / 1000.0
        ));
    }
    // Wall clock can only improve where the cores exist.
    let wall_speedup = require(a, "speedup_wall_x1000_p4", failures);
    if require(a, "host_parallelism", failures) >= 4 && wall_speedup < 2_000 {
        failures.push(format!(
            "wall-clock speedup at width 4 is {:.2}x on a >=4-core host, below the 2x bar",
            wall_speedup as f64 / 1000.0
        ));
    }
}

/// Fetch the {wc, co, eb} triple for one sweep point.
fn triple(a: &Artifact, prefix: &str, metric: &str, failures: &mut Vec<Failure>) -> [u64; 3] {
    ["wc", "co", "eb"].map(|sys| require(a, &format!("{prefix}/{metric}_{sys}"), failures))
}

fn check_fig4_batch_size(a: &Artifact, failures: &mut Vec<Failure>) {
    for batch in [100u64, 500, 1000, 1500, 2000] {
        let prefix = format!("fig4/batch_{batch}");
        let [wc, co, eb] = triple(a, &prefix, "p1_ms_x1000", failures);
        triple(a, &prefix, "kops_x1000", failures);
        // The paper's headline ordering at every batch size.
        if !(wc < co && co < eb) {
            failures.push(format!(
                "batch {batch}: latency order violated (WC {wc} < CO {co} < EB {eb} expected)"
            ));
        }
    }
    let wc_gain = require(a, "fig4/summary/wc_gain_x1000", failures);
    let co_gain = require(a, "fig4/summary/co_gain_x1000", failures);
    let eb_gain = require(a, "fig4/summary/eb_gain_x1000", failures);
    // Batching pays off roughly an order of magnitude (paper: WC ~15x,
    // CO ~18.5x) and the edge baseline profits least.
    if wc_gain < 8_000 {
        failures.push(format!("WedgeChain batching gain {wc_gain} < 8x (paper ~15x)"));
    }
    if co_gain < 10_000 {
        failures.push(format!("Cloud-only batching gain {co_gain} < 10x (paper ~18.5x)"));
    }
    if eb_gain >= wc_gain || eb_gain >= co_gain {
        failures.push(format!(
            "edge baseline should profit least from batching: EB {eb_gain} vs WC {wc_gain} / CO {co_gain}"
        ));
    }
}

fn check_fig5_clients(a: &Artifact, failures: &mut Vec<Failure>) {
    let clients = [1u64, 3, 5, 7, 9];
    for sweep in ["fig5a", "fig5b", "fig5c"] {
        for c in clients {
            triple(a, &format!("{sweep}/clients_{c}"), "kops_x1000", failures);
        }
    }
    // (a): added concurrency helps Cloud-only the most (paper +433%).
    let wc_gain = require(a, "fig5/summary/a_wc_gain_pct_x1000", failures);
    let co_gain = require(a, "fig5/summary/a_co_gain_pct_x1000", failures);
    if co_gain <= wc_gain {
        failures.push(format!(
            "fig5(a): Cloud-only should gain most from concurrency (CO +{co_gain} vs WC +{wc_gain})"
        ));
    }
    // (b) at 9 clients: WC > EB > CO.
    let [wc, co, eb] = triple(a, "fig5b/clients_9", "kops_x1000", failures);
    if !(wc > eb && eb > co) {
        failures.push(format!(
            "fig5(b) @9 clients: expected WC > EB > CO, got WC {wc} / EB {eb} / CO {co}"
        ));
    }
    // (c) at 9 clients: Cloud-only reads far behind (less than half WC).
    let [wc, co, _] = triple(a, "fig5c/clients_9", "kops_x1000", failures);
    if co * 2 >= wc {
        failures.push(format!("fig5(c) @9 clients: Cloud-only ({co}) not far behind WC ({wc})"));
    }
}

fn check_fig6_commit_phases(a: &Artifact, failures: &mut Vec<Failure>) {
    let lags: Vec<u64> = [100u64, 500, 1000]
        .iter()
        .map(|b| {
            let prefix = format!("fig6/batch_{b}");
            require(a, &format!("{prefix}/p1_done_s_x1000"), failures);
            require(a, &format!("{prefix}/p2_done_s_x1000"), failures);
            require(a, &format!("{prefix}/p2_lag_x1000"), failures)
        })
        .collect();
    // Paper: P2 keeps pace at B=100, lags behind at larger batches, and
    // the lag grows with the batch size.
    if lags[0] > 1_300 {
        failures.push(format!("P2 lag at B=100 is {}x1000, should be ~1x", lags[0]));
    }
    if !(lags[0] <= lags[1] && lags[1] <= lags[2]) {
        failures.push(format!("P2 lag not monotone in batch size: {lags:?}"));
    }
    if lags[2] < 1_700 {
        failures.push(format!("P2 lag at B=1000 is {}x1000, paper says >1.7x", lags[2]));
    }
}

fn check_fig7_locations(a: &Artifact, failures: &mut Vec<Failure>) {
    // (a) WedgeChain stays flat while the cloud moves away; the
    // cloud-bound baselines track the distance.
    let mut co = Vec::new();
    for cloud in ["O", "V", "I", "M"] {
        let [_, c, _] = triple(a, &format!("fig7a/cloud_{cloud}"), "p1_ms_x1000", failures);
        co.push(c);
    }
    let spread = require(a, "fig7a/summary/wc_spread_ms_x1000", failures);
    if spread > 2_000 {
        failures.push(format!(
            "fig7(a): WedgeChain spread across cloud locations is {spread} (x1000 ms), paper ~2 ms"
        ));
    }
    if co.last().unwrap().saturating_sub(co[0]) < 50_000 {
        failures.push(format!("fig7(a): Cloud-only should track the cloud distance, got {co:?}"));
    }
    // (b) WedgeChain tracks the client↔edge RTT: monotone in distance.
    let wc: Vec<u64> = ["C", "O", "V", "I", "M"]
        .iter()
        .map(|e| triple(a, &format!("fig7b/edge_{e}"), "p1_ms_x1000", failures)[0])
        .collect();
    if !wc.windows(2).all(|w| w[0] < w[1]) {
        failures.push(format!("fig7(b): WedgeChain latency not monotone in edge distance: {wc:?}"));
    }
}

fn check_load_open_loop(a: &Artifact, failures: &mut Vec<Failure>) {
    // The allocation-free encode path: pooled encode must allocate
    // strictly less than the fresh path (PR 9 acceptance), and its
    // bytes-per-op must not exceed the baseline's.
    let fresh_allocs = require(a, "encode_fresh_allocs_per_op_x1000", failures);
    let pooled_allocs = require(a, "encode_pooled_allocs_per_op_x1000", failures);
    let fresh_bytes = require(a, "encode_fresh_bytes_per_op_x1000", failures);
    let pooled_bytes = require(a, "encode_pooled_bytes_per_op_x1000", failures);
    if pooled_allocs >= fresh_allocs {
        failures.push(format!(
            "pooled encode does not reduce allocations/op: {pooled_allocs} >= {fresh_allocs} (x1000)"
        ));
    }
    if pooled_bytes > fresh_bytes {
        failures.push(format!(
            "pooled encode allocates more bytes/op than fresh: {pooled_bytes} > {fresh_bytes} (x1000)"
        ));
    }
    // Latency percentiles exist for both runtimes and order sanely:
    // p50 <= p95 <= p99 <= p999, none zero.
    for rt in ["threaded", "net"] {
        if require(a, &format!("{rt}_throughput_kops_x1000"), failures) == 0 {
            failures.push(format!("{rt}: zero throughput"));
        }
        for op in ["put", "get"] {
            let ps: Vec<u64> = ["p50", "p95", "p99", "p999"]
                .iter()
                .map(|p| require(a, &format!("{rt}_{op}_{p}_us_x1000"), failures))
                .collect();
            if ps[0] == 0 {
                failures.push(format!("{rt} {op}: zero p50"));
            }
            if !ps.windows(2).all(|w| w[0] <= w[1]) {
                failures.push(format!("{rt} {op}: percentiles not monotone: {ps:?}"));
            }
        }
    }
    // Coalescing must actually fire under pipelined load, and the run
    // must not have dropped frames.
    if require(a, "net_coalesced_frames", failures) == 0 {
        failures.push("no frames coalesced under pipelined load".into());
    }
    if require(a, "net_failed_sends", failures) != 0 {
        failures.push("frames were dropped during the load run".into());
    }
}

fn check_table1_rtt(a: &Artifact, failures: &mut Vec<Failure>) {
    for region in ["C", "O", "V", "I", "M"] {
        let cfg = require(a, &format!("table1/cfg_rtt_ms_C_{region}"), failures);
        let measured = require(a, &format!("table1/measured_rtt_ms_x1000_C_{region}"), failures);
        if region == "C" {
            // Table I lists 0 for C↔C; the model substitutes the local
            // (metro) RTT, which must be small but nonzero.
            if measured == 0 || measured > 20_000 {
                failures.push(format!("C->C->C local RTT {measured} (x1000 ms) out of range"));
            }
        } else if measured < cfg * 1_000 || measured > cfg * 1_000 + 1_000 {
            // The probe pays serialization for its 64 B + overhead on
            // top of the propagation delay — allow under a millisecond.
            failures.push(format!(
                "C->{region}->C measured RTT {measured} (x1000 ms) not within 1 ms of configured {cfg} ms"
            ));
        }
    }
}

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: shape_check <BENCH_*.json>...");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in &paths {
        let artifact = match parse(path) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("FAIL {e}");
                failed = true;
                continue;
            }
        };
        let mut failures = Vec::new();
        match artifact.bench.as_str() {
            "compaction_decay" => check_compaction_decay(&artifact, &mut failures),
            "micro_crypto" => check_micro_crypto(&artifact, &mut failures),
            "merge_cpu_parallel" => check_merge_cpu_parallel(&artifact, &mut failures),
            "merge_reply_bytes" => check_merge_reply_bytes(&artifact, &mut failures),
            "merge_request_bytes" => check_merge_request_bytes(&artifact, &mut failures),
            "fig4_batch_size" => check_fig4_batch_size(&artifact, &mut failures),
            "fig5_clients" => check_fig5_clients(&artifact, &mut failures),
            "fig6_commit_phases" => check_fig6_commit_phases(&artifact, &mut failures),
            "fig7_locations" => check_fig7_locations(&artifact, &mut failures),
            "load_open_loop" => check_load_open_loop(&artifact, &mut failures),
            "table1_rtt" => check_table1_rtt(&artifact, &mut failures),
            // Other benches: the generic structural parse (bench name
            // + at least one well-formed result) is the whole check.
            _ => {}
        }
        if failures.is_empty() {
            println!("ok   {path}: {} ({} metrics)", artifact.bench, artifact.metrics.len());
        } else {
            failed = true;
            eprintln!("FAIL {path}: {}", artifact.bench);
            for f in &failures {
                eprintln!("  - {f}");
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
