//! Shared helpers for the figure/table bench targets.
//!
//! Each bench target regenerates one table or figure of the paper: it
//! sweeps the paper's parameters, runs the three systems on the
//! deterministic simulator, and prints the same rows/series the paper
//! plots. Absolute numbers depend on the calibrated cost model
//! (`wedge_core::cost::CostModel`, which models the paper's hardware,
//! not this code); the *shape* — who wins, by what factor, where the
//! crossovers are — is the reproduction target, and `shape_check`
//! gates it on each bench's JSON artifact.

#![forbid(unsafe_code)]
// Bench reporting prints by design: stdout is the table the paper
// compares against, stderr carries artifact-write diagnostics.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::sync::Mutex;
use std::time::{Duration, Instant};
use wedge_baselines::{run_scenario, RunOutput, SystemKind};
use wedge_core::config::SystemConfig;
use wedge_workload::Scenario;

/// One recorded micro-bench result (all durations in nanoseconds).
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// Bench name as printed in the table.
    pub name: String,
    /// Timed iterations.
    pub iters: u32,
    /// Mean across iterations, ns.
    pub mean_ns: u128,
    /// Median across iterations, ns.
    pub median_ns: u128,
    /// Fastest iteration, ns.
    pub min_ns: u128,
}

/// Every result recorded by [`bench_fn`]/[`bench_with_setup`] in this
/// process, in run order — the source for [`write_json`].
static RESULTS: Mutex<Vec<BenchRecord>> = Mutex::new(Vec::new());

/// Minimal real-time micro-bench harness (Criterion is not available
/// in the offline build environment): warm up, time `iters`
/// iterations individually, report mean / median / min.
pub fn bench_fn<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) {
    for _ in 0..iters.div_ceil(10).min(5) {
        std::hint::black_box(f());
    }
    bench_with_setup(name, iters, || (), |()| f());
}

/// Like [`bench_fn`], but rebuilds untimed input state before every
/// timed iteration (for consuming benchmarks such as merges) and
/// skips the warmup.
pub fn bench_with_setup<S, T>(
    name: &str,
    iters: u32,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(S) -> T,
) {
    let mut samples = Vec::with_capacity(iters as usize);
    for _ in 0..iters.max(1) {
        let input = setup();
        let t0 = Instant::now();
        std::hint::black_box(f(input));
        samples.push(t0.elapsed());
    }
    samples.sort();
    let total: Duration = samples.iter().sum();
    let mean = total / samples.len() as u32;
    let median = samples[samples.len() / 2];
    println!(
        "{name:<48} mean {:>11.3?}  median {:>11.3?}  min {:>11.3?}",
        mean, median, samples[0]
    );
    RESULTS.lock().unwrap().push(BenchRecord {
        name: name.to_string(),
        iters: iters.max(1),
        mean_ns: mean.as_nanos(),
        median_ns: median.as_nanos(),
        min_ns: samples[0].as_nanos(),
    });
}

/// Records an externally measured result — e.g. a *virtual-time*
/// latency from the deterministic simulator, where the metric is what
/// the protocol clock says, not how long the host took. The value
/// lands in the same results (and `BENCH_*.json`) as timed benches.
pub fn record_ns(name: &str, ns: u128) {
    RESULTS.lock().unwrap().push(BenchRecord {
        name: name.to_string(),
        iters: 1,
        mean_ns: ns,
        median_ns: ns,
        min_ns: ns,
    });
}

/// Records a fractional metric (ms, ratios, K ops/s) through the
/// integer-only JSON pipeline, scaled by 1000. Callers encode the
/// scale in the metric name (`..._x1000`).
pub fn record_x1000(name: &str, v: f64) {
    record_ns(name, (v * 1000.0).max(0.0) as u128);
}

/// Snapshot of every result recorded so far in this process.
pub fn recorded_results() -> Vec<BenchRecord> {
    RESULTS.lock().unwrap().clone()
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Serializes the recorded results as a JSON document (`{"bench":
/// <target>, "results": [...]}`). Hand-rolled: serde is unavailable in
/// the offline build image.
pub fn results_json(target: &str) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"bench\": \"{}\",\n", json_escape(target)));
    out.push_str("  \"results\": [\n");
    let results = recorded_results();
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"iters\": {}, \"mean_ns\": {}, \"median_ns\": {}, \"min_ns\": {}}}{comma}\n",
            json_escape(&r.name),
            r.iters,
            r.mean_ns,
            r.median_ns,
            r.min_ns,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes the recorded results to `BENCH_<target>.json` — the
/// machine-readable artifact CI uploads for regression tracking. The
/// directory is `$BENCH_JSON_DIR` if set, else the current directory.
/// Call once at the end of a bench target's `main`.
pub fn write_json(target: &str) {
    let dir = std::env::var("BENCH_JSON_DIR").unwrap_or_else(|_| ".".to_string());
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("\nfailed to create {dir}: {e}");
        return;
    }
    let path = std::path::Path::new(&dir).join(format!("BENCH_{target}.json"));
    match std::fs::write(&path, results_json(target)) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nfailed to write {}: {e}", path.display()),
    }
}

/// Prints a figure banner.
pub fn banner(id: &str, caption: &str) {
    println!();
    println!("================================================================");
    println!("{id} — {caption}");
    println!("================================================================");
}

/// Prints a latency table header for the three systems.
pub fn latency_header(xlabel: &str) {
    println!("{:<14} {:>14} {:>14} {:>16}", xlabel, "WedgeChain", "Cloud-only", "Edge-baseline");
}

/// Runs one scenario on all three systems.
pub fn run_all(cfg: &SystemConfig, scenario: &Scenario) -> [RunOutput; 3] {
    let wc = run_scenario(SystemKind::WedgeChain, cfg.clone(), scenario);
    let co = run_scenario(SystemKind::CloudOnly, cfg.clone(), scenario);
    let eb = run_scenario(SystemKind::EdgeBaseline, cfg.clone(), scenario);
    [wc, co, eb]
}

/// Formats milliseconds with one decimal.
pub fn ms(v: f64) -> String {
    format!("{v:.1} ms")
}

/// Formats K-operations-per-second with one decimal.
pub fn kops(v: f64) -> String {
    format!("{v:.2} K/s")
}
