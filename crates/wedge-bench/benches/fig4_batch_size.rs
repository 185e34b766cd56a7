//! Figure 4: put-operation performance while varying the batch size.
//!
//! (a) Phase-I commit latency and (b) throughput for batch sizes
//! 100–2000, one client, edge in California, cloud in Virginia.
//!
//! Paper reference points: WedgeChain 15→20 ms (<20 ms everywhere),
//! Cloud-only 78→83 ms, Edge-baseline 109→213 ms; throughput gains
//! from batching: WedgeChain ~15×, Cloud-only ~18.5×, Edge-baseline
//! worst.

// Bench targets print their tables to stdout by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use wedge_bench::{banner, latency_header, record_x1000, run_all, write_json};
use wedge_core::config::SystemConfig;
use wedge_workload::Scenario;

fn main() {
    let cfg = SystemConfig::default();
    let sweep = Scenario::fig4_batch_sizes();

    banner("Figure 4(a)", "Put latency (ms) vs batch size");
    latency_header("batch");
    let mut rows = Vec::new();
    for &batch in &sweep {
        let scenario =
            Scenario { batch_size: batch, batches_per_client: 30, ..Scenario::paper_default() };
        let out = run_all(&cfg, &scenario);
        println!(
            "{:<14} {:>14.1} {:>14.1} {:>16.1}",
            batch, out[0].agg.p1_latency_ms, out[1].agg.p1_latency_ms, out[2].agg.p1_latency_ms
        );
        rows.push((batch, out));
    }
    for (batch, out) in &rows {
        for (sys, o) in ["wc", "co", "eb"].iter().zip(out.iter()) {
            record_x1000(&format!("fig4/batch_{batch}/p1_ms_x1000_{sys}"), o.agg.p1_latency_ms);
            record_x1000(&format!("fig4/batch_{batch}/kops_x1000_{sys}"), o.agg.throughput_kops);
        }
    }

    banner("Figure 4(b)", "Put throughput (K ops/s) vs batch size");
    latency_header("batch");
    for (batch, out) in &rows {
        println!(
            "{:<14} {:>14.2} {:>14.2} {:>16.2}",
            batch,
            out[0].agg.throughput_kops,
            out[1].agg.throughput_kops,
            out[2].agg.throughput_kops
        );
    }

    // Shape checks (reported, not asserted, so the bench always
    // completes; `shape_check` gates them on the JSON artifact).
    let first = &rows.first().unwrap().1;
    let last = &rows.last().unwrap().1;
    let wc_gain = last[0].agg.throughput_kops / first[0].agg.throughput_kops;
    let co_gain = last[1].agg.throughput_kops / first[1].agg.throughput_kops;
    let eb_gain = last[2].agg.throughput_kops / first[2].agg.throughput_kops;
    println!("\nshape checks:");
    println!(
        "  latency order WC < CO < EB at every point: {}",
        rows.iter().all(|(_, o)| o[0].agg.p1_latency_ms < o[1].agg.p1_latency_ms
            && o[1].agg.p1_latency_ms < o[2].agg.p1_latency_ms)
    );
    println!("  WedgeChain batching gain   (paper ~15x):  {wc_gain:.1}x");
    println!("  Cloud-only batching gain   (paper ~18.5x): {co_gain:.1}x");
    println!("  Edge-baseline batching gain (paper worst): {eb_gain:.1}x");
    record_x1000("fig4/summary/wc_gain_x1000", wc_gain);
    record_x1000("fig4/summary/co_gain_x1000", co_gain);
    record_x1000("fig4/summary/eb_gain_x1000", eb_gain);
    write_json("fig4_batch_size");
}
