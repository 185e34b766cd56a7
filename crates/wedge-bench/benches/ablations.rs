//! Ablations of WedgeChain's design decisions: each run switches one
//! mechanism off and measures what it was buying.
//!
//! 1. **Data-free certification** (§IV-B): digests vs full blocks on
//!    the edge→cloud path — WAN bytes and Phase-II latency.
//! 2. **Lazy vs eager certification**: WedgeChain's Phase-I commit vs
//!    the Edge-baseline's synchronous certification, isolated at one
//!    configuration.
//! 3. **Gossip period**: omission-detection window vs gossip
//!    message overhead (§IV-E).

// Bench targets print their tables to stdout by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use wedge_baselines::{run_scenario, SystemKind};
use wedge_bench::banner;
use wedge_core::client::ClientPlan;
use wedge_core::config::SystemConfig;
use wedge_core::fault::FaultPlan;
use wedge_core::harness::SystemHarness;
use wedge_sim::SimTime;
use wedge_workload::Scenario;

fn ablation_data_free() {
    banner("Ablation 1", "Data-free vs data-full certification (B=1000, 50 batches)");
    println!(
        "{:<12} {:>18} {:>18} {:>14} {:>14}",
        "mode", "cert bytes", "total wan bytes", "p2 latency", "p1 latency"
    );
    for data_free in [true, false] {
        let cfg = SystemConfig { batch_size: 1000, data_free, ..SystemConfig::default() };
        let plan = ClientPlan::writer(50, 1000, 100, 100_000);
        let mut h = SystemHarness::wedgechain_with(cfg, plan, FaultPlan::honest());
        h.run(None);
        let agg = h.aggregate();
        let stats = &h.edge_node().stats;
        println!(
            "{:<12} {:>18} {:>18} {:>11.1} ms {:>11.1} ms",
            if data_free { "data-free" } else { "data-full" },
            stats.cert_bytes_to_cloud,
            stats.wan_bytes_to_cloud,
            agg.p2_latency_ms,
            agg.p1_latency_ms,
        );
    }
    println!("  (50 batches x 1000 ops x ~190 B: data-free certifies ~190 KB of blocks per 72-byte digest message)");
    println!("  (paper: certification needs only the digest — agreement on a one-way hash is agreement on the data)");
}

fn ablation_lazy() {
    banner("Ablation 2", "Lazy vs eager certification (B=500, same substrate)");
    let scenario =
        Scenario { batch_size: 500, batches_per_client: 20, ..Scenario::paper_default() };
    let wc = run_scenario(SystemKind::WedgeChain, SystemConfig::default(), &scenario);
    let eb = run_scenario(SystemKind::EdgeBaseline, SystemConfig::default(), &scenario);
    println!("  lazy  (WedgeChain commit at Phase I): {:>7.1} ms", wc.agg.p1_latency_ms);
    println!("  eager (certify-before-ack, = Edge-baseline): {:>7.1} ms", eb.agg.p1_latency_ms);
    println!(
        "  eager/lazy penalty: {:.1}x — the cost of keeping the cloud on the write path",
        eb.agg.p1_latency_ms / wc.agg.p1_latency_ms
    );
    println!(
        "  note: lazy defers certification; its Phase II completes at {:.1} ms (asynchronously, off the client's critical path)",
        wc.agg.p2_latency_ms
    );
}

fn ablation_gossip() {
    banner("Ablation 3", "Gossip period: omission-detection window vs overhead");
    println!(
        "{:<14} {:>14} {:>20} {:>22}",
        "period (ms)", "gossip msgs", "bytes/virtual-sec", "detection window (ms)"
    );
    for period in [0u64, 2_000, 1_000, 500, 250] {
        let cfg = SystemConfig { gossip_period_ms: period, ..SystemConfig::default() };
        let plan = ClientPlan::writer(40, 100, 100, 100_000);
        let mut h = SystemHarness::wedgechain_with(cfg, plan, FaultPlan::honest());
        // Fixed 30 s observation window so the overhead comparison is
        // apples-to-apples across periods.
        h.run(Some(SimTime::from_nanos(30_000_000_000)));
        let rounds = h.cloud_node().stats.gossip_rounds;
        let secs = 30.0;
        // Each round: one watermark + one global refresh per edge.
        let bytes_per_sec = rounds as f64 * (56.0 + 96.0) / secs;
        let window = if period == 0 { "unbounded".to_string() } else { format!("{period}") };
        println!(
            "{:<14} {:>14} {:>20.0} {:>22}",
            if period == 0 { "off".to_string() } else { period.to_string() },
            rounds,
            bytes_per_sec,
            window
        );
    }
    println!("  (an omission attack on block b is provable once a watermark with log_len > b arrives: the window is one gossip period)");
}

fn main() {
    ablation_data_free();
    ablation_lazy();
    ablation_gossip();
}
