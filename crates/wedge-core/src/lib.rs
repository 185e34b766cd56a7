//! # wedge-core
//!
//! The WedgeChain protocol (§III–V of the paper), implemented as
//! deterministic state machines driven by `wedge-sim`:
//!
//! - [`client`]: authenticated clients — workload driver, receipt
//!   holder, proof verifier, dispute filer.
//! - [`edge`]: the untrusted edge node — seals blocks, issues signed
//!   Phase-I receipts, certifies lazily (digests only), serves proofs;
//!   [`fault::FaultPlan`] scripts its lies.
//! - [`cloud`]: the trusted cloud node — certification ledger, merge
//!   verification, gossip watermarks, dispute rulings, punishment.
//! - [`messages`]: the protocol message set with wire sizes (the
//!   data-free certification message is 72 bytes regardless of block
//!   size).
//! - [`engine`]: the sans-IO protocol engines
//!   ([`engine::EdgeEngine`], [`engine::CloudEngine`]) — the single
//!   implementation of the protocol, shared by every runtime.
//! - [`harness`]: one-call deployment builder
//!   ([`harness::SystemHarness`]) used by examples, tests and benches.
//! - [`cost`]: the calibrated CPU cost model; [`config`]: deployment
//!   knobs; [`metrics`]: latency/timeline collection.
//! - [`driver`]: the real-time cluster — service threads around the
//!   same engines, generic over the link between them;
//!   [`threaded`] names it over the in-process link.

#![forbid(unsafe_code)]

// Lets the driver's scenario suite name this crate `wedge_core`, the
// same path it uses when `wedge-net` includes it.
#[cfg(test)]
extern crate self as wedge_core;

pub mod client;
pub mod cloud;
pub mod config;
pub mod cost;
pub mod driver;
pub mod edge;
pub mod engine;
pub mod fault;
pub mod harness;
pub mod messages;
pub mod metrics;
pub mod threaded;

pub use client::{ClientNode, ClientPlan, GetOutcome, PutOutcome};
pub use cloud::{CloudNode, CloudStats};
pub use config::{CryptoMode, SystemConfig};
pub use cost::CostModel;
pub use edge::{EdgeNode, EdgeStats};
pub use engine::{
    ClientCommand, ClientEffect, ClientEngine, ClientEvent, CloudCommand, CloudEffect, CloudEngine,
    EdgeCommand, EdgeEffect, EdgeEngine,
};
pub use fault::FaultPlan;
pub use harness::{Aggregate, MultiPartitionHarness, SystemHarness};
pub use messages::{AddReceipt, Dispute, DisputeVerdict, Msg, ReadReceipt, WireMsg};
pub use metrics::{ClientMetrics, LatencyStats, Timeline};
