//! # wedge-sim
//!
//! A deterministic discrete-event simulator standing in for the paper's
//! AWS testbed: the same protocol code, with the WAN and the machines'
//! processing replaced by a calibrated model. It provides:
//!
//! - [`time`]: virtual nanosecond clock ([`SimTime`], [`SimDuration`]).
//! - [`net`]: the five-region network model with the paper's Table I
//!   RTT matrix, bandwidth/transmission delays, and per-link FIFO
//!   queueing.
//! - [`actor`]: the [`Actor`] trait protocol nodes implement, plus the
//!   effect-buffering [`Context`].
//! - [`sim`]: the event-loop driver ([`Simulation`]) with CPU-busy
//!   modeling, timers, and deterministic replay.
//! - [`rng`]: a stable SplitMix64 PRNG.
//!
//! The protocol crates (`wedge-core`, `wedge-baselines`) implement
//! their nodes as [`Actor`]s; the bench harness builds a [`Simulation`]
//! per experiment, places actors in regions, and measures virtual-time
//! latency/throughput exactly as the paper measures wall-clock.

#![forbid(unsafe_code)]

pub mod actor;
pub mod net;
pub mod rng;
pub mod sim;
pub mod time;
pub mod trace;

pub use actor::{Actor, ActorId, Context, DeadlineTimer, TimerId};
pub use net::{format_table1, NetConfig, NetworkModel, Region, RTT_MS};
pub use rng::SimRng;
pub use sim::Simulation;
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceEvent, TraceKind};
