//! Deterministic discrete-event simulation engine for the CrystalNet
//! reproduction.
//!
//! CrystalNet (SOSP '17) measures the *orchestration machinery itself*:
//! how long Mockup takes, where CPU goes during bring-up, how fast reloads
//! and VM recovery are. This crate provides the substrate those
//! measurements run on:
//!
//! * [`SimTime`] / [`SimDuration`] — virtual time,
//! * [`Engine`] — the event loop over a user-defined world,
//! * [`CpuServer`] — per-VM multi-core CPU accounting (Figure 9),
//! * [`SimRng`] — seeded, per-component random streams,
//! * [`HeartbeatSchedule`] / [`Backoff`] — health-monitor timing
//!   primitives (fault detection and bounded retry),
//! * [`metrics`] — percentile and time-series aggregation (Figure 8/9).
//!
//! Everything is deterministic given a seed: the engine orders events by
//! `(time, sequence)`, and all randomness is derived from [`SimRng`].

pub mod cpu;
pub mod engine;
pub mod heartbeat;
pub mod metrics;
pub mod parallel;
pub mod rng;
pub mod time;

pub use cpu::{CpuServer, UtilizationTracker};
pub use engine::{Engine, EngineCheckpoint, EventFire, EventId};
pub use heartbeat::{Backoff, HeartbeatSchedule};
pub use metrics::{LatencySummary, Series};
pub use parallel::{
    run_shards_until_quiet_matrix, LookaheadMatrix, ParallelOutcome, ParallelWorld, WindowHist,
};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
