//! # ipu-sim — trace-driven SSD simulator
//!
//! Replays block I/O traces against an `ipu-ftl` scheme running on an
//! `ipu-flash` device, modelling chip-level contention (operations serialize
//! FIFO per chip, parallelize across chips) and collecting the latency,
//! error-rate, endurance and memory metrics reported in the paper's
//! evaluation.
//!
//! ```
//! use ipu_sim::{replay, ReplayConfig};
//! use ipu_ftl::SchemeKind;
//! use ipu_trace::{IoRequest, OpKind};
//!
//! let cfg = ReplayConfig::small_for_tests(SchemeKind::Ipu);
//! let reqs = vec![IoRequest::new(0, OpKind::Write, 0, 4096)];
//! let report = replay(&cfg, &reqs, "demo");
//! assert_eq!(report.requests, 1);
//! ```

#![forbid(unsafe_code)]

pub mod closed_loop;
pub mod engine;
pub mod event_core;
pub mod power_loss;
pub mod resources;

pub use closed_loop::{replay_closed_loop, replay_closed_loop_with, ClosedLoopReport};
pub use engine::{replay, replay_oracle, replay_with_progress, ReplayConfig, SimReport};
pub use event_core::{EventCore, GcMode, TimingConfig};
// The latency/reliability histogram implementations live in `ipu-host` (the
// host interface aggregates per-tenant latency with the same types).
pub use ipu_host::metrics::{LatencyStats, ReliabilityStats};
pub use power_loss::{durable_snapshot, replay_with_power_loss, DurableSnapshot, PowerLossReport};
pub use resources::ChipSchedule;
