//! # ipu-host — NVMe-style multi-queue host interface
//!
//! Models the host side of the storage stack that open-loop trace replay
//! abstracts away: per-tenant submission/completion queues with a bounded
//! queue depth, **closed-loop admission** (a request enters only when a slot
//! frees, shifting arrival times under backpressure), pluggable arbitration
//! across tenants (round-robin, weighted round-robin, strict priority), and
//! per-tenant QoS metrics — submission-to-completion latency, time-weighted
//! queue-occupancy histograms, admission-stall time and a min/max throughput
//! fairness ratio.
//!
//! The engine is device-agnostic: [`run_closed_loop`] drives queues and
//! arbitration, delegating each dispatched request to a callback that returns
//! its completion time. `ipu-sim` supplies the real FTL + flash device as
//! that callback in `ipu_sim::replay_closed_loop`, through
//! [`run_closed_loop_with`], which reads the request streams in place and
//! hands each outcome to a sink instead of logging it.
//!
//! ```
//! use ipu_host::{run_closed_loop, HostConfig};
//!
//! // One tenant, queue depth 1, device that takes 100 ns per request:
//! // a burst of 3 requests at t=0 is admitted one at a time.
//! let cfg = HostConfig::single(1);
//! let (report, outcomes) = run_closed_loop(&cfg, &[vec![0, 0, 0]], {
//!     let mut busy = 0u64;
//!     move |_tenant, _seq, dispatch| {
//!         busy = dispatch.max(busy) + 100;
//!         busy
//!     }
//! });
//! assert_eq!(report.total_completed(), 3);
//! assert_eq!(outcomes.iter().map(|o| o.admit_ns).collect::<Vec<_>>(), vec![0, 100, 200]);
//! ```

#![forbid(unsafe_code)]

pub mod arbiter;
pub mod config;
pub mod metrics;
pub mod queue;

pub use arbiter::Arbiter;
pub use config::{ArbitrationPolicy, HostConfig, TenantSpec};
pub use metrics::{
    fairness_ratio, LatencyStats, OccupancyHistogram, ReliabilityStats, TenantMetrics,
};
pub use queue::{run_closed_loop, run_closed_loop_with, HostReport, RequestOutcome};
