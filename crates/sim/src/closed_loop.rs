//! Closed-loop replay: the `ipu-host` multi-queue interface in front of the
//! FTL + flash device.
//!
//! Open-loop [`replay`](crate::replay) fires every request at its trace
//! timestamp no matter how far the device has fallen behind. Real hosts
//! block once their queue depth is exhausted; [`replay_closed_loop`] models
//! that: per-tenant bounded submission queues, an arbitration policy across
//! tenants, and admission that waits for queue slots — so arrival times
//! shift under backpressure and per-tenant QoS becomes measurable.
//!
//! The replay keeps no per-request log and makes no copy of the request
//! streams: the host engine reads arrival times from the streams in place
//! and hands each completed request's outcome to a sink, which records the
//! read, write and admission-stall populations and then passes the outcome
//! on to the caller's own sink ([`replay_closed_loop_with`]). The overall
//! service latency and the request count come from the host report's
//! per-tenant metrics, which hold the same populations.

use ipu_host::{run_closed_loop_with, HostConfig, HostReport, RequestOutcome};
use ipu_trace::{IoRequest, OpKind};
use serde::{Deserialize, Serialize};

use crate::drive::Drive;
use crate::engine::{ReplayConfig, SimReport};
use ipu_host::metrics::LatencyStats;

/// Result of one closed-loop run: the device-side aggregates of an open-loop
/// [`SimReport`] plus the host-side per-tenant QoS report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClosedLoopReport {
    /// Device/FTL metrics, with latencies measured admission→completion
    /// (queue service time). Submission→completion latency is this plus the
    /// admission stall recorded in [`queue_latency`](Self::queue_latency):
    /// for every request, `(completion − arrival) = (admit − arrival) +
    /// (completion − admit)`.
    pub sim: SimReport,
    /// Per-tenant queues, stalls, occupancy and fairness.
    pub host: HostReport,
    /// Admission stall (`admit − arrival`) of every request: the time spent
    /// blocked outside a full submission queue before service begins. Absent
    /// in reports saved before the stall/service latency split.
    #[serde(default)]
    pub queue_latency: LatencyStats,
}

/// Replays per-tenant request streams through the closed-loop host
/// interface. `workloads[t]` (sorted by arrival time) feeds tenant `t` of
/// `host.tenants`; requests dispatch into the same FTL + chip schedule an
/// open-loop replay uses, at their *dispatch* times.
pub fn replay_closed_loop(
    cfg: &ReplayConfig,
    host: &HostConfig,
    workloads: &[Vec<IoRequest>],
    trace_name: &str,
) -> ClosedLoopReport {
    replay_closed_loop_with(cfg, host, workloads, trace_name, |_| {})
}

/// [`replay_closed_loop`] handing every request's outcome (arrival,
/// admission, dispatch and completion times, and `(tenant, seq)` to find the
/// request in `workloads`) to `on_complete`, once, in completion order: by
/// `(completion, tenant, seq)`.
pub fn replay_closed_loop_with(
    cfg: &ReplayConfig,
    host: &HostConfig,
    workloads: &[Vec<IoRequest>],
    trace_name: &str,
    mut on_complete: impl FnMut(&RequestOutcome),
) -> ClosedLoopReport {
    assert_eq!(
        workloads.len(),
        host.tenants.len(),
        "one workload per configured tenant"
    );

    let mut drive = Drive::new(cfg);
    // Queue service latency (admission→completion) split by op kind, plus
    // the admission stall (arrival→admission) as its own population.
    let mut read_latency = LatencyStats::new();
    let mut write_latency = LatencyStats::new();
    let mut queue_latency = LatencyStats::new();

    let host_report = run_closed_loop_with(
        host,
        workloads,
        |req| req.timestamp_ns,
        // The device serves each request at its dispatch time: in a closed
        // loop it never learns the host wanted to send it earlier. Kept out
        // of the host engine's loop: inlined there, the drive made the
        // closed-loop benchmark workload about 4% slower.
        #[inline(never)]
        |tenant, seq, dispatch| drive.serve(&workloads[tenant][seq], dispatch),
        |o| {
            let latency = o.completion_ns - o.admit_ns;
            queue_latency.record(o.admit_ns - o.arrival_ns);
            match workloads[o.tenant][o.seq].op {
                OpKind::Read => read_latency.record(latency),
                OpKind::Write => write_latency.record(latency),
            }
            on_complete(o);
        },
    );

    // Each tenant's service latency records the same admission→completion
    // times, so their merge is the whole population.
    let overall_latency = host_report.overall_service_latency();
    let sim = drive.into_report(
        trace_name,
        host_report.total_completed(),
        [read_latency, write_latency, overall_latency],
    );
    ClosedLoopReport {
        sim,
        host: host_report,
        queue_latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::replay;
    use ipu_ftl::SchemeKind;
    use ipu_host::{ArbitrationPolicy, TenantSpec};

    fn workload(n: u64, offset_base: u64, spacing_ns: u64) -> Vec<IoRequest> {
        (0..n)
            .map(|i| {
                let op = if i % 4 == 3 {
                    OpKind::Read
                } else {
                    OpKind::Write
                };
                IoRequest::new(i * spacing_ns, op, offset_base + (i % 8) * 65536, 4096)
            })
            .collect()
    }

    /// Closed-loop QD=1 with a single tenant serializes requests, and an
    /// open-loop replay fed those dispatch times reproduces the whole
    /// report: latencies, FTL, device, wear, mapping, horizon, busy time and
    /// reliability, with and without faults.
    #[test]
    fn qd1_single_tenant_matches_serialized_open_loop() {
        // Bursty, so the device is outpaced, and long enough that the heavy
        // profile retires a block under every scheme.
        let reqs = workload(400, 0, 1_000);
        for profile in ["none", "heavy"] {
            let (fault, retry) = ipu_flash::FaultProfile::named(profile).unwrap();
            for scheme in SchemeKind::all_extended() {
                let mut cfg = ReplayConfig::small_for_tests(scheme);
                cfg.device.fault = fault.clone();
                cfg.device.retry = retry.clone();
                // At QD 1 requests complete in dispatch order.
                let mut serialized = Vec::new();
                let closed = replay_closed_loop_with(
                    &cfg,
                    &HostConfig::single(1),
                    std::slice::from_ref(&reqs),
                    "t",
                    |o| {
                        serialized.push(IoRequest {
                            timestamp_ns: o.dispatch_ns,
                            ..reqs[o.seq]
                        })
                    },
                );
                let open = replay(&cfg, &serialized, "t");
                assert_eq!(
                    serde_json::to_string(&closed.sim).unwrap(),
                    serde_json::to_string(&open).unwrap(),
                    "{profile} {scheme}: reports diverge"
                );
                if profile == "heavy" {
                    assert!(open.ftl.retired_blocks > 0, "{scheme}: no block retired");
                }
            }
        }
    }

    #[test]
    fn closed_loop_bounds_inflight_requests() {
        let cfg = ReplayConfig::small_for_tests(SchemeKind::Ipu);
        let host = HostConfig::single(4);
        // Everything arrives at t=0: open loop would see huge queueing
        // latency; closed loop bounds host-visible latency via admission.
        let burst: Vec<IoRequest> = (0..32)
            .map(|i| IoRequest::new(0, OpKind::Write, i * 65536, 4096))
            .collect();
        let closed = replay_closed_loop(&cfg, &host, std::slice::from_ref(&burst), "burst");
        let open = replay(&cfg, &burst, "burst");
        assert_eq!(closed.sim.requests, 32);
        assert!(
            closed.sim.overall_latency.max_ns() < open.overall_latency.max_ns(),
            "closed loop ({}) must bound queueing below open loop ({})",
            closed.sim.overall_latency.max_ns(),
            open.overall_latency.max_ns()
        );
        let t = &closed.host.tenants[0];
        assert!(t.stalled_requests > 0, "a QD-4 queue must stall a 32-burst");
        assert!(t.occupancy.mean() <= 4.0 + 1e-9);
    }

    #[test]
    fn multi_tenant_run_produces_coherent_report() {
        let cfg = ReplayConfig::small_for_tests(SchemeKind::Ipu);
        let host = HostConfig::new(
            8,
            ArbitrationPolicy::RoundRobin,
            vec![TenantSpec::new("a"), TenantSpec::new("b")],
        );
        let wl = vec![workload(30, 0, 50_000), workload(30, 1 << 24, 50_000)];
        let closed = replay_closed_loop(&cfg, &host, &wl, "pair");
        assert_eq!(closed.sim.requests, 60);
        assert_eq!(closed.host.total_completed(), 60);
        // Per-tenant latency populations partition the overall population.
        let merged = closed.host.overall_service_latency();
        assert_eq!(merged.count(), closed.sim.overall_latency.count());
        assert_eq!(merged.sum_ns(), closed.sim.overall_latency.sum_ns());
        assert!(closed.host.fairness > 0.0 && closed.host.fairness <= 1.0);
        assert!(closed.host.horizon_ns <= closed.sim.simulated_horizon_ns);
    }

    /// The latency-accounting split: submission→completion latency is the
    /// admission stall plus the queue service time, per request and pooled.
    #[test]
    fn submission_latency_is_stall_plus_service() {
        let cfg = ReplayConfig::small_for_tests(SchemeKind::Ipu);
        let host = HostConfig::single(2);
        // A burst at t=0 guarantees nonzero admission stalls at QD=2.
        let burst: Vec<IoRequest> = (0..24)
            .map(|i| IoRequest::new(0, OpKind::Write, (i % 8) * 65536, 4096))
            .collect();
        let mut outcomes = Vec::new();
        let closed = replay_closed_loop_with(&cfg, &host, std::slice::from_ref(&burst), "b", |o| {
            outcomes.push(*o)
        });

        for o in &outcomes {
            let submission = o.completion_ns - o.arrival_ns;
            let stall = o.admit_ns - o.arrival_ns;
            let service = o.completion_ns - o.admit_ns;
            assert_eq!(submission, stall + service);
        }
        // The report's populations reflect the same split: queue_latency
        // holds the stalls, sim.overall_latency the service times.
        assert_eq!(
            closed.queue_latency.count(),
            closed.sim.overall_latency.count()
        );
        let e2e_sum: u128 = outcomes
            .iter()
            .map(|o| u128::from(o.completion_ns - o.arrival_ns))
            .sum();
        assert_eq!(
            e2e_sum,
            closed.queue_latency.sum_ns() + closed.sim.overall_latency.sum_ns()
        );
        // The burst actually stalled, so the split is non-trivial.
        assert!(closed.queue_latency.max_ns() > 0, "QD=2 burst must stall");
        // Host-side per-tenant accounting agrees with the outcome log.
        assert_eq!(closed.host.tenants[0].e2e_latency.sum_ns(), e2e_sum);
        assert_eq!(
            closed.host.tenants[0].admission_stall_ns,
            closed.queue_latency.sum_ns()
        );
    }

    /// `report` with its latency populations and request count rebuilt from
    /// the outcome log, one pass over the log, the way the replay built them
    /// before it streamed outcomes.
    fn rebuilt_from_log(
        report: &ClosedLoopReport,
        workloads: &[Vec<IoRequest>],
        outcomes: &[RequestOutcome],
    ) -> ClosedLoopReport {
        let mut read_latency = LatencyStats::new();
        let mut write_latency = LatencyStats::new();
        let mut overall_latency = LatencyStats::new();
        let mut queue_latency = LatencyStats::new();
        for o in outcomes {
            let latency = o.completion_ns - o.admit_ns;
            overall_latency.record(latency);
            queue_latency.record(o.admit_ns - o.arrival_ns);
            match workloads[o.tenant][o.seq].op {
                OpKind::Read => read_latency.record(latency),
                OpKind::Write => write_latency.record(latency),
            }
        }
        let mut rebuilt = report.clone();
        rebuilt.sim.read_latency = read_latency;
        rebuilt.sim.write_latency = write_latency;
        rebuilt.sim.overall_latency = overall_latency;
        rebuilt.sim.requests = outcomes.len() as u64;
        rebuilt.queue_latency = queue_latency;
        rebuilt
    }

    /// The report the sink builds, with the overall latency merged from the
    /// tenants, serializes exactly as one rebuilt from the whole outcome log.
    #[test]
    fn sink_report_serializes_like_the_log_rebuild() {
        let wl: Vec<Vec<IoRequest>> = (0..4)
            .map(|t| workload(40, t << 24, 3_000 + 1_000 * t))
            .collect();
        for policy in [
            ArbitrationPolicy::RoundRobin,
            ArbitrationPolicy::WeightedRoundRobin,
            ArbitrationPolicy::StrictPriority,
        ] {
            let tenants: Vec<TenantSpec> = (0..4u32)
                .map(|t| {
                    TenantSpec::new(format!("t{t}"))
                        .with_weight(4 >> t.min(2))
                        .with_priority(t / 2)
                })
                .collect();
            for (qd, overhead) in [(1, 0), (4, 0), (4, 2_000)] {
                let host =
                    HostConfig::new(qd, policy, tenants.clone()).with_dispatch_overhead(overhead);
                for scheme in [SchemeKind::Baseline, SchemeKind::Ipu] {
                    let cfg = ReplayConfig::small_for_tests(scheme);
                    let mut outcomes = Vec::new();
                    let report =
                        replay_closed_loop_with(&cfg, &host, &wl, "t", |o| outcomes.push(*o));
                    assert_eq!(outcomes.len(), 160);
                    let sink = serde_json::to_string(&report).unwrap();
                    let log =
                        serde_json::to_string(&rebuilt_from_log(&report, &wl, &outcomes)).unwrap();
                    assert_eq!(sink, log, "{policy:?} qd {qd} +{overhead} ns {scheme}");
                    let plain = replay_closed_loop(&cfg, &host, &wl, "t");
                    assert_eq!(serde_json::to_string(&plain).unwrap(), sink);
                }
            }
        }
    }

    #[test]
    fn deeper_queues_cut_admission_stall() {
        let cfg = ReplayConfig::small_for_tests(SchemeKind::Baseline);
        let burst: Vec<IoRequest> = (0..64)
            .map(|i| IoRequest::new(0, OpKind::Write, (i % 16) * 65536, 4096))
            .collect();
        let stall = |qd: usize| {
            let closed = replay_closed_loop(
                &cfg,
                &HostConfig::single(qd),
                std::slice::from_ref(&burst),
                "b",
            );
            closed.host.tenants[0].admission_stall_ns
        };
        let (s1, s16) = (stall(1), stall(16));
        assert!(
            s16 < s1,
            "QD16 stall {s16} must be below QD1 stall {s1} on the same burst"
        );
    }
}
