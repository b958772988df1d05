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

use crate::engine::{BusyBreakdown, ReplayConfig, SimReport};
use crate::event_core::EventCore;
use ipu_host::metrics::{LatencyStats, ReliabilityStats};

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

    let mut dev = ipu_flash::FlashDevice::new(cfg.device.clone());
    let mut ftl = cfg.scheme.build(&mut dev, cfg.ftl.clone());
    let mut core = EventCore::new(cfg.device.geometry.total_chips(), cfg.timing);
    let mut reliability = ReliabilityStats::new();
    // Queue service latency (admission→completion) split by op kind, plus
    // the admission stall (arrival→admission) as its own population.
    let mut read_latency = LatencyStats::new();
    let mut write_latency = LatencyStats::new();
    let mut queue_latency = LatencyStats::new();

    // One batch reused across every dispatched request (cleared per call).
    let mut batch = ipu_ftl::OpBatch::new();
    let host_report = run_closed_loop_with(
        host,
        workloads,
        |req| req.timestamp_ns,
        |tenant, seq, dispatch| {
            // The FTL sees the request as if it arrived at dispatch time — in
            // a closed loop the device never learns the host wanted to send
            // it earlier.
            let mut req = workloads[tenant][seq];
            req.timestamp_ns = dispatch;
            batch.clear();
            match req.op {
                OpKind::Write => {
                    let _span = ipu_obs::span(ipu_obs::Phase::FtlWrite);
                    ftl.on_write_into(&req, dispatch, &mut dev, &mut batch);
                }
                OpKind::Read => {
                    let _span = ipu_obs::span(ipu_obs::Phase::FtlRead);
                    ftl.on_read_into(&req, dispatch, &mut dev, &mut batch);
                }
            };
            match batch.status {
                ipu_ftl::ReqStatus::Success => reliability.record_success(),
                ipu_ftl::ReqStatus::Recovered => reliability.record_recovered(),
                ipu_ftl::ReqStatus::Failed => reliability.record_failed(),
            }
            // Run every background pulse that starts before this dispatch
            // (the host loop re-evaluates admission as completions land),
            // then dispatch onto the event core.
            let _span = ipu_obs::span(ipu_obs::Phase::EventCore);
            core.advance_to(dispatch);
            core.dispatch(dispatch, &batch, req.op)
        },
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

    // Run the queued background work before reporting (matches the
    // open-loop engine's report-time accounting).
    {
        let _span = ipu_obs::span(ipu_obs::Phase::EventCore);
        core.finish();
    }

    let mapping = ftl.mapping_memory(&dev);
    let sim = SimReport {
        scheme: cfg.scheme,
        trace: trace_name.to_string(),
        read_latency,
        write_latency,
        // Each tenant's service latency records the same admission→
        // completion times, so their merge is the whole population.
        overall_latency: host_report.overall_service_latency(),
        ftl: ftl.stats().clone(),
        device: dev.counters(),
        wear: dev.wear().totals(),
        mapping,
        simulated_horizon_ns: core.horizon(),
        requests: host_report.total_completed(),
        busy: BusyBreakdown {
            host_write_ns: core.host_busy(),
            host_read_ns: core.read_busy(),
            background_ns: core.background_done(),
        },
        reliability,
    };
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

    /// The ISSUE's acceptance criterion: closed-loop QD=1 with a single
    /// tenant serializes requests, and an open-loop replay fed those
    /// dispatch times reproduces the per-request service latencies exactly.
    #[test]
    fn qd1_single_tenant_matches_serialized_open_loop() {
        for scheme in [SchemeKind::Baseline, SchemeKind::Mga, SchemeKind::Ipu] {
            let cfg = ReplayConfig::small_for_tests(scheme);
            let host = HostConfig::single(1);
            let reqs = workload(40, 0, 1_000); // bursty: device outpaced
            let mut outcomes = Vec::new();
            let closed =
                replay_closed_loop_with(&cfg, &host, std::slice::from_ref(&reqs), "t", |o| {
                    outcomes.push(*o)
                });

            // Rebuild the serialized request stream open-loop style.
            let mut serialized = Vec::new();
            for o in &outcomes {
                let mut r = reqs[o.seq];
                r.timestamp_ns = o.dispatch_ns;
                serialized.push(r);
            }
            serialized.sort_by_key(|r| r.timestamp_ns);
            let open = replay(&cfg, &serialized, "t");

            assert_eq!(
                closed.sim.overall_latency.count(),
                open.overall_latency.count(),
                "{scheme}: request counts diverge"
            );
            assert_eq!(
                closed.sim.overall_latency.sum_ns(),
                open.overall_latency.sum_ns(),
                "{scheme}: latency populations diverge"
            );
            assert_eq!(
                closed.sim.overall_latency.min_ns(),
                open.overall_latency.min_ns()
            );
            assert_eq!(
                closed.sim.overall_latency.max_ns(),
                open.overall_latency.max_ns()
            );
            assert_eq!(closed.sim.ftl, open.ftl, "{scheme}: FTL behaviour diverges");
            assert_eq!(closed.sim.device, open.device);
            assert_eq!(closed.sim.wear, open.wear);
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
