//! Driving a fleet: route tenants, replay every device in parallel, merge,
//! then overlay the fault-tolerance pass.
//!
//! Each device is an independent closed-loop world — its own FTL, chip
//! schedule and host queues — so devices simulate concurrently with
//! [`parallel_map`] and the per-device [`ClosedLoopReport`]s merge into one
//! [`FleetReport`]. Every device replays under its *own* fault seed
//! (`fleet_seed ⊕ FNV-1a(device_id)` — see
//! [`crate::fault::derive_device_seed`]), so a shared fault profile never
//! faults the fleet in lockstep. When the [`FleetFaultPlan`] is non-inert
//! or replication is active, the tolerance pass replays the logical request
//! stream against the plan's availability windows and the router's health
//! machine; with the inert plan and no replication the pass is skipped
//! entirely and the run is bit-identical to the pre-fault fleet. The pass's
//! logical requests come from each device replay's outcome sink, which
//! records a primary stream's requests only when the pass will run, so an
//! inert fleet keeps no per-request record.
//!
//! A fleet run is a pure function of `(ExperimentConfig, scheme, trace
//! spec, FleetSpec)` — fault plan, replication and health policy included —
//! which is exactly the key [`run_fleet_cached`] stores it under.

use crate::fault::FleetFaultPlan;
use crate::health::HealthPolicy;
use crate::report::{FleetReport, MergeContext};
use crate::router::{route_replicated, synthesize_tenants, ReplicationPolicy, ShardPolicy};
use crate::tolerance::{run_tolerance, DeviceProfile, LogicalRequest};
use ipu_core::{parallel_map, ExperimentConfig, ReplayCache, TraceSet};
use ipu_ftl::SchemeKind;
use ipu_host::{ArbitrationPolicy, HostConfig, TenantSpec};
use ipu_obs::{event, span, Phase};
use ipu_sim::{replay_closed_loop_with, ClosedLoopReport, ReplayConfig};
use ipu_trace::{IoRequest, OpKind, PaperTrace, SyntheticTraceSpec};
use serde::Serialize;

/// Shape of one fleet: how many devices serve how many tenants, how they
/// are routed — and what goes wrong ([`FleetFaultPlan`]) plus what the
/// router does about it ([`ReplicationPolicy`], [`HealthPolicy`]).
#[derive(Debug, Clone)]
pub struct FleetSpec {
    pub devices: usize,
    pub tenants: usize,
    pub policy: ShardPolicy,
    /// Per-tenant queue depth on each device.
    pub queue_depth: usize,
    pub arbitration: ArbitrationPolicy,
    /// Where retries, hedges and replica writes land.
    pub replication: ReplicationPolicy,
    /// Per-device disruptions over simulated time (inert by default).
    pub fault_plan: FleetFaultPlan,
    /// Health machine + retry/hedge tuning for the tolerance pass.
    pub health: HealthPolicy,
}

impl FleetSpec {
    /// Round-robin arbitration at queue depth 1 per tenant, no faults, no
    /// replication. Depth 1 keeps a tenant's service latency free of its
    /// own self-queueing, so fleet p99 measures the *sharing* cost —
    /// deeper queues are an explicit choice via
    /// [`FleetSpec::with_queue_depth`].
    pub fn new(devices: usize, tenants: usize, policy: ShardPolicy) -> Self {
        assert!(devices >= 1, "need at least one device");
        assert!(tenants >= 1, "need at least one tenant");
        FleetSpec {
            devices,
            tenants,
            policy,
            queue_depth: 1,
            arbitration: ArbitrationPolicy::RoundRobin,
            replication: ReplicationPolicy::None,
            fault_plan: FleetFaultPlan::none(),
            health: HealthPolicy::default(),
        }
    }

    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        assert!(queue_depth >= 1, "queue depth must be ≥ 1");
        self.queue_depth = queue_depth;
        self
    }

    pub fn with_arbitration(mut self, arbitration: ArbitrationPolicy) -> Self {
        self.arbitration = arbitration;
        self
    }

    pub fn with_replication(mut self, replication: ReplicationPolicy) -> Self {
        self.replication = replication;
        self
    }

    pub fn with_fault_plan(mut self, plan: FleetFaultPlan) -> Self {
        plan.validate().expect("fault plan");
        self.fault_plan = plan;
        self
    }

    pub fn with_health(mut self, health: HealthPolicy) -> Self {
        health.validate().expect("health policy");
        self.health = health;
        self
    }

    /// Whether this spec needs the tolerance pass at all. With the inert
    /// plan and no replication the fleet run is byte-identical to one that
    /// predates the fault machinery.
    pub fn tolerance_active(&self) -> bool {
        !self.fault_plan.is_inert() || self.replication != ReplicationPolicy::None
    }
}

/// [`run_fleet`] returning the per-device closed-loop reports as well
/// (indexed by device id; `None` where no stream was routed).
pub fn run_fleet_detailed(
    cfg: &ExperimentConfig,
    scheme: SchemeKind,
    trace_name: &str,
    base: &[IoRequest],
    spec: &FleetSpec,
) -> (FleetReport, Vec<Option<ClosedLoopReport>>) {
    let assignments = {
        let _span = span(Phase::HostArbitration);
        route_replicated(
            spec.policy,
            synthesize_tenants(base, spec.tenants),
            spec.devices,
            spec.replication,
        )
    };
    let tolerance = spec.tolerance_active();
    // Per-device primary stream count, for the merge, before the
    // assignments move into the worker closures.
    let primary_streams: Vec<usize> = assignments.iter().map(|a| a.workloads.len()).collect();

    let replay_cfg = cfg.replay_config(scheme);
    let queue_depth = spec.queue_depth;
    let arbitration = spec.arbitration;
    let plan = &spec.fault_plan;
    let indexed: Vec<(usize, crate::router::DeviceAssignment)> =
        assignments.into_iter().enumerate().collect();
    let runs = parallel_map(
        indexed,
        cfg.effective_threads(),
        |(device, assignment)| -> Option<(ClosedLoopReport, Vec<LogicalRequest>)> {
            if assignment.tenant_ids.is_empty() && assignment.mirror_ids.is_empty() {
                return None;
            }
            let tenants: Vec<TenantSpec> = assignment
                .tenant_ids
                .iter()
                .map(|t| TenantSpec::new(format!("t{t}")))
                .chain(
                    assignment
                        .mirror_ids
                        .iter()
                        .map(|t| TenantSpec::new(format!("m{t}"))),
                )
                .collect();
            let host = HostConfig::new(queue_depth, arbitration, tenants);
            let mut device_cfg = replay_cfg.clone();
            device_cfg.device = plan.device_config(&replay_cfg.device, device);
            let primary_n = assignment.workloads.len();
            let workloads: Vec<Vec<IoRequest>> = assignment
                .workloads
                .into_iter()
                .chain(assignment.mirror_workloads)
                .collect();
            // Only the tolerance pass reads requests one by one, and only
            // the primary streams' (mirror write streams are not logical
            // requests).
            let mut logical = Vec::new();
            let report = replay_closed_loop_with(&device_cfg, &host, &workloads, trace_name, |o| {
                if tolerance && o.tenant < primary_n {
                    logical.push(LogicalRequest {
                        device,
                        arrival_ns: o.arrival_ns,
                        admit_ns: o.admit_ns,
                        dispatch_ns: o.dispatch_ns,
                        completion_ns: o.completion_ns,
                        is_read: workloads[o.tenant][o.seq].op == OpKind::Read,
                    });
                }
            });
            Some((report, logical))
        },
    );

    let (per_device, logical): (Vec<Option<ClosedLoopReport>>, Vec<Vec<LogicalRequest>>) = runs
        .into_iter()
        .map(|run| match run {
            Some((report, logical)) => (Some(report), logical),
            None => (None, Vec::new()),
        })
        .unzip();
    let ctx = MergeContext {
        replication: spec.replication.label().to_string(),
        fault_plan: plan.label(),
        primary_streams: (spec.replication != ReplicationPolicy::None)
            .then(|| primary_streams.clone()),
    };
    let mut report = {
        let _span = span(Phase::Report);
        FleetReport::merge_with(
            scheme.label(),
            trace_name,
            spec.policy,
            spec.tenants,
            spec.queue_depth,
            &per_device,
            &ctx,
        )
    };

    if tolerance {
        let _span = span(Phase::HostArbitration);
        // Device by device, each in completion order.
        let mut requests = logical.concat();
        let mut profiles = vec![DeviceProfile::default(); spec.devices];
        for (device, slot) in per_device.iter().enumerate() {
            if let Some(rep) = slot {
                profiles[device].mean_service_ns =
                    rep.host.overall_service_latency().mean_ns() as u64;
            }
        }
        let mut outcome = run_tolerance(
            plan,
            spec.replication,
            &spec.health,
            spec.devices,
            &mut requests,
            &profiles,
        );
        outcome.reliability.replica_write_ops =
            report.per_device.iter().map(|d| d.mirror_ops).sum();
        event(
            Phase::HostArbitration,
            "fleet-retries",
            outcome.reliability.retries,
        );
        event(
            Phase::HostArbitration,
            "fleet-hedges",
            outcome.reliability.hedges_fired,
        );
        event(
            Phase::HostArbitration,
            "fleet-timeouts",
            outcome.reliability.timeouts,
        );
        report.apply_tolerance(&outcome);
    }
    (report, per_device)
}

/// Simulates the whole fleet, merges the per-device outcomes and applies
/// the tolerance pass when the spec's fault plan or replication calls for
/// it.
pub fn run_fleet(
    cfg: &ExperimentConfig,
    scheme: SchemeKind,
    trace_name: &str,
    base: &[IoRequest],
    spec: &FleetSpec,
) -> FleetReport {
    run_fleet_detailed(cfg, scheme, trace_name, base, spec).0
}

/// Everything a fleet run's outcome depends on, for content addressing.
/// Policy/arbitration/replication travel as labels (stable spellings,
/// stable key); the fault plan and health policy serialize structurally so
/// *any* knob change is a different cache entry.
#[derive(Serialize)]
struct FleetCacheKey {
    replay: ReplayConfig,
    trace: SyntheticTraceSpec,
    devices: usize,
    tenants: usize,
    policy: String,
    queue_depth: usize,
    arbitration: String,
    replication: String,
    fault_plan: FleetFaultPlan,
    health: HealthPolicy,
}

/// [`run_fleet`] through the replay cache: a warm re-run (same config,
/// scheme, trace spec and fleet shape — fault plan included) loads the
/// merged report from disk instead of re-simulating every device.
pub fn run_fleet_cached(
    cfg: &ExperimentConfig,
    scheme: SchemeKind,
    trace: PaperTrace,
    spec: &FleetSpec,
    traces: &TraceSet,
    cache: Option<&ReplayCache>,
) -> FleetReport {
    let trace_name = trace.to_string();
    let Some(cache) = cache else {
        return run_fleet(cfg, scheme, &trace_name, &traces.get(trace), spec);
    };
    let key = FleetCacheKey {
        replay: cfg.replay_config(scheme),
        trace: ipu_core::scaled_spec(cfg, trace),
        devices: spec.devices,
        tenants: spec.tenants,
        policy: spec.policy.label().to_string(),
        queue_depth: spec.queue_depth,
        arbitration: spec.arbitration.label().to_string(),
        replication: spec.replication.label().to_string(),
        fault_plan: spec.fault_plan.clone(),
        health: spec.health.clone(),
    };
    cache.get_or_compute("fleet", &key, || {
        run_fleet(cfg, scheme, &trace_name, &traces.get(trace), spec)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipu_trace::OpKind;

    fn base_workload(n: u64) -> Vec<IoRequest> {
        (0..n)
            .map(|i| {
                let op = if i % 4 == 3 {
                    OpKind::Read
                } else {
                    OpKind::Write
                };
                IoRequest::new(i * 2_000, op, (i % 64) * 65_536, 4096)
            })
            .collect()
    }

    fn tiny_cfg() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::scaled(0.002);
        cfg.threads = 2;
        cfg
    }

    #[test]
    fn fleet_ops_sum_to_routed_requests() {
        let cfg = tiny_cfg();
        let base = base_workload(120);
        for policy in ShardPolicy::all() {
            let spec = FleetSpec::new(4, 8, policy).with_queue_depth(4);
            let (report, per_device) =
                run_fleet_detailed(&cfg, SchemeKind::Ipu, "ts0", &base, &spec);
            assert_eq!(report.total_ops, 120, "{policy:?} lost requests");
            assert_eq!(
                report.per_device.iter().map(|d| d.ops).sum::<u64>(),
                report.total_ops
            );
            assert_eq!(per_device.len(), 4);
            assert_eq!(report.devices, 4);
            assert_eq!(report.tenants, 8);
            // Per-device summaries mirror the detailed reports.
            for (summary, detail) in report.per_device.iter().zip(&per_device) {
                match detail {
                    Some(d) => assert_eq!(summary.ops, d.host.total_completed()),
                    None => assert_eq!(summary.ops, 0),
                }
            }
        }
    }

    #[test]
    fn more_devices_than_tenants_leaves_devices_idle_not_broken() {
        let cfg = tiny_cfg();
        let base = base_workload(30);
        let spec = FleetSpec::new(8, 2, ShardPolicy::Range);
        let (report, per_device) =
            run_fleet_detailed(&cfg, SchemeKind::Baseline, "ts0", &base, &spec);
        assert_eq!(report.total_ops, 30);
        assert!(per_device.iter().filter(|d| d.is_none()).count() >= 6);
        assert_eq!(report.per_device.len(), 8);
    }

    #[test]
    fn cached_fleet_run_round_trips_bit_identical() {
        let mut cfg = tiny_cfg();
        cfg.traces = vec![PaperTrace::Ts0];
        cfg.scale = 0.002;
        let traces = TraceSet::generate(&cfg);
        let spec = FleetSpec::new(3, 5, ShardPolicy::Hash).with_queue_depth(2);
        let dir = std::env::temp_dir().join(format!("ipu-fleet-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ReplayCache::new(&dir);

        let cold = run_fleet_cached(
            &cfg,
            SchemeKind::Ipu,
            PaperTrace::Ts0,
            &spec,
            &traces,
            Some(&cache),
        );
        assert_eq!(cache.stats().misses, 1);
        let warm = run_fleet_cached(
            &cfg,
            SchemeKind::Ipu,
            PaperTrace::Ts0,
            &spec,
            &traces,
            Some(&cache),
        );
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(
            serde_json::to_string(&cold).unwrap(),
            serde_json::to_string(&warm).unwrap()
        );

        // A different fleet shape is a different entry.
        let other = FleetSpec::new(4, 5, ShardPolicy::Hash).with_queue_depth(2);
        let _ = run_fleet_cached(
            &cfg,
            SchemeKind::Ipu,
            PaperTrace::Ts0,
            &other,
            &traces,
            Some(&cache),
        );
        assert_eq!(cache.stats().misses, 2);

        // A different fault plan is a different entry too — the plan is
        // part of the content address.
        let faulted = FleetSpec::new(3, 5, ShardPolicy::Hash)
            .with_queue_depth(2)
            .with_fault_plan(FleetFaultPlan::fail_stop(3, 1, 0.5, 7))
            .with_replication(ReplicationPolicy::MirrorPair);
        let cold_faulted = run_fleet_cached(
            &cfg,
            SchemeKind::Ipu,
            PaperTrace::Ts0,
            &faulted,
            &traces,
            Some(&cache),
        );
        assert_eq!(cache.stats().misses, 3);
        let warm_faulted = run_fleet_cached(
            &cfg,
            SchemeKind::Ipu,
            PaperTrace::Ts0,
            &faulted,
            &traces,
            Some(&cache),
        );
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(
            serde_json::to_string(&cold_faulted).unwrap(),
            serde_json::to_string(&warm_faulted).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fail_stop_with_mirror_recovers_in_a_real_fleet_run() {
        let cfg = tiny_cfg();
        let base = base_workload(160);
        let plan = FleetFaultPlan::fail_stop(4, 1, 0.4, 11);
        let spec = FleetSpec::new(4, 8, ShardPolicy::Range)
            .with_queue_depth(2)
            .with_fault_plan(plan)
            .with_replication(ReplicationPolicy::MirrorPair);
        let (report, _) = run_fleet_detailed(&cfg, SchemeKind::Ipu, "ts0", &base, &spec);
        let fr = report.fleet_reliability.expect("tolerance pass ran");
        assert_eq!(fr.logical_ops, 160);
        assert_eq!(fr.lost, 0, "mirror pair must recover everything");
        assert!(fr.recovered > 0, "the dead device's tail must fail over");
        assert_eq!(fr.acked, fr.clean + fr.recovered);
        // Mirror writes were really replayed and conserved in the merge.
        assert!(fr.replica_write_ops > 0);
        assert_eq!(
            report
                .per_device
                .iter()
                .map(|d| d.ops - d.mirror_ops)
                .sum::<u64>(),
            report.total_ops
        );
        assert_eq!(report.fault_plan, spec.fault_plan.label());
        assert_eq!(report.replication, "mirror-pair");
        assert_eq!(report.health.len(), 4);
        // Availability reflects the ledger: nothing lost → full marks from
        // the fleet's point of view.
        assert_eq!(report.reliability.lost, 0);
    }
}
