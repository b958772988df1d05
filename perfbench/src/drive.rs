//! One pass of one scheme over a workload's inputs, in two forms.
//!
//! * [`untraced_pass`] calls the program's public entry points
//!   (`ipu_sim::replay`, `ipu_sim::replay_closed_loop`,
//!   `ipu_fleet::run_fleet_detailed`) with instrumentation off. The
//!   end-to-end metrics come from these passes.
//! * [`traced_pass`] owns the replay loop, built from `SchemeKind::build`,
//!   `EventCore::{advance_to, dispatch, finish}` and
//!   `ipu_host::run_closed_loop`, times each call into a layer, and reads
//!   the program's `ipu-obs` phases. Its reports must equal the untraced
//!   pass's byte for byte.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ipu_flash::FlashDevice;
use ipu_fleet::{route_replicated, run_fleet_detailed, synthesize_tenants, FleetReport, FleetSpec};
use ipu_ftl::{FtlStats, OpBatch, ReqStatus, SchemeKind};
use ipu_host::{run_closed_loop, HostConfig, LatencyStats, ReliabilityStats};
use ipu_obs::{ObsSnapshot, Phase};
use ipu_sim::engine::BusyBreakdown;
use ipu_sim::{replay, replay_closed_loop, ClosedLoopReport, EventCore, ReplayConfig, SimReport};
use ipu_trace::{IoRequest, OpKind};

use crate::checks::{check_closed, check_fleet, check_open, closed_e2e};
use crate::workload::{Inputs, Setup, FLEET_SLO_P99_NS};

/// What one pass produced, reduced to what the benchmark reports and checks.
pub struct PassOutput {
    /// Serialized reports; repeated passes of one scheme must match it.
    pub json: String,
    /// Device-side reports (one per device world).
    pub sims: Vec<SimReport>,
    /// Host-visible response time of every request.
    pub response: LatencyStats,
    /// Closed-loop admission stall of every request (empty in open loop).
    pub admit_stall: LatencyStats,
    /// Largest fleet ladder rung whose pooled p99 met the SLO (fleet only).
    pub tenants_at_slo: u64,
    pub attempted: u64,
    /// Requests the program reported as failed.
    pub failed: u64,
    /// Outcome of this pass's correctness checks.
    pub check: Result<(), String>,
}

impl PassOutput {
    pub fn read_error_rate(&self) -> f64 {
        let mut ftl = FtlStats::default();
        for s in &self.sims {
            ftl.merge(&s.ftl);
        }
        ftl.avg_read_error_rate()
    }

    fn open(rep: SimReport, reqs: &[IoRequest]) -> PassOutput {
        PassOutput {
            json: serde_json::to_string(&rep).expect("SimReport serializes"),
            response: rep.overall_latency.clone(),
            admit_stall: LatencyStats::new(),
            tenants_at_slo: 0,
            attempted: rep.requests,
            failed: rep.reliability.failed,
            check: check_open(&rep, reqs),
            sims: vec![rep],
        }
    }

    fn closed(rep: ClosedLoopReport, host: &HostConfig, streams: &[Vec<IoRequest>]) -> PassOutput {
        PassOutput {
            json: serde_json::to_string(&rep).expect("ClosedLoopReport serializes"),
            response: closed_e2e(&rep),
            admit_stall: rep.queue_latency.clone(),
            tenants_at_slo: 0,
            attempted: rep.sim.requests,
            failed: rep.sim.reliability.failed,
            check: check_closed(&rep, host, streams),
            sims: vec![rep.sim],
        }
    }

    fn fleet(rungs: Vec<(FleetReport, Vec<Option<ClosedLoopReport>>)>, offered: u64) -> PassOutput {
        let mut out = PassOutput {
            json: String::new(),
            sims: Vec::new(),
            response: LatencyStats::new(),
            admit_stall: LatencyStats::new(),
            tenants_at_slo: 0,
            attempted: 0,
            failed: 0,
            check: Ok(()),
        };
        for (report, devices) in rungs {
            out.json
                .push_str(&serde_json::to_string(&report).expect("FleetReport serializes"));
            out.response.merge(&report.e2e_latency);
            out.attempted += report.total_ops;
            out.failed += report.reliability.failed + report.reliability.lost;
            if report.p99_ns < FLEET_SLO_P99_NS {
                out.tenants_at_slo = out.tenants_at_slo.max(report.tenants as u64);
            }
            if out.check.is_ok() {
                out.check = check_fleet(&report, offered);
            }
            for d in devices.into_iter().flatten() {
                out.admit_stall.merge(&d.queue_latency);
                out.sims.push(d.sim);
            }
        }
        out
    }
}

/// One pass through the program's public entry points, instrumentation off.
pub fn untraced_pass(setup: &Setup, scheme: SchemeKind) -> PassOutput {
    let cfg = setup.cfg.replay_config(scheme);
    let name = setup.trace.name();
    match &setup.inputs {
        Inputs::Open(reqs) => PassOutput::open(replay(&cfg, reqs, name), reqs),
        Inputs::Closed { host, streams } => {
            PassOutput::closed(replay_closed_loop(&cfg, host, streams, name), host, streams)
        }
        Inputs::Fleet { base, specs } => {
            let rungs = specs
                .iter()
                .map(|spec| run_fleet_detailed(&setup.cfg, scheme, name, base, spec))
                .collect();
            PassOutput::fleet(rungs, base.len() as u64)
        }
    }
}

/// Host time and counts the traced loop measured in one pass.
#[derive(Debug, Clone, Default)]
pub struct LayerSample {
    /// Host time of the whole traced pass.
    pub wall: f64,
    /// Device and scheme construction.
    pub build: f64,
    /// FTL spans: batch reset, `on_write_into` / `on_read_into` (GC
    /// included) and outcome accounting.
    pub ftl: f64,
    pub advance: f64,
    pub dispatch: f64,
    /// `EventCore::finish` and the report assembly after it.
    pub finish: f64,
    /// `run_closed_loop` time minus the time spent in its callback.
    pub host_self: f64,
    /// Host time of each `on_write_into` call, ns.
    pub write_calls_ns: Vec<u64>,
    /// `synthesize_tenants` + `route_replicated`, fleet only.
    pub route: f64,
    /// `run_fleet_detailed` calls, fleet only.
    pub fleet_run: f64,
    pub rungs: u64,
    pub device_worlds: u64,
    /// The program's own phases over the pass (exclusive time).
    pub obs: Option<ObsSnapshot>,
}

impl LayerSample {
    /// Host time attributed to a layer span.
    pub fn covered(&self) -> f64 {
        self.build
            + self.ftl
            + self.advance
            + self.dispatch
            + self.finish
            + self.host_self
            + self.route
            + self.fleet_run
    }

    /// Exclusive seconds of one `ipu-obs` phase.
    pub fn phase_s(&self, phase: Phase) -> f64 {
        self.obs
            .as_ref()
            .and_then(|o| o.phase(phase))
            .map_or(0.0, |p| p.self_ns as f64 / 1e9)
    }
}

/// Accumulates the per-call timings of the traced loops.
#[derive(Default)]
struct Timers {
    ftl: Duration,
    advance: Duration,
    dispatch: Duration,
    write_calls_ns: Vec<u64>,
}

/// One traced pass. Returns its output (whose `check` also carries the
/// end-of-run `check_invariants` result) and the layer timings.
pub fn traced_pass(setup: &Setup, scheme: SchemeKind) -> (PassOutput, LayerSample) {
    let cfg = setup.cfg.replay_config(scheme);
    let name = setup.trace.name();
    let before = ipu_obs::snapshot();
    ipu_obs::enable();
    let (out, mut sample) = match &setup.inputs {
        Inputs::Open(reqs) => {
            let (rep, sample, invariants) = traced_open(&cfg, reqs, name);
            let mut out = PassOutput::open(rep, reqs);
            out.check = out.check.and(invariants);
            (out, sample)
        }
        Inputs::Closed { host, streams } => {
            let (rep, sample, invariants) = traced_closed(&cfg, host, streams, name);
            let mut out = PassOutput::closed(rep, host, streams);
            out.check = out.check.and(invariants);
            (out, sample)
        }
        Inputs::Fleet { base, specs } => traced_fleet(setup, scheme, base, specs),
    };
    ipu_obs::disable();
    sample.obs = Some(ipu_obs::snapshot().diff(&before));
    (out, sample)
}

/// Reliability is tallied exactly as the program's replay loops tally it.
fn record(reliability: &mut ReliabilityStats, status: ReqStatus) {
    match status {
        ReqStatus::Success => reliability.record_success(),
        ReqStatus::Recovered => reliability.record_recovered(),
        ReqStatus::Failed => reliability.record_failed(),
    }
}

/// Runs one request's FTL call under the program's own obs phase; returns
/// whether it was a write.
fn ftl_call(
    ftl: &mut dyn ipu_ftl::FtlScheme,
    req: &IoRequest,
    now: u64,
    dev: &mut FlashDevice,
    batch: &mut OpBatch,
) -> bool {
    match req.op {
        OpKind::Write => {
            let _span = ipu_obs::span(Phase::FtlWrite);
            ftl.on_write_into(req, now, dev, batch);
            true
        }
        OpKind::Read => {
            let _span = ipu_obs::span(Phase::FtlRead);
            ftl.on_read_into(req, now, dev, batch);
            false
        }
    }
}

/// The loop of `ipu_sim::replay`, with each layer call timed.
fn traced_open(
    cfg: &ReplayConfig,
    reqs: &[IoRequest],
    name: &str,
) -> (SimReport, LayerSample, Result<(), String>) {
    let start = Instant::now();
    let mut dev = FlashDevice::new(cfg.device.clone());
    let mut ftl = cfg.scheme.build(&mut dev, cfg.ftl.clone());
    let mut core = EventCore::new(cfg.device.geometry.total_chips(), cfg.timing);
    let built = Instant::now();

    let mut reliability = ReliabilityStats::new();
    let mut batch = OpBatch::new();
    let mut tm = Timers::default();
    // The spans tile the loop: each FTL span runs from the end of the
    // previous dispatch, so it also holds the request's batch reset and
    // outcome accounting.
    let mut t0 = built;
    for req in reqs {
        let now = req.timestamp_ns;
        batch.clear();
        let write = ftl_call(ftl.as_mut(), req, now, &mut dev, &mut batch);
        record(&mut reliability, batch.status);
        let t1 = Instant::now();
        core.advance_to(now);
        let t2 = Instant::now();
        core.dispatch(now, &batch, req.op);
        let t3 = Instant::now();
        tm.ftl += t1 - t0;
        tm.advance += t2 - t1;
        tm.dispatch += t3 - t2;
        if write {
            tm.write_calls_ns.push((t1 - t0).as_nanos() as u64);
        }
        t0 = t3;
    }

    let finish_start = t0;
    core.finish();
    let mapping = ftl.mapping_memory(&dev);
    let report = SimReport {
        scheme: cfg.scheme,
        trace: name.to_string(),
        read_latency: core.read_latency().clone(),
        write_latency: core.write_latency().clone(),
        overall_latency: core.overall_latency().clone(),
        ftl: ftl.stats().clone(),
        device: dev.counters(),
        wear: dev.wear().totals(),
        mapping,
        simulated_horizon_ns: core.horizon(),
        requests: reqs.len() as u64,
        busy: BusyBreakdown {
            host_write_ns: core.host_busy(),
            host_read_ns: core.read_busy(),
            background_ns: core.background_done(),
        },
        reliability,
    };
    let end = Instant::now();
    let sample = sample_from(tm, start, built, finish_start, end);
    let invariants = ftl.core().check_invariants(&dev);
    (report, sample, invariants)
}

/// The loop of `ipu_sim::replay_closed_loop`, with each layer call timed
/// inside its own device callback.
fn traced_closed(
    cfg: &ReplayConfig,
    host: &HostConfig,
    workloads: &[Vec<IoRequest>],
    name: &str,
) -> (ClosedLoopReport, LayerSample, Result<(), String>) {
    let start = Instant::now();
    let mut dev = FlashDevice::new(cfg.device.clone());
    let mut ftl = cfg.scheme.build(&mut dev, cfg.ftl.clone());
    let mut core = EventCore::new(cfg.device.geometry.total_chips(), cfg.timing);
    let built = Instant::now();

    let mut reliability = ReliabilityStats::new();
    let arrivals: Vec<Vec<u64>> = workloads
        .iter()
        .map(|w| w.iter().map(|r| r.timestamp_ns).collect())
        .collect();
    let mut batch = OpBatch::new();
    let mut tm = Timers::default();
    let mut callback = Duration::ZERO;
    let (host_report, outcomes) = run_closed_loop(host, &arrivals, |tenant, seq, dispatch| {
        let t0 = Instant::now();
        let mut req = workloads[tenant][seq];
        req.timestamp_ns = dispatch;
        batch.clear();
        let write = ftl_call(ftl.as_mut(), &req, dispatch, &mut dev, &mut batch);
        record(&mut reliability, batch.status);
        let t1 = Instant::now();
        core.advance_to(dispatch);
        let t2 = Instant::now();
        let completion = core.dispatch(dispatch, &batch, req.op);
        let t3 = Instant::now();
        tm.ftl += t1 - t0;
        tm.advance += t2 - t1;
        tm.dispatch += t3 - t2;
        callback += t3 - t0;
        if write {
            tm.write_calls_ns.push((t1 - t0).as_nanos() as u64);
        }
        completion
    });
    let finish_start = Instant::now();

    core.finish();
    let mut read_latency = LatencyStats::new();
    let mut write_latency = LatencyStats::new();
    let mut overall_latency = LatencyStats::new();
    let mut queue_latency = LatencyStats::new();
    for o in &outcomes {
        let latency = o.completion_ns - o.admit_ns;
        overall_latency.record(latency);
        queue_latency.record(o.admit_ns - o.arrival_ns);
        match workloads[o.tenant][o.seq].op {
            OpKind::Read => read_latency.record(latency),
            OpKind::Write => write_latency.record(latency),
        }
    }
    let mapping = ftl.mapping_memory(&dev);
    let sim = SimReport {
        scheme: cfg.scheme,
        trace: name.to_string(),
        read_latency,
        write_latency,
        overall_latency,
        ftl: ftl.stats().clone(),
        device: dev.counters(),
        wear: dev.wear().totals(),
        mapping,
        simulated_horizon_ns: core.horizon(),
        requests: outcomes.len() as u64,
        busy: BusyBreakdown {
            host_write_ns: core.host_busy(),
            host_read_ns: core.read_busy(),
            background_ns: core.background_done(),
        },
        reliability,
    };
    let report = ClosedLoopReport {
        sim,
        host: host_report,
        queue_latency,
    };
    let end = Instant::now();
    let mut sample = sample_from(tm, start, built, finish_start, end);
    sample.host_self = ((finish_start - built).saturating_sub(callback)).as_secs_f64();
    let invariants = ftl.core().check_invariants(&dev);
    (report, sample, invariants)
}

fn sample_from(
    tm: Timers,
    start: Instant,
    built: Instant,
    finish_start: Instant,
    end: Instant,
) -> LayerSample {
    LayerSample {
        wall: (end - start).as_secs_f64(),
        build: (built - start).as_secs_f64(),
        ftl: tm.ftl.as_secs_f64(),
        advance: tm.advance.as_secs_f64(),
        dispatch: tm.dispatch.as_secs_f64(),
        finish: (end - finish_start).as_secs_f64(),
        write_calls_ns: tm.write_calls_ns,
        ..LayerSample::default()
    }
}

/// The fleet ladder, timing the benchmark's own calls into the fleet and FTL
/// layers around each `run_fleet_detailed` call. The fleet's per-device
/// loops run inside the program, so their layers are read from `ipu-obs`.
fn traced_fleet(
    setup: &Setup,
    scheme: SchemeKind,
    base: &[IoRequest],
    specs: &[FleetSpec],
) -> (PassOutput, LayerSample) {
    let start = Instant::now();
    let mut sample = LayerSample::default();
    let mut rungs = Vec::with_capacity(specs.len());
    let mut routing_matches = Ok(());
    for spec in specs {
        let t0 = Instant::now();
        let assignments = route_replicated(
            spec.policy,
            synthesize_tenants(base, spec.tenants),
            spec.devices,
            spec.replication,
        );
        let t1 = Instant::now();
        let worlds: Vec<usize> = (0..assignments.len())
            .filter(|&d| {
                !assignments[d].tenant_ids.is_empty() || !assignments[d].mirror_ids.is_empty()
            })
            .collect();
        for &d in &worlds {
            let mut dev = FlashDevice::new(spec.fault_plan.device_config(&setup.cfg.device, d));
            black_box(scheme.build(&mut dev, setup.cfg.ftl.clone()));
        }
        let t2 = Instant::now();
        let (report, devices) =
            run_fleet_detailed(&setup.cfg, scheme, setup.trace.name(), base, spec);
        let t3 = Instant::now();
        sample.route += (t1 - t0).as_secs_f64();
        sample.build += (t2 - t1).as_secs_f64();
        sample.fleet_run += (t3 - t2).as_secs_f64();
        sample.rungs += 1;
        sample.device_worlds += worlds.len() as u64;
        let routed: Vec<u64> = assignments
            .iter()
            .map(|a| a.workloads.iter().map(|w| w.len() as u64).sum())
            .collect();
        let served: Vec<u64> = report.per_device.iter().map(|d| d.ops).collect();
        if routed != served && routing_matches.is_ok() {
            routing_matches = Err(format!(
                "{scheme} @ {} tenants: own routing {routed:?} differs from the fleet's {served:?}",
                spec.tenants
            ));
        }
        rungs.push((report, devices));
    }
    sample.wall = start.elapsed().as_secs_f64();
    let mut out = PassOutput::fleet(rungs, base.len() as u64);
    out.check = out.check.and(routing_matches);
    (out, sample)
}
