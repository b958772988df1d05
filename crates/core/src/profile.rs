//! Wall-clock phase report: where real time goes in a replay.
//!
//! [`run_profile`] replays a trace × scheme workload with the `ipu-obs`
//! instrumentation armed and measures per-phase exclusive seconds, per-run
//! throughput in simulated operations per wall second, and a monotonic
//! counter fingerprint of the simulated work (identical workloads give
//! identical fingerprints). `ipu-sim profile` prints it and writes it as
//! JSON. It is a diagnostic, not a gate: speed regressions are judged by
//! paired runs against the parent commit (`ci/perf_pairs.py`).
//!
//! Runs are sequential (never `parallel_map`) so per-run wall times are not
//! polluted by sibling runs sharing cores.

use std::time::Instant;

use ipu_ftl::SchemeKind;
use ipu_obs::{CounterSnapshot, ObsSnapshot, Phase};
use ipu_sim::{replay, SimReport};
use serde::{Deserialize, Serialize};

use crate::config::ExperimentConfig;
use crate::trace_set::TraceSet;

/// Exclusive wall time spent in one instrumented phase over the whole
/// profile run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseWall {
    /// [`Phase::label`] of the phase.
    pub phase: String,
    /// Spans recorded (e.g. GC rounds, FTL write calls).
    pub count: u64,
    pub wall_seconds: f64,
    /// Fraction of the run's thread time (0..1): the wall time for the
    /// sequential profile, wall time × workers for a parallel run.
    pub share: f64,
}

/// One (trace, scheme) replay's wall-clock measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunProfile {
    pub trace: String,
    pub scheme: SchemeKind,
    pub requests: u64,
    pub wall_seconds: f64,
    /// Simulated host requests replayed per wall second.
    pub ops_per_sec: f64,
    /// Simulated overall p99 latency of the run, ns.
    pub p99_ns: u64,
    /// Simulated overall p99.9 latency of the run, ns.
    pub p999_ns: u64,
}

/// The full benchmark profile: workload identity, throughput, per-phase
/// breakdown and the simulated-work counter fingerprint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchProfile {
    pub traces: Vec<String>,
    pub schemes: Vec<SchemeKind>,
    pub scale: f64,
    /// Total simulated host requests across all runs.
    pub requests: u64,
    /// Wall time of the whole profile (trace generation + replays).
    pub wall_seconds: f64,
    /// Aggregate throughput: `requests / wall_seconds`.
    pub sim_ops_per_sec: f64,
    pub phases: Vec<PhaseWall>,
    pub runs: Vec<RunProfile>,
    /// Monotonic counters summed over all runs: identical workloads produce
    /// identical fingerprints, so two profiles whose fingerprints differ did
    /// not simulate the same work and their wall times are not comparable.
    pub counters: CounterSnapshot,
}

impl BenchProfile {
    /// The recorded wall share of one phase, 0 if it never ran.
    pub fn phase_share(&self, phase: Phase) -> f64 {
        self.phases
            .iter()
            .find(|p| p.phase == phase.label())
            .map(|p| p.share)
            .unwrap_or(0.0)
    }
}

/// Folds one run's simulated-work counters into the profile fingerprint.
fn accumulate_counters(counters: &mut CounterSnapshot, r: &SimReport) {
    let mut add = |name: &str, v: u64| {
        let cur = counters.get(name).unwrap_or(0);
        counters.set(name, cur + v);
    };
    add("requests", r.requests);
    add("host_write_requests", r.ftl.host_write_requests);
    add("host_read_requests", r.ftl.host_read_requests);
    add("intra_page_updates", r.ftl.intra_page_updates);
    add("gc_runs_slc", r.ftl.gc_runs_slc);
    add("gc_runs_mlc", r.ftl.gc_runs_mlc);
    add("gc_moved_subpages", r.ftl.gc_moved_subpages);
    add("wear_leveling_migrations", r.ftl.wear_leveling_migrations);
    add("read_retries", r.ftl.read_retries);
    add("scrub_rewrites", r.ftl.scrub_rewrites);
    add("device_programs", r.device.programs);
    add("device_reads", r.device.reads);
    add("device_erases", r.device.erases);
}

/// Converts an obs snapshot into the serializable per-phase breakdown,
/// ordered by descending wall time. `total_seconds` is the share
/// denominator: the wall time of a sequential run, or wall time × worker
/// threads when spans were summed over parallel workers.
pub fn phase_breakdown(snapshot: &ObsSnapshot, total_seconds: f64) -> Vec<PhaseWall> {
    let mut phases: Vec<PhaseWall> = snapshot
        .phases
        .iter()
        .map(|p| {
            let wall_seconds = p.self_ns as f64 / 1e9;
            PhaseWall {
                phase: p.phase.label().to_string(),
                count: p.count,
                wall_seconds,
                share: if total_seconds > 0.0 {
                    wall_seconds / total_seconds
                } else {
                    0.0
                },
            }
        })
        .collect();
    phases.sort_by(|a, b| b.wall_seconds.total_cmp(&a.wall_seconds));
    phases
}

/// Runs the benchmark workload described by `cfg` sequentially with
/// instrumentation armed and returns the measured profile.
///
/// Arms and resets the process-wide `ipu-obs` accumulators: do not run
/// concurrently with other instrumented work.
pub fn run_profile(cfg: &ExperimentConfig) -> BenchProfile {
    ipu_obs::reset();
    ipu_obs::enable();
    let t0 = Instant::now();

    // Generate every trace exactly once, sequentially and inside the
    // instrumented window, so the trace_decode phase stays attributed and
    // wall_seconds keeps covering generation + replays.
    let traces = TraceSet::generate_with_threads(cfg, 1);

    let mut runs = Vec::new();
    let mut counters = CounterSnapshot::new();
    let mut total_requests = 0u64;
    for &trace in &cfg.traces {
        let requests = traces.get(trace);
        for &scheme in &cfg.schemes {
            let replay_cfg = cfg.replay_config(scheme);
            let t = Instant::now();
            let report = replay(&replay_cfg, &requests, trace.name());
            let wall_seconds = t.elapsed().as_secs_f64();
            total_requests += report.requests;
            accumulate_counters(&mut counters, &report);
            runs.push(RunProfile {
                trace: trace.name().to_string(),
                scheme,
                requests: report.requests,
                wall_seconds,
                ops_per_sec: report.requests as f64 / wall_seconds.max(1e-9),
                p99_ns: report.overall_latency.percentile_ns(99.0),
                p999_ns: report.overall_latency.percentile_ns(99.9),
            });
        }
    }

    let wall_seconds = t0.elapsed().as_secs_f64();
    ipu_obs::disable();
    let snapshot = ipu_obs::snapshot();

    BenchProfile {
        traces: cfg.traces.iter().map(|t| t.name().to_string()).collect(),
        schemes: cfg.schemes.clone(),
        scale: cfg.scale,
        requests: total_requests,
        wall_seconds,
        sim_ops_per_sec: total_requests as f64 / wall_seconds.max(1e-9),
        phases: phase_breakdown(&snapshot, wall_seconds),
        runs,
        counters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipu_trace::PaperTrace;

    fn tiny_cfg() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::scaled(0.002);
        cfg.traces = vec![PaperTrace::Ts0];
        cfg.schemes = vec![SchemeKind::Ipu];
        cfg.threads = 1;
        cfg
    }

    #[test]
    fn profile_counter_fingerprint_is_deterministic() {
        let a = run_profile(&tiny_cfg());
        let b = run_profile(&tiny_cfg());
        // Wall times differ run to run; the simulated work must not.
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.requests, b.requests);
    }
}
