//! `run_profile`'s phase breakdown, in a test binary of its own.
//!
//! `run_profile` arms the process-wide `ipu-obs` accumulators, so its phase
//! shares mean something only while no other instrumented work runs in the
//! process. Unit tests share one process and run on parallel threads: a
//! replaying unit test running beside this one would add its spans to the
//! profile's phases and push their shares past the total.

use ipu_core::ftl::SchemeKind;
use ipu_core::trace::PaperTrace;
use ipu_core::{run_profile, ExperimentConfig, BENCH_SCHEMA_VERSION};

fn tiny_cfg() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::scaled(0.002);
    cfg.traces = vec![PaperTrace::Ts0];
    cfg.schemes = vec![SchemeKind::Ipu];
    cfg.threads = 1;
    cfg
}

#[test]
fn profile_measures_phases_and_throughput() {
    let p = run_profile(&tiny_cfg());
    assert_eq!(p.schema_version, BENCH_SCHEMA_VERSION);
    assert_eq!(p.runs.len(), 1);
    assert!(p.requests > 1000, "ts0 at 0.2% is thousands of requests");
    assert!(p.wall_seconds > 0.0);
    assert!(p.sim_ops_per_sec > 0.0);
    // The hot phases must have been observed.
    let labels: Vec<&str> = p.phases.iter().map(|ph| ph.phase.as_str()).collect();
    assert!(labels.contains(&"trace_decode"), "phases: {labels:?}");
    assert!(labels.contains(&"ftl_write"), "phases: {labels:?}");
    assert!(labels.contains(&"ftl_read"), "phases: {labels:?}");
    // Exclusive accounting: phase shares cannot exceed the total.
    let share_sum: f64 = p.phases.iter().map(|ph| ph.share).sum();
    assert!(share_sum <= 1.0 + 0.25, "shares sum to {share_sum}");
    // Counter fingerprint captured the simulated work.
    assert_eq!(p.counters.get("requests"), Some(p.requests));
    assert!(p.counters.get("device_programs").unwrap_or(0) > 0);
    // Schema v3: every run carries simulated tail latency.
    for run in &p.runs {
        assert!(run.p99_ns > 0, "{}/{}: missing p99", run.trace, run.scheme);
        assert!(run.p999_ns >= run.p99_ns, "tail must be ordered");
    }
    // Instrumentation is disarmed again afterwards.
    assert!(!ipu_core::obs::enabled());
}
