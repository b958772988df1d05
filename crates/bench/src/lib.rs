//! Shared infrastructure for the per-figure benchmark harnesses.
//!
//! Figures 5–11 are all views over the same trace × scheme evaluation matrix,
//! and Figures 13/14 share one P/E sweep. To keep `cargo bench` from
//! re-simulating the world for every figure, whole results go through
//! [`ReplayCache::get_or_compute`] rooted at `target/ipu-bench-cache/`, keyed
//! by every input they depend on; any config change (scale, thresholds, …)
//! is a different key. Delete the directory to force re-simulation.
//!
//! Environment knobs:
//!
//! * `IPU_BENCH_SCALE` — fraction of the published request counts (and,
//!   proportionally, of the device) to run; default 0.25.
//! * `IPU_BENCH_THREADS` — worker threads for the sweep (default: cores − 1).

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::time::Instant;

use ipu_core::trace::PaperTrace;
use ipu_core::{
    experiment, run_qd_sweep, ExperimentConfig, MatrixResult, PeSweepResult, QdSweepHostSpec,
    QdSweepResult, ReplayCache,
};
use serde::de::DeserializeOwned;
use serde::Serialize;

/// Default fraction of the paper-scale run used by benches.
pub const DEFAULT_BENCH_SCALE: f64 = 0.25;

/// Experiment configuration for bench runs, honouring the env knobs.
pub fn bench_config() -> ExperimentConfig {
    ExperimentConfig::from_env(DEFAULT_BENCH_SCALE)
}

/// Directory for cached results.
pub fn cache_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    PathBuf::from(target).join("ipu-bench-cache")
}

/// Returns the cached `kind` result for `key`, or runs `compute` (logging
/// `what` and its duration) and caches it.
fn cached<K: Serialize, T: Serialize + DeserializeOwned>(
    kind: &str,
    key: &K,
    what: String,
    compute: impl FnOnce() -> T,
) -> T {
    let cache = ReplayCache::new(cache_dir());
    let value = cache.get_or_compute(kind, key, || {
        eprintln!("[ipu-bench] running {what} ...");
        let started = Instant::now();
        let value = compute();
        eprintln!("[ipu-bench] {kind} done in {:.1?}", started.elapsed());
        value
    });
    if cache.stats().hits > 0 {
        eprintln!(
            "[ipu-bench] loaded cached {kind} from {}",
            cache.dir().display()
        );
    }
    value
}

/// Runs (or loads) the main evaluation matrix for `cfg`.
pub fn main_matrix_cached(cfg: &ExperimentConfig) -> MatrixResult {
    let what = format!(
        "{}×{} matrix at scale {} (set IPU_BENCH_SCALE to change)",
        cfg.traces.len(),
        cfg.schemes.len(),
        cfg.scale
    );
    cached("main_matrix", cfg, what, || {
        experiment::run_main_matrix(cfg)
    })
}

/// Runs (or loads) the §4.5 P/E sweep for `cfg`.
pub fn pe_sweep_cached(cfg: &ExperimentConfig, points: &[u32]) -> PeSweepResult {
    let what = format!("P/E sweep over {points:?} at scale {}", cfg.scale);
    cached("pe_sweep", &(cfg, points.to_vec()), what, || {
        experiment::run_pe_sweep(cfg, points)
    })
}

/// Runs (or loads) the closed-loop host-interface QD sweep for `cfg`.
pub fn qd_sweep_cached(
    cfg: &ExperimentConfig,
    trace: PaperTrace,
    host: &QdSweepHostSpec,
    qd_points: &[usize],
) -> QdSweepResult {
    let what = format!(
        "QD sweep over {qd_points:?} on {} at scale {}",
        trace.name(),
        cfg.scale
    );
    cached(
        "qd_sweep",
        &(cfg, trace, host, qd_points.to_vec()),
        what,
        || run_qd_sweep(cfg, trace, host, qd_points),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_config_is_valid() {
        bench_config().validate().unwrap();
    }

    #[test]
    fn cache_round_trips_a_tiny_matrix() {
        let mut cfg = ExperimentConfig::scaled(0.001);
        cfg.traces = vec![ipu_core::trace::PaperTrace::Lun2];
        cfg.threads = 1;
        // First call computes and caches; second call must load identically.
        let dir = cache_dir();
        let a = main_matrix_cached(&cfg);
        let b = main_matrix_cached(&cfg);
        assert_eq!(a.traces, b.traces);
        assert_eq!(
            a.report(0, 0).overall_latency.count(),
            b.report(0, 0).overall_latency.count()
        );
        assert!(dir.exists());
    }
}
