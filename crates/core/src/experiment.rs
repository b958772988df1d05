//! Experiment runners: one function per table/figure of the paper.
//!
//! Each runner returns a serializable result struct that the report module
//! renders as the same rows/series the paper prints, and that EXPERIMENTS.md
//! records as paper-vs-measured.

use std::sync::Arc;

use ipu_flash::{BerModel, CellMode};
use ipu_ftl::{MappingMemory, SchemeKind};
use ipu_sim::{replay, SimReport};
use ipu_trace::{IoRequest, PaperTrace, SyntheticTraceSpec, TraceGenerator, TraceStats};
use serde::{Deserialize, Serialize};

use crate::cache::ReplayCache;
use crate::config::ExperimentConfig;
use crate::parallel::parallel_map;
use crate::trace_set::TraceSet;

/// The calibrated trace spec scaled to `cfg.scale` — the exact generator
/// input for one trace, and (with the replay config) the replay-cache key.
pub fn scaled_spec(cfg: &ExperimentConfig, trace: PaperTrace) -> SyntheticTraceSpec {
    let spec = ipu_trace::paper_trace(trace);
    let requests = ((spec.requests as f64) * cfg.scale).max(1.0) as u64;
    spec.with_requests(requests)
}

/// Generates the (scaled) calibrated request stream for one trace.
pub fn generate_trace(cfg: &ExperimentConfig, trace: PaperTrace) -> Vec<IoRequest> {
    TraceGenerator::new(scaled_spec(cfg, trace)).generate()
}

/// Replays one already-generated stream for one matrix cell, consulting the
/// replay cache when one is supplied.
fn replay_cell(
    cfg: &ExperimentConfig,
    trace: PaperTrace,
    scheme: SchemeKind,
    requests: &[IoRequest],
    cache: Option<&ReplayCache>,
) -> SimReport {
    let replay_cfg = cfg.replay_config(scheme);
    match cache {
        Some(cache) => cache.get_or_replay(
            &replay_cfg,
            &scaled_spec(cfg, trace),
            requests,
            trace.name(),
        ),
        None => replay(&replay_cfg, requests, trace.name()),
    }
}

/// Runs one (trace, scheme) cell of the evaluation matrix from scratch
/// (generates the stream itself, no sharing, no cache). The matrix runners
/// below share streams via [`TraceSet`] instead.
pub fn run_one(cfg: &ExperimentConfig, trace: PaperTrace, scheme: SchemeKind) -> SimReport {
    let requests = generate_trace(cfg, trace);
    replay_cell(cfg, trace, scheme, &requests, None)
}

/// [`run_one`] over a pre-generated shared stream and an optional replay
/// cache — the ablation runner reuses one [`TraceSet`] across every config
/// variant (the streams only depend on `(trace, scale)`).
pub fn run_one_with(
    cfg: &ExperimentConfig,
    trace: PaperTrace,
    scheme: SchemeKind,
    traces: &TraceSet,
    cache: Option<&ReplayCache>,
) -> SimReport {
    replay_cell(cfg, trace, scheme, &traces.get(trace), cache)
}

/// The full trace × scheme matrix over pre-generated shared streams, run
/// with the configured parallelism and optionally served from (and filling)
/// an on-disk [`ReplayCache`]. `result[t][s]` corresponds to
/// `cfg.traces[t]`, `cfg.schemes[s]`.
pub fn run_matrix_with(
    cfg: &ExperimentConfig,
    traces: &TraceSet,
    cache: Option<&ReplayCache>,
) -> Vec<Vec<SimReport>> {
    cfg.validate().expect("invalid experiment config");
    let jobs: Vec<(PaperTrace, SchemeKind, Arc<[IoRequest]>)> = cfg
        .traces
        .iter()
        .flat_map(|&t| {
            let requests = traces.get(t);
            cfg.schemes
                .iter()
                .map(move |&s| (t, s, Arc::clone(&requests)))
        })
        .collect();
    let flat = parallel_map(jobs, cfg.effective_threads(), |(t, s, requests)| {
        replay_cell(cfg, t, s, &requests, cache)
    });
    flat.chunks(cfg.schemes.len()).map(|c| c.to_vec()).collect()
}

// ---------------------------------------------------------------------------
// Tables 1 & 3
// ---------------------------------------------------------------------------

/// One trace's measured statistics next to the published row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceCalibrationRow {
    pub trace: String,
    pub measured: TraceStats,
    /// Published Table 3 row: (requests, write ratio, avg write KB, hot write).
    pub paper_table3: (u64, f64, f64, f64),
    /// Published Table 1 row: update-size buckets.
    pub paper_table1: [f64; 3],
}

/// Regenerates Tables 1 and 3: per-trace statistics of the calibrated streams.
pub fn run_trace_tables(cfg: &ExperimentConfig) -> Vec<TraceCalibrationRow> {
    run_trace_tables_with(cfg, &TraceSet::generate(cfg))
}

/// [`run_trace_tables`] over pre-generated shared streams (the CLI reuses
/// the same [`TraceSet`] it feeds the matrix runners).
pub fn run_trace_tables_with(
    cfg: &ExperimentConfig,
    traces: &TraceSet,
) -> Vec<TraceCalibrationRow> {
    let jobs: Vec<(PaperTrace, Arc<[IoRequest]>)> =
        cfg.traces.iter().map(|&t| (t, traces.get(t))).collect();
    parallel_map(jobs, cfg.effective_threads(), |(trace, requests)| {
        TraceCalibrationRow {
            trace: trace.name().to_string(),
            measured: TraceStats::compute(&requests),
            paper_table3: trace.table3_row(),
            paper_table1: trace.table1_row(),
        }
    })
}

// ---------------------------------------------------------------------------
// Figure 2 — RBER model curves
// ---------------------------------------------------------------------------

/// One P/E point of the Figure 2 reproduction.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BerCurvePoint {
    pub pe_cycles: u32,
    pub conventional: f64,
    /// Worst-case partially-programmed subpage (3 in-page disturbs).
    pub partial: f64,
}

/// Regenerates Figure 2 from the calibrated RBER + disturb models.
pub fn run_ber_curve(points: &[u32]) -> Vec<BerCurvePoint> {
    let ber = BerModel::default();
    let disturb = ipu_flash::DisturbConfig::default();
    points
        .iter()
        .map(|&pe| {
            let conventional = ber.baseline_rber(pe, CellMode::Mlc);
            BerCurvePoint {
                pe_cycles: pe,
                conventional,
                partial: disturb.effective_rber(conventional, 3, 0),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figures 5–11 — the main matrix, viewed through different metrics
// ---------------------------------------------------------------------------

/// Everything the main matrix yields, keyed for the per-figure reports.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MatrixResult {
    pub traces: Vec<String>,
    pub schemes: Vec<SchemeKind>,
    pub reports: Vec<Vec<SimReport>>,
}

/// Runs the full evaluation matrix once; Figures 5, 6, 7, 8, 9, 10 and 11
/// are all views over this result.
pub fn run_main_matrix(cfg: &ExperimentConfig) -> MatrixResult {
    run_main_matrix_with(cfg, &TraceSet::generate(cfg), None)
}

/// [`run_main_matrix`] over pre-generated shared streams and an optional
/// replay cache.
pub fn run_main_matrix_with(
    cfg: &ExperimentConfig,
    traces: &TraceSet,
    cache: Option<&ReplayCache>,
) -> MatrixResult {
    MatrixResult {
        traces: cfg.traces.iter().map(|t| t.name().to_string()).collect(),
        schemes: cfg.schemes.clone(),
        reports: run_matrix_with(cfg, traces, cache),
    }
}

impl MatrixResult {
    /// Report for (trace index, scheme index).
    pub fn report(&self, trace: usize, scheme: usize) -> &SimReport {
        &self.reports[trace][scheme]
    }

    /// Finds the column index of a scheme.
    pub fn scheme_index(&self, scheme: SchemeKind) -> Option<usize> {
        self.schemes.iter().position(|&s| s == scheme)
    }

    /// Geometric-mean ratio of a metric between two schemes across traces
    /// (how the paper summarizes "X% on average").
    pub fn mean_ratio(
        &self,
        numerator: SchemeKind,
        denominator: SchemeKind,
        metric: impl Fn(&SimReport) -> f64,
    ) -> f64 {
        let ni = self.scheme_index(numerator).expect("scheme in matrix");
        let di = self.scheme_index(denominator).expect("scheme in matrix");
        let mut log_sum = 0.0;
        let mut n = 0u32;
        for row in &self.reports {
            let a = metric(&row[ni]);
            let b = metric(&row[di]);
            if a > 0.0 && b > 0.0 {
                log_sum += (a / b).ln();
                n += 1;
            }
        }
        if n == 0 {
            1.0
        } else {
            (log_sum / n as f64).exp()
        }
    }

    /// Figure 11 helper: mapping size normalized to Baseline per trace.
    pub fn normalized_mapping(&self, trace: usize) -> Vec<f64> {
        let baseline_idx = self
            .scheme_index(SchemeKind::Baseline)
            .expect("Figure 11 needs the Baseline scheme in the matrix");
        let base: MappingMemory = self.reports[trace][baseline_idx].mapping;
        self.reports[trace]
            .iter()
            .map(|r| r.mapping.normalized_to(&base))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Figures 13 & 14 — P/E cycle sweep
// ---------------------------------------------------------------------------

/// Matrix results at one pre-aged P/E point (§4.5).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PeSweepResult {
    pub pe_points: Vec<u32>,
    /// One full matrix per P/E point.
    pub matrices: Vec<MatrixResult>,
}

/// Runs the §4.5 sweep; the paper uses P/E ∈ {1000, 2000, 4000, 8000}.
///
/// The streams only depend on `(traces, scale)`, not on aging, so one
/// [`TraceSet`] serves every P/E point.
pub fn run_pe_sweep(cfg: &ExperimentConfig, pe_points: &[u32]) -> PeSweepResult {
    run_pe_sweep_with(cfg, pe_points, &TraceSet::generate(cfg), None)
}

/// [`run_pe_sweep`] over pre-generated shared streams and an optional replay
/// cache (each P/E point keys separately: aging is part of the device config).
pub fn run_pe_sweep_with(
    cfg: &ExperimentConfig,
    pe_points: &[u32],
    traces: &TraceSet,
    cache: Option<&ReplayCache>,
) -> PeSweepResult {
    let matrices = pe_points
        .iter()
        .map(|&pe| run_main_matrix_with(&cfg.with_pe_cycles(pe), traces, cache))
        .collect();
    PeSweepResult {
        pe_points: pe_points.to_vec(),
        matrices,
    }
}

/// The paper's default P/E sweep points.
pub const PAPER_PE_POINTS: [u32; 4] = [1000, 2000, 4000, 8000];

#[cfg(test)]
mod tests {
    use super::*;

    /// A very small but complete experiment config for tests.
    fn tiny_cfg() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::scaled(0.002);
        cfg.traces = vec![PaperTrace::Ts0];
        cfg.schemes = SchemeKind::all().to_vec();
        cfg.threads = 1;
        cfg
    }

    #[test]
    fn ber_curve_reproduces_figure2_points() {
        let curve = run_ber_curve(&[0, 1000, 2000, 4000, 8000]);
        assert_eq!(curve.len(), 5);
        let at4000 = curve.iter().find(|p| p.pe_cycles == 4000).unwrap();
        assert!((at4000.conventional - 2.8e-4).abs() < 1e-9);
        assert!((at4000.partial - 3.8e-4).abs() < 1e-9);
        // Both curves grow with wear, partial always above conventional.
        for w in curve.windows(2) {
            assert!(w[1].conventional > w[0].conventional);
            assert!(w[1].partial > w[0].partial);
        }
        for p in &curve {
            assert!(p.partial > p.conventional);
        }
    }

    #[test]
    fn trace_tables_include_paper_rows() {
        let rows = run_trace_tables(&tiny_cfg());
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].trace, "ts0");
        assert_eq!(rows[0].paper_table3.0, 1_801_734);
        assert!(rows[0].measured.requests > 1000);
    }

    #[test]
    fn main_matrix_runs_all_schemes() {
        let m = run_main_matrix(&tiny_cfg());
        assert_eq!(m.reports.len(), 1);
        assert_eq!(m.reports[0].len(), 3);
        for (s, report) in m.reports[0].iter().enumerate() {
            assert_eq!(report.scheme, m.schemes[s]);
            assert!(report.requests > 0);
            assert!(report.overall_latency.mean_ns() > 0.0);
        }
        // Normalized mapping: Baseline is exactly 1.0.
        let norm = m.normalized_mapping(0);
        let b = m.scheme_index(SchemeKind::Baseline).unwrap();
        assert!((norm[b] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_ratio_is_one_for_identical_scheme() {
        let m = run_main_matrix(&tiny_cfg());
        let r = m.mean_ratio(SchemeKind::Ipu, SchemeKind::Ipu, |r| {
            r.overall_latency.mean_ns()
        });
        assert!((r - 1.0).abs() < 1e-12);
    }
}
