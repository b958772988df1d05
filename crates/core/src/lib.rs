//! # ipu-core — public API of the IPU paper reproduction
//!
//! End-to-end reproduction of *"Intra-page Cache Update in SLC-mode with
//! Partial Programming in High Density SSDs"* (ICPP 2021): configure an
//! experiment, run the trace × scheme evaluation matrix on the simulated
//! device, and render the paper's tables and figures.
//!
//! ```
//! use ipu_core::{ExperimentConfig, experiment, report};
//! use ipu_ftl::SchemeKind;
//! use ipu_trace::PaperTrace;
//!
//! // A miniature run: 0.2% of ts0 under all three schemes.
//! let mut cfg = ExperimentConfig::scaled(0.002);
//! cfg.traces = vec![PaperTrace::Ts0];
//! cfg.schemes = SchemeKind::all().to_vec();
//! let matrix = experiment::run_main_matrix(&cfg);
//! println!("{}", report::render_fig5(&matrix));
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod charts;
pub mod config;
pub mod experiment;
pub mod parallel;
pub mod profile;
pub mod qd_sweep;
pub mod report;
pub mod results;
pub mod scorecard;
pub mod svg;
pub mod trace_set;

pub use cache::{CacheStats, ReplayCache, CACHE_SCHEMA_VERSION};
pub use charts::{chart_matrix, BarChart};
pub use config::ExperimentConfig;
pub use experiment::{
    run_ber_curve, run_main_matrix, run_main_matrix_with, run_matrix_with, run_one, run_one_with,
    run_pe_sweep, run_pe_sweep_with, run_trace_tables, run_trace_tables_with, scaled_spec,
    MatrixResult, PeSweepResult, PAPER_PE_POINTS,
};
pub use parallel::{default_threads, parallel_map};
pub use profile::{run_profile, BenchProfile, PhaseWall, RunProfile};
pub use qd_sweep::{
    run_qd_sweep, run_qd_sweep_with, QdSweepHostSpec, QdSweepResult, PAPER_QD_POINTS,
};
pub use results::ExperimentRecord;
pub use scorecard::{evaluate as evaluate_scorecard, ClaimResult, Outcome};
pub use svg::{write_figures, GroupedBars, HeatStrip, LineChart};
pub use trace_set::TraceSet;

// Re-export the layer crates so downstream users need only one dependency.
pub use ipu_flash as flash;
pub use ipu_ftl as ftl;
pub use ipu_host as host;
pub use ipu_obs as obs;
pub use ipu_sim as sim;
pub use ipu_trace as trace;
