//! Plain-text report rendering: aligned tables matching the paper's figures.

use ipu_ftl::SchemeKind;

use crate::experiment::{BerCurvePoint, MatrixResult, PeSweepResult, TraceCalibrationRow};
use crate::profile::PhaseWall;
use crate::qd_sweep::QdSweepResult;

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    pub fn new(headers: &[&str]) -> Self {
        TextTable {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders with column alignment and a separator under the header.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                // Right-align numerics (first column left).
                if i == 0 {
                    line.push_str(&format!("{:<w$}", cell, w = widths[i]));
                } else {
                    line.push_str(&format!("{:>w$}", cell, w = widths[i]));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

fn ms(x: f64) -> String {
    format!("{x:.4}")
}

fn sci(x: f64) -> String {
    format!("{x:.3e}")
}

/// Table 1: update-size distribution, measured vs paper.
pub fn render_table1(rows: &[TraceCalibrationRow]) -> String {
    let mut t = TextTable::new(&[
        "Trace",
        "<=4K",
        "(4K,8K]",
        ">8K",
        "paper<=4K",
        "paper(4K,8K]",
        "paper>8K",
    ]);
    for r in rows {
        t.row(vec![
            r.trace.clone(),
            pct(r.measured.update_sizes.up_to_4k),
            pct(r.measured.update_sizes.up_to_8k),
            pct(r.measured.update_sizes.over_8k),
            pct(r.paper_table1[0]),
            pct(r.paper_table1[1]),
            pct(r.paper_table1[2]),
        ]);
    }
    format!(
        "Table 1 — size distribution of updated requests\n{}",
        t.render()
    )
}

/// Table 3: trace specifications, measured vs paper.
pub fn render_table3(rows: &[TraceCalibrationRow]) -> String {
    let mut t = TextTable::new(&[
        "Trace",
        "#Req",
        "WriteR",
        "WriteSZ(KB)",
        "HotWrite",
        "paperWR",
        "paperSZ",
        "paperHot",
    ]);
    for r in rows {
        let (_, wr, sz, hot) = r.paper_table3;
        t.row(vec![
            r.trace.clone(),
            r.measured.requests.to_string(),
            pct(r.measured.write_ratio),
            format!("{:.1}", r.measured.avg_write_size / 1024.0),
            pct(r.measured.hot_write_ratio),
            pct(wr),
            format!("{sz:.1}"),
            pct(hot),
        ]);
    }
    format!(
        "Table 3 — specifications of the selected traces\n{}",
        t.render()
    )
}

/// Figure 2: RBER vs P/E curves.
pub fn render_fig2(curve: &[BerCurvePoint]) -> String {
    let mut t = TextTable::new(&["P/E", "conventional", "partial"]);
    for p in curve {
        t.row(vec![
            p.pe_cycles.to_string(),
            sci(p.conventional),
            sci(p.partial),
        ]);
    }
    format!(
        "Figure 2 — bit error rate of conventional vs partial programming\n{}",
        t.render()
    )
}

/// Figure 5: mean response times per trace × scheme (read / write / overall).
pub fn render_fig5(m: &MatrixResult) -> String {
    let mut t = TextTable::new(&["Trace", "Scheme", "read(ms)", "write(ms)", "overall(ms)"]);
    for (ti, trace) in m.traces.iter().enumerate() {
        for (si, scheme) in m.schemes.iter().enumerate() {
            let r = m.report(ti, si);
            t.row(vec![
                trace.clone(),
                scheme.label().to_string(),
                ms(r.read_latency.mean_ms()),
                ms(r.write_latency.mean_ms()),
                ms(r.overall_latency.mean_ms()),
            ]);
        }
    }
    let mut out = format!("Figure 5 — I/O response time distribution\n{}", t.render());
    out.push('\n');
    out.push_str(&crate::charts::chart_matrix(
        m,
        "overall mean response time",
        "ms",
        |r| r.overall_latency.mean_ms(),
    ));
    if let (Some(_), Some(_), Some(_)) = (
        m.scheme_index(SchemeKind::Baseline),
        m.scheme_index(SchemeKind::Mga),
        m.scheme_index(SchemeKind::Ipu),
    ) {
        let overall = |r: &ipu_sim::SimReport| r.overall_latency.mean_ns();
        let writes = |r: &ipu_sim::SimReport| r.write_latency.mean_ns();
        let reads = |r: &ipu_sim::SimReport| r.read_latency.mean_ns();
        out.push_str(&format!(
            "summary: overall IPU/Baseline={:.3} MGA/Baseline={:.3} | write IPU/Baseline={:.3} \
             IPU/MGA={:.3} | read IPU/MGA={:.3}\n",
            m.mean_ratio(SchemeKind::Ipu, SchemeKind::Baseline, overall),
            m.mean_ratio(SchemeKind::Mga, SchemeKind::Baseline, overall),
            m.mean_ratio(SchemeKind::Ipu, SchemeKind::Baseline, writes),
            m.mean_ratio(SchemeKind::Ipu, SchemeKind::Mga, writes),
            m.mean_ratio(SchemeKind::Ipu, SchemeKind::Mga, reads),
        ));
    }
    out
}

/// Figure 6: completed writes split between SLC-mode and MLC regions.
pub fn render_fig6(m: &MatrixResult) -> String {
    let mut t = TextTable::new(&[
        "Trace",
        "Scheme",
        "SLC subpages",
        "MLC subpages",
        "MLC share",
    ]);
    for (ti, trace) in m.traces.iter().enumerate() {
        for (si, scheme) in m.schemes.iter().enumerate() {
            let r = m.report(ti, si);
            // Host writes completed in each region; the hybrid bypass sends
            // writes to MLC when the cache is under GC pressure, so this is
            // a direct measure of how much write traffic the cache absorbs.
            let slc = r.ftl.host_subpages_to_slc;
            let mlc = r.ftl.host_subpages_to_mlc;
            t.row(vec![
                trace.clone(),
                scheme.label().to_string(),
                slc.to_string(),
                mlc.to_string(),
                pct(mlc as f64 / (slc + mlc).max(1) as f64),
            ]);
        }
    }
    format!(
        "Figure 6 — completed writes distribution in SLC/MLC blocks\n{}",
        t.render()
    )
}

/// Figure 7: IPU's write distribution across the three-level blocks.
pub fn render_fig7(m: &MatrixResult) -> String {
    let Some(si) = m.scheme_index(SchemeKind::Ipu) else {
        return "Figure 7 requires the IPU scheme in the matrix\n".into();
    };
    let mut t = TextTable::new(&["Trace", "HighDensity", "Work", "Monitor", "Hot"]);
    for (ti, trace) in m.traces.iter().enumerate() {
        let d = m.report(ti, si).ftl.level_distribution();
        t.row(vec![
            trace.clone(),
            pct(d[0]),
            pct(d[1]),
            pct(d[2]),
            pct(d[3]),
        ]);
    }
    format!(
        "Figure 7 — occurred writes distribution in three-level blocks (IPU)\n{}",
        t.render()
    )
}

/// Figure 8: average read error rate.
pub fn render_fig8(m: &MatrixResult) -> String {
    let mut t = TextTable::new(&["Trace", "Scheme", "read error rate"]);
    for (ti, trace) in m.traces.iter().enumerate() {
        for (si, scheme) in m.schemes.iter().enumerate() {
            t.row(vec![
                trace.clone(),
                scheme.label().to_string(),
                sci(m.report(ti, si).read_error_rate()),
            ]);
        }
    }
    let mut out = format!("Figure 8 — average read error rate\n{}", t.render());
    out.push('\n');
    out.push_str(&crate::charts::chart_matrix(
        m,
        "average read error rate",
        "rber",
        |r| r.read_error_rate(),
    ));
    if m.scheme_index(SchemeKind::Baseline).is_some()
        && m.scheme_index(SchemeKind::Mga).is_some()
        && m.scheme_index(SchemeKind::Ipu).is_some()
    {
        let err = |r: &ipu_sim::SimReport| r.read_error_rate();
        out.push_str(&format!(
            "summary: MGA/Baseline={:.3} IPU/Baseline={:.3} IPU/MGA={:.3}\n",
            m.mean_ratio(SchemeKind::Mga, SchemeKind::Baseline, err),
            m.mean_ratio(SchemeKind::Ipu, SchemeKind::Baseline, err),
            m.mean_ratio(SchemeKind::Ipu, SchemeKind::Mga, err),
        ));
    }
    out
}

/// Figure 9: page utilization of GC'd blocks in the SLC cache.
pub fn render_fig9(m: &MatrixResult) -> String {
    let mut t = TextTable::new(&["Trace", "Scheme", "page utilization"]);
    for (ti, trace) in m.traces.iter().enumerate() {
        for (si, scheme) in m.schemes.iter().enumerate() {
            t.row(vec![
                trace.clone(),
                scheme.label().to_string(),
                pct(m.report(ti, si).gc_page_utilization()),
            ]);
        }
    }
    format!(
        "Figure 9 — page utilization ratio of GC blocks in the SLC-mode cache\n{}",
        t.render()
    )
}

/// Figure 10: erase counts in SLC-mode and MLC blocks.
pub fn render_fig10(m: &MatrixResult) -> String {
    let mut t = TextTable::new(&["Trace", "Scheme", "SLC erases", "MLC erases"]);
    for (ti, trace) in m.traces.iter().enumerate() {
        for (si, scheme) in m.schemes.iter().enumerate() {
            let r = m.report(ti, si);
            t.row(vec![
                trace.clone(),
                scheme.label().to_string(),
                r.wear.slc_erases.to_string(),
                r.wear.mlc_erases.to_string(),
            ]);
        }
    }
    format!(
        "Figure 10 — erase number occurred in SLC and MLC blocks\n{}",
        t.render()
    )
}

/// Figure 11: normalized mapping-table size.
pub fn render_fig11(m: &MatrixResult) -> String {
    let mut t = TextTable::new(&["Trace", "Scheme", "normalized size", "bytes"]);
    for (ti, trace) in m.traces.iter().enumerate() {
        let norm = m.normalized_mapping(ti);
        for (si, scheme) in m.schemes.iter().enumerate() {
            t.row(vec![
                trace.clone(),
                scheme.label().to_string(),
                format!("{:.4}", norm[si]),
                m.report(ti, si).mapping.total().to_string(),
            ]);
        }
    }
    format!("Figure 11 — normalized mapping table size\n{}", t.render())
}

/// Reliability section (extension): per-request completion status under the
/// configured fault profile, plus the recovery-path counters — read retries,
/// recovered reads, retired blocks and accounted data loss.
pub fn render_reliability(m: &MatrixResult) -> String {
    let mut t = TextTable::new(&[
        "Trace",
        "Scheme",
        "success",
        "recovered",
        "failed",
        "avail",
        "retries",
        "retired",
        "uncorr",
        "data loss",
    ]);
    for (ti, trace) in m.traces.iter().enumerate() {
        for (si, scheme) in m.schemes.iter().enumerate() {
            let r = m.report(ti, si);
            t.row(vec![
                trace.clone(),
                scheme.label().to_string(),
                r.reliability.success.to_string(),
                r.reliability.recovered.to_string(),
                r.reliability.failed.to_string(),
                format!("{:.6}", r.reliability.availability()),
                r.ftl.read_retries.to_string(),
                r.ftl.retired_blocks.to_string(),
                r.ftl.host_uncorrectable_reads.to_string(),
                r.ftl.data_loss_events.to_string(),
            ]);
        }
    }
    let mut out = format!(
        "Reliability — request completion and recovery under fault injection\n{}",
        t.render()
    );
    let total_retry_ns: u64 = (0..m.traces.len())
        .flat_map(|ti| (0..m.schemes.len()).map(move |si| (ti, si)))
        .map(|(ti, si)| m.report(ti, si).ftl.retry_latency_ns)
        .sum();
    out.push('\n');
    out.push_str(&format!(
        "total retry-ladder latency: {:.3} ms across all runs\n",
        total_retry_ns as f64 / 1e6
    ));
    out
}

/// Figures 13/14: the P/E sweep, one row per (P/E, scheme) with latency and
/// error rate averaged (geometric mean over traces handled by mean_ratio; here
/// we print arithmetic means across traces, as the paper's bars do).
pub fn render_pe_sweep(s: &PeSweepResult) -> String {
    let mut t = TextTable::new(&["P/E", "Scheme", "overall(ms)", "read err rate"]);
    for (pi, m) in s.matrices.iter().enumerate() {
        for (si, scheme) in m.schemes.iter().enumerate() {
            let n = m.traces.len() as f64;
            let lat: f64 = m
                .reports
                .iter()
                .map(|row| row[si].overall_latency.mean_ms())
                .sum::<f64>()
                / n;
            let err: f64 = m
                .reports
                .iter()
                .map(|row| row[si].read_error_rate())
                .sum::<f64>()
                / n;
            t.row(vec![
                s.pe_points[pi].to_string(),
                scheme.label().to_string(),
                ms(lat),
                sci(err),
            ]);
        }
    }
    format!(
        "Figures 13 & 14 — I/O latency and bit error rate under varied P/E cycles\n{}",
        t.render()
    )
}

/// Queue-depth sweep: per-tenant QoS of the closed-loop host interface.
pub fn render_qd_sweep(s: &QdSweepResult) -> String {
    let mut t = TextTable::new(&[
        "QD",
        "Scheme",
        "Tenant",
        "svc mean(ms)",
        "svc p99(ms)",
        "svc p999(ms)",
        "stall(ms/req)",
        "occ mean",
        "thr(req/s)",
        "fairness",
    ]);
    for (qi, row) in s.reports.iter().enumerate() {
        for (si, cell) in row.iter().enumerate() {
            for tenant in &cell.host.tenants {
                t.row(vec![
                    s.qd_points[qi].to_string(),
                    s.schemes[si].label().to_string(),
                    tenant.name.clone(),
                    ms(tenant.service_latency.mean_ms()),
                    ms(tenant.service_latency.percentile_ns(99.0) as f64 / 1e6),
                    ms(tenant.service_latency.percentile_ns(99.9) as f64 / 1e6),
                    ms(tenant.mean_stall_ns() / 1e6),
                    format!("{:.2}", tenant.occupancy.mean()),
                    format!("{:.0}", tenant.throughput_rps()),
                    format!("{:.3}", cell.host.fairness),
                ]);
            }
        }
    }
    format!(
        "Queue-depth sweep — closed-loop host interface on `{}` \
         ({} tenants, {} arbitration, split {})\n{}",
        s.trace,
        s.host.tenants.len(),
        s.host.arbitration.label(),
        s.host.split,
        t.render()
    )
}

/// The per-phase wall-time breakdown measured by `ipu-obs` spans.
/// `wall_seconds` is the wall time of everything (instrumented or not) and
/// `threads` the worker threads the run had: span time is summed over
/// threads, so shares are fractions of `wall_seconds × threads` (the
/// `phases` must have been computed against that total). The residual row
/// shows thread time outside any span (allocation, aggregation, idle
/// workers), so the rows sum to 100%.
pub fn render_phase_breakdown(phases: &[PhaseWall], wall_seconds: f64, threads: usize) -> String {
    let total_seconds = wall_seconds * threads as f64;
    let mut t = TextTable::new(&["Phase", "spans", "wall(s)", "share"]);
    let mut covered = 0.0;
    for p in phases {
        covered += p.wall_seconds;
        t.row(vec![
            p.phase.clone(),
            p.count.to_string(),
            format!("{:.3}", p.wall_seconds),
            pct(p.share),
        ]);
    }
    let residual = (total_seconds - covered).max(0.0);
    t.row(vec![
        "(uninstrumented)".to_string(),
        "—".to_string(),
        format!("{residual:.3}"),
        pct(if total_seconds > 0.0 {
            residual / total_seconds
        } else {
            0.0
        }),
    ]);
    let denominator = if threads > 1 {
        format!(", shares of {threads} threads × {wall_seconds:.3} s wall = {total_seconds:.3} thread-s")
    } else {
        String::new()
    };
    format!(
        "Phase breakdown — exclusive wall time per instrumented phase{denominator}\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_table_aligns_columns() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer-name".into(), "12345".into()]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows are equally wide.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_rejected() {
        TextTable::new(&["a", "b"]).row(vec!["only-one".into()]);
    }

    #[test]
    fn fig2_render_contains_calibration() {
        let curve = crate::experiment::run_ber_curve(&[4000]);
        let out = render_fig2(&curve);
        assert!(out.contains("4000"));
        assert!(out.contains("2.800e-4"));
    }

    #[test]
    fn pe_sweep_renderer_lists_every_point_and_scheme() {
        let mut cfg = crate::ExperimentConfig::scaled(0.001);
        cfg.traces = vec![ipu_trace::PaperTrace::Lun2];
        cfg.threads = 1;
        let sweep = crate::experiment::run_pe_sweep(&cfg, &[1000, 8000]);
        let text = render_pe_sweep(&sweep);
        assert!(text.contains("1000") && text.contains("8000"));
        for scheme in SchemeKind::all() {
            assert!(text.contains(scheme.label()), "{} missing", scheme.label());
        }
        // 2 points × 3 schemes = 6 data rows (+ header + separator + title).
        assert_eq!(text.lines().count(), 9);
    }

    #[test]
    fn fig5_report_includes_bar_chart() {
        let mut cfg = crate::ExperimentConfig::scaled(0.001);
        cfg.traces = vec![ipu_trace::PaperTrace::Lun2];
        cfg.threads = 1;
        let m = crate::experiment::run_main_matrix(&cfg);
        let text = render_fig5(&m);
        assert!(text.contains("█"), "bar chart missing from fig5 output");
        assert!(text.contains("summary:"));
    }

    #[test]
    fn phase_breakdown_lists_phases_and_residual() {
        let phases = vec![
            PhaseWall {
                phase: "ftl_write".into(),
                count: 1000,
                wall_seconds: 0.6,
                share: 0.6,
            },
            PhaseWall {
                phase: "gc".into(),
                count: 12,
                wall_seconds: 0.25,
                share: 0.25,
            },
        ];
        let text = render_phase_breakdown(&phases, 1.0, 1);
        assert!(text.contains("Phase breakdown"));
        assert!(text.contains("ftl_write"));
        assert!(text.contains("gc"));
        // Residual row accounts for the uninstrumented 0.15s.
        assert!(text.contains("(uninstrumented)"));
        assert!(text.contains("15.0%"));
        // One thread: the denominator is the wall time, as it always was.
        assert!(!text.contains("thread-s"));
        // Degenerate zero-length profile renders without dividing by zero.
        let empty = render_phase_breakdown(&[], 0.0, 1);
        assert!(empty.contains("(uninstrumented)"));
    }

    #[test]
    fn phase_breakdown_divides_by_thread_time() {
        // 2 threads × 1 s wall: 1.5 thread-seconds in spans, 0.5 residual.
        let phases = vec![PhaseWall {
            phase: "ftl_write".into(),
            count: 10,
            wall_seconds: 1.5,
            share: 0.75,
        }];
        let text = render_phase_breakdown(&phases, 1.0, 2);
        assert!(text.contains("2 threads × 1.000 s wall = 2.000 thread-s"));
        assert!(text.contains("75.0%"));
        assert!(text.contains("25.0%"), "residual is a quarter:\n{text}");
    }

    #[test]
    fn percent_and_sci_formats() {
        assert_eq!(pct(0.505), "50.5%");
        assert_eq!(sci(2.8e-4), "2.800e-4");
        assert_eq!(ms(0.12345), "0.1235"); // banker's-free round-half-up
    }
}
