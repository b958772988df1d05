//! Regression test for the report-determinism invariant behind `ipu-lint`'s
//! `unordered-iter` rule: the surfaces that feed rendered reports and JSON
//! exports iterate ordered collections, so two identical runs must produce
//! byte-identical output. This pins the BTreeMap conversions in
//! `trace::stats`, `ftl::cache_meta` and `ftl::schemes::common` — a stray
//! HashMap iteration anywhere on the render path breaks this test (flakily),
//! and breaks the replay cache and the counter fingerprints the same way.

use ipu_core::ftl::SchemeKind;
use ipu_core::trace::PaperTrace;
use ipu_core::{report, ExperimentConfig, TraceSet};

fn one_pass() -> (String, String) {
    let mut cfg = ExperimentConfig::scaled(0.002);
    cfg.threads = 1;
    cfg.traces = vec![PaperTrace::Ts0];
    cfg.schemes = vec![SchemeKind::Baseline, SchemeKind::Ipu];
    let traces = TraceSet::generate(&cfg);
    let matrix = ipu_core::run_main_matrix_with(&cfg, &traces, None);
    let mut text = String::new();
    for render in [
        report::render_fig5,
        report::render_fig6,
        report::render_fig7,
        report::render_fig8,
        report::render_fig9,
        report::render_fig10,
        report::render_fig11,
    ] {
        text.push_str(&render(&matrix));
        text.push('\n');
    }
    let json = serde_json::to_string_pretty(&matrix).expect("matrix serializes");
    (text, json)
}

#[test]
fn identical_runs_render_byte_identical_reports() {
    let (text_a, json_a) = one_pass();
    let (text_b, json_b) = one_pass();
    assert_eq!(text_a, text_b, "rendered reports diverged between two runs");
    assert_eq!(json_a, json_b, "JSON exports diverged between two runs");
}
