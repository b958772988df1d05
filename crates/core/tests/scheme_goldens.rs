//! Golden `SimReport`s: every scheme under each config that steers one of its
//! policy branches, replayed on ts0 at 1% scale and compared byte for byte
//! with `goldens/scheme_reports.jsonl`.
//!
//! The configs pin the branches the default run never takes: greedy victim
//! selection (`ipu_use_isr_gc = false`), a collapsed level hierarchy
//! (`ipu_max_level = 1`), a tight packing buffer (`mga_open_page_limit = 2`),
//! the `heavy` fault profile with its retry ladder (block retirement,
//! program retries, read recovery), the event core's two non-default
//! timing paths: run-to-completion GC (`rtc`) and read suspension at 50 µs
//! boundaries (`suspend`), and the two background reclaim paths the default
//! run leaves idle: static wear-leveling checked every 8 erases at a 1-cycle
//! gap (`wear`), and MLC GC on a device with 2 blocks per plane, half of
//! them SLC (`mlc-pressure`, which also runs out of space and fails writes).
//! Each golden line is
//! `{"cell":"<config>/<scheme>","report":<compact SimReport>}`.
//!
//! On a mismatch the test names the cell and the first differing field, and
//! writes the fresh lines next to the test binaries (the path is in the
//! failure message). A deliberate behaviour change is accepted by copying
//! that file over the golden one and saying which cells moved and why.

use std::path::Path;

use ipu_core::flash::FaultProfile;
use ipu_core::ftl::SchemeKind;
use ipu_core::sim::GcMode;
use ipu_core::trace::PaperTrace;
use ipu_core::{run_one, ExperimentConfig};
use serde::Value;

const GOLDEN: &str = include_str!("goldens/scheme_reports.jsonl");

/// The named configs, each differing from `default` in one policy or timing
/// knob.
fn configs() -> Vec<(&'static str, ExperimentConfig)> {
    let default = ExperimentConfig::scaled(0.01);
    let mut isr_off = default.clone();
    isr_off.ftl.ipu_use_isr_gc = false;
    let mut max_level_1 = default.clone();
    max_level_1.ftl.ipu_max_level = 1;
    let mut open_limit_2 = default.clone();
    open_limit_2.ftl.mga_open_page_limit = 2;
    let mut heavy = default.clone();
    let (fault, retry) = FaultProfile::named("heavy").expect("heavy is a named profile");
    heavy.device.fault = fault;
    heavy.device.retry = retry;
    let mut rtc = default.clone();
    rtc.timing.gc_mode = GcMode::RunToCompletion;
    let mut suspend = default.clone();
    suspend.timing.suspend_granularity_ns = 50_000;
    let mut wear = default.clone();
    wear.ftl.wear_leveling.check_interval_erases = 8;
    wear.ftl.wear_leveling.wear_gap_threshold = 1;
    let mut mlc_pressure = default.clone();
    mlc_pressure.device.geometry.blocks_per_plane = 2;
    mlc_pressure.device.geometry.pages_per_block_mlc = 48;
    mlc_pressure.device.geometry.pages_per_block_slc = 32;
    mlc_pressure.ftl.slc_ratio = 0.5;
    vec![
        ("default", default),
        ("isr-off", isr_off),
        ("max-level-1", max_level_1),
        ("open-limit-2", open_limit_2),
        ("heavy", heavy),
        ("rtc", rtc),
        ("suspend", suspend),
        ("wear", wear),
        ("mlc-pressure", mlc_pressure),
    ]
}

/// One `(cell name, JSON line)` per config × scheme, in golden-file order.
fn run_cells() -> Vec<(String, String)> {
    let mut cells = Vec::new();
    for (name, cfg) in configs() {
        for scheme in SchemeKind::all_extended() {
            let cell = format!("{name}/{scheme}");
            let report = run_one(&cfg, PaperTrace::Ts0, scheme);
            let line = Value::Object(vec![
                ("cell".to_string(), Value::Str(cell.clone())),
                ("report".to_string(), serde::Serialize::to_value(&report)),
            ]);
            let line = serde_json::to_string(&line).expect("reports serialize");
            cells.push((cell, line));
        }
    }
    cells
}

/// Path and values of the first field where `golden` and `actual` differ.
fn first_diff(path: &str, golden: &Value, actual: &Value) -> Option<String> {
    match (golden, actual) {
        (Value::Object(g), Value::Object(a)) => {
            for ((gk, gv), (ak, av)) in g.iter().zip(a) {
                if gk != ak {
                    return Some(format!("{path}: golden field `{gk}`, got `{ak}`"));
                }
                if let Some(d) = first_diff(&format!("{path}.{gk}"), gv, av) {
                    return Some(d);
                }
            }
            (g.len() != a.len())
                .then(|| format!("{path}: golden has {} fields, got {}", g.len(), a.len()))
        }
        (Value::Array(g), Value::Array(a)) => {
            for (i, (gv, av)) in g.iter().zip(a).enumerate() {
                if let Some(d) = first_diff(&format!("{path}[{i}]"), gv, av) {
                    return Some(d);
                }
            }
            (g.len() != a.len())
                .then(|| format!("{path}: golden has {} items, got {}", g.len(), a.len()))
        }
        _ => (golden != actual).then(|| format!("{path}: golden {golden:?}, got {actual:?}")),
    }
}

#[test]
fn scheme_reports_match_goldens() {
    let cells = run_cells();
    let golden: Vec<&str> = GOLDEN.lines().collect();
    let actual: Vec<&str> = cells.iter().map(|(_, line)| line.as_str()).collect();
    if golden == actual {
        return;
    }
    let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join("scheme_reports.jsonl");
    let mut text = actual.join("\n");
    text.push('\n');
    std::fs::write(&fresh, text).expect("write fresh goldens");
    let mut problems = Vec::new();
    if golden.len() != actual.len() {
        problems.push(format!(
            "golden file has {} cells, the run has {}",
            golden.len(),
            actual.len()
        ));
    }
    for ((cell, line), want) in cells.iter().zip(&golden) {
        if line == want {
            continue;
        }
        let want: Value = serde_json::from_str(want).expect("golden lines are JSON");
        let got: Value = serde_json::from_str(line).expect("fresh lines are JSON");
        let diff = first_diff("", &want, &got).unwrap_or_else(|| "text differs".to_string());
        problems.push(format!("{cell}: {diff}"));
    }
    panic!(
        "the run differs from the goldens; fresh lines in {}:\n{}",
        fresh.display(),
        problems.join("\n")
    );
}

/// Every non-default config must move at least one scheme's report, or it
/// pins no branch the default cells do not already pin.
#[test]
fn every_config_steers_some_scheme() {
    let schemes = SchemeKind::all_extended().len();
    let lines: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(lines.len(), configs().len() * schemes);
    let reports: Vec<Value> = lines
        .iter()
        .map(|line| {
            let v: Value = serde_json::from_str(line).expect("golden lines are JSON");
            v.get_field("report")
                .cloned()
                .expect("every line has a report")
        })
        .collect();
    let (default, rest) = reports.split_at(schemes);
    for ((name, _), cells) in configs().iter().skip(1).zip(rest.chunks(schemes)) {
        assert!(
            cells.iter().zip(default).any(|(a, b)| a != b),
            "config {name} leaves every scheme's report unchanged"
        );
    }
}
