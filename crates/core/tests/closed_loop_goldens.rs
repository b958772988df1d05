//! Golden closed-loop and fleet reports: the host queues, arbitration and
//! admission in front of the FTL, and the fleet merge and tolerance pass on
//! top of them, compared byte for byte with `goldens/closed_loop_reports.jsonl`.
//!
//! The closed-loop cells replay ts0 at 1% scale with arrivals 8× faster than
//! calibrated, dealt round-robin to four tenants, under every arbitration
//! policy: `rr`, `wrr` (weights 4/2/1/1) and `prio` (priorities 0/0/1/1),
//! each at queue depth 1 and 64, with and without a dispatch overhead, for
//! Baseline and IPU. Each line is
//! `{"cell":"<policy>/qd<depth>/oh<overhead ns>/<scheme>","report":<compact ClosedLoopReport>}`.
//!
//! The two fleet cells run one `run_fleet_detailed` rung of ts0 at 1% on
//! IPU: four devices and sixteen hash-routed tenants under the inert fault
//! plan, and the same fleet with one mirror pair member failing halfway
//! (`fail_stop`, `MirrorPair` replication), which runs the tolerance pass.
//! Each line is `{"cell":"fleet/<plan>","fleet":<FleetReport>,"devices":[<ClosedLoopReport or null>, ...]}`.
//!
//! On a mismatch the test names the cell and the first differing field, and
//! writes the fresh lines next to the test binaries (the path is in the
//! failure message). A deliberate behaviour change is accepted by copying
//! that file over the golden one and saying which cells moved and why.

use std::path::Path;

use ipu_core::ftl::SchemeKind;
use ipu_core::trace::{split_round_robin, PaperTrace, TraceGenerator};
use ipu_core::{scaled_spec, ExperimentConfig};
use ipu_fleet::{run_fleet_detailed, FleetFaultPlan, FleetSpec, ReplicationPolicy, ShardPolicy};
use ipu_host::{ArbitrationPolicy, HostConfig, TenantSpec};
use ipu_sim::replay_closed_loop;
use serde::Value;

const GOLDEN: &str = include_str!("goldens/closed_loop_reports.jsonl");

/// How many times faster than calibrated the closed-loop cells' requests
/// arrive, so the deep queues fill and admission stalls.
const ARRIVAL_SPEEDUP: u64 = 8;
const TENANTS: usize = 4;
const DISPATCH_OVERHEADS_NS: [u64; 2] = [0, 10_000];
const QUEUE_DEPTHS: [usize; 2] = [1, 64];

/// The four tenants under `policy`: weights 4/2/1/1 for `wrr`, priorities
/// 0/0/1/1 for `prio`, all equal for `rr`.
fn tenants(policy: ArbitrationPolicy) -> Vec<TenantSpec> {
    (0..TENANTS)
        .map(|i| {
            let t = TenantSpec::new(format!("t{i}"));
            match policy {
                ArbitrationPolicy::RoundRobin => t,
                ArbitrationPolicy::WeightedRoundRobin => t.with_weight([4, 2, 1, 1][i]),
                ArbitrationPolicy::StrictPriority => t.with_priority([0, 0, 1, 1][i]),
            }
        })
        .collect()
}

fn line(fields: Vec<(&str, Value)>) -> String {
    let fields = fields
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    serde_json::to_string(&Value::Object(fields)).expect("reports serialize")
}

/// One `(cell name, JSON line)` per cell, in golden-file order.
fn run_cells() -> Vec<(String, String)> {
    let cfg = ExperimentConfig::scaled(0.01);
    let mut cells = Vec::new();

    let mut spec = scaled_spec(&cfg, PaperTrace::Ts0);
    spec.mean_interarrival_ns /= ARRIVAL_SPEEDUP;
    let streams = split_round_robin(&TraceGenerator::new(spec).generate(), TENANTS);
    for policy in [
        ArbitrationPolicy::RoundRobin,
        ArbitrationPolicy::WeightedRoundRobin,
        ArbitrationPolicy::StrictPriority,
    ] {
        for qd in QUEUE_DEPTHS {
            for overhead in DISPATCH_OVERHEADS_NS {
                let host =
                    HostConfig::new(qd, policy, tenants(policy)).with_dispatch_overhead(overhead);
                for scheme in [SchemeKind::Baseline, SchemeKind::Ipu] {
                    let cell = format!("{}/qd{qd}/oh{overhead}/{scheme}", policy.label());
                    let report =
                        replay_closed_loop(&cfg.replay_config(scheme), &host, &streams, "ts0");
                    let text = line(vec![
                        ("cell", Value::Str(cell.clone())),
                        ("report", serde::Serialize::to_value(&report)),
                    ]);
                    cells.push((cell, text));
                }
            }
        }
    }

    let base = TraceGenerator::new(scaled_spec(&cfg, PaperTrace::Ts0)).generate();
    let inert = FleetSpec::new(4, 16, ShardPolicy::Hash);
    let fail_stop = inert
        .clone()
        .with_fault_plan(FleetFaultPlan::fail_stop(4, 1, 0.5, 7))
        .with_replication(ReplicationPolicy::MirrorPair);
    for (name, spec) in [("inert", inert), ("failstop-mirror", fail_stop)] {
        let cell = format!("fleet/{name}");
        let (fleet, devices) = run_fleet_detailed(&cfg, SchemeKind::Ipu, "ts0", &base, &spec);
        let text = line(vec![
            ("cell", Value::Str(cell.clone())),
            ("fleet", serde::Serialize::to_value(&fleet)),
            ("devices", serde::Serialize::to_value(&devices)),
        ]);
        cells.push((cell, text));
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
fn closed_loop_and_fleet_reports_match_goldens() {
    let cells = run_cells();
    let golden: Vec<&str> = GOLDEN.lines().collect();
    let actual: Vec<&str> = cells.iter().map(|(_, line)| line.as_str()).collect();
    if golden == actual {
        return;
    }
    let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join("closed_loop_reports.jsonl");
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

/// Every closed-loop cell pins a report no other cell does, so each policy,
/// depth and overhead steers the run; only the fail-stop fleet cell runs the
/// tolerance pass.
#[test]
fn every_cell_pins_a_distinct_run() {
    let lines: Vec<Value> = GOLDEN
        .lines()
        .map(|line| serde_json::from_str(line).expect("golden lines are JSON"))
        .collect();
    let closed: Vec<&Value> = lines.iter().filter_map(|v| v.get_field("report")).collect();
    assert_eq!(
        closed.len(),
        3 * QUEUE_DEPTHS.len() * DISPATCH_OVERHEADS_NS.len() * 2
    );
    for (i, a) in closed.iter().enumerate() {
        assert!(
            closed[i + 1..].iter().all(|b| a != b),
            "closed-loop cell {i} repeats a later cell"
        );
    }
    let tolerance: Vec<bool> = lines
        .iter()
        .filter_map(|v| v.get_field("fleet"))
        .map(|f| f.get_field("fleet_reliability") != Some(&Value::Null))
        .collect();
    assert_eq!(tolerance, [false, true]);
}
