//! Correctness checks applied to every pass. A failed check fails the run.

use std::collections::BTreeMap;

use ipu_fleet::FleetReport;
use ipu_host::{HostConfig, LatencyStats};
use ipu_sim::{ClosedLoopReport, SimReport};
use ipu_trace::{IoRequest, OpKind};

fn ensure(cond: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(what())
    }
}

fn read_write_counts<'a>(reqs: impl IntoIterator<Item = &'a IoRequest>) -> (u64, u64) {
    reqs.into_iter().fold((0, 0), |(r, w), q| match q.op {
        OpKind::Read => (r + 1, w),
        OpKind::Write => (r, w + 1),
    })
}

/// Every request completed exactly once, its outcome was accounted, and the
/// latency populations hold one sample per request.
fn check_sim(rep: &SimReport, reads: u64, writes: u64) -> Result<(), String> {
    let n = reads + writes;
    ensure(rep.requests == n, || {
        format!(
            "{}: {} requests reported, {n} replayed",
            rep.scheme, rep.requests
        )
    })?;
    let rel = &rep.reliability;
    ensure(
        rel.total == n && rel.success + rel.recovered + rel.failed == n && rel.lost == 0,
        || format!("{}: outcomes {rel:?} do not sum to {n}", rep.scheme),
    )?;
    ensure(
        rep.overall_latency.count() == n
            && rep.read_latency.count() == reads
            && rep.write_latency.count() == writes,
        || {
            format!(
                "{}: latency samples {}/{}/{} for {n} requests ({reads} reads)",
                rep.scheme,
                rep.overall_latency.count(),
                rep.read_latency.count(),
                rep.write_latency.count()
            )
        },
    )?;
    ensure(
        rep.ftl.host_read_requests == reads && rep.ftl.host_write_requests == writes,
        || format!("{}: FTL saw a different request mix", rep.scheme),
    )
}

pub fn check_open(rep: &SimReport, reqs: &[IoRequest]) -> Result<(), String> {
    let (reads, writes) = read_write_counts(reqs);
    check_sim(rep, reads, writes)
}

/// Closed loop: the device-side checks, plus per-tenant completions that
/// sum to the device's request count and a stall sample per request.
pub fn check_closed(
    rep: &ClosedLoopReport,
    host: &HostConfig,
    streams: &[Vec<IoRequest>],
) -> Result<(), String> {
    let (reads, writes) = read_write_counts(streams.iter().flatten());
    check_sim(&rep.sim, reads, writes)?;
    let n = reads + writes;
    ensure(rep.host.tenants.len() == host.tenants.len(), || {
        "tenant count changed".to_string()
    })?;
    for (t, stream) in rep.host.tenants.iter().zip(streams) {
        ensure(t.completed == stream.len() as u64, || {
            format!(
                "tenant {}: {} of {} completed",
                t.name,
                t.completed,
                stream.len()
            )
        })?;
        ensure(
            t.service_latency.count() == t.completed && t.e2e_latency.count() == t.completed,
            || format!("tenant {}: latency samples differ from completions", t.name),
        )?;
    }
    ensure(rep.host.total_completed() == rep.sim.requests, || {
        "per-tenant completions do not sum to the device's requests".to_string()
    })?;
    ensure(rep.queue_latency.count() == n, || {
        "admission-stall samples differ from requests".to_string()
    })
}

/// The fleet invariants `ci/check_fleet.py` asserts, plus conservation of
/// the routed requests.
pub fn check_fleet(r: &FleetReport, offered: u64) -> Result<(), String> {
    let name = format!("{} fleet @ {} tenants", r.scheme, r.tenants);
    ensure(r.per_device.len() == r.devices, || {
        format!("{name}: device rows")
    })?;
    let primary: u64 = r.per_device.iter().map(|d| d.ops - d.mirror_ops).sum();
    ensure(primary == r.total_ops && r.total_ops == offered, || {
        format!(
            "{name}: {primary} device ops, {} total, {offered} offered",
            r.total_ops
        )
    })?;
    let rel = &r.reliability;
    ensure(rel.failed <= rel.total + rel.lost, || {
        format!("{name}: {rel:?}")
    })?;
    ensure(
        r.e2e_latency.count() == r.total_ops && r.service_latency.count() == r.total_ops,
        || format!("{name}: pooled latency samples differ from ops"),
    )?;
    match &r.fleet_reliability {
        None => {
            // A pooled percentile lies between the busiest and the idlest
            // device's, at the histogram's log₂-bucket resolution. (The
            // script's stronger "pooled p99 ≥ median device p99" is a
            // heuristic: lightly loaded devices with high p99s break it.)
            let bucket = |ns: u64| 63 - ns.max(1).leading_zeros();
            let busy = r
                .per_device
                .iter()
                .filter(|d| d.ops > 0)
                .map(|d| bucket(d.p99_ns));
            if let (Some(lo), Some(hi)) = (busy.clone().min(), busy.max()) {
                ensure((lo..=hi).contains(&bucket(r.p99_ns)), || {
                    format!(
                        "{name}: pooled p99 {} outside the device p99 range",
                        r.p99_ns
                    )
                })?;
            }
        }
        Some(fr) => {
            ensure(
                fr.logical_ops == fr.acked + fr.lost
                    && fr.acked == fr.clean + fr.recovered
                    && fr.logical_ops == r.total_ops,
                || format!("{name}: reliability ledger {fr:?}"),
            )?;
        }
    }
    let ops: Vec<u64> = r.per_device.iter().map(|d| d.ops).collect();
    let total: u64 = ops.iter().sum();
    for h in &r.load.hot_shards {
        ensure(
            ops.get(h.device) == Some(&h.ops)
                && (h.share - h.ops as f64 / total as f64).abs() < 1e-9,
            || format!("{name}: hot shard {h:?}"),
        )?;
    }
    if total > 0 {
        let mean = total as f64 / ops.len() as f64;
        let max = ops.iter().copied().max().unwrap_or(0) as f64;
        ensure((r.load.skew - max / mean).abs() < 1e-9, || {
            format!("{name}: load skew {}", r.load.skew)
        })?;
    }
    Ok(())
}

/// Submission→completion latency of a closed-loop run: admission stall plus
/// service, pooled over tenants.
pub fn closed_e2e(rep: &ClosedLoopReport) -> LatencyStats {
    let mut all = LatencyStats::new();
    for t in &rep.host.tenants {
        all.merge(&t.e2e_latency);
    }
    all
}

/// The counter fingerprint of `core::profile` (simulated work), folded over
/// `reports`.
pub fn fingerprint<'a>(
    reports: impl IntoIterator<Item = &'a SimReport>,
) -> BTreeMap<&'static str, u64> {
    let mut c = BTreeMap::new();
    for r in reports {
        let mut add = |k: &'static str, v: u64| *c.entry(k).or_insert(0) += v;
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
    c
}
