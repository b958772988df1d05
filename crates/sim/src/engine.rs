//! The trace-replay engine: drives an FTL scheme over a request stream,
//! schedules the resulting flash operations onto chips, and aggregates every
//! metric the paper's evaluation reports.

use ipu_flash::device::OpCounters;
use ipu_flash::wear::WearTotals;
use ipu_flash::{DeviceConfig, FlashDevice, Nanos};
use ipu_ftl::{FtlConfig, FtlStats, MappingMemory, OpBatch, SchemeKind};
use ipu_trace::{IoRequest, OpKind};
use serde::{Deserialize, Serialize};

use crate::event_core::{EventCore, TimingConfig};
use crate::resources::ChipSchedule;
use ipu_host::metrics::{LatencyStats, ReliabilityStats};

/// Everything needed to run one simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayConfig {
    pub device: DeviceConfig,
    pub ftl: FtlConfig,
    pub scheme: SchemeKind,
    /// Event-core timing model (GC preemption, read suspension). The default
    /// reproduces the inline oracle engine bit-for-bit.
    #[serde(default)]
    pub timing: TimingConfig,
}

impl ReplayConfig {
    /// Paper-scale configuration (Table 2) for `scheme`.
    pub fn paper_scale(scheme: SchemeKind) -> Self {
        ReplayConfig {
            device: DeviceConfig::paper_scale(),
            ftl: FtlConfig::default(),
            scheme,
            timing: TimingConfig::default(),
        }
    }

    /// Small configuration for tests.
    pub fn small_for_tests(scheme: SchemeKind) -> Self {
        ReplayConfig {
            device: DeviceConfig::small_for_tests(),
            ftl: FtlConfig::default(),
            scheme,
            timing: TimingConfig::default(),
        }
    }
}

/// Results of one replay: the measurements behind Figures 5–11 and 13–14.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    pub scheme: SchemeKind,
    pub trace: String,
    /// Host-visible response time of read requests (Fig. 5).
    pub read_latency: LatencyStats,
    /// Host-visible response time of write requests (Fig. 5).
    pub write_latency: LatencyStats,
    /// All requests combined (Fig. 5 "overall").
    pub overall_latency: LatencyStats,
    /// FTL counters (Figs. 6, 7, 9; read error rate for Fig. 8).
    pub ftl: FtlStats,
    /// Raw device operation counters.
    pub device: OpCounters,
    /// Erase totals by region (Fig. 10).
    pub wear: WearTotals,
    /// Mapping-table memory model (Fig. 11).
    pub mapping: MappingMemory,
    /// Simulated time when the last chip went idle.
    pub simulated_horizon_ns: Nanos,
    /// Requests replayed.
    pub requests: u64,
    /// Chip-time breakdown over the run: host write/erase, host read, and
    /// background (GC) nanoseconds executed.
    pub busy: BusyBreakdown,
    /// Per-request completion reliability (success / recovered / failed);
    /// absent in reports saved before the fault model existed.
    #[serde(default)]
    pub reliability: ReliabilityStats,
}

/// Total device busy time by operation class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BusyBreakdown {
    pub host_write_ns: Nanos,
    pub host_read_ns: Nanos,
    pub background_ns: Nanos,
}

impl BusyBreakdown {
    /// Utilization of the program/erase channel: host writes, erases and
    /// background GC all execute on each chip's write timeline.
    pub fn program_utilization(&self, chips: u32, horizon: Nanos) -> f64 {
        if horizon == 0 {
            return 0.0;
        }
        (self.host_write_ns + self.background_ns) as f64 / (chips as u64 * horizon) as f64
    }

    /// Utilization of the read channel. Reads run with program/erase
    /// suspension (see `ChipSchedule::schedule_read`), so they occupy a
    /// separate per-chip timeline from writes.
    pub fn read_utilization(&self, chips: u32, horizon: Nanos) -> f64 {
        if horizon == 0 {
            return 0.0;
        }
        self.host_read_ns as f64 / (chips as u64 * horizon) as f64
    }

    /// Mean device utilization over `chips` chips and `horizon` time: the
    /// busier of the two per-chip channels (program/erase+GC vs. reads).
    ///
    /// The two channels are accounted separately because the suspension model
    /// lets a read overlap a program on the same chip — summing both into one
    /// pool double-books the chip and can report utilizations above 1.0 on
    /// read-heavy bursts. As long as `horizon` covers both channels (see
    /// `ChipSchedule::horizon`), each per-channel utilization is ≤ 1 by
    /// construction, and so is the maximum.
    pub fn utilization(&self, chips: u32, horizon: Nanos) -> f64 {
        self.program_utilization(chips, horizon)
            .max(self.read_utilization(chips, horizon))
    }
}

impl SimReport {
    /// Average read error rate (Fig. 8).
    pub fn read_error_rate(&self) -> f64 {
        self.ftl.avg_read_error_rate()
    }

    /// Page utilization of GC'd SLC blocks (Fig. 9).
    pub fn gc_page_utilization(&self) -> f64 {
        self.ftl.gc_page_utilization()
    }
}

/// Replays `requests` (already sorted by arrival time) under `cfg`.
pub fn replay(cfg: &ReplayConfig, requests: &[IoRequest], trace_name: &str) -> SimReport {
    replay_with_progress(cfg, requests, trace_name, |_, _| {})
}

/// [`replay`] with a progress callback `(done, total)`.
///
/// Callback contract: `done` is strictly increasing — one call per 64 Ki
/// completed requests, plus exactly one final call at `(total, total)` (also
/// for empty traces).
///
/// The replay runs on the discrete-event core
/// ([`EventCore`]): op-issue events come from
/// the already-sorted request stream, and op-complete / GC-step / scrub-step
/// events interleave on the heap. With the default [`TimingConfig`] the
/// timeline is bit-identical to [`replay_oracle`] (pinned by the
/// `event_core_equivalence` property test).
pub fn replay_with_progress(
    cfg: &ReplayConfig,
    requests: &[IoRequest],
    trace_name: &str,
    mut progress: impl FnMut(u64, u64),
) -> SimReport {
    let mut dev = FlashDevice::new(cfg.device.clone());
    let mut ftl = cfg.scheme.build(&mut dev, cfg.ftl.clone());
    let mut core = EventCore::new(cfg.device.geometry.total_chips(), cfg.timing);

    let mut reliability = ReliabilityStats::new();

    let total = requests.len() as u64;
    // One batch for the whole replay: `clear()` retains the allocation, so
    // the FTL appends into an already-sized Vec on every request.
    let mut batch = OpBatch::new();
    for (i, req) in requests.iter().enumerate() {
        let now = req.timestamp_ns;
        batch.clear();
        match req.op {
            OpKind::Write => {
                let _span = ipu_obs::span(ipu_obs::Phase::FtlWrite);
                ftl.on_write_into(req, now, &mut dev, &mut batch);
            }
            OpKind::Read => {
                let _span = ipu_obs::span(ipu_obs::Phase::FtlRead);
                ftl.on_read_into(req, now, &mut dev, &mut batch);
            }
        };
        match batch.status {
            ipu_ftl::ReqStatus::Success => reliability.record_success(),
            ipu_ftl::ReqStatus::Recovered => reliability.record_recovered(),
            ipu_ftl::ReqStatus::Failed => reliability.record_failed(),
        }

        // Run every event that precedes this issue, then dispatch: host reads
        // get read priority, host writes are serviced FIFO per chip, and each
        // background round becomes a resumable step sequence.
        core.advance_to(now);
        core.dispatch(now, &batch, req.op);

        let done = i as u64 + 1;
        if done.is_multiple_of(65_536) && done < total {
            progress(done, total);
        }
    }
    progress(total, total);

    // Drain the heap: pending completions record their latencies and deferred
    // background GC runs to completion, so the report's accounting is not cut
    // off by a read-only or idle trace tail.
    core.finish();

    let mapping = ftl.mapping_memory(&dev);
    SimReport {
        scheme: cfg.scheme,
        trace: trace_name.to_string(),
        read_latency: core.read_latency().clone(),
        write_latency: core.write_latency().clone(),
        overall_latency: core.overall_latency().clone(),
        ftl: ftl.stats().clone(),
        device: dev.counters(),
        wear: dev.wear().totals(),
        mapping,
        simulated_horizon_ns: core.horizon(),
        requests: total,
        busy: BusyBreakdown {
            host_write_ns: core.host_busy(),
            host_read_ns: core.read_busy(),
            background_ns: core.background_done(),
        },
        reliability,
    }
}

/// The retained inline oracle engine: dispatches each request against a
/// [`ChipSchedule`] whose background queue drains lazily as a side effect of
/// host scheduling. Kept as the correctness oracle for the event core — the
/// `event_core_equivalence` property test pins `replay` bit-identical to this
/// function (via `SimReport` JSON) under the default timing model.
pub fn replay_oracle(cfg: &ReplayConfig, requests: &[IoRequest], trace_name: &str) -> SimReport {
    let mut dev = FlashDevice::new(cfg.device.clone());
    let mut ftl = cfg.scheme.build(&mut dev, cfg.ftl.clone());
    let mut chips = ChipSchedule::new(cfg.device.geometry.total_chips());

    let mut read_latency = LatencyStats::new();
    let mut write_latency = LatencyStats::new();
    let mut overall_latency = LatencyStats::new();
    let mut reliability = ReliabilityStats::new();

    let total = requests.len() as u64;
    let mut batch = OpBatch::new();
    for req in requests.iter() {
        let now = req.timestamp_ns;
        batch.clear();
        match req.op {
            OpKind::Write => ftl.on_write_into(req, now, &mut dev, &mut batch),
            OpKind::Read => ftl.on_read_into(req, now, &mut dev, &mut batch),
        };
        match batch.status {
            ipu_ftl::ReqStatus::Success => reliability.record_success(),
            ipu_ftl::ReqStatus::Recovered => reliability.record_recovered(),
            ipu_ftl::ReqStatus::Failed => reliability.record_failed(),
        }

        // Host reads get read priority (program/erase suspension), host
        // writes are serviced FIFO per chip, and GC operations run as
        // background work in idle gaps. The request completes when its last
        // host operation completes.
        let mut completion = now;
        for op in &batch.ops {
            match op.kind {
                ipu_ftl::FlashOpKind::HostRead | ipu_ftl::FlashOpKind::UnmappedRead => {
                    let (_, end) = chips.schedule_read(op.chip, now, op.latency_ns);
                    completion = completion.max(end);
                }
                ipu_ftl::FlashOpKind::HostProgram => {
                    let (_, end) = chips.schedule(op.chip, now, op.latency_ns);
                    completion = completion.max(end);
                }
                ipu_ftl::FlashOpKind::GcRead
                | ipu_ftl::FlashOpKind::GcProgram
                | ipu_ftl::FlashOpKind::Erase => {
                    chips.schedule_background(op.chip, now, op.latency_ns)
                }
            }
        }
        let latency = completion - now;
        overall_latency.record(latency);
        match req.op {
            OpKind::Read => read_latency.record(latency),
            OpKind::Write => write_latency.record(latency),
        }
    }

    chips.finish();

    let mapping = ftl.mapping_memory(&dev);
    SimReport {
        scheme: cfg.scheme,
        trace: trace_name.to_string(),
        read_latency,
        write_latency,
        overall_latency,
        ftl: ftl.stats().clone(),
        device: dev.counters(),
        wear: dev.wear().totals(),
        mapping,
        simulated_horizon_ns: chips.horizon(),
        requests: total,
        busy: BusyBreakdown {
            host_write_ns: chips.host_busy(),
            host_read_ns: chips.read_busy(),
            background_ns: chips.background_done(),
        },
        reliability,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_workload() -> Vec<IoRequest> {
        let mut reqs = Vec::new();
        let mut t = 0u64;
        // Writes with updates, then reads of everything.
        for round in 0..6u64 {
            for slot in 0..5u64 {
                t += 100_000;
                reqs.push(IoRequest::new(t, OpKind::Write, slot * 65536, 4096));
                let _ = round;
            }
        }
        for slot in 0..5u64 {
            t += 100_000;
            reqs.push(IoRequest::new(t, OpKind::Read, slot * 65536, 4096));
        }
        reqs
    }

    #[test]
    fn replay_produces_complete_report() {
        for kind in SchemeKind::all() {
            let cfg = ReplayConfig::small_for_tests(kind);
            let reqs = tiny_workload();
            let report = replay(&cfg, &reqs, "tiny");
            assert_eq!(report.requests, reqs.len() as u64);
            assert_eq!(report.scheme, kind);
            assert_eq!(report.write_latency.count(), 30);
            assert_eq!(report.read_latency.count(), 5);
            assert_eq!(report.overall_latency.count(), 35);
            assert!(
                report.write_latency.mean_ns() > 0.0,
                "{kind}: zero write latency"
            );
            assert!(report.read_latency.mean_ns() > 0.0);
            assert!(report.read_error_rate() > 0.0);
            assert!(report.simulated_horizon_ns >= reqs.last().unwrap().timestamp_ns);
            assert!(report.mapping.total() > 0);
            assert_eq!(report.ftl.host_write_requests, 30);
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let cfg = ReplayConfig::small_for_tests(SchemeKind::Ipu);
        let reqs = tiny_workload();
        let a = replay(&cfg, &reqs, "t");
        let b = replay(&cfg, &reqs, "t");
        assert_eq!(a.write_latency.mean_ns(), b.write_latency.mean_ns());
        assert_eq!(a.ftl, b.ftl);
        assert_eq!(a.device, b.device);
        assert_eq!(a.wear, b.wear);
    }

    #[test]
    fn write_latency_reflects_slc_program_time() {
        let cfg = ReplayConfig::small_for_tests(SchemeKind::Baseline);
        // A single isolated write: latency = transfer + SLC program.
        let reqs = vec![IoRequest::new(0, OpKind::Write, 0, 4096)];
        let report = replay(&cfg, &reqs, "one");
        let t = &cfg.device.timing;
        let expected = t.transfer_ns(4096) + t.program_ns(ipu_flash::CellMode::Slc);
        assert_eq!(report.write_latency.max_ns(), expected);
    }

    #[test]
    fn progress_callback_is_strictly_increasing_and_ends_once() {
        let cfg = ReplayConfig::small_for_tests(SchemeKind::Mga);
        let reqs = tiny_workload();
        let mut calls: Vec<(u64, u64)> = Vec::new();
        replay_with_progress(&cfg, &reqs, "t", |done, total| {
            calls.push((done, total));
        });
        assert!(!calls.is_empty());
        for w in calls.windows(2) {
            assert!(
                w[0].0 < w[1].0,
                "progress not strictly increasing: {calls:?}"
            );
        }
        // Exactly one completion call, and it is the last one.
        assert_eq!(calls.last(), Some(&(35, 35)));
        assert_eq!(
            calls.iter().filter(|&&(d, _)| d == 35).count(),
            1,
            "completion must fire exactly once: {calls:?}"
        );
    }

    #[test]
    fn progress_callback_fires_once_on_empty_trace() {
        let cfg = ReplayConfig::small_for_tests(SchemeKind::Baseline);
        let mut calls: Vec<(u64, u64)> = Vec::new();
        replay_with_progress(&cfg, &[], "empty", |done, total| calls.push((done, total)));
        assert_eq!(calls, vec![(0, 0)]);
    }

    #[test]
    fn busy_breakdown_accounts_all_op_classes() {
        let cfg = ReplayConfig::small_for_tests(SchemeKind::Ipu);
        let reqs = tiny_workload();
        let report = replay(&cfg, &reqs, "tiny");
        assert!(report.busy.host_write_ns > 0, "writes must register");
        assert!(report.busy.host_read_ns > 0, "reads must register");
        // Utilization is a sane fraction.
        let u = report.busy.utilization(
            cfg.device.geometry.total_chips(),
            report.simulated_horizon_ns,
        );
        assert!(u > 0.0 && u <= 1.0 + 1e-9, "utilization {u} out of range");
        // Host write busy time is at least the SLC program time per write op.
        let min_write = cfg.device.timing.program_ns(ipu_flash::CellMode::Slc);
        assert!(report.busy.host_write_ns >= min_write * 30);
        // Empty horizon edge case.
        assert_eq!(BusyBreakdown::default().utilization(4, 0), 0.0);
    }

    #[test]
    fn queueing_shows_up_under_burst_arrivals() {
        let cfg = ReplayConfig::small_for_tests(SchemeKind::Baseline);
        // All requests arrive at t=0 targeting the same plane → serialization.
        let burst: Vec<IoRequest> = (0..8)
            .map(|i| IoRequest::new(0, OpKind::Write, i * 65536, 4096))
            .collect();
        let spaced: Vec<IoRequest> = (0..8)
            .map(|i| IoRequest::new(i * 100_000_000, OpKind::Write, i * 65536, 4096))
            .collect();
        let r_burst = replay(&cfg, &burst, "burst");
        let r_spaced = replay(&cfg, &spaced, "spaced");
        assert!(
            r_burst.write_latency.mean_ns() > r_spaced.write_latency.mean_ns(),
            "burst {} should queue worse than spaced {}",
            r_burst.write_latency.mean_ns(),
            r_spaced.write_latency.mean_ns()
        );
    }
}
