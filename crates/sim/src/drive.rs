//! The request path every replay shares: the flash device, the scheme's FTL
//! on it and the event core that times the FTL's flash operations. The
//! open-loop, closed-loop and power-loss replays differ only in when they
//! serve each request and which latency populations they report.

use ipu_flash::{FlashDevice, Nanos};
use ipu_ftl::{FtlCore, FtlScheme, OpBatch, ReqStatus};
use ipu_host::metrics::{LatencyStats, ReliabilityStats};
use ipu_obs::{span, Phase};
use ipu_trace::{IoRequest, OpKind};

use crate::engine::{BusyBreakdown, ReplayConfig, SimReport};
use crate::event_core::EventCore;

/// A simulated drive: device, FTL, event core and the reliability tally.
pub(crate) struct Drive<'a> {
    cfg: &'a ReplayConfig,
    dev: FlashDevice,
    ftl: Box<dyn FtlScheme>,
    core: EventCore,
    /// One batch for the whole replay: `clear()` keeps its allocation.
    batch: OpBatch,
    reliability: ReliabilityStats,
}

impl<'a> Drive<'a> {
    /// An erased device under an empty FTL, all chips idle.
    pub(crate) fn new(cfg: &'a ReplayConfig) -> Self {
        let mut dev = FlashDevice::new(cfg.device.clone());
        let ftl = cfg.scheme.build(&mut dev, cfg.ftl.clone());
        Drive {
            cfg,
            dev,
            ftl,
            core: EventCore::new(cfg.device.geometry.total_chips(), cfg.timing),
            batch: OpBatch::new(),
            reliability: ReliabilityStats::new(),
        }
    }

    /// Serves `req` issued at `now` and returns its completion time. The FTL
    /// applies the request at once and reads time only from `now`. The event
    /// core then runs every background pulse that starts before `now` and
    /// schedules the request's flash operations.
    // Inlined into its callers: called out of line from the open-loop
    // replay, it made the read-dominated benchmark workload about 10% slower.
    #[inline]
    pub(crate) fn serve(&mut self, req: &IoRequest, now: Nanos) -> Nanos {
        let (dev, batch) = (&mut self.dev, &mut self.batch);
        batch.clear();
        match req.op {
            OpKind::Write => {
                let _span = span(Phase::FtlWrite);
                self.ftl.on_write_into(req, now, dev, batch);
            }
            OpKind::Read => {
                let _span = span(Phase::FtlRead);
                self.ftl.on_read_into(req, now, dev, batch);
            }
        }
        match batch.status {
            ReqStatus::Success => self.reliability.record_success(),
            ReqStatus::Recovered => self.reliability.record_recovered(),
            ReqStatus::Failed => self.reliability.record_failed(),
        }
        let _span = span(Phase::EventCore);
        self.core.advance_to(now);
        self.core.dispatch(now, batch, req.op)
    }

    /// Cuts power: the FTL rebuilds its volatile state from flash, and a
    /// fresh event core drops the background rounds in flight (their
    /// flash-side effects are already durable). Returns the background
    /// nanoseconds dropped.
    pub(crate) fn power_cut(&mut self) -> Nanos {
        let interrupted = self.core.background_backlog();
        self.ftl.power_cycle(&self.dev);
        self.core = EventCore::new(self.cfg.device.geometry.total_chips(), self.cfg.timing);
        interrupted
    }

    /// The FTL's shared core and the device it runs on.
    pub(crate) fn state(&self) -> (&FtlCore, &FlashDevice) {
        (self.ftl.core(), &self.dev)
    }

    pub(crate) fn event_core(&self) -> &EventCore {
        &self.core
    }

    /// Runs the background work still queued, so an idle or read-only tail
    /// does not cut the accounting short, then reports `requests` requests
    /// with the caller's `[read, write, overall]` latency populations.
    pub(crate) fn into_report(
        mut self,
        trace: &str,
        requests: u64,
        [read_latency, write_latency, overall_latency]: [LatencyStats; 3],
    ) -> SimReport {
        {
            let _span = span(Phase::EventCore);
            self.core.finish();
        }
        SimReport {
            scheme: self.cfg.scheme,
            trace: trace.to_string(),
            read_latency,
            write_latency,
            overall_latency,
            ftl: self.ftl.stats().clone(),
            device: self.dev.counters(),
            wear: self.dev.wear().totals(),
            mapping: self.ftl.mapping_memory(&self.dev),
            simulated_horizon_ns: self.core.horizon(),
            requests,
            busy: BusyBreakdown {
                host_write_ns: self.core.host_busy(),
                host_read_ns: self.core.read_busy(),
                background_ns: self.core.background_done(),
            },
            reliability: self.reliability,
        }
    }
}
