//! The four FTL schemes: the three evaluated in the paper (§4.1) and one
//! extension.
//!
//! * [`baseline::BaselineFtl`] — dynamic page-level mapping, no partial
//!   programming: every write chunk consumes a whole fresh SLC page.
//! * [`mga::MgaFtl`] — Mapping Granularity Adaptive (Feng et al., DATE'17):
//!   subpage-granular packing of small writes from different requests into
//!   open pages via partial programming; greedy subpage GC.
//! * [`ipu::IpuFtl`] — the paper's Intra-page Update scheme: partial
//!   programming only ever rewrites a page's *own* data; three-level hot/cold
//!   block hierarchy with upgraded movement on update overflow, ISR-based GC
//!   victim selection and degraded movement at GC.
//! * [`ipu_plus::IpuPlusFtl`] — extension (the paper's §5 future work): IPU
//!   plus MGA-style packing of cold first-time writes.

pub mod baseline;
pub mod common;
pub mod ipu;
pub mod ipu_plus;
pub mod mga;

use ipu_flash::{FlashDevice, Nanos};
use ipu_trace::IoRequest;
use serde::{Deserialize, Serialize};

use crate::config::FtlConfig;
use crate::memory::MappingMemory;
use crate::ops::OpBatch;
use crate::stats::FtlStats;
use common::FtlCore;

/// A pluggable FTL scheme.
pub trait FtlScheme {
    /// Scheme name as printed in the paper's figures.
    fn name(&self) -> &'static str;

    /// Handles a host write request at simulated time `now`, appending every
    /// flash operation issued — including GC work the write triggered — to
    /// `out`. `out` arrives cleared; callers on the replay hot path reuse one
    /// batch across requests (via [`OpBatch::clear`]) so no per-request `Vec`
    /// allocation happens once the batch has grown to the workload's
    /// high-water mark.
    fn on_write_into(
        &mut self,
        req: &IoRequest,
        now: Nanos,
        dev: &mut FlashDevice,
        out: &mut OpBatch,
    );

    /// Handles a host read request; same output contract as
    /// [`FtlScheme::on_write_into`].
    fn on_read_into(
        &mut self,
        req: &IoRequest,
        now: Nanos,
        dev: &mut FlashDevice,
        out: &mut OpBatch,
    );

    /// Convenience wrapper over [`FtlScheme::on_write_into`] allocating a
    /// fresh batch; fine for tests and one-off calls, avoid in replay loops.
    fn on_write(&mut self, req: &IoRequest, now: Nanos, dev: &mut FlashDevice) -> OpBatch {
        let mut batch = OpBatch::new();
        self.on_write_into(req, now, dev, &mut batch);
        batch
    }

    /// Convenience wrapper over [`FtlScheme::on_read_into`] allocating a
    /// fresh batch.
    fn on_read(&mut self, req: &IoRequest, now: Nanos, dev: &mut FlashDevice) -> OpBatch {
        let mut batch = OpBatch::new();
        self.on_read_into(req, now, dev, &mut batch);
        batch
    }

    /// Simulates a sudden power loss and recovery: every volatile structure
    /// (mapping table, owner table, cache metadata, open blocks, scheme-local
    /// packing state) is dropped and rebuilt from durable flash contents —
    /// the per-page OOB records and the bad-block table. Statistics survive
    /// (they model host-side observability, not drive RAM).
    fn power_cycle(&mut self, dev: &FlashDevice);

    /// FTL statistics accumulated so far.
    fn stats(&self) -> &FtlStats;

    /// The scheme's mapping-table memory footprint under the paper's §4.4.1
    /// accounting model (Figure 11).
    fn mapping_memory(&self, dev: &FlashDevice) -> MappingMemory;

    /// Access to the shared core (tests, metrics, invariant checks).
    fn core(&self) -> &FtlCore;

    /// Mutable access to the shared core (victim-selection probes in tests).
    fn core_mut(&mut self) -> &mut FtlCore;
}

/// Identifies one of the four schemes; used by configs and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchemeKind {
    /// Plain SLC-cache FTL: whole-page cache writes, no update grouping.
    Baseline,
    /// Mapping Granularity Adaptive (Feng et al., DATE'17; the paper's
    /// state-of-the-art comparison): packs small writes from different
    /// requests into the free subpages of open pages via partial
    /// programming.
    Mga,
    /// The paper's Intra-page Update scheme: partial programming updates
    /// subpages in place inside the SLC-mode cache page.
    Ipu,
    /// Extension: IPU plus adaptive cold-data packing — the paper's §5
    /// future work. Not part of the paper's evaluated trio.
    IpuPlus,
}

impl SchemeKind {
    /// The paper's evaluated schemes, in its presentation order.
    pub fn all() -> [SchemeKind; 3] {
        [SchemeKind::Baseline, SchemeKind::Mga, SchemeKind::Ipu]
    }

    /// The paper's schemes plus this repo's extensions.
    pub fn all_extended() -> [SchemeKind; 4] {
        [
            SchemeKind::Baseline,
            SchemeKind::Mga,
            SchemeKind::Ipu,
            SchemeKind::IpuPlus,
        ]
    }

    /// Display label as used in the paper.
    pub fn label(self) -> &'static str {
        match self {
            SchemeKind::Baseline => "Baseline",
            SchemeKind::Mga => "MGA",
            SchemeKind::Ipu => "IPU",
            SchemeKind::IpuPlus => "IPU+",
        }
    }

    /// Instantiates the scheme over `dev` (formats the SLC region).
    pub fn build(self, dev: &mut FlashDevice, cfg: FtlConfig) -> Box<dyn FtlScheme> {
        match self {
            SchemeKind::Baseline => Box::new(baseline::BaselineFtl::new(dev, cfg)),
            SchemeKind::Mga => Box::new(mga::MgaFtl::new(dev, cfg)),
            SchemeKind::Ipu => Box::new(ipu::IpuFtl::new(dev, cfg)),
            SchemeKind::IpuPlus => Box::new(ipu_plus::IpuPlusFtl::new(dev, cfg)),
        }
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}
