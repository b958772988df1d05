//! The four FTL schemes — the three evaluated in the paper (§4.1) and one
//! extension — as one driver, `SchemeFtl`, over [`FtlCore`].
//!
//! The schemes differ in only three choices: where a write lands, which
//! block GC picks as its victim, and where GC moves the victim's valid data.
//! [`SchemeKind`] settles all three with two yes/no policy bits, and the four
//! schemes are exactly their 2×2 product:
//!
//! | | in-place updates off | [`updates_in_place`](SchemeKind::updates_in_place) |
//! |---|---|---|
//! | packing off | [`Baseline`](SchemeKind::Baseline) | [`Ipu`](SchemeKind::Ipu) |
//! | [`packs`](SchemeKind::packs) | [`Mga`](SchemeKind::Mga) | [`IpuPlus`](SchemeKind::IpuPlus) |
//!
//! * **Packing** decides placement of first-time data: small writes fill the
//!   free subpages of open pages, whichever request wrote those pages.
//! * **In-place updates** decide placement of updates *and* both GC choices
//!   (Dayan & Bonnet's victim/relocation split, arXiv 1504.01666): an update
//!   goes into its own page or one cache level up, victims are picked by ISR
//!   (Equations 1–2), and GC degrades cold data one level instead of
//!   evicting everything to MLC. The paper never separates these three, so
//!   one bit carries them; `FtlConfig::ipu_use_isr_gc` turns the ISR victim
//!   choice off as an ablation.
//!
//! Everything the schemes share — allocation, programming, the read path, the
//! move-and-erase cycle of every reclaim, MLC GC, wear-leveling and
//! power-loss rebuild — lives in [`common::FtlCore`].

pub mod common;

use std::collections::VecDeque;

use ipu_flash::{CellMode, FlashDevice, Nanos, Ppa, MAX_SUBPAGES_PER_PAGE};
use ipu_trace::IoRequest;
use serde::{Deserialize, Serialize};

use crate::config::FtlConfig;
use crate::error::FtlError;
use crate::memory::MappingMemory;
use crate::ops::{FlashOpKind, OpBatch, RoundOrigin};
use crate::stats::FtlStats;
use crate::types::{BlockLevel, Lsn};
use common::{FtlCore, PageGroup};

/// A pluggable FTL scheme.
pub trait FtlScheme {
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
    /// Plain SLC-cache FTL: dynamic page-level mapping, no partial
    /// programming. Every write chunk — even a single 4 KB subpage —
    /// consumes a whole fresh 16 KB SLC page in one program operation, so
    /// small writes leave the rest of the page unusable until GC (the
    /// paper's "page fragmentation": ~52.8% utilization in Figure 9). GC is
    /// greedy on invalid subpages and evicts all valid data found in a
    /// victim to the MLC region, as a plain SLC write cache does.
    Baseline,
    /// Mapping Granularity Adaptive (Feng et al., DATE'17; the paper's
    /// state-of-the-art comparison): subpage-granular space management with
    /// partial programming. Small write chunks are packed into the free
    /// subpages of *open pages* — pages that still have free contiguous
    /// space and remaining NOP budget — regardless of which request the
    /// page's earlier data belongs to. This maximizes page utilization
    /// (~99.9% in Figure 9), but every packing partial program disturbs the
    /// valid data already in the page, which is why MGA shows the worst read
    /// error rate in Figure 8. A two-level mapping table (page table plus
    /// subpage entries for scattered chunks) models its memory cost. GC is
    /// greedy at subpage granularity and evicts valid data to MLC.
    Mga,
    /// The paper's Intra-page Update scheme (§3).
    ///
    /// **Intra-page update:** a small update is partial-programmed into the
    /// free subpages of the *very page* holding the previous version, which
    /// is then invalidated. The only data disturbed in-page is the obsolete
    /// version, so in-page disturb on valid data disappears (Figure 8), and
    /// no general second-level mapping is needed — a page only ever holds
    /// one chunk's versions, so a 2-bit live offset per SLC page suffices
    /// (Figure 11).
    ///
    /// **Upgraded movement:** when the update does not fit (no free run, NOP
    /// budget spent, or the old copy lives in MLC), the data moves to a
    /// fresh page one level *up* the Work → Monitor → Hot hierarchy —
    /// repeated updates are exactly what makes data hot (Figure 3, ① ② ③).
    ///
    /// **ISR GC with degraded movement:** the victim is the SLC block
    /// maximizing Equation 1's invalid-subpage ratio, with never-updated
    /// valid subpages weighted by age (Equation 2). Valid pages that were
    /// updated in place stay at their level; never-updated (cold) pages
    /// demote one level, falling out of the cache into MLC from the Work
    /// level (Figure 4).
    Ipu,
    /// Extension, not part of the paper's evaluated trio: IPU plus MGA-style
    /// packing of cold first-time writes — the paper's §5 future work:
    ///
    /// > "In the future, we will study improving the page utilization
    /// > without a noticeable error increase, by adaptively combining
    /// > infrequent data and saving them in the same page."
    ///
    /// IPU+ keeps everything that makes IPU work — intra-page updates for
    /// hot data, the three-level hierarchy, ISR GC with degraded movement —
    /// and packs only first-time (non-update) small writes into shared
    /// Work-level pages. The bet is asymmetric: cold data is rarely *read*
    /// back hot, so the in-page disturb packing inflicts on it contributes
    /// little to the measured read error rate; and cold data dominates page
    /// consumption under IPU (hot updates recycle their own pages), so
    /// packing it is where the utilization is lost. Updates never pack into
    /// foreign pages — that would reintroduce MGA's disturb on hot
    /// (read-heavy) data.
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

    /// Whether small first-time writes pack into open pages shared across
    /// requests (MGA, IPU+).
    pub fn packs(self) -> bool {
        match self {
            SchemeKind::Mga | SchemeKind::IpuPlus => true,
            SchemeKind::Baseline | SchemeKind::Ipu => false,
        }
    }

    /// Whether updates go intra-page or one level up, GC picks victims by
    /// ISR, and GC degrades cold data one level (IPU, IPU+).
    pub fn updates_in_place(self) -> bool {
        match self {
            SchemeKind::Ipu | SchemeKind::IpuPlus => true,
            SchemeKind::Baseline | SchemeKind::Mga => false,
        }
    }

    /// Instantiates the scheme over `dev` (formats the SLC region).
    pub fn build(self, dev: &mut FlashDevice, cfg: FtlConfig) -> Box<dyn FtlScheme> {
        Box::new(SchemeFtl::new(self, dev, cfg))
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The FTL driver behind every [`SchemeKind`]: the shared [`FtlCore`] plus
/// the open pages small writes pack into, steered by the kind's two policy
/// bits (see the module docs).
#[derive(Debug)]
pub(crate) struct SchemeFtl {
    kind: SchemeKind,
    core: FtlCore,
    /// Pages with free subpage runs and remaining NOP budget, oldest first.
    /// Only packing schemes ever fill it.
    open_pages: VecDeque<Ppa>,
}

impl SchemeFtl {
    /// Builds `kind`'s FTL over `dev` (formats the SLC region).
    pub fn new(kind: SchemeKind, dev: &mut FlashDevice, cfg: FtlConfig) -> Self {
        SchemeFtl {
            kind,
            core: FtlCore::new(dev, cfg),
            open_pages: VecDeque::new(),
        }
    }

    /// Handles one chunk of a write request (Algorithm 1, lines 2–13).
    /// Schemes without in-place updates write the whole chunk as new data;
    /// the others split it by where each subpage's current version lives.
    fn write_chunk(
        &mut self,
        lsns: &[Lsn],
        now: Nanos,
        dev: &mut FlashDevice,
        batch: &mut OpBatch,
    ) -> Result<(), FtlError> {
        if !self.kind.updates_in_place() {
            return self.write_new(lsns, now, dev, batch);
        }
        // A chunk is a contiguous run of at most one page's subpages, so the
        // partition fits in stack buffers and the mapping table is probed once
        // per bucket span instead of once per subpage.
        debug_assert!(lsns.len() <= MAX_SUBPAGES_PER_PAGE);
        debug_assert!(lsns.windows(2).all(|w| w[1] == w[0] + 1));
        let Some(&first) = lsns.first() else {
            return Ok(());
        };
        let mut new_lsns = [0 as Lsn; MAX_SUBPAGES_PER_PAGE];
        let mut new_n = 0usize;
        let mut group_ppas = [Ppa::new(0, 0, 0, 0, 0, 0); MAX_SUBPAGES_PER_PAGE];
        let mut group_lsns = [[0 as Lsn; MAX_SUBPAGES_PER_PAGE]; MAX_SUBPAGES_PER_PAGE];
        let mut group_lens = [0u8; MAX_SUBPAGES_PER_PAGE];
        let mut ng = 0usize;
        self.core
            .map
            .lookup_span(first, first + lsns.len() as u64, |lsn, loc| {
                let Some(spa) = loc else {
                    new_lsns[new_n] = lsn;
                    new_n += 1;
                    return;
                };
                if let Some(g) = group_ppas[..ng].iter().position(|p| *p == spa.ppa) {
                    group_lsns[g][group_lens[g] as usize] = lsn;
                    group_lens[g] += 1;
                } else {
                    group_ppas[ng] = spa.ppa;
                    group_lsns[ng][0] = lsn;
                    group_lens[ng] = 1;
                    ng += 1;
                }
            });
        if new_n > 0 {
            self.write_new(&new_lsns[..new_n], now, dev, batch)?;
        }
        for g in 0..ng {
            let group = &group_lsns[g][..group_lens[g] as usize];
            self.write_update(group_ppas[g], group, now, dev, batch)?;
        }
        Ok(())
    }

    /// Writes data into a fresh Work page (Algorithm 1 line 5). A packing
    /// scheme first tries to fit a sub-page chunk into an open page, and
    /// keeps a fresh SLC page with leftover space as a new open page.
    fn write_new(
        &mut self,
        lsns: &[Lsn],
        now: Nanos,
        dev: &mut FlashDevice,
        batch: &mut OpBatch,
    ) -> Result<(), FtlError> {
        let k = lsns.len() as u8;
        let pack = self.kind.packs() && k < self.core.spp();
        if pack {
            // Any program since the last packed write may have retired a
            // block holding open pages: a fresh-page write, a GC relocation,
            // an intra-page update, or a packed write itself.
            self.open_pages
                .retain(|p| !self.core.is_retired(p.block_addr()));
            if let Some((ppa, off)) = self.find_open_slot(dev, k) {
                let res = self.core.program_group(
                    dev,
                    ppa,
                    off,
                    lsns,
                    FlashOpKind::HostProgram,
                    now,
                    batch,
                );
                self.refresh_open_page(dev, ppa);
                return res;
            }
        }
        let (ppa, level) = self.core.take_host_page(dev, BlockLevel::Work, batch)?;
        self.core
            .program_group(dev, ppa, 0, lsns, FlashOpKind::HostProgram, now, batch)?;
        if pack && level.is_slc() && !self.core.is_retired(ppa.block_addr()) {
            self.open_pages.push_back(ppa);
            while self.open_pages.len() > self.core.cfg.mga_open_page_limit {
                self.open_pages.pop_front();
            }
        }
        Ok(())
    }

    /// Writes an update of `group`, whose current versions all live in
    /// `old_ppa`: intra-page when the old page can absorb it, else upgraded
    /// movement one level up.
    fn write_update(
        &mut self,
        old_ppa: Ppa,
        group: &[Lsn],
        now: Nanos,
        dev: &mut FlashDevice,
        batch: &mut OpBatch,
    ) -> Result<(), FtlError> {
        let addr = old_ppa.block_addr();
        let block = dev.block(addr);
        // A program earlier in this chunk may have retired the old page's
        // block, relocating the group's data; a retired block takes no more.
        let intra_offset = if block.mode() == CellMode::Slc && !self.core.is_retired(addr) {
            let page = block.page(old_ppa.page);
            if page.program_ops() < dev.config().max_partial_programs {
                page.find_free_run(group.len() as u8)
            } else {
                None
            }
        } else {
            None
        };
        match intra_offset {
            Some(off) => {
                // Intra-page update (Algorithm 1 line 8): the data being
                // disturbed by this partial program is its own obsolete
                // version, invalidated by program_group's remap.
                self.core.program_group(
                    dev,
                    old_ppa,
                    off,
                    group,
                    FlashOpKind::HostProgram,
                    now,
                    batch,
                )?;
                self.core.stats.intra_page_updates += 1;
                // If the page was an open page, its remaining space may now
                // be gone.
                self.refresh_open_page(dev, old_ppa);
            }
            None => {
                // Upgraded data movement (Algorithm 1 line 11): one level up
                // from wherever the old version lived, capped at the
                // configured top level (3 = Hot in the paper).
                let cur = self
                    .core
                    .meta
                    .level(self.core.block_idx(addr))
                    .unwrap_or(BlockLevel::HighDensity);
                let cap = BlockLevel::from_flag_clamped(self.core.cfg.ipu_max_level as i32);
                let target = cur.promoted().min(cap);
                // Hot data never takes the MLC bypass: retaining updated data
                // in the cache is the point of the hierarchy, and the
                // fallback chain inside take_page already handles genuine
                // exhaustion.
                let (ppa, _) = self.core.take_page(dev, target, batch)?;
                self.core.program_group(
                    dev,
                    ppa,
                    0,
                    group,
                    FlashOpKind::HostProgram,
                    now,
                    batch,
                )?;
                self.core.stats.upgraded_writes += 1;
            }
        }
        Ok(())
    }

    /// First open page that can absorb `count` subpages, with the offset.
    fn find_open_slot(&self, dev: &FlashDevice, count: u8) -> Option<(Ppa, u8)> {
        for &ppa in &self.open_pages {
            let page = dev.block(ppa.block_addr()).page(ppa.page);
            if page.program_ops() < dev.config().max_partial_programs {
                if let Some(off) = page.find_free_run(count) {
                    return Some((ppa, off));
                }
            }
        }
        None
    }

    /// Drops an open page that can no longer accept data, keeps it otherwise.
    fn refresh_open_page(&mut self, dev: &FlashDevice, ppa: Ppa) {
        let page = dev.block(ppa.block_addr()).page(ppa.page);
        let usable = page.program_ops() < dev.config().max_partial_programs
            && page.find_free_run(1).is_some();
        if !usable {
            self.open_pages.retain(|&p| p != ppa);
        }
    }

    /// One SLC GC round after a write chunk (Algorithm 1 lines 14–19) when
    /// the cache needs one, then the core's MLC GC and wear-leveling.
    fn run_gc(&mut self, now: Nanos, dev: &mut FlashDevice, batch: &mut OpBatch) {
        if self.core.slc_gc_needed() && self.core.slc_gc_gate_open(now) {
            self.run_slc_gc_round(now, dev, batch);
        }
        self.core.run_mlc_gc_if_needed(dev, now, batch);
        self.core.run_wear_leveling_if_due(dev, now, batch);
    }

    /// Picks an SLC victim (ISR or greedy) and reclaims it. Plain cache
    /// eviction sends all valid data to MLC. Degraded movement keeps updated
    /// pages at their level and sinks cold pages one level (Work-level cold
    /// data leaves the cache).
    fn run_slc_gc_round(&mut self, now: Nanos, dev: &mut FlashDevice, batch: &mut OpBatch) {
        let _span = ipu_obs::span(ipu_obs::Phase::Gc);
        batch.begin_background_round(RoundOrigin::Gc);
        let in_place = self.kind.updates_in_place();
        let victim = if in_place && self.core.cfg.ipu_use_isr_gc {
            self.core.select_slc_victim_isr(dev, now)
        } else {
            self.core.select_slc_victim_greedy()
        };
        let Some((victim, addr, level)) =
            victim.and_then(|v| self.core.meta.get(v).map(|m| (v, m.addr, m.level)))
        else {
            return;
        };
        // Victim pages can no longer serve as packing targets.
        self.open_pages.retain(|p| p.block_addr() != addr);
        let dest = |group: &PageGroup| match (in_place, group.updated) {
            (false, _) => BlockLevel::HighDensity,
            (true, true) => level,
            (true, false) => level.demoted(),
        };
        if let Some(round_cost) = self.core.reclaim_block(dev, victim, now, batch, dest) {
            self.core.finish_slc_gc_round(now, round_cost);
        }
    }
}

impl FtlScheme for SchemeFtl {
    fn on_write_into(
        &mut self,
        req: &IoRequest,
        now: Nanos,
        dev: &mut FlashDevice,
        out: &mut OpBatch,
    ) {
        self.core.begin_request(now);
        self.core.stats.host_write_requests += 1;
        for (start, len) in self.core.chunk_spans(req) {
            // A chunk is a contiguous LSN run of at most one page: stage it in
            // a stack buffer so the write path performs no heap allocation.
            let mut chunk = [0 as Lsn; MAX_SUBPAGES_PER_PAGE];
            for (i, slot) in chunk[..len as usize].iter_mut().enumerate() {
                *slot = start + i as u64;
            }
            if let Err(e) = self.write_chunk(&chunk[..len as usize], now, dev, out) {
                self.core.note_write_failure(&e, out);
            }
            self.run_gc(now, dev, out);
        }
    }

    fn on_read_into(
        &mut self,
        req: &IoRequest,
        now: Nanos,
        dev: &mut FlashDevice,
        out: &mut OpBatch,
    ) {
        self.core.begin_request(now);
        if let Err(e) = self.core.host_read(req, dev, out) {
            self.core.note_read_failure(&e, out);
        }
    }

    fn power_cycle(&mut self, dev: &FlashDevice) {
        // Open packing candidates are volatile controller state.
        self.open_pages.clear();
        self.core.rebuild_from_flash(dev);
    }

    fn stats(&self) -> &FtlStats {
        &self.core.stats
    }

    /// The page table, plus MGA's second-level entries for scattered chunks
    /// when the scheme packs, plus IPU's live-offset bits and level labels
    /// when it updates in place. IPU+ pays for both (the honest, slightly
    /// pessimistic model).
    fn mapping_memory(&self, dev: &FlashDevice) -> MappingMemory {
        let g = &dev.config().geometry;
        let logical_pages = self.core.logical_pages();
        let mut memory = MappingMemory::baseline(logical_pages);
        if self.kind.packs() {
            let spp = g.subpages_per_page();
            let scattered = self.core.map.chunk_summary(spp).scattered_chunks;
            memory.second_level_bytes +=
                MappingMemory::mga(logical_pages, scattered, spp).second_level_bytes;
        }
        if self.kind.updates_in_place() {
            let slc_blocks = self.core.blocks.slc_total();
            let slc_pages = slc_blocks * g.pages_per_block_slc as u64;
            let ipu = MappingMemory::ipu(logical_pages, slc_pages, slc_blocks);
            memory.second_level_bytes += ipu.second_level_bytes;
            memory.label_bytes += ipu.label_bytes;
        }
        memory
    }

    fn core(&self) -> &FtlCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut FtlCore {
        &mut self.core
    }
}

// The unit tests, one module per scheme. They live in this file so each sits
// at `schemes::<scheme>::tests` and can read the driver's private fields.

#[cfg(test)]
fn test_ftl(kind: SchemeKind, cfg: FtlConfig) -> (SchemeFtl, FlashDevice) {
    let mut dev = FlashDevice::new(ipu_flash::DeviceConfig::small_for_tests());
    let ftl = SchemeFtl::new(kind, &mut dev, cfg);
    (ftl, dev)
}

#[cfg(test)]
fn w(offset: u64, size: u32) -> IoRequest {
    IoRequest::new(0, ipu_trace::OpKind::Write, offset, size)
}

#[cfg(test)]
mod baseline {
    mod tests {
        use super::super::*;
        use ipu_flash::{DeviceConfig, SubpageState};

        fn setup() -> (SchemeFtl, FlashDevice) {
            test_ftl(SchemeKind::Baseline, FtlConfig::default())
        }

        #[test]
        fn small_write_burns_a_whole_page() {
            let (mut ftl, mut dev) = setup();
            let batch = ftl.on_write(&w(0, 4096), 1, &mut dev);
            assert_eq!(batch.count(FlashOpKind::HostProgram), 1);
            let spa = ftl.core.map.lookup(0).unwrap();
            let page = dev.block(spa.ppa.block_addr()).page(spa.ppa.page);
            // One subpage programmed, three stranded free — but the page can
            // never be programmed again under Baseline (next chunk gets a new
            // page).
            assert_eq!(page.count(SubpageState::Valid), 1);
            assert_eq!(page.program_ops(), 1);

            ftl.on_write(&w(1 << 20, 4096), 2, &mut dev);
            let spa2 = ftl.core.map.lookup((1 << 20) / 4096).unwrap();
            assert_ne!(spa.ppa, spa2.ppa, "Baseline must not pack into used pages");
        }

        #[test]
        fn update_invalidates_previous_version() {
            let (mut ftl, mut dev) = setup();
            ftl.on_write(&w(0, 8192), 1, &mut dev);
            let old = ftl.core.map.lookup(0).unwrap();
            ftl.on_write(&w(0, 8192), 2, &mut dev);
            let new = ftl.core.map.lookup(0).unwrap();
            assert_ne!(old, new);
            assert_eq!(
                dev.block(old.ppa.block_addr())
                    .page(old.ppa.page)
                    .subpage(old.subpage),
                SubpageState::Invalid
            );
        }

        #[test]
        fn sustained_writes_trigger_gc_and_eviction_to_mlc() {
            let (mut ftl, mut dev) = setup();
            // 2 SLC blocks × 4 pages; write far more chunks than that. Half
            // the LSNs are rewritten so GC finds invalid pages.
            for round in 0..10u64 {
                for slot in 0..4u64 {
                    ftl.on_write(&w(slot * 65536, 4096), round * 10 + slot, &mut dev);
                }
            }
            let stats = ftl.stats();
            assert!(stats.gc_runs_slc > 0, "GC never ran");
            assert!(stats.gc_victim_total_subpages > 0);
            // Everything the host wrote landed in SLC first (the cache
            // absorbed the writes); eviction happened via GC.
            assert!(stats.host_subpages_to_slc > 0);
            assert!(dev.wear().totals().slc_erases > 0);
            // Read-your-writes still holds for every live slot.
            for slot in 0..4u64 {
                assert!(ftl.core.map.lookup(slot * 16).is_some(), "slot {slot} lost");
            }
        }

        #[test]
        fn page_utilization_reflects_fragmentation() {
            let (mut ftl, mut dev) = setup();
            // All 4 KB writes: pages are quarter-used, utilization ~25%.
            for i in 0..40u64 {
                ftl.on_write(&w(i * 65536, 4096), i, &mut dev);
            }
            let stats = ftl.stats();
            assert!(stats.gc_runs_slc > 0);
            let util = stats.gc_page_utilization();
            assert!(
                util < 0.30,
                "4K-only workload must fragment pages, got {util}"
            );
        }

        #[test]
        fn static_wear_leveling_migrates_cold_blocks() {
            // Aggressive thresholds so the tiny workload triggers a
            // migration: check after every erase, and call any 1-cycle gap
            // significant.
            let mut dev = FlashDevice::new(DeviceConfig::small_for_tests());
            // A roomier SLC region (8 blocks) so the cold block is not an
            // active and can squat while the churn wears out its neighbours.
            let cfg = FtlConfig {
                slc_ratio: 0.25,
                wear_leveling: crate::wear_leveling::WearLevelingConfig {
                    enabled: true,
                    check_interval_erases: 1,
                    wear_gap_threshold: 1,
                },
                ..FtlConfig::default()
            };
            let mut ftl = SchemeFtl::new(SchemeKind::Baseline, &mut dev, cfg);
            // Slot 0 is written once (cold, squats on its block); other slots
            // churn, racking up erases elsewhere and widening the wear gap.
            ftl.on_write(&w(0, 4096), 1, &mut dev);
            for round in 0..120u64 {
                for slot in 1..5u64 {
                    let now = (round * 4 + slot) * 20_000_000; // 20 ms apart
                    ftl.on_write(&w(slot * 65536, 4096), now, &mut dev);
                }
            }
            assert!(
                ftl.stats().wear_leveling_migrations > 0,
                "wear gap never triggered a migration"
            );
            // Cold data survives the migrations.
            assert!(ftl.core.map.lookup(0).is_some());
        }

        #[test]
        fn wear_leveling_disabled_never_migrates() {
            let mut dev = FlashDevice::new(DeviceConfig::small_for_tests());
            let cfg = FtlConfig {
                wear_leveling: crate::wear_leveling::WearLevelingConfig {
                    enabled: false,
                    check_interval_erases: 1,
                    wear_gap_threshold: 1,
                },
                ..FtlConfig::default()
            };
            let mut ftl = SchemeFtl::new(SchemeKind::Baseline, &mut dev, cfg);
            for round in 0..40u64 {
                for slot in 0..5u64 {
                    let now = (round * 5 + slot) * 20_000_000;
                    ftl.on_write(&w(slot * 65536, 4096), now, &mut dev);
                }
            }
            assert_eq!(ftl.stats().wear_leveling_migrations, 0);
        }

        #[test]
        fn mapping_memory_is_page_level_only() {
            let (mut ftl, mut dev) = setup();
            ftl.on_write(&w(0, 16384), 1, &mut dev);
            ftl.on_write(&w(65536, 4096), 2, &mut dev);
            let m = ftl.mapping_memory(&dev);
            assert_eq!(m.second_level_bytes, 0);
            assert_eq!(m.label_bytes, 0);
            // Full-space table: 32 blocks × 8 MLC pages × 8 B per entry.
            assert_eq!(m.page_table_bytes, 32 * 8 * 8);
        }
    }
}

#[cfg(test)]
mod mga {
    mod tests {
        use super::super::*;
        use ipu_flash::SubpageState;

        fn setup() -> (SchemeFtl, FlashDevice) {
            test_ftl(SchemeKind::Mga, FtlConfig::default())
        }

        #[test]
        fn small_writes_pack_into_one_page() {
            let (mut ftl, mut dev) = setup();
            // Three 4 KB writes from *different* addresses pack into one page.
            ftl.on_write(&w(0, 4096), 1, &mut dev);
            ftl.on_write(&w(65536, 4096), 2, &mut dev);
            ftl.on_write(&w(2 * 65536, 4096), 3, &mut dev);
            let a = ftl.core.map.lookup(0).unwrap();
            let b = ftl.core.map.lookup(16).unwrap();
            let c = ftl.core.map.lookup(32).unwrap();
            assert_eq!(a.ppa, b.ppa, "packing failed");
            assert_eq!(a.ppa, c.ppa);
            assert_eq!((a.subpage, b.subpage, c.subpage), (0, 1, 2));
            // Packing partial programs disturbed the earlier data.
            let page = dev.block(a.ppa.block_addr()).page(a.ppa.page);
            assert_eq!(page.program_ops(), 3);
            assert_eq!(page.in_page_disturbs(0), 2);
            assert_eq!(page.in_page_disturbs(1), 1);
        }

        #[test]
        fn nop_budget_caps_packing_at_four_programs() {
            let (mut ftl, mut dev) = setup();
            for i in 0..5u64 {
                ftl.on_write(&w(i * 65536, 4096), i, &mut dev);
            }
            let first = ftl.core.map.lookup(0).unwrap();
            let fifth = ftl.core.map.lookup(4 * 16).unwrap();
            // Four programs fill the page's budget; the fifth write opens a
            // new page.
            assert_ne!(first.ppa, fifth.ppa);
            let page = dev.block(first.ppa.block_addr()).page(first.ppa.page);
            assert_eq!(page.program_ops(), 4);
        }

        #[test]
        fn full_page_writes_bypass_packing() {
            let (mut ftl, mut dev) = setup();
            ftl.on_write(&w(0, 4096), 1, &mut dev);
            assert_eq!(ftl.open_pages.len(), 1);
            ftl.on_write(&w(65536, 16384), 2, &mut dev);
            let big = ftl.core.map.lookup(16).unwrap();
            assert_eq!(big.subpage, 0);
            let page = dev.block(big.ppa.block_addr()).page(big.ppa.page);
            assert_eq!(page.program_ops(), 1);
            assert_eq!(page.count(SubpageState::Valid), 4);
        }

        #[test]
        fn two_subpage_chunks_pack_contiguously() {
            let (mut ftl, mut dev) = setup();
            ftl.on_write(&w(0, 8192), 1, &mut dev);
            ftl.on_write(&w(65536, 8192), 2, &mut dev);
            let a = ftl.core.map.lookup(0).unwrap();
            let b = ftl.core.map.lookup(16).unwrap();
            assert_eq!(a.ppa, b.ppa);
            assert_eq!((a.subpage, b.subpage), (0, 2));
        }

        #[test]
        fn gc_under_pressure_keeps_mapping_consistent() {
            let (mut ftl, mut dev) = setup();
            for round in 0..12u64 {
                for slot in 0..6u64 {
                    ftl.on_write(&w(slot * 65536, 4096), round * 6 + slot, &mut dev);
                }
            }
            assert!(ftl.stats().gc_runs_slc > 0);
            for slot in 0..6u64 {
                let lsn = slot * 16;
                let spa = ftl.core.map.lookup(lsn).expect("mapping lost");
                let bi = ftl.core.block_idx(spa.ppa.block_addr());
                assert_eq!(ftl.core.owners.owner(bi, spa), Some(lsn), "owner drift");
            }
            // Packing keeps GC'd blocks nearly full (Fig. 9: MGA ≈ 99.9%).
            let util = ftl.stats().gc_page_utilization();
            assert!(util > 0.9, "MGA utilization {util} should be near 1");
        }

        #[test]
        fn mapping_memory_includes_second_level_for_scattered_chunks() {
            let (mut ftl, mut dev) = setup();
            // Packed small writes land at arbitrary offsets → scattered chunks.
            ftl.on_write(&w(0, 4096), 1, &mut dev);
            ftl.on_write(&w(65536, 4096), 2, &mut dev);
            let m = ftl.mapping_memory(&dev);
            assert!(m.second_level_bytes > 0, "MGA must pay for a second level");
            let base = MappingMemory::baseline(ftl.core.logical_pages());
            assert!(m.total() > base.total());
        }
    }
}

#[cfg(test)]
mod ipu {
    mod tests {
        use super::super::*;
        use ipu_flash::SubpageState;
        use ipu_trace::OpKind;

        fn setup() -> (SchemeFtl, FlashDevice) {
            test_ftl(SchemeKind::Ipu, FtlConfig::default())
        }

        /// A roomier SLC region (8 blocks) so Work, Monitor and Hot actives
        /// can coexist without falling back down the hierarchy.
        fn setup_roomy() -> (SchemeFtl, FlashDevice) {
            let cfg = FtlConfig {
                slc_ratio: 0.25,
                ..FtlConfig::default()
            };
            let (ftl, dev) = test_ftl(SchemeKind::Ipu, cfg);
            assert_eq!(ftl.core.blocks.slc_total(), 8);
            (ftl, dev)
        }

        #[test]
        fn update_lands_in_the_same_page() {
            let (mut ftl, mut dev) = setup();
            ftl.on_write(&w(0, 4096), 1, &mut dev);
            let first = ftl.core.map.lookup(0).unwrap();
            ftl.on_write(&w(0, 4096), 2, &mut dev);
            let second = ftl.core.map.lookup(0).unwrap();
            assert_eq!(first.ppa, second.ppa, "update must stay intra-page");
            assert_eq!(second.subpage, first.subpage + 1);
            assert_eq!(ftl.stats().intra_page_updates, 1);
            // The old version is invalid; the disturbed in-page data is only
            // that obsolete version.
            let page = dev.block(first.ppa.block_addr()).page(first.ppa.page);
            assert_eq!(page.subpage(first.subpage), SubpageState::Invalid);
            assert_eq!(page.in_page_disturbs(first.subpage), 1);
            assert_eq!(page.in_page_disturbs(second.subpage), 0);
        }

        #[test]
        fn different_requests_never_share_a_page() {
            let (mut ftl, mut dev) = setup();
            ftl.on_write(&w(0, 4096), 1, &mut dev);
            ftl.on_write(&w(65536, 4096), 2, &mut dev);
            let a = ftl.core.map.lookup(0).unwrap();
            let b = ftl.core.map.lookup(16).unwrap();
            assert_ne!(a.ppa, b.ppa, "IPU must not pack foreign data into a page");
        }

        #[test]
        fn fourth_update_upgrades_to_monitor() {
            let (mut ftl, mut dev) = setup();
            // 4 KB chunk: first write + 3 intra-page updates exhaust the
            // page, the next update must move up to a Monitor block.
            for t in 0..4u64 {
                ftl.on_write(&w(0, 4096), t, &mut dev);
            }
            assert_eq!(ftl.stats().intra_page_updates, 3);
            assert_eq!(ftl.stats().upgraded_writes, 0);

            ftl.on_write(&w(0, 4096), 9, &mut dev);
            assert_eq!(ftl.stats().upgraded_writes, 1);
            let spa = ftl.core.map.lookup(0).unwrap();
            let level = ftl
                .core
                .meta
                .level(ftl.core.block_idx(spa.ppa.block_addr()));
            assert_eq!(level, Some(BlockLevel::Monitor));
            assert_eq!(spa.subpage, 0);
            assert_eq!(
                ftl.stats().host_programs_per_level[BlockLevel::Monitor as usize],
                1
            );
        }

        #[test]
        fn sustained_updates_climb_to_hot() {
            let (mut ftl, mut dev) = setup_roomy();
            // Each page absorbs 4 programs; 12 writes walk Work → Monitor →
            // Hot.
            for t in 0..12u64 {
                ftl.on_write(&w(0, 4096), t, &mut dev);
            }
            let spa = ftl.core.map.lookup(0).unwrap();
            let level = ftl
                .core
                .meta
                .level(ftl.core.block_idx(spa.ppa.block_addr()));
            assert_eq!(level, Some(BlockLevel::Hot));
            assert_eq!(ftl.stats().upgraded_writes, 2);
            assert_eq!(ftl.stats().intra_page_updates, 9);
        }

        #[test]
        fn full_page_update_always_upgrades() {
            let (mut ftl, mut dev) = setup();
            ftl.on_write(&w(0, 16384), 1, &mut dev);
            ftl.on_write(&w(0, 16384), 2, &mut dev);
            // A 4-subpage update can never fit in the old (fully programmed)
            // page.
            assert_eq!(ftl.stats().intra_page_updates, 0);
            assert_eq!(ftl.stats().upgraded_writes, 1);
        }

        #[test]
        fn partially_new_chunk_splits_new_and_update() {
            let (mut ftl, mut dev) = setup();
            ftl.on_write(&w(0, 4096), 1, &mut dev); // lsn 0 exists
            ftl.on_write(&w(0, 8192), 2, &mut dev); // lsn 0 update + lsn 1 new
            assert_eq!(ftl.stats().intra_page_updates, 1);
            let a = ftl.core.map.lookup(0).unwrap();
            let b = ftl.core.map.lookup(1).unwrap();
            // lsn 0 updated intra-page; lsn 1 is new data in a Work page.
            assert_eq!(a.subpage, 1);
            assert_eq!(b.subpage, 0);
            assert_ne!(a.ppa, b.ppa);
        }

        #[test]
        fn gc_demotes_cold_and_keeps_hot() {
            let (mut ftl, mut dev) = setup();
            // Two SLC blocks of 4 pages. Fill with a mix: slot 0 is hot
            // (updated in place), slots 1..4 are cold singles.
            ftl.on_write(&w(0, 4096), 1, &mut dev);
            ftl.on_write(&w(0, 4096), 2, &mut dev); // intra-page update → page updated
            for slot in 1..4u64 {
                ftl.on_write(&w(slot * 65536, 4096), 2 + slot, &mut dev);
            }
            // Force pressure: more cold singles to trip GC repeatedly.
            for slot in 4..12u64 {
                ftl.on_write(&w(slot * 65536, 4096), 10 + slot, &mut dev);
            }
            let stats = ftl.stats();
            assert!(stats.gc_runs_slc > 0);
            assert!(
                stats.gc_evicted_subpages > 0,
                "cold data must leave the cache"
            );
            // Hot slot survives with a live mapping.
            assert!(ftl.core.map.lookup(0).is_some());
        }

        #[test]
        fn mapping_memory_is_near_baseline() {
            let (mut ftl, mut dev) = setup();
            for slot in 0..4u64 {
                ftl.on_write(&w(slot * 65536, 16384), slot, &mut dev);
            }
            let m = ftl.mapping_memory(&dev);
            // Second level is the fixed 2-bit-per-SLC-page cost, independent
            // of mapped data: 2 blocks × 4 pages × 2 bits = 2 bytes.
            assert_eq!(m.second_level_bytes, 2);
            assert_eq!(m.label_bytes, 1);
            // Full-space table: 32 blocks × 8 MLC pages × 8 B per entry.
            assert_eq!(m.page_table_bytes, 32 * 8 * 8);
            // The IPU overhead over a pure page table is well under 1%.
            let overhead = m.total() as f64 / m.page_table_bytes as f64;
            assert!(overhead < 1.01, "IPU overhead {overhead}");
        }

        #[test]
        fn read_your_writes_through_update_chains() {
            let (mut ftl, mut dev) = setup();
            for t in 0..7u64 {
                ftl.on_write(&w(0, 8192), t, &mut dev);
            }
            let r = IoRequest::new(100, OpKind::Read, 0, 8192);
            let batch = ftl.on_read(&r, 100, &mut dev);
            assert!(batch.count(FlashOpKind::HostRead) >= 1);
            assert_eq!(ftl.stats().unmapped_reads, 0);
            assert_eq!(ftl.stats().host_subpages_read, 2);
        }
    }
}

#[cfg(test)]
mod ipu_plus {
    mod tests {
        use super::super::*;
        use ipu_flash::DeviceConfig;
        use ipu_trace::OpKind;

        fn setup() -> (SchemeFtl, FlashDevice) {
            let cfg = FtlConfig {
                slc_ratio: 0.25,
                ..FtlConfig::default()
            };
            test_ftl(SchemeKind::IpuPlus, cfg)
        }

        #[test]
        fn cold_writes_pack_together() {
            let (mut ftl, mut dev) = setup();
            ftl.on_write(&w(0, 4096), 1, &mut dev);
            ftl.on_write(&w(65536, 4096), 2, &mut dev);
            let a = ftl.core.map.lookup(0).unwrap();
            let b = ftl.core.map.lookup(16).unwrap();
            assert_eq!(a.ppa, b.ppa, "cold data from different requests must pack");
            assert_eq!((a.subpage, b.subpage), (0, 1));
        }

        #[test]
        fn updates_stay_intra_page_not_packed() {
            let (mut ftl, mut dev) = setup();
            ftl.on_write(&w(0, 4096), 1, &mut dev); // cold, packs at subpage 0
            ftl.on_write(&w(0, 4096), 2, &mut dev); // update → same page, next slot
            let spa = ftl.core.map.lookup(0).unwrap();
            assert_eq!(spa.subpage, 1);
            assert_eq!(ftl.stats().intra_page_updates, 1);
            // A different cold write now packs *after* the update's slot.
            ftl.on_write(&w(65536, 4096), 3, &mut dev);
            let c = ftl.core.map.lookup(16).unwrap();
            assert_eq!(c.ppa, spa.ppa);
            assert_eq!(c.subpage, 2);
        }

        #[test]
        fn utilization_beats_plain_ipu() {
            // Same cold-heavy churn under IPU and IPU+: the packing variant
            // must burn fewer SLC blocks.
            let run = |plus: bool| {
                let mut dev = FlashDevice::new(DeviceConfig::small_for_tests());
                let cfg = FtlConfig {
                    slc_ratio: 0.25,
                    ..FtlConfig::default()
                };
                let mut ftl: Box<dyn FtlScheme> = if plus {
                    Box::new(SchemeFtl::new(SchemeKind::IpuPlus, &mut dev, cfg))
                } else {
                    Box::new(SchemeFtl::new(SchemeKind::Ipu, &mut dev, cfg))
                };
                for i in 0..200u64 {
                    let now = i * 20_000_000;
                    ftl.on_write(
                        &IoRequest::new(now, OpKind::Write, i * 65536, 4096),
                        now,
                        &mut dev,
                    );
                }
                (ftl.stats().clone(), dev.wear().totals())
            };
            let (_, ipu_wear) = run(false);
            let (plus_stats, plus_wear) = run(true);
            assert!(
                plus_wear.slc_erases < ipu_wear.slc_erases,
                "IPU+ must erase less under cold churn: {} vs {}",
                plus_wear.slc_erases,
                ipu_wear.slc_erases
            );
            assert_eq!(
                plus_stats.intra_page_updates, 0,
                "pure cold stream has no updates"
            );
        }

        #[test]
        fn hot_chain_still_climbs_levels() {
            let (mut ftl, mut dev) = setup();
            for t in 0..12u64 {
                ftl.on_write(&w(0, 4096), t, &mut dev);
            }
            let spa = ftl.core.map.lookup(0).unwrap();
            let level = ftl
                .core
                .meta
                .level(ftl.core.block_idx(spa.ppa.block_addr()));
            assert_eq!(level, Some(BlockLevel::Hot));
        }

        #[test]
        fn mapping_memory_includes_both_structures() {
            let (mut ftl, mut dev) = setup();
            ftl.on_write(&w(0, 4096), 1, &mut dev);
            ftl.on_write(&w(65536, 4096), 2, &mut dev); // packed → scattered chunk
            let m = ftl.mapping_memory(&dev);
            assert!(m.second_level_bytes > 0);
            assert!(m.label_bytes > 0);
        }
    }
}
