//! Shared FTL machinery: active blocks, chunking, programming, the host read
//! path, victim selection, the move-and-erase cycle every reclaim runs, MLC
//! GC, wear-leveling and power-loss rebuild. The scheme driver (`SchemeFtl`)
//! decides only where writes land, which victim policy GC uses and where GC
//! moves data; everything else lives here.

use std::collections::{BTreeMap, BTreeSet};

use ipu_flash::{
    BlockAddr, CellMode, FlashDevice, FlashError, FlashGeometry, Nanos, Ppa, RetryLadder, Spa,
    SubpageState, MAX_SUBPAGES_PER_PAGE,
};
use ipu_trace::IoRequest;

use crate::block_mgr::BlockManager;
use crate::cache_meta::CacheMeta;
use crate::config::FtlConfig;
use crate::error::FtlError;
use crate::gc::{
    greedy_score, isr_jensen_bound, isr_score_fast, select_greedy, select_isr, GcGranularity,
};
use crate::mapping::{MappingTable, OwnerTable};
use crate::ops::{FlashOpKind, OpBatch, ReqStatus, RoundOrigin};
use crate::stats::FtlStats;
use crate::types::{BlockLevel, Lsn};
use crate::victim_index::VictimIndex;
use crate::wear_leveling::WearLeveler;

/// Maximum placements tried for one program group before the write fails
/// (each failed attempt retires its block and retries on a fresh page).
const MAX_PROGRAM_ATTEMPTS: u32 = 4;

/// An open block accepting sequential page allocations.
#[derive(Debug, Clone, Copy)]
pub struct ActiveBlock {
    pub addr: BlockAddr,
    pub next_page: u32,
    pub pages: u32,
}

impl ActiveBlock {
    /// Next free page, or `None` when the block is full.
    fn take_page(&mut self) -> Option<Ppa> {
        if self.next_page < self.pages {
            let p = self.addr.page(self.next_page);
            self.next_page += 1;
            Some(p)
        } else {
            None
        }
    }
}

/// Valid data of one page of a GC victim, grouped for relocation.
#[derive(Debug, Clone, Copy)]
pub struct PageGroup {
    pub page: u32,
    /// Whether the page received an intra-page update while in this block.
    pub updated: bool,
    subs_len: u8,
    /// Inline so a GC round recycles one flat group buffer with no per-page
    /// heap traffic (see `FtlCore::reclaim_block`).
    subs: [(u8, Lsn); MAX_SUBPAGES_PER_PAGE],
}

impl PageGroup {
    /// `(subpage offset, owning LSN)` of each valid subpage, ascending offset.
    #[inline]
    pub fn subs(&self) -> &[(u8, Lsn)] {
        &self.subs[..self.subs_len as usize]
    }
}

/// Durable per-subpage record, modelling what a real FTL writes into the
/// page's out-of-band (spare) area alongside the data. Power-loss recovery
/// rebuilds the mapping table and cache metadata from these.
#[derive(Debug, Clone, Copy)]
struct SubTag {
    lsn: Lsn,
    written_ns: Nanos,
    /// Whether this program was a follow-up (second+) op on its page — the
    /// durable form of the intra-page-update flag.
    follow_up: bool,
}

/// Durable per-block shadow: level label, open order and the OOB tags of
/// every subpage programmed in the current erase cycle. Erase drops the
/// entry (OOB is erased with the data); retirement drops it too.
#[derive(Debug, Clone)]
struct BlockOob {
    level: BlockLevel,
    opened_seq: u64,
    /// Tag per page-major subpage slot (`None` = never programmed this erase
    /// cycle). Ascending slot order is (page, subpage) order, so power-loss
    /// replay walks tags in program-layout order without an explicit sort,
    /// and the write path records a tag with one indexed store instead of a
    /// tree insert. Sized for the larger (MLC) page count at creation.
    tags: Vec<Option<SubTag>>,
}

impl BlockOob {
    /// Tags present, in ascending (page, subpage) order.
    fn iter_tags(&self, spp: u32) -> impl Iterator<Item = (u32, u8, &SubTag)> {
        self.tags.iter().enumerate().filter_map(move |(slot, t)| {
            t.as_ref()
                .map(|tag| ((slot as u32) / spp, (slot % spp as usize) as u8, tag))
        })
    }
}

/// Shared FTL state and mechanics.
#[derive(Debug)]
pub struct FtlCore {
    pub cfg: FtlConfig,
    pub map: MappingTable,
    pub owners: OwnerTable,
    pub blocks: BlockManager,
    pub meta: CacheMeta,
    pub stats: FtlStats,
    geometry: FlashGeometry,
    /// Ring of active (open) blocks per level — page allocations round-robin
    /// across the ring so consecutive writes stripe over planes/chips, as
    /// SSDsim's dynamic allocation does. Baseline/MGA only use the Work and
    /// HighDensity rings, IPU uses all four.
    actives: [Vec<ActiveBlock>; 4],
    /// Round-robin cursors per level.
    rr: [usize; 4],
    /// Earliest simulated time the next SLC GC round may start (the previous
    /// round's movement and erase are still occupying the device).
    slc_gc_ready_at: Nanos,
    /// Same gate for the MLC region.
    mlc_gc_ready_at: Nanos,
    /// Block erase latency (from the device timing config).
    erase_ns: Nanos,
    /// Static wear-leveling trigger state.
    wear_leveler: WearLeveler,
    /// A wear-gap check is due (set by erase accounting).
    wl_check_due: bool,
    /// Read-retry ladder walked on uncorrectable host reads (from the device
    /// config; empty = pre-fault-model behaviour).
    retry: RetryLadder,
    /// Dense indices of blocks retired after program/erase failures. This is
    /// the bad-block table: durable (a real FTL persists it in flash), so it
    /// survives power loss. Ordered so free-pool reconstruction and reports
    /// see a deterministic sequence.
    bad_blocks: BTreeSet<u64>,
    /// Durable OOB shadow per in-use block (see [`BlockOob`]).
    oob: BTreeMap<u64, BlockOob>,
    /// Reusable read-run merge buffer: `host_read` takes it, fills it, and
    /// puts it back, so steady-state reads allocate nothing.
    read_runs: Vec<(Spa, u8)>,
    /// Reusable page-group buffer that [`Self::reclaim_block`] takes and
    /// puts back, so GC and wear-leveling rounds allocate nothing.
    gc_groups: Vec<PageGroup>,
    /// Reusable (upper bound, opened_seq, idx) candidate list for ISR victim
    /// selection, so steady-state GC allocates nothing.
    isr_scratch: Vec<(f64, u64, u64)>,
    /// Bucketed priority index over in-use SLC blocks, maintained on block
    /// open/close and subpage invalidation so GC victim selection never
    /// rescans the whole cache (see [`VictimIndex`]).
    victim_index: VictimIndex,
}

impl FtlCore {
    /// Builds the core and formats the SLC region of `dev` into SLC-mode.
    pub fn new(dev: &mut FlashDevice, cfg: FtlConfig) -> Self {
        // ipu-lint: allow(panic-reachability) — constructor contract: configs are validated at the experiment boundary, a bad one here is programmer error
        cfg.validate().expect("invalid FTL configuration");
        let geometry = dev.config().geometry.clone();
        let blocks = BlockManager::new(&geometry, &cfg);
        for addr in blocks.slc_region_blocks() {
            dev.set_block_mode(addr, CellMode::Slc);
        }
        FtlCore {
            cfg,
            map: MappingTable::new(),
            owners: OwnerTable::new(&geometry),
            blocks,
            meta: CacheMeta::with_blocks(geometry.total_blocks()),
            stats: FtlStats::default(),
            geometry,
            actives: [Vec::new(), Vec::new(), Vec::new(), Vec::new()],
            rr: [0; 4],
            slc_gc_ready_at: 0,
            mlc_gc_ready_at: 0,
            erase_ns: dev.config().timing.erase_ns(),
            wear_leveler: WearLeveler::new(),
            wl_check_due: false,
            retry: dev.config().retry.clone(),
            bad_blocks: BTreeSet::new(),
            oob: BTreeMap::new(),
            read_runs: Vec::new(),
            gc_groups: Vec::new(),
            isr_scratch: Vec::new(),
            victim_index: VictimIndex::new(),
        }
    }

    /// Dense indices of blocks retired after media failures.
    pub fn bad_blocks(&self) -> &BTreeSet<u64> {
        &self.bad_blocks
    }

    /// Whether `addr` is a retired block, which must take no more data.
    pub fn is_retired(&self, addr: BlockAddr) -> bool {
        self.bad_blocks.contains(&self.block_idx(addr))
    }

    /// Device geometry this FTL serves.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    /// Subpages per page (4 at paper scale).
    #[inline]
    pub fn spp(&self) -> u8 {
        self.geometry.subpages_per_page() as u8
    }

    /// Logical pages the device exposes (first-level mapping-table entries).
    pub fn logical_pages(&self) -> u64 {
        self.geometry.mlc_capacity_bytes() / self.geometry.page_size as u64
    }

    /// Dense block index of an address.
    #[inline]
    pub fn block_idx(&self, addr: BlockAddr) -> u64 {
        self.geometry.block_index(addr)
    }

    /// Chip a block's operations occupy.
    #[inline]
    pub fn chip_of(&self, addr: BlockAddr) -> u32 {
        self.geometry.chip_index(addr)
    }

    /// Splits a request's logical subpages into page-aligned
    /// `(first LSN, subpage count)` spans without allocating — the span is
    /// contiguous, so each chunk is fully described by its start and length.
    ///
    /// Each span targets one flash page (the paper's "an SLC-mode page only
    /// holds the valid data from a single request").
    pub fn chunk_spans(&self, req: &IoRequest) -> impl Iterator<Item = (Lsn, u8)> {
        let spp = self.spp() as u64;
        let span = req.subpage_span();
        let end = span.end;
        let mut lsn = span.start;
        std::iter::from_fn(move || {
            if lsn >= end {
                return None;
            }
            let page_end = (lsn / spp + 1) * spp;
            let len = page_end.min(end) - lsn;
            let start = lsn;
            lsn += len;
            Some((start, len as u8))
        })
    }

    /// Whether `addr` is currently an active block of any level. O(1): reads
    /// the block's active flag, which mirrors ring membership.
    pub fn is_active(&self, addr: BlockAddr) -> bool {
        self.meta
            .get(self.block_idx(addr))
            .is_some_and(|m| m.is_active())
    }

    fn open_active(&mut self, addr: BlockAddr, level: BlockLevel) {
        let pages = if level.is_slc() {
            self.geometry.pages_per_block_slc
        } else {
            self.geometry.pages_per_block_mlc
        };
        let idx = self.block_idx(addr);
        self.meta
            .open_block(idx, addr, level, pages, self.geometry.subpages_per_page());
        let mut seq = 0;
        if let Some(m) = self.meta.get_mut(idx) {
            m.set_active(true);
            seq = m.opened_seq();
        }
        if level.is_slc() {
            // A freshly-allocated block is erased: its greedy score is 0.
            self.victim_index.insert(idx, seq, 0);
        }
        self.actives[level as usize].push(ActiveBlock {
            addr,
            next_page: 0,
            pages,
        });
    }

    /// Empties ring `li`, clearing its members' active flags (they remain GC
    /// candidates via the metadata registry).
    fn clear_ring(&mut self, li: usize) {
        for a in &self.actives[li] {
            if let Some(m) = self.meta.get_mut(self.geometry.block_index(a.addr)) {
                m.set_active(false);
            }
        }
        self.actives[li].clear();
    }

    /// Records a subpage invalidation in the cache metadata (incremental ISR
    /// aggregates) and the victim index (cached greedy score). Must be called
    /// after every successful `dev.invalidate` so both stay mirrors of the
    /// device's validity state.
    fn note_invalidated(&mut self, block_idx: u64, spa: Spa) {
        if let Some(m) = self.meta.get_mut(block_idx) {
            m.note_invalidate(spa.ppa.page, spa.subpage);
        }
        self.victim_index.note_invalidated(block_idx);
    }

    /// Greedy SLC GC victim via the priority index: highest cached
    /// invalid-subpage score, ties toward the oldest `opened_seq`, active
    /// write targets skipped. Selects exactly the block the retired linear
    /// scan ([`Self::oracle_slc_victim_greedy`]) would — property tests pin
    /// the equivalence.
    pub fn select_slc_victim_greedy(&self) -> Option<u64> {
        self.victim_index
            .select_greedy(|i| self.meta.get(i).is_none_or(|m| m.is_active()))
    }

    /// ISR SLC GC victim (paper Equations 1–2) over the index's membership
    /// set, in one pass over the buckets' dense entries with no sort. Every
    /// non-active candidate gets its O(1) [`isr_jensen_bound`]; the candidate
    /// with the highest bound is scored exactly with the incremental
    /// evaluator, and any other candidate only if its bound + 1e-9 reaches
    /// the running best. Selects exactly the block the full linear scan
    /// ([`Self::oracle_slc_victim_isr`]) would: the bound over-approximates
    /// the score (Jensen's inequality on the concave age weight), so a
    /// pruned candidate scores below the final best and could neither win
    /// nor tie, and the replacement rule computes `select_isr`'s (max score,
    /// min seq) ordering, which is a maximum over a total order and
    /// therefore independent of visit order.
    pub fn select_slc_victim_isr(&mut self, dev: &FlashDevice, now: Nanos) -> Option<u64> {
        let mut cands = std::mem::take(&mut self.isr_scratch);
        let cap_before = cands.capacity();
        cands.clear();
        let mut top: Option<(f64, usize)> = None; // (bound, position in cands)
        for (seq, idx) in self.victim_index.entries() {
            let Some(m) = self.meta.get(idx) else {
                continue;
            };
            if m.is_active() {
                continue;
            }
            let ub = isr_jensen_bound(dev.block_by_index(idx), m, now);
            if top.is_none_or(|(tub, _)| ub > tub) {
                top = Some((ub, cands.len()));
            }
            cands.push((ub, seq, idx));
        }
        // Exact scores: the best-bounded candidate first, so its score
        // prunes every candidate whose bound cannot reach it.
        if let Some((_, t)) = top {
            cands.swap(0, t);
        }
        let mut best: Option<(f64, u64, u64)> = None; // (score, opened_seq, idx)
        for &(ub, seq, idx) in &cands {
            if best.is_some_and(|(bs, _, _)| ub + 1e-9 < bs) {
                continue;
            }
            let Some(m) = self.meta.get(idx) else {
                continue;
            };
            let s = isr_score_fast(dev.block_by_index(idx), m, now);
            if best.is_none_or(|(bs, bseq, _)| s > bs || (s == bs && seq < bseq)) {
                best = Some((s, seq, idx));
            }
        }
        if cands.capacity() != cap_before {
            self.stats.scratch_grows += 1;
        }
        self.isr_scratch = cands;
        best.map(|(_, _, idx)| idx)
    }

    /// Reference greedy victim selection: the linear scan the schemes used
    /// before the index existed. Kept as the oracle for equivalence tests.
    pub fn oracle_slc_victim_greedy(&self, dev: &FlashDevice) -> Option<u64> {
        let cands = self
            .meta
            .slc_blocks()
            .filter(|(_, m)| !self.is_active(m.addr))
            .map(|(i, m)| (i, dev.block_by_index(i), m.opened_seq()));
        select_greedy(cands, GcGranularity::Subpage)
    }

    /// Reference ISR victim selection (full recomputation linear scan). Kept
    /// as the oracle for equivalence tests.
    pub fn oracle_slc_victim_isr(&self, dev: &FlashDevice, now: Nanos) -> Option<u64> {
        let cands = self.meta.slc_blocks().filter_map(|(i, m)| {
            if self.is_active(m.addr) {
                None
            } else {
                Some((i, dev.block_by_index(i), m))
            }
        });
        select_isr(cands, now)
    }

    fn free_blocks_for(&self, level: BlockLevel) -> u64 {
        if level.is_slc() {
            self.blocks.slc_free_count()
        } else {
            self.blocks.mlc_free_count()
        }
    }

    fn allocate_for(&mut self, level: BlockLevel) -> Option<BlockAddr> {
        if level.is_slc() {
            self.blocks.allocate_slc()
        } else {
            self.blocks.allocate_mlc()
        }
    }

    /// Attempts to hand out a page from `level`'s active ring, growing the
    /// ring up to `write_parallelism` blocks when the free pool is
    /// comfortable (so consecutive allocations stripe across planes) and
    /// shrinking to single-block operation under space pressure.
    fn try_take_at_level(&mut self, level: BlockLevel) -> Option<Ppa> {
        let li = level as usize;
        loop {
            // Top up the ring.
            while self.actives[li].len() < self.cfg.write_parallelism {
                let comfortable = self.free_blocks_for(level) > self.cfg.write_parallelism as u64;
                if !self.actives[li].is_empty() && !comfortable {
                    break;
                }
                match self.allocate_for(level) {
                    Some(addr) => self.open_active(addr, level),
                    None => break,
                }
            }
            if self.actives[li].is_empty() {
                return None;
            }
            // Round-robin scan for an open block with a free page.
            let n = self.actives[li].len();
            for _ in 0..n {
                let i = self.rr[li] % n;
                self.rr[li] += 1;
                if let Some(ppa) = self.actives[li][i].take_page() {
                    return Some(ppa);
                }
            }
            // Every ring member is full: retire them and retry.
            self.clear_ring(li);
            if self.free_blocks_for(level) == 0 {
                return None;
            }
        }
    }

    /// Attempts the full fallback chain: the requested level, then each lower
    /// SLC level, then the MLC region.
    fn try_take_chain(&mut self, level: BlockLevel) -> Option<(Ppa, BlockLevel)> {
        let mut try_levels: Vec<BlockLevel> = Vec::with_capacity(4);
        let mut l = level;
        loop {
            try_levels.push(l);
            if l == BlockLevel::HighDensity || l == BlockLevel::Work {
                break;
            }
            l = l.demoted();
        }
        if try_levels.last().copied() != Some(BlockLevel::HighDensity) {
            try_levels.push(BlockLevel::HighDensity);
        }
        for lv in try_levels {
            if let Some(ppa) = self.try_take_at_level(lv) {
                return Some((ppa, lv));
            }
        }
        None
    }

    /// Erases fully-invalid non-active blocks immediately (no valid data to
    /// move), returning how many blocks were reclaimed. This is the
    /// emergency path taken when an allocation stalls: the host is already
    /// blocked on the device, so the usual GC pacing gate does not apply and
    /// the blocks re-enter the pool at once.
    fn emergency_reclaim(&mut self, dev: &mut FlashDevice, batch: &mut OpBatch) -> u32 {
        // The host is blocked on this reclaim, but the erase pulses still run
        // on the background channel: give them their own round tag.
        batch.begin_background_round(RoundOrigin::Gc);
        let victims: Vec<u64> = self
            .meta
            .iter()
            .filter(|(_, m)| !self.is_active(m.addr))
            .filter(|(i, _)| {
                let b = dev.block_by_index(*i);
                b.count_subpages(SubpageState::Valid) == 0 && !b.is_pristine()
            })
            .map(|(i, _)| i)
            .take(8)
            .collect();
        let mut reclaimed = 0;
        for v in victims {
            if let Some((addr, _)) = self.erase_block(dev, v, batch) {
                self.blocks.release(addr);
                reclaimed += 1;
            }
        }
        reclaimed
    }

    /// Hands out a fresh page at `level`, falling back down the hierarchy
    /// (paper: "lower level blocks can be instead selected only if no
    /// available block can be found"), and ultimately to the MLC region.
    /// If every pool is empty, the host stalls while fully-invalid blocks are
    /// reclaimed on the spot; a device genuinely full of valid data returns
    /// [`FtlError::OutOfSpace`].
    ///
    /// Returns the page and the level it actually landed at.
    pub fn take_page(
        &mut self,
        dev: &mut FlashDevice,
        level: BlockLevel,
        batch: &mut OpBatch,
    ) -> Result<(Ppa, BlockLevel), FtlError> {
        if let Some(x) = self.try_take_chain(level) {
            return Ok(x);
        }
        let limit = self.blocks.slc_total() + self.blocks.mlc_total();
        for _ in 0..limit {
            if self.emergency_reclaim(dev, batch) == 0 {
                break;
            }
            if let Some(x) = self.try_take_chain(level) {
                return Ok(x);
            }
        }
        Err(FtlError::OutOfSpace { level })
    }

    /// Programs `lsns` into `ppa` starting at subpage `start`, maintaining the
    /// map, owner table, metadata and statistics, and recording the operation.
    ///
    /// Old locations of the LSNs are invalidated. `kind` distinguishes host
    /// programs from GC relocations for both timing and statistics.
    ///
    /// On a media program failure the block is retired (its valid data is
    /// relocated by `FtlCore::retire_block`) and the group retries on a
    /// fresh page at the failed block's level, up to `MAX_PROGRAM_ATTEMPTS`
    /// placements. No mapping state mutates on a failed attempt — the
    /// injected failure leaves the target subpages free — so consistency
    /// holds at every exit.
    #[allow(clippy::too_many_arguments)] // the flash op tuple is irreducible here
    pub fn program_group(
        &mut self,
        dev: &mut FlashDevice,
        ppa: Ppa,
        start: u8,
        lsns: &[Lsn],
        kind: FlashOpKind,
        now: Nanos,
        batch: &mut OpBatch,
    ) -> Result<(), FtlError> {
        assert!(!lsns.is_empty());
        let mut ppa = ppa;
        let mut start = start;
        let mut attempts: u32 = 0;
        loop {
            let addr = ppa.block_addr();
            let block_idx = self.block_idx(addr);
            let follow_up = dev.block(addr).page(ppa.page).program_ops() > 0;

            match dev.program(Spa::new(ppa, start), lsns.len() as u8) {
                Ok(res) => {
                    batch.push(self.chip_of(addr), kind, res.latency_ns);

                    // Durable OOB shadow: what a real FTL writes into the
                    // page's spare area, read back at power-loss recovery.
                    let (level, opened_seq) = self
                        .meta
                        .get(block_idx)
                        .map(|m| (m.level, m.opened_seq()))
                        .unwrap_or((BlockLevel::HighDensity, 0));
                    let oob_slots = (self.geometry.pages_per_block_mlc
                        * self.geometry.subpages_per_page())
                        as usize;
                    let spp = self.geometry.subpages_per_page();
                    let oob = self.oob.entry(block_idx).or_insert_with(|| BlockOob {
                        level,
                        opened_seq,
                        tags: vec![None; oob_slots],
                    });
                    let base = (ppa.page * spp + start as u32) as usize;
                    for (i, &lsn) in lsns.iter().enumerate() {
                        if let Some(slot) = oob.tags.get_mut(base + i) {
                            *slot = Some(SubTag {
                                lsn,
                                written_ns: now.max(1),
                                follow_up,
                            });
                        }
                    }

                    for (i, &lsn) in lsns.iter().enumerate() {
                        let spa = Spa::new(ppa, start + i as u8);
                        if let Some(old) = self.map.insert(lsn, spa) {
                            // Superseded version: invalidate unless it was in
                            // this very erase cycle's victim (GC callers remap
                            // before erase, and the old block may be
                            // mid-teardown; invalidate is still safe because
                            // the subpage is valid until the erase). A
                            // rejection here means map and media already
                            // disagree — surface it as a failed write rather
                            // than tearing the process down.
                            dev.invalidate(old)?;
                            let old_idx = self.block_idx(old.ppa.block_addr());
                            self.owners.clear(old_idx, old);
                            self.note_invalidated(old_idx, old);
                        }
                        self.owners.set(block_idx, spa, lsn);
                    }

                    if let Some(meta) = self.meta.get_mut(block_idx) {
                        meta.note_program(ppa.page, start, lsns.len() as u8, now, follow_up);
                    }

                    if kind == FlashOpKind::HostProgram {
                        let level = self
                            .meta
                            .level(block_idx)
                            .unwrap_or(BlockLevel::HighDensity);
                        self.stats.note_host_program(level, lsns.len() as u32);
                    }
                    return Ok(());
                }
                Err(FlashError::ProgramFailed { latency_ns, .. }) => {
                    // The failed pulse occupied the chip; charge it, retire
                    // the block, and retry on a fresh page at the same level.
                    attempts += 1;
                    batch.push(self.chip_of(addr), kind, latency_ns);
                    let level = self
                        .meta
                        .level(block_idx)
                        .unwrap_or(BlockLevel::HighDensity);
                    self.retire_block(dev, block_idx, now, batch);
                    self.stats.program_retries += 1;
                    if attempts >= MAX_PROGRAM_ATTEMPTS {
                        return Err(FtlError::WriteFailed { attempts });
                    }
                    let (new_ppa, _) = self.take_page(dev, level, batch)?;
                    ppa = new_ppa;
                    start = 0;
                }
                // Rejected outright (mode/NOP violation): the placement logic
                // and the device disagree. Propagate instead of panicking.
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Permanently retires a block after a media program failure: removes it
    /// from active rings, relocates its remaining valid data, and strikes it
    /// from the allocation pools. Subpages whose relocation itself fails are
    /// counted as data loss and unmapped (a real drive would return read
    /// errors for them).
    fn retire_block(
        &mut self,
        dev: &mut FlashDevice,
        block_idx: u64,
        now: Nanos,
        batch: &mut OpBatch,
    ) {
        self.bad_blocks.insert(block_idx);
        self.stats.retired_blocks += 1;
        let Some(meta) = self.meta.get(block_idx) else {
            return;
        };
        let addr = meta.addr;
        let level = meta.level;
        for ring in self.actives.iter_mut() {
            ring.retain(|a| a.addr != addr);
        }
        if let Some(m) = self.meta.get_mut(block_idx) {
            m.set_active(false);
        }
        for group in self.collect_victim_groups(dev, block_idx) {
            if self
                .relocate_group(dev, addr, &group, level, now, batch)
                .is_err()
            {
                for &(s, lsn) in group.subs() {
                    let spa = Spa::new(addr.page(group.page), s);
                    self.map.remove(lsn);
                    self.owners.clear(block_idx, spa);
                    if dev.invalidate(spa).is_ok() {
                        self.note_invalidated(block_idx, spa);
                    }
                    self.stats.data_loss_events += 1;
                }
            }
        }
        self.meta.close_block(block_idx);
        self.victim_index.remove(block_idx);
        self.oob.remove(&block_idx);
        self.owners.clear_block(block_idx);
        self.blocks.retire(addr);
    }

    /// Serves a host read request: looks up every logical subpage, merges
    /// physically-contiguous runs, reads them, and charges unmapped subpages
    /// as MLC-resident pre-trace data.
    ///
    /// Uncorrectable reads walk the device's read-retry ladder; data loss is
    /// accounted only when every retry step is exhausted. The Fig. 8 RBER
    /// average intentionally sums only the *initial* read of each run, so
    /// retry traffic never skews the paper's error-rate reproduction.
    pub fn host_read(
        &mut self,
        req: &IoRequest,
        dev: &mut FlashDevice,
        batch: &mut OpBatch,
    ) -> Result<(), FtlError> {
        self.stats.host_read_requests += 1;
        let spp = self.spp();

        // Build physical runs: (start spa, length) over consecutive LSNs.
        // The merge buffer is core-owned and reused across requests; the span
        // walk probes the mapping table once per LSN bucket, not per subpage.
        let mut runs = std::mem::take(&mut self.read_runs);
        let cap_before = runs.capacity();
        runs.clear();
        let mut unmapped: u32 = 0;
        let span = req.subpage_span();
        self.map
            .lookup_span(span.start, span.end, |_, loc| match loc {
                Some(spa) => {
                    if let Some((start, len)) = runs.last_mut() {
                        if start.ppa == spa.ppa && start.subpage + *len == spa.subpage && *len < spp
                        {
                            *len += 1;
                            return;
                        }
                    }
                    runs.push((spa, 1));
                }
                None => unmapped += 1,
            });
        if runs.capacity() != cap_before {
            self.stats.scratch_grows += 1;
        }

        let mut outcome: Result<(), FtlError> = Ok(());
        for &(spa, len) in runs.iter() {
            let chip = self.chip_of(spa.ppa.block_addr());
            let res = match dev.read(spa, len) {
                Ok(r) => r,
                Err(e) => {
                    outcome = Err(e.into());
                    break;
                }
            };
            batch.push(chip, FlashOpKind::HostRead, res.latency_ns);
            self.stats.host_read_rber_sum += res.rber * len as f64;
            self.stats.host_subpages_read += len as u64;
            if res.uncorrectable {
                self.stats.host_uncorrectable_reads += 1;
                self.walk_retry_ladder(dev, spa, len, chip, batch);
            }
        }
        self.read_runs = runs;
        outcome?;

        if unmapped > 0 {
            self.charge_unmapped_read(dev, req, unmapped, batch);
        }
        Ok(())
    }

    /// Walks the read-retry ladder after an uncorrectable read: each step
    /// re-reads at a tighter reference voltage (modelled as an RBER scale
    /// plus a fixed latency penalty) until ECC decodes or the ladder runs
    /// dry. The batch status records recovery vs. loss for the host layer.
    fn walk_retry_ladder(
        &mut self,
        dev: &mut FlashDevice,
        spa: Spa,
        len: u8,
        chip: u32,
        batch: &mut OpBatch,
    ) {
        let _span = ipu_obs::span(ipu_obs::Phase::EccRetry);
        let steps = self.retry.steps.clone();
        for step in steps {
            self.stats.read_retries += 1;
            let res = match dev.read_scaled(spa, len, step.rber_scale) {
                Ok(r) => r,
                Err(_) => break,
            };
            let lat = res.latency_ns + step.extra_latency_ns;
            batch.push(chip, FlashOpKind::HostRead, lat);
            self.stats.retry_latency_ns += lat;
            if !res.uncorrectable {
                self.stats.recovered_reads += 1;
                batch.status.escalate(ReqStatus::Recovered);
                ipu_obs::event(ipu_obs::Phase::EccRetry, "read_recovered", lat);
                return;
            }
        }
        ipu_obs::event(ipu_obs::Phase::EccRetry, "read_exhausted", 0);
        self.stats.data_loss_events += 1;
        batch.status.escalate(ReqStatus::Failed);
    }

    /// Accounts a host write that ultimately failed (placement retries or
    /// physical space exhausted) and marks the request's completion status.
    pub fn note_write_failure(&mut self, _err: &FtlError, batch: &mut OpBatch) {
        self.stats.host_write_failures += 1;
        batch.status.escalate(ReqStatus::Failed);
    }

    /// Accounts a host read the device rejected outright and marks the
    /// request's completion status.
    pub fn note_read_failure(&mut self, _err: &FtlError, batch: &mut OpBatch) {
        self.stats.data_loss_events += 1;
        batch.status.escalate(ReqStatus::Failed);
    }

    /// Charges a read of `subpages` never-written subpages as if the data were
    /// resident in the MLC region since before the trace (no disturb history).
    fn charge_unmapped_read(
        &mut self,
        dev: &FlashDevice,
        req: &IoRequest,
        subpages: u32,
        batch: &mut OpBatch,
    ) {
        let cfg = dev.config();
        let bytes = subpages * cfg.geometry.subpage_size;
        let rber = cfg.ber.baseline_rber(cfg.initial_pe_cycles, CellMode::Mlc);
        let ecc = cfg.ecc.decode(bytes, rber);
        let latency =
            cfg.timing.read_ns(CellMode::Mlc) + cfg.timing.transfer_ns(bytes) + ecc.latency_ns;
        // Spread pre-trace data across chips deterministically by address.
        let chip = (req.first_lsn() % cfg.geometry.total_chips() as u64) as u32;
        batch.push(chip, FlashOpKind::UnmappedRead, latency);
        self.stats.unmapped_reads += 1;
        self.stats.host_read_rber_sum += rber * subpages as f64;
        self.stats.host_subpages_read += subpages as u64;
    }

    /// Advances pool bookkeeping to simulated time `now` (in-flight erases
    /// whose completion time has passed re-enter the free pools). The driver
    /// calls this at the top of every request.
    pub fn begin_request(&mut self, now: Nanos) {
        self.blocks.promote_ready(now);
    }

    /// Whether the SLC region wants GC: ready plus in-flight blocks below the
    /// *high* water mark (2× the trigger threshold — hysteresis keeps GC from
    /// oscillating on the bypass boundary).
    pub fn slc_gc_needed(&self) -> bool {
        self.blocks.slc_free_count() + self.blocks.slc_pending_count()
            < 2 * self.cfg.gc_threshold_blocks(self.blocks.slc_total())
    }

    /// Whether a new SLC GC round may start at `now` (the previous round has
    /// drained). GC rounds are serialized in time: replenishment is limited
    /// by real movement + erase latency, which is what lets sustained write
    /// pressure drain the ready pool and force the MLC bypass.
    pub fn slc_gc_gate_open(&self, now: Nanos) -> bool {
        now >= self.slc_gc_ready_at
    }

    /// Records the cost of a finished SLC GC round: the next round may start
    /// once this round's movement (parallelized over the chips) and its
    /// serialized erase complete.
    pub fn finish_slc_gc_round(&mut self, now: Nanos, round_cost: Nanos) {
        let movement = round_cost.saturating_sub(self.erase_ns);
        self.slc_gc_ready_at = now + self.erase_ns + movement / self.geometry.total_chips() as u64;
    }

    /// Same gate for the MLC region.
    pub fn mlc_gc_gate_open(&self, now: Nanos) -> bool {
        now >= self.mlc_gc_ready_at
    }

    fn finish_mlc_gc_round(&mut self, now: Nanos, round_cost: Nanos) {
        let movement = round_cost.saturating_sub(self.erase_ns);
        self.mlc_gc_ready_at = now + self.erase_ns + movement / self.geometry.total_chips() as u64;
    }

    /// Whether host writes should bypass the SLC cache right now: the *ready*
    /// pool has drained below the trigger threshold while erases are still in
    /// flight.
    pub fn slc_bypass_needed(&self) -> bool {
        self.blocks.slc_free_count() < self.cfg.gc_threshold_blocks(self.blocks.slc_total())
    }

    /// Hands out a page for a *host* write targeting `level`.
    ///
    /// When the SLC region's ready pool has drained (GC erases still in
    /// flight), host writes that would need a fresh SLC page are diverted
    /// straight to the MLC region — the standard hybrid-SSD bypass.
    /// Intra-page updates never come through here (they reuse an existing
    /// page), which is exactly how IPU keeps absorbing hot updates in the
    /// cache while Baseline/MGA writes spill to slow MLC programs (Figure 6).
    pub fn take_host_page(
        &mut self,
        dev: &mut FlashDevice,
        level: BlockLevel,
        batch: &mut OpBatch,
    ) -> Result<(Ppa, BlockLevel), FtlError> {
        if level.is_slc() && self.slc_bypass_needed() {
            self.take_page(dev, BlockLevel::HighDensity, batch)
        } else {
            self.take_page(dev, level, batch)
        }
    }

    /// Whether the MLC region's free pool is below the GC threshold.
    pub fn mlc_gc_needed(&self) -> bool {
        self.blocks.mlc_free_count() + self.blocks.mlc_pending_count()
            < self.cfg.gc_threshold_blocks(self.blocks.mlc_total())
    }

    /// Collects the valid data of a victim block into `out` (cleared first),
    /// grouped per page. Reusing a caller-owned buffer keeps GC rounds free
    /// of per-round heap allocation — [`Self::reclaim_block`] takes/puts
    /// back the core's `gc_groups` scratch around its relocation loop.
    fn collect_victim_groups_into(
        &self,
        dev: &FlashDevice,
        block_idx: u64,
        out: &mut Vec<PageGroup>,
    ) {
        out.clear();
        let block = dev.block_by_index(block_idx);
        let Some(meta) = self.meta.get(block_idx) else {
            return; // untracked block has no cache-resident data to move
        };
        for p in 0..block.page_count() {
            let page = block.page(p);
            let mut subs = [(0u8, 0 as Lsn); MAX_SUBPAGES_PER_PAGE];
            let mut subs_len = 0u8;
            for s in 0..page.subpage_count() {
                if page.subpage(s) == SubpageState::Valid {
                    let spa = Spa::new(meta.addr.page(p), s);
                    let lsn = self
                        .owners
                        .owner(block_idx, spa)
                        // ipu-lint: allow(panic-reachability) — owner/map agreement is the core FTL invariant (cross-checked by check_invariants); a valid subpage without an owner is unrecoverable corruption
                        .expect("valid subpage must have an owner");
                    subs[subs_len as usize] = (s, lsn);
                    subs_len += 1;
                }
            }
            if subs_len > 0 {
                out.push(PageGroup {
                    page: p,
                    updated: meta.page_updated(p),
                    subs_len,
                    subs,
                });
            }
        }
    }

    /// Allocating form of [`Self::collect_victim_groups_into`] (rare path:
    /// block retirement).
    fn collect_victim_groups(&self, dev: &FlashDevice, block_idx: u64) -> Vec<PageGroup> {
        let mut groups = Vec::new();
        self.collect_victim_groups_into(dev, block_idx, &mut groups);
        groups
    }

    /// Relocates one page group to `dest_level`: reads the valid subpages and
    /// programs them (compacted) into a fresh page at the destination.
    ///
    /// An error leaves the victim's remaining subpages valid and mapped —
    /// callers must abort the victim's erase, never tear down partially-moved
    /// data.
    fn relocate_group(
        &mut self,
        dev: &mut FlashDevice,
        victim_addr: BlockAddr,
        group: &PageGroup,
        dest_level: BlockLevel,
        now: Nanos,
        batch: &mut OpBatch,
    ) -> Result<(), FtlError> {
        // Read contiguous runs of the valid subpages.
        let page_ppa = victim_addr.page(group.page);
        let chip = self.chip_of(victim_addr);
        let subs = group.subs();
        let mut i = 0;
        while i < subs.len() {
            let run_start = subs[i].0;
            let mut len = 1u8;
            while i + (len as usize) < subs.len() && subs[i + len as usize].0 == run_start + len {
                len += 1;
            }
            let res = dev.read(Spa::new(page_ppa, run_start), len)?;
            batch.push(chip, FlashOpKind::GcRead, res.latency_ns);
            i += len as usize;
        }

        // Program compacted into the destination. Under pool pressure,
        // SLC-bound relocations shed straight to MLC: recycling scarce SLC
        // blocks for GC movement while host writes are bypassing would turn
        // the cache over on itself.
        let dest_level = if dest_level.is_slc() && self.slc_bypass_needed() {
            BlockLevel::HighDensity
        } else {
            dest_level
        };
        let mut lsns = [0 as Lsn; MAX_SUBPAGES_PER_PAGE];
        for (i, &(_, l)) in subs.iter().enumerate() {
            lsns[i] = l;
        }
        let lsns = &lsns[..subs.len()];
        let (dest_ppa, actual_level) = self.take_page(dev, dest_level, batch)?;
        self.program_group(dev, dest_ppa, 0, lsns, FlashOpKind::GcProgram, now, batch)?;

        self.stats.gc_moved_subpages += lsns.len() as u64;
        if !actual_level.is_slc() {
            self.stats.gc_evicted_subpages += lsns.len() as u64;
        }
        Ok(())
    }

    /// Reclaims in-use block `victim`, the move-and-erase half of every SLC
    /// GC, MLC GC and wear-leveling round: relocates each page of valid data
    /// to the level `dest` picks for it, then, if every page moved, records
    /// Figure 9 utilization for an SLC victim, erases it and schedules its
    /// return to the free pool for when the erase completes (`now` + erase
    /// latency). A failed relocation stops the round with the un-moved data
    /// still valid and mapped in place, and the victim is not erased.
    ///
    /// Returns the flash time of the ops the round pushed to `batch` when
    /// every page moved, `None` when one did not.
    pub(crate) fn reclaim_block(
        &mut self,
        dev: &mut FlashDevice,
        victim: u64,
        now: Nanos,
        batch: &mut OpBatch,
        dest: impl Fn(&PageGroup) -> BlockLevel,
    ) -> Option<Nanos> {
        let victim_addr = self.meta.get(victim)?.addr;
        let cost_before = batch.total_latency_sum();
        let mut groups = std::mem::take(&mut self.gc_groups);
        let groups_cap = groups.capacity();
        self.collect_victim_groups_into(dev, victim, &mut groups);
        let moved = groups.iter().all(|group| {
            self.relocate_group(dev, victim_addr, group, dest(group), now, batch)
                .is_ok()
        });
        if groups.capacity() != groups_cap {
            self.stats.scratch_grows += 1;
        }
        self.gc_groups = groups;
        if !moved {
            return None;
        }
        if self.meta.level(victim).is_some_and(|l| l.is_slc()) {
            let block = dev.block_by_index(victim);
            let total = block.total_subpages();
            let used = total - block.count_subpages(SubpageState::Free);
            self.stats.gc_victim_used_subpages += used as u64;
            self.stats.gc_victim_total_subpages += total as u64;
        }
        if let Some((addr, erase_ns)) = self.erase_block(dev, victim, batch) {
            self.blocks.release_at(addr, now + erase_ns);
            if self.wear_leveler.note_erase(&self.cfg.wear_leveling) {
                self.wl_check_due = true;
            }
        }
        Some(batch.total_latency_sum() - cost_before)
    }

    /// Closes in-use block `block_idx`, counts a GC run for its level and
    /// erases it back into its region's mode. Returns its address and the
    /// erase latency; the caller returns it to the free pool. `None` if the
    /// block is untracked, or if the erase failed: a failed pulse
    /// (`EraseFailed`) still occupied the chip and any other rejection
    /// issued none, and either way the block is retired instead of
    /// rejoining the pool — losing a block is recoverable, a panic is not.
    fn erase_block(
        &mut self,
        dev: &mut FlashDevice,
        block_idx: u64,
        batch: &mut OpBatch,
    ) -> Option<(BlockAddr, Nanos)> {
        let meta = self.meta.close_block(block_idx)?;
        self.victim_index.remove(block_idx);
        if meta.level.is_slc() {
            self.stats.gc_runs_slc += 1;
        } else {
            self.stats.gc_runs_mlc += 1;
        }
        let addr = meta.addr;
        let mode = if self.blocks.is_slc_region(addr) {
            CellMode::Slc
        } else {
            CellMode::Mlc
        };
        self.owners.clear_block(block_idx);
        self.oob.remove(&block_idx);
        let chip = self.chip_of(addr);
        match dev.try_erase(addr, mode) {
            Ok(res) => {
                batch.push(chip, FlashOpKind::Erase, res.latency_ns);
                Some((addr, res.latency_ns))
            }
            Err(e) => {
                if let FlashError::EraseFailed { latency_ns, .. } = e {
                    batch.push(chip, FlashOpKind::Erase, latency_ns);
                }
                self.bad_blocks.insert(block_idx);
                self.stats.retired_blocks += 1;
                self.blocks.retire(addr);
                None
            }
        }
    }

    /// Runs one static wear-leveling migration if a check is due and the
    /// wear gap in the SLC region exceeds the configured threshold: the data
    /// of the *least-worn* in-use block is relocated at its own level and the
    /// block (rich in remaining endurance) rejoins the free pool to absorb
    /// the hot write stream.
    pub fn run_wear_leveling_if_due(
        &mut self,
        dev: &mut FlashDevice,
        now: Nanos,
        batch: &mut OpBatch,
    ) {
        if !std::mem::take(&mut self.wl_check_due) {
            return;
        }
        let _span = ipu_obs::span(ipu_obs::Phase::Migration);
        // Least-worn in-use (non-active) SLC block.
        let mut coldest: Option<(u32, u64)> = None;
        for (i, m) in self.meta.slc_blocks() {
            if self.is_active(m.addr) {
                continue;
            }
            let pe = dev.wear().pe_cycles(i);
            if coldest.is_none_or(|(cpe, _)| pe < cpe) {
                coldest = Some((pe, i));
            }
        }
        let Some((min_pe, victim)) = coldest else {
            return;
        };
        // Most-worn block anywhere in the SLC region.
        let max_pe = self
            .blocks
            .slc_region_blocks()
            .iter()
            .map(|a| dev.wear().pe_cycles(self.geometry.block_index(*a)))
            .max()
            .unwrap_or(min_pe);
        if !WearLeveler::gap_exceeded(&self.cfg.wear_leveling, min_pe, max_pe) {
            return;
        }
        let Some(level) = self.meta.level(victim) else {
            return; // candidate scan raced with a close; skip this check
        };
        batch.begin_background_round(RoundOrigin::WearLevel);
        // A stalled move (space or media) abandons the migration unerased.
        if self
            .reclaim_block(dev, victim, now, batch, |_| level)
            .is_some()
        {
            self.stats.wear_leveling_migrations += 1;
            ipu_obs::event(ipu_obs::Phase::Migration, "wear_level_migration", victim);
        }
    }

    /// Exhaustively cross-checks logical and physical state; returns the
    /// first violation found. Intended for tests and debugging — it walks the
    /// whole device, so do not call it on a hot path.
    ///
    /// Checked invariants:
    /// 1. every mapped LSN points at a physically *valid* subpage,
    /// 2. the owner table agrees with the forward map in both directions,
    /// 3. every valid subpage on the device is owned by a mapped LSN,
    /// 4. per-block subpage accounting conserves (free + valid + invalid),
    /// 5. the device's cached per-block counters agree with a recount,
    /// 6. cache metadata mirrors device validity, its cached aggregates
    ///    (valid/J counts, valid and cold timestamp sums) match a
    ///    recomputation, and the victim index holds exactly the in-use SLC
    ///    blocks at their device invalid counts,
    /// 7. per-block active flags equal active-ring membership,
    /// 8. the metadata table's in-use count equals its occupied slots,
    /// 9. no mapped LSN lives in a retired block (retired blocks are in no
    ///    free pool and no victim index, so data there would never move).
    pub fn check_invariants(&self, dev: &FlashDevice) -> Result<(), String> {
        // 1, 2 (forward direction) & 9.
        for (lsn, spa) in self.map.iter() {
            let block = dev.block(spa.ppa.block_addr());
            if spa.ppa.page >= block.page_count() {
                return Err(format!("lsn {lsn} maps to out-of-range page {}", spa.ppa));
            }
            let state = block.page(spa.ppa.page).subpage(spa.subpage);
            if state != SubpageState::Valid {
                return Err(format!("lsn {lsn} maps to {state:?} subpage at {spa}"));
            }
            let bi = self.block_idx(spa.ppa.block_addr());
            if self.bad_blocks.contains(&bi) {
                return Err(format!("lsn {lsn} maps into retired block {bi} at {spa}"));
            }
            match self.owners.owner(bi, spa) {
                Some(owner) if owner == lsn => {}
                other => {
                    return Err(format!(
                        "owner table says {other:?} for {spa}, map says lsn {lsn}"
                    ))
                }
            }
        }
        // 3 & 4 (reverse direction + conservation).
        let mut device_valid = 0u64;
        for i in 0..self.geometry.total_blocks() {
            let block = dev.block_by_index(i);
            let total = block.total_subpages();
            let sum = block.count_subpages(SubpageState::Free)
                + block.count_subpages(SubpageState::Valid)
                + block.count_subpages(SubpageState::Invalid);
            if total != sum {
                return Err(format!(
                    "block {i}: subpage accounting {sum} != total {total}"
                ));
            }
            for p in 0..block.page_count() {
                let page = block.page(p);
                for sub in 0..page.subpage_count() {
                    if page.subpage(sub) == SubpageState::Valid {
                        device_valid += 1;
                        let addr = self.geometry.block_from_index(i);
                        let spa = Spa::new(addr.page(p), sub);
                        let Some(owner) = self.owners.owner(i, spa) else {
                            return Err(format!("valid subpage {spa} has no owner"));
                        };
                        if self.map.lookup(owner) != Some(spa) {
                            return Err(format!(
                                "valid subpage {spa} owned by lsn {owner}, which maps elsewhere"
                            ));
                        }
                    }
                }
            }
        }
        if device_valid != self.map.len() as u64 {
            return Err(format!(
                "device holds {device_valid} valid subpages but {} LSNs are mapped",
                self.map.len()
            ));
        }
        // 5: cached per-block counters agree with a recount.
        for i in 0..self.geometry.total_blocks() {
            if !dev.block_by_index(i).counters_consistent() {
                return Err(format!("block {i}: cached subpage counters diverged"));
            }
        }
        // 6: metadata validity mirrors the device, aggregates are consistent,
        // and the victim index tracks exactly the in-use SLC blocks with the
        // device's invalid-subpage count as its cached score.
        let mut indexed = 0usize;
        for (i, m) in self.meta.iter() {
            if !m.aggregates_consistent() {
                return Err(format!("block {i}: meta validity aggregates diverged"));
            }
            let block = dev.block_by_index(i);
            for p in 0..block.page_count() {
                let page = block.page(p);
                for s in 0..page.subpage_count() {
                    let on_device = page.subpage(s) == SubpageState::Valid;
                    if m.valid_at(p, s) != on_device {
                        return Err(format!(
                            "block {i} page {p} sub {s}: meta valid={} device valid={on_device}",
                            m.valid_at(p, s)
                        ));
                    }
                }
            }
            if m.level.is_slc() {
                indexed += 1;
                let expect = greedy_score(block, GcGranularity::Subpage);
                match self.victim_index.score_of(i) {
                    Some(score) if score as u64 == expect => {}
                    other => {
                        return Err(format!(
                            "block {i}: victim index score {other:?}, device says {expect}"
                        ))
                    }
                }
            } else if self.victim_index.contains(i) {
                return Err(format!("MLC block {i} is in the SLC victim index"));
            }
        }
        if self.victim_index.len() != indexed {
            return Err(format!(
                "victim index tracks {} blocks, {} SLC blocks in use",
                self.victim_index.len(),
                indexed
            ));
        }
        // 7: active flags mirror ring membership.
        let mut ring_members = 0usize;
        for a in self.actives.iter().flatten() {
            let i = self.block_idx(a.addr);
            if !self.meta.get(i).is_some_and(|m| m.is_active()) {
                return Err(format!(
                    "block {i} is in an active ring but not flagged active"
                ));
            }
            ring_members += 1;
        }
        let flagged = self.meta.iter().filter(|(_, m)| m.is_active()).count();
        if flagged != ring_members {
            return Err(format!(
                "{flagged} blocks flagged active, {ring_members} in active rings"
            ));
        }
        // 8: the dense metadata table's count matches its occupied slots.
        let occupied = self.meta.occupied_slots();
        if occupied != self.meta.len() {
            return Err(format!(
                "metadata table counts {} in-use blocks, {occupied} slots occupied",
                self.meta.len()
            ));
        }
        Ok(())
    }

    /// Runs MLC-region GC (greedy, subpage-granular compaction within MLC)
    /// until the region is back above threshold. MLC blocks accumulate
    /// invalid subpages as cached data gets re-written and re-evicted.
    pub fn run_mlc_gc_if_needed(&mut self, dev: &mut FlashDevice, now: Nanos, batch: &mut OpBatch) {
        let mut rounds = 0;
        while self.mlc_gc_needed() && self.mlc_gc_gate_open(now) && rounds < 8 {
            let _span = ipu_obs::span(ipu_obs::Phase::Gc);
            batch.begin_background_round(RoundOrigin::Gc);
            rounds += 1;
            let victim = {
                let cands = self
                    .meta
                    .mlc_blocks()
                    .filter(|(_, m)| !self.is_active(m.addr))
                    .map(|(i, m)| (i, dev.block_by_index(i), m.opened_seq()));
                select_greedy(cands, GcGranularity::Subpage)
            };
            // No victim, or a stalled move: stop until the next write.
            let Some(round_cost) = victim
                .and_then(|v| self.reclaim_block(dev, v, now, batch, |_| BlockLevel::HighDensity))
            else {
                break;
            };
            self.finish_mlc_gc_round(now, round_cost);
        }
    }

    /// Rebuilds all volatile FTL state from durable flash contents after a
    /// power loss: the mapping table, owner table and cache metadata are
    /// reconstructed from the per-block OOB shadow (level, open order, and
    /// per-subpage LSN tags), and the free pools are re-derived from which
    /// blocks hold data. The bad-block table is durable and survives as-is.
    ///
    /// Divergences from the pre-cut state, by design: active blocks are
    /// closed (their remaining free pages are not resumed — a real FTL
    /// re-opens fresh blocks), in-flight erases complete instantly (the
    /// device already erased them), and GC/wear-leveling pacing restarts.
    pub fn rebuild_from_flash(&mut self, dev: &FlashDevice) {
        self.map = MappingTable::new();
        self.owners = OwnerTable::new(&self.geometry);
        self.meta = CacheMeta::with_blocks(self.geometry.total_blocks());
        self.actives = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        self.rr = [0; 4];
        self.slc_gc_ready_at = 0;
        self.mlc_gc_ready_at = 0;
        self.wear_leveler = WearLeveler::new();
        self.wl_check_due = false;

        // Replay OOB records in open order so ISR GC's FIFO tie-breaking is
        // preserved across the power cycle.
        let oob = std::mem::take(&mut self.oob);
        let mut entries: Vec<(u64, BlockOob)> = oob.into_iter().collect();
        entries.sort_by_key(|&(idx, ref b)| (b.opened_seq, idx));
        let mut max_seq: Option<u64> = None;
        for (idx, blk) in &entries {
            let idx = *idx;
            let addr = self.geometry.block_from_index(idx);
            let block = dev.block_by_index(idx);
            let meta = self.meta.restore_block(
                idx,
                addr,
                blk.level,
                blk.opened_seq,
                block.page_count(),
                self.geometry.subpages_per_page(),
            );
            max_seq = Some(max_seq.map_or(blk.opened_seq, |m| m.max(blk.opened_seq)));
            // Ascending slot order is (page, subpage) order.
            for (page, sub, tag) in blk.iter_tags(self.geometry.subpages_per_page()) {
                meta.restore_program(page, sub, tag.written_ns, tag.follow_up);
                // Only *valid* subpages re-enter the map: the OOB tag of a
                // superseded subpage is stale by definition.
                if block.page(page).subpage(sub) == SubpageState::Valid {
                    let spa = Spa::new(addr.page(page), sub);
                    self.map.insert(tag.lsn, spa);
                    self.owners.set(idx, spa, tag.lsn);
                }
            }
        }
        self.meta.set_next_seq(max_seq.map_or(0, |m| m + 1));
        self.oob = entries.into_iter().collect();

        // Replay restored every OOB tag as a program, including superseded
        // subpages: reconcile the metadata's validity aggregates with the
        // device (which knows which subpages are actually invalid), then
        // rebuild the victim index from the device's invalid counts.
        self.victim_index.clear();
        let in_use: BTreeSet<u64> = self.meta.iter().map(|(i, _)| i).collect();
        for &idx in &in_use {
            let block = dev.block_by_index(idx);
            for p in 0..block.page_count() {
                let page = block.page(p);
                for s in 0..page.subpage_count() {
                    if page.subpage(s) == SubpageState::Invalid {
                        if let Some(m) = self.meta.get_mut(idx) {
                            m.note_invalidate(p, s);
                        }
                    }
                }
            }
            if self.meta.level(idx).is_some_and(|l| l.is_slc()) {
                let seq = self.meta.get(idx).map_or(0, |m| m.opened_seq());
                let score = greedy_score(block, GcGranularity::Subpage) as u32;
                self.victim_index.insert(idx, seq, score);
            }
        }
        self.blocks.rebuild_free(&self.bad_blocks, &in_use);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipu_flash::DeviceConfig;
    use ipu_trace::OpKind;

    fn core_and_dev() -> (FtlCore, FlashDevice) {
        let mut dev = FlashDevice::new(DeviceConfig::small_for_tests());
        let core = FtlCore::new(&mut dev, FtlConfig::default());
        (core, dev)
    }

    #[test]
    fn new_core_formats_slc_region() {
        let (core, dev) = core_and_dev();
        let mut slc = 0;
        for i in 0..dev.config().geometry.total_blocks() {
            if dev.block_by_index(i).mode() == CellMode::Slc {
                slc += 1;
            }
        }
        assert_eq!(slc, core.blocks.slc_total());
        assert_eq!(slc, 2);
    }

    #[test]
    fn chunks_split_on_page_boundaries() {
        let (core, _) = core_and_dev();
        // 64 KB at offset 0: 16 subpages → 4 chunks of 4.
        let big = IoRequest::new(0, OpKind::Write, 0, 65536);
        let chunks: Vec<(Lsn, u8)> = core.chunk_spans(&big).collect();
        assert_eq!(chunks, vec![(0, 4), (4, 4), (8, 4), (12, 4)]);

        // 8 KB straddling a page boundary: subpages 3 and 4 → two chunks.
        let straddle = IoRequest::new(0, OpKind::Write, 3 * 4096, 8192);
        let chunks: Vec<(Lsn, u8)> = core.chunk_spans(&straddle).collect();
        assert_eq!(chunks, vec![(3, 1), (4, 1)]);
    }

    #[test]
    fn take_page_allocates_sequentially_then_new_block() {
        let (mut core, mut dev) = core_and_dev();
        let mut tb = OpBatch::new();
        let (p0, l0) = core.take_page(&mut dev, BlockLevel::Work, &mut tb).unwrap();
        let (p1, _) = core.take_page(&mut dev, BlockLevel::Work, &mut tb).unwrap();
        assert_eq!(l0, BlockLevel::Work);
        assert_eq!(p0.block_addr(), p1.block_addr());
        assert_eq!(p0.page, 0);
        assert_eq!(p1.page, 1);

        // Exhaust the 4-page SLC block; the next page comes from a new block.
        core.take_page(&mut dev, BlockLevel::Work, &mut tb).unwrap();
        core.take_page(&mut dev, BlockLevel::Work, &mut tb).unwrap();
        let (p4, l4) = core.take_page(&mut dev, BlockLevel::Work, &mut tb).unwrap();
        assert_ne!(p4.block_addr(), p0.block_addr());
        assert_eq!(l4, BlockLevel::Work);
        assert_eq!(core.blocks.slc_free_count(), 0);
    }

    #[test]
    fn take_page_falls_back_to_mlc_when_slc_exhausted() {
        let (mut core, mut dev) = core_and_dev();
        let mut tb = OpBatch::new();
        // Drain both SLC blocks (2 blocks × 4 pages).
        for _ in 0..8 {
            let (_, l) = core.take_page(&mut dev, BlockLevel::Work, &mut tb).unwrap();
            assert_eq!(l, BlockLevel::Work);
        }
        let (ppa, l) = core.take_page(&mut dev, BlockLevel::Work, &mut tb).unwrap();
        assert_eq!(l, BlockLevel::HighDensity);
        assert!(!core.blocks.is_slc_region(ppa.block_addr()));
    }

    #[test]
    fn hot_level_falls_back_through_lower_levels() {
        let (mut core, mut dev) = core_and_dev();
        let mut tb = OpBatch::new();
        // One SLC block to Hot; one to Work; Hot's block fills, then the next
        // Hot request must land in Work's open block before going to MLC.
        for _ in 0..4 {
            assert_eq!(
                core.take_page(&mut dev, BlockLevel::Hot, &mut tb)
                    .unwrap()
                    .1,
                BlockLevel::Hot
            );
        }
        assert_eq!(
            core.take_page(&mut dev, BlockLevel::Work, &mut tb)
                .unwrap()
                .1,
            BlockLevel::Work
        );
        // Hot is full and no free SLC blocks remain; falls back to Work.
        assert_eq!(
            core.take_page(&mut dev, BlockLevel::Hot, &mut tb)
                .unwrap()
                .1,
            BlockLevel::Work
        );
    }

    #[test]
    fn program_group_maintains_map_and_owners() {
        let (mut core, mut dev) = core_and_dev();
        let mut tb = OpBatch::new();
        let mut batch = OpBatch::new();
        let (ppa, _) = core.take_page(&mut dev, BlockLevel::Work, &mut tb).unwrap();
        core.program_group(
            &mut dev,
            ppa,
            0,
            &[10, 11],
            FlashOpKind::HostProgram,
            5,
            &mut batch,
        )
        .unwrap();

        assert_eq!(core.map.lookup(10), Some(Spa::new(ppa, 0)));
        assert_eq!(core.map.lookup(11), Some(Spa::new(ppa, 1)));
        let bi = core.block_idx(ppa.block_addr());
        assert_eq!(core.owners.owner(bi, Spa::new(ppa, 0)), Some(10));
        assert_eq!(core.stats.host_subpages_to_slc, 2);
        assert_eq!(batch.ops.len(), 1);
        assert_eq!(batch.ops[0].kind, FlashOpKind::HostProgram);

        // Re-write lsn 10: old location invalidated, owners updated.
        let (ppa2, _) = core.take_page(&mut dev, BlockLevel::Work, &mut tb).unwrap();
        core.program_group(
            &mut dev,
            ppa2,
            0,
            &[10],
            FlashOpKind::HostProgram,
            6,
            &mut batch,
        )
        .unwrap();
        assert_eq!(core.map.lookup(10), Some(Spa::new(ppa2, 0)));
        assert!(core.owners.owner(bi, Spa::new(ppa, 0)).is_none());
        assert_eq!(
            dev.block(ppa.block_addr()).page(ppa.page).subpage(0),
            SubpageState::Invalid
        );
    }

    /// One programmed Work page; returns its block index.
    fn core_with_one_write() -> (FtlCore, FlashDevice, u64) {
        let (mut core, mut dev) = core_and_dev();
        let mut batch = OpBatch::new();
        let (ppa, _) = core
            .take_page(&mut dev, BlockLevel::Work, &mut batch)
            .unwrap();
        core.program_group(
            &mut dev,
            ppa,
            0,
            &[0, 1],
            FlashOpKind::HostProgram,
            7,
            &mut batch,
        )
        .unwrap();
        assert_eq!(core.check_invariants(&dev), Ok(()));
        let idx = core.block_idx(ppa.block_addr());
        (core, dev, idx)
    }

    #[test]
    fn invariants_catch_a_skewed_cold_timestamp_sum() {
        let (mut core, dev, idx) = core_with_one_write();
        core.meta.get_mut(idx).unwrap().skew_sum_written_cold(1);
        let err = core.check_invariants(&dev).unwrap_err();
        assert!(err.contains("aggregates diverged"), "{err}");
    }

    #[test]
    fn invariants_catch_active_flags_that_disagree_with_the_rings() {
        let (mut core, dev, idx) = core_with_one_write();
        // An active-ring member that lost its flag.
        core.meta.get_mut(idx).unwrap().set_active(false);
        let err = core.check_invariants(&dev).unwrap_err();
        assert!(err.contains("not flagged active"), "{err}");

        // A flagged block that is in no ring.
        core.meta.get_mut(idx).unwrap().set_active(true);
        let g = core.geometry().clone();
        let other = core.blocks.allocate_mlc().unwrap();
        let other_idx = g.block_index(other);
        core.meta.open_block(
            other_idx,
            other,
            BlockLevel::HighDensity,
            g.pages_per_block_mlc,
            g.subpages_per_page(),
        );
        assert_eq!(core.check_invariants(&dev), Ok(()));
        core.meta.get_mut(other_idx).unwrap().set_active(true);
        let err = core.check_invariants(&dev).unwrap_err();
        assert!(
            err.contains("2 blocks flagged active, 1 in active rings"),
            "{err}"
        );
    }

    #[test]
    fn invariants_catch_a_miscounted_metadata_table() {
        let (mut core, dev, _) = core_with_one_write();
        core.meta.skew_len();
        let err = core.check_invariants(&dev).unwrap_err();
        assert!(err.contains("metadata table counts"), "{err}");
    }

    #[test]
    fn host_read_merges_contiguous_runs() {
        let (mut core, mut dev) = core_and_dev();
        let mut tb = OpBatch::new();
        let mut batch = OpBatch::new();
        let (ppa, _) = core.take_page(&mut dev, BlockLevel::Work, &mut tb).unwrap();
        core.program_group(
            &mut dev,
            ppa,
            0,
            &[0, 1, 2, 3],
            FlashOpKind::HostProgram,
            0,
            &mut batch,
        )
        .unwrap();

        let mut rbatch = OpBatch::new();
        let req = IoRequest::new(1, OpKind::Read, 0, 16384);
        core.host_read(&req, &mut dev, &mut rbatch).unwrap();
        // All four subpages contiguous in one page → exactly one read op.
        assert_eq!(rbatch.count(FlashOpKind::HostRead), 1);
        assert_eq!(core.stats.host_subpages_read, 4);
        assert!(core.stats.host_read_rber_sum > 0.0);
    }

    #[test]
    fn unmapped_reads_are_charged_as_mlc() {
        let (mut core, mut dev) = core_and_dev();
        let mut batch = OpBatch::new();
        let req = IoRequest::new(0, OpKind::Read, 1 << 20, 8192);
        core.host_read(&req, &mut dev, &mut batch).unwrap();
        assert_eq!(batch.count(FlashOpKind::UnmappedRead), 1);
        assert_eq!(core.stats.unmapped_reads, 1);
        assert_eq!(core.stats.host_subpages_read, 2);
        // Costs at least the MLC cell read.
        assert!(batch.ops[0].latency_ns >= dev.config().timing.read_ns(CellMode::Mlc));
    }

    #[test]
    fn gc_cycle_relocates_and_erases() {
        let (mut core, mut dev) = core_and_dev();
        let mut tb = OpBatch::new();
        let mut batch = OpBatch::new();

        // Fill one Work block with two pages: one fully valid, one half stale.
        let (p0, _) = core.take_page(&mut dev, BlockLevel::Work, &mut tb).unwrap();
        core.program_group(
            &mut dev,
            p0,
            0,
            &[0, 1, 2, 3],
            FlashOpKind::HostProgram,
            1,
            &mut batch,
        )
        .unwrap();
        let (p1, _) = core.take_page(&mut dev, BlockLevel::Work, &mut tb).unwrap();
        core.program_group(
            &mut dev,
            p1,
            0,
            &[8, 9],
            FlashOpKind::HostProgram,
            2,
            &mut batch,
        )
        .unwrap();
        // Supersede lsn 8 elsewhere → p1 keeps one valid subpage.
        let (p2, _) = core.take_page(&mut dev, BlockLevel::Work, &mut tb).unwrap();
        core.program_group(
            &mut dev,
            p2,
            0,
            &[8],
            FlashOpKind::HostProgram,
            3,
            &mut batch,
        )
        .unwrap();

        let victim_idx = core.block_idx(p0.block_addr());
        let groups = core.collect_victim_groups(&dev, victim_idx);
        assert_eq!(groups.len(), 3); // pages 0,1,2 all hold valid data
        let total_valid: usize = groups.iter().map(|g| g.subs().len()).sum();
        assert_eq!(total_valid, 4 + 1 + 1);

        // Relocate everything to MLC and erase.
        let cost = core
            .reclaim_block(&mut dev, victim_idx, 10, &mut batch, |_| {
                BlockLevel::HighDensity
            })
            .expect("every page moves");
        assert!(cost >= dev.config().timing.erase_ns());

        // Mapping intact: every LSN still resolves, now in MLC.
        for lsn in [0u64, 1, 2, 3, 8, 9] {
            let spa = core.map.lookup(lsn).unwrap();
            assert!(
                !core.blocks.is_slc_region(spa.ppa.block_addr()),
                "lsn {lsn} still in SLC"
            );
        }
        assert_eq!(core.stats.gc_moved_subpages, 6);
        assert_eq!(core.stats.gc_evicted_subpages, 6);
        assert_eq!(core.stats.gc_runs_slc, 1);
        // Fig. 9 accounting: used counts *programmed* subpages (valid +
        // invalid) over the victim's three pages, 4 + 2 + 1 = 7.
        assert_eq!(core.stats.gc_victim_used_subpages, 7);
        assert_eq!(core.stats.gc_victim_total_subpages, 16);
        // Only one SLC block was ever allocated (p0..p2 share it). The erase
        // stays in flight until its latency elapses; once promoted, both
        // region blocks are free again.
        assert_eq!(core.blocks.slc_free_count(), 1);
        assert_eq!(core.blocks.slc_pending_count(), 1);
        core.begin_request(10 + dev.config().timing.erase_ns());
        assert_eq!(core.blocks.slc_free_count(), 2);
        assert_eq!(core.blocks.slc_pending_count(), 0);
        assert_eq!(batch.count(FlashOpKind::Erase), 1);
    }

    #[test]
    fn emergency_reclaim_erases_a_fully_invalid_block() {
        let (mut core, mut dev) = core_and_dev();
        let mut batch = OpBatch::new();
        // Fill one SLC block, then supersede every LSN it holds in MLC.
        let mut victim = None;
        for p in 0..4u64 {
            let (ppa, _) = core
                .take_page(&mut dev, BlockLevel::Work, &mut batch)
                .unwrap();
            victim = Some(ppa.block_addr());
            let lsns = [4 * p, 4 * p + 1, 4 * p + 2, 4 * p + 3];
            core.program_group(
                &mut dev,
                ppa,
                0,
                &lsns,
                FlashOpKind::HostProgram,
                1,
                &mut batch,
            )
            .unwrap();
        }
        let victim = victim.unwrap();
        for p in 0..4u64 {
            let (ppa, _) = core
                .take_page(&mut dev, BlockLevel::HighDensity, &mut batch)
                .unwrap();
            let lsns = [4 * p, 4 * p + 1, 4 * p + 2, 4 * p + 3];
            core.program_group(
                &mut dev,
                ppa,
                0,
                &lsns,
                FlashOpKind::HostProgram,
                2,
                &mut batch,
            )
            .unwrap();
        }
        assert_eq!(
            dev.block(victim).count_subpages(SubpageState::Valid),
            0,
            "every LSN of the victim must be superseded"
        );
        // Hand out every remaining page without reclaiming anything.
        while core.try_take_chain(BlockLevel::Work).is_some() {}
        let erases = batch.count(FlashOpKind::Erase);
        let gc_runs = core.stats.gc_runs_slc;

        // The next page can only come from reclaiming the invalid block.
        let (ppa, level) = core
            .take_page(&mut dev, BlockLevel::Work, &mut batch)
            .unwrap();
        assert_eq!(ppa.block_addr(), victim);
        assert_eq!(level, BlockLevel::Work);
        assert_eq!(batch.count(FlashOpKind::Erase), erases + 1);
        assert_eq!(core.stats.gc_runs_slc, gc_runs + 1);
        assert_eq!(core.check_invariants(&dev), Ok(()));
    }
}
