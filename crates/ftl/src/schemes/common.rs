//! Shared FTL machinery: active blocks, chunking, programming, the host read
//! path, victim selection, the move-and-erase cycle every reclaim runs, MLC
//! GC, wear-leveling and power-loss rebuild. The scheme driver (`SchemeFtl`)
//! decides only where writes land, which victim policy GC uses and where GC
//! moves data; everything else lives here.

use std::collections::BTreeSet;

use ipu_flash::{
    BlockAddr, CellMode, FlashDevice, FlashError, FlashGeometry, Nanos, Ppa, RetryLadder, Spa,
    SubpageState, MAX_SUBPAGES_PER_PAGE,
};
use ipu_trace::IoRequest;

use crate::block_mgr::BlockManager;
use crate::cache_meta::{BlockMeta, CacheMeta};
use crate::config::FtlConfig;
use crate::error::FtlError;
use crate::gc::{isr_jensen_bound, isr_score_fast, select_greedy, select_isr};
use crate::mapping::MappingTable;
use crate::ops::{FlashOpKind, OpBatch, ReqStatus, RoundOrigin};
use crate::stats::FtlStats;
use crate::types::{BlockLevel, Lsn};
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
/// page's out-of-band (spare) area alongside the data: 16 bytes. Power-loss
/// recovery rebuilds the mapping table and cache metadata from these, and
/// GC and the ISR scorers read a subpage's owner and write time from them.
///
/// The follow-up flag (the program was the second or later on its page: the
/// durable form of the intra-page-update flag) rides in the LSN's top bit,
/// which no LSN sets, since an LSN is a byte offset divided by 4096. A write
/// time of 0 marks a slot not programmed this erase cycle; a program stamps
/// at least 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubTag {
    lsn_and_flag: u64,
    written_ns: Nanos,
}

const _: () = assert!(std::mem::size_of::<SubTag>() == 16);

impl SubTag {
    /// The LSN bit that holds the follow-up flag.
    const FOLLOW_UP: u64 = 1 << 63;

    /// The tag of a subpage programmed at `written_ns` (at least 1) with
    /// `lsn`. Panics if `lsn` reaches the flag bit or the time is 0.
    pub fn new(lsn: Lsn, written_ns: Nanos, follow_up: bool) -> Self {
        assert!(
            lsn < Self::FOLLOW_UP,
            "lsn {lsn} overlaps the follow-up flag"
        );
        assert!(
            written_ns > 0,
            "a write time of 0 marks an unprogrammed slot"
        );
        let flag = if follow_up { Self::FOLLOW_UP } else { 0 };
        SubTag {
            lsn_and_flag: lsn | flag,
            written_ns,
        }
    }

    /// Whether the slot was programmed this erase cycle.
    #[inline]
    pub fn is_programmed(self) -> bool {
        self.written_ns != 0
    }

    /// LSN the slot was programmed with, if it was.
    #[inline]
    pub fn lsn(self) -> Option<Lsn> {
        self.is_programmed()
            .then_some(self.lsn_and_flag & !Self::FOLLOW_UP)
    }

    /// Write time (0 = never programmed).
    #[inline]
    pub fn written_ns(self) -> Nanos {
        self.written_ns
    }

    /// Whether the program was a follow-up (second or later) on its page.
    #[inline]
    pub fn follow_up(self) -> bool {
        self.lsn_and_flag & Self::FOLLOW_UP != 0
    }
}

/// Durable per-block shadow: level label, open order and the OOB tags of
/// every subpage programmed in the current erase cycle. Erase drops the
/// entry (OOB is erased with the data); retirement drops it too. The tag of
/// a subpage the device holds `Valid` names its owner, the LSN the forward
/// map sends there, so GC reads a victim's owners from its tags the way a
/// page-mapping FTL reads them from the spare area.
#[derive(Debug, Clone)]
struct BlockOob {
    level: BlockLevel,
    opened_seq: u64,
    /// Tag per page-major subpage slot. Ascending slot order is (page,
    /// subpage) order, so power-loss replay walks tags in program-layout
    /// order without an explicit sort, and the write path records a tag
    /// with one indexed store instead of a tree insert. Sized at the block's
    /// first program for its page count in its current mode, which changes
    /// only at erase, when the entry is dropped.
    tags: Vec<SubTag>,
}

/// Tag array of block `block_idx` in the OOB shadow `oob` (empty when
/// nothing was programmed there since its last erase). A free function so
/// callers can hold it beside a mutable borrow of the metadata.
#[inline]
fn block_tags(oob: &[Option<BlockOob>], block_idx: u64) -> &[SubTag] {
    match oob.get(block_idx as usize) {
        Some(Some(b)) => &b.tags,
        _ => &[],
    }
}

/// Shared FTL state and mechanics.
#[derive(Debug)]
pub struct FtlCore {
    pub cfg: FtlConfig,
    pub map: MappingTable,
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
    /// Durable OOB shadow, indexed by dense block index; `None` for a block
    /// with nothing programmed since its last erase (see [`BlockOob`]).
    oob: Vec<Option<BlockOob>>,
    /// Reusable read-run merge buffer: `host_read` takes it, fills it, and
    /// puts it back, so steady-state reads allocate nothing.
    read_runs: Vec<(Spa, u8)>,
    /// Reusable page-group buffer that [`Self::reclaim_block`] takes and
    /// puts back, so GC and wear-leveling rounds allocate nothing.
    gc_groups: Vec<PageGroup>,
    /// Reusable (upper bound, opened_seq, idx) candidate list for ISR victim
    /// selection, so steady-state GC allocates nothing.
    isr_scratch: Vec<(f64, u64, u64)>,
    /// Whether an emergency-reclaim candidate (an in-use, non-active,
    /// programmed block with no valid subpage) may exist. Only an
    /// invalidation, a ring clear or the power-loss rebuild can create one,
    /// and each sets the flag; a scan that finds none clears it, so a stall
    /// with nothing changed since skips the walk.
    reclaim_candidates: bool,
    /// Emergency-reclaim walks of the metadata table, for tests.
    #[cfg(test)]
    reclaim_scans: u64,
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
            blocks,
            meta: CacheMeta::with_blocks(geometry.total_blocks()),
            oob: vec![None; geometry.total_blocks() as usize],
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
            read_runs: Vec::new(),
            gc_groups: Vec::new(),
            isr_scratch: Vec::new(),
            // A new core has no in-use block.
            reclaim_candidates: false,
            #[cfg(test)]
            reclaim_scans: 0,
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
        if let Some(m) = self.meta.get_mut(idx) {
            m.set_active(true);
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
        self.reclaim_candidates = true;
        for a in &self.actives[li] {
            if let Some(m) = self.meta.get_mut(self.geometry.block_index(a.addr)) {
                m.set_active(false);
            }
        }
        self.actives[li].clear();
    }

    /// Owner of subpage `spa` of block `block_idx`: the LSN its OOB tag
    /// names, while the device holds the subpage `Valid`. A free or
    /// superseded subpage has no owner.
    pub fn owner(&self, dev: &FlashDevice, block_idx: u64, spa: Spa) -> Option<Lsn> {
        let block = dev.block_by_index(block_idx);
        let (p, s) = (spa.ppa.page, spa.subpage);
        let page = (p < block.page_count()).then(|| block.page(p))?;
        if s >= page.subpage_count() || page.subpage(s) != SubpageState::Valid {
            return None;
        }
        let slot = (p * self.geometry.subpages_per_page() + s as u32) as usize;
        self.tags(block_idx).get(slot)?.lsn()
    }

    /// OOB tags of block `block_idx`, one per page-major subpage slot; empty
    /// when nothing was programmed there since its last erase.
    #[inline]
    pub fn tags(&self, block_idx: u64) -> &[SubTag] {
        block_tags(&self.oob, block_idx)
    }

    /// Bytes the OOB shadow holds: its per-block entries and every block's
    /// tag array (allocated capacity).
    pub fn oob_bytes(&self) -> usize {
        self.oob.capacity() * std::mem::size_of::<Option<BlockOob>>()
            + self
                .oob
                .iter()
                .flatten()
                .map(|b| b.tags.capacity() * std::mem::size_of::<SubTag>())
                .sum::<usize>()
    }

    /// Drops a block's OOB shadow: an erase clears the spare area with the
    /// data, and a retired block holds nothing recovery should replay.
    fn drop_oob(&mut self, block_idx: u64) {
        if let Some(entry) = self.oob.get_mut(block_idx as usize) {
            *entry = None;
        }
    }

    /// Records a subpage invalidation in the cache metadata (incremental ISR
    /// aggregates). Must be called after every successful `dev.invalidate`,
    /// and only then, so the aggregates follow the device's validity state.
    fn note_invalidated(&mut self, block_idx: u64, spa: Spa) {
        self.reclaim_candidates = true;
        if let Some(m) = self.meta.get_mut(block_idx) {
            m.note_invalidate(spa.ppa.page, spa.subpage, block_tags(&self.oob, block_idx));
        }
    }

    /// Greedy SLC GC victim: one pass over the metadata's SLC list, scoring
    /// each non-active block by the invalid-subpage count the device caches,
    /// ties toward the oldest `opened_seq`. Selects exactly the block the
    /// ascending-index scan ([`Self::oracle_slc_victim_greedy`]) would: open
    /// sequence numbers are unique, so (score, −opened_seq) is a total order
    /// and its maximum does not depend on visit order.
    pub fn select_slc_victim_greedy(&self, dev: &FlashDevice) -> Option<u64> {
        let cands = self.meta.slc_entries().iter().filter_map(|&(seq, idx)| {
            let m = self.meta.get(idx)?;
            (!m.is_active()).then(|| (idx, dev.block_by_index(idx), seq))
        });
        select_greedy(cands)
    }

    /// ISR SLC GC victim (paper Equations 1–2), in one pass over the
    /// metadata's SLC list with no sort. Every non-active candidate gets its
    /// O(1) [`isr_jensen_bound`]; the candidate with the highest bound is
    /// scored exactly with the incremental evaluator, and any other
    /// candidate only if its bound + 1e-9 reaches the running best. Selects exactly the block the full linear scan
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
        for &(seq, idx) in self.meta.slc_entries() {
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
            let s = isr_score_fast(dev.block_by_index(idx), m, self.tags(idx), now);
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

    /// Reference greedy victim selection: a scan of the whole metadata table
    /// in ascending index order. Kept as the oracle for equivalence tests.
    pub fn oracle_slc_victim_greedy(&self, dev: &FlashDevice) -> Option<u64> {
        let cands = self
            .meta
            .slc_blocks()
            .filter(|(_, m)| !self.is_active(m.addr))
            .map(|(i, m)| (i, dev.block_by_index(i), m.opened_seq()));
        select_greedy(cands)
    }

    /// Reference ISR victim selection (full recomputation linear scan). Kept
    /// as the oracle for equivalence tests.
    pub fn oracle_slc_victim_isr(&self, dev: &FlashDevice, now: Nanos) -> Option<u64> {
        let cands = self
            .meta
            .slc_blocks()
            .filter(|(_, m)| !self.is_active(m.addr))
            .map(|(i, m)| (i, dev.block_by_index(i), self.tags(i), m.opened_seq()));
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
    /// SLC level, then the MLC region (`Work` demotes to `HighDensity`).
    fn try_take_chain(&mut self, level: BlockLevel) -> Option<(Ppa, BlockLevel)> {
        let mut l = level;
        loop {
            if let Some(ppa) = self.try_take_at_level(l) {
                return Some((ppa, l));
            }
            if l == BlockLevel::HighDensity {
                return None;
            }
            l = l.demoted();
        }
    }

    /// Erases fully-invalid non-active blocks immediately (no valid data to
    /// move), returning how many blocks were reclaimed. This is the
    /// emergency path taken when an allocation stalls: the host is already
    /// blocked on the device, so the usual GC pacing gate does not apply and
    /// the blocks re-enter the pool at once. The walk of every in-use block
    /// is skipped while no candidate can have appeared since the last one
    /// that found none (`reclaim_candidates`).
    fn emergency_reclaim(&mut self, dev: &mut FlashDevice, batch: &mut OpBatch) -> u32 {
        // The host is blocked on this reclaim, but the erase pulses still run
        // on the background channel: give them their own round tag.
        batch.begin_background_round(RoundOrigin::Gc);
        if !self.reclaim_candidates {
            return 0;
        }
        #[cfg(test)]
        {
            self.reclaim_scans += 1;
        }
        let victims: Vec<u64> = self
            .meta
            .iter()
            .filter(|&(i, m)| Self::reclaimable(dev, i, m))
            .map(|(i, _)| i)
            .take(8)
            .collect();
        self.reclaim_candidates = !victims.is_empty();
        let mut reclaimed = 0;
        for v in victims {
            if let Some((addr, _)) = self.erase_block(dev, v, batch) {
                self.blocks.release(addr);
                reclaimed += 1;
            }
        }
        reclaimed
    }

    /// Whether in-use block `i` (metadata `m`) is an emergency-reclaim
    /// candidate: in no active ring, programmed, and holding no valid
    /// subpage, so it can be erased with nothing to move.
    fn reclaimable(dev: &FlashDevice, i: u64, m: &BlockMeta) -> bool {
        let b = dev.block_by_index(i);
        !m.is_active() && b.count_subpages(SubpageState::Valid) == 0 && !b.is_pristine()
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

    /// Programs `lsns` into `ppa` starting at subpage `start`, writing each
    /// subpage's OOB tag and maintaining the map, metadata and statistics,
    /// and recording the operation.
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
                    // page's spare area, read back by GC, the ISR scorers
                    // and power-loss recovery.
                    let spp = self.geometry.subpages_per_page();
                    let meta = &self.meta;
                    let device = &*dev;
                    if let Some(entry) = self.oob.get_mut(block_idx as usize) {
                        let oob = entry.get_or_insert_with(|| {
                            let (level, opened_seq) = meta
                                .get(block_idx)
                                .map(|m| (m.level(), m.opened_seq()))
                                .unwrap_or((BlockLevel::HighDensity, 0));
                            let pages = device.block_by_index(block_idx).page_count();
                            BlockOob {
                                level,
                                opened_seq,
                                tags: vec![SubTag::default(); (pages * spp) as usize],
                            }
                        });
                        let base = (ppa.page * spp + start as u32) as usize;
                        for (i, &lsn) in lsns.iter().enumerate() {
                            if let Some(slot) = oob.tags.get_mut(base + i) {
                                *slot = SubTag::new(lsn, now.max(1), follow_up);
                            }
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
                            self.note_invalidated(old_idx, old);
                        }
                    }

                    if let Some(meta) = self.meta.get_mut(block_idx) {
                        let tags = block_tags(&self.oob, block_idx);
                        meta.note_program(ppa.page, start, lsns.len() as u8, now, follow_up, tags);
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
        let level = meta.level();
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
                    if dev.invalidate(spa).is_ok() {
                        self.note_invalidated(block_idx, spa);
                    }
                    self.stats.data_loss_events += 1;
                }
            }
        }
        self.meta.close_block(block_idx);
        self.drop_oob(block_idx);
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
        if self.meta.get(block_idx).is_none() {
            return; // untracked block has no cache-resident data to move
        }
        let block = dev.block_by_index(block_idx);
        let tags = self.tags(block_idx);
        let spp = self.geometry.subpages_per_page() as usize;
        for p in 0..block.page_count() {
            let page = block.page(p);
            let mut subs = [(0u8, 0 as Lsn); MAX_SUBPAGES_PER_PAGE];
            let mut subs_len = 0u8;
            for s in 0..page.subpage_count() {
                if page.subpage(s) == SubpageState::Valid {
                    let lsn = tags
                        .get(p as usize * spp + s as usize)
                        .and_then(|t| t.lsn())
                        // ipu-lint: allow(panic-reachability) — every program writes its subpages' OOB tags and only erase or retirement drops them, so a valid subpage without a tag is unrecoverable corruption (cross-checked by check_invariants)
                        .expect("valid subpage must have an OOB tag");
                    subs[subs_len as usize] = (s, lsn);
                    subs_len += 1;
                }
            }
            if subs_len > 0 {
                out.push(PageGroup {
                    page: p,
                    // Any program after a page's first is an update.
                    updated: page.program_ops() >= 2,
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
        if meta.level().is_slc() {
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
        self.drop_oob(block_idx);
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
    /// 2. the OOB tags agree with the forward map in both directions: each
    ///    mapped LSN's subpage is tagged with that LSN, and each valid
    ///    subpage's tag names an LSN the map sends back to it,
    /// 3. every valid subpage on the device is owned by a mapped LSN,
    /// 4. per-block subpage accounting conserves (free + valid + invalid),
    /// 5. the device's cached per-block counters agree with a recount,
    /// 6. each in-use block's cached ISR aggregates (valid and J counts,
    ///    valid and cold time sums, cold mask, newest write time) match a
    ///    recount from the device and the block's OOB tags, a subpage
    ///    carries a tag iff the device holds it programmed, a page carries
    ///    a follow-up tag iff it took a second program, and the metadata's
    ///    SLC list, which GC victim selection walks, holds each in-use SLC
    ///    block exactly once, at the position and open order the block's
    ///    metadata stores,
    /// 7. per-block active flags equal active-ring membership,
    /// 8. the metadata table's in-use count equals its occupied slots,
    /// 9. no mapped LSN lives in a retired block (retired blocks are in no
    ///    free pool and not in the SLC list, so data there would never
    ///    move),
    /// 10. while `reclaim_candidates` is clear, no in-use block is an
    ///     emergency-reclaim candidate (a missed set would turn a stalled
    ///     allocation into a spurious `OutOfSpace`).
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
            match self.owner(dev, bi, spa) {
                Some(owner) if owner == lsn => {}
                other => {
                    return Err(format!(
                        "OOB tag names lsn {other:?} at {spa}, map says lsn {lsn}"
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
                        let Some(owner) = self.owner(dev, i, spa) else {
                            return Err(format!("valid subpage {spa} has no OOB tag"));
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
        // 6: the aggregates match a recount, the tags agree with the
        // device, and the SLC list holds exactly the in-use SLC blocks.
        let spp = self.geometry.subpages_per_page();
        for (i, m) in self.meta.iter() {
            let block = dev.block_by_index(i);
            let tags = self.tags(i);
            m.check_aggregates(block, tags)
                .map_err(|e| format!("block {i}: meta {e}"))?;
            for p in 0..block.page_count() {
                let page = block.page(p);
                let mut follow_up = false;
                for s in 0..page.subpage_count() {
                    let tag = tags
                        .get((p * spp + s as u32) as usize)
                        .copied()
                        .unwrap_or_default();
                    let programmed = page.subpage(s) != SubpageState::Free;
                    if tag.is_programmed() != programmed {
                        return Err(format!(
                            "block {i} page {p} sub {s}: tagged={} but device programmed={programmed}",
                            tag.is_programmed()
                        ));
                    }
                    follow_up |= tag.follow_up();
                }
                if follow_up != (page.program_ops() >= 2) {
                    return Err(format!(
                        "block {i} page {p}: follow-up tag={follow_up} after {} programs",
                        page.program_ops()
                    ));
                }
            }
        }
        self.meta.check_slc_list()?;
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
        // 10.
        if !self.reclaim_candidates {
            if let Some((i, _)) = self
                .meta
                .iter()
                .find(|&(i, m)| Self::reclaimable(dev, i, m))
            {
                return Err(format!(
                    "block {i} can be reclaimed, but reclaim_candidates is clear"
                ));
            }
        }
        Ok(())
    }

    /// Runs one MLC-region GC round (greedy, subpage-granular compaction
    /// within MLC) when the region is below threshold and the previous
    /// round has drained; the driver calls it after every write chunk, as it
    /// does SLC GC. MLC blocks accumulate invalid subpages as cached data
    /// gets re-written and re-evicted.
    pub fn run_mlc_gc_if_needed(&mut self, dev: &mut FlashDevice, now: Nanos, batch: &mut OpBatch) {
        if !self.mlc_gc_needed() || !self.mlc_gc_gate_open(now) {
            return;
        }
        let _span = ipu_obs::span(ipu_obs::Phase::Gc);
        batch.begin_background_round(RoundOrigin::Gc);
        let victim = {
            let cands = self
                .meta
                .mlc_blocks()
                .filter(|(_, m)| !self.is_active(m.addr))
                .map(|(i, m)| (i, dev.block_by_index(i), m.opened_seq()));
            select_greedy(cands)
        };
        // No victim, or a stalled move: the gate stays open for the next write.
        if let Some(round_cost) =
            victim.and_then(|v| self.reclaim_block(dev, v, now, batch, |_| BlockLevel::HighDensity))
        {
            self.finish_mlc_gc_round(now, round_cost);
        }
    }

    /// Rebuilds all volatile FTL state from durable flash contents after a
    /// power loss: the mapping table and cache metadata are reconstructed
    /// from the per-block OOB shadow (level, open order, and per-subpage LSN
    /// tags), and the free pools are re-derived from which blocks hold data.
    /// The OOB shadow and the bad-block table are durable and survive as-is;
    /// the tags go on naming the owners of the valid subpages.
    ///
    /// Divergences from the pre-cut state, by design: active blocks are
    /// closed (their remaining free pages are not resumed — a real FTL
    /// re-opens fresh blocks), in-flight erases complete instantly (the
    /// device already erased them), and GC/wear-leveling pacing restarts.
    pub fn rebuild_from_flash(&mut self, dev: &FlashDevice) {
        self.map = MappingTable::new();
        self.meta = CacheMeta::with_blocks(self.geometry.total_blocks());
        self.actives = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        self.rr = [0; 4];
        self.slc_gc_ready_at = 0;
        self.mlc_gc_ready_at = 0;
        self.wear_leveler = WearLeveler::new();
        self.wl_check_due = false;
        self.reclaim_candidates = true;

        // Replay OOB records in open order so ISR GC's FIFO tie-breaking is
        // preserved across the power cycle.
        let mut order: Vec<(u64, u64)> = self
            .oob
            .iter()
            .enumerate()
            .filter_map(|(idx, b)| b.as_ref().map(|b| (b.opened_seq, idx as u64)))
            .collect();
        order.sort_unstable();
        let spp = self.geometry.subpages_per_page();
        let mut max_seq: Option<u64> = None;
        for &(_, idx) in &order {
            let Some(blk) = self.oob.get(idx as usize).and_then(Option::as_ref) else {
                continue;
            };
            let addr = self.geometry.block_from_index(idx);
            let block = dev.block_by_index(idx);
            self.meta
                .restore_block(
                    idx,
                    addr,
                    blk.level,
                    blk.opened_seq,
                    block.page_count(),
                    spp,
                )
                .restore_from(block, &blk.tags);
            max_seq = Some(max_seq.map_or(blk.opened_seq, |m| m.max(blk.opened_seq)));
            // Ascending slot order is (page, subpage) order. Only *valid*
            // subpages re-enter the map: the OOB tag of a superseded subpage
            // is stale by definition.
            for (slot, tag) in blk.tags.iter().enumerate() {
                let (page, sub) = (slot as u32 / spp, (slot as u32 % spp) as u8);
                if let Some(lsn) = tag.lsn() {
                    if block.page(page).subpage(sub) == SubpageState::Valid {
                        self.map.insert(lsn, Spa::new(addr.page(page), sub));
                    }
                }
            }
        }
        self.meta.set_next_seq(max_seq.map_or(0, |m| m + 1));

        let in_use: BTreeSet<u64> = self.meta.iter().map(|(i, _)| i).collect();
        self.blocks.rebuild_free(&self.bad_blocks, &in_use);
    }
}

#[cfg(test)]
impl FtlCore {
    /// Rewrites the LSN in the OOB tag of page-major slot `slot` of block
    /// `block_idx`, so tests can check that `check_invariants` notices.
    pub(crate) fn skew_oob_lsn(&mut self, block_idx: u64, slot: usize, lsn: Lsn) {
        let tag = &mut self.oob[block_idx as usize].as_mut().unwrap().tags[slot];
        *tag = SubTag::new(lsn, tag.written_ns(), tag.follow_up());
    }

    /// Moves the write time in the OOB tag of page-major slot `slot` of
    /// block `block_idx` one nanosecond later.
    pub(crate) fn skew_oob_written(&mut self, block_idx: u64, slot: usize) {
        let tag = &mut self.oob[block_idx as usize].as_mut().unwrap().tags[slot];
        *tag = SubTag::new(tag.lsn().unwrap(), tag.written_ns() + 1, tag.follow_up());
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
        assert_eq!(core.owner(&dev, bi, Spa::new(ppa, 0)), Some(10));
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
        assert!(core.owner(&dev, bi, Spa::new(ppa, 0)).is_none());
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
        assert!(err.contains("cold time sum diverged"), "{err}");
    }

    #[test]
    fn invariants_catch_a_skewed_tag_write_time() {
        let (mut core, dev, idx) = core_with_one_write();
        // LSN 1 sits at page 0, subpage 1.
        core.skew_oob_written(idx, 1);
        let err = core.check_invariants(&dev).unwrap_err();
        assert!(err.contains("valid time sum diverged"), "{err}");
    }

    #[test]
    fn invariants_catch_a_dropped_cold_bit() {
        let (mut core, dev, idx) = core_with_one_write();
        core.meta.get_mut(idx).unwrap().drop_cold_bit(0);
        let err = core.check_invariants(&dev).unwrap_err();
        assert!(
            err.contains(&format!("block {idx}: meta cold mask diverged")),
            "{err}"
        );
    }

    #[test]
    fn a_follow_up_tag_reads_back_its_fields() {
        let (mut core, mut dev, idx) = core_with_one_write();
        let mut batch = OpBatch::new();
        let ppa = core.geometry().block_from_index(idx).page(0);
        // The first write filled subpages 0 and 1 at 7 ns; update in place.
        core.program_group(
            &mut dev,
            ppa,
            2,
            &[5],
            FlashOpKind::HostProgram,
            9,
            &mut batch,
        )
        .unwrap();
        let tags = core.tags(idx);
        let (first, update) = (tags[0], tags[2]);
        assert_eq!(
            (first.lsn(), first.written_ns(), first.follow_up()),
            (Some(0), 7, false)
        );
        assert_eq!(
            (update.lsn(), update.written_ns(), update.follow_up()),
            (Some(5), 9, true)
        );
        // An unprogrammed slot reads as absent.
        assert!(!tags[3].is_programmed());
        assert_eq!((tags[3].lsn(), tags[3].written_ns()), (None, 0));
        assert_eq!(core.owner(&dev, idx, Spa::new(ppa, 3)), None);
        assert_eq!(core.check_invariants(&dev), Ok(()));
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
    fn invariants_catch_an_oob_tag_that_names_another_lsn() {
        let (mut core, dev, idx) = core_with_one_write();
        // LSN 1 sits at page 0, subpage 1; its tag now claims LSN 99.
        core.skew_oob_lsn(idx, 1, 99);
        let err = core.check_invariants(&dev).unwrap_err();
        assert!(err.contains("OOB tag names lsn Some(99)"), "{err}");
        assert!(err.contains("map says lsn 1"), "{err}");
    }

    #[test]
    fn invariants_catch_a_corrupt_slc_list_entry() {
        let (mut core, dev, idx) = core_with_one_write();
        // The written block is the only in-use SLC block: entry 0.
        core.meta.skew_slc_entry(0);
        let err = core.check_invariants(&dev).unwrap_err();
        assert!(
            err.contains(&format!("SLC list entry 0 names block {idx}")),
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
    fn victim_groups_flag_pages_that_took_a_second_program() {
        let (mut core, mut dev, idx) = core_with_one_write();
        let mut batch = OpBatch::new();
        let block = core.geometry().block_from_index(idx);
        // Page 0 takes an update in place; page 1 takes one program.
        for (page, start, lsn) in [(0, 2, 5), (1, 0, 9)] {
            let ppa = block.page(page);
            core.program_group(
                &mut dev,
                ppa,
                start,
                &[lsn],
                FlashOpKind::HostProgram,
                8,
                &mut batch,
            )
            .unwrap();
        }
        let flags: Vec<(u32, bool)> = core
            .collect_victim_groups(&dev, idx)
            .iter()
            .map(|g| (g.page, g.updated))
            .collect();
        // Degraded movement keeps only updated pages at their level.
        assert_eq!(flags, vec![(0, true), (1, false)]);
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

    /// Programs `lsns` at `level`, four to a fresh page; returns the block
    /// of the last page.
    fn program_lsns(
        core: &mut FtlCore,
        dev: &mut FlashDevice,
        batch: &mut OpBatch,
        level: BlockLevel,
        lsns: std::ops::Range<Lsn>,
    ) -> BlockAddr {
        let lsns: Vec<Lsn> = lsns.collect();
        let mut block = None;
        for page in lsns.chunks(4) {
            let (ppa, _) = core.take_page(dev, level, batch).unwrap();
            core.program_group(dev, ppa, 0, page, FlashOpKind::HostProgram, 1, batch)
                .unwrap();
            block = Some(ppa.block_addr());
        }
        block.unwrap()
    }

    #[test]
    fn emergency_reclaim_rescans_after_an_invalidation() {
        let (mut core, mut dev) = core_and_dev();
        let mut batch = OpBatch::new();
        let victim = program_lsns(&mut core, &mut dev, &mut batch, BlockLevel::Work, 0..16);
        // Supersede all but LSN 15, then close every ring.
        program_lsns(
            &mut core,
            &mut dev,
            &mut batch,
            BlockLevel::HighDensity,
            0..15,
        );
        while core.try_take_chain(BlockLevel::Work).is_some() {}
        assert_eq!(core.emergency_reclaim(&mut dev, &mut batch), 0);
        assert!(!core.reclaim_candidates);

        // Losing the last valid subpage alone makes the block a candidate.
        let last = core.map.remove(15).unwrap();
        dev.invalidate(last).unwrap();
        core.note_invalidated(core.block_idx(victim), last);
        let erases = batch.count(FlashOpKind::Erase);
        assert_eq!(core.emergency_reclaim(&mut dev, &mut batch), 1);
        assert_eq!(batch.count(FlashOpKind::Erase), erases + 1);
        assert!(core.meta.get(core.block_idx(victim)).is_none());
        assert_eq!(core.check_invariants(&dev), Ok(()));
    }

    #[test]
    fn emergency_reclaim_rescans_after_the_rings_close() {
        // A ring clear and the power-loss rebuild each close rings.
        for power_cycle in [false, true] {
            let (mut core, mut dev) = core_and_dev();
            let mut batch = OpBatch::new();
            let victim = program_lsns(&mut core, &mut dev, &mut batch, BlockLevel::Work, 0..16);
            program_lsns(
                &mut core,
                &mut dev,
                &mut batch,
                BlockLevel::HighDensity,
                0..16,
            );
            // Fully invalid but still an open ring member: no candidate yet.
            assert!(core.is_active(victim));
            assert_eq!(core.emergency_reclaim(&mut dev, &mut batch), 0);
            assert!(!core.reclaim_candidates);

            // Closing the ring alone makes the block a candidate.
            if power_cycle {
                core.rebuild_from_flash(&dev);
            } else {
                core.clear_ring(BlockLevel::Work as usize);
            }
            assert_eq!(core.check_invariants(&dev), Ok(()));
            assert_eq!(
                core.emergency_reclaim(&mut dev, &mut batch),
                1,
                "power cycle: {power_cycle}"
            );
            assert!(core.meta.get(core.block_idx(victim)).is_none());
            assert_eq!(core.check_invariants(&dev), Ok(()));
        }
    }

    #[test]
    fn a_second_stall_with_nothing_changed_skips_the_walk() {
        let (mut core, mut dev) = core_and_dev();
        let mut batch = OpBatch::new();
        program_lsns(&mut core, &mut dev, &mut batch, BlockLevel::Work, 0..8);
        while core.try_take_chain(BlockLevel::Work).is_some() {}
        for stalls in 1..=2 {
            assert!(core
                .take_page(&mut dev, BlockLevel::Work, &mut batch)
                .is_err());
            // Every stall still opens its round, as before the flag.
            assert_eq!(batch.rounds_used(), stalls);
        }
        assert_eq!(core.reclaim_scans, 1, "the second stall walked the table");
    }
}
