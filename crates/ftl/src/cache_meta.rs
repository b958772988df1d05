//! Per-block cache metadata: level labels, open order and the ISR aggregates.
//!
//! This is the volatile bookkeeping the SLC-mode cache needs on top of two
//! sources it does not copy: the physical state in `ipu-flash` and the
//! durable OOB tags ([`SubTag`]). Each per-subpage fact lives in one place:
//! whether a subpage is valid, on the device; when it was written (the
//! `t_ij` of the ISR GC policy's Equation 2), in its tag; and whether its
//! page received an intra-page update, in the page's program count (an
//! update is any program after a page's first, so a page counts as updated
//! once `program_ops() >= 2`). A block's metadata keeps its level (IPU's
//! Work/Monitor/Hot labels), its open order, and what those sources cannot
//! answer in O(1): the J-term population as a bitset, its counts and its
//! time sums.

use ipu_flash::{BlockAddr, BlockState, Nanos, SubpageState};

use crate::schemes::common::SubTag;
use crate::types::BlockLevel;

/// Metadata for one in-use (allocated, non-free) block.
#[derive(Debug, Clone)]
pub struct BlockMeta {
    pub addr: BlockAddr,
    /// Cache level; `HighDensity` for MLC-region blocks. Fixed while the
    /// block is in use: it decides whether the block is in `CacheMeta`'s SLC
    /// list.
    level: BlockLevel,
    /// Position of this block's entry in `CacheMeta`'s SLC list (SLC blocks
    /// only), so closing the block removes the entry in O(1).
    slc_pos: u32,
    /// Monotonic open order; GC victim selection breaks score ties toward
    /// the oldest block (FIFO) so eviction pressure rotates over the region
    /// instead of hammering one plane.
    opened_seq: u64,
    subpages_per_page: u32,
    /// Number of valid subpages (the device's count, kept beside the sums
    /// that Eq. 2's mean age divides).
    valid_count: u32,
    /// Sum of the tag write times of the valid subpages (feeds the O(1)
    /// mean-age term of the ISR score).
    sum_written_valid: u128,
    /// Valid subpages sitting in never-updated pages (the ISR J-term's
    /// population, and the factor of its Jensen bound).
    j_count: u32,
    /// Bit per subpage slot (page-major): set iff the subpage is valid AND
    /// its page was never updated — exactly the J-term population, so the ISR
    /// scorer walks set bits instead of scanning every slot. `j_count` is its
    /// popcount.
    cold_mask: Vec<u64>,
    /// Sum of the tag write times over the `cold_mask` bits (the J-term
    /// population's mean age feeds the ISR score's O(1) Jensen bound).
    sum_written_cold: u128,
    /// Latest write time recorded this erase cycle: the newest tag in the
    /// block. Only ever raised, so it bounds every valid subpage's write
    /// time from above.
    newest_written: Nanos,
    /// Whether the block sits in one of the FTL's active (open) rings.
    /// Maintained by the core alongside ring membership so GC candidate
    /// filters are O(1) instead of a ring scan.
    active: bool,
}

impl BlockMeta {
    fn new(
        addr: BlockAddr,
        level: BlockLevel,
        opened_seq: u64,
        pages: u32,
        subpages_per_page: u32,
    ) -> Self {
        let slots = (pages * subpages_per_page) as usize;
        BlockMeta {
            addr,
            level,
            slc_pos: 0,
            opened_seq,
            subpages_per_page,
            valid_count: 0,
            sum_written_valid: 0,
            j_count: 0,
            cold_mask: vec![0; slots.div_ceil(64)],
            sum_written_cold: 0,
            newest_written: 0,
            active: false,
        }
    }

    #[inline]
    fn slot(&self, page: u32, subpage: u8) -> usize {
        (page * self.subpages_per_page + subpage as u32) as usize
    }

    #[inline]
    fn cold_bit(&self, slot: usize) -> bool {
        self.cold_mask[slot / 64] & (1u64 << (slot % 64)) != 0
    }

    /// Counts a subpage that became valid at `written_ns`, in the J-term
    /// population when `cold`.
    fn add_valid(&mut self, slot: usize, written_ns: Nanos, cold: bool) {
        self.valid_count += 1;
        self.sum_written_valid += written_ns as u128;
        if cold {
            self.j_count += 1;
            self.sum_written_cold += written_ns as u128;
            self.cold_mask[slot / 64] |= 1u64 << (slot % 64);
        }
    }

    /// Takes `page`'s valid subpages out of the J-term population: its
    /// first update has arrived. A no-op for a page updated before, whose
    /// cold bits are already clear.
    fn drop_cold_page(&mut self, page: u32, tags: &[SubTag]) {
        // A page's slots never straddle a mask word (64 is a multiple of
        // every supported subpages-per-page), so one word edit suffices.
        let start = (page * self.subpages_per_page) as usize;
        let span = (1u64 << self.subpages_per_page) - 1;
        let mut bits = (self.cold_mask[start / 64] >> (start % 64)) & span;
        self.j_count -= bits.count_ones();
        while bits != 0 {
            let slot = start + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            self.sum_written_cold -= written_at(tags, slot) as u128;
        }
        self.cold_mask[start / 64] &= !(span << (start % 64));
    }

    /// Cache level; `HighDensity` for MLC-region blocks.
    #[inline]
    pub fn level(&self) -> BlockLevel {
        self.level
    }

    /// Monotonic open order of this block (smaller = opened earlier).
    pub fn opened_seq(&self) -> u64 {
        self.opened_seq
    }

    /// Records a program covering `[start, start+count)` of `page` at `now`;
    /// `tags` is the block's tag array.
    ///
    /// A second or later program op on a page is by definition an intra-page
    /// update under IPU (the page holds versions of one chunk's data), so the
    /// caller tells us whether this program was a follow-up: a follow-up
    /// takes the page out of the J-term population for good.
    pub fn note_program(
        &mut self,
        page: u32,
        start: u8,
        count: u8,
        now: Nanos,
        follow_up: bool,
        tags: &[SubTag],
    ) {
        if follow_up {
            self.drop_cold_page(page, tags);
        }
        let t = now.max(1);
        self.newest_written = self.newest_written.max(t);
        for s in start..start + count {
            self.add_valid(self.slot(page, s), t, !follow_up);
        }
    }

    /// Records that a valid subpage's data was superseded; the caller has
    /// just invalidated it on the device. `tags` is the block's tag array,
    /// which holds the subpage's write time.
    pub fn note_invalidate(&mut self, page: u32, subpage: u8, tags: &[SubTag]) {
        let slot = self.slot(page, subpage);
        let t = written_at(tags, slot) as u128;
        self.valid_count -= 1;
        self.sum_written_valid -= t;
        if self.cold_bit(slot) {
            self.j_count -= 1;
            self.sum_written_cold -= t;
            self.cold_mask[slot / 64] &= !(1u64 << (slot % 64));
        }
    }

    /// Fills a freshly restored block's aggregates from its sources: the
    /// device's validity and the block's OOB tags. A page counts as updated
    /// when any of its tags carries the follow-up flag, the durable form of
    /// the update. Power-loss reconstruction restores each block this way,
    /// and the invariant checker recounts with it.
    pub(crate) fn restore_from(&mut self, block: &BlockState, tags: &[SubTag]) {
        let spp = self.subpages_per_page as usize;
        for (page, page_tags) in tags.chunks(spp).enumerate() {
            let updated = page_tags.iter().any(|t| t.follow_up());
            let state = block.page(page as u32);
            for (s, tag) in page_tags.iter().enumerate() {
                if !tag.is_programmed() {
                    continue;
                }
                self.newest_written = self.newest_written.max(tag.written_ns());
                if state.subpage(s as u8) == SubpageState::Valid {
                    self.add_valid(page * spp + s, tag.written_ns(), !updated);
                }
            }
        }
    }

    /// Recounts the aggregates from the device and the block's tags and
    /// names the first one that differs; used by the FTL invariant checker
    /// (tests / debug sweeps only).
    pub fn check_aggregates(&self, block: &BlockState, tags: &[SubTag]) -> Result<(), String> {
        let mut fresh = BlockMeta::new(
            self.addr,
            self.level,
            self.opened_seq,
            block.page_count(),
            self.subpages_per_page,
        );
        fresh.restore_from(block, tags);
        let checks = [
            ("valid count", self.valid_count == fresh.valid_count),
            (
                "valid time sum",
                self.sum_written_valid == fresh.sum_written_valid,
            ),
            ("J count", self.j_count == fresh.j_count),
            (
                "cold time sum",
                self.sum_written_cold == fresh.sum_written_cold,
            ),
            ("cold mask", self.cold_mask == fresh.cold_mask),
            (
                "newest write time",
                self.newest_written == fresh.newest_written,
            ),
        ];
        match checks.iter().find(|(_, ok)| !ok) {
            Some((what, _)) => Err(format!("{what} diverged from a recount")),
            None => Ok(()),
        }
    }

    /// Subpages per page tracked by this block.
    #[inline]
    pub fn subpages_per_page(&self) -> u32 {
        self.subpages_per_page
    }

    /// Number of valid subpages across the block (cached).
    #[inline]
    pub fn valid_count(&self) -> u32 {
        self.valid_count
    }

    /// Sum of write times over the valid subpages (cached).
    #[inline]
    pub fn sum_written_valid(&self) -> u128 {
        self.sum_written_valid
    }

    /// Valid subpages in never-updated pages (cached; bounds the ISR J-term).
    #[inline]
    pub fn j_count(&self) -> u32 {
        self.j_count
    }

    /// Sum of write times over the J-term population (cached).
    #[inline]
    pub fn sum_written_cold(&self) -> u128 {
        self.sum_written_cold
    }

    /// Latest write time recorded this erase cycle (0 = none); no valid
    /// subpage was written after it.
    #[inline]
    pub fn newest_written(&self) -> Nanos {
        self.newest_written
    }

    /// Whether the block is an active (open) write target.
    #[inline]
    pub(crate) fn is_active(&self) -> bool {
        self.active
    }

    /// Sets the active flag; the FTL core calls this exactly where it adds
    /// the block to, or drops it from, an active ring.
    pub(crate) fn set_active(&mut self, active: bool) {
        self.active = active;
    }

    /// The J-term population as a page-major bitset (one bit per subpage
    /// slot); the ISR scorer iterates its set bits in ascending slot order,
    /// which is exactly the oracle's (page, subpage) visit order.
    #[inline]
    pub fn cold_mask_words(&self) -> &[u64] {
        &self.cold_mask
    }
}

/// Write time in the tag of page-major slot `slot` (0 = never programmed).
#[inline]
pub(crate) fn written_at(tags: &[SubTag], slot: usize) -> Nanos {
    tags.get(slot).map_or(0, |t| t.written_ns())
}

/// Registry of in-use blocks and their metadata: a table indexed by dense
/// block index, so every lookup on the write, invalidate and GC paths is one
/// bounds-checked load. The FTL core sizes it to the device's block count up
/// front; a table built with [`CacheMeta::new`] grows to the largest index
/// opened. Iteration is in ascending index order.
///
/// Beside the table it keeps the SLC list: one `(opened_seq, block index)`
/// entry per in-use SLC block, in no particular order, which GC victim
/// selection walks instead of the whole table.
#[derive(Debug, Clone, Default)]
pub struct CacheMeta {
    /// Dense block index → metadata (`None` = block not in use).
    slots: Vec<Option<BlockMeta>>,
    /// Number of occupied slots.
    len: usize,
    /// `(opened_seq, block index)` of every in-use SLC block, unordered.
    slc: Vec<(u64, u64)>,
    next_seq: u64,
}

impl CacheMeta {
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table with a slot for each of `blocks` dense indices, so a
    /// device's table is allocated once at its final size.
    pub(crate) fn with_blocks(blocks: u64) -> Self {
        let mut slots = Vec::new();
        slots.resize_with(blocks as usize, || None);
        CacheMeta {
            slots,
            ..Self::default()
        }
    }

    /// Installs `meta` at `block_idx`, adding an SLC block to the SLC list,
    /// and returns the slot's metadata.
    fn install(&mut self, block_idx: u64, mut meta: BlockMeta) -> &mut BlockMeta {
        let i = block_idx as usize;
        if self.slots.len() <= i {
            self.slots.resize_with(i + 1, || None);
        }
        debug_assert!(
            self.slots[i].is_none(),
            "block {} registered twice",
            meta.addr
        );
        // A second registration replaces the first whole, list entry included.
        self.close_block(block_idx);
        if meta.level.is_slc() {
            meta.slc_pos = self.slc.len() as u32;
            self.slc.push((meta.opened_seq, block_idx));
        }
        self.len += 1;
        self.slots[i].insert(meta)
    }

    /// Registers a freshly-opened block at `level`.
    pub fn open_block(
        &mut self,
        block_idx: u64,
        addr: BlockAddr,
        level: BlockLevel,
        pages: u32,
        subpages_per_page: u32,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.install(
            block_idx,
            BlockMeta::new(addr, level, seq, pages, subpages_per_page),
        );
    }

    /// Removes a block's metadata (called at erase and retirement). An SLC
    /// block's list entry is swap-removed, and the entry moved into its
    /// place is re-pointed.
    pub fn close_block(&mut self, block_idx: u64) -> Option<BlockMeta> {
        let meta = self.slots.get_mut(block_idx as usize)?.take()?;
        self.len -= 1;
        if meta.level.is_slc() {
            let pos = meta.slc_pos as usize;
            self.slc.swap_remove(pos);
            if let Some(&(_, moved)) = self.slc.get(pos) {
                if let Some(m) = self.get_mut(moved) {
                    m.slc_pos = pos as u32;
                }
            }
        }
        Some(meta)
    }

    /// Re-registers a block with its *original* open sequence number during
    /// power-loss reconstruction (ISR GC tie-breaking depends on open order,
    /// so rebuilt metadata must preserve it). Does not advance `next_seq`;
    /// callers finish with [`CacheMeta::set_next_seq`]. Returns the freshly
    /// inserted metadata so callers can fill its aggregates from the device
    /// and the block's tags without a second (fallible) lookup.
    pub fn restore_block(
        &mut self,
        block_idx: u64,
        addr: BlockAddr,
        level: BlockLevel,
        opened_seq: u64,
        pages: u32,
        subpages_per_page: u32,
    ) -> &mut BlockMeta {
        self.install(
            block_idx,
            BlockMeta::new(addr, level, opened_seq, pages, subpages_per_page),
        )
    }

    /// Sets the next open sequence number (power-loss reconstruction: one
    /// past the largest restored `opened_seq`).
    pub fn set_next_seq(&mut self, seq: u64) {
        self.next_seq = seq;
    }

    #[inline]
    pub fn get(&self, block_idx: u64) -> Option<&BlockMeta> {
        self.slots.get(block_idx as usize)?.as_ref()
    }

    #[inline]
    pub fn get_mut(&mut self, block_idx: u64) -> Option<&mut BlockMeta> {
        self.slots.get_mut(block_idx as usize)?.as_mut()
    }

    /// Level of a block, if tracked.
    pub fn level(&self, block_idx: u64) -> Option<BlockLevel> {
        self.get(block_idx).map(|m| m.level)
    }

    /// Iterates `(block_idx, meta)` over all in-use blocks, ascending index.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &BlockMeta)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.as_ref().map(|m| (i as u64, m)))
    }

    /// Number of in-use blocks tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Counts the occupied slots from scratch; equals [`Self::len`] unless
    /// the table is corrupt (used by the FTL invariant checker).
    pub(crate) fn occupied_slots(&self) -> usize {
        self.slots.iter().filter(|m| m.is_some()).count()
    }

    /// `(opened_seq, block index)` of every in-use SLC block, in no
    /// particular order.
    #[inline]
    pub(crate) fn slc_entries(&self) -> &[(u64, u64)] {
        &self.slc
    }

    /// Checks the SLC list against the table: each entry names an in-use
    /// SLC block whose metadata stores that entry's position and open order,
    /// and there are as many entries as in-use SLC blocks, so each such
    /// block has exactly one. Used by the FTL invariant checker.
    pub(crate) fn check_slc_list(&self) -> Result<(), String> {
        for (pos, &(seq, idx)) in self.slc.iter().enumerate() {
            let Some(m) = self.get(idx) else {
                return Err(format!(
                    "SLC list entry {pos} names block {idx}, which is not in use"
                ));
            };
            if !m.level.is_slc() || m.slc_pos as usize != pos || m.opened_seq != seq {
                return Err(format!(
                    "SLC list entry {pos} names block {idx} opened at {seq}; its metadata \
                     says level {:?}, entry {}, opened at {}",
                    m.level, m.slc_pos, m.opened_seq
                ));
            }
        }
        let in_use = self.slc_blocks().count();
        if in_use != self.slc.len() {
            return Err(format!(
                "SLC list holds {} entries, {in_use} SLC blocks in use",
                self.slc.len()
            ));
        }
        Ok(())
    }

    /// In-use blocks in the SLC cache (level above `HighDensity`).
    pub fn slc_blocks(&self) -> impl Iterator<Item = (u64, &BlockMeta)> {
        self.iter().filter(|(_, m)| m.level.is_slc())
    }

    /// In-use blocks in the MLC region.
    pub fn mlc_blocks(&self) -> impl Iterator<Item = (u64, &BlockMeta)> {
        self.iter().filter(|(_, m)| !m.level.is_slc())
    }

    /// Bytes the table holds: its slots, its SLC list and each in-use
    /// block's cold mask (allocated capacity).
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Option<BlockMeta>>()
            + self.slc.capacity() * std::mem::size_of::<(u64, u64)>()
            + self
                .iter()
                .map(|(_, m)| m.cold_mask.capacity() * std::mem::size_of::<u64>())
                .sum::<usize>()
    }
}

/// Deliberate corruption hooks, so invariant-checker tests can show each
/// check firing.
#[cfg(test)]
impl BlockMeta {
    pub(crate) fn skew_sum_written_cold(&mut self, delta: u128) {
        self.sum_written_cold += delta;
    }

    /// Clears the cold bit of page-major slot `slot`, leaving the counts.
    pub(crate) fn drop_cold_bit(&mut self, slot: usize) {
        self.cold_mask[slot / 64] &= !(1u64 << (slot % 64));
    }
}

#[cfg(test)]
impl CacheMeta {
    pub(crate) fn skew_len(&mut self) {
        self.len += 1;
    }

    /// Moves the open order in SLC list entry `pos` one later.
    pub(crate) fn skew_slc_entry(&mut self, pos: usize) {
        self.slc[pos].0 += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipu_flash::{CellMode, DeviceConfig, FlashDevice, Spa};

    fn addr() -> BlockAddr {
        BlockAddr::new(0, 0, 0, 0, 7)
    }

    /// One SLC block on a test device with its metadata and tag array, kept
    /// in step the way the FTL core keeps them.
    struct Lab {
        dev: FlashDevice,
        meta: CacheMeta,
        tags: Vec<SubTag>,
    }

    impl Lab {
        const IDX: u64 = 7;

        fn new() -> Self {
            let mut dev = FlashDevice::new(DeviceConfig::small_for_tests());
            dev.set_block_mode(addr(), CellMode::Slc);
            let mut meta = CacheMeta::new();
            meta.open_block(Self::IDX, addr(), BlockLevel::Work, 4, 4);
            Lab {
                dev,
                meta,
                tags: vec![SubTag::default(); 16],
            }
        }

        fn m(&self) -> &BlockMeta {
            self.meta.get(Self::IDX).unwrap()
        }

        fn program(&mut self, page: u32, start: u8, count: u8, now: Nanos) {
            let follow_up = self.dev.block(addr()).page(page).program_ops() > 0;
            self.dev
                .program(Spa::new(addr().page(page), start), count)
                .unwrap();
            for s in start..start + count {
                let slot = (page * 4 + s as u32) as usize;
                self.tags[slot] = SubTag::new(slot as u64, now.max(1), follow_up);
            }
            let m = self.meta.get_mut(Self::IDX).unwrap();
            m.note_program(page, start, count, now, follow_up, &self.tags);
        }

        fn invalidate(&mut self, page: u32, s: u8) {
            self.dev.invalidate(Spa::new(addr().page(page), s)).unwrap();
            let m = self.meta.get_mut(Self::IDX).unwrap();
            m.note_invalidate(page, s, &self.tags);
        }

        fn check(&self) -> Result<(), String> {
            self.m()
                .check_aggregates(self.dev.block(addr()), &self.tags)
        }
    }

    #[test]
    fn open_close_round_trip() {
        let mut c = CacheMeta::new();
        c.open_block(7, addr(), BlockLevel::Work, 4, 4);
        assert_eq!(c.level(7), Some(BlockLevel::Work));
        assert_eq!(c.len(), 1);
        let meta = c.close_block(7).unwrap();
        assert_eq!(meta.addr, addr());
        assert!(c.is_empty());
        assert!(c.close_block(7).is_none());
    }

    #[test]
    fn program_records_time_and_update_flag() {
        let mut lab = Lab::new();
        lab.program(2, 0, 2, 1000);
        assert_eq!((lab.m().j_count(), lab.m().sum_written_cold()), (2, 2000));

        lab.program(2, 2, 1, 2000);
        let m = lab.m();
        assert_eq!((m.j_count(), m.sum_written_cold()), (0, 0));
        assert_eq!((m.valid_count(), m.sum_written_valid()), (3, 4000));
        assert_eq!(m.newest_written(), 2000);
        assert_eq!(lab.check(), Ok(()));
    }

    #[test]
    fn time_zero_writes_are_still_marked_written() {
        let mut lab = Lab::new();
        lab.program(0, 0, 1, 0);
        // The tag's write time 0 would mean "never programmed".
        assert_eq!(lab.m().newest_written(), 1);
        assert_eq!(lab.m().sum_written_valid(), 1);
        assert_eq!(lab.check(), Ok(()));
    }

    #[test]
    fn restore_preserves_open_order_and_flags() {
        let mut lab = Lab::new();
        lab.program(1, 0, 2, 5000);
        lab.program(1, 2, 1, 6000); // follow-up: page 1 is updated
        lab.program(2, 0, 1, 7000);
        let mut c = CacheMeta::new();
        c.restore_block(7, addr(), BlockLevel::Monitor, 41, 4, 4)
            .restore_from(lab.dev.block(addr()), &lab.tags);
        c.set_next_seq(42);
        let m = c.get(7).unwrap();
        assert_eq!(m.opened_seq(), 41);
        // The follow-up flag in page 1's third tag keeps the page out of J.
        assert_eq!((m.valid_count(), m.j_count()), (4, 1));
        assert_eq!(m.sum_written_cold(), 7000);
        // The next freshly-opened block continues the sequence.
        c.open_block(8, BlockAddr::new(0, 0, 0, 0, 8), BlockLevel::Work, 4, 4);
        assert_eq!(c.get(8).unwrap().opened_seq(), 42);
    }

    #[test]
    fn validity_aggregates_track_programs_updates_and_invalidates() {
        let mut lab = Lab::new();
        lab.program(0, 0, 2, 1000);
        lab.program(1, 0, 1, 3000);
        assert_eq!(lab.m().valid_count(), 3);
        assert_eq!(lab.m().sum_written_valid(), 2 * 1000 + 3000);
        assert_eq!(lab.m().j_count(), 3);

        // An intra-page update pulls the whole page out of the J population.
        lab.invalidate(0, 0);
        lab.program(0, 2, 1, 5000);
        assert_eq!(lab.m().valid_count(), 3); // (0,1), (0,2), (1,0)
        assert_eq!(lab.m().sum_written_valid(), 1000 + 5000 + 3000);
        assert_eq!(lab.m().j_count(), 1); // only (1,0): page 0 is updated

        lab.invalidate(0, 1);
        assert_eq!(lab.m().valid_count(), 2);
        assert_eq!(lab.m().sum_written_valid(), 5000 + 3000);
        assert_eq!(lab.check(), Ok(()));
    }

    #[test]
    fn cold_timestamp_sum_follows_the_j_population() {
        let mut lab = Lab::new();
        lab.program(0, 0, 2, 1000);
        lab.program(1, 0, 3, 3000);
        assert_eq!(lab.m().sum_written_cold(), 2 * 1000 + 3 * 3000);
        assert_eq!(lab.m().newest_written(), 3000);

        // The update moves page 0's two valid subpages out of J.
        lab.program(0, 2, 1, 5000);
        assert_eq!(lab.m().sum_written_cold(), 3 * 3000);
        // Invalidating a cold subpage drops its timestamp; an updated one
        // leaves the cold sum alone.
        lab.invalidate(1, 0);
        lab.invalidate(0, 2);
        assert_eq!(lab.m().sum_written_cold(), 2 * 3000);
        // The newest write time never drops, so it still bounds every
        // valid timestamp after the 5000 ns subpage is gone.
        assert_eq!(lab.m().newest_written(), 5000);
        assert_eq!(lab.check(), Ok(()));

        lab.meta.get_mut(Lab::IDX).unwrap().skew_sum_written_cold(1);
        assert_eq!(
            lab.check(),
            Err("cold time sum diverged from a recount".into())
        );
    }

    #[test]
    fn dense_table_counts_and_iterates_in_index_order() {
        let mut c = CacheMeta::with_blocks(4);
        assert!(c.is_empty());
        c.open_block(9, BlockAddr::new(0, 0, 0, 0, 9), BlockLevel::Work, 4, 4);
        c.open_block(2, BlockAddr::new(0, 0, 0, 0, 2), BlockLevel::Hot, 4, 4);
        c.open_block(5, BlockAddr::new(0, 0, 0, 0, 5), BlockLevel::Work, 4, 4);
        assert!(c.close_block(5).is_some());
        let order: Vec<u64> = c.iter().map(|(i, _)| i).collect();
        assert_eq!(order, vec![2, 9]);
        assert_eq!((c.len(), c.occupied_slots()), (2, 2));
        assert!(c.get(100).is_none() && c.close_block(100).is_none());
        c.skew_len();
        assert_ne!(c.len(), c.occupied_slots());
    }

    #[test]
    fn slc_list_follows_opens_closes_and_restores() {
        let mut c = CacheMeta::with_blocks(8);
        let open = |c: &mut CacheMeta, idx: u32, level| {
            c.open_block(idx as u64, BlockAddr::new(0, 0, 0, 0, idx), level, 4, 4)
        };
        open(&mut c, 1, BlockLevel::Work);
        open(&mut c, 2, BlockLevel::HighDensity);
        open(&mut c, 3, BlockLevel::Hot);
        open(&mut c, 4, BlockLevel::Monitor);
        // SLC opens append `(opened_seq, index)`; the MLC open adds nothing.
        assert_eq!(c.slc_entries(), &[(0, 1), (2, 3), (3, 4)]);
        assert_eq!(c.check_slc_list(), Ok(()));

        // Closing the middle entry moves the last one into its place, and
        // the moved block's stored position follows, so closing it next
        // removes the right entry.
        c.close_block(3);
        assert_eq!(c.slc_entries(), &[(0, 1), (3, 4)]);
        assert_eq!(c.check_slc_list(), Ok(()));
        c.close_block(4);
        assert_eq!(c.slc_entries(), &[(0, 1)]);
        c.close_block(2);
        assert_eq!(c.slc_entries(), &[(0, 1)]);
        assert_eq!(c.check_slc_list(), Ok(()));

        // A restored block joins with its original open order.
        c.restore_block(6, BlockAddr::new(0, 0, 0, 0, 6), BlockLevel::Work, 41, 4, 4);
        assert_eq!(c.slc_entries(), &[(0, 1), (41, 6)]);
        assert_eq!(c.check_slc_list(), Ok(()));

        c.skew_slc_entry(1);
        let err = c.check_slc_list().unwrap_err();
        assert!(err.contains("entry 1 names block 6 opened at 42"), "{err}");
    }

    #[test]
    fn restore_rebuilds_aggregates_like_live_programs() {
        let mut lab = Lab::new();
        lab.program(0, 2, 2, 100); // page 0's first program sits at its end
        lab.program(0, 0, 1, 900); // follow-up → page 0 updated
        lab.program(1, 0, 3, 400);
        lab.invalidate(1, 2);
        lab.invalidate(0, 3);

        let mut c = CacheMeta::new();
        c.restore_block(Lab::IDX, addr(), BlockLevel::Work, 0, 4, 4)
            .restore_from(lab.dev.block(addr()), &lab.tags);
        let (live, restored) = (lab.m(), c.get(Lab::IDX).unwrap());
        assert_eq!(restored.valid_count(), 4); // (0,0), (0,2), (1,0), (1,1)
        assert_eq!(restored.j_count(), 2); // page 1's two valid subpages
        assert_eq!(restored.cold_mask_words(), live.cold_mask_words());
        assert_eq!(restored.sum_written_valid(), live.sum_written_valid());
        assert_eq!(restored.sum_written_cold(), live.sum_written_cold());
        // The newest write counts although its subpage is gone.
        assert_eq!(restored.newest_written(), 900);
        assert_eq!(restored.newest_written(), live.newest_written());
    }

    #[test]
    fn region_filters_split_by_level() {
        let mut c = CacheMeta::new();
        c.open_block(1, BlockAddr::new(0, 0, 0, 0, 1), BlockLevel::Work, 4, 4);
        c.open_block(
            2,
            BlockAddr::new(0, 0, 0, 0, 2),
            BlockLevel::HighDensity,
            8,
            4,
        );
        c.open_block(3, BlockAddr::new(0, 0, 0, 0, 3), BlockLevel::Hot, 4, 4);
        assert_eq!(c.slc_blocks().count(), 2);
        assert_eq!(c.mlc_blocks().count(), 1);
    }
}
