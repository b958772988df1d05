//! Physical block, page and subpage state.
//!
//! A page is divided into [`MAX_SUBPAGES_PER_PAGE`] subpages (the paper uses 4).
//! Subpages move `Free → Valid → Invalid` and only an erase returns them to
//! `Free`. Each page additionally tracks how many *program operations* it has
//! received (the NOP budget — capped at 4 for SLC-mode per the Micron/Samsung
//! datasheets cited by the paper) and per-subpage disturb counters that feed the
//! error model:
//!
//! * `in_page_disturbs[s]` — how many later partial programs hit the same page
//!   *after* subpage `s` was programmed (Figure 1's "affected in-page cells");
//! * `neighbour_disturbs` — how many program operations landed on adjacent word
//!   lines of the same block while this page held programmed data.
//!
//! A block holds no page array until its first state change after an erase:
//! a replay programs only a fraction of a device's blocks, so building a
//! device and erasing a block cost O(1) per block, not O(pages).

use serde::{Deserialize, Serialize};

use crate::mode::CellMode;

/// Upper bound on subpages per page supported by the fixed-size state arrays.
pub const MAX_SUBPAGES_PER_PAGE: usize = 8;

/// Manufacturer NOP limit: maximum program operations per SLC-mode page.
pub const MAX_PARTIAL_PROGRAMS_SLC: u8 = 4;

/// State of one subpage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SubpageState {
    /// Erased, never programmed since the last block erase.
    Free,
    /// Programmed and holding live data.
    Valid,
    /// Programmed but superseded; space is reclaimed only by erasing the block.
    Invalid,
}

/// State of one page: subpage states, program-op budget and disturb counters.
///
/// The disturb counters are stored in bytes, so a page is 19 bytes. A page
/// takes at most one program per subpage between erases, since a program
/// needs free subpages, so a subpage sees at most
/// `MAX_SUBPAGES_PER_PAGE - 1` = 7 later programs on its page and a page at
/// most `2 * MAX_SUBPAGES_PER_PAGE` = 16 programs on its two neighbours.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageState {
    subpages: [SubpageState; MAX_SUBPAGES_PER_PAGE],
    /// Number of subpages actually exposed by the geometry.
    subpage_count: u8,
    /// Number of program operations this page has received since erase.
    program_ops: u8,
    /// Per-subpage count of later program ops on this page (in-page disturb).
    in_page_disturbs: [u8; MAX_SUBPAGES_PER_PAGE],
    /// Count of program ops on adjacent pages while this page was programmed.
    neighbour_disturbs: u8,
}

const _: () = assert!(std::mem::size_of::<PageState>() <= 20);

impl PageState {
    /// A fresh (erased) page exposing `subpage_count` subpages.
    pub fn erased(subpage_count: u8) -> Self {
        assert!(
            (1..=MAX_SUBPAGES_PER_PAGE as u8).contains(&subpage_count),
            "subpage count {subpage_count} out of range"
        );
        Self::erased_unchecked(subpage_count)
    }

    const fn erased_unchecked(subpage_count: u8) -> Self {
        PageState {
            subpages: [SubpageState::Free; MAX_SUBPAGES_PER_PAGE],
            subpage_count,
            program_ops: 0,
            in_page_disturbs: [0; MAX_SUBPAGES_PER_PAGE],
            neighbour_disturbs: 0,
        }
    }

    /// Number of subpages this page exposes.
    #[inline]
    pub fn subpage_count(&self) -> u8 {
        self.subpage_count
    }

    /// State of subpage `s`.
    #[inline]
    pub fn subpage(&self, s: u8) -> SubpageState {
        assert!(s < self.subpage_count, "subpage {s} out of range");
        self.subpages[s as usize]
    }

    /// Program operations received since the last erase.
    #[inline]
    pub fn program_ops(&self) -> u8 {
        self.program_ops
    }

    /// In-page disturb count accumulated by subpage `s`.
    #[inline]
    pub fn in_page_disturbs(&self, s: u8) -> u16 {
        assert!(s < self.subpage_count);
        self.in_page_disturbs[s as usize] as u16
    }

    /// Neighbour disturb count accumulated by this page.
    #[inline]
    pub fn neighbour_disturbs(&self) -> u16 {
        self.neighbour_disturbs as u16
    }

    /// Whether any subpage has been programmed (valid *or* invalid).
    pub fn is_programmed(&self) -> bool {
        self.iter_subpages().any(|s| s != SubpageState::Free)
    }

    /// Number of subpages in `state`.
    pub fn count(&self, state: SubpageState) -> u8 {
        self.iter_subpages().filter(|&s| s == state).count() as u8
    }

    /// Iterates the states of the exposed subpages.
    pub fn iter_subpages(&self) -> impl Iterator<Item = SubpageState> + '_ {
        self.subpages[..self.subpage_count as usize].iter().copied()
    }

    /// Lowest free subpage index such that `count` contiguous subpages starting
    /// there are all free, or `None` if no such run exists.
    ///
    /// Partial programming hardware programs a contiguous run of bit-line
    /// groups, so allocation within a page is contiguous-run based.
    pub fn find_free_run(&self, count: u8) -> Option<u8> {
        if count == 0 || count > self.subpage_count {
            return None;
        }
        'outer: for start in 0..=(self.subpage_count - count) {
            for s in start..start + count {
                if self.subpages[s as usize] != SubpageState::Free {
                    continue 'outer;
                }
            }
            return Some(start);
        }
        None
    }

    /// Records a program operation covering `[start, start+count)`.
    ///
    /// Returns the number of previously-programmed subpages in this page that
    /// this operation disturbed. Panics if the run is out of range; returns
    /// `Err` if any target subpage is not free.
    pub(crate) fn apply_program(&mut self, start: u8, count: u8) -> Result<u16, ProgramStateError> {
        assert!(
            count > 0 && start + count <= self.subpage_count,
            "program run out of range"
        );
        for s in start..start + count {
            if self.subpages[s as usize] != SubpageState::Free {
                return Err(ProgramStateError::SubpageNotFree(s));
            }
        }
        // Disturb every subpage programmed by an *earlier* operation.
        let mut disturbed = 0u16;
        if self.program_ops > 0 {
            for s in 0..self.subpage_count {
                if (s < start || s >= start + count)
                    && self.subpages[s as usize] != SubpageState::Free
                {
                    self.in_page_disturbs[s as usize] += 1;
                    disturbed += 1;
                }
            }
        }
        for s in start..start + count {
            self.subpages[s as usize] = SubpageState::Valid;
        }
        self.program_ops += 1;
        Ok(disturbed)
    }

    /// Records a program on an adjacent page; disturbs this page if programmed.
    ///
    /// Returns the number of programmed subpages that were disturbed.
    pub(crate) fn apply_neighbour_disturb(&mut self) -> u16 {
        if self.is_programmed() {
            self.neighbour_disturbs += 1;
            self.iter_subpages()
                .filter(|&s| s != SubpageState::Free)
                .count() as u16
        } else {
            0
        }
    }

    /// Marks a valid subpage invalid (logical overwrite / trim).
    pub(crate) fn invalidate(&mut self, s: u8) -> Result<(), ProgramStateError> {
        assert!(s < self.subpage_count);
        let cur = self.subpages[s as usize];
        if cur != SubpageState::Valid {
            return Err(ProgramStateError::NotValid(s, cur));
        }
        self.subpages[s as usize] = SubpageState::Invalid;
        Ok(())
    }
}

/// Errors from page-level state transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramStateError {
    /// Attempted to program a subpage that is not free.
    SubpageNotFree(u8),
    /// Attempted to invalidate a subpage that is not valid.
    NotValid(u8, SubpageState),
}

impl std::fmt::Display for ProgramStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramStateError::SubpageNotFree(s) => {
                write!(f, "subpage {s} is not free")
            }
            ProgramStateError::NotValid(s, st) => {
                write!(f, "subpage {s} is {st:?}, expected Valid")
            }
        }
    }
}

impl std::error::Error for ProgramStateError {}

/// One erased page per subpage count, at index `subpage_count - 1`: what
/// [`BlockState::page`] returns for a block that holds no page array.
static ERASED_PAGES: [PageState; MAX_SUBPAGES_PER_PAGE] = {
    let mut pages = [const { PageState::erased_unchecked(1) }; MAX_SUBPAGES_PER_PAGE];
    let mut i = 1;
    while i < MAX_SUBPAGES_PER_PAGE {
        pages[i] = PageState::erased_unchecked(i as u8 + 1);
        i += 1;
    }
    pages
};

/// State of one block: its mode, page states, read count and cached
/// validity totals. Its erase count lives in the device's `WearTracker`.
///
/// A fresh or erased block is only a header: mode, page count, subpage
/// count and the cached counters. Its page array stays empty, and [`page`]
/// answers with a shared erased page, until the first program, invalidate
/// or `page_mut` fills in `page_count` erased pages. An erase empties the
/// array again but keeps its allocation for the block's next cycle.
///
/// Validity totals (`valid_subpages`, `invalid_subpages`) are cached and
/// maintained by the block-level transition methods so GC victim scoring
/// reads them in O(1) instead of rescanning every page. All state
/// transitions must therefore go through the crate-internal
/// `apply_program_at` / `invalidate_at` / `erase` methods; `page_mut`
/// exists only for transitions that do not change subpage validity
/// (disturb accounting).
///
/// [`page`]: BlockState::page
#[derive(Debug, Clone)]
pub struct BlockState {
    mode: CellMode,
    /// Pages exposed in the current mode.
    page_count: u32,
    /// Subpages per page.
    subpages: u8,
    /// Either empty (no page changed state since the last erase) or exactly
    /// `page_count` pages.
    pages: Vec<PageState>,
    /// Read operations served by this block since the last erase (feeds the
    /// optional read-disturb model).
    reads_since_erase: u64,
    /// Cached count of `Valid` subpages across all pages.
    valid_subpages: u32,
    /// Cached count of `Invalid` subpages across all pages.
    invalid_subpages: u32,
}

impl BlockState {
    /// A freshly-erased block in `mode` with `pages` pages of `subpages` each.
    pub fn erased(mode: CellMode, pages: u32, subpages: u8) -> Self {
        assert!(
            (1..=MAX_SUBPAGES_PER_PAGE as u8).contains(&subpages),
            "subpage count {subpages} out of range"
        );
        BlockState {
            mode,
            page_count: pages,
            subpages,
            pages: Vec::new(),
            reads_since_erase: 0,
            valid_subpages: 0,
            invalid_subpages: 0,
        }
    }

    /// Current cell mode.
    #[inline]
    pub fn mode(&self) -> CellMode {
        self.mode
    }

    /// Number of pages exposed in the current mode.
    #[inline]
    pub fn page_count(&self) -> u32 {
        self.page_count
    }

    /// Immutable page state access. Panics if `page` is out of range.
    #[inline]
    pub fn page(&self, page: u32) -> &PageState {
        match self.pages.get(page as usize) {
            Some(p) => p,
            None => self.unwritten_page(page),
        }
    }

    /// [`BlockState::page`] for a block that holds no page array.
    #[cold]
    fn unwritten_page(&self, page: u32) -> &'static PageState {
        assert!(
            self.pages.is_empty() && page < self.page_count,
            "page {page} out of range for a block of {} pages",
            self.page_count
        );
        &ERASED_PAGES[self.subpages as usize - 1]
    }

    /// Fills in `page_count` erased pages if the block holds no page array.
    fn materialize(&mut self) {
        if self.pages.is_empty() {
            self.pages
                .resize(self.page_count as usize, PageState::erased(self.subpages));
        }
    }

    /// Whether the block holds a page array (test probe).
    #[cfg(test)]
    pub(crate) fn has_page_array(&self) -> bool {
        !self.pages.is_empty()
    }

    /// Mutable page access for validity-neutral transitions (disturb
    /// accounting). Validity transitions must use `apply_program_at` /
    /// `invalidate_at` so the cached block totals stay correct.
    pub(crate) fn page_mut(&mut self, page: u32) -> &mut PageState {
        self.materialize();
        &mut self.pages[page as usize]
    }

    /// Programs `[start, start+count)` of `page`, maintaining the cached
    /// validity totals. Returns the in-page disturb count.
    pub(crate) fn apply_program_at(
        &mut self,
        page: u32,
        start: u8,
        count: u8,
    ) -> Result<u16, ProgramStateError> {
        self.materialize();
        let disturbed = self.pages[page as usize].apply_program(start, count)?;
        self.valid_subpages += count as u32;
        Ok(disturbed)
    }

    /// Invalidates subpage `s` of `page`, maintaining the cached totals.
    pub(crate) fn invalidate_at(&mut self, page: u32, s: u8) -> Result<(), ProgramStateError> {
        self.materialize();
        self.pages[page as usize].invalidate(s)?;
        self.valid_subpages -= 1;
        self.invalid_subpages += 1;
        Ok(())
    }

    pub(crate) fn note_read(&mut self) {
        self.reads_since_erase += 1;
    }

    /// Reads served since the last erase (read-disturb accumulation).
    #[inline]
    pub fn reads_since_erase(&self) -> u64 {
        self.reads_since_erase
    }

    /// Erases the block into `mode` with `pages` pages of `subpages` each.
    /// The page array is emptied, its allocation kept. Records no wear:
    /// the device charges an erase pulse to its `WearTracker`.
    pub(crate) fn erase(&mut self, mode: CellMode, pages: u32, subpages: u8) {
        self.mode = mode;
        self.page_count = pages;
        self.subpages = subpages;
        self.pages.clear();
        self.reads_since_erase = 0;
        self.valid_subpages = 0;
        self.invalid_subpages = 0;
    }

    /// Total subpages across all pages. O(1): all pages share one geometry.
    pub fn total_subpages(&self) -> u32 {
        self.page_count * self.subpages as u32
    }

    /// Subpages currently in `state` across all pages. O(1) from the cached
    /// block totals.
    pub fn count_subpages(&self, state: SubpageState) -> u32 {
        match state {
            SubpageState::Valid => self.valid_subpages,
            SubpageState::Invalid => self.invalid_subpages,
            SubpageState::Free => {
                self.total_subpages() - self.valid_subpages - self.invalid_subpages
            }
        }
    }

    /// Bytes the block's page array holds (allocated capacity; 0 for a
    /// block never programmed).
    pub fn page_state_bytes(&self) -> usize {
        self.pages.capacity() * std::mem::size_of::<PageState>()
    }

    /// Whether every page is fully free (freshly erased, never programmed).
    pub fn is_pristine(&self) -> bool {
        self.valid_subpages == 0 && self.invalid_subpages == 0
    }

    /// Recomputes the cached validity totals from page state and compares;
    /// used by the FTL's invariant checker (tests / debug sweeps only). A
    /// block with no page array must have every total at zero.
    pub fn counters_consistent(&self) -> bool {
        let valid: u32 = self
            .pages
            .iter()
            .map(|p| p.count(SubpageState::Valid) as u32)
            .sum();
        let invalid: u32 = self
            .pages
            .iter()
            .map(|p| p.count(SubpageState::Invalid) as u32)
            .sum();
        (self.pages.is_empty() || self.pages.len() == self.page_count as usize)
            && valid == self.valid_subpages
            && invalid == self.invalid_subpages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page4() -> PageState {
        PageState::erased(4)
    }

    #[test]
    fn fresh_page_is_all_free() {
        let p = page4();
        assert_eq!(p.count(SubpageState::Free), 4);
        assert_eq!(p.program_ops(), 0);
        assert!(!p.is_programmed());
    }

    #[test]
    fn first_program_disturbs_nothing_in_page() {
        let mut p = page4();
        let disturbed = p.apply_program(0, 2).unwrap();
        assert_eq!(disturbed, 0);
        assert_eq!(p.count(SubpageState::Valid), 2);
        assert_eq!(p.program_ops(), 1);
    }

    #[test]
    fn partial_program_disturbs_earlier_data() {
        let mut p = page4();
        p.apply_program(0, 2).unwrap();
        let disturbed = p.apply_program(2, 1).unwrap();
        assert_eq!(disturbed, 2);
        assert_eq!(p.in_page_disturbs(0), 1);
        assert_eq!(p.in_page_disturbs(1), 1);
        assert_eq!(p.in_page_disturbs(2), 0);
        // A third program disturbs all three earlier subpages, valid or not.
        p.invalidate(0).unwrap();
        let disturbed = p.apply_program(3, 1).unwrap();
        assert_eq!(disturbed, 3);
        assert_eq!(p.in_page_disturbs(0), 2);
    }

    #[test]
    fn cannot_program_occupied_subpage() {
        let mut p = page4();
        p.apply_program(1, 1).unwrap();
        assert_eq!(
            p.apply_program(1, 1),
            Err(ProgramStateError::SubpageNotFree(1))
        );
        // State unchanged by the failed attempt.
        assert_eq!(p.program_ops(), 1);
    }

    #[test]
    fn find_free_run_respects_contiguity() {
        let mut p = page4();
        p.apply_program(1, 1).unwrap(); // occupy subpage 1 → free: [0], [2,3]
        assert_eq!(p.find_free_run(1), Some(0));
        assert_eq!(p.find_free_run(2), Some(2));
        assert_eq!(p.find_free_run(3), None);
        assert_eq!(p.find_free_run(0), None);
        assert_eq!(p.find_free_run(5), None);
    }

    #[test]
    fn invalidate_requires_valid() {
        let mut p = page4();
        assert!(p.invalidate(0).is_err());
        p.apply_program(0, 1).unwrap();
        p.invalidate(0).unwrap();
        assert!(p.invalidate(0).is_err());
        assert_eq!(p.count(SubpageState::Invalid), 1);
    }

    #[test]
    fn neighbour_disturb_only_hits_programmed_pages() {
        let mut p = page4();
        assert_eq!(p.apply_neighbour_disturb(), 0);
        assert_eq!(p.neighbour_disturbs(), 0);
        p.apply_program(0, 3).unwrap();
        assert_eq!(p.apply_neighbour_disturb(), 3);
        assert_eq!(p.neighbour_disturbs(), 1);
    }

    #[test]
    fn block_erase_switches_mode_and_resets() {
        let mut b = BlockState::erased(CellMode::Slc, 4, 4);
        b.apply_program_at(0, 0, 4).unwrap();
        assert_eq!(b.count_subpages(SubpageState::Valid), 4);
        assert!(!b.is_pristine());
        assert!(b.counters_consistent());

        b.erase(CellMode::Mlc, 8, 4);
        assert_eq!(b.mode(), CellMode::Mlc);
        assert_eq!(b.page_count(), 8);
        assert!(b.is_pristine());
        assert_eq!(b.total_subpages(), 32);
    }

    #[test]
    fn subpage_accounting_is_conserved() {
        let mut b = BlockState::erased(CellMode::Slc, 2, 4);
        b.apply_program_at(0, 0, 2).unwrap();
        b.apply_program_at(0, 2, 1).unwrap();
        b.invalidate_at(0, 1).unwrap();
        b.apply_program_at(1, 0, 4).unwrap();
        let total = b.total_subpages();
        let sum = b.count_subpages(SubpageState::Free)
            + b.count_subpages(SubpageState::Valid)
            + b.count_subpages(SubpageState::Invalid);
        assert_eq!(total, sum);
        assert_eq!(b.count_subpages(SubpageState::Invalid), 1);
        assert_eq!(b.count_subpages(SubpageState::Valid), 6);
        assert!(b.counters_consistent());
    }

    #[test]
    fn page_array_is_filled_on_first_change_and_emptied_by_erase() {
        let mut b = BlockState::erased(CellMode::Mlc, 8, 4);
        assert!(b.pages.is_empty(), "a fresh block is only a header");
        assert!(b.counters_consistent());
        assert_eq!(b.total_subpages(), 32);
        assert_eq!(b.page(7), &PageState::erased(4));

        b.apply_program_at(3, 0, 2).unwrap();
        assert_eq!(b.pages.len(), 8, "the first program fills every page");
        assert_eq!(b.page(3).count(SubpageState::Valid), 2);
        assert_eq!(b.page(7), &PageState::erased(4));
        assert!(b.counters_consistent());

        let capacity = b.pages.capacity();
        b.erase(CellMode::Slc, 4, 4);
        assert!(b.pages.is_empty(), "an erased block is only a header");
        assert_eq!(b.pages.capacity(), capacity, "erase keeps the allocation");
        assert_eq!(b.page_count(), 4);
        assert_eq!(b.total_subpages(), 16);
        assert!(b.counters_consistent());
    }

    #[test]
    fn invalidate_and_page_mut_fill_the_page_array() {
        let mut b = BlockState::erased(CellMode::Slc, 4, 4);
        assert_eq!(
            b.invalidate_at(2, 1),
            Err(ProgramStateError::NotValid(1, SubpageState::Free))
        );
        assert_eq!(b.pages.len(), 4);
        assert!(b.is_pristine() && b.counters_consistent());

        b.erase(CellMode::Slc, 4, 4);
        assert_eq!(b.page_mut(0).apply_neighbour_disturb(), 0);
        assert_eq!(b.pages.len(), 4);
        assert!(b.counters_consistent());
    }

    #[test]
    fn unfilled_block_reads_erased_pages_of_its_subpage_count() {
        for n in 1..=MAX_SUBPAGES_PER_PAGE as u8 {
            let b = BlockState::erased(CellMode::Slc, 2, n);
            assert_eq!(b.page(1), &PageState::erased(n));
            assert_eq!(b.total_subpages(), 2 * n as u32);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unfilled_block_bounds_checks_pages() {
        BlockState::erased(CellMode::Slc, 4, 4).page(4);
    }
}
