//! Bucketed priority index over SLC GC candidates.
//!
//! Every scheme's SLC garbage collector used to pick its victim with a linear
//! scan over all in-use cache blocks, recomputing each block's score from
//! scratch. [`VictimIndex`] replaces those scans: the greedy score (invalid
//! subpage count) is cached per member and bucketed, so selection scans the
//! highest non-empty bucket, and score updates are O(1) slot-map moves driven
//! by the same events the FTL already handles (block open, subpage
//! invalidate, block close).
//!
//! The index reproduces the retired linear scan *exactly*: the winner is the
//! member with the highest score, ties broken toward the smallest
//! `opened_seq` (FIFO), which is precisely `max_by` over
//! `(score, Reverse(seq))` as [`crate::gc::select_greedy`] computes it.
//! Buckets are unordered internally — selection takes the minimum
//! `(opened_seq, block index)` over the bucket's eligible entries, which is
//! the same winner an ordered walk would return. Equivalence is pinned by
//! property tests against the retained oracle.
//!
//! ISR selection shares the index's membership set (all in-use SLC blocks),
//! walking the buckets' dense entries via [`VictimIndex::entries`] in one
//! pass: it bounds every candidate in O(1) with
//! [`crate::gc::isr_jensen_bound`], scores the best-bounded candidate
//! exactly, and scores the rest only where the bound reaches the running
//! best (see `FtlCore::select_slc_victim_isr`).

/// Per-member record: cached score, open order, and the member's position in
/// its score bucket (for O(1) swap-removal).
#[derive(Debug, Clone, Copy)]
struct Member {
    score: u32,
    seq: u64,
    pos: u32,
}

/// Priority index over in-use SLC blocks, keyed by cached greedy score.
#[derive(Debug, Clone, Default)]
pub struct VictimIndex {
    /// Dense block index → membership record (`None` = not indexed).
    members: Vec<Option<Member>>,
    /// score → unordered `(opened_seq, block index)` entries at that score.
    buckets: Vec<Vec<(u64, u64)>>,
    len: usize,
}

impl VictimIndex {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of indexed blocks.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `block_idx` is indexed.
    pub fn contains(&self, block_idx: u64) -> bool {
        self.members
            .get(block_idx as usize)
            .is_some_and(|m| m.is_some())
    }

    /// Drops all members (power-loss rebuild). Keeps allocated capacity.
    pub fn clear(&mut self) {
        self.members.clear();
        for b in &mut self.buckets {
            b.clear();
        }
        self.len = 0;
    }

    /// Detaches `block_idx` from its bucket, patching the swapped entry's
    /// back-pointer, and returns its record.
    fn detach(&mut self, block_idx: u64) -> Option<Member> {
        let m = self.members.get_mut(block_idx as usize)?.take()?;
        let bucket = &mut self.buckets[m.score as usize];
        bucket.swap_remove(m.pos as usize);
        if let Some(&(_, moved)) = bucket.get(m.pos as usize) {
            if let Some(Some(mm)) = self.members.get_mut(moved as usize) {
                mm.pos = m.pos;
            }
        }
        Some(m)
    }

    /// Appends an entry to the `score` bucket and records its position.
    fn attach(&mut self, block_idx: u64, seq: u64, score: u32) {
        let need = score as usize + 1;
        if self.buckets.len() < need {
            self.buckets.resize_with(need, Vec::new);
        }
        let bucket = &mut self.buckets[score as usize];
        let pos = bucket.len() as u32;
        bucket.push((seq, block_idx));
        if self.members.len() <= block_idx as usize {
            self.members.resize(block_idx as usize + 1, None);
        }
        self.members[block_idx as usize] = Some(Member { score, seq, pos });
    }

    /// Adds a block with its current score (0 for a freshly-opened block).
    pub fn insert(&mut self, block_idx: u64, opened_seq: u64, score: u32) {
        debug_assert!(!self.contains(block_idx), "block {block_idx} indexed twice");
        self.attach(block_idx, opened_seq, score);
        self.len += 1;
    }

    /// Removes a block (erased, retired, or reclaimed). No-op if absent.
    pub fn remove(&mut self, block_idx: u64) {
        if self.detach(block_idx).is_some() {
            self.len -= 1;
        }
    }

    /// Bumps a member's score by one invalidated subpage. No-op for
    /// non-members (e.g. invalidates landing in the MLC region).
    pub fn note_invalidated(&mut self, block_idx: u64) {
        if let Some(m) = self.detach(block_idx) {
            self.attach(block_idx, m.seq, m.score + 1);
        }
    }

    /// The greedy victim: highest score, ties to the oldest `opened_seq`,
    /// skipping blocks for which `skip` returns true (active write targets).
    pub fn select_greedy(&self, mut skip: impl FnMut(u64) -> bool) -> Option<u64> {
        for bucket in self.buckets.iter().rev() {
            let winner = bucket
                .iter()
                .filter(|&&(_, idx)| !skip(idx))
                .min()
                .map(|&(_, idx)| idx);
            if winner.is_some() {
                return winner;
            }
        }
        None
    }

    /// Iterates `(opened_seq, block_idx)` over every member, bucket by
    /// bucket. The order is unspecified; it touches only the dense bucket
    /// entries, never the sparse per-block member table.
    pub fn entries(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().flatten().copied()
    }

    /// Cached score of a member (test introspection).
    pub fn score_of(&self, block_idx: u64) -> Option<u32> {
        self.members
            .get(block_idx as usize)
            .and_then(|m| m.map(|m| m.score))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selects_highest_score_then_oldest_seq() {
        let mut ix = VictimIndex::new();
        ix.insert(10, 5, 2);
        ix.insert(11, 3, 2); // same score, older → wins the tie
        ix.insert(12, 1, 1);
        assert_eq!(ix.select_greedy(|_| false), Some(11));
        ix.note_invalidated(12);
        ix.note_invalidated(12); // 12 now at score 3 → outranks both
        assert_eq!(ix.select_greedy(|_| false), Some(12));
        assert_eq!(ix.score_of(12), Some(3));
    }

    #[test]
    fn skip_filters_active_blocks_across_buckets() {
        let mut ix = VictimIndex::new();
        ix.insert(1, 1, 4);
        ix.insert(2, 2, 0);
        assert_eq!(ix.select_greedy(|i| i == 1), Some(2));
        assert_eq!(ix.select_greedy(|_| true), None);
    }

    #[test]
    fn remove_and_clear_forget_members() {
        let mut ix = VictimIndex::new();
        ix.insert(1, 1, 0);
        ix.insert(2, 2, 7);
        ix.remove(2);
        assert!(!ix.contains(2));
        assert_eq!(ix.select_greedy(|_| false), Some(1));
        ix.remove(2); // double-remove is a no-op
        ix.clear();
        assert!(ix.is_empty());
        assert_eq!(ix.select_greedy(|_| false), None);
    }

    #[test]
    fn entries_cover_every_member_once() {
        let mut ix = VictimIndex::new();
        ix.insert(7, 1, 0);
        ix.insert(3, 2, 5);
        ix.insert(9, 3, 5);
        ix.note_invalidated(7);
        ix.remove(3);
        let mut seen: Vec<(u64, u64)> = ix.entries().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![(1, 7), (3, 9)]);
    }

    #[test]
    fn zero_score_members_are_still_eligible() {
        // A cache full of valid data degenerates to FIFO eviction: the index
        // must return the oldest zero-score member, like the linear oracle.
        let mut ix = VictimIndex::new();
        ix.insert(4, 9, 0);
        ix.insert(5, 2, 0);
        assert_eq!(ix.select_greedy(|_| false), Some(5));
    }

    #[test]
    fn swap_removal_keeps_positions_consistent() {
        // Three same-score members; removing the middle one swaps the last
        // into its bucket slot — the swapped member must stay addressable.
        let mut ix = VictimIndex::new();
        ix.insert(1, 10, 3);
        ix.insert(2, 20, 3);
        ix.insert(3, 30, 3);
        ix.remove(2);
        ix.note_invalidated(3); // would corrupt if 3's position went stale
        assert_eq!(ix.score_of(3), Some(4));
        assert_eq!(ix.select_greedy(|_| false), Some(3));
        assert_eq!(ix.len(), 2);
    }
}
