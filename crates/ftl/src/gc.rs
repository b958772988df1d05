//! GC victim-selection policies.
//!
//! * [`select_greedy`] — the conventional greedy policy (paper §3.2): pick the
//!   block with the most invalid subpages.
//! * [`select_isr`] — the paper's policy (Equations 1–2): pick the block with
//!   the largest *invalid subpage ratio*, where never-updated (cold) valid
//!   subpages contribute an age-dependent weight so that cold blocks are
//!   preferentially collected and their data demoted out of the cache.
//! * [`isr_score_fast`] and [`isr_jensen_bound`] — the incremental ISR score
//!   and its O(1) upper bound, which together let the FTL's victim selection
//!   score about one candidate exactly per GC round.

use ipu_flash::{BlockState, Nanos, SubpageState};

use crate::cache_meta::{written_at, BlockMeta};
use crate::schemes::common::SubTag;

/// Greedy score: the block's invalid subpages (partial-programming aware,
/// as MGA counts them). O(1): `ipu-flash` caches the count per block.
pub fn greedy_score(block: &BlockState) -> u64 {
    block.count_subpages(SubpageState::Invalid) as u64
}

/// Selects the candidate with the highest greedy score.
///
/// Ties (including an all-zero field, which happens when the cache is full of
/// valid data and GC degenerates to eviction) break toward the *oldest* block
/// (smallest `opened_seq`) — FIFO rotation keeps eviction-mode GC from
/// hammering a single plane and gives plain cache-eviction semantics.
pub fn select_greedy<'a>(
    candidates: impl Iterator<Item = (u64, &'a BlockState, u64)>,
) -> Option<u64> {
    candidates
        .map(|(idx, block, seq)| (greedy_score(block), std::cmp::Reverse(seq), idx))
        .max()
        .map(|(_, _, idx)| idx)
}

/// The paper's Equation 2: weight of the never-updated valid subpages.
///
/// `IS'_i = Σ_{j ∈ J} (1 − e^(−t_ij / T_i))` where `J` indexes valid subpages
/// in pages that never received an intra-page update, `t_ij` is the time since
/// subpage `j` was written, and `T_i` is the mean such age over *all* valid
/// subpages of the block (the exponential-interarrival parameter).
///
/// Computed from scratch from the block's sources: validity from the device,
/// write times from `tags` (the block's OOB tags, page-major), and a page
/// counts as updated once it has taken a second program.
pub fn cold_valid_weight(block: &BlockState, tags: &[SubTag], now: Nanos) -> f64 {
    // Write times of the valid subpages, in (page, subpage) order, with
    // whether their page was never updated.
    let valid = (0..block.page_count()).flat_map(|p| {
        let page = block.page(p);
        let n = page.subpage_count();
        (0..n)
            .filter(move |&s| page.subpage(s) == SubpageState::Valid)
            .map(move |s| {
                let written = written_at(tags, (p * n as u32 + s as u32) as usize);
                (written, page.program_ops() < 2)
            })
    });
    let mut ages_sum = 0.0f64;
    let mut valid_count = 0u32;
    for (written, _) in valid.clone() {
        ages_sum += now.saturating_sub(written) as f64;
        valid_count += 1;
    }
    if valid_count == 0 {
        return 0.0;
    }
    let t_mean = (ages_sum / valid_count as f64).max(1.0);

    let mut weight = 0.0;
    // Hot pages' data was updated in place: excluded from J.
    for (written, _) in valid.filter(|&(_, cold)| cold) {
        let age = now.saturating_sub(written) as f64;
        weight += 1.0 - (-age / t_mean).exp();
    }
    weight
}

/// The paper's Equation 1: `ISR_i = (IS_i + IS'_i) / TS_i`, from scratch
/// (see [`cold_valid_weight`]).
///
/// ```
/// use ipu_flash::{BlockAddr, CellMode, DeviceConfig, FlashDevice, Spa};
/// use ipu_ftl::{isr_score, SubTag};
///
/// let mut dev = FlashDevice::new(DeviceConfig::small_for_tests());
/// let addr = BlockAddr::new(0, 0, 0, 0, 0);
/// dev.set_block_mode(addr, CellMode::Slc);
/// dev.program(Spa::new(addr.page(0), 0), 4).unwrap();
/// dev.invalidate(Spa::new(addr.page(0), 0)).unwrap();
///
/// // Page 0's four subpages were written at 1 ns (LSNs 0..4).
/// let mut tags = vec![SubTag::default(); 16];
/// for s in 0..4 {
///     tags[s] = SubTag::new(s as u64, 1, false);
/// }
///
/// // 1 invalid subpage + 3 aged cold valid subpages over 16 total.
/// let isr = isr_score(dev.block(addr), &tags, 1_000_000_000);
/// assert!(isr > 1.0 / 16.0 && isr < 4.0 / 16.0 + 1e-9);
/// ```
pub fn isr_score(block: &BlockState, tags: &[SubTag], now: Nanos) -> f64 {
    let total = block.total_subpages();
    if total == 0 {
        return 0.0;
    }
    let invalid = block.count_subpages(SubpageState::Invalid) as f64;
    (invalid + cold_valid_weight(block, tags, now)) / total as f64
}

/// Eq. 2's `T_i` from the cached sums: the mean age of the block's valid
/// subpages, floored at 1 ns. `Σ(now − t_i) = n·now − Σt_i` is exact while
/// per-block age sums stay below 2^53 ns, i.e. at all simulation timescales.
/// Callers guarantee at least one valid subpage.
fn mean_valid_age(meta: &BlockMeta, now: Nanos) -> f64 {
    let valid_count = meta.valid_count();
    let ages_sum =
        (valid_count as u128 * now as u128).saturating_sub(meta.sum_written_valid()) as f64;
    (ages_sum / valid_count as f64).max(1.0)
}

/// Incremental (cached-aggregate) variant of [`cold_valid_weight`].
///
/// Produces the same value as the oracle *provided* the metadata's
/// aggregates follow the device and `tags` — which `FtlCore` maintains by
/// notifying the metadata on every program and invalidate. The mean-age pass
/// is replaced by the closed form of `mean_valid_age`, and the J-term walks
/// only the cold bitset's set bits in the oracle's (page, subpage) order,
/// reading each write time from its tag and reusing the previous `exp`
/// whenever consecutive subpages share a write timestamp (subpages
/// programmed by one operation always do).
pub fn cold_valid_weight_fast(meta: &BlockMeta, tags: &[SubTag], now: Nanos) -> f64 {
    if meta.valid_count() == 0 {
        return 0.0;
    }
    let t_mean = mean_valid_age(meta, now);

    let mut weight = 0.0;
    let mut last_t = Nanos::MAX;
    let mut last_w = 0.0;
    // Walk only the J-population (valid subpages of never-updated pages) via
    // the cold bitset; ascending set-bit order is the oracle's (page, subpage)
    // order, so the f64 summation is term-for-term identical.
    for (w, &word) in meta.cold_mask_words().iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let slot = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let t = written_at(tags, slot);
            if t != last_t {
                let age = now.saturating_sub(t) as f64;
                last_w = 1.0 - (-age / t_mean).exp();
                last_t = t;
            }
            weight += last_w;
        }
    }
    weight
}

/// Incremental variant of [`isr_score`]; same precondition as
/// [`cold_valid_weight_fast`].
pub fn isr_score_fast(block: &BlockState, meta: &BlockMeta, tags: &[SubTag], now: Nanos) -> f64 {
    let total = block.total_subpages();
    if total == 0 {
        return 0.0;
    }
    let invalid = block.count_subpages(SubpageState::Invalid) as f64;
    (invalid + cold_valid_weight_fast(meta, tags, now)) / total as f64
}

/// O(1) upper bound on [`isr_score`] and [`isr_score_fast`] (Jensen's
/// inequality), so victim selection scores a candidate exactly only when its
/// bound can reach the best exact score seen.
///
/// Each J-term `1 − e^(−x/T)` is concave in the age `x`, so the sum over the
/// `j` cold subpages is at most `j·(1 − e^(−ā/T))`, where `ā` is their mean
/// age — read from the cached cold timestamp sum — and `T` is exactly the
/// exact scorer's `mean_valid_age`. Equality holds when every cold subpage
/// shares one write time. The premise needs every age to be the affine
/// `now − t`; the exact scorer clamps a timestamp after `now` to age 0, so
/// when any was recorded after `now` the J-term bound falls back to `j`
/// (every term is below 1).
pub fn isr_jensen_bound(block: &BlockState, meta: &BlockMeta, now: Nanos) -> f64 {
    let total = block.total_subpages();
    if total == 0 {
        return 0.0;
    }
    let invalid = block.count_subpages(SubpageState::Invalid) as f64;
    let j = meta.j_count();
    let cold_bound = if j == 0 {
        0.0
    } else if meta.newest_written() > now {
        j as f64
    } else {
        let cold_ages = (j as u128 * now as u128).saturating_sub(meta.sum_written_cold()) as f64;
        j as f64 * (1.0 - (-(cold_ages / j as f64) / mean_valid_age(meta, now)).exp())
    };
    (invalid + cold_bound) / total as f64
}

/// Selects the candidate `(index, block, OOB tags, opened_seq)` with the
/// highest ISR score; ties break toward the oldest block (FIFO), as in
/// [`select_greedy`].
pub fn select_isr<'a>(
    candidates: impl Iterator<Item = (u64, &'a BlockState, &'a [SubTag], u64)>,
    now: Nanos,
) -> Option<u64> {
    candidates
        .map(|(idx, block, tags, seq)| (isr_score(block, tags, now), seq, idx))
        .max_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.1.cmp(&a.1)) // smaller seq wins ties
        })
        .map(|(_, _, idx)| idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipu_flash::{BlockAddr, CellMode, DeviceConfig, FlashDevice, Spa};

    /// Builds a 4-page SLC block; `pattern[p]` = (programmed subpages,
    /// invalidated subpages). With `updated`, each page takes its subpages
    /// in two programs, so the second is an intra-page update.
    fn build_block(
        dev: &mut FlashDevice,
        block: u32,
        pattern: &[(u8, u8)],
        updated: bool,
    ) -> BlockAddr {
        let addr = BlockAddr::new(0, 0, 0, 0, block);
        dev.set_block_mode(addr, CellMode::Slc);
        for (p, &(programmed, invalid)) in pattern.iter().enumerate() {
            let page = addr.page(p as u32);
            if updated && programmed > 1 {
                dev.program(Spa::new(page, 0), programmed / 2).unwrap();
                dev.program(Spa::new(page, programmed / 2), programmed - programmed / 2)
                    .unwrap();
            } else if programmed > 0 {
                dev.program(Spa::new(page, 0), programmed).unwrap();
            }
            for s in 0..invalid {
                dev.invalidate(Spa::new(page, s)).unwrap();
            }
        }
        addr
    }

    /// Tags for a 4-page block of 4-subpage pages whose page `p` was
    /// written at `times[p]`.
    fn tags(times: &[Nanos]) -> Vec<SubTag> {
        let mut tags = vec![SubTag::default(); 16];
        for (p, &t) in times.iter().enumerate() {
            for s in 0..4 {
                tags[p * 4 + s] = SubTag::new((p * 4 + s) as u64, t, false);
            }
        }
        tags
    }

    #[test]
    fn greedy_subpage_counts_invalids() {
        let mut dev = FlashDevice::new(DeviceConfig::small_for_tests());
        let a = build_block(&mut dev, 0, &[(4, 2), (4, 0)], false);
        assert_eq!(greedy_score(dev.block(a)), 2);
        let b = build_block(&mut dev, 1, &[(4, 4), (2, 1)], false);
        assert_eq!(greedy_score(dev.block(b)), 5);
    }

    #[test]
    fn select_greedy_prefers_most_invalid() {
        let mut dev = FlashDevice::new(DeviceConfig::small_for_tests());
        let a = build_block(&mut dev, 0, &[(4, 1), (0, 0)], false);
        let b = build_block(&mut dev, 1, &[(4, 3), (0, 0)], false);
        let g = dev.config().geometry.clone();
        let cands = vec![
            (g.block_index(a), dev.block(a), 0),
            (g.block_index(b), dev.block(b), 1),
        ];
        let winner = select_greedy(cands.into_iter()).unwrap();
        assert_eq!(winner, g.block_index(b));
    }

    #[test]
    fn greedy_ties_break_to_oldest_block() {
        let mut dev = FlashDevice::new(DeviceConfig::small_for_tests());
        let a = build_block(&mut dev, 0, &[(4, 2)], false);
        let b = build_block(&mut dev, 1, &[(4, 2)], false);
        let g = dev.config().geometry.clone();
        // Same score; block b was opened earlier (seq 3 vs 7) → b wins.
        let cands = vec![
            (g.block_index(a), dev.block(a), 7),
            (g.block_index(b), dev.block(b), 3),
        ];
        let winner = select_greedy(cands.into_iter()).unwrap();
        assert_eq!(winner, g.block_index(b));
    }

    #[test]
    fn select_greedy_handles_all_valid_cache() {
        let mut dev = FlashDevice::new(DeviceConfig::small_for_tests());
        let a = build_block(&mut dev, 0, &[(4, 0)], false);
        let g = dev.config().geometry.clone();
        // No invalid data anywhere: still returns a victim (pure eviction).
        let winner = select_greedy(vec![(g.block_index(a), dev.block(a), 0)].into_iter());
        assert_eq!(winner, Some(g.block_index(a)));
    }

    #[test]
    fn isr_matches_figure4_example() {
        // Figure 4(a): candidate A has 6 invalid of 16 subpages and hot valid
        // data (updated pages) → ISR = 6/16. Candidate B has 6 invalid and old
        // cold valid data worth ~0.9 → ISR ≈ 6.9/16 → B wins.
        let mut dev = FlashDevice::new(DeviceConfig::small_for_tests());
        let pattern = [(4, 2), (4, 2), (4, 2), (4, 0)];
        let a = build_block(&mut dev, 0, &pattern, true);
        let b = build_block(&mut dev, 1, &pattern, false);
        let g = dev.config().geometry.clone();
        let now = 1_000_000;
        // A: data written recently and updated in place (hot) → small IS'.
        let tags_a = tags(&[now - 10; 4]);
        // B: data written long ago, never updated (cold) → IS' near valid count.
        let tags_b = tags(&[1; 4]);

        let isr_a = isr_score(dev.block(a), &tags_a, now);
        let isr_b = isr_score(dev.block(b), &tags_b, now);
        assert!((isr_a - 6.0 / 16.0).abs() < 0.01, "hot block ISR {isr_a}");
        assert!(isr_b > isr_a, "cold block must win: {isr_b} vs {isr_a}");
        assert!(isr_b <= 16.0 / 16.0 + 1e-9);

        let winner = select_isr(
            vec![
                (g.block_index(a), dev.block(a), &tags_a[..], 0),
                (g.block_index(b), dev.block(b), &tags_b[..], 1),
            ]
            .into_iter(),
            now,
        );
        assert_eq!(winner, Some(g.block_index(b)));
    }

    #[test]
    fn cold_weight_is_zero_without_valid_data() {
        let mut dev = FlashDevice::new(DeviceConfig::small_for_tests());
        let a = build_block(&mut dev, 0, &[(4, 4)], false);
        let t = tags(&[1]);
        assert_eq!(cold_valid_weight(dev.block(a), &t, 500), 0.0);
        // Fully-invalid block: ISR = IS/TS = 4/16.
        assert!((isr_score(dev.block(a), &t, 500) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn cold_weight_grows_with_age() {
        let mut dev = FlashDevice::new(DeviceConfig::small_for_tests());
        let a = build_block(&mut dev, 0, &[(4, 0), (4, 0)], false);
        // Page 0 old, page 1 fresh.
        let w = cold_valid_weight(dev.block(a), &tags(&[1, 900_000]), 1_000_000);
        // Old page's subpages weigh close to 1, fresh page's close to 0.18.
        assert!(w > 4.0 * 0.8, "old data under-weighted: {w}");
        assert!(w < 8.0, "weight cannot exceed valid count: {w}");
    }
}
