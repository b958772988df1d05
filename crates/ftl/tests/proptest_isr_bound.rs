//! Property tests for the Jensen bound that prunes ISR victim selection.
//!
//! `isr_jensen_bound` must never fall below the exact ISR score — neither the
//! incremental `isr_score_fast` nor the full-recomputation oracle
//! `isr_score` — or victim selection could prune the true winner. Each case
//! replays a random per-block history (first programs, intra-page updates and
//! invalidates at random timestamps) on a real SLC block, its OOB tags and
//! its cache metadata, then compares bound and scores at a random `now`.

use ipu_flash::{BlockAddr, CellMode, DeviceConfig, FlashDevice, Nanos, Spa, SubpageState};
use ipu_ftl::{isr_jensen_bound, isr_score, isr_score_fast, BlockLevel, CacheMeta, SubTag};
use proptest::prelude::*;

/// Slack for f64 rounding between the bound's closed form and the scorers'
/// term-by-term sums.
const EPS: f64 = 1e-12;

/// One history step: `(kind, page, x, t)`. Kinds 0 and 1 program the page's
/// next free subpages (`1 + x % free` of them) at time `t` — an intra-page
/// update if the page already holds a program; kind 2 invalidates subpage
/// `x % spp` if it is valid.
type Step = (u8, u32, u8, Nanos);

fn history(t_max: Nanos) -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((0u8..3, 0u32..64, 0u8..16, 1..=t_max), 1..48)
}

struct Replayed {
    dev: FlashDevice,
    meta: CacheMeta,
    tags: Vec<SubTag>,
    addr: BlockAddr,
}

impl Replayed {
    const IDX: u64 = 0;

    fn bound(&self, now: Nanos) -> f64 {
        let m = self.meta.get(Self::IDX).unwrap();
        isr_jensen_bound(self.dev.block(self.addr), m, now)
    }

    fn fast(&self, now: Nanos) -> f64 {
        let m = self.meta.get(Self::IDX).unwrap();
        isr_score_fast(self.dev.block(self.addr), m, &self.tags, now)
    }

    fn oracle(&self, now: Nanos) -> f64 {
        isr_score(self.dev.block(self.addr), &self.tags, now)
    }

    /// `(invalid + j) / total`: the bound's fallback and its `j = 0` value.
    fn counting_bound(&self) -> f64 {
        let block = self.dev.block(self.addr);
        let j = self.meta.get(Self::IDX).unwrap().j_count();
        (block.count_subpages(SubpageState::Invalid) + j) as f64 / block.total_subpages() as f64
    }
}

/// Replays `steps` on block 0 of a small test device. With `cold_t` set,
/// every first program of a page is stamped `cold_t`, so the J-term
/// population (valid subpages of never-updated pages) shares one write time.
fn replay(steps: &[Step], cold_t: Option<Nanos>) -> Replayed {
    let mut dev = FlashDevice::new(DeviceConfig::small_for_tests());
    let addr = BlockAddr::new(0, 0, 0, 0, 0);
    dev.set_block_mode(addr, CellMode::Slc);
    let g = dev.config().geometry.clone();
    let pages = g.pages_per_block_slc;
    let spp = g.subpages_per_page() as u8;
    let mut meta = CacheMeta::new();
    meta.open_block(Replayed::IDX, addr, BlockLevel::Work, pages, spp as u32);
    let mut tags = vec![SubTag::default(); (pages * spp as u32) as usize];
    let mut next_free = vec![0u8; pages as usize];

    for &(kind, page, x, t) in steps {
        let page = page % pages;
        let cursor = next_free[page as usize];
        if kind < 2 {
            if cursor >= spp {
                continue;
            }
            let count = 1 + x % (spp - cursor);
            let follow_up = dev.block(addr).page(page).program_ops() > 0;
            if dev
                .program(Spa::new(addr.page(page), cursor), count)
                .is_err()
            {
                continue; // partial-program limit reached on this page
            }
            let t = if follow_up { t } else { cold_t.unwrap_or(t) };
            for s in cursor..cursor + count {
                let slot = (page * spp as u32 + s as u32) as usize;
                tags[slot] = SubTag::new(slot as u64, t, follow_up);
            }
            let m = meta.get_mut(Replayed::IDX).unwrap();
            m.note_program(page, cursor, count, t, follow_up, &tags);
            next_free[page as usize] += count;
        } else {
            let spa = Spa::new(addr.page(page), x % spp);
            if dev.block(addr).page(page).subpage(spa.subpage) == SubpageState::Valid {
                dev.invalidate(spa).unwrap();
                let m = meta.get_mut(Replayed::IDX).unwrap();
                m.note_invalidate(page, spa.subpage, &tags);
            }
        }
    }
    let m = meta.get(Replayed::IDX).unwrap();
    assert_eq!(m.check_aggregates(dev.block(addr), &tags), Ok(()));
    Replayed {
        dev,
        meta,
        tags,
        addr,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every timestamp at or before `now`: the bound dominates both scorers.
    #[test]
    fn bound_dominates_exact_scores(
        steps in history(1_000_000_000),
        now in 1_000_000_000u64..=3_000_000_000,
    ) {
        let r = replay(&steps, None);
        let bound = r.bound(now);
        let fast = r.fast(now);
        let oracle = r.oracle(now);
        prop_assert!(bound + EPS >= fast, "bound {} < fast score {}", bound, fast);
        prop_assert!(bound + EPS >= oracle, "bound {} < oracle score {}", bound, oracle);
    }

    /// Jensen's equality case: when every cold subpage shares one write time,
    /// the bound is the score.
    #[test]
    fn bound_is_tight_when_cold_data_shares_a_write_time(
        steps in history(1_000_000_000),
        cold_t in 1u64..=1_000_000_000,
        now in 1_000_000_000u64..=3_000_000_000,
    ) {
        let r = replay(&steps, Some(cold_t));
        let bound = r.bound(now);
        let fast = r.fast(now);
        let oracle = r.oracle(now);
        prop_assert!((bound - fast).abs() <= EPS, "bound {} != fast score {}", bound, fast);
        prop_assert!((bound - oracle).abs() <= EPS, "bound {} != oracle score {}", bound, oracle);
    }

    /// A timestamp after `now` voids Jensen's premise (the scorers clamp its
    /// age at zero): the bound falls back to `(invalid + j) / total`, which
    /// still dominates.
    #[test]
    fn future_timestamps_fall_back_to_the_counting_bound(
        steps in history(1_000_000_000),
        now in 0u64..=1_000_000_000,
    ) {
        let r = replay(&steps, None);
        let bound = r.bound(now);
        prop_assert!(bound + EPS >= r.fast(now));
        prop_assert!(bound + EPS >= r.oracle(now));
        if r.meta.get(Replayed::IDX).unwrap().newest_written() > now {
            prop_assert_eq!(bound, r.counting_bound());
        }
    }
}

#[test]
fn no_cold_data_bounds_at_the_invalid_ratio() {
    // Every page updated in place: j = 0, so bound = score = invalid / total.
    let mut steps = Vec::new();
    for page in 0..4 {
        steps.push((0, page, 1, 100));
        steps.push((0, page, 0, 200 + page as Nanos));
        steps.push((2, page, 0, 0));
    }
    let r = replay(&steps, None);
    assert_eq!(r.meta.get(Replayed::IDX).unwrap().j_count(), 0);
    let now = 10_000;
    assert_eq!(r.bound(now), r.counting_bound());
    assert_eq!(r.bound(now), r.fast(now));
    assert_eq!(r.bound(now), r.oracle(now));
    assert_eq!(r.bound(now), 4.0 / 16.0);
}

#[test]
fn no_valid_data_bounds_at_the_invalid_ratio() {
    let mut steps = vec![(0, 0, 3, 100), (0, 1, 1, 300)];
    for sub in 0..4 {
        steps.push((2, 0, sub, 0));
        steps.push((2, 1, sub, 0));
    }
    let r = replay(&steps, None);
    assert_eq!(r.meta.get(Replayed::IDX).unwrap().valid_count(), 0);
    let now = 10_000;
    assert_eq!(r.bound(now), r.fast(now));
    assert_eq!(r.bound(now), r.oracle(now));
    assert_eq!(r.bound(now), 6.0 / 16.0);
}

#[test]
fn bound_is_strictly_tighter_than_counting_for_fresh_cold_data() {
    // Old cold page plus a fresh cold page: the Jensen bound sits strictly
    // between the exact score and the old `(invalid + j) / total`.
    let r = replay(&[(0, 0, 3, 1), (0, 1, 3, 900_000)], None);
    let now = 1_000_000;
    let (bound, score) = (r.bound(now), r.fast(now));
    assert!(score <= bound + EPS && bound < r.counting_bound());
}

#[test]
fn one_future_timestamp_voids_jensen_even_at_a_non_negative_mean_age() {
    // Cold pages written 500 ns before and 500 ns after `now`: the cold
    // timestamps average exactly `now`, so `j·now ≥ Σt` holds, yet the
    // exact J-term (ages clamped at 0) is positive while `j·(1 − e^0)` is 0.
    let r = replay(&[(0, 0, 3, 500), (0, 1, 3, 1_500)], None);
    let now = 1_000;
    assert!(r.fast(now) > 0.0);
    assert_eq!(r.bound(now), r.counting_bound());
    assert!(r.bound(now) + EPS >= r.oracle(now));
}
