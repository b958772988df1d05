//! Property-based tests over the flash device state machine.
//!
//! Random sequences of program / invalidate / erase operations must preserve:
//! subpage-count conservation, NOP-budget enforcement, disturb monotonicity and
//! the pristine-after-erase guarantee, and must agree step by step with a
//! shadow model of every page's subpage states and program-op count.

use ipu_flash::{
    BlockAddr, CellMode, DeviceConfig, FlashDevice, FlashError, PageState, ProgramResult, Spa,
    SubpageState,
};
use proptest::prelude::*;

/// One step of the random workload.
#[derive(Debug, Clone)]
enum Step {
    Program { page: u32, subpage: u8, count: u8 },
    Invalidate { page: u32, subpage: u8 },
    Erase { to_slc: bool },
}

fn step_strategy(max_pages: u32, subpages: u8) -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (0..max_pages, 0..subpages, 1..=subpages).prop_map(|(page, subpage, count)| {
            Step::Program { page, subpage, count }
        }),
        2 => (0..max_pages, 0..subpages).prop_map(|(page, subpage)| {
            Step::Invalidate { page, subpage }
        }),
        1 => any::<bool>().prop_map(|to_slc| Step::Erase { to_slc }),
    ]
}

/// The block as the state machine should hold it: per page, the subpage
/// states and the program operations since the last erase.
struct Shadow {
    mode: CellMode,
    pages: Vec<([SubpageState; 4], u8)>,
}

impl Shadow {
    /// An erased block: 4 pages in SLC mode, 8 in MLC mode.
    fn erased(mode: CellMode) -> Self {
        let pages = if mode == CellMode::Slc { 4 } else { 8 };
        Shadow {
            mode,
            pages: vec![([SubpageState::Free; 4], 0); pages],
        }
    }

    /// The outcome the device must report for a program of `count`
    /// subpages at `subpage` of `page`.
    fn program_outcome(&self, page: u32, subpage: u8, count: u8) -> &'static str {
        let Some((states, ops)) = self.pages.get(page as usize) else {
            return "out of range";
        };
        if *ops > 0 && self.mode == CellMode::Mlc {
            "partial in MLC"
        } else if *ops >= 4 {
            "NOP limit"
        } else if states[subpage as usize..(subpage + count) as usize]
            .iter()
            .any(|&s| s != SubpageState::Free)
        {
            "not free"
        } else {
            "ok"
        }
    }
}

fn outcome(res: &Result<ProgramResult, FlashError>) -> &'static str {
    match res {
        Ok(_) => "ok",
        Err(FlashError::OutOfRange(_)) => "out of range",
        Err(FlashError::PartialNotSupported { .. }) => "partial in MLC",
        Err(FlashError::PartialProgramLimit { .. }) => "NOP limit",
        Err(FlashError::SubpageNotFree(_)) => "not free",
        Err(_) => "unexpected error",
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Whatever happens, per-block subpage accounting must balance, disturb
    /// counters must never decrease except at erase, every erase must leave
    /// the block pristine with a bumped P/E count, every page must match the
    /// shadow model, and an untouched neighbour block must read as erased.
    #[test]
    fn state_machine_invariants(steps in proptest::collection::vec(step_strategy(8, 4), 1..120)) {
        let mut dev = FlashDevice::new(DeviceConfig::small_for_tests());
        let addr = BlockAddr::new(0, 0, 0, 0, 0);
        let neighbour = BlockAddr::new(0, 0, 0, 0, 1);
        dev.set_block_mode(addr, CellMode::Slc);
        let idx = dev.config().geometry.block_index(addr);
        let mut shadow = Shadow::erased(CellMode::Slc);
        let mut erase_count = 0u32;
        let mut last_disturb_events = 0u64;

        for step in steps {
            match step {
                Step::Program { page, subpage, count } => {
                    if subpage + count > 4 { continue; }
                    let expected = shadow.program_outcome(page, subpage, count);
                    let res = dev.program(Spa::new(addr.page(page), subpage), count);
                    prop_assert_eq!(outcome(&res), expected);
                    if let Ok(res) = res {
                        prop_assert!(res.latency_ns > 0);
                        let (states, ops) = &mut shadow.pages[page as usize];
                        states[subpage as usize..(subpage + count) as usize]
                            .fill(SubpageState::Valid);
                        *ops += 1;
                    }
                }
                Step::Invalidate { page, subpage } => {
                    if let Some((states, _)) = shadow.pages.get_mut(page as usize) {
                        let res = dev.invalidate(Spa::new(addr.page(page), subpage));
                        let state = &mut states[subpage as usize];
                        prop_assert_eq!(res.is_ok(), *state == SubpageState::Valid);
                        if res.is_ok() {
                            *state = SubpageState::Invalid;
                        }
                    }
                }
                Step::Erase { to_slc } => {
                    let mode = if to_slc { CellMode::Slc } else { CellMode::Mlc };
                    let res = dev.erase(addr, mode);
                    erase_count += 1;
                    shadow = Shadow::erased(mode);
                    prop_assert_eq!(
                        res.pe_cycles,
                        dev.config().initial_pe_cycles + erase_count
                    );
                    prop_assert!(dev.block(addr).is_pristine());
                    prop_assert_eq!(dev.block(addr).mode(), mode);
                }
            }

            // Conservation: free + valid + invalid == total, always.
            let b = dev.block(addr);
            let total = b.total_subpages();
            let sum = b.count_subpages(SubpageState::Free)
                + b.count_subpages(SubpageState::Valid)
                + b.count_subpages(SubpageState::Invalid);
            prop_assert_eq!(total, sum);

            // Every page matches the shadow model, which also bounds each
            // page's program operations by the NOP budget of 4.
            prop_assert_eq!(b.page_count() as usize, shadow.pages.len());
            for (p, (states, ops)) in (0..).zip(&shadow.pages) {
                let page = b.page(p);
                prop_assert_eq!(page.program_ops(), *ops);
                prop_assert!(page.program_ops() <= 4);
                for s in 0..4u8 {
                    prop_assert_eq!(page.subpage(s), states[s as usize], "page {} subpage {}", p, s);
                }
            }

            // The neighbour block was never touched: every page reads erased.
            let nb = dev.block(neighbour);
            prop_assert!(nb.is_pristine());
            for p in 0..nb.page_count() {
                prop_assert_eq!(nb.page(p), &PageState::erased(4));
            }

            // Disturb event counters are monotone.
            let events = dev.counters().in_page_disturb_events
                + dev.counters().neighbour_disturb_events;
            prop_assert!(events >= last_disturb_events);
            last_disturb_events = events;

            // Wear only advances through erases.
            prop_assert_eq!(dev.wear().pe_cycles(idx),
                dev.config().initial_pe_cycles + erase_count);
        }
    }

    /// Effective RBER never decreases as a page accumulates partial programs,
    /// and is always at least the baseline for the block's wear.
    #[test]
    fn rber_monotone_under_partial_programming(order in Just([0u8,1,2,3]).prop_shuffle()) {
        let mut dev = FlashDevice::new(DeviceConfig::small_for_tests());
        let addr = BlockAddr::new(0, 0, 0, 0, 0);
        dev.set_block_mode(addr, CellMode::Slc);
        let page = addr.page(0);

        let first = order[0];
        dev.program(Spa::new(page, first), 1).unwrap();
        let mut last = dev.effective_rber(Spa::new(page, first));
        let baseline = last;

        for &s in &order[1..] {
            dev.program(Spa::new(page, s), 1).unwrap();
            let now = dev.effective_rber(Spa::new(page, first));
            prop_assert!(now >= last, "RBER decreased: {now} < {last}");
            last = now;
        }
        prop_assert!(last > baseline, "3 disturbs must raise RBER");
    }
}
