//! GC policy laboratory: watch the paper's ISR victim-selection policy
//! (Equations 1–2) at work on the Figure 4(a) example. IPU end to end under
//! ISR vs greedy victim selection is `ipu-sim ablate gc`.
//!
//! ```text
//! cargo run --release --example gc_policy_lab
//! ```

use ipu_core::flash::{BlockAddr, CellMode, DeviceConfig, FlashDevice, Spa};
use ipu_core::ftl::{isr_score, SubTag};

/// Reconstructs the paper's Figure 4(a) example: candidate A holds recently
/// updated (hot) data, candidate B equally many invalid subpages but old cold
/// data — ISR must pick B.
fn main() {
    println!("— Figure 4(a) worked example —");
    let mut dev = FlashDevice::new(DeviceConfig::small_for_tests());
    let g = dev.config().geometry.clone();
    let now: u64 = 10_000_000_000; // 10 s into the run

    // Each page of the 4-page block takes 4 subpages written at
    // `written_at`; an updated page takes them in two programs, the second
    // an intra-page update. Returns the block index and its OOB tags.
    let mut build = |block: u32, written_at: u64, updated: bool| {
        let addr = BlockAddr::new(0, 0, 0, 0, block);
        dev.set_block_mode(addr, CellMode::Slc);
        let mut tags = vec![SubTag::default(); 16];
        for p in 0..4u32 {
            let runs: &[(u8, u8)] = if updated {
                &[(0, 2), (2, 2)]
            } else {
                &[(0, 4)]
            };
            for (i, &(start, count)) in runs.iter().enumerate() {
                dev.program(Spa::new(addr.page(p), start), count).unwrap();
                for s in start..start + count {
                    let slot = (p * 4 + s as u32) as usize;
                    tags[slot] = SubTag::new(slot as u64, written_at, i > 0);
                }
            }
        }
        // 6 invalid subpages in both candidates, as in the figure.
        for (p, s) in [(0u32, 0u8), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)] {
            dev.invalidate(Spa::new(addr.page(p), s)).unwrap();
        }
        (g.block_index(addr), tags)
    };

    let (a, tags_a) = build(0, now - 1_000_000, true); // hot: updated 1 ms ago
    let (b, tags_b) = build(1, 1, false); // cold: written at t≈0, never updated

    let isr_a = isr_score(dev.block_by_index(a), &tags_a, now);
    let isr_b = isr_score(dev.block_by_index(b), &tags_b, now);
    println!("  candidate A (hot, updated):   ISR = {isr_a:.3}  (paper: 6/16 = 0.375)");
    println!("  candidate B (cold, aged):     ISR = {isr_b:.3}  (paper: ≈6.9/16 = 0.431)");
    println!(
        "  → GC selects candidate {} (paper selects B)",
        if isr_b > isr_a { "B" } else { "A" }
    );
}
