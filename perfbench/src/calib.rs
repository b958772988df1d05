//! Host-speed reference: a fixed workload timed between passes, so host
//! times can be expressed at one reference machine speed.
//!
//! On shared machines the speed a process gets drifts by ±20% over stretches
//! of many seconds (`perfbench/STEADINESS.md`). Every pass of a run is
//! therefore bracketed by runs of this reference, and its host time is
//! scaled by `REFERENCE_NOMINAL_S / reference time`: the seconds the pass
//! would have taken with the reference running at its nominal speed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Table of 64 KiB: the reference tracks core speed, not memory bandwidth,
/// because the slow stretches slow cache-resident work the most.
const TABLE_WORDS: usize = 1 << 13;
const STEPS: u64 = 300_000;

/// Host seconds of one reference run with the machine in its fast state
/// (the lower end of the runs recorded in `perfbench/STEADINESS.md`).
pub const REFERENCE_NOMINAL_S: f64 = 0.0045;

/// The reference workload's state, reused across runs.
pub struct Reference {
    table: Vec<u64>,
    heap: BinaryHeap<Reverse<u64>>,
}

impl Reference {
    pub fn new() -> Reference {
        Reference {
            table: (0..TABLE_WORDS as u64).collect(),
            heap: BinaryHeap::with_capacity(4096),
        }
    }

    /// Runs the reference once and returns its host seconds. The work mixes
    /// what the replay stack spends its time on: dependent table accesses, a
    /// binary heap and data-dependent branches. It calls nothing in the
    /// program, so a change to the program never moves it.
    pub fn seconds(&mut self) -> f64 {
        let start = Instant::now();
        let mask = self.table.len() - 1;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0u64;
        self.heap.clear();
        for i in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let idx = (x as usize ^ acc as usize) & mask;
            self.table[idx] = self.table[idx].wrapping_add(i);
            acc = acc.wrapping_add(self.table[idx]);
            if x & 3 == 0 {
                self.heap.push(Reverse(x >> 40));
            }
            if self.heap.len() > 2048 {
                if let Some(Reverse(v)) = self.heap.pop() {
                    acc ^= v;
                }
            }
        }
        black_box(acc);
        start.elapsed().as_secs_f64()
    }
}
