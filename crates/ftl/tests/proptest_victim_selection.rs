//! Property tests pinning the production GC victim pickers to the
//! full-scan oracles, plus an allocation-discipline test for the
//! steady-state write path.
//!
//! Both production pickers walk the cache metadata's list of in-use SLC
//! blocks: greedy reads each block's invalid count from the device, and ISR
//! prunes with the Jensen bound and scores with the incremental evaluator.
//! They must select *bit-identical* victims to the oracles, which scan the
//! whole metadata table in ascending index order and (for ISR) evaluate
//! Equation 2 from scratch, under every reachable device state — the
//! schemes' counter fingerprints depend on it. Both oracles are retained in
//! the core solely so these tests can compare against them.

use ipu_flash::{DeviceConfig, FlashDevice};
use ipu_ftl::{FtlConfig, FtlScheme, SchemeKind};
use ipu_trace::{IoRequest, OpKind};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Op {
    write: bool,
    slot: u64,
    size_subpages: u8,
}

fn workload() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (any::<bool>(), 0u64..12, 1u8..=4).prop_map(|(write, slot, size_subpages)| Op {
            write,
            slot,
            size_subpages,
        }),
        1..160,
    )
}

fn drive(ftl: &mut Box<dyn FtlScheme>, dev: &mut FlashDevice, t: usize, op: &Op) {
    let req = IoRequest::new(
        t as u64 * 1000,
        if op.write {
            OpKind::Write
        } else {
            OpKind::Read
        },
        op.slot * 65536,
        op.size_subpages as u32 * 4096,
    );
    if op.write {
        ftl.on_write(&req, req.timestamp_ns, dev);
    } else {
        ftl.on_read(&req, req.timestamp_ns, dev);
    }
}

/// After every op the production pickers must agree with the oracles —
/// including on `None` (no candidate) and on FIFO tie-breaks.
fn check_picker_equivalence(kind: SchemeKind, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut dev = FlashDevice::new(DeviceConfig::small_for_tests());
    let cfg = FtlConfig {
        slc_ratio: 0.2,
        ..FtlConfig::default()
    };
    let mut ftl = kind.build(&mut dev, cfg);

    for (t, op) in ops.iter().enumerate() {
        drive(&mut ftl, &mut dev, t, op);
        let now = (t as u64 + 1) * 1000;

        let greedy_oracle = ftl.core().oracle_slc_victim_greedy(&dev);
        let greedy_walk = ftl.core().select_slc_victim_greedy(&dev);
        prop_assert_eq!(
            greedy_walk,
            greedy_oracle,
            "{:?}: greedy SLC-list walk diverged from oracle after op {}",
            kind,
            t
        );

        let isr_oracle = ftl.core().oracle_slc_victim_isr(&dev, now);
        let isr_walk = ftl.core_mut().select_slc_victim_isr(&dev, now);
        prop_assert_eq!(
            isr_walk,
            isr_oracle,
            "{:?}: ISR SLC-list walk diverged from oracle after op {}",
            kind,
            t
        );

        ftl.core()
            .check_invariants(&dev)
            .map_err(|e| TestCaseError::fail(format!("{kind:?}: {e}")))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn baseline_pickers_match_oracles(ops in workload()) {
        check_picker_equivalence(SchemeKind::Baseline, &ops)?;
    }

    #[test]
    fn mga_pickers_match_oracles(ops in workload()) {
        check_picker_equivalence(SchemeKind::Mga, &ops)?;
    }

    #[test]
    fn ipu_pickers_match_oracles(ops in workload()) {
        check_picker_equivalence(SchemeKind::Ipu, &ops)?;
    }

    #[test]
    fn ipu_plus_pickers_match_oracles(ops in workload()) {
        check_picker_equivalence(SchemeKind::IpuPlus, &ops)?;
    }
}

/// Steady-state writes must not grow any scratch arena: after a warm-up
/// phase has sized the reusable buffers (`read_runs`, `isr_scratch`,
/// `gc_groups`), continued traffic — including GC rounds — reuses them.
/// Every take/put-back site bumps `stats.scratch_grows` when a buffer's
/// capacity changed while out on loan, so a flat counter proves the hot
/// path allocated nothing through the arenas.
#[test]
fn steady_state_writes_do_not_grow_scratch() {
    for kind in SchemeKind::all_extended() {
        let mut dev = FlashDevice::new(DeviceConfig::small_for_tests());
        let cfg = FtlConfig {
            slc_ratio: 0.2,
            ..FtlConfig::default()
        };
        let mut ftl = kind.build(&mut dev, cfg);

        // Warm-up: overwrite and re-read a small working set until GC has
        // cycled the whole SLC region several times, sizing every scratch
        // buffer (the read-run splitter included).
        let mut t = 0u64;
        for round in 0..400u64 {
            let req = IoRequest::new(t * 1000, OpKind::Write, (round % 12) * 65536, 4 * 4096);
            ftl.on_write(&req, req.timestamp_ns, &mut dev);
            t += 1;
            let req = IoRequest::new(t * 1000, OpKind::Read, (round % 12) * 65536, 4 * 4096);
            ftl.on_read(&req, req.timestamp_ns, &mut dev);
            t += 1;
        }
        let grows_after_warmup = ftl.core().stats.scratch_grows;

        // Steady state: same working set, same op shapes. No arena may grow.
        for round in 0..400u64 {
            let req = IoRequest::new(t * 1000, OpKind::Write, (round % 12) * 65536, 4 * 4096);
            ftl.on_write(&req, req.timestamp_ns, &mut dev);
            t += 1;
            let req = IoRequest::new(t * 1000, OpKind::Read, (round % 12) * 65536, 4 * 4096);
            ftl.on_read(&req, req.timestamp_ns, &mut dev);
            t += 1;
        }
        assert_eq!(
            ftl.core().stats.scratch_grows,
            grows_after_warmup,
            "{kind:?}: steady-state traffic grew a scratch arena \
             (write path allocated)"
        );
    }
}
