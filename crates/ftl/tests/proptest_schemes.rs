//! Property-based tests over all four FTL schemes: under arbitrary
//! write/read workloads (with heavy cache pressure and GC), every scheme must
//! preserve read-your-writes mapping consistency, agreement between the
//! forward map and the OOB tags that name each valid subpage's owner, and
//! physical/logical accounting, after every operation.

use ipu_flash::{DeviceConfig, FlashDevice, SubpageState};
use ipu_ftl::{FtlConfig, SchemeKind};
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

/// Runs `ops` on a device with `blocks_per_plane` blocks per plane, half of
/// them SLC: too little room for the workload's up to 48 live LSNs plus GC
/// headroom, so allocations stall, emergency reclaim runs (mostly finding
/// nothing) and writes fail for lack of space. A failed write drops its
/// data by design, so only the core's own cross-check applies; it must hold
/// after every operation, its emergency-reclaim clause included.
fn check_scheme_when_full(
    kind: SchemeKind,
    blocks_per_plane: u32,
    ops: &[Op],
) -> Result<(), TestCaseError> {
    let mut config = DeviceConfig::small_for_tests();
    config.geometry.blocks_per_plane = blocks_per_plane;
    let mut dev = FlashDevice::new(config);
    let cfg = FtlConfig {
        slc_ratio: 0.5,
        ..FtlConfig::default()
    };
    let mut ftl = kind.build(&mut dev, cfg);
    for (t, op) in ops.iter().enumerate() {
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
            ftl.on_write(&req, req.timestamp_ns, &mut dev);
        } else {
            ftl.on_read(&req, req.timestamp_ns, &mut dev);
        }
        if let Err(e) = ftl.core().check_invariants(&dev) {
            return Err(TestCaseError::fail(format!("{kind:?}: after op {t}: {e}")));
        }
    }
    Ok(())
}

fn check_scheme(kind: SchemeKind, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut dev = FlashDevice::new(DeviceConfig::small_for_tests());
    // Slightly roomier SLC region so all IPU levels can engage; still small
    // enough that GC fires constantly under this workload.
    let cfg = FtlConfig {
        slc_ratio: 0.2,
        ..FtlConfig::default()
    };
    let mut ftl = kind.build(&mut dev, cfg);

    let mut shadow: std::collections::HashMap<u64, ()> = std::collections::HashMap::new();
    for (t, op) in ops.iter().enumerate() {
        let offset = op.slot * 65536;
        let size = op.size_subpages as u32 * 4096;
        let req = IoRequest::new(
            t as u64 * 1000,
            if op.write {
                OpKind::Write
            } else {
                OpKind::Read
            },
            offset,
            size,
        );
        let batch = if op.write {
            for lsn in req.subpage_span() {
                shadow.insert(lsn, ());
            }
            ftl.on_write(&req, req.timestamp_ns, &mut dev)
        } else {
            ftl.on_read(&req, req.timestamp_ns, &mut dev)
        };
        for rec in &batch.ops {
            prop_assert!(rec.latency_ns > 0, "zero-latency op");
        }

        // Invariant 1: every shadow LSN resolves, and the OOB tag of its
        // subpage names it.
        let core = ftl.core();
        for &lsn in shadow.keys() {
            let spa = core.map.lookup(lsn);
            prop_assert!(spa.is_some(), "{kind:?}: lsn {lsn} lost after op {t}");
            let spa = spa.unwrap();
            let bi = core.block_idx(spa.ppa.block_addr());
            prop_assert_eq!(
                core.owner(&dev, bi, spa),
                Some(lsn),
                "{:?}: OOB owner disagrees for lsn {}",
                kind,
                lsn
            );
            // The mapped subpage must be physically valid.
            let page = dev.block(spa.ppa.block_addr()).page(spa.ppa.page);
            prop_assert_eq!(
                page.subpage(spa.subpage),
                SubpageState::Valid,
                "{:?}: lsn {} maps to a non-valid subpage",
                kind,
                lsn
            );
        }

        // Invariant 2: the number of mapped LSNs equals the shadow set size.
        prop_assert_eq!(core.map.len(), shadow.len());

        // Invariant 3: valid subpages device-wide equal the mapped count
        // (every valid subpage is owned by exactly one live LSN).
        let mut device_valid = 0u64;
        for i in 0..dev.config().geometry.total_blocks() {
            device_valid += dev.block_by_index(i).count_subpages(SubpageState::Valid) as u64;
        }
        prop_assert_eq!(
            device_valid,
            shadow.len() as u64,
            "{:?}: device holds {} valid subpages but {} LSNs are live",
            kind,
            device_valid,
            shadow.len()
        );

        // Invariant 4: the core's own cross-check, which includes map ↔ OOB
        // owner agreement in both directions.
        if let Err(e) = core.check_invariants(&dev) {
            return Err(TestCaseError::fail(format!("{kind:?}: after op {t}: {e}")));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn baseline_invariants(ops in workload()) {
        check_scheme(SchemeKind::Baseline, &ops)?;
    }

    #[test]
    fn mga_invariants(ops in workload()) {
        check_scheme(SchemeKind::Mga, &ops)?;
    }

    #[test]
    fn ipu_invariants(ops in workload()) {
        check_scheme(SchemeKind::Ipu, &ops)?;
    }

    #[test]
    fn ipu_plus_invariants(ops in workload()) {
        check_scheme(SchemeKind::IpuPlus, &ops)?;
    }

    /// Determinism: replaying the same ops yields identical stats and mapping.
    #[test]
    fn schemes_are_deterministic(ops in workload(), kind in prop_oneof![
        Just(SchemeKind::Baseline), Just(SchemeKind::Mga),
        Just(SchemeKind::Ipu), Just(SchemeKind::IpuPlus)
    ]) {
        let run = |ops: &[Op]| {
            let mut dev = FlashDevice::new(DeviceConfig::small_for_tests());
            let mut ftl = kind.build(&mut dev, FtlConfig::default());
            for (t, op) in ops.iter().enumerate() {
                let req = IoRequest::new(
                    t as u64,
                    if op.write { OpKind::Write } else { OpKind::Read },
                    op.slot * 65536,
                    op.size_subpages as u32 * 4096,
                );
                if op.write {
                    ftl.on_write(&req, req.timestamp_ns, &mut dev);
                } else {
                    ftl.on_read(&req, req.timestamp_ns, &mut dev);
                }
            }
            (ftl.stats().clone(), dev.counters(), dev.wear().totals())
        };
        prop_assert_eq!(run(&ops), run(&ops));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A device too small for the workload: stalled allocations and
    /// writes failed for space leave every scheme consistent.
    #[test]
    fn invariants_hold_when_the_device_fills(
        ops in workload(),
        blocks_per_plane in 3u32..=6,
        kind in prop_oneof![
            Just(SchemeKind::Baseline), Just(SchemeKind::Mga),
            Just(SchemeKind::Ipu), Just(SchemeKind::IpuPlus)
        ]
    ) {
        check_scheme_when_full(kind, blocks_per_plane, &ops)?;
    }
}
