//! Fault-injection recovery properties and the zero-fault regression.
//!
//! * Under random program/erase fault rates (with the retry ladder and
//!   bad-block remapping armed), no *acknowledged* write is ever silently
//!   lost: every acked LSN either stays mapped to a valid subpage or its loss
//!   is accounted in `data_loss_events`.
//! * With fault injection disabled — the default, and the explicit "none"
//!   profile — every scheme behaves bit-for-bit identically to the
//!   pre-fault-model simulator.

use std::collections::HashSet;

use ipu_flash::{DeviceConfig, FaultProfile, FaultScope, FlashDevice, RetryLadder, SubpageState};
use ipu_ftl::{FtlConfig, ReqStatus, SchemeKind};
use ipu_sim::{replay, ReplayConfig};
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
        1..120,
    )
}

/// Replays `ops` under a program/erase fault profile and checks the
/// no-silent-loss property.
fn check_no_acked_loss(
    kind: SchemeKind,
    ops: &[Op],
    seed: u64,
    program_fail: f64,
    erase_fail: f64,
) -> Result<(), TestCaseError> {
    let mut device = DeviceConfig::small_for_tests();
    device.fault = FaultProfile {
        seed,
        program_fail,
        erase_fail,
        read_fail: 0.0,
        rber_spike: 0.0,
        rber_spike_factor: 1.0,
        scope: FaultScope::Global,
    };
    device.retry = RetryLadder::standard();
    let mut dev = FlashDevice::new(device);
    let cfg = FtlConfig {
        slc_ratio: 0.2,
        ..FtlConfig::default()
    };
    let mut ftl = kind.build(&mut dev, cfg);

    let mut acked: HashSet<u64> = HashSet::new();
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
        let batch = if op.write {
            ftl.on_write(&req, req.timestamp_ns, &mut dev)
        } else {
            ftl.on_read(&req, req.timestamp_ns, &mut dev)
        };
        if op.write {
            match batch.status {
                // A failed write was never acknowledged; its LSNs carry no
                // durability promise (an earlier acked version may also have
                // been invalidated mid-rewrite, so drop them from the set).
                ReqStatus::Failed => {
                    for lsn in req.subpage_span() {
                        acked.remove(&lsn);
                    }
                }
                _ => acked.extend(req.subpage_span()),
            }
        }
    }

    let core = ftl.core();
    core.check_invariants(&dev)
        .map_err(|e| TestCaseError::fail(format!("{kind:?}: {e}")))?;

    // Every acked LSN is still mapped to a device-valid subpage, unless its
    // loss was explicitly accounted (GC relocation ran out of placements).
    let mut lost = 0u64;
    for &lsn in &acked {
        match core.map.lookup(lsn) {
            None => lost += 1,
            Some(spa) => {
                let page = dev.block(spa.ppa.block_addr()).page(spa.ppa.page);
                prop_assert_eq!(
                    page.subpage(spa.subpage),
                    SubpageState::Valid,
                    "{:?}: acked lsn {} maps to a non-valid subpage",
                    kind,
                    lsn
                );
            }
        }
    }
    prop_assert!(
        lost <= core.stats.data_loss_events,
        "{kind:?}: {lost} acked LSNs vanished but only {} data-loss events accounted",
        core.stats.data_loss_events
    );
    // Failed program attempts must have retired blocks (the remap path ran).
    if core.stats.program_retries > 0 {
        prop_assert!(
            core.stats.retired_blocks > 0,
            "{kind:?}: program retries without retirement"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No acked-data loss under program/erase faults with retry + remap, for
    /// each scheme.
    #[test]
    fn baseline_never_loses_acked_data(
        ops in workload(), seed in any::<u64>(),
        pf in 0.0f64..0.05, ef in 0.0f64..0.05,
    ) {
        check_no_acked_loss(SchemeKind::Baseline, &ops, seed, pf, ef)?;
    }

    #[test]
    fn mga_never_loses_acked_data(
        ops in workload(), seed in any::<u64>(),
        pf in 0.0f64..0.05, ef in 0.0f64..0.05,
    ) {
        check_no_acked_loss(SchemeKind::Mga, &ops, seed, pf, ef)?;
    }

    #[test]
    fn ipu_never_loses_acked_data(
        ops in workload(), seed in any::<u64>(),
        pf in 0.0f64..0.05, ef in 0.0f64..0.05,
    ) {
        check_no_acked_loss(SchemeKind::Ipu, &ops, seed, pf, ef)?;
    }

    #[test]
    fn ipu_plus_never_loses_acked_data(
        ops in workload(), seed in any::<u64>(),
        pf in 0.0f64..0.05, ef in 0.0f64..0.05,
    ) {
        check_no_acked_loss(SchemeKind::IpuPlus, &ops, seed, pf, ef)?;
    }
}

fn regression_workload() -> Vec<IoRequest> {
    let mut reqs = Vec::new();
    for i in 0..200u64 {
        let op = if i % 4 == 3 {
            OpKind::Read
        } else {
            OpKind::Write
        };
        reqs.push(IoRequest::new(
            i * 80_000,
            op,
            (i % 16) * 65536,
            4096 + (i % 4) as u32 * 4096,
        ));
    }
    reqs
}

/// The fault subsystem must be invisible when inert: a default config and an
/// explicit "none" profile produce bit-identical reports.
#[test]
fn zero_fault_replay_is_bit_identical() {
    let reqs = regression_workload();
    for kind in SchemeKind::all() {
        let base = ReplayConfig::small_for_tests(kind);
        let mut none = base.clone();
        let (fault, retry) = FaultProfile::named("none").unwrap();
        none.device.fault = fault;
        none.device.retry = retry;

        let a = replay(&base, &reqs, "t");
        let b = replay(&none, &reqs, "t");
        assert_eq!(a.ftl, b.ftl, "{kind}: FTL stats diverge under inert faults");
        assert_eq!(a.device, b.device);
        assert_eq!(a.wear, b.wear);
        assert_eq!(a.overall_latency.sum_ns(), b.overall_latency.sum_ns());
        assert_eq!(a.reliability, b.reliability);

        // No fault machinery engages: all requests succeed, nothing retires.
        assert_eq!(a.reliability.failed, 0, "{kind}");
        assert_eq!(a.reliability.recovered, 0, "{kind}");
        assert_eq!(a.reliability.total, a.reliability.success);
        assert_eq!(a.ftl.read_retries, 0);
        assert_eq!(a.ftl.retired_blocks, 0);
        assert_eq!(a.ftl.data_loss_events, 0);
        assert_eq!(a.ftl.host_uncorrectable_reads, 0);
    }
}

/// The light profile exercises the recovery paths without losing data: reads
/// recover through the retry ladder and no data-loss events accrue.
#[test]
fn light_profile_recovers_reads_without_loss() {
    // read_fail is 1e-3 in the light profile: a few thousand reads make
    // injected failures certain in this deterministic draw stream.
    let reqs: Vec<IoRequest> = (0..6000u64)
        .map(|i| {
            let op = if i % 2 == 1 {
                OpKind::Read
            } else {
                OpKind::Write
            };
            // Write/read pairs share a slot so every read hits mapped data.
            IoRequest::new(
                i * 80_000,
                op,
                (i / 2 % 16) * 65536,
                4096 + (i % 4) as u32 * 4096,
            )
        })
        .collect();
    let mut recovered_somewhere = false;
    for kind in SchemeKind::all() {
        let mut cfg = ReplayConfig::small_for_tests(kind);
        let (fault, retry) = FaultProfile::named("light").unwrap();
        cfg.device.fault = fault;
        cfg.device.retry = retry;
        let r = replay(&cfg, &reqs, "t");
        assert_eq!(
            r.reliability.failed, 0,
            "{kind}: light profile failed requests"
        );
        assert_eq!(r.ftl.data_loss_events, 0, "{kind}: light profile lost data");
        recovered_somewhere |= r.ftl.recovered_reads > 0;
    }
    assert!(
        recovered_somewhere,
        "light profile never exercised the retry ladder"
    );
}
