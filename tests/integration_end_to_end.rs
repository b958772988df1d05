//! End-to-end integration: the MSR parser feeding the simulator, unmapped
//! reads, burst behaviour (bypass) and cross-layer accounting consistency.

use ipu_core::flash::SubpageState;
use ipu_core::ftl::SchemeKind;
use ipu_core::sim::{replay, ReplayConfig};
use ipu_core::trace::{parse_msr_reader, IoRequest, OpKind};
use ipu_core::ExperimentConfig;

/// Builds an MSR-format CSV exercising writes, updates and reads.
fn synthetic_msr_csv() -> String {
    let mut out = String::from("Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n");
    let base: u64 = 130_000_000_000_000_000;
    let mut t = base;
    // 60 writes over 12 slots (5 versions each), then read everything back.
    for round in 0..5u64 {
        for slot in 0..12u64 {
            t += 2_000_000; // 200 ms in FILETIME ticks
            out.push_str(&format!("{t},srv,0,Write,{},4096,100\n", slot * 65536));
            let _ = round;
        }
    }
    for slot in 0..12u64 {
        t += 2_000_000;
        out.push_str(&format!("{t},srv,0,Read,{},4096,100\n", slot * 65536));
    }
    // One read of an address never written (pre-trace data).
    t += 2_000_000;
    out.push_str(&format!("{t},srv,0,Read,{},8192,100\n", 1u64 << 32));
    out
}

#[test]
fn msr_csv_replays_through_every_scheme() {
    let csv = synthetic_msr_csv();
    let requests = parse_msr_reader(csv.as_bytes()).unwrap();
    assert_eq!(requests.len(), 73);
    assert_eq!(requests[0].timestamp_ns, 0);

    for kind in SchemeKind::all() {
        let cfg = ReplayConfig::small_for_tests(kind);
        let report = replay(&cfg, &requests, "synthetic-msr");
        assert_eq!(report.requests, 73, "{kind}");
        assert_eq!(report.ftl.host_write_requests, 60, "{kind}");
        assert_eq!(report.ftl.host_read_requests, 13, "{kind}");
        // The never-written address is charged as MLC-resident data.
        assert_eq!(report.ftl.unmapped_reads, 1, "{kind}");
        // 12 mapped single-subpage reads + 2 unmapped subpages.
        assert_eq!(report.ftl.host_subpages_read, 14, "{kind}");
        assert!(report.read_error_rate() > 0.0);
    }
}

#[test]
fn ipu_keeps_update_chains_intra_page_in_msr_replay() {
    let csv = synthetic_msr_csv();
    let requests = parse_msr_reader(csv.as_bytes()).unwrap();
    // The default test geometry has only 2 SLC blocks; give the cache room so
    // first-writes stay in SLC and updates can land intra-page.
    let mut cfg = ReplayConfig::small_for_tests(SchemeKind::Ipu);
    cfg.ftl.slc_ratio = 0.5;
    let report = replay(&cfg, &requests, "synthetic-msr");
    // 12 slots × 5 writes: first write new, then 3 intra-page updates fill
    // the page, the 5th upgrades. (GC on the tiny device may interleave, so
    // allow a tolerance band.)
    assert!(
        report.ftl.intra_page_updates >= 24,
        "expected many intra-page updates, got {}",
        report.ftl.intra_page_updates
    );
    assert!(
        report.ftl.upgraded_writes >= 6,
        "upgrades missing: {}",
        report.ftl.upgraded_writes
    );
}

#[test]
fn burst_arrivals_drain_the_pool_and_trigger_the_bypass() {
    // All writes arrive nearly simultaneously: GC replenishment (rate-limited
    // by the 10 ms erase) cannot keep up, so some host writes must complete
    // in the MLC region. Unique addresses keep intra-page updates out of the
    // picture.
    let burst: Vec<IoRequest> = (0..150)
        .map(|i| IoRequest::new(i * 1_000, OpKind::Write, i * 65536, 16384))
        .collect();
    let cfg = ReplayConfig::small_for_tests(SchemeKind::Baseline);
    let report = replay(&cfg, &burst, "burst");
    assert!(
        report.ftl.host_subpages_to_mlc > 0,
        "burst must overflow the tiny cache into MLC (slc={}, mlc={})",
        report.ftl.host_subpages_to_slc,
        report.ftl.host_subpages_to_mlc
    );
    // The same workload spread over seconds stays (mostly) in the cache... it
    // still exceeds the tiny cache, but the SLC share must improve.
    let spaced: Vec<IoRequest> = (0..150)
        .map(|i| IoRequest::new(i * 20_000_000, OpKind::Write, i * 65536, 16384))
        .collect();
    let relaxed = replay(&cfg, &spaced, "spaced");
    let share = |r: &ipu_core::sim::SimReport| {
        r.ftl.host_subpages_to_mlc as f64
            / (r.ftl.host_subpages_to_slc + r.ftl.host_subpages_to_mlc).max(1) as f64
    };
    assert!(
        share(&relaxed) < share(&report),
        "spacing arrivals must reduce the bypass share ({} vs {})",
        share(&relaxed),
        share(&report)
    );
}

#[test]
fn device_state_matches_mapping_after_heavy_churn() {
    // Cross-layer consistency at the end of a churny replay: every mapped LSN
    // points at a physically-valid subpage owned by that LSN.
    let mut requests = Vec::new();
    let mut t = 0u64;
    for round in 0..30u64 {
        for slot in 0..8u64 {
            t += 300_000;
            let size = if (round + slot) % 3 == 0 { 8192 } else { 4096 };
            requests.push(IoRequest::new(t, OpKind::Write, slot * 65536, size));
        }
    }
    // Direct FTL drive (not the engine) so we can inspect the final state.
    let mut dev =
        ipu_core::flash::FlashDevice::new(ipu_core::flash::DeviceConfig::small_for_tests());
    let mut ftl = SchemeKind::Ipu.build(&mut dev, ipu_core::ftl::FtlConfig::default());
    for r in &requests {
        ftl.on_write(r, r.timestamp_ns, &mut dev);
    }
    let core = ftl.core();
    assert!(!core.map.is_empty());
    for (lsn, spa) in core.map.iter() {
        let page = dev.block(spa.ppa.block_addr()).page(spa.ppa.page);
        assert_eq!(
            page.subpage(spa.subpage),
            SubpageState::Valid,
            "lsn {lsn} stale"
        );
        let bi = core.block_idx(spa.ppa.block_addr());
        assert_eq!(core.owner(&dev, bi, spa), Some(lsn));
    }
    // The consolidated checker agrees.
    core.check_invariants(&dev)
        .expect("invariant violation after churn");
}

#[test]
fn invariants_hold_for_every_scheme_under_mixed_io() {
    for kind in ipu_core::ftl::SchemeKind::all_extended() {
        let mut dev =
            ipu_core::flash::FlashDevice::new(ipu_core::flash::DeviceConfig::small_for_tests());
        let mut ftl = kind.build(&mut dev, ipu_core::ftl::FtlConfig::default());
        let mut t = 0u64;
        for round in 0..25u64 {
            for slot in 0..6u64 {
                t += 400_000;
                let req = IoRequest::new(
                    t,
                    if (round + slot) % 4 == 0 {
                        OpKind::Read
                    } else {
                        OpKind::Write
                    },
                    slot * 65536,
                    4096 * (1 + (slot % 3) as u32),
                );
                match req.op {
                    OpKind::Write => ftl.on_write(&req, t, &mut dev),
                    OpKind::Read => ftl.on_read(&req, t, &mut dev),
                };
            }
        }
        ftl.core()
            .check_invariants(&dev)
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
    }
}

#[test]
fn scaled_experiment_config_preserves_cache_pressure_ratio() {
    // The writes-to-cache ratio at 2% scale must match the ratio at 4% scale
    // (both scale linearly), which is what makes scaled runs representative.
    let ratio = |scale: f64| {
        let cfg = ExperimentConfig::scaled(scale);
        let spec = ipu_core::trace::paper_trace(ipu_core::trace::PaperTrace::Ts0)
            .with_requests((1_801_734.0 * scale) as u64);
        let write_bytes = spec.expected_writes() as f64 * 8.0 * 1024.0;
        let ftl = ipu_core::ftl::FtlConfig::default();
        let slc_blocks = ftl.slc_blocks_per_plane(cfg.device.geometry.blocks_per_plane) as f64
            * cfg.device.geometry.total_planes() as f64;
        let cache_bytes = slc_blocks
            * cfg.device.geometry.pages_per_block_slc as f64
            * cfg.device.geometry.page_size as f64;
        write_bytes / cache_bytes
    };
    let r2 = ratio(0.1);
    let r4 = ratio(0.2);
    assert!(
        (r2 / r4 - 1.0).abs() < 0.25,
        "pressure ratio drifts with scale: {r2:.2} vs {r4:.2}"
    );
    // And there is real pressure (multiple cache turnovers).
    assert!(
        r2 > 2.0,
        "scaled runs must still pressure the cache (ratio {r2:.2})"
    );
}
