//! Power-loss injection and recovery verification.
//!
//! Mid-replay, every volatile FTL structure (mapping table, cache metadata,
//! open-block rings, scheme-local packing state) is dropped and rebuilt from
//! durable flash contents — the per-page OOB records and the bad-block table
//! ([`ipu_ftl::FtlScheme::power_cycle`]). A valid subpage's owner is the LSN
//! in its OOB tag, and the tags survive the cut unchanged, so the owners
//! compared below come from the tags; what the rebuild recomputes is the
//! mapping table and each block's ISR aggregates. The rebuilt state is
//! checked against a **golden oracle**: the durable view of the same FTL an
//! instant before power was cut. Recovery is correct iff the two are
//! identical and the core's structural invariants still hold.

use std::collections::BTreeMap;

use ipu_flash::{FlashDevice, Nanos, Spa};
use ipu_ftl::{BlockLevel, FtlCore, Lsn, OpBatch};
use ipu_trace::{IoRequest, OpKind};

use crate::engine::ReplayConfig;
use crate::event_core::EventCore;

/// Durable view of one in-use block: what OOB-based recovery must restore.
/// Beside the level and open order, these are the cache metadata's ISR
/// aggregates, which the rebuild recomputes from the device and the tags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockSnapshot {
    pub level: BlockLevel,
    /// Monotonic open order (ISR GC tie-breaking depends on it).
    pub opened_seq: u64,
    /// Valid subpages.
    pub valid_count: u32,
    /// Valid subpages in never-updated pages (the ISR J-term population).
    pub j_count: u32,
    /// Sum of the valid subpages' write times.
    pub sum_written_valid: u128,
    /// Sum of the J-term population's write times.
    pub sum_written_cold: u128,
    /// Newest write time this erase cycle, superseded subpages included.
    pub newest_written: Nanos,
    /// The J-term population as a page-major bitset.
    pub cold_mask: Vec<u64>,
}

/// The durable slice of FTL state: everything power-loss recovery must
/// reproduce *exactly*. Volatile-only details — active-block rings, GC
/// pacing gates, free-pool ordering, open-page packing state — are
/// deliberately excluded: they may legally differ after a rebuild.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DurableSnapshot {
    /// LSN → `(block index, page, subpage)` of every mapped logical subpage.
    pub map: BTreeMap<Lsn, (u64, u32, u8)>,
    /// Owner (OOB tag LSN) of every device-valid subpage.
    pub owners: BTreeMap<(u64, u32, u8), Lsn>,
    /// In-use blocks holding at least one programmed subpage.
    pub blocks: BTreeMap<u64, BlockSnapshot>,
    /// Retired blocks, ascending dense index.
    pub bad_blocks: Vec<u64>,
}

impl DurableSnapshot {
    /// First difference versus `other`, as a human-readable description.
    /// `None` when the snapshots are identical.
    pub fn diff(&self, other: &DurableSnapshot) -> Option<String> {
        if self.map != other.map {
            return Some(format!(
                "mapping tables differ ({} vs {} entries)",
                self.map.len(),
                other.map.len()
            ));
        }
        if self.owners != other.owners {
            return Some(format!(
                "OOB owners differ ({} vs {} valid subpages)",
                self.owners.len(),
                other.owners.len()
            ));
        }
        if self.bad_blocks != other.bad_blocks {
            return Some(format!(
                "bad-block tables differ ({:?} vs {:?})",
                self.bad_blocks, other.bad_blocks
            ));
        }
        if self.blocks != other.blocks {
            for (idx, b) in &self.blocks {
                match other.blocks.get(idx) {
                    None => return Some(format!("block {idx} missing after rebuild")),
                    Some(o) if o != b => {
                        return Some(format!("block {idx} metadata differs: {b:?} vs {o:?}"))
                    }
                    _ => {}
                }
            }
            return Some("rebuild restored extra blocks".to_string());
        }
        None
    }
}

/// Extracts the durable view of `core` over `dev`.
pub fn durable_snapshot(core: &FtlCore, dev: &FlashDevice) -> DurableSnapshot {
    let geo = core.geometry();
    let spa_key = |spa: Spa| {
        let addr = ipu_flash::BlockAddr::new(
            spa.ppa.channel,
            spa.ppa.chip,
            spa.ppa.die,
            spa.ppa.plane,
            spa.ppa.block,
        );
        (geo.block_index(addr), spa.ppa.page, spa.subpage)
    };

    let map: BTreeMap<Lsn, (u64, u32, u8)> = core
        .map
        .iter()
        .map(|(lsn, spa)| (lsn, spa_key(spa)))
        .collect();

    // Owners of every device-valid subpage, walked in device order.
    let mut owners = BTreeMap::new();
    for idx in 0..geo.total_blocks() {
        let addr = geo.block_from_index(idx);
        let block = dev.block_by_index(idx);
        for page in 0..block.page_count() {
            let ps = block.page(page);
            for sub in 0..ps.subpage_count() {
                if ps.subpage(sub) == ipu_flash::SubpageState::Valid {
                    let spa = Spa::new(addr.page(page), sub);
                    if let Some(lsn) = core.owner(dev, idx, spa) {
                        owners.insert((idx, page, sub), lsn);
                    }
                }
            }
        }
    }

    // In-use blocks with at least one programmed subpage, which is what a
    // non-zero newest write time says. (A freshly-opened block that never
    // received a program has no durable trace, so recovery legitimately
    // forgets it.)
    let blocks = core
        .meta
        .iter()
        .filter(|(_, meta)| meta.newest_written() > 0)
        .map(|(idx, meta)| {
            let snapshot = BlockSnapshot {
                level: meta.level(),
                opened_seq: meta.opened_seq(),
                valid_count: meta.valid_count(),
                j_count: meta.j_count(),
                sum_written_valid: meta.sum_written_valid(),
                sum_written_cold: meta.sum_written_cold(),
                newest_written: meta.newest_written(),
                cold_mask: meta.cold_mask_words().to_vec(),
            };
            (idx, snapshot)
        })
        .collect();

    let mut bad_blocks: Vec<u64> = core.bad_blocks().iter().copied().collect();
    bad_blocks.sort_unstable();

    DurableSnapshot {
        map,
        owners,
        blocks,
        bad_blocks,
    }
}

/// Outcome of a replay with one injected power loss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PowerLossReport {
    /// Requests replayed before the cut.
    pub requests_before: u64,
    /// Requests replayed after recovery.
    pub requests_after: u64,
    /// Mapped logical subpages at the instant of power loss.
    pub mapped_subpages: u64,
    /// In-use blocks the rebuild restored.
    pub restored_blocks: u64,
    /// Background (GC / wear-leveling) nanoseconds still queued on the event
    /// core when power was cut — in-flight rounds the loss interrupted.
    /// Recovery must hold regardless of how much background work was
    /// outstanding.
    pub interrupted_background_ns: Nanos,
}

/// Replays `requests` under `cfg`, cutting power after the first `cut`
/// requests: the FTL's volatile state is dropped, rebuilt from flash, checked
/// against the golden (pre-loss) durable snapshot and the core invariants,
/// then the remaining requests are replayed on the recovered FTL.
///
/// Returns `Err` describing the first inconsistency if recovery diverges
/// from the oracle.
pub fn replay_with_power_loss(
    cfg: &ReplayConfig,
    requests: &[IoRequest],
    cut: usize,
    trace_name: &str,
) -> Result<PowerLossReport, String> {
    let cut = cut.min(requests.len());
    let mut dev = FlashDevice::new(cfg.device.clone());
    let mut ftl = cfg.scheme.build(&mut dev, cfg.ftl.clone());

    // Each power segment runs on its own event core: the cut drops the
    // in-flight background rounds along with the volatile FTL state (their
    // flash-side effects are already durable — the FTL applies state
    // immediately, timing is the core's job).
    let run = |ftl: &mut Box<dyn ipu_ftl::FtlScheme>,
               dev: &mut FlashDevice,
               core: &mut EventCore,
               reqs: &[IoRequest]| {
        let mut batch = OpBatch::new();
        for req in reqs {
            let now = req.timestamp_ns;
            batch.clear();
            match req.op {
                OpKind::Write => ftl.on_write_into(req, now, dev, &mut batch),
                OpKind::Read => ftl.on_read_into(req, now, dev, &mut batch),
            };
            core.advance_to(now);
            core.dispatch(now, &batch, req.op);
        }
    };

    let chips = cfg.device.geometry.total_chips();
    let mut core = EventCore::new(chips, cfg.timing);
    run(&mut ftl, &mut dev, &mut core, &requests[..cut]);
    let interrupted_background_ns = core.background_backlog();

    let golden = durable_snapshot(ftl.core(), &dev);
    ftl.power_cycle(&dev);
    let rebuilt = durable_snapshot(ftl.core(), &dev);

    if let Some(diff) = golden.diff(&rebuilt) {
        return Err(format!(
            "{trace_name}/{}: recovery diverged from oracle after {cut} requests: {diff}",
            cfg.scheme
        ));
    }
    ftl.core().check_invariants(&dev).map_err(|e| {
        format!(
            "{trace_name}/{}: invariants broken after rebuild: {e}",
            cfg.scheme
        )
    })?;

    // Power is back: a fresh event core models the restarted device.
    let mut core = EventCore::new(chips, cfg.timing);
    run(&mut ftl, &mut dev, &mut core, &requests[cut..]);
    core.finish();
    ftl.core().check_invariants(&dev).map_err(|e| {
        format!(
            "{trace_name}/{}: invariants broken after resume: {e}",
            cfg.scheme
        )
    })?;

    Ok(PowerLossReport {
        requests_before: cut as u64,
        requests_after: (requests.len() - cut) as u64,
        mapped_subpages: golden.map.len() as u64,
        restored_blocks: rebuilt.blocks.len() as u64,
        interrupted_background_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipu_ftl::SchemeKind;

    fn workload(n: u64) -> Vec<IoRequest> {
        (0..n)
            .map(|i| {
                let op = if i % 5 == 4 {
                    OpKind::Read
                } else {
                    OpKind::Write
                };
                // Overwrites within a small working set force updates and GC.
                IoRequest::new(
                    i * 60_000,
                    op,
                    (i % 12) * 65536,
                    4096 + (i % 3) as u32 * 4096,
                )
            })
            .collect()
    }

    #[test]
    fn recovery_matches_oracle_for_all_schemes() {
        for scheme in SchemeKind::all_extended() {
            let cfg = ReplayConfig::small_for_tests(scheme);
            let reqs = workload(120);
            let report = replay_with_power_loss(&cfg, &reqs, 70, "t").unwrap();
            assert_eq!(report.requests_before, 70);
            assert_eq!(report.requests_after, 50);
            assert!(report.mapped_subpages > 0, "{scheme}: nothing was mapped");
            assert!(report.restored_blocks > 0, "{scheme}: nothing restored");
        }
    }

    #[test]
    fn recovery_holds_at_every_cut_point() {
        // Sweep cut positions so the loss lands mid-GC, mid-update, on open
        // blocks, etc.
        let reqs = workload(90);
        let mut interrupted_any = false;
        for cut in (0..=90).step_by(9) {
            for scheme in SchemeKind::all() {
                let cfg = ReplayConfig::small_for_tests(scheme);
                let report = replay_with_power_loss(&cfg, &reqs, cut, "sweep").unwrap();
                interrupted_any |= report.interrupted_background_ns > 0;
            }
        }
        // The sweep must actually exercise a loss that interrupts queued
        // background work — otherwise the mid-GC cut path is untested.
        assert!(
            interrupted_any,
            "no cut in the sweep interrupted background work"
        );
    }

    #[test]
    fn recovery_matches_oracle_under_faults() {
        // Program/erase failures retire blocks; the bad-block table and the
        // remapped data must both survive the power cycle.
        for scheme in SchemeKind::all() {
            let mut cfg = ReplayConfig::small_for_tests(scheme);
            let (fault, retry) = ipu_flash::FaultProfile::named("light").unwrap();
            cfg.device.fault = fault;
            cfg.device.retry = retry;
            let reqs = workload(150);
            replay_with_power_loss(&cfg, &reqs, 100, "faulty").unwrap();
        }
    }

    #[test]
    fn snapshot_diff_reports_divergence() {
        let cfg = ReplayConfig::small_for_tests(SchemeKind::Ipu);
        let reqs = workload(40);
        let mut dev = FlashDevice::new(cfg.device.clone());
        let mut ftl = cfg.scheme.build(&mut dev, cfg.ftl.clone());
        for req in &reqs {
            match req.op {
                OpKind::Write => ftl.on_write(req, req.timestamp_ns, &mut dev),
                OpKind::Read => ftl.on_read(req, req.timestamp_ns, &mut dev),
            };
        }
        let a = durable_snapshot(ftl.core(), &dev);
        assert_eq!(a.diff(&a), None);
        let mut b = a.clone();
        let (&lsn, _) = b.map.iter().next().expect("workload maps data");
        b.map.remove(&lsn);
        assert!(a.diff(&b).unwrap().contains("mapping tables differ"));
        let mut c = a.clone();
        let block = c
            .blocks
            .values_mut()
            .next()
            .expect("workload programs blocks");
        block.cold_mask[0] ^= 1;
        assert!(a.diff(&c).unwrap().contains("metadata differs"));
    }
}
