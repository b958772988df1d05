//! FTL-level statistics feeding the paper's figures.

use serde::{Deserialize, Serialize};

use crate::types::BlockLevel;

/// Counters maintained by every scheme.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FtlStats {
    /// Host write requests handled.
    pub host_write_requests: u64,
    /// Host read requests handled.
    pub host_read_requests: u64,

    /// Subpages written on behalf of the host into SLC-mode pages (Fig. 6).
    pub host_subpages_to_slc: u64,
    /// Subpages written on behalf of the host into MLC pages (Fig. 6).
    pub host_subpages_to_mlc: u64,

    /// Host page-program operations per destination level (Fig. 7); indexed
    /// by `BlockLevel as usize`.
    pub host_programs_per_level: [u64; 4],

    /// Writes satisfied by intra-page update (IPU's headline mechanism).
    pub intra_page_updates: u64,
    /// Writes that triggered upgraded data movement (level promotion).
    pub upgraded_writes: u64,

    /// SLC-region GC invocations.
    pub gc_runs_slc: u64,
    /// MLC-region GC invocations.
    pub gc_runs_mlc: u64,
    /// Valid subpages relocated by GC (any destination).
    pub gc_moved_subpages: u64,
    /// Valid subpages ejected from the SLC cache into MLC by GC.
    pub gc_evicted_subpages: u64,
    /// Programmed (used) subpages summed over all SLC GC victim blocks (Fig. 9).
    pub gc_victim_used_subpages: u64,
    /// Total subpages summed over all SLC GC victim blocks (Fig. 9).
    pub gc_victim_total_subpages: u64,

    /// Host reads of never-written logical addresses.
    pub unmapped_reads: u64,
    /// Σ effective RBER over host-read subpages (Fig. 8 numerator).
    pub host_read_rber_sum: f64,
    /// Host subpages read from mapped locations (Fig. 8 denominator).
    pub host_subpages_read: u64,
    /// Host reads whose expected errors exceeded ECC capability.
    pub host_uncorrectable_reads: u64,
    /// Blocks migrated by static wear-leveling.
    pub wear_leveling_migrations: u64,

    /// Uncorrectable host reads recovered by the read-retry ladder.
    #[serde(default)]
    pub recovered_reads: u64,
    /// Individual retry-step reads issued while walking the ladder.
    #[serde(default)]
    pub read_retries: u64,
    /// Total latency of retry-step reads (cell read + ECC + step penalty), ns.
    #[serde(default)]
    pub retry_latency_ns: u64,
    /// Blocks permanently retired after program or erase failures.
    #[serde(default)]
    pub retired_blocks: u64,
    /// Programs replayed onto a fresh page after a program failure.
    #[serde(default)]
    pub program_retries: u64,
    /// Host write requests that ultimately failed (placement retries
    /// exhausted or physical space ran out).
    #[serde(default)]
    pub host_write_failures: u64,
    /// Data-loss events: host reads still uncorrectable after the full retry
    /// ladder, plus subpages unrecoverable during block retirement.
    #[serde(default)]
    pub data_loss_events: u64,
    /// Always 0. Counted the pages of a background scrub pass that no
    /// config enabled and that has been removed; kept so saved reports and
    /// the benchmark's counter fingerprints keep their fields.
    #[serde(default)]
    pub scrub_rewrites: u64,
    /// Times a reusable scratch buffer (read-run merge list, GC page-group
    /// list) had to grow its capacity. Flat after warm-up ⇔ the steady-state
    /// request path performs no scratch heap allocation; tests pin this.
    #[serde(default)]
    pub scratch_grows: u64,
}

impl FtlStats {
    /// Folds `other` into `self`: every counter sums, so merging the
    /// per-shard stats of a partitioned run reproduces the whole-run totals
    /// (the `merge-complete` lint pins every field to appear here).
    pub fn merge(&mut self, other: &FtlStats) {
        self.host_write_requests += other.host_write_requests;
        self.host_read_requests += other.host_read_requests;
        self.host_subpages_to_slc += other.host_subpages_to_slc;
        self.host_subpages_to_mlc += other.host_subpages_to_mlc;
        for (mine, theirs) in self
            .host_programs_per_level
            .iter_mut()
            .zip(other.host_programs_per_level)
        {
            *mine += theirs;
        }
        self.intra_page_updates += other.intra_page_updates;
        self.upgraded_writes += other.upgraded_writes;
        self.gc_runs_slc += other.gc_runs_slc;
        self.gc_runs_mlc += other.gc_runs_mlc;
        self.gc_moved_subpages += other.gc_moved_subpages;
        self.gc_evicted_subpages += other.gc_evicted_subpages;
        self.gc_victim_used_subpages += other.gc_victim_used_subpages;
        self.gc_victim_total_subpages += other.gc_victim_total_subpages;
        self.unmapped_reads += other.unmapped_reads;
        self.host_read_rber_sum += other.host_read_rber_sum;
        self.host_subpages_read += other.host_subpages_read;
        self.host_uncorrectable_reads += other.host_uncorrectable_reads;
        self.wear_leveling_migrations += other.wear_leveling_migrations;
        self.recovered_reads += other.recovered_reads;
        self.read_retries += other.read_retries;
        self.retry_latency_ns += other.retry_latency_ns;
        self.retired_blocks += other.retired_blocks;
        self.program_retries += other.program_retries;
        self.host_write_failures += other.host_write_failures;
        self.data_loss_events += other.data_loss_events;
        self.scrub_rewrites += other.scrub_rewrites;
        self.scratch_grows += other.scratch_grows;
    }

    /// Records a host page program of `subpages` subpages at `level`.
    pub fn note_host_program(&mut self, level: BlockLevel, subpages: u32) {
        self.host_programs_per_level[level as usize] += 1;
        if level.is_slc() {
            self.host_subpages_to_slc += subpages as u64;
        } else {
            self.host_subpages_to_mlc += subpages as u64;
        }
    }

    /// Average effective RBER over everything the host read (Fig. 8).
    pub fn avg_read_error_rate(&self) -> f64 {
        if self.host_subpages_read == 0 {
            0.0
        } else {
            self.host_read_rber_sum / self.host_subpages_read as f64
        }
    }

    /// Page utilization over SLC GC victim blocks (Fig. 9).
    pub fn gc_page_utilization(&self) -> f64 {
        if self.gc_victim_total_subpages == 0 {
            0.0
        } else {
            self.gc_victim_used_subpages as f64 / self.gc_victim_total_subpages as f64
        }
    }

    /// Share of host page programs landing at each level (Fig. 7).
    pub fn level_distribution(&self) -> [f64; 4] {
        let total: u64 = self.host_programs_per_level.iter().sum();
        if total == 0 {
            return [0.0; 4];
        }
        let mut out = [0.0; 4];
        for (i, &c) in self.host_programs_per_level.iter().enumerate() {
            out[i] = c as f64 / total as f64;
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // mutate-then-check idiom
mod tests {
    use super::*;

    #[test]
    fn note_host_program_routes_by_region() {
        let mut s = FtlStats::default();
        s.note_host_program(BlockLevel::Work, 3);
        s.note_host_program(BlockLevel::Hot, 1);
        s.note_host_program(BlockLevel::HighDensity, 4);
        assert_eq!(s.host_subpages_to_slc, 4);
        assert_eq!(s.host_subpages_to_mlc, 4);
        assert_eq!(s.host_programs_per_level, [1, 1, 0, 1]);
    }

    #[test]
    fn derived_metrics_handle_empty_state() {
        let s = FtlStats::default();
        assert_eq!(s.avg_read_error_rate(), 0.0);
        assert_eq!(s.gc_page_utilization(), 0.0);
        assert_eq!(s.level_distribution(), [0.0; 4]);
    }

    #[test]
    fn merge_sums_every_counter() {
        let mut a = FtlStats::default();
        a.host_write_requests = 10;
        a.host_programs_per_level = [1, 2, 3, 4];
        a.host_read_rber_sum = 0.25;
        a.scratch_grows = 7;
        let mut b = FtlStats::default();
        b.host_write_requests = 5;
        b.host_read_requests = 9;
        b.host_programs_per_level = [10, 20, 30, 40];
        b.host_read_rber_sum = 0.5;
        b.data_loss_events = 2;
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.host_write_requests, 15);
        assert_eq!(merged.host_read_requests, 9);
        assert_eq!(merged.host_programs_per_level, [11, 22, 33, 44]);
        assert!((merged.host_read_rber_sum - 0.75).abs() < 1e-12);
        assert_eq!(merged.data_loss_events, 2);
        assert_eq!(merged.scratch_grows, 7);
        // Merging the default is the identity.
        let mut same = b.clone();
        same.merge(&FtlStats::default());
        assert_eq!(same, b);
    }

    #[test]
    fn derived_metrics_compute_ratios() {
        let mut s = FtlStats::default();
        s.host_read_rber_sum = 6e-4;
        s.host_subpages_read = 2;
        assert!((s.avg_read_error_rate() - 3e-4).abs() < 1e-12);

        s.gc_victim_used_subpages = 3;
        s.gc_victim_total_subpages = 4;
        assert!((s.gc_page_utilization() - 0.75).abs() < 1e-12);

        s.host_programs_per_level = [1, 1, 0, 2];
        let d = s.level_distribution();
        assert!((d[0] - 0.25).abs() < 1e-12);
        assert!((d[3] - 0.5).abs() < 1e-12);
    }
}
