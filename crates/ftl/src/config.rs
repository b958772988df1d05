//! FTL configuration.

use serde::{Deserialize, Serialize};

use crate::wear_leveling::WearLevelingConfig;

/// FTL-level policy parameters (paper Table 2 plus scheme knobs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FtlConfig {
    /// Fraction of all blocks operated in SLC-mode (Table 2: 5%).
    pub slc_ratio: f64,
    /// GC triggers when the free fraction of a region's blocks drops below
    /// this (Table 2: 5%).
    pub gc_threshold: f64,
    /// Maximum open (partially-filled, partially-programmable) pages the
    /// packing schemes (MGA and IPU+) keep as packing candidates — models the
    /// controller's write-buffer bound.
    pub mga_open_page_limit: usize,
    /// Active blocks kept open per level, page allocations round-robin across
    /// them. Models SSDsim's dynamic allocation striping writes over
    /// channels; bounded by the number of planes at runtime.
    pub write_parallelism: usize,
    /// IPU ablation: use the paper's ISR GC policy (Equations 1–2). When
    /// false, IPU and IPU+ fall back to greedy subpage-granular victim
    /// selection; Baseline and MGA are always greedy.
    pub ipu_use_isr_gc: bool,
    /// IPU ablation: highest SLC cache level (`block_flag`) data can climb to.
    /// The paper uses 3 (Work/Monitor/Hot); 1 collapses the hierarchy to a
    /// single Work level.
    pub ipu_max_level: u8,
    /// Static wear-leveling policy (Table 2: "Wear-leveling: static").
    pub wear_leveling: WearLevelingConfig,
}

impl Default for FtlConfig {
    fn default() -> Self {
        FtlConfig {
            slc_ratio: 0.05,
            gc_threshold: 0.05,
            mga_open_page_limit: 64,
            write_parallelism: 16,
            ipu_use_isr_gc: true,
            ipu_max_level: 3,
            wear_leveling: WearLevelingConfig::default(),
        }
    }
}

impl FtlConfig {
    /// Number of SLC-mode blocks per plane given `blocks_per_plane`.
    ///
    /// The SLC region is spread evenly across planes so the cache enjoys the
    /// device's full channel parallelism (as SSDsim's hybrid configs do).
    pub fn slc_blocks_per_plane(&self, blocks_per_plane: u32) -> u32 {
        ((blocks_per_plane as f64 * self.slc_ratio).ceil() as u32)
            .clamp(1, blocks_per_plane.saturating_sub(1).max(1))
    }

    /// GC trigger threshold in blocks for a region of `region_blocks` blocks.
    pub fn gc_threshold_blocks(&self, region_blocks: u64) -> u64 {
        ((region_blocks as f64 * self.gc_threshold).ceil() as u64).max(1)
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0 < self.slc_ratio && self.slc_ratio < 1.0) {
            return Err(format!("slc_ratio {} out of (0,1)", self.slc_ratio));
        }
        if !(0.0 < self.gc_threshold && self.gc_threshold < 1.0) {
            return Err(format!("gc_threshold {} out of (0,1)", self.gc_threshold));
        }
        if self.mga_open_page_limit == 0 {
            return Err("mga_open_page_limit must be positive".into());
        }
        if self.write_parallelism == 0 {
            return Err("write_parallelism must be positive".into());
        }
        if !(1..=3).contains(&self.ipu_max_level) {
            return Err(format!("ipu_max_level {} out of 1..=3", self.ipu_max_level));
        }
        self.wear_leveling.validate()
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // mutate-then-validate idiom
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = FtlConfig::default();
        assert_eq!(c.slc_ratio, 0.05);
        assert_eq!(c.gc_threshold, 0.05);
        c.validate().unwrap();
    }

    #[test]
    fn slc_blocks_per_plane_matches_paper_scale() {
        let c = FtlConfig::default();
        // 1024 blocks/plane × 5% = 52 blocks/plane (rounded up); over 64
        // planes that is 3328 blocks ≈ 5.08% of 65,536.
        assert_eq!(c.slc_blocks_per_plane(1024), 52);
        // Tiny planes still get at least one SLC block but never all blocks.
        assert_eq!(c.slc_blocks_per_plane(4), 1);
        assert_eq!(c.slc_blocks_per_plane(1), 1);
    }

    #[test]
    fn gc_threshold_has_a_floor() {
        let c = FtlConfig::default();
        assert_eq!(c.gc_threshold_blocks(3328), 167);
        assert_eq!(c.gc_threshold_blocks(4), 1);
        assert_eq!(c.gc_threshold_blocks(0), 1);
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut c = FtlConfig::default();
        c.slc_ratio = 0.0;
        assert!(c.validate().is_err());
        let mut c = FtlConfig::default();
        c.gc_threshold = 1.0;
        assert!(c.validate().is_err());
        let mut c = FtlConfig::default();
        c.mga_open_page_limit = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn config_without_scrub_field_deserializes() {
        // Configs saved before the fault model gained the scrub knob.
        let json = serde_json::to_string(&FtlConfig::default()).unwrap();
        let back: FtlConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, FtlConfig::default());
    }
}
