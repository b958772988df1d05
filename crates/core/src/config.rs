//! Experiment configuration: which traces, schemes and scale to run at.

use ipu_flash::DeviceConfig;
use ipu_ftl::{FtlConfig, SchemeKind};
use ipu_trace::PaperTrace;
use serde::{Deserialize, Serialize};

/// Configuration of a paper-reproduction experiment run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Device model (Table 2). `initial_pe_cycles` is the §4.5 sweep knob.
    #[serde(default)]
    pub device: DeviceConfig,
    /// FTL policy parameters.
    #[serde(default)]
    pub ftl: FtlConfig,
    /// Fraction of each trace's published request count to replay (1.0 = the
    /// full Table 3 counts; smaller values keep the calibrated ratios).
    ///
    /// Serde default 0.0 fails [`ExperimentConfig::validate`] loudly rather
    /// than silently running the full paper scale.
    #[serde(default)]
    pub scale: f64,
    /// Traces to run, in report order. Serde default is the empty list, which
    /// fails [`ExperimentConfig::validate`].
    #[serde(default)]
    pub traces: Vec<PaperTrace>,
    /// Schemes to compare, in report order. Serde default is the empty list,
    /// which fails [`ExperimentConfig::validate`].
    #[serde(default)]
    pub schemes: Vec<SchemeKind>,
    /// Worker threads for trace×scheme sweeps (0 = auto).
    #[serde(default)]
    pub threads: usize,
    /// Event-core timing model (GC preemption, read suspension). The default
    /// reproduces the legacy inline-engine timeline bit-for-bit.
    #[serde(default)]
    pub timing: ipu_sim::TimingConfig,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            device: DeviceConfig::paper_scale(),
            ftl: FtlConfig::default(),
            scale: 1.0,
            traces: PaperTrace::all().to_vec(),
            schemes: SchemeKind::all().to_vec(),
            threads: 0,
            timing: ipu_sim::TimingConfig::default(),
        }
    }
}

impl ExperimentConfig {
    /// Full paper-scale run: every trace, every scheme, published counts.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Scaled-down run preserving all calibrated ratios (`ipu-sim --scale`).
    ///
    /// Both the request counts *and* the device (blocks per plane, hence the
    /// SLC cache size) scale together, so the writes-to-cache-capacity ratio —
    /// what determines GC pressure and hot/cold separation behaviour — matches
    /// the full paper-scale run.
    pub fn scaled(scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale {scale} out of (0,1]");
        let mut cfg = ExperimentConfig {
            scale,
            ..Self::default()
        };
        cfg.device.geometry.blocks_per_plane = ((1024.0 * scale).round() as u32).clamp(16, 1024);
        cfg
    }

    /// Copy with a different pre-aged P/E cycle count (the §4.5 sweep).
    pub fn with_pe_cycles(&self, pe: u32) -> Self {
        let mut cfg = self.clone();
        cfg.device.initial_pe_cycles = pe;
        cfg
    }

    /// The replay-engine configuration this experiment uses for `scheme` —
    /// the replay-relevant subset (device, FTL, scheme, timing model) that
    /// also keys the on-disk replay cache.
    pub fn replay_config(&self, scheme: SchemeKind) -> ipu_sim::ReplayConfig {
        ipu_sim::ReplayConfig {
            device: self.device.clone(),
            ftl: self.ftl.clone(),
            scheme,
            timing: self.timing,
        }
    }

    /// Worker thread count to use.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            crate::parallel::default_threads()
        } else {
            self.threads
        }
    }

    /// Validates the composite configuration.
    pub fn validate(&self) -> Result<(), String> {
        self.device.validate()?;
        self.ftl.validate()?;
        if !(self.scale > 0.0 && self.scale <= 1.0) {
            return Err(format!("scale {} out of (0,1]", self.scale));
        }
        if self.traces.is_empty() || self.schemes.is_empty() {
            return Err("need at least one trace and one scheme".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_validates() {
        let c = ExperimentConfig::paper();
        c.validate().unwrap();
        assert_eq!(c.traces.len(), 6);
        assert_eq!(c.schemes.len(), 3);
        assert_eq!(c.device.initial_pe_cycles, 4000);
    }

    #[test]
    fn pe_sweep_only_changes_aging() {
        let base = ExperimentConfig::paper();
        let aged = base.with_pe_cycles(8000);
        assert_eq!(aged.device.initial_pe_cycles, 8000);
        assert_eq!(aged.device.geometry, base.device.geometry);
        assert_eq!(aged.scale, base.scale);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn zero_scale_rejected() {
        ExperimentConfig::scaled(0.0);
    }

    #[test]
    fn validation_catches_empty_sweeps() {
        let mut c = ExperimentConfig::paper();
        c.traces.clear();
        assert!(c.validate().is_err());
    }
}
