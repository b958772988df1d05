//! Device configuration: geometry, timing (paper Table 2) and error models.

use serde::{Deserialize, Serialize};

use crate::error::ber::BerModel;
use crate::error::disturb::DisturbConfig;
use crate::error::ecc::EccModel;
use crate::error::sampling::ErrorMode;
use crate::fault::{FaultProfile, RetryLadder};
use crate::geometry::FlashGeometry;
use crate::mode::CellMode;
use crate::time::{ms_to_ns, Nanos};

/// Raw flash operation latencies, per the paper's Table 2 (values in ms there).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingConfig {
    /// SLC-mode page read time, ms (Table 2: 0.025).
    pub slc_read_ms: f64,
    /// MLC-mode page read time, ms (Table 2: 0.05).
    pub mlc_read_ms: f64,
    /// SLC-mode page program time, ms (Table 2: 0.3).
    pub slc_write_ms: f64,
    /// MLC-mode page program time, ms (Table 2: 0.9).
    pub mlc_write_ms: f64,
    /// Block erase time, ms (Table 2: 10).
    pub erase_ms: f64,
    /// Channel transfer time per KB moved, ms. Table 2 does not list a bus
    /// speed; the default models a 400 MB/s ONFI channel (≈0.0025 ms/KB).
    pub transfer_ms_per_kb: f64,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            slc_read_ms: 0.025,
            mlc_read_ms: 0.05,
            slc_write_ms: 0.3,
            mlc_write_ms: 0.9,
            erase_ms: 10.0,
            transfer_ms_per_kb: 0.0025,
        }
    }
}

impl TimingConfig {
    /// Cell (array) read latency for `mode`, in nanoseconds.
    #[inline]
    pub fn read_ns(&self, mode: CellMode) -> Nanos {
        match mode {
            CellMode::Slc => ms_to_ns(self.slc_read_ms),
            CellMode::Mlc => ms_to_ns(self.mlc_read_ms),
        }
    }

    /// Cell (array) program latency for `mode`, in nanoseconds.
    ///
    /// A partial program still drives the full word line, so program time does
    /// not scale down with the number of subpages written.
    #[inline]
    pub fn program_ns(&self, mode: CellMode) -> Nanos {
        match mode {
            CellMode::Slc => ms_to_ns(self.slc_write_ms),
            CellMode::Mlc => ms_to_ns(self.mlc_write_ms),
        }
    }

    /// Block erase latency in nanoseconds.
    #[inline]
    pub fn erase_ns(&self) -> Nanos {
        ms_to_ns(self.erase_ms)
    }

    /// Channel transfer latency for `bytes` of data, in nanoseconds.
    #[inline]
    pub fn transfer_ns(&self, bytes: u32) -> Nanos {
        ms_to_ns(self.transfer_ms_per_kb * bytes as f64 / 1024.0)
    }

    /// Checks all latencies are non-negative and ordered sensibly.
    pub fn validate(&self) -> Result<(), String> {
        let vals = [
            self.slc_read_ms,
            self.mlc_read_ms,
            self.slc_write_ms,
            self.mlc_write_ms,
            self.erase_ms,
            self.transfer_ms_per_kb,
        ];
        if vals.iter().any(|v| *v < 0.0) {
            return Err("latencies must be non-negative".into());
        }
        if self.slc_read_ms > self.mlc_read_ms || self.slc_write_ms > self.mlc_write_ms {
            return Err("SLC-mode operations must not be slower than MLC-mode".into());
        }
        Ok(())
    }
}

/// Full device configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// Physical layout (channels × chips × dies × planes × blocks × pages).
    #[serde(default)]
    pub geometry: FlashGeometry,
    /// Operation latencies (Table 2).
    #[serde(default)]
    pub timing: TimingConfig,
    /// Raw bit error rate model.
    #[serde(default)]
    pub ber: BerModel,
    /// Read/program disturb accumulation model.
    #[serde(default)]
    pub disturb: DisturbConfig,
    /// ECC correction strength.
    #[serde(default)]
    pub ecc: EccModel,
    /// Initial P/E cycle count pre-applied to every block, modelling device age
    /// (paper §4.5 sweeps this over {1000, 2000, 4000, 8000}; default 4000).
    ///
    /// Serde default is the type default (0 = fresh device), not the
    /// paper-scale 4000: a config file that omits it asks for no pre-ageing.
    #[serde(default)]
    pub initial_pe_cycles: u32,
    /// Mode blocks are formatted to at device creation.
    #[serde(default)]
    pub initial_mode: CellMode,
    /// Manufacturer NOP limit: maximum program operations per SLC-mode page
    /// (paper / datasheets: 4). Ablation benches sweep {1, 2, 4}.
    ///
    /// Serde default 0 fails [`DeviceConfig::validate`] loudly rather than
    /// silently picking a NOP limit.
    #[serde(default)]
    pub max_partial_programs: u8,
    /// How reads realize raw bit errors: the expectation (default, the
    /// paper's averaged metrics) or a deterministic Poisson draw per read
    /// (tail studies: uncorrectable-read probability, retry behaviour).
    #[serde(default)]
    pub error_mode: ErrorMode,
    /// Injected media faults (inert by default; see [`FaultProfile`]).
    #[serde(default)]
    pub fault: FaultProfile,
    /// Read-retry ladder the FTL walks on uncorrectable reads (empty by
    /// default: no retries, the pre-fault-model behaviour).
    #[serde(default)]
    pub retry: RetryLadder,
}

impl Default for DeviceConfig {
    /// The paper-scale device ([`DeviceConfig::paper_scale`]).
    fn default() -> Self {
        Self::paper_scale()
    }
}

impl DeviceConfig {
    /// Paper-scale device as in Table 2 (P/E pre-aged to 4000 cycles).
    pub fn paper_scale() -> Self {
        DeviceConfig {
            geometry: FlashGeometry::paper_scale(),
            timing: TimingConfig::default(),
            ber: BerModel::default(),
            disturb: DisturbConfig::default(),
            ecc: EccModel::default(),
            initial_pe_cycles: 4000,
            initial_mode: CellMode::Mlc,
            max_partial_programs: crate::state::MAX_PARTIAL_PROGRAMS_SLC,
            error_mode: ErrorMode::Expected,
            fault: FaultProfile::default(),
            retry: RetryLadder::default(),
        }
    }

    /// Tiny device for unit tests.
    pub fn small_for_tests() -> Self {
        DeviceConfig {
            geometry: FlashGeometry::small_for_tests(),
            ..Self::paper_scale()
        }
    }

    /// Validates every component.
    pub fn validate(&self) -> Result<(), String> {
        self.geometry.validate()?;
        self.timing.validate()?;
        self.ber.validate()?;
        // Pre-trace reads decode at the MLC baseline for this age, and a
        // raw bit error rate must stay below 1.
        let rber = self
            .ber
            .baseline_rber(self.initial_pe_cycles, CellMode::Mlc);
        if rber >= 1.0 {
            return Err(format!(
                "initial_pe_cycles {} gives baseline RBER {rber:.3}, which must stay below 1",
                self.initial_pe_cycles
            ));
        }
        self.disturb.validate()?;
        self.ecc.validate()?;
        if self.max_partial_programs == 0 {
            return Err("max_partial_programs must be at least 1".into());
        }
        self.fault.validate()?;
        self.retry.validate()?;
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // mutate-then-validate idiom
mod tests {
    use super::*;
    use crate::time::MILLISECOND;

    #[test]
    fn default_timing_matches_table2() {
        let t = TimingConfig::default();
        assert_eq!(t.read_ns(CellMode::Slc), 25_000);
        assert_eq!(t.read_ns(CellMode::Mlc), 50_000);
        assert_eq!(t.program_ns(CellMode::Slc), 300_000);
        assert_eq!(t.program_ns(CellMode::Mlc), 900_000);
        assert_eq!(t.erase_ns(), 10 * MILLISECOND);
    }

    #[test]
    fn transfer_scales_with_bytes() {
        let t = TimingConfig::default();
        let one_sub = t.transfer_ns(4096);
        let full_page = t.transfer_ns(16 * 1024);
        assert_eq!(full_page, one_sub * 4);
        assert_eq!(t.transfer_ns(0), 0);
    }

    #[test]
    fn paper_scale_config_validates() {
        DeviceConfig::paper_scale().validate().unwrap();
        DeviceConfig::small_for_tests().validate().unwrap();
    }

    #[test]
    fn validation_bounds_initial_pe_cycles_by_rber() {
        let mut cfg = DeviceConfig::small_for_tests();
        cfg.initial_pe_cycles = 20_000;
        cfg.validate().unwrap();
        cfg.initial_pe_cycles = 21_000;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("21000") && err.contains("RBER 1.3"), "{err}");
        cfg.initial_pe_cycles = u32::MAX;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_rejects_inverted_latencies() {
        let mut t = TimingConfig::default();
        t.slc_read_ms = 1.0; // slower than MLC read
        assert!(t.validate().is_err());
        let mut t = TimingConfig::default();
        t.erase_ms = -1.0;
        assert!(t.validate().is_err());
    }

    #[test]
    fn config_round_trips_through_serde() {
        let cfg = DeviceConfig::paper_scale();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: DeviceConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}
