//! Flash operation records emitted by the FTL.
//!
//! The FTL executes operations against the device immediately (state-wise) but
//! *timing* is the simulator's job: each operation is reported as an
//! [`OpRecord`] carrying its service latency and the chip it occupies, and
//! `ipu-sim` serializes records per chip to model contention.

use ipu_flash::Nanos;
use serde::{Deserialize, Serialize};

/// What kind of flash operation a record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlashOpKind {
    /// Read issued to serve a host read.
    HostRead,
    /// Read of a logical address the host never wrote (pre-trace data).
    UnmappedRead,
    /// Program issued to serve a host write.
    HostProgram,
    /// Read issued by GC to relocate valid data.
    GcRead,
    /// Program issued by GC to relocate valid data.
    GcProgram,
    /// Block erase (always GC- or eviction-driven).
    Erase,
}

impl FlashOpKind {
    /// Whether this operation was issued on behalf of the host request (and
    /// therefore contributes to its response time directly).
    pub fn is_host(self) -> bool {
        matches!(
            self,
            FlashOpKind::HostRead | FlashOpKind::UnmappedRead | FlashOpKind::HostProgram
        )
    }
}

/// Why a background round of operations was started. The event core times
/// every origin alike; the origin is kept so that a request's wait can be
/// attributed to GC or wear-leveling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RoundOrigin {
    /// Garbage collection (SLC or MLC victim reclaim, emergency reclaim).
    Gc,
    /// Static wear-leveling migration.
    WearLevel,
}

/// One flash operation with its service latency and chip placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpRecord {
    /// Dense chip index (`FlashGeometry::chip_index`) the operation occupies.
    pub chip: u32,
    pub kind: FlashOpKind,
    /// Service latency of the operation itself.
    pub latency_ns: Nanos,
    /// Background round this operation belongs to, within its batch: `0` for
    /// host operations (and stray background work emitted outside any round),
    /// otherwise a 1-based index into the batch's
    /// [`round origins`](OpBatch::round_origin). The event-driven replay core
    /// uses round boundaries to model run-to-completion GC; batches recorded
    /// before round tagging deserialize as untagged (`0`).
    #[serde(default)]
    pub round: u32,
}

/// Completion status of one host request, in ascending severity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReqStatus {
    /// Served without incident.
    #[default]
    Success,
    /// Served, but only after fault recovery (read-retry ladder succeeded,
    /// or a program was replayed onto a fresh page after a failure).
    Recovered,
    /// Data was lost or the request could not be completed (retry ladder
    /// exhausted, write placement failed, or space ran out).
    Failed,
}

impl ReqStatus {
    /// Raises the status to `to` if `to` is more severe; never lowers it.
    pub fn escalate(&mut self, to: ReqStatus) {
        if (to as u8) > (*self as u8) {
            *self = to;
        }
    }
}

/// All operations triggered by one host request (including any GC it tripped).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpBatch {
    pub ops: Vec<OpRecord>,
    /// Outcome of the request these operations served.
    #[serde(default)]
    pub status: ReqStatus,
    /// Origin of each background round begun in this batch, in round order:
    /// an op with `round == r` (r ≥ 1) was emitted by round `round_origins[r-1]`.
    #[serde(default)]
    pub round_origins: Vec<RoundOrigin>,
}

impl OpBatch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the batch for the next request, retaining the `ops` allocation.
    ///
    /// The replay hot path reuses one batch across every request of a trace
    /// (see `FtlScheme::on_write_into`), so the per-request `Vec` grows to the
    /// workload's high-water mark once and is never reallocated again.
    pub fn clear(&mut self) {
        self.ops.clear();
        self.status = ReqStatus::Success;
        self.round_origins.clear();
    }

    /// Opens a new background round of `origin`: background operations pushed
    /// from here on (until the next round begins) are tagged as its steps.
    /// Host operations are never tagged — they always carry round `0`.
    pub fn begin_background_round(&mut self, origin: RoundOrigin) {
        self.round_origins.push(origin);
    }

    /// Number of background rounds begun in this batch.
    pub fn rounds_used(&self) -> u32 {
        self.round_origins.len() as u32
    }

    /// Origin of round `round` (1-based); `None` for round `0` (host ops and
    /// stray background work) or an out-of-range index.
    pub fn round_origin(&self, round: u32) -> Option<RoundOrigin> {
        if round == 0 {
            return None;
        }
        self.round_origins.get(round as usize - 1).copied()
    }

    pub fn push(&mut self, chip: u32, kind: FlashOpKind, latency_ns: Nanos) {
        let round = if kind.is_host() {
            0
        } else {
            self.round_origins.len() as u32
        };
        self.ops.push(OpRecord {
            chip,
            kind,
            latency_ns,
            round,
        });
    }

    /// Sum of host-visible operation latencies (ignores chip overlap).
    pub fn host_latency_sum(&self) -> Nanos {
        self.ops
            .iter()
            .filter(|o| o.kind.is_host())
            .map(|o| o.latency_ns)
            .sum()
    }

    /// Sum of all operation latencies.
    pub fn total_latency_sum(&self) -> Nanos {
        self.ops.iter().map(|o| o.latency_ns).sum()
    }

    /// Number of operations of `kind`.
    pub fn count(&self, kind: FlashOpKind) -> usize {
        self.ops.iter().filter(|o| o.kind == kind).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_kinds_are_classified() {
        assert!(FlashOpKind::HostRead.is_host());
        assert!(FlashOpKind::HostProgram.is_host());
        assert!(FlashOpKind::UnmappedRead.is_host());
        assert!(!FlashOpKind::GcRead.is_host());
        assert!(!FlashOpKind::GcProgram.is_host());
        assert!(!FlashOpKind::Erase.is_host());
    }

    #[test]
    fn status_escalates_monotonically() {
        let mut s = ReqStatus::default();
        assert_eq!(s, ReqStatus::Success);
        s.escalate(ReqStatus::Recovered);
        assert_eq!(s, ReqStatus::Recovered);
        s.escalate(ReqStatus::Success); // never lowers
        assert_eq!(s, ReqStatus::Recovered);
        s.escalate(ReqStatus::Failed);
        assert_eq!(s, ReqStatus::Failed);
        s.escalate(ReqStatus::Recovered);
        assert_eq!(s, ReqStatus::Failed);
    }

    #[test]
    fn batch_status_survives_serde() {
        let mut b = OpBatch::new();
        b.push(0, FlashOpKind::HostRead, 10);
        b.status.escalate(ReqStatus::Recovered);
        let json = serde_json::to_string(&b).unwrap();
        let back: OpBatch = serde_json::from_str(&json).unwrap();
        assert_eq!(b, back);
        // Pre-fault-model batches deserialize with the default status.
        let legacy: OpBatch = serde_json::from_str(r#"{"ops":[]}"#).unwrap();
        assert_eq!(legacy.status, ReqStatus::Success);
        // Pre-round-tagging op records deserialize as untagged (round 0).
        let op: OpRecord =
            serde_json::from_str(r#"{"chip":3,"kind":"GcRead","latency_ns":9}"#).unwrap();
        assert_eq!(op.round, 0);
    }

    #[test]
    fn rounds_tag_background_ops_only() {
        let mut b = OpBatch::new();
        b.push(0, FlashOpKind::HostProgram, 100);
        b.push(0, FlashOpKind::GcRead, 10); // stray: before any round
        b.begin_background_round(RoundOrigin::Gc);
        b.push(0, FlashOpKind::GcRead, 50);
        b.push(1, FlashOpKind::GcProgram, 60);
        b.push(0, FlashOpKind::HostProgram, 100); // host never tagged
        b.begin_background_round(RoundOrigin::WearLevel);
        b.push(0, FlashOpKind::GcProgram, 70);
        b.push(0, FlashOpKind::Erase, 1000);
        assert_eq!(
            b.ops.iter().map(|o| o.round).collect::<Vec<_>>(),
            vec![0, 0, 1, 1, 0, 2, 2]
        );
        assert_eq!(b.rounds_used(), 2);
        assert_eq!(b.round_origin(0), None);
        assert_eq!(b.round_origin(1), Some(RoundOrigin::Gc));
        assert_eq!(b.round_origin(2), Some(RoundOrigin::WearLevel));
        assert_eq!(b.round_origin(3), None);
        b.clear();
        assert_eq!(b.rounds_used(), 0);
        assert!(b.ops.is_empty());
    }

    #[test]
    fn batch_sums_and_counts() {
        let mut b = OpBatch::new();
        b.push(0, FlashOpKind::HostProgram, 100);
        b.push(1, FlashOpKind::GcRead, 50);
        b.push(1, FlashOpKind::Erase, 1000);
        assert_eq!(b.host_latency_sum(), 100);
        assert_eq!(b.total_latency_sum(), 1150);
        assert_eq!(b.count(FlashOpKind::Erase), 1);
        assert_eq!(b.ops.len(), 3);
    }
}
