//! Span-based phase timing with exclusive-time accounting.
//!
//! A [`Span`] is an RAII guard: construction pushes a frame on a per-thread
//! stack, drop pops it and charges the elapsed wall time to the frame's
//! [`Phase`] — minus the time spent in nested spans, which is charged to
//! *their* phases instead. Per-thread accumulators flush into global atomics
//! when a thread exits (or when [`snapshot`] runs on the calling thread), so
//! parallel sweeps aggregate correctly across `std::thread::scope` workers.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// The instrumented phases of the replay pipeline, one per hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Trace parsing / synthetic trace generation.
    TraceDecode,
    /// FTL write path (`on_write`), excluding nested GC/migration/retry work.
    FtlWrite,
    /// FTL read path (`on_read`), excluding nested retry-ladder work.
    FtlRead,
    /// Garbage collection rounds (SLC cache eviction and MLC GC).
    Gc,
    /// Static wear-leveling migrations.
    Migration,
    /// ECC retry-ladder walks on uncorrectable reads.
    EccRetry,
    /// The discrete-event core: each request's `advance_to` + `dispatch`
    /// pair and the final `finish`, as the replay drivers call them.
    EventCore,
    /// Closed-loop host machinery: queues, arbitration, admission.
    HostArbitration,
    /// Report rendering and result serialization.
    Report,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; 9] = [
        Phase::TraceDecode,
        Phase::FtlWrite,
        Phase::FtlRead,
        Phase::Gc,
        Phase::Migration,
        Phase::EccRetry,
        Phase::EventCore,
        Phase::HostArbitration,
        Phase::Report,
    ];

    /// Stable snake_case label used in JSON/JSONL output.
    pub fn label(self) -> &'static str {
        match self {
            Phase::TraceDecode => "trace_decode",
            Phase::FtlWrite => "ftl_write",
            Phase::FtlRead => "ftl_read",
            Phase::Gc => "gc",
            Phase::Migration => "migration",
            Phase::EccRetry => "ecc_retry",
            Phase::EventCore => "event_core",
            Phase::HostArbitration => "host_arbitration",
            Phase::Report => "report",
        }
    }

    /// Parses a [`Phase::label`] back into a phase.
    pub fn from_label(label: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.label() == label)
    }

    fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl Serialize for Phase {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.label().to_string())
    }
}

impl Deserialize for Phase {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Str(s) => {
                Phase::from_label(s).ok_or_else(|| serde::Error::unknown_variant("Phase", s))
            }
            other => Err(serde::Error::type_mismatch("phase label", other)),
        }
    }
}

const N: usize = Phase::ALL.len();

// ---------------------------------------------------------------------------
// Global state
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static SELF_NS: [AtomicU64; N] = [ZERO; N];
static COUNT: [AtomicU64; N] = [ZERO; N];

/// Is instrumentation currently armed? One relaxed load — this is the entire
/// cost of a [`span()`] call on the disabled path.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Arms instrumentation. Spans opened after this call are recorded.
pub fn enable() {
    crate::export::set_epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Disarms instrumentation. Spans already open still record on drop.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Clears all accumulated phase stats and buffered events. Call between
/// profiling runs, never while spans are open.
pub fn reset() {
    for i in 0..N {
        SELF_NS[i].store(0, Ordering::Relaxed);
        COUNT[i].store(0, Ordering::Relaxed);
    }
    STACK.with(|s| s.borrow_mut().clear());
    crate::export::reset_events();
}

// ---------------------------------------------------------------------------
// Per-thread span stack
// ---------------------------------------------------------------------------

struct Frame {
    phase: usize,
    /// Wall time consumed by nested spans, to subtract from this frame.
    child_ns: u64,
}

thread_local! {
    // Only the open-span stack is thread-local; completed spans flush
    // straight into the global atomics so scoped worker threads need no
    // exit-time handshake (thread-local destructors are not guaranteed to
    // have run by the time `std::thread::scope` returns).
    static STACK: RefCell<Vec<Frame>> = RefCell::new(Vec::with_capacity(8));
}

/// An open span; records on drop. Construct via [`span()`].
pub struct Span {
    start: Option<Instant>,
    phase: Phase,
}

/// Opens a span for `phase`. When instrumentation is disabled this is a
/// single atomic load and the returned guard does nothing on drop.
#[inline]
pub fn span(phase: Phase) -> Span {
    if !enabled() {
        return Span { start: None, phase };
    }
    STACK.with(|s| {
        s.borrow_mut().push(Frame {
            phase: phase.index(),
            child_ns: 0,
        })
    });
    Span {
        start: Some(Instant::now()),
        phase,
    }
}

impl Drop for Span {
    /// A disarmed span's drop is one branch, inlined into the caller; only
    /// an armed span pays for the call that records it.
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            close(self.phase, start);
        }
    }
}

/// Records an armed span that opened at `start`.
#[inline(never)]
fn close(phase: Phase, start: Instant) {
    let elapsed = start.elapsed().as_nanos() as u64;
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        // The frame this guard pushed is the top of the stack: spans are
        // strictly scoped, so drops happen in reverse open order.
        let frame = stack.pop().expect("span stack underflow");
        debug_assert_eq!(frame.phase, phase.index());
        let self_ns = elapsed.saturating_sub(frame.child_ns);
        SELF_NS[frame.phase].fetch_add(self_ns, Ordering::Relaxed);
        COUNT[frame.phase].fetch_add(1, Ordering::Relaxed);
        if let Some(parent) = stack.last_mut() {
            parent.child_ns += elapsed;
        }
    });
}

/// Records a point event into the bounded event buffer (see
/// [`crate::export`]). A no-op when disabled.
#[inline]
pub fn event(phase: Phase, label: &str, value: u64) {
    if !enabled() {
        return;
    }
    crate::export::record_event(phase, label, value);
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// Accumulated exclusive time and span count for one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseStat {
    pub phase: Phase,
    /// Spans recorded.
    pub count: u64,
    /// Exclusive (self) wall time: nested spans are charged to their own
    /// phases, so summing `self_ns` over phases never double-counts.
    pub self_ns: u64,
}

/// A point-in-time copy of all phase accumulators.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObsSnapshot {
    pub phases: Vec<PhaseStat>,
}

impl ObsSnapshot {
    /// The stat for `phase`, if any spans were recorded.
    pub fn phase(&self, phase: Phase) -> Option<&PhaseStat> {
        self.phases.iter().find(|p| p.phase == phase)
    }

    /// Total exclusive time across all phases (the instrumented share of the
    /// run; the rest is untracked scheduling/aggregation work).
    pub fn total_self_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.self_ns).sum()
    }

    /// Per-phase difference `self - earlier` (both must come from the same
    /// monotonic accumulator lineage, i.e. no [`reset`] in between).
    pub fn diff(&self, earlier: &ObsSnapshot) -> ObsSnapshot {
        let phases = Phase::ALL
            .into_iter()
            .filter_map(|ph| {
                let now = self.phase(ph).copied().unwrap_or(PhaseStat {
                    phase: ph,
                    count: 0,
                    self_ns: 0,
                });
                let then = earlier.phase(ph).copied().unwrap_or(PhaseStat {
                    phase: ph,
                    count: 0,
                    self_ns: 0,
                });
                let d = PhaseStat {
                    phase: ph,
                    count: now.count.saturating_sub(then.count),
                    self_ns: now.self_ns.saturating_sub(then.self_ns),
                };
                (d.count > 0 || d.self_ns > 0).then_some(d)
            })
            .collect();
        ObsSnapshot { phases }
    }
}

/// Snapshots the phase accumulators. Spans flush as they close, so a
/// snapshot taken after worker joins sees every completed span; open spans
/// are not included. Phases with no recorded spans are omitted.
pub fn snapshot() -> ObsSnapshot {
    let phases = Phase::ALL
        .into_iter()
        .filter_map(|ph| {
            let i = ph.index();
            let stat = PhaseStat {
                phase: ph,
                count: COUNT[i].load(Ordering::Relaxed),
                self_ns: SELF_NS[i].load(Ordering::Relaxed),
            };
            (stat.count > 0 || stat.self_ns > 0).then_some(stat)
        })
        .collect();
    ObsSnapshot { phases }
}

/// The global accumulators are process-wide; tests that enable
/// instrumentation serialize on this lock so they don't observe each other's
/// spans.
#[cfg(test)]
pub(crate) static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn spin_for(ns: u64) {
        let start = Instant::now();
        while (start.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = TEST_LOCK.lock().unwrap();
        reset();
        assert!(!enabled());
        {
            let _s = span(Phase::FtlWrite);
            spin_for(10_000);
        }
        assert!(snapshot().phases.is_empty());
    }

    #[test]
    fn nested_spans_account_exclusive_time() {
        let _guard = TEST_LOCK.lock().unwrap();
        reset();
        enable();
        {
            let _outer = span(Phase::FtlWrite);
            spin_for(200_000);
            {
                let _inner = span(Phase::Gc);
                spin_for(200_000);
            }
            spin_for(200_000);
        }
        disable();
        let snap = snapshot();
        let w = snap.phase(Phase::FtlWrite).expect("write span recorded");
        let g = snap.phase(Phase::Gc).expect("gc span recorded");
        assert_eq!(w.count, 1);
        assert_eq!(g.count, 1);
        // The inner span's time is charged to Gc, not FtlWrite: outer self
        // time is ~400µs of ~600µs total. Bounds are loose (timers jitter).
        assert!(g.self_ns >= 150_000, "gc self {} too small", g.self_ns);
        assert!(w.self_ns >= 300_000, "write self {} too small", w.self_ns);
        let outer_total = w.self_ns + g.self_ns;
        assert!(
            w.self_ns < outer_total,
            "exclusive accounting must subtract nested time"
        );
        reset();
        assert!(snapshot().phases.is_empty());
    }

    #[test]
    fn spans_aggregate_across_threads() {
        let _guard = TEST_LOCK.lock().unwrap();
        reset();
        enable();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let _s = span(Phase::FtlRead);
                    spin_for(50_000);
                });
            }
        });
        disable();
        let snap = snapshot();
        let r = snap.phase(Phase::FtlRead).expect("reads recorded");
        assert_eq!(r.count, 4, "every worker thread's span must flush");
        assert!(r.self_ns >= 4 * 25_000);
        reset();
    }

    #[test]
    fn snapshot_diff_subtracts_phase_stats() {
        let a = ObsSnapshot {
            phases: vec![
                PhaseStat {
                    phase: Phase::FtlWrite,
                    count: 10,
                    self_ns: 1000,
                },
                PhaseStat {
                    phase: Phase::Gc,
                    count: 2,
                    self_ns: 300,
                },
            ],
        };
        let b = ObsSnapshot {
            phases: vec![
                PhaseStat {
                    phase: Phase::FtlWrite,
                    count: 25,
                    self_ns: 2500,
                },
                PhaseStat {
                    phase: Phase::Gc,
                    count: 2,
                    self_ns: 300,
                },
                PhaseStat {
                    phase: Phase::EccRetry,
                    count: 1,
                    self_ns: 50,
                },
            ],
        };
        let d = b.diff(&a);
        assert_eq!(
            d.phase(Phase::FtlWrite),
            Some(&PhaseStat {
                phase: Phase::FtlWrite,
                count: 15,
                self_ns: 1500
            })
        );
        // Unchanged phases drop out of the diff; new phases appear whole.
        assert!(d.phase(Phase::Gc).is_none());
        assert_eq!(d.phase(Phase::EccRetry).unwrap().count, 1);
        assert_eq!(d.total_self_ns(), 1550);
        // Diffing a snapshot against itself is empty.
        assert!(b.diff(&b).phases.is_empty());
    }

    #[test]
    fn phase_labels_round_trip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_label(p.label()), Some(p));
            let v = serde::Serialize::to_value(&p);
            let back: Phase = serde::Deserialize::from_value(&v).unwrap();
            assert_eq!(back, p);
        }
        assert!(Phase::from_label("nosuch").is_none());
    }
}
