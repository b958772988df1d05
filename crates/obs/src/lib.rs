//! # ipu-obs — observability for the IPU simulator stack
//!
//! Lightweight span-based wall-clock profiling of the replay hot paths,
//! monotonic counter snapshots, and a structured JSONL export.
//! Every layer of the stack (`ipu-trace`, `ipu-ftl`, `ipu-sim`, `ipu-host`,
//! the CLI) opens [`span()`]s around its hot phases; this crate aggregates
//! *exclusive* (self) time per [`Phase`] so the per-phase breakdown sums to
//! the instrumented total even though phases nest (GC runs inside an FTL
//! write, FTL work runs inside host arbitration).
//!
//! Instrumentation is **off by default** and gated behind one relaxed atomic
//! load: a disabled [`span()`] constructs no timer, touches no thread-local and
//! records nothing, so the replay engine's bit-identical regression tests and
//! its wall-clock behaviour are unaffected unless a profiling entry point
//! ([`enable`]) arms the subsystem.
//!
//! ```
//! use ipu_obs::{enable, disable, reset, snapshot, span, Phase};
//!
//! reset();
//! enable();
//! {
//!     let _outer = span(Phase::FtlWrite);
//!     let _inner = span(Phase::Gc); // nested: subtracted from FtlWrite
//! }
//! disable();
//! let snap = snapshot();
//! assert_eq!(snap.phase(Phase::Gc).unwrap().count, 1);
//! ```

#![forbid(unsafe_code)]

pub mod counters;
pub mod export;
pub mod span;

pub use counters::CounterSnapshot;
pub use export::{events_jsonl, snapshot_jsonl, ObsEvent};
pub use span::{
    disable, enable, enabled, event, reset, snapshot, span, ObsSnapshot, Phase, PhaseStat, Span,
};
