//! # ipu-ftl — flash translation layer with an SLC-mode cache
//!
//! The logical half of the reproduction: address mapping, free-block
//! management, the three-level SLC-mode cache, GC policies (greedy and the
//! paper's ISR policy with Equations 1–2), and four schemes — the paper's
//! three under evaluation plus one extension:
//!
//! * [`SchemeKind::Baseline`] — page-level mapping, no partial programming;
//! * [`SchemeKind::Mga`] — subpage packing with partial programming (the
//!   state-of-the-art comparison point);
//! * [`SchemeKind::Ipu`] — the paper's intra-page update scheme;
//! * [`SchemeKind::IpuPlus`] — IPU plus cold-data packing (the paper's §5
//!   future work).
//!
//! One driver, `SchemeFtl`, runs all four over the shared [`FtlCore`]; the
//! kind's two policy bits pick its placement, victim and relocation choices
//! (see [`schemes`]). Schemes execute against an [`ipu_flash::FlashDevice`]
//! and emit [`ops::OpBatch`]es of timed operations that `ipu-sim` schedules
//! onto chips.

#![forbid(unsafe_code)]

pub mod block_mgr;
pub mod cache_meta;
pub mod config;
pub mod error;
pub mod gc;
pub mod mapping;
pub mod memory;
pub mod ops;
pub mod schemes;
pub mod stats;
pub mod types;
pub mod victim_index;
pub mod wear_leveling;

pub use block_mgr::BlockManager;
pub use cache_meta::{BlockMeta, CacheMeta};
pub use config::FtlConfig;
pub use error::FtlError;
pub use gc::{
    cold_valid_weight_fast, greedy_score, isr_jensen_bound, isr_score, isr_score_fast,
    select_greedy, select_isr, GcGranularity,
};
pub use mapping::{ChunkSummary, FxBuildHasher, FxHasher, MappingTable, OwnerTable};
pub use memory::MappingMemory;
pub use ops::{FlashOpKind, OpBatch, OpRecord, ReqStatus, RoundOrigin};
pub use schemes::{common::FtlCore, FtlScheme, SchemeKind};
pub use stats::FtlStats;
pub use types::{BlockLevel, Lcn, Lsn};
pub use victim_index::VictimIndex;
pub use wear_leveling::{WearLeveler, WearLevelingConfig};
