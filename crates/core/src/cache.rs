//! Content-addressed on-disk result cache.
//!
//! A replay is a pure function of `(ReplayConfig, trace spec)`: the calibrated
//! generator is deterministic per spec and the engine has no other inputs. The
//! cache exploits that — each completed [`SimReport`] is stored under a stable
//! hash of the full input description, so re-running a figure after an
//! unrelated edit (or tweaking one cell of a sweep) skips every replay whose
//! inputs did not change. Any other deterministic computation (a fleet run, a
//! whole evaluation matrix) is cached the same way through
//! [`ReplayCache::get_or_compute`]; a replay is just the `"replay"` kind, so
//! every entry on disk has one format.
//!
//! Safety properties:
//!
//! * **Content-addressed, collision-checked.** The file name is a 128-bit
//!   FNV-1a hash of the canonical key JSON, but the entry also stores that
//!   key JSON verbatim and a load compares it byte-for-byte — a hash
//!   collision degrades to a miss, never a wrong report.
//! * **Corruption-safe.** Unreadable, unparsable, stale-schema or
//!   mismatched-key entries are treated as misses and re-simulated; the fresh
//!   result then overwrites the bad entry. Entries are written to a temp file
//!   and renamed so a crash never leaves a torn entry under a valid name.
//! * **Versioned.** [`CACHE_SCHEMA_VERSION`] is part of the key; bump it
//!   whenever the meaning of a cached report changes (engine semantics,
//!   report shape) and every old entry silently expires.
//!
//! Counters are atomic because matrix cells run under
//! [`parallel_map`](crate::parallel::parallel_map); distinct cells hash to
//! distinct files, so concurrent writers never race on one entry within a
//! run, and the rename keeps cross-process races benign.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ipu_sim::{replay, ReplayConfig, SimReport};
use ipu_trace::{IoRequest, SyntheticTraceSpec};
use serde::{Deserialize, Serialize};

/// Bump when engine semantics or the report shape change: old entries stop
/// matching and are re-simulated on first use.
///
/// v2: replay runs on the discrete-event core and `ReplayConfig` carries the
/// event-core timing model, so pre-event-core entries are stale.
///
/// v3: replays are stored as generic entries of kind `"replay"`, so the cache
/// has one entry format.
pub const CACHE_SCHEMA_VERSION: u32 = 3;

/// Key of a cached computation: `kind` namespaces result families (e.g.
/// `"replay"`, `"fleet"`), `key` is the caller's input description as
/// canonical JSON. The vendored `serde_json` has no dynamic `Value`, so the
/// nested JSON travels as a string — byte-stable either way.
#[derive(Serialize)]
struct GenericKey {
    schema: u32,
    kind: String,
    key: String,
}

/// One on-disk entry: the key it was stored under (verbatim, for collision
/// detection) and the result's JSON, nested as a string for the same reason
/// as [`GenericKey::key`].
#[derive(Serialize, Deserialize)]
struct GenericEntry {
    key: String,
    value: String,
}

/// Hit/miss counters of one cache over its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Results served from disk.
    pub hits: u64,
    /// Results computed (entry absent).
    pub misses: u64,
    /// Entries found but rejected (corrupt, stale schema, or key mismatch) —
    /// counted in `misses` too.
    pub rejected: u64,
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} hits, {} misses", self.hits, self.misses)?;
        if self.rejected > 0 {
            write!(f, " ({} corrupt entries re-simulated)", self.rejected)?;
        }
        Ok(())
    }
}

/// On-disk replay cache rooted at a directory (default `.ipu-cache/`).
#[derive(Debug)]
pub struct ReplayCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
}

impl ReplayCache {
    /// The default cache location, relative to the working directory.
    pub const DEFAULT_DIR: &'static str = ".ipu-cache";

    /// A cache rooted at `dir`. The directory is created lazily on the first
    /// store, so constructing a cache never touches the filesystem.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ReplayCache {
            dir: dir.into(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// The directory entries live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Lifetime hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }

    /// Returns the cached report for `(cfg, spec)`, or replays `requests`
    /// and stores the result.
    ///
    /// `requests` must be the stream generated from `spec` — the cache trusts
    /// the caller on this (both come from the same [`TraceSet`] /
    /// [`scaled_spec`] pairing in the runners).
    ///
    /// [`TraceSet`]: crate::trace_set::TraceSet
    /// [`scaled_spec`]: crate::experiment::scaled_spec
    pub fn get_or_replay(
        &self,
        cfg: &ReplayConfig,
        spec: &SyntheticTraceSpec,
        requests: &[IoRequest],
        trace_name: &str,
    ) -> SimReport {
        self.get_or_compute("replay", &(cfg, spec), || replay(cfg, requests, trace_name))
    }

    /// Returns the cached value of an arbitrary deterministic computation,
    /// or runs `compute` and stores its result.
    ///
    /// `kind` namespaces result families sharing one cache directory;
    /// `key` must describe *every* input the computation depends on — the
    /// cache trusts the caller on completeness exactly as
    /// [`get_or_replay`](Self::get_or_replay) trusts the `spec`/`requests`
    /// pairing. Keys are compared verbatim, a corrupt entry is a miss that
    /// the fresh result heals, and the schema version expires old entries.
    pub fn get_or_compute<K, T, F>(&self, kind: &str, key: &K, compute: F) -> T
    where
        K: Serialize,
        T: Serialize + serde::de::DeserializeOwned,
        F: FnOnce() -> T,
    {
        let key_json = Self::generic_key_json(kind, key);
        if let Some(value) = self.load_generic(&key_json) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return value;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = compute();
        self.store_generic(&key_json, &value);
        value
    }

    /// Canonical key JSON for a generic computation under the current schema.
    fn generic_key_json<K: Serialize>(kind: &str, key: &K) -> String {
        serde_json::to_string(&GenericKey {
            schema: CACHE_SCHEMA_VERSION,
            kind: kind.to_string(),
            key: serde_json::to_string(key).expect("generic cache key serialization cannot fail"),
        })
        .expect("generic cache key serialization cannot fail")
    }

    /// Loads a generic entry for `key_json`, rejecting anything that does not
    /// verifiably carry that exact key or whose value no longer parses as
    /// `T` (shape drift counts as corruption).
    fn load_generic<T: serde::de::DeserializeOwned>(&self, key_json: &str) -> Option<T> {
        let text = fs::read_to_string(self.entry_path(key_json)).ok()?;
        let Ok(entry) = serde_json::from_str::<GenericEntry>(&text) else {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        if entry.key != key_json {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        match serde_json::from_str::<T>(&entry.value) {
            Ok(value) => Some(value),
            Err(_) => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Best-effort store: cache-write failures (read-only dir, disk full)
    /// must never fail the experiment that produced the result.
    fn store_generic<T: Serialize>(&self, key_json: &str, value: &T) {
        let Ok(value_json) = serde_json::to_string(value) else {
            return;
        };
        let entry = GenericEntry {
            key: key_json.to_string(),
            value: value_json,
        };
        let Ok(json) = serde_json::to_string(&entry) else {
            return;
        };
        if fs::create_dir_all(&self.dir).is_err() {
            return;
        }
        let path = self.entry_path(key_json);
        // Unique temp name per writer so concurrent processes never interleave
        // writes; rename makes the entry appear atomically.
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        if fs::write(&tmp, json).is_ok() && fs::rename(&tmp, &path).is_err() {
            let _ = fs::remove_file(&tmp);
        }
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        // Two FNV-1a 64-bit passes with distinct offset bases give a stable
        // 128-bit name without pulling in a hash dependency.
        let name = format!(
            "{:016x}{:016x}.json",
            fnv1a(key.as_bytes(), 0xcbf2_9ce4_8422_2325),
            fnv1a(key.as_bytes(), 0x6c62_272e_07bb_0142)
        );
        self.dir.join(name)
    }
}

/// FNV-1a over `bytes` from the given offset basis.
fn fnv1a(bytes: &[u8], basis: u64) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    bytes
        .iter()
        .fold(basis, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use crate::experiment::{generate_trace, scaled_spec};
    use ipu_ftl::SchemeKind;
    use ipu_trace::PaperTrace;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ipu-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_inputs() -> (ReplayConfig, SyntheticTraceSpec, Vec<IoRequest>) {
        let mut cfg = ExperimentConfig::scaled(0.002);
        cfg.traces = vec![PaperTrace::Ts0];
        let spec = scaled_spec(&cfg, PaperTrace::Ts0);
        let requests = generate_trace(&cfg, PaperTrace::Ts0);
        (cfg.replay_config(SchemeKind::Ipu), spec, requests)
    }

    fn to_json(r: &SimReport) -> String {
        serde_json::to_string(r).unwrap()
    }

    /// The key [`ReplayCache::get_or_replay`] stores `(cfg, spec)` under.
    fn replay_key_json(cfg: &ReplayConfig, spec: &SyntheticTraceSpec) -> String {
        ReplayCache::generic_key_json("replay", &(cfg, spec))
    }

    #[test]
    fn round_trip_hit_is_bit_identical_and_config_change_misses() {
        let dir = tmp_dir("roundtrip");
        let cache = ReplayCache::new(&dir);
        let (cfg, spec, requests) = small_inputs();

        let first = cache.get_or_replay(&cfg, &spec, &requests, "ts0");
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: 1,
                rejected: 0
            }
        );

        // Same inputs: served from disk, bit-identical under serialization.
        let second = cache.get_or_replay(&cfg, &spec, &requests, "ts0");
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(to_json(&first), to_json(&second));

        // Any config change is a different key → miss.
        let mut other = cfg.clone();
        other.scheme = SchemeKind::Baseline;
        let third = cache.get_or_replay(&other, &spec, &requests, "ts0");
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 2,
                rejected: 0
            }
        );
        assert_ne!(to_json(&first), to_json(&third));

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_rejected_and_healed() {
        let dir = tmp_dir("corrupt");
        let cache = ReplayCache::new(&dir);
        let (cfg, spec, requests) = small_inputs();

        let first = cache.get_or_replay(&cfg, &spec, &requests, "ts0");
        let path = cache.entry_path(&replay_key_json(&cfg, &spec));
        assert!(path.exists(), "entry must land at its content address");

        // Truncated JSON → rejected, re-simulated, entry healed.
        fs::write(&path, "{\"key\": \"trunc").unwrap();
        let healed = cache.get_or_replay(&cfg, &spec, &requests, "ts0");
        assert_eq!(to_json(&first), to_json(&healed));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.rejected), (0, 2, 1));

        // The heal rewrote a loadable entry.
        let again = cache.get_or_replay(&cfg, &spec, &requests, "ts0");
        assert_eq!(to_json(&first), to_json(&again));
        assert_eq!(cache.stats().hits, 1);

        // A valid entry stored under the wrong key (hash collision stand-in)
        // is rejected by the key comparison.
        let mut entry: GenericEntry =
            serde_json::from_str(&fs::read_to_string(&path).unwrap()).unwrap();
        entry.key = "someone else's key".to_string();
        fs::write(&path, serde_json::to_string(&entry).unwrap()).unwrap();
        let _ = cache.get_or_replay(&cfg, &spec, &requests, "ts0");
        assert_eq!(cache.stats().rejected, 2);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_directory_degrades_to_simulation() {
        // A file where the cache dir should be: create_dir_all fails, every
        // lookup misses, and the experiment still completes.
        let dir = tmp_dir("unwritable");
        fs::create_dir_all(dir.parent().unwrap()).ok();
        fs::write(&dir, "not a directory").unwrap();
        let cache = ReplayCache::new(&dir);
        let (cfg, spec, requests) = small_inputs();
        let a = cache.get_or_replay(&cfg, &spec, &requests, "ts0");
        let b = cache.get_or_replay(&cfg, &spec, &requests, "ts0");
        assert_eq!(to_json(&a), to_json(&b));
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 2);
        let _ = fs::remove_file(&dir);
    }

    #[test]
    fn schema_version_is_part_of_the_key() {
        let (cfg, spec, _) = small_inputs();
        let key = replay_key_json(&cfg, &spec);
        assert!(key.contains(&format!("\"schema\":{CACHE_SCHEMA_VERSION}")));
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Fake {
        label: String,
        values: Vec<u64>,
    }

    #[test]
    fn generic_entries_round_trip_and_count_hits() {
        let dir = tmp_dir("generic");
        let cache = ReplayCache::new(&dir);
        let make = || Fake {
            label: "fleet".into(),
            values: vec![1, 2, 3],
        };

        let first: Fake = cache.get_or_compute("fleet", &("ts0", 64u64), make);
        assert_eq!(cache.stats().misses, 1);

        // Warm lookup: compute must NOT run again.
        let second: Fake = cache.get_or_compute("fleet", &("ts0", 64u64), || {
            panic!("hit path must not recompute")
        });
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(first, second);

        // A different key or a different kind is a distinct entry.
        let _: Fake = cache.get_or_compute("fleet", &("ts0", 65u64), make);
        let _: Fake = cache.get_or_compute("capacity", &("ts0", 64u64), make);
        assert_eq!(cache.stats().misses, 3);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn generic_entry_with_unparsable_value_is_rejected() {
        let dir = tmp_dir("generic-drift");
        let cache = ReplayCache::new(&dir);
        let make = || Fake {
            label: "x".into(),
            values: vec![7],
        };
        let _: Fake = cache.get_or_compute("fleet", &1u64, make);

        // Corrupt the nested value JSON: shape drift must read as a miss.
        let key_json = ReplayCache::generic_key_json("fleet", &1u64);
        let path = cache.entry_path(&key_json);
        let mut entry: GenericEntry =
            serde_json::from_str(&fs::read_to_string(&path).unwrap()).unwrap();
        entry.value = "{\"other\":true}".to_string();
        fs::write(&path, serde_json::to_string(&entry).unwrap()).unwrap();

        let healed: Fake = cache.get_or_compute("fleet", &1u64, make);
        assert_eq!(healed, make());
        assert_eq!(cache.stats().rejected, 1);
        let _: Fake = cache.get_or_compute("fleet", &1u64, || panic!("healed entry must hit"));
        let _ = fs::remove_dir_all(&dir);
    }
}
