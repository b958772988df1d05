//! Address translation: the forward map (logical subpage → physical
//! subpage). The reverse direction needs no table: the owner of a valid
//! subpage is the LSN in its OOB tag (`FtlCore::owner`).
//!
//! The table hashes 8-LSN buckets. A bucket is eight `u64`s, 64 bytes,
//! each the packed location [`Spa::pack`] makes (0 = unmapped), so the
//! table holds no `Spa` structs and no occupancy mask; the bit layout
//! belongs to `ipu-flash`, and this module only stores and returns words.
//!
//! All four schemes share this machinery; what differs is the *analytic
//! memory accounting* of Figure 11 (see [`crate::memory`]), which models what
//! each scheme would actually have to keep in controller DRAM.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use ipu_flash::Spa;
use serde::{Deserialize, Serialize};

use crate::types::Lsn;

/// Multiply-xor hasher for the dense integer keys the forward map uses
/// (bucket and chunk indices). The default SipHash is DoS-resistant, which simulation
/// state does not need; this hasher is a single rotate/xor/multiply per key
/// and measurably shortens every map probe on the write hot path. Iteration
/// order is only consumed by order-independent aggregates (and becomes
/// deterministic, since there is no per-process random seed).
#[derive(Debug, Default, Clone)]
struct FxHasher {
    hash: u64,
}

/// Knuth-style odd multiplicative constant (same one rustc's FxHash uses).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` plugging [`FxHasher`] into `HashMap`.
type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Forward map: logical subpage number → physical subpage address.
///
/// ```
/// use ipu_ftl::MappingTable;
/// use ipu_flash::{Ppa, Spa};
///
/// let mut map = MappingTable::new();
/// // LSN 42 belongs at in-chunk offset 2 (42 mod 4); storing it at
/// // subpage 1 makes its chunk "scattered" — it would need second-level
/// // mapping under MGA's scheme.
/// let spa = Spa::new(Ppa::new(0, 0, 0, 0, 7, 3), 1);
/// assert!(map.insert(42, spa).is_none());
/// assert_eq!(map.lookup(42), Some(spa));
/// assert_eq!(map.chunk_summary(4).scattered_chunks, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MappingTable {
    /// LSN-space bucket (`lsn / 8`) → the packed locations ([`Spa::pack`])
    /// of its 8 consecutive LSNs, 0 where unmapped; a bucket with no mapped
    /// slot is removed. Host requests translate contiguous LSN runs, so
    /// bucketing amortizes the hash probe across a whole chunk (see
    /// [`MappingTable::lookup_span`]) instead of paying one per subpage.
    buckets: HashMap<u64, Bucket, FxBuildHasher>,
    len: usize,
}

/// Packed locations of 8 consecutive LSNs: 64 bytes, 72 with its hash key.
type Bucket = [u64; BUCKET_LSNS as usize];

/// LSNs per bucket. 8 is the largest supported `subpages_per_page`
/// (`MAX_SUBPAGES_PER_PAGE`), so a page-aligned chunk straddles at most one
/// bucket boundary; with 1, 2, 4 or 8 subpages per page it straddles none,
/// while the 3, 5, 6 and 7 that `FlashGeometry::validate` also accepts let
/// some chunks straddle one. Wider buckets amortize more probes on long
/// runs but cost memory wherever the mapped LSNs are sparse. Boxed 512-LSN
/// leaves, measured against this layout, were as fast on the `write-gc`
/// benchmark but made `fleet-ladder` 27% slower: each of its up to 256
/// tenants writes into its own LSN extent, so most leaves held one 64 KiB
/// request.
const BUCKET_LSNS: u64 = 8;

impl MappingTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Current physical location of `lsn`, if mapped.
    #[inline]
    pub fn lookup(&self, lsn: Lsn) -> Option<Spa> {
        let bucket = self.buckets.get(&(lsn / BUCKET_LSNS))?;
        Spa::unpack(bucket[(lsn % BUCKET_LSNS) as usize])
    }

    /// Maps `lsn` to `spa`, returning the previous location if any.
    #[inline]
    pub fn insert(&mut self, lsn: Lsn, spa: Spa) -> Option<Spa> {
        let bucket = self.buckets.entry(lsn / BUCKET_LSNS).or_default();
        let old = Spa::unpack(std::mem::replace(
            &mut bucket[(lsn % BUCKET_LSNS) as usize],
            spa.pack(),
        ));
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Unmaps `lsn`, returning its previous location.
    #[inline]
    pub fn remove(&mut self, lsn: Lsn) -> Option<Spa> {
        let bucket = self.buckets.get_mut(&(lsn / BUCKET_LSNS))?;
        let old = Spa::unpack(std::mem::take(&mut bucket[(lsn % BUCKET_LSNS) as usize]))?;
        if bucket.iter().all(|&packed| packed == 0) {
            self.buckets.remove(&(lsn / BUCKET_LSNS));
        }
        self.len -= 1;
        Some(old)
    }

    /// Calls `visit(lsn, location)` for every LSN in `[start, end)`, in
    /// ascending order, probing the table once per 8-LSN bucket instead of
    /// once per subpage. This is the batch path the write and read request
    /// handlers use: a request's subpage span is contiguous in LSN space, so
    /// the per-subpage hash probes of a naive loop collapse to one per bucket.
    #[inline]
    pub fn lookup_span(&self, start: Lsn, end: Lsn, mut visit: impl FnMut(Lsn, Option<Spa>)) {
        let mut lsn = start;
        while lsn < end {
            let bucket_idx = lsn / BUCKET_LSNS;
            let bucket_end = ((bucket_idx + 1) * BUCKET_LSNS).min(end);
            if let Some(b) = self.buckets.get(&bucket_idx) {
                for l in lsn..bucket_end {
                    visit(l, Spa::unpack(b[(l % BUCKET_LSNS) as usize]));
                }
            } else {
                for l in lsn..bucket_end {
                    visit(l, None);
                }
            }
            lsn = bucket_end;
        }
    }

    /// Number of mapped logical subpages.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates `(lsn, spa)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (Lsn, Spa)> + '_ {
        self.buckets.iter().flat_map(|(&bi, b)| {
            (0..BUCKET_LSNS).filter_map(move |slot| {
                Some((bi * BUCKET_LSNS + slot, Spa::unpack(b[slot as usize])?))
            })
        })
    }

    /// Summary used by the Figure 11 memory model: how many distinct logical
    /// chunks (pages) are mapped, and how many of them are *scattered* — i.e.
    /// their live subpages do not all sit identity-aligned in one physical
    /// page, so a page-granular table cannot describe them without a
    /// second-level (subpage) table.
    ///
    /// One walk over the buckets. With 1, 2, 4 or 8 subpages per page every
    /// chunk lies inside one bucket; with 3, 5, 6 or 7 a chunk can straddle
    /// two, and it is counted once, in the bucket that holds its lowest
    /// mapped LSN.
    pub fn chunk_summary(&self, subpages_per_page: u32) -> ChunkSummary {
        let spp = subpages_per_page as u64;
        let mut mapped_chunks = 0;
        let mut scattered_chunks = 0;
        for (&bi, bucket) in &self.buckets {
            let (start, end) = (bi * BUCKET_LSNS, (bi + 1) * BUCKET_LSNS);
            let at = |lsn: Lsn| {
                if (start..end).contains(&lsn) {
                    Spa::unpack(bucket[(lsn - start) as usize])
                } else {
                    self.lookup(lsn)
                }
            };
            for lcn in start / spp..end.div_ceil(spp) {
                let lsns = lcn * spp..(lcn + 1) * spp;
                // Counted in the bucket that holds its lowest mapped LSN.
                let lowest = lsns.clone().find(|&lsn| at(lsn).is_some());
                if !lowest.is_some_and(|lsn| (start..end).contains(&lsn)) {
                    continue;
                }
                let mut first_page = None;
                let mut aligned = true;
                for lsn in lsns {
                    if let Some(spa) = at(lsn) {
                        let page = *first_page.get_or_insert(spa.ppa);
                        aligned &= page == spa.ppa && spa.subpage as u64 == lsn % spp;
                    }
                }
                mapped_chunks += 1;
                scattered_chunks += u64::from(!aligned);
            }
        }
        ChunkSummary {
            mapped_chunks,
            scattered_chunks,
            mapped_subpages: self.len as u64,
        }
    }

    /// Bytes of the entries the hash table has room for (capacity × 72 B:
    /// a bucket and its key). The table's control bytes and the slots it
    /// keeps beyond its capacity are not counted.
    pub fn heap_bytes(&self) -> usize {
        self.buckets.capacity() * std::mem::size_of::<(u64, Bucket)>()
    }
}

/// Output of [`MappingTable::chunk_summary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkSummary {
    /// Distinct logical chunks with at least one mapped subpage.
    pub mapped_chunks: u64,
    /// Chunks whose subpages are not identity-aligned within one physical page.
    pub scattered_chunks: u64,
    /// Total mapped logical subpages.
    pub mapped_subpages: u64,
}

#[cfg(test)]
impl MappingTable {
    /// The former [`MappingTable::chunk_summary`], kept as its oracle: a
    /// hash map of every mapped chunk, filled from [`MappingTable::iter`].
    fn chunk_summary_oracle(&self, subpages_per_page: u32) -> ChunkSummary {
        let spp = subpages_per_page as u64;
        // lcn → (first physical page seen, all-aligned-so-far)
        let mut chunks: HashMap<crate::types::Lcn, (Spa, bool), FxBuildHasher> = HashMap::default();
        for (lsn, spa) in self.iter() {
            let lcn = lsn / spp;
            let aligned = spa.subpage as u64 == lsn % spp;
            match chunks.entry(lcn) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert((spa, aligned));
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let (first, ok) = *e.get();
                    let same_page = first.ppa == spa.ppa;
                    e.insert((first, ok && aligned && same_page));
                }
            }
        }
        let mapped_chunks = chunks.len() as u64;
        let scattered_chunks = chunks.values().filter(|(_, aligned)| !aligned).count() as u64;
        ChunkSummary {
            mapped_chunks,
            scattered_chunks,
            mapped_subpages: self.len as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipu_flash::Ppa;

    fn spa(block: u32, page: u32, sub: u8) -> Spa {
        Spa::new(Ppa::new(0, 0, 0, 0, block, page), sub)
    }

    #[test]
    fn forward_map_round_trips() {
        let mut m = MappingTable::new();
        assert!(m.lookup(7).is_none());
        assert!(m.insert(7, spa(1, 2, 3)).is_none());
        assert_eq!(m.lookup(7), Some(spa(1, 2, 3)));
        assert_eq!(m.insert(7, spa(4, 5, 0)), Some(spa(1, 2, 3)));
        assert_eq!(m.remove(7), Some(spa(4, 5, 0)));
        assert!(m.is_empty());
    }

    #[test]
    fn chunk_summary_detects_scatter() {
        let mut m = MappingTable::new();
        // Chunk 0: lsns 0..4 identity-aligned in page (0,0) → not scattered.
        for s in 0..4u8 {
            m.insert(s as Lsn, spa(0, 0, s));
        }
        // Chunk 1: lsn 4 at misaligned offset → scattered.
        m.insert(4, spa(0, 1, 2));
        // Chunk 2: lsns 8,9 aligned but in different pages → scattered.
        m.insert(8, spa(0, 2, 0));
        m.insert(9, spa(0, 3, 1));
        let s = m.chunk_summary(4);
        assert_eq!(s.mapped_chunks, 3);
        assert_eq!(s.scattered_chunks, 2);
        assert_eq!(s.mapped_subpages, 7);
    }

    #[test]
    fn chunk_summary_matches_its_oracle_on_random_maps() {
        // SplitMix64, so every case is reproducible from its seed.
        let mut state = 0x6d61_7073_u64;
        let mut next = move |bound: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };
        for spp in 1..=8u32 {
            for case in 0..200 {
                let mut m = MappingTable::new();
                let span = 8 + next(120);
                for _ in 0..next(3 * span) {
                    let lsn = next(span);
                    let s = spp as u64;
                    match next(4) {
                        // Identity-aligned in its chunk's own page.
                        0 | 1 => m.insert(lsn, spa(0, (lsn / s) as u32, (lsn % s) as u8)),
                        // A random page and offset.
                        2 => m.insert(lsn, spa(0, next(4) as u32, next(s) as u8)),
                        _ => m.remove(lsn),
                    };
                }
                assert_eq!(
                    m.chunk_summary(spp),
                    m.chunk_summary_oracle(spp),
                    "spp {spp}, case {case}"
                );
            }
        }
    }

    #[test]
    fn single_subpage_chunk_at_offset_zero_is_aligned() {
        let mut m = MappingTable::new();
        m.insert(8, spa(0, 5, 0)); // lsn 8 = chunk 2 offset 0 → aligned
        assert_eq!(m.chunk_summary(4).scattered_chunks, 0);
        m.insert(13, spa(0, 6, 0)); // lsn 13 = chunk 3 offset 1 at subpage 0 → scattered
        assert_eq!(m.chunk_summary(4).scattered_chunks, 1);
    }

    #[test]
    fn lookup_span_agrees_with_per_lsn_lookups() {
        let mut m = MappingTable::new();
        // Mapped run straddling a bucket boundary (lsns 5..11), plus a hole.
        for l in 5..11u64 {
            if l != 8 {
                m.insert(l, spa(0, l as u32, (l % 4) as u8));
            }
        }
        let mut seen = Vec::new();
        m.lookup_span(3, 13, |l, loc| seen.push((l, loc)));
        assert_eq!(seen.len(), 10);
        for (l, loc) in seen {
            assert_eq!(loc, m.lookup(l), "span disagrees with lookup at {l}");
        }
        // Empty range visits nothing.
        m.lookup_span(20, 20, |_, _| unreachable!());
    }

    #[test]
    fn len_tracks_inserts_overwrites_and_removes() {
        let mut m = MappingTable::new();
        m.insert(0, spa(0, 0, 0));
        m.insert(1, spa(0, 0, 1));
        m.insert(0, spa(0, 1, 0)); // overwrite: len unchanged
        assert_eq!(m.len(), 2);
        assert!(m.remove(5).is_none());
        assert_eq!(m.remove(0), Some(spa(0, 1, 0)));
        assert_eq!(m.len(), 1);
        assert_eq!(m.iter().count(), 1);
    }
}
