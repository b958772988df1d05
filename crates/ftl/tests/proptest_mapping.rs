//! Property-based tests for the mapping layer in isolation: forward map
//! algebra and the chunk-summary used by the Figure 11 model.

use ipu_flash::{FlashGeometry, Ppa, Spa, MAX_SUBPAGES_PER_PAGE};
use ipu_ftl::MappingTable;
use proptest::prelude::*;

/// Values in `0..limit`, with both ends drawn as often as the whole range.
fn field(limit: u32) -> impl Strategy<Value = u32> {
    prop_oneof![Just(0), Just(limit - 1), 0..limit]
}

/// Any address a validated geometry can hold: the table stores packed
/// words, so every field is drawn over its whole range.
fn arb_spa() -> impl Strategy<Value = Spa> {
    (
        field(FlashGeometry::MAX_CHANNELS),
        field(FlashGeometry::MAX_CHIPS_PER_CHANNEL),
        field(FlashGeometry::MAX_DIES_PER_CHIP),
        field(FlashGeometry::MAX_PLANES_PER_DIE),
        field(FlashGeometry::MAX_BLOCKS_PER_PLANE),
        field(FlashGeometry::MAX_PAGES_PER_BLOCK),
        field(MAX_SUBPAGES_PER_PAGE as u32),
    )
        .prop_map(|(channel, chip, die, plane, block, page, sub)| {
            Spa::new(Ppa::new(channel, chip, die, plane, block, page), sub as u8)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The forward map behaves like a HashMap: after any insert/remove
    /// sequence, lookups agree with a model map, and `chunk_summary` counts
    /// exactly the distinct mapped chunks. With `arb_spa` drawing every
    /// field at its limits, this is also the packed layout's round trip: a
    /// field that `Spa::pack`/`Spa::unpack` garbles, or an address that
    /// packs to 0 ("unmapped"), fails a lookup.
    #[test]
    fn forward_map_matches_model(
        ops in proptest::collection::vec((0u64..64, arb_spa(), any::<bool>()), 1..200)
    ) {
        let mut map = MappingTable::new();
        let mut model = std::collections::HashMap::new();
        for (lsn, spa, insert) in ops {
            if insert {
                prop_assert_eq!(map.insert(lsn, spa), model.insert(lsn, spa));
            } else {
                prop_assert_eq!(map.remove(lsn), model.remove(&lsn));
            }
        }
        prop_assert_eq!(map.len(), model.len());
        for (&lsn, &spa) in &model {
            prop_assert_eq!(map.lookup(lsn), Some(spa));
        }
        let summary = map.chunk_summary(4);
        let chunks: std::collections::HashSet<u64> = model.keys().map(|l| l / 4).collect();
        prop_assert_eq!(summary.mapped_chunks, chunks.len() as u64);
        prop_assert_eq!(summary.mapped_subpages, model.len() as u64);
        prop_assert!(summary.scattered_chunks <= summary.mapped_chunks);
    }

    /// A chunk whose four subpages are identity-placed in one page is never
    /// scattered; perturbing any one subpage makes it scattered.
    #[test]
    fn scatter_detection_is_exact(block in 0u32..16, page in 0u32..8, perturb in 0u8..4) {
        let mut map = MappingTable::new();
        let ppa = Ppa::new(0, 0, 0, 0, block, page);
        for s in 0..4u8 {
            map.insert(s as u64, Spa::new(ppa, s));
        }
        prop_assert_eq!(map.chunk_summary(4).scattered_chunks, 0);

        // Move one subpage to a different offset (rotate within the page).
        let new_off = (perturb + 1) % 4;
        map.insert(perturb as u64, Spa::new(ppa, new_off));
        prop_assert_eq!(map.chunk_summary(4).scattered_chunks, 1);
    }
}
