//! Property-based tests for the mapping layer in isolation: forward map
//! algebra and the chunk-summary used by the Figure 11 model.

use ipu_flash::{Ppa, Spa};
use ipu_ftl::MappingTable;
use proptest::prelude::*;

fn arb_spa() -> impl Strategy<Value = Spa> {
    // Addresses within the small test geometry (16 blocks × 8 pages × 4 subs).
    (0u32..16, 0u32..8, 0u8..4)
        .prop_map(|(block, page, sub)| Spa::new(Ppa::new(0, 0, 0, 0, block, page), sub))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The forward map behaves like a HashMap: after any insert/remove
    /// sequence, lookups agree with a model map, and `chunk_summary` counts
    /// exactly the distinct mapped chunks.
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
