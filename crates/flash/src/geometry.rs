//! Device geometry and physical addressing.
//!
//! The hierarchy follows SSDsim: *channel → chip → die → plane → block → page →
//! subpage*. The paper's Table 2 device has 65,536 blocks of 16 KB pages divided
//! into 4 KB subpages; the default geometry reaches that block count with
//! 8 channels × 2 chips × 2 dies × 2 planes × 1024 blocks.

use serde::{Deserialize, Serialize};

use crate::mode::CellMode;

/// Static geometry of a flash device.
///
/// Every subpage address of a geometry packs into one `u64`
/// ([`Spa::pack`], the forward map's entry), so each dimension has a limit
/// that [`FlashGeometry::validate`] enforces: at most 256 channels, 128
/// chips per channel, 16 dies per chip, 16 planes per die, 2^20 blocks per
/// plane, 2^16 pages per block (the `MAX_*` constants) and
/// `MAX_SUBPAGES_PER_PAGE` (8) subpages per page. The paper geometry
/// (8 × 2 × 2 × 2 × 1024 blocks × 128 pages × 4 subpages) uses a fraction
/// of each field.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlashGeometry {
    /// Number of independent channels.
    pub channels: u32,
    /// Chips (targets) per channel.
    pub chips_per_channel: u32,
    /// Dies (LUNs) per chip.
    pub dies_per_chip: u32,
    /// Planes per die.
    pub planes_per_die: u32,
    /// Blocks per plane.
    pub blocks_per_plane: u32,
    /// Pages per block when the block is erased in MLC-mode (Table 2: 128).
    pub pages_per_block_mlc: u32,
    /// Pages per block when the block is erased in SLC-mode (Table 2: 64).
    pub pages_per_block_slc: u32,
    /// Page size in bytes (Table 2: 16 KB).
    pub page_size: u32,
    /// Subpage (partial-programming unit) size in bytes (4 KB).
    pub subpage_size: u32,
}

impl Default for FlashGeometry {
    /// The paper-scale geometry (Table 2).
    fn default() -> Self {
        Self::paper_scale()
    }
}

impl FlashGeometry {
    /// Most channels a geometry may have (the packed address's channel field).
    pub const MAX_CHANNELS: u32 = 1 << CHANNEL_BITS;
    /// Most chips per channel.
    pub const MAX_CHIPS_PER_CHANNEL: u32 = 1 << CHIP_BITS;
    /// Most dies per chip.
    pub const MAX_DIES_PER_CHIP: u32 = 1 << DIE_BITS;
    /// Most planes per die.
    pub const MAX_PLANES_PER_DIE: u32 = 1 << PLANE_BITS;
    /// Most blocks per plane.
    pub const MAX_BLOCKS_PER_PLANE: u32 = 1 << BLOCK_BITS;
    /// Most pages per block, in either mode.
    pub const MAX_PAGES_PER_BLOCK: u32 = 1 << PAGE_BITS;

    /// Paper-scale geometry: 65,536 blocks as in Table 2.
    pub fn paper_scale() -> Self {
        FlashGeometry {
            channels: 8,
            chips_per_channel: 2,
            dies_per_chip: 2,
            planes_per_die: 2,
            blocks_per_plane: 1024,
            pages_per_block_mlc: 128,
            pages_per_block_slc: 64,
            page_size: 16 * 1024,
            subpage_size: 4 * 1024,
        }
    }

    /// Tiny geometry for fast unit tests: 2 channels × 1 × 1 × 1 × 16 blocks.
    pub fn small_for_tests() -> Self {
        FlashGeometry {
            channels: 2,
            chips_per_channel: 1,
            dies_per_chip: 1,
            planes_per_die: 1,
            blocks_per_plane: 16,
            pages_per_block_mlc: 8,
            pages_per_block_slc: 4,
            page_size: 16 * 1024,
            subpage_size: 4 * 1024,
        }
    }

    /// Validates internal consistency; returns a human-readable complaint.
    pub fn validate(&self) -> Result<(), String> {
        if self.channels == 0
            || self.chips_per_channel == 0
            || self.dies_per_chip == 0
            || self.planes_per_die == 0
            || self.blocks_per_plane == 0
        {
            return Err("all geometry dimensions must be non-zero".into());
        }
        if self.page_size == 0 || self.subpage_size == 0 {
            return Err("page and subpage sizes must be non-zero".into());
        }
        if !self.page_size.is_multiple_of(self.subpage_size) {
            return Err(format!(
                "page size {} is not a multiple of subpage size {}",
                self.page_size, self.subpage_size
            ));
        }
        if self.subpages_per_page() > crate::state::MAX_SUBPAGES_PER_PAGE as u32 {
            return Err(format!(
                "at most {} subpages per page supported, geometry asks for {}",
                crate::state::MAX_SUBPAGES_PER_PAGE,
                self.subpages_per_page()
            ));
        }
        if self.pages_per_block_mlc == 0 || self.pages_per_block_slc == 0 {
            return Err("pages per block must be non-zero".into());
        }
        if self.pages_per_block_slc > self.pages_per_block_mlc {
            return Err("SLC-mode cannot expose more pages than MLC-mode".into());
        }
        for (field, value, limit) in [
            ("channels", self.channels, Self::MAX_CHANNELS),
            (
                "chips_per_channel",
                self.chips_per_channel,
                Self::MAX_CHIPS_PER_CHANNEL,
            ),
            ("dies_per_chip", self.dies_per_chip, Self::MAX_DIES_PER_CHIP),
            (
                "planes_per_die",
                self.planes_per_die,
                Self::MAX_PLANES_PER_DIE,
            ),
            (
                "blocks_per_plane",
                self.blocks_per_plane,
                Self::MAX_BLOCKS_PER_PLANE,
            ),
            (
                "pages_per_block_mlc",
                self.pages_per_block_mlc,
                Self::MAX_PAGES_PER_BLOCK,
            ),
        ] {
            if value > limit {
                return Err(format!(
                    "{field} is {value}, above the packed-address limit of {limit}"
                ));
            }
        }
        Ok(())
    }

    /// Subpages per page (4 for the paper's 16 KB / 4 KB split).
    #[inline]
    pub fn subpages_per_page(&self) -> u32 {
        self.page_size / self.subpage_size
    }

    /// Pages per block for the given mode.
    #[inline]
    pub fn pages_per_block(&self, mode: CellMode) -> u32 {
        match mode {
            CellMode::Slc => self.pages_per_block_slc,
            CellMode::Mlc => self.pages_per_block_mlc,
        }
    }

    /// Total planes in the device.
    #[inline]
    pub fn total_planes(&self) -> u32 {
        self.channels * self.chips_per_channel * self.dies_per_chip * self.planes_per_die
    }

    /// Total blocks in the device.
    #[inline]
    pub fn total_blocks(&self) -> u64 {
        self.total_planes() as u64 * self.blocks_per_plane as u64
    }

    /// Total chips in the device.
    #[inline]
    pub fn total_chips(&self) -> u32 {
        self.channels * self.chips_per_channel
    }

    /// Raw capacity in bytes when every block runs in MLC-mode.
    pub fn mlc_capacity_bytes(&self) -> u64 {
        self.total_blocks() * self.pages_per_block_mlc as u64 * self.page_size as u64
    }

    /// Flattens a [`BlockAddr`] into a dense index in `0..total_blocks()`.
    #[inline]
    pub fn block_index(&self, b: BlockAddr) -> u64 {
        self.plane_index(b) as u64 * self.blocks_per_plane as u64 + b.block as u64
    }

    /// Flattens the plane coordinates of an address into `0..total_planes()`.
    #[inline]
    pub fn plane_index(&self, b: BlockAddr) -> u32 {
        ((b.channel * self.chips_per_channel + b.chip) * self.dies_per_chip + b.die)
            * self.planes_per_die
            + b.plane
    }

    /// Flattens the chip coordinates of an address into `0..total_chips()`.
    #[inline]
    pub fn chip_index(&self, b: BlockAddr) -> u32 {
        b.channel * self.chips_per_channel + b.chip
    }

    /// Flattens the die coordinates of an address into a dense die index
    /// (`0..total_chips() * dies_per_chip`); fault scopes key on this.
    #[inline]
    pub fn die_index(&self, b: BlockAddr) -> u32 {
        self.chip_index(b) * self.dies_per_chip + b.die
    }

    /// Inverse of [`FlashGeometry::block_index`].
    pub fn block_from_index(&self, idx: u64) -> BlockAddr {
        debug_assert!(idx < self.total_blocks());
        let block = (idx % self.blocks_per_plane as u64) as u32;
        let mut plane_idx = (idx / self.blocks_per_plane as u64) as u32;
        let plane = plane_idx % self.planes_per_die;
        plane_idx /= self.planes_per_die;
        let die = plane_idx % self.dies_per_chip;
        plane_idx /= self.dies_per_chip;
        let chip = plane_idx % self.chips_per_channel;
        let channel = plane_idx / self.chips_per_channel;
        BlockAddr {
            channel,
            chip,
            die,
            plane,
            block,
        }
    }

    /// Checks that an address is within this geometry (page bound depends on mode).
    pub fn contains(&self, ppa: Ppa, mode: CellMode) -> bool {
        ppa.channel < self.channels
            && ppa.chip < self.chips_per_channel
            && ppa.die < self.dies_per_chip
            && ppa.plane < self.planes_per_die
            && ppa.block < self.blocks_per_plane
            && ppa.page < self.pages_per_block(mode)
    }

    /// Iterates over every block address in the device, channel-major.
    pub fn iter_blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        (0..self.total_blocks()).map(move |i| self.block_from_index(i))
    }
}

/// Physical address of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BlockAddr {
    pub channel: u32,
    pub chip: u32,
    pub die: u32,
    pub plane: u32,
    pub block: u32,
}

impl BlockAddr {
    pub fn new(channel: u32, chip: u32, die: u32, plane: u32, block: u32) -> Self {
        BlockAddr {
            channel,
            chip,
            die,
            plane,
            block,
        }
    }

    /// Address of a page inside this block.
    #[inline]
    pub fn page(self, page: u32) -> Ppa {
        Ppa {
            channel: self.channel,
            chip: self.chip,
            die: self.die,
            plane: self.plane,
            block: self.block,
            page,
        }
    }
}

impl std::fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ch{}/c{}/d{}/p{}/b{}",
            self.channel, self.chip, self.die, self.plane, self.block
        )
    }
}

/// Physical page address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Ppa {
    pub channel: u32,
    pub chip: u32,
    pub die: u32,
    pub plane: u32,
    pub block: u32,
    pub page: u32,
}

impl Ppa {
    pub fn new(channel: u32, chip: u32, die: u32, plane: u32, block: u32, page: u32) -> Self {
        Ppa {
            channel,
            chip,
            die,
            plane,
            block,
            page,
        }
    }

    /// The block this page belongs to.
    #[inline]
    pub fn block_addr(self) -> BlockAddr {
        BlockAddr {
            channel: self.channel,
            chip: self.chip,
            die: self.die,
            plane: self.plane,
            block: self.block,
        }
    }
}

impl std::fmt::Display for Ppa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/pg{}", self.block_addr(), self.page)
    }
}

/// Physical subpage address: a page plus a subpage offset within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Spa {
    pub ppa: Ppa,
    /// Subpage offset within the page, `0..subpages_per_page`.
    pub subpage: u8,
}

impl Spa {
    pub fn new(ppa: Ppa, subpage: u8) -> Self {
        Spa { ppa, subpage }
    }

    /// This address as one `u64`: bit 63 set, then channel, chip, die,
    /// plane, block, page and subpage in fields of 8, 7, 4, 4, 20, 16 and 4
    /// bits, most significant first. Never 0, so 0 can stand for "no
    /// address". Every address of a geometry that
    /// [`FlashGeometry::validate`] accepts fits; a field beyond its width
    /// is a caller bug, caught in debug builds.
    #[inline]
    pub fn pack(self) -> u64 {
        let p = self.ppa;
        debug_assert!(
            p.channel < FlashGeometry::MAX_CHANNELS
                && p.chip < FlashGeometry::MAX_CHIPS_PER_CHANNEL
                && p.die < FlashGeometry::MAX_DIES_PER_CHIP
                && p.plane < FlashGeometry::MAX_PLANES_PER_DIE
                && p.block < FlashGeometry::MAX_BLOCKS_PER_PLANE
                && p.page < FlashGeometry::MAX_PAGES_PER_BLOCK
                && (self.subpage as u32) < 1 << SUBPAGE_BITS,
            "{self} does not fit the packed address layout"
        );
        PACKED_FLAG
            | (p.channel as u64) << CHANNEL_SHIFT
            | (p.chip as u64) << CHIP_SHIFT
            | (p.die as u64) << DIE_SHIFT
            | (p.plane as u64) << PLANE_SHIFT
            | (p.block as u64) << BLOCK_SHIFT
            | (p.page as u64) << PAGE_SHIFT
            | self.subpage as u64
    }

    /// Inverse of [`Spa::pack`]; `None` for a word without bit 63 (0, the
    /// "no address" value).
    #[inline]
    pub fn unpack(packed: u64) -> Option<Spa> {
        if packed & PACKED_FLAG == 0 {
            return None;
        }
        let field = |shift: u32, bits: u32| ((packed >> shift) & ((1 << bits) - 1)) as u32;
        Some(Spa {
            ppa: Ppa {
                channel: field(CHANNEL_SHIFT, CHANNEL_BITS),
                chip: field(CHIP_SHIFT, CHIP_BITS),
                die: field(DIE_SHIFT, DIE_BITS),
                plane: field(PLANE_SHIFT, PLANE_BITS),
                block: field(BLOCK_SHIFT, BLOCK_BITS),
                page: field(PAGE_SHIFT, PAGE_BITS),
            },
            subpage: field(0, SUBPAGE_BITS) as u8,
        })
    }
}

// The packed subpage address (`Spa::pack`), least significant field first;
// bit 63 marks a packed address, so no address packs to 0.
const SUBPAGE_BITS: u32 = 4;
const PAGE_BITS: u32 = 16;
const BLOCK_BITS: u32 = 20;
const PLANE_BITS: u32 = 4;
const DIE_BITS: u32 = 4;
const CHIP_BITS: u32 = 7;
const CHANNEL_BITS: u32 = 8;
const PAGE_SHIFT: u32 = SUBPAGE_BITS;
const BLOCK_SHIFT: u32 = PAGE_SHIFT + PAGE_BITS;
const PLANE_SHIFT: u32 = BLOCK_SHIFT + BLOCK_BITS;
const DIE_SHIFT: u32 = PLANE_SHIFT + PLANE_BITS;
const CHIP_SHIFT: u32 = DIE_SHIFT + DIE_BITS;
const CHANNEL_SHIFT: u32 = CHIP_SHIFT + CHIP_BITS;
const PACKED_FLAG: u64 = 1 << 63;
const _: () = assert!(CHANNEL_SHIFT + CHANNEL_BITS == 63);
const _: () = assert!(crate::state::MAX_SUBPAGES_PER_PAGE <= 1 << SUBPAGE_BITS);

impl std::fmt::Display for Spa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/sp{}", self.ppa, self.subpage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_table2() {
        let g = FlashGeometry::paper_scale();
        g.validate().unwrap();
        assert_eq!(g.total_blocks(), 65_536);
        assert_eq!(g.subpages_per_page(), 4);
        assert_eq!(g.pages_per_block(CellMode::Slc), 64);
        assert_eq!(g.pages_per_block(CellMode::Mlc), 128);
        assert_eq!(g.page_size, 16 * 1024);
        // 65536 blocks * 128 pages * 16 KB = 128 GiB raw MLC capacity.
        assert_eq!(g.mlc_capacity_bytes(), 128 * (1 << 30));
    }

    #[test]
    fn block_index_round_trips() {
        let g = FlashGeometry::paper_scale();
        for idx in [0u64, 1, 1023, 1024, 65_535, 40_000, 12_345] {
            let addr = g.block_from_index(idx);
            assert_eq!(g.block_index(addr), idx, "index {idx} mangled via {addr}");
        }
    }

    #[test]
    fn block_index_is_dense_and_unique() {
        let g = FlashGeometry::small_for_tests();
        let mut seen = vec![false; g.total_blocks() as usize];
        for b in g.iter_blocks() {
            let i = g.block_index(b) as usize;
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn plane_and_chip_indices_are_bounded() {
        let g = FlashGeometry::paper_scale();
        for idx in 0..g.total_blocks() {
            let b = g.block_from_index(idx);
            assert!(g.plane_index(b) < g.total_planes());
            assert!(g.chip_index(b) < g.total_chips());
        }
    }

    #[test]
    fn contains_respects_mode_page_counts() {
        let g = FlashGeometry::paper_scale();
        let slc_edge = Ppa::new(0, 0, 0, 0, 0, 63);
        let beyond_slc = Ppa::new(0, 0, 0, 0, 0, 64);
        assert!(g.contains(slc_edge, CellMode::Slc));
        assert!(!g.contains(beyond_slc, CellMode::Slc));
        assert!(g.contains(beyond_slc, CellMode::Mlc));
        assert!(!g.contains(Ppa::new(8, 0, 0, 0, 0, 0), CellMode::Mlc));
    }

    #[test]
    fn validation_rejects_bad_geometry() {
        let mut g = FlashGeometry::paper_scale();
        g.subpage_size = 3000; // not a divisor of 16 KB
        assert!(g.validate().is_err());

        let mut g = FlashGeometry::paper_scale();
        g.channels = 0;
        assert!(g.validate().is_err());

        let mut g = FlashGeometry::paper_scale();
        g.subpage_size = 1024; // 16 subpages per page > MAX_SUBPAGES_PER_PAGE
        assert!(g.validate().is_err());

        let mut g = FlashGeometry::paper_scale();
        g.pages_per_block_slc = 256; // more than MLC
        assert!(g.validate().is_err());
    }

    #[test]
    fn validation_bounds_each_dimension_by_the_packed_layout() {
        // Each dimension at its limit is accepted; one past it is rejected
        // with an error naming the field.
        macro_rules! at_limit {
            ($field:ident, $limit:expr) => {{
                let mut g = FlashGeometry::paper_scale();
                g.$field = $limit;
                assert_eq!(g.validate(), Ok(()), "{} at its limit", stringify!($field));
                g.$field = $limit + 1;
                let err = g.validate().expect_err("one past the limit");
                assert!(err.contains(stringify!($field)), "{err}");
            }};
        }
        at_limit!(channels, FlashGeometry::MAX_CHANNELS);
        at_limit!(chips_per_channel, FlashGeometry::MAX_CHIPS_PER_CHANNEL);
        at_limit!(dies_per_chip, FlashGeometry::MAX_DIES_PER_CHIP);
        at_limit!(planes_per_die, FlashGeometry::MAX_PLANES_PER_DIE);
        at_limit!(blocks_per_plane, FlashGeometry::MAX_BLOCKS_PER_PLANE);
        at_limit!(pages_per_block_mlc, FlashGeometry::MAX_PAGES_PER_BLOCK);
        // Subpages per page: MAX_SUBPAGES_PER_PAGE (8) is accepted, 9 is not.
        let mut g = FlashGeometry::paper_scale();
        g.subpage_size = 2 * 1024;
        assert_eq!(g.validate(), Ok(()));
        g.page_size = 9 * 2 * 1024;
        let err = g.validate().expect_err("9 subpages per page");
        assert!(err.contains("subpages per page"), "{err}");
    }

    #[test]
    fn display_formats_are_readable() {
        let spa = Spa::new(Ppa::new(1, 0, 1, 0, 42, 7), 3);
        assert_eq!(spa.to_string(), "ch1/c0/d1/p0/b42/pg7/sp3");
    }
}
