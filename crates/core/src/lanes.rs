//! Bit-plane packing for 64-lane bit-sliced simulation.
//!
//! Bit-sliced (pattern-parallel) evaluation packs **64 independent input
//! vectors** into one `u64` word per circuit net: bit `j` of the word is
//! the value of that net in lane `j`. A bitwise `AND` on lane words then
//! evaluates 64 AND gates at once, which is how `xlac-sim` reaches its
//! throughput.
//!
//! A multi-bit operand batch is a *bit-plane* vector: `planes[i]` holds
//! bit `i` of all 64 lane values. These helpers transpose between the
//! value-per-lane and plane-per-bit representations; the layout invariant
//! used across the workspace is
//!
//! ```text
//! planes[i] >> j & 1  ==  values[j] >> i & 1
//! ```
//!
//! The transposes are word-parallel: the 64 × `width` bit matrix is cut
//! into 8×8 bit tiles (8 lanes × one byte of bits), each held in one
//! `u64` and transposed by three delta swaps; 8×8 byte transposes gather
//! the tiles from the source words and scatter them into the destination
//! words — `8 × ceil(width / 8)` tiles instead of `64 × width` single-bit
//! steps (DESIGN.md §10.1).
//!
//! # Example
//!
//! ```
//! use xlac_core::lanes::{from_planes, to_planes, LANES};
//!
//! let mut values = [0u64; LANES];
//! for (j, v) in values.iter_mut().enumerate() {
//!     *v = (j as u64).wrapping_mul(0x9E37) & 0xFF;
//! }
//! let planes = to_planes(&values, 8);
//! assert_eq!(planes.len(), 8);
//! assert_eq!(from_planes(&planes), values);
//! ```

/// Number of parallel lanes in one bit-sliced word (`u64::BITS`).
pub const LANES: usize = 64;

/// Transposes the 8×8 bit matrix held in `x`, row `r` in byte `r` and
/// column `c` in bit `c` of that byte: bit `8r + c` moves to bit `8c + r`.
/// Three delta swaps exchange the off-diagonal 1×1, 2×2 and 4×4 blocks
/// (Hacker's Delight §7-3).
#[inline(always)]
fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^ t ^ (t << 28)
}

/// Transposes the 8×8 byte matrix held in `words`, row `r` in word `r`
/// and column `c` in byte `c` of that word: byte `c` of word `r` moves to
/// byte `r` of word `c`. The same three delta swaps as [`transpose8`], one
/// level up: the off-diagonal 4×4, 2×2 and 1×1 byte blocks trade places.
#[inline(always)]
fn transpose_bytes(words: &mut [u64; 8]) {
    let mut swap = |r: usize, half: usize, mask: u64| {
        let t = ((words[r] >> (8 * half)) ^ words[r + half]) & mask;
        words[r] ^= t << (8 * half);
        words[r + half] ^= t;
    };
    for r in [0, 1, 2, 3] {
        swap(r, 4, 0x0000_0000_FFFF_FFFF);
    }
    for r in [0, 1, 4, 5] {
        swap(r, 2, 0x0000_FFFF_0000_FFFF);
    }
    for r in [0, 2, 4, 6] {
        swap(r, 1, 0x00FF_00FF_00FF_00FF);
    }
}

/// Transposes 64 lane values into `width` bit-planes.
///
/// Bits of `values[j]` at positions `>= width` are ignored (the planes
/// represent a `width`-bit operand batch, matching the hardware's
/// truncate-on-input semantics). Allocates the plane vector; hot loops
/// call [`to_planes_into`] with a reused buffer instead.
///
/// # Panics
///
/// Panics when `width > 64` (a lane value has only 64 bits).
#[inline]
#[must_use]
pub fn to_planes(values: &[u64; LANES], width: usize) -> Vec<u64> {
    let mut planes = vec![0u64; width];
    to_planes_into(values, width, &mut planes);
    planes
}

/// [`to_planes`] into a caller-owned buffer: overwrites `out` with the
/// `width` bit-planes of `values`.
///
/// # Panics
///
/// Panics when `width > 64` or `out.len() != width`.
#[inline]
pub fn to_planes_into(values: &[u64; LANES], width: usize, out: &mut [u64]) {
    assert!(width <= 64, "{width}-bit planes exceed a u64 lane value");
    assert_eq!(out.len(), width, "output buffer must hold {width} planes");
    // tiles[c][g]: the transposed tile of lanes 8g..8g+8 × bits 8c..8c+8,
    // whose byte r is byte g of plane 8c + r.
    let mut tiles = [[0u64; 8]; 8];
    for (g, group) in (0..8).zip(values.chunks_exact(8)) {
        // Gather: word c now holds byte c of each of the group's 8 lanes.
        let mut bytes: [u64; 8] = group.try_into().expect("lane groups hold 8 lanes");
        transpose_bytes(&mut bytes);
        for (tile, &b) in tiles.iter_mut().zip(&bytes).take(width.div_ceil(8)) {
            tile[g] = transpose8(b);
        }
    }
    // Scatter: word r of a column's tiles becomes plane 8c + r. A partial
    // last column keeps only its low rows, so bits at or above `width`
    // never reach a plane.
    for (&tile, planes) in tiles.iter().zip(out.chunks_mut(8)) {
        let mut rows = tile;
        transpose_bytes(&mut rows);
        planes.copy_from_slice(&rows[..planes.len()]);
    }
}

/// Transposes bit-planes back into 64 lane values.
///
/// Inverse of [`to_planes`] for any plane count `<= 64`.
///
/// # Panics
///
/// Panics when more than 64 planes are supplied (the lane values would
/// not fit a `u64`).
#[inline]
#[must_use]
pub fn from_planes(planes: &[u64]) -> [u64; LANES] {
    assert!(planes.len() <= 64, "{} planes exceed a u64 lane value", planes.len());
    // tiles[g][c]: the transposed tile of planes 8c..8c+8 × lanes
    // 8g..8g+8, whose byte k is byte c of lane 8g + k.
    let mut tiles = [[0u64; 8]; 8];
    for (c, rows) in (0..8).zip(planes.chunks(8)) {
        // Gather: word g now holds byte g of each of the column's planes
        // (missing planes read as zero).
        let mut bytes = [0u64; 8];
        for (b, &row) in bytes.iter_mut().zip(rows) {
            *b = row;
        }
        transpose_bytes(&mut bytes);
        for (tile, &b) in tiles.iter_mut().zip(&bytes) {
            tile[c] = transpose8(b);
        }
    }
    // Scatter: word k of a lane group's tiles becomes lane 8g + k.
    let mut values = [0u64; LANES];
    for (&tile, group) in tiles.iter().zip(values.chunks_exact_mut(8)) {
        let mut lanes = tile;
        transpose_bytes(&mut lanes);
        group.copy_from_slice(&lanes);
    }
    values
}

/// Extracts the value of one lane from a plane vector.
///
/// # Panics
///
/// Panics when `lane >= 64` or more than 64 planes are supplied.
#[inline]
#[must_use]
pub fn lane(planes: &[u64], lane: usize) -> u64 {
    assert!(lane < LANES, "lane {lane} out of range");
    assert!(planes.len() <= 64, "{} planes exceed a u64 lane value", planes.len());
    let mut value = 0u64;
    for (i, plane) in planes.iter().enumerate() {
        value |= ((plane >> lane) & 1) << i;
    }
    value
}

/// The in-word counting patterns: lane `l` of every [`CountingBlocks`]
/// block sees bit `i` of `l` on input `i < 6`.
pub const COUNTING_PATTERNS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// The exhaustive enumeration of all `2^n` assignments of `n` inputs,
/// one 64-lane block at a time: lane `l` of block `b` carries assignment
/// `64·b + l`, input `i` in bit `i` (the `Netlist::eval` packing of
/// `xlac-logic`). Inputs 0–5 take the [`COUNTING_PATTERNS`]; higher
/// inputs are all-0 or all-1 words from the block index, so a block
/// costs no transpose and no RNG. When `n < 6` the single block has
/// `2^n` live lanes ([`CountingBlocks::live`]).
///
/// # Example
///
/// ```
/// use xlac_core::lanes::{from_planes, CountingBlocks};
///
/// let counting = CountingBlocks::new(8);
/// let mut planes = [0u64; 8];
/// counting.fill(3, &mut planes);
/// assert_eq!(counting.blocks(), 4);
/// assert_eq!(from_planes(&planes)[5], 3 * 64 + 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountingBlocks {
    n_inputs: usize,
}

impl CountingBlocks {
    /// The enumeration of `n_inputs` inputs.
    ///
    /// # Panics
    ///
    /// Panics when `n_inputs >= 64` (assignments are packed in a `u64`).
    #[must_use]
    pub fn new(n_inputs: usize) -> CountingBlocks {
        assert!(n_inputs < 64, "{n_inputs} inputs exceed a u64 assignment");
        CountingBlocks { n_inputs }
    }

    /// Number of 64-lane blocks: `2^(n − 6)`, at least one.
    #[must_use]
    pub fn blocks(self) -> u64 {
        1 << self.n_inputs.saturating_sub(6)
    }

    /// Mask of the lanes that carry an assignment: all 64 unless
    /// `n < 6`.
    #[must_use]
    pub fn live(self) -> u64 {
        if self.n_inputs < 6 {
            (1u64 << (1u32 << self.n_inputs)) - 1
        } else {
            u64::MAX
        }
    }

    /// Input plane `input` of block `block`: lane `l` carries bit `input`
    /// of assignment `64·block + l`.
    #[inline]
    #[must_use]
    pub fn plane(input: usize, block: u64) -> u64 {
        match COUNTING_PATTERNS.get(input) {
            Some(&pattern) => pattern,
            None if (block >> (input - 6)) & 1 == 1 => u64::MAX,
            None => 0,
        }
    }

    /// Overwrites `planes` with the input planes of block `block`.
    ///
    /// # Panics
    ///
    /// Panics when `planes.len()` differs from the input count.
    #[inline]
    pub fn fill(self, block: u64, planes: &mut [u64]) {
        assert_eq!(planes.len(), self.n_inputs, "expected {} input planes", self.n_inputs);
        for (i, plane) in planes.iter_mut().enumerate() {
            *plane = CountingBlocks::plane(i, block);
        }
    }
}

/// A fixed-width block of bit-plane words — the value type one compiled
/// bit-plane program operates on.
///
/// A `u64` plane carries 64 lanes; wider blocks carry `64 × WORDS` lanes
/// and are plain word arrays, so the bitwise ops below compile to
/// straight-line vector code (256-bit for `[u64; 4]`, 512-bit for
/// `[u64; 8]` on targets with the matching SIMD width — rustc
/// autovectorizes the fixed-length array loops).
///
/// Word `k` of a block holds lanes `64k .. 64k + 64` in the standard
/// plane layout (`planes[i] >> j & 1 == values[j] >> i & 1` within each
/// word), so a wide block is just `WORDS` consecutive 64-lane batches.
pub trait PlaneBlock: Copy + Send + Sync + PartialEq + std::fmt::Debug + 'static {
    /// Number of 64-lane `u64` words per block.
    const WORDS: usize;

    /// The all-zero block (every lane 0).
    fn zeros() -> Self;
    /// The all-ones block (every lane 1).
    fn ones() -> Self;
    /// Lane-wise AND.
    fn and(self, other: Self) -> Self;
    /// Lane-wise OR.
    fn or(self, other: Self) -> Self;
    /// Lane-wise XOR.
    fn xor(self, other: Self) -> Self;
    /// Lane-wise NOT.
    fn not(self) -> Self;
    /// The `i`-th 64-lane word of the block.
    ///
    /// # Panics
    ///
    /// Panics when `i >= Self::WORDS`.
    fn word(self, i: usize) -> u64;
    /// Overwrites the `i`-th 64-lane word of the block.
    ///
    /// # Panics
    ///
    /// Panics when `i >= Self::WORDS`.
    fn set_word(&mut self, i: usize, word: u64);
}

impl PlaneBlock for u64 {
    const WORDS: usize = 1;

    #[inline(always)]
    fn zeros() -> Self {
        0
    }
    #[inline(always)]
    fn ones() -> Self {
        u64::MAX
    }
    #[inline(always)]
    fn and(self, other: Self) -> Self {
        self & other
    }
    #[inline(always)]
    fn or(self, other: Self) -> Self {
        self | other
    }
    #[inline(always)]
    fn xor(self, other: Self) -> Self {
        self ^ other
    }
    #[inline(always)]
    fn not(self) -> Self {
        !self
    }
    #[inline(always)]
    fn word(self, i: usize) -> u64 {
        assert_eq!(i, 0, "u64 plane has a single word");
        self
    }
    #[inline(always)]
    fn set_word(&mut self, i: usize, word: u64) {
        assert_eq!(i, 0, "u64 plane has a single word");
        *self = word;
    }
}

macro_rules! impl_plane_block_array {
    ($n:literal) => {
        impl PlaneBlock for [u64; $n] {
            const WORDS: usize = $n;

            #[inline(always)]
            fn zeros() -> Self {
                [0; $n]
            }
            #[inline(always)]
            fn ones() -> Self {
                [u64::MAX; $n]
            }
            #[inline(always)]
            fn and(self, other: Self) -> Self {
                std::array::from_fn(|k| self[k] & other[k])
            }
            #[inline(always)]
            fn or(self, other: Self) -> Self {
                std::array::from_fn(|k| self[k] | other[k])
            }
            #[inline(always)]
            fn xor(self, other: Self) -> Self {
                std::array::from_fn(|k| self[k] ^ other[k])
            }
            #[inline(always)]
            fn not(self) -> Self {
                std::array::from_fn(|k| !self[k])
            }
            #[inline(always)]
            fn word(self, i: usize) -> u64 {
                self[i]
            }
            #[inline(always)]
            fn set_word(&mut self, i: usize, word: u64) {
                self[i] = word;
            }
        }
    };
}

impl_plane_block_array!(4);
impl_plane_block_array!(8);

/// Applies a lane permutation: returns planes where lane `j` holds the
/// value that `perm[j]` held in the input.
///
/// Used by the lane-independence property tests: a bit-sliced evaluator
/// must commute with any lane permutation, because lanes never interact.
///
/// # Panics
///
/// Panics when `perm` is not a permutation of `0..64`.
#[must_use]
pub fn permute_lanes(planes: &[u64], perm: &[usize; LANES]) -> Vec<u64> {
    let mut seen = [false; LANES];
    for &p in perm {
        assert!(p < LANES && !seen[p], "perm is not a permutation of 0..64");
        seen[p] = true;
    }
    planes
        .iter()
        .map(|plane| {
            let mut word = 0u64;
            for (j, &src) in perm.iter().enumerate() {
                word |= ((plane >> src) & 1) << j;
            }
            word
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{DefaultRng, Rng};

    /// The single-bit transposes the tiled ones replaced, kept as the
    /// oracle they must equal.
    fn to_planes_bitwise(values: &[u64; LANES], width: usize) -> Vec<u64> {
        let mut planes = vec![0u64; width];
        for (j, &v) in values.iter().enumerate() {
            for (i, plane) in planes.iter_mut().enumerate() {
                *plane |= ((v >> i) & 1) << j;
            }
        }
        planes
    }

    fn from_planes_bitwise(planes: &[u64]) -> [u64; LANES] {
        let mut values = [0u64; LANES];
        for (i, plane) in planes.iter().enumerate() {
            for (j, v) in values.iter_mut().enumerate() {
                *v |= ((plane >> j) & 1) << i;
            }
        }
        values
    }

    #[test]
    fn tiled_to_planes_matches_the_bitwise_oracle_at_every_width() {
        let mut rng = DefaultRng::seed_from_u64(0x711E);
        for width in 0..=64 {
            for _ in 0..4 {
                // Full 64-bit values: every width below 64 sees bits above
                // it, which both transposes must drop.
                let mut values = [0u64; LANES];
                rng.fill_u64(&mut values);
                let expect = to_planes_bitwise(&values, width);
                assert_eq!(to_planes(&values, width), expect, "width {width}");
                let mut out = vec![u64::MAX; width];
                to_planes_into(&values, width, &mut out);
                assert_eq!(out, expect, "into, width {width}");
            }
        }
    }

    #[test]
    fn tiled_from_planes_matches_the_bitwise_oracle_at_every_plane_count() {
        let mut rng = DefaultRng::seed_from_u64(0xF402);
        for n in 0..=64 {
            for _ in 0..4 {
                let planes: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
                let expect = from_planes_bitwise(&planes);
                assert_eq!(from_planes(&planes), expect, "{n} planes");
                for (j, &v) in expect.iter().enumerate() {
                    assert_eq!(lane(&planes, j), v, "{n} planes, lane {j}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "65-bit planes exceed a u64 lane value")]
    fn to_planes_rejects_widths_above_64() {
        let _ = to_planes(&[0u64; LANES], 65);
    }

    #[test]
    #[should_panic(expected = "output buffer must hold 8 planes")]
    fn to_planes_into_rejects_a_mis_sized_buffer() {
        to_planes_into(&[0u64; LANES], 8, &mut [0u64; 7]);
    }

    #[test]
    fn roundtrip_is_identity() {
        let mut rng = DefaultRng::seed_from_u64(7);
        for width in [1usize, 4, 8, 16, 23, 64] {
            let mut values = [0u64; LANES];
            rng.fill_u64(&mut values);
            let masked = values.map(|v| if width == 64 { v } else { v & ((1 << width) - 1) });
            let planes = to_planes(&masked, width);
            assert_eq!(from_planes(&planes), masked, "width {width}");
            for (j, &m) in masked.iter().enumerate() {
                assert_eq!(lane(&planes, j), m, "width {width} lane {j}");
            }
        }
    }

    #[test]
    fn to_planes_truncates_wide_values() {
        let mut values = [0u64; LANES];
        values[3] = 0x1F5;
        let planes = to_planes(&values, 8);
        assert_eq!(lane(&planes, 3), 0xF5);
    }

    #[test]
    fn counting_blocks_enumerate_every_assignment_once_in_order() {
        for n in [0usize, 1, 3, 5, 6, 7, 10] {
            let counting = CountingBlocks::new(n);
            let lanes = (1usize << n).min(LANES);
            assert_eq!(counting.live().count_ones() as usize, lanes, "n={n}");
            let mut planes = vec![0u64; n];
            let mut seen = Vec::new();
            for b in 0..counting.blocks() {
                counting.fill(b, &mut planes);
                seen.extend_from_slice(&from_planes(&planes)[..lanes]);
            }
            let all: Vec<u64> = (0..1u64 << n).collect();
            assert_eq!(seen, all, "n={n}");
        }
    }

    #[test]
    fn permute_lanes_permutes_values() {
        let mut rng = DefaultRng::seed_from_u64(11);
        let mut values = [0u64; LANES];
        rng.fill_u64(&mut values);
        let planes = to_planes(&values, 64);

        let mut perm: [usize; LANES] = std::array::from_fn(|i| i);
        rng.shuffle(&mut perm);
        let permuted = permute_lanes(&planes, &perm);
        let got = from_planes(&permuted);
        for j in 0..LANES {
            assert_eq!(got[j], values[perm[j]]);
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permute_lanes_rejects_duplicates() {
        let perm = [0usize; LANES];
        let _ = permute_lanes(&[0u64; 4], &perm);
    }

    fn check_block_ops<B: PlaneBlock>(rng: &mut DefaultRng) {
        let mut a = B::zeros();
        let mut b = B::zeros();
        for k in 0..B::WORDS {
            a.set_word(k, rng.next_u64());
            b.set_word(k, rng.next_u64());
        }
        for k in 0..B::WORDS {
            let (aw, bw) = (a.word(k), b.word(k));
            assert_eq!(a.and(b).word(k), aw & bw);
            assert_eq!(a.or(b).word(k), aw | bw);
            assert_eq!(a.xor(b).word(k), aw ^ bw);
            assert_eq!(a.not().word(k), !aw);
            assert_eq!(B::zeros().word(k), 0);
            assert_eq!(B::ones().word(k), u64::MAX);
        }
    }

    #[test]
    fn plane_blocks_are_word_wise_bitops() {
        let mut rng = DefaultRng::seed_from_u64(0xB10C);
        assert_eq!(<u64 as PlaneBlock>::WORDS, 1);
        assert_eq!(<[u64; 4] as PlaneBlock>::WORDS, 4);
        assert_eq!(<[u64; 8] as PlaneBlock>::WORDS, 8);
        check_block_ops::<u64>(&mut rng);
        check_block_ops::<[u64; 4]>(&mut rng);
        check_block_ops::<[u64; 8]>(&mut rng);
    }

    #[test]
    fn set_word_roundtrips() {
        let mut block = <[u64; 4] as PlaneBlock>::zeros();
        block.set_word(2, 0xDEAD_BEEF);
        assert_eq!(block.word(2), 0xDEAD_BEEF);
        assert_eq!(block.word(0), 0);
        let mut scalar = 0u64;
        PlaneBlock::set_word(&mut scalar, 0, 7);
        assert_eq!(PlaneBlock::word(scalar, 0), 7);
    }

    #[test]
    #[should_panic(expected = "single word")]
    fn scalar_block_rejects_word_index_1() {
        let _ = PlaneBlock::word(0u64, 1);
    }
}
