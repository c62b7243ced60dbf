//! Vendored deterministic pseudo-random number generation.
//!
//! The workspace builds fully offline, so instead of depending on the
//! `rand` / `rand_chacha` crates it carries its own small, seedable PRNG
//! substrate:
//!
//! * [`SplitMix64`] — Steele, Lea & Flood's 64-bit mixer. One multiply /
//!   xor-shift round per output; primarily used to expand a single `u64`
//!   seed into generator state and to derive per-case / per-stream seeds.
//! * [`Xoshiro256StarStar`] — Blackman & Vigna's xoshiro256\*\*, the
//!   workspace default ([`DefaultRng`]). 256-bit state, period `2^256 − 1`,
//!   equidistributed in 4 dimensions; passes BigCrush.
//!
//! Both implement the [`Rng`] trait, which carries the sampling surface
//! the workspace needs: raw words, [`Rng::gen`] for common primitive
//! types, uniform ranges ([`Rng::gen_range`], via Lemire rejection
//! sampling for integers), slice fills and Fisher–Yates [`Rng::shuffle`].
//!
//! # Determinism and stream splitting
//!
//! Every generator is constructed from an explicit seed and never touches
//! OS entropy, so any seeded computation is bit-reproducible across runs,
//! platforms and compiler versions. For parallel or multi-component
//! determinism, derive independent child streams instead of sharing one
//! generator:
//!
//! * [`Xoshiro256StarStar::split`] — derives a statistically independent
//!   child generator (re-keyed through SplitMix64), advancing the parent.
//! * [`Xoshiro256StarStar::jump`] — advances the state by `2^128` steps,
//!   partitioning one seed's sequence into non-overlapping blocks.
//!
//! # Example
//!
//! ```
//! use xlac_core::rng::{DefaultRng, Rng};
//!
//! let mut rng = DefaultRng::seed_from_u64(42);
//! let die = rng.gen_range(1..=6u32);
//! assert!((1..=6).contains(&die));
//! let unit: f64 = rng.gen_range(0.0..1.0);
//! assert!((0.0..1.0).contains(&unit));
//!
//! // Same seed, same stream — always.
//! let a: u64 = DefaultRng::seed_from_u64(7).gen();
//! let b: u64 = DefaultRng::seed_from_u64(7).gen();
//! assert_eq!(a, b);
//! ```

use std::ops::{Range, RangeInclusive};

/// The workspace's default generator: [`Xoshiro256StarStar`].
pub type DefaultRng = Xoshiro256StarStar;

/// A seedable source of uniform pseudo-random data.
///
/// Implementors provide [`Rng::next_u64`]; everything else is derived.
pub trait Rng {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 uniformly random bits (the high word, which in
    /// xoshiro-family generators has the better-scrambled bits).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Samples a uniformly random value of a primitive type.
    fn gen<T: FromRng>(&mut self) -> T
    where
        Self: Sized,
    {
        T::from_rng(self)
    }

    /// Samples uniformly from a half-open (`lo..hi`) or inclusive
    /// (`lo..=hi`) range.
    ///
    /// Integer ranges use Lemire multiply-shift rejection (unbiased);
    /// float ranges map 53 random mantissa bits affinely onto the span.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::from_rng(self) < p
    }

    /// Fills a slice with uniformly random words.
    fn fill_u64(&mut self, dest: &mut [u64])
    where
        Self: Sized,
    {
        for slot in dest {
            *slot = self.next_u64();
        }
    }

    /// Fills a slice with uniformly random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8])
    where
        Self: Sized,
    {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&word[..n]);
        }
    }

    /// Uniform Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, slice: &mut [T])
    where
        Self: Sized,
    {
        for i in (1..slice.len()).rev() {
            let j = uniform_u64(self, i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Picks a uniformly random element, or `None` on an empty slice.
    fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T>
    where
        Self: Sized,
    {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[uniform_u64(self, slice.len() as u64) as usize])
        }
    }
}

/// Unbiased uniform sample from `[0, span)` via Lemire's multiply-shift
/// rejection. `span` must be nonzero.
fn uniform_u64<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    let mut m = u128::from(rng.next_u64()) * u128::from(span);
    let mut lo = m as u64;
    if lo < span {
        let threshold = span.wrapping_neg() % span;
        while lo < threshold {
            m = u128::from(rng.next_u64()) * u128::from(span);
            lo = m as u64;
        }
    }
    (m >> 64) as u64
}

/// Types that can be sampled uniformly over their full value domain.
pub trait FromRng {
    /// Draws one uniformly random value.
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_from_rng_int {
    ($($t:ty),*) => {$(
        impl FromRng for $t {
            #[inline]
            fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_from_rng_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl FromRng for u128 {
    #[inline]
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl FromRng for i128 {
    #[inline]
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        u128::from_rng(rng) as i128
    }
}

impl FromRng for bool {
    #[inline]
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl FromRng for f64 {
    /// Uniform on `[0, 1)` with 53-bit resolution.
    #[inline]
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl FromRng for f32 {
    /// Uniform on `[0, 1)` with 24-bit resolution.
    #[inline]
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Range shapes accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Samples one value uniformly from the range.
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(uniform_u64(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range on empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u128::from(u64::MAX) {
                    // Only reachable for the full 64-bit domain.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_u64(rng, span as u64) as $t)
            }
        }
    )*};
}
impl_sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_sample_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let unit = <$t as FromRng>::from_rng(rng);
                self.start + (self.end - self.start) * unit
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range on empty range");
                let unit = <$t as FromRng>::from_rng(rng);
                lo + (hi - lo) * unit
            }
        }
    )*};
}
impl_sample_range_float!(f32, f64);

/// SplitMix64 (Steele, Lea & Flood, OOPSLA'14): a tiny, fast, full-period
/// 64-bit generator. Used directly for seed expansion and cheap streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Constructs the generator from a 64-bit seed.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// One mixing round applied to an arbitrary word — handy for deriving
    /// deterministic per-index seeds without constructing a generator.
    #[must_use]
    pub fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256\*\* 1.0 (Blackman & Vigna, 2018) — the workspace default.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Expands a 64-bit seed into the 256-bit state through SplitMix64, as
    /// the xoshiro reference code recommends.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::seed_from_u64(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Xoshiro256StarStar { s }
    }

    /// Constructs the generator from explicit state words.
    ///
    /// # Panics
    ///
    /// Panics on the all-zero state (the generator's single fixed point).
    #[must_use]
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s.iter().any(|&w| w != 0), "xoshiro256** state must be nonzero");
        Xoshiro256StarStar { s }
    }

    /// Derives a statistically independent child stream and advances this
    /// generator, so repeated `split` calls yield distinct children.
    ///
    /// The child is re-keyed through SplitMix64 (rather than sharing this
    /// generator's trajectory), the standard construction for splittable
    /// deterministic streams in parallel workloads.
    #[must_use]
    pub fn split(&mut self) -> Self {
        let key = self.next_u64() ^ 0x6A09_E667_F3BC_C909; // offset: frac(sqrt(2))
        Xoshiro256StarStar::seed_from_u64(SplitMix64::mix(key))
    }

    /// Advances the state by `2^128` steps (the official jump polynomial),
    /// partitioning the sequence into non-overlapping blocks for up to
    /// `2^128` parallel consumers of one seed.
    pub fn jump(&mut self) {
        const JUMP: [u64; 4] = [
            0x180E_C6D3_3CFD_0ABA,
            0xD5A6_1266_F0C9_392C,
            0xA958_9759_90E0_741C,
            0x39AB_DC45_29B1_661C,
        ];
        let mut acc = [0u64; 4];
        for word in JUMP {
            for bit in 0..64 {
                if (word >> bit) & 1 == 1 {
                    for (a, s) in acc.iter_mut().zip(self.s) {
                        *a ^= s;
                    }
                }
                let _ = self.next_u64();
            }
        }
        self.s = acc;
    }
}

impl Rng for Xoshiro256StarStar {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference sequence for seed 1234567 from the public-domain
        // splitmix64.c test vectors.
        let mut sm = SplitMix64::seed_from_u64(1234567);
        assert_eq!(sm.next_u64(), 6457827717110365317);
        assert_eq!(sm.next_u64(), 3203168211198807973);
        assert_eq!(sm.next_u64(), 9817491932198370423);
    }

    #[test]
    fn xoshiro_is_seed_stable() {
        let mut a = Xoshiro256StarStar::seed_from_u64(99);
        let mut b = Xoshiro256StarStar::seed_from_u64(99);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xoshiro_seeds_differ() {
        let a: Vec<u64> = {
            let mut r = Xoshiro256StarStar::seed_from_u64(1);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Xoshiro256StarStar::seed_from_u64(2);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn xoshiro_reference_vector() {
        // First outputs for the state {1, 2, 3, 4} from the xoshiro256**
        // reference implementation.
        let mut rng = Xoshiro256StarStar::from_state([1, 2, 3, 4]);
        assert_eq!(rng.next_u64(), 11520);
        assert_eq!(rng.next_u64(), 0);
        assert_eq!(rng.next_u64(), 1509978240);
        assert_eq!(rng.next_u64(), 1215971899390074240);
        assert_eq!(rng.next_u64(), 1216172134540287360);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_state_is_rejected() {
        let _ = Xoshiro256StarStar::from_state([0; 4]);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = DefaultRng::seed_from_u64(5);
        for _ in 0..2000 {
            let v = rng.gen_range(10..20u64);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(-31..=31i64);
            assert!((-31..=31).contains(&w));
            let f = rng.gen_range(0.25..0.75f64);
            assert!((0.25..0.75).contains(&f));
            let g = rng.gen_range(-2.0..=2.0f64);
            assert!((-2.0..=2.0).contains(&g));
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        // Chi-squared sanity over 8 buckets: 80k samples, expect 10k each.
        let mut rng = DefaultRng::seed_from_u64(0xD1CE);
        let mut buckets = [0u64; 8];
        for _ in 0..80_000 {
            buckets[rng.gen_range(0..8usize)] += 1;
        }
        for &count in &buckets {
            assert!((9_500..10_500).contains(&count), "skewed bucket: {buckets:?}");
        }
    }

    #[test]
    fn full_domain_inclusive_range() {
        let mut rng = DefaultRng::seed_from_u64(3);
        // Must not panic or loop forever.
        let _: u64 = rng.gen_range(0..=u64::MAX);
        let _: i64 = rng.gen_range(i64::MIN..=i64::MAX);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = DefaultRng::seed_from_u64(0);
        let _ = rng.gen_range(5..5u32);
    }

    #[test]
    fn unit_floats_are_half_open() {
        let mut rng = DefaultRng::seed_from_u64(8);
        for _ in 0..10_000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn bool_is_roughly_balanced() {
        let mut rng = DefaultRng::seed_from_u64(12);
        let trues = (0..10_000).filter(|_| rng.gen::<bool>()).count();
        assert!((4_500..5_500).contains(&trues), "{trues} trues in 10k");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DefaultRng::seed_from_u64(77);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "100 elements left in place");
    }

    #[test]
    fn split_streams_are_independent_and_deterministic() {
        let mut parent1 = DefaultRng::seed_from_u64(42);
        let mut parent2 = DefaultRng::seed_from_u64(42);
        let mut c1a = parent1.split();
        let mut c1b = parent1.split();
        let mut c2a = parent2.split();
        // Same parent seed → same first child stream.
        let seq_a: Vec<u64> = (0..8).map(|_| c1a.next_u64()).collect();
        let seq_c: Vec<u64> = (0..8).map(|_| c2a.next_u64()).collect();
        assert_eq!(seq_a, seq_c);
        // Sibling streams differ.
        let seq_b: Vec<u64> = (0..8).map(|_| c1b.next_u64()).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn jump_leaves_disjoint_prefixes() {
        let mut a = DefaultRng::seed_from_u64(9);
        let mut b = a.clone();
        b.jump();
        let pa: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let pb: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        assert_ne!(pa, pb);
    }

    #[test]
    fn fill_helpers_cover_slices() {
        let mut rng = DefaultRng::seed_from_u64(2);
        let mut words = [0u64; 5];
        rng.fill_u64(&mut words);
        assert!(words.iter().any(|&w| w != 0));
        let mut bytes = [0u8; 13];
        rng.fill_bytes(&mut bytes);
        assert!(bytes.iter().any(|&b| b != 0));
    }

    #[test]
    fn choose_picks_members() {
        let mut rng = DefaultRng::seed_from_u64(4);
        let items = [10, 20, 30];
        for _ in 0..100 {
            assert!(items.contains(rng.choose(&items).unwrap()));
        }
        assert!(rng.choose::<u64>(&[]).is_none());
    }
}
