//! Offline shim for the `rand` crate: a seeded xoshiro256**-based `StdRng`
//! behind the `Rng`/`SeedableRng` trait surface this workspace uses
//! (`gen`, `gen_range`, `gen_bool`). Streams differ from rand 0.8's
//! ChaCha-based `StdRng`, but the workspace only relies on seeded
//! determinism. See `shims/README.md`.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Raw random-word source.
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seedable construction.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed, deterministically.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Value-producing convenience layer over [`RngCore`].
pub trait Rng: RngCore + Sized {
    /// A uniformly random value of `T` (unit-interval for floats).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniformly random value in `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// True with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        unit_f64(self.next_u64()) < p
    }
}

impl<T: RngCore + Sized> Rng for T {}

fn unit_f64(word: u64) -> f64 {
    // 53 high bits -> [0, 1) with full double precision.
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Types samplable uniformly from their full (or unit) domain.
pub trait Standard {
    /// Draws one value.
    fn sample<R: RngCore>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        unit_f64(rng.next_u64())
    }
}

impl Standard for f32 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        ((rng.next_u64() >> 40) as f32) * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            #[allow(clippy::cast_possible_truncation)]
            fn sample<R: RngCore>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges samplable uniformly.
pub trait SampleRange {
    /// The element type produced.
    type Output;

    /// Draws one value from the range.
    fn sample<R: RngCore>(self, rng: &mut R) -> Self::Output;
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;

            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            fn sample<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (u128::from(rng.next_u64()) % span) as i128;
                (self.start as i128 + off) as $t
            }
        }

        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;

            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            fn sample<R: RngCore>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let off = (u128::from(rng.next_u64()) % span) as i128;
                (lo as i128 + off) as $t
            }
        }
    )*};
}

impl_sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange for Range<f64> {
    type Output = f64;

    fn sample<R: RngCore>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + unit_f64(rng.next_u64()) * (self.end - self.start)
    }
}

pub mod rngs {
    //! Concrete generators.

    use super::{RngCore, SeedableRng};

    /// The standard deterministic generator: xoshiro256** seeded via
    /// SplitMix64 (Blackman & Vigna).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            Self {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
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
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn seeded_streams_are_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = r.gen_range(3usize..17);
            assert!((3..17).contains(&x));
            let y = r.gen_range(2u32..=8);
            assert!((2..=8).contains(&y));
            let f = r.gen_range(-1.5f64..2.5);
            assert!((-1.5..2.5).contains(&f));
            let u: f64 = r.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gen_bool_respects_probability() {
        let mut r = StdRng::seed_from_u64(1);
        assert!((0..100).all(|_| !r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
        let hits = (0..10_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "hits {hits}");
    }
}
