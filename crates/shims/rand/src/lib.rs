//! Workspace-local substitute for the `rand` crate.
//!
//! Implements `StdRng` (xoroshiro128+ seeded via splitmix64),
//! `SeedableRng::seed_from_u64`, and `Rng::{gen_range, gen_bool}` over
//! the ranges this workspace samples. The bit streams differ from upstream
//! rand, so seeds produce different (but still deterministic and
//! well-distributed) values.

/// Low-level source of random 64-bit words.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction of an RNG from seed material.
pub trait SeedableRng: Sized {
    /// Deterministically builds the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform f64 in [0, 1) with 53 bits of precision.
fn u01(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Types that can be drawn uniformly from a range.
///
/// Mirrors rand's `SampleUniform` so that [`SampleRange`] can be a single
/// blanket impl per range type — type inference then unifies unsuffixed
/// float literals with the surrounding expression, exactly like upstream.
pub trait SampleUniform: PartialOrd + Copy {
    /// One uniform draw from `[lo, hi)` (`inclusive` widens to `[lo, hi]`).
    fn sample_uniform(lo: Self, hi: Self, inclusive: bool, bits: u64) -> Self;
}

macro_rules! int_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_uniform(lo: $t, hi: $t, inclusive: bool, bits: u64) -> $t {
                let span = (hi as i128 - lo as i128) as u128 + inclusive as u128;
                debug_assert!(span > 0);
                (lo as i128 + (bits as u128 % span) as i128) as $t
            }
        }
    )*};
}
int_sample_uniform!(usize, u64, u32, u16, u8, i64, i32, i16, i8, isize);

macro_rules! float_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_uniform(lo: $t, hi: $t, _inclusive: bool, bits: u64) -> $t {
                lo + (u01(bits) as $t) * (hi - lo)
            }
        }
    )*};
}
float_sample_uniform!(f64, f32);

/// Ranges a value can be sampled from.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample(self, rng: &mut dyn FnMut() -> u64) -> T;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn sample(self, rng: &mut dyn FnMut() -> u64) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::sample_uniform(self.start, self.end, false, rng())
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample(self, rng: &mut dyn FnMut() -> u64) -> T {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "cannot sample empty range");
        T::sample_uniform(lo, hi, true, rng())
    }
}

/// High-level sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform draw from `range`.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        let mut f = || self.next_u64();
        range.sample(&mut f)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        u01(self.next_u64()) < p
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

/// Named generators.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// Deterministic generator (xoroshiro128+), the stand-in for rand's
    /// `StdRng`.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s0: u64,
        s1: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let s0 = splitmix64(&mut sm);
            let mut s1 = splitmix64(&mut sm);
            if s0 == 0 && s1 == 0 {
                s1 = 1;
            }
            StdRng { s0, s1 }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let (s0, mut s1) = (self.s0, self.s1);
            let out = s0.wrapping_add(s1);
            s1 ^= s0;
            self.s0 = s0.rotate_left(55) ^ s1 ^ (s1 << 14);
            self.s1 = s1.rotate_left(36);
            out
        }
    }
}

pub use rngs::StdRng;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn gen_range_int_in_bounds() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = r.gen_range(3..17usize);
            assert!((3..17).contains(&v));
            let w = r.gen_range(-5..=5i32);
            assert!((-5..=5).contains(&w));
        }
    }

    #[test]
    fn gen_range_float_in_bounds() {
        let mut r = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let v: f64 = r.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&v));
            let w: f32 = r.gen_range(0.0..=2.0f32);
            assert!((0.0..=2.0f32).contains(&w));
        }
    }

    #[test]
    fn gen_bool_respects_probability_roughly() {
        let mut r = StdRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits = {hits}");
    }
}
