//! Hermetic stand-in for the `rand` crate.
//!
//! Implements the small API subset the workspace uses — `StdRng`,
//! `SeedableRng::seed_from_u64`, `Rng::{gen, gen_bool, gen_range}` — on top
//! of a SplitMix64 generator. Everything is deterministic given the seed,
//! which is all the synthetic-dataset generators require; statistical quality
//! beyond "well mixed" is not a goal.

use std::ops::Range;

/// Low-level generator interface: a source of uniform 64-bit words.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns a uniform `f64` in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        // 53 mantissa bits, the standard conversion.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Construction of a generator from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Creates a generator seeded from `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// Types samplable uniformly from a generator (the `rng.gen()` surface).
pub trait Standard: Sized {
    /// Draws one uniform value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_f64()
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_f64() as f32
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Half-open ranges samplable by `rng.gen_range(..)`.
///
/// Parameterised over the element type (like the real rand crate) so type
/// inference flows from the expected output to the range literals.
pub trait SampleRange<T> {
    /// Draws one uniform value from the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range called with an empty range");
                let span = (self.end - self.start) as u64;
                // Modulo bias is negligible for the small spans used here and
                // keeps the generator deterministic and branch-free.
                self.start + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

int_sample_range!(u32, u64, usize, i64);

impl SampleRange<f64> for Range<f64> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(
            self.start < self.end,
            "gen_range called with an empty range"
        );
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl SampleRange<f32> for Range<f32> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(
            self.start < self.end,
            "gen_range called with an empty range"
        );
        self.start + (rng.next_f64() as f32) * (self.end - self.start)
    }
}

/// High-level sampling interface, blanket-implemented for every generator.
pub trait Rng: RngCore {
    /// Draws a uniform value of an inferred type (`let x: f64 = rng.gen();`).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability out of range"
        );
        self.next_f64() < p
    }

    /// Draws a uniform value from a half-open range.
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }
}

impl<T: RngCore> Rng for T {}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: SplitMix64.
    ///
    /// Not the real `rand::rngs::StdRng` (ChaCha12) — but deterministic,
    /// well-mixed and dependency-free, which is what the seeded synthetic
    /// datasets need.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        state: u64,
    }

    /// SplitMix64's increment: every draw adds it to the state.
    const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

    impl StdRng {
        /// Skips `draws` calls to `next_u64` in O(1): each draw only adds
        /// the fixed increment to the state before mixing, so `draws`
        /// draws add `draws` increments. Lets a counter-indexed consumer
        /// start the `k`-th of several equal-length draw ranges directly.
        #[inline]
        pub fn advance(&mut self, draws: u64) {
            self.state = self.state.wrapping_add(GAMMA.wrapping_mul(draws));
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            Self {
                // Pre-mix so consecutive seeds do not yield correlated
                // opening values.
                state: state ^ GAMMA,
            }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(GAMMA);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn advance_equals_that_many_draws() {
        use super::RngCore;
        for k in [0u64, 1, 2, 17, 1000] {
            let mut stepped = StdRng::seed_from_u64(9);
            for _ in 0..k {
                stepped.next_u64();
            }
            let mut jumped = StdRng::seed_from_u64(9);
            jumped.advance(k);
            assert_eq!(jumped, stepped, "k = {k}");
            assert_eq!(jumped.next_u64(), stepped.next_u64());
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.gen_range(3u32..17);
            assert!((3..17).contains(&v));
            let f = rng.gen_range(-1.0f32..1.0);
            assert!((-1.0..1.0).contains(&f));
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits {hits}");
    }
}
