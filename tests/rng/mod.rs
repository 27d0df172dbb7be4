//! A tiny deterministic generator shared by the randomized integration
//! tests, and the mixer the frozen-digest tests fold observables with.
//! SplitMix64 (Steele et al., "Fast splittable pseudorandom number
//! generators") — 64-bit state, full-period, and small enough that the
//! workspace needs no external RNG crate to stay offline.

// Each test binary that includes this module uses only part of it.
#![allow(dead_code)]

/// SplitMix64 PRNG.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeded generator; the same seed replays the same stream.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GAMMA);
        finalize(self.0)
    }

    /// Uniform value in `0..bound` (`bound` > 0); bias is negligible
    /// for the tiny bounds used in tests.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// Fold `x` into the digest `h`: one SplitMix64 finalizer step over
/// `h ^ x`, so the result depends on every folded value and its order.
pub fn mix(h: u64, x: u64) -> u64 {
    finalize((h ^ x).wrapping_add(GAMMA))
}

/// SplitMix64's state increment (the golden-ratio odd constant).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output function.
fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
