//! Seeded randomness for reproducible simulations.
//!
//! All stochastic behaviour (boot-time jitter, VM failure injection, ECMP
//! tie-breaking in vendor firmware, message timing noise) flows through
//! [`SimRng`] so that an entire emulation run is a pure function of its
//! seed. Figure 8's percentile bars come from 10 runs with seeds 0..10.
//!
//! The generator is a self-contained xoshiro256++ seeded through
//! SplitMix64, so streams are identical on every platform and toolchain —
//! a prerequisite for golden export digests that hold on every host (no
//! external RNG crate whose algorithm could shift under us).

use crate::time::SimDuration;

/// A deterministic RNG handle derived from a run seed and a component label.
///
/// Deriving per-component streams keeps one component's draw count from
/// perturbing another's, which keeps perturbation experiments comparable.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

/// SplitMix64 step, used to expand a 64-bit seed into generator state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// An RNG for the run-global stream of `seed`.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// An RNG for a named component within the run of `seed`.
    #[must_use]
    pub fn for_component(seed: u64, component: &str) -> Self {
        // FNV-1a over the label, mixed with the run seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in component.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        SimRng::from_seed(seed ^ h.rotate_left(17))
    }

    /// A uniformly random `u64` (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniformly random value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        // Rejection sampling to avoid modulo bias (Lemire-style threshold).
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = self.next_u64();
            if r >= threshold {
                return r % bound;
            }
        }
    }

    /// A uniformly random `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 high-quality bits into the mantissa.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// A duration jittered uniformly in `[base*(1-spread), base*(1+spread)]`.
    ///
    /// Used for boot times and protocol timers, mirroring the jitter real
    /// firmware applies (e.g. BGP MRAI / connect-retry jitter).
    pub fn jitter(&mut self, base: SimDuration, spread: f64) -> SimDuration {
        let spread = spread.clamp(0.0, 1.0);
        let factor = 1.0 - spread + 2.0 * spread * self.unit();
        base.mul_f64(factor)
    }

    /// Picks a uniformly random element of `items`, or `None` if empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            let idx = self.below(items.len() as u64) as usize;
            Some(&items[idx])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::from_seed(42);
        let mut b = SimRng::from_seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn component_streams_differ() {
        let mut a = SimRng::for_component(42, "vm-0");
        let mut b = SimRng::for_component(42, "vm-1");
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be effectively independent");
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::from_seed(7);
        for _ in 0..1000 {
            assert!(r.below(13) < 13);
        }
    }

    #[test]
    fn jitter_stays_in_range() {
        let mut r = SimRng::from_seed(7);
        let base = SimDuration::from_secs(10);
        for _ in 0..1000 {
            let d = r.jitter(base, 0.2);
            assert!(d >= SimDuration::from_secs(8) && d <= SimDuration::from_secs(12));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::from_seed(7);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-5.0));
        assert!(r.chance(5.0));
    }

    #[test]
    fn pick_empty_is_none() {
        let mut r = SimRng::from_seed(1);
        assert_eq!(r.pick::<u32>(&[]), None);
        assert_eq!(r.pick(&[5]), Some(&5));
    }

    #[test]
    fn unit_stays_in_half_open_interval() {
        let mut r = SimRng::from_seed(3);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
