//! Deterministic random number generation.
//!
//! Each node gets its own [`DetRng`] derived from the simulation master seed
//! and the node id, so adding a node never perturbs the random streams of
//! existing nodes. The network layer has a separate stream for jitter and
//! drop decisions.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The SplitMix64 increment ("golden gamma").
const SPLITMIX64_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One-shot SplitMix64 step: advances `z` by the golden gamma and applies
/// the avalanche finalizer. The workspace's canonical 64-bit mixer —
/// [`DetRng::derive`] builds seed material from it and the shard router
/// decorrelates rendezvous claims with it — kept in one place so the
/// constants can never silently diverge.
pub fn splitmix64(z: u64) -> u64 {
    let mut x = z.wrapping_add(SPLITMIX64_GAMMA);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A deterministic RNG stream, derived from a master seed and a stream label.
#[derive(Debug)]
pub struct DetRng {
    inner: StdRng,
}

impl DetRng {
    /// Derives a stream from `master` and a `stream` label.
    ///
    /// The derivation is a simple SplitMix64-style mix so distinct labels
    /// yield statistically independent streams.
    pub fn derive(master: u64, stream: u64) -> Self {
        let mut z = master ^ stream.wrapping_mul(SPLITMIX64_GAMMA);
        let mut seed = [0u8; 32];
        for chunk in seed.chunks_mut(8) {
            let x = splitmix64(z);
            z = z.wrapping_add(SPLITMIX64_GAMMA);
            chunk.copy_from_slice(&x.to_le_bytes());
        }
        DetRng {
            inner: StdRng::from_seed(seed),
        }
    }

    /// A uniformly random value in `[0, bound)`; returns 0 when `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.inner.gen_range(0..bound)
        }
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// An exponentially distributed value with the given mean (for think
    /// times, per TPC-W).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u: f64 = self.inner.gen_range(f64::MIN_POSITIVE..1.0);
        -mean * u.ln()
    }
}

impl RngCore for DetRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::derive(42, 3);
        let mut b = DetRng::derive(42, 3);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_streams_differ() {
        let mut a = DetRng::derive(42, 3);
        let mut b = DetRng::derive(42, 4);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams should be effectively independent");
    }

    #[test]
    fn below_is_bounded() {
        let mut r = DetRng::derive(1, 1);
        assert_eq!(r.below(0), 0);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn exponential_has_roughly_right_mean() {
        let mut r = DetRng::derive(9, 9);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exponential(5.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 5.0).abs() < 0.3, "mean was {mean}");
    }

    #[test]
    fn unit_in_range() {
        let mut r = DetRng::derive(5, 5);
        for _ in 0..100 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
