//! Deterministic value noise used for terrain synthesis.
//!
//! The generator is hash-based (no RNG state), so the same seed and
//! coordinates always produce the same field regardless of evaluation
//! order — a requirement for reproducible terrain.

use crate::coords::EnuKm;

/// SplitMix64 finalizer; a fast, well-mixed 64-bit hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Hashes integer lattice coordinates and a seed to a value in `[-1, 1]`.
fn lattice_value(seed: u64, xi: i64, yi: i64) -> f64 {
    let h = splitmix64(
        seed ^ (xi as u64).wrapping_mul(0x9E3779B97F4A7C15)
            ^ (yi as u64).wrapping_mul(0xC2B2AE3D27D4EB4F),
    );
    // Map the top 53 bits to [0, 1), then to [-1, 1].
    ((h >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
}

/// Quintic smoothstep used for C2-continuous interpolation.
fn fade(t: f64) -> f64 {
    t * t * t * (t * (t * 6.0 - 15.0) + 10.0)
}

/// Smooth deterministic value noise in `[-1, 1]`.
///
/// `freq` is in cycles per kilometre: higher values produce
/// finer-grained variation.
pub fn value_noise(seed: u64, p: EnuKm, freq: f64) -> f64 {
    let x = p.east * freq;
    let y = p.north * freq;
    let x0 = x.floor();
    let y0 = y.floor();
    let tx = fade(x - x0);
    let ty = fade(y - y0);
    let (xi, yi) = (x0 as i64, y0 as i64);
    let v00 = lattice_value(seed, xi, yi);
    let v10 = lattice_value(seed, xi + 1, yi);
    let v01 = lattice_value(seed, xi, yi + 1);
    let v11 = lattice_value(seed, xi + 1, yi + 1);
    let a = v00 * (1.0 - tx) + v10 * tx;
    let b = v01 * (1.0 - tx) + v11 * tx;
    a * (1.0 - ty) + b * ty
}

/// Fractal Brownian motion: `octaves` layers of [`value_noise`] with
/// doubling frequency and halving amplitude. Result stays in `[-1, 1]`.
pub(crate) fn fbm(seed: u64, p: EnuKm, base_freq: f64, octaves: u32) -> f64 {
    let mut total = 0.0;
    let mut amp = 1.0;
    let mut freq = base_freq;
    let mut norm = 0.0;
    for octave in 0..octaves {
        total += amp * value_noise(seed.wrapping_add(octave as u64 * 0x9E37), p, freq);
        norm += amp;
        amp *= 0.5;
        freq *= 2.0;
    }
    if norm > 0.0 {
        total / norm
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let p = EnuKm::new(3.7, -12.9);
        assert_eq!(value_noise(7, p, 0.1), value_noise(7, p, 0.1));
        assert_eq!(fbm(7, p, 0.1, 5), fbm(7, p, 0.1, 5));
    }

    #[test]
    fn seed_changes_field() {
        let p = EnuKm::new(3.7, -12.9);
        assert_ne!(value_noise(1, p, 0.1), value_noise(2, p, 0.1));
    }

    #[test]
    fn bounded() {
        for i in 0..500 {
            let p = EnuKm::new(i as f64 * 0.37, i as f64 * -0.91);
            let v = value_noise(42, p, 0.21);
            assert!((-1.0..=1.0).contains(&v), "value noise out of range: {v}");
            let f = fbm(42, p, 0.21, 6);
            assert!((-1.0..=1.0).contains(&f), "fbm out of range: {f}");
        }
    }

    #[test]
    fn continuity() {
        // Neighbouring samples differ by a small amount: no hard seams
        // across lattice boundaries.
        let eps = 1e-4;
        for i in 0..200 {
            let p = EnuKm::new(i as f64 * 0.05, 1.0);
            let q = EnuKm::new(p.east + eps, p.north);
            let dv = (value_noise(9, p, 1.0) - value_noise(9, q, 1.0)).abs();
            assert!(dv < 0.01, "discontinuity {dv} at {p}");
        }
    }

    #[test]
    fn fbm_zero_octaves_is_zero() {
        assert_eq!(fbm(1, EnuKm::new(1.0, 1.0), 0.5, 0), 0.0);
    }

    #[test]
    fn mean_near_zero() {
        let mut sum = 0.0;
        let n = 2000;
        for i in 0..n {
            let p = EnuKm::new((i % 50) as f64 * 0.73, (i / 50) as f64 * 0.61);
            sum += value_noise(123, p, 0.37);
        }
        let mean: f64 = sum / n as f64;
        assert!(mean.abs() < 0.1, "mean {mean} too far from zero");
    }
}
