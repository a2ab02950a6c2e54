//! Small sampling utilities on the in-tree [`SplitMix64`] stream.
//!
//! The normal sampler is the Box-Muller transform, written out here
//! because the workspace has no external crates.

use ct_rand::SplitMix64;

/// Samples a standard normal via the Box-Muller transform.
///
/// Kept out of line on purpose. SplitMix64 advances its state by a
/// constant, so once this body is inlined into
/// [`truncated_normal`]'s rejection loop, LLVM vectorizes the loop 16
/// tries wide: every try then pays 16 `ln` and 16 `cos` calls and a
/// lane mask picks the first accepted one, where about 1.03 tries are
/// needed. As a call, each try makes one draw. The values are the same
/// either way.
#[inline(never)]
pub(crate) fn standard_normal(rng: &mut SplitMix64) -> f64 {
    // Avoid ln(0) by sampling u1 from the half-open (0, 1].
    let u1: f64 = 1.0 - rng.unit_f64();
    let u2: f64 = rng.unit_f64();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Samples `N(mean, sd)`.
pub(crate) fn normal(rng: &mut SplitMix64, mean: f64, sd: f64) -> f64 {
    mean + sd * standard_normal(rng)
}

/// Samples `N(mean, sd)` truncated to `[lo, hi]` by rejection, falling
/// back to clamping after 64 rejections (only reachable for extreme
/// truncation bounds). Adds the normal draws it made, one per try, to
/// `draws`.
///
/// # Panics
///
/// Panics in debug builds if `lo > hi` or `sd < 0`.
pub(crate) fn truncated_normal(
    rng: &mut SplitMix64,
    draws: &mut u64,
    mean: f64,
    sd: f64,
    lo: f64,
    hi: f64,
) -> f64 {
    debug_assert!(lo <= hi, "truncation bounds inverted");
    debug_assert!(sd >= 0.0, "negative standard deviation");
    for _ in 0..64 {
        *draws += 1;
        let x = normal(rng, mean, sd);
        if (lo..=hi).contains(&x) {
            return x;
        }
    }
    *draws += 1;
    normal(rng, mean, sd).clamp(lo, hi)
}

/// Samples uniformly from `[lo, hi)`.
pub(crate) fn uniform(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    if lo == hi {
        return lo;
    }
    rng.range_f64(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_moments() {
        let mut rng = SplitMix64::new(7);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng, 3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn truncated_stays_in_bounds() {
        let mut rng = SplitMix64::new(11);
        let mut draws = 0;
        for _ in 0..5_000 {
            let x = truncated_normal(&mut rng, &mut draws, 0.0, 5.0, -1.0, 2.0);
            assert!((-1.0..=2.0).contains(&x), "out of bounds: {x}");
        }
    }

    #[test]
    fn truncated_extreme_bounds_clamp() {
        let mut rng = SplitMix64::new(13);
        // Bounds 20 sigma away: rejection will fail, clamp must kick in.
        let mut draws = 0;
        let x = truncated_normal(&mut rng, &mut draws, 0.0, 1.0, 20.0, 21.0);
        assert!((20.0..=21.0).contains(&x));
        assert_eq!(draws, 65, "64 rejected tries and the clamped draw");
    }

    /// `truncated_normal` as a plain loop: one Box-Muller draw per
    /// try, written out inline.
    fn one_draw_per_try(rng: &mut SplitMix64, mean: f64, sd: f64, lo: f64, hi: f64) -> (f64, u64) {
        let mut draw = || {
            let u1 = 1.0 - rng.unit_f64();
            let u2 = rng.unit_f64();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            mean + sd * z
        };
        for tries in 1..=64 {
            let x = draw();
            if lo <= x && x <= hi {
                return (x, tries);
            }
        }
        (draw().clamp(lo, hi), 65)
    }

    #[test]
    fn truncated_matches_one_draw_per_try() {
        // The ensemble's four truncations, a tight one that rejects
        // often, and bounds 20 sigma away that take the clamp path.
        let cases = [
            (40.5, 3.0, 33.0, 48.0),
            (32.0, 8.0, 18.0, 55.0),
            (6.0, 1.5, 3.5, 9.0),
            (5.0, 12.0, -30.0, 40.0),
            (0.0, 5.0, -1.0, 2.0),
            (0.0, 1.0, 20.0, 21.0),
            (0.0, 1.0, -21.0, -20.0),
        ];
        for seed in 0..200 {
            for &(mean, sd, lo, hi) in &cases {
                let mut rng = SplitMix64::new(seed);
                let mut reference = rng.clone();
                let mut draws = 0;
                let x = truncated_normal(&mut rng, &mut draws, mean, sd, lo, hi);
                let (want, tries) = one_draw_per_try(&mut reference, mean, sd, lo, hi);
                assert_eq!(x.to_bits(), want.to_bits(), "seed {seed}, case {mean} {sd}");
                assert_eq!(draws, tries, "seed {seed}, case {mean} {sd}");
                assert_eq!(
                    rng.next_u64(),
                    reference.next_u64(),
                    "stream after seed {seed}"
                );
            }
        }
    }

    #[test]
    fn uniform_bounds_and_degenerate() {
        let mut rng = SplitMix64::new(17);
        for _ in 0..1_000 {
            let x = uniform(&mut rng, -2.0, 5.0);
            assert!((-2.0..5.0).contains(&x));
        }
        assert_eq!(uniform(&mut rng, 3.0, 3.0), 3.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let a: Vec<f64> = {
            let mut rng = SplitMix64::new(42);
            (0..10).map(|_| standard_normal(&mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = SplitMix64::new(42);
            (0..10).map(|_| standard_normal(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
