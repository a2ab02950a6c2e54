//! Minimal dense linear algebra: Gaussian elimination with partial
//! pivoting, sized for island-scale power-flow systems (tens of
//! buses). No external dependency needed at this scale.

/// Solves `A x = b` in place via Gaussian elimination with partial
/// pivoting. Returns `None` when the matrix is (numerically)
/// singular.
///
/// # Panics
///
/// Panics if `a` is not square or `b`'s length differs from `a`'s
/// dimension.
// The elimination inner loop indexes both `a[row]` and `a[col]`; an
// iterator form would need `split_at_mut` gymnastics for no clarity gain.
#[allow(clippy::needless_range_loop)]
pub(crate) fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = a.len();
    assert!(a.iter().all(|row| row.len() == n), "matrix must be square");
    assert_eq!(b.len(), n, "rhs length must match");
    const EPS: f64 = 1e-10;

    for col in 0..n {
        // Partial pivot.
        let pivot_row = (col..n)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .expect("non-empty range");
        if a[pivot_row][col].abs() < EPS {
            return None;
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);

        let pivot = a[col][col];
        for row in (col + 1)..n {
            let factor = a[row][col] / pivot;
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }

    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in (row + 1)..n {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_rand::cases;

    #[test]
    fn solves_identity() {
        let a = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let x = solve(a, vec![3.0, -4.0]).unwrap();
        assert_eq!(x, vec![3.0, -4.0]);
    }

    #[test]
    fn solves_known_system() {
        // 2x + y = 5 ; x - y = 1  => x = 2, y = 1.
        let a = vec![vec![2.0, 1.0], vec![1.0, -1.0]];
        let x = solve(a, vec![5.0, 1.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn needs_pivoting() {
        // Zero on the initial diagonal; only pivoting saves it.
        let a = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let x = solve(a, vec![7.0, 9.0]).unwrap();
        assert!((x[0] - 9.0).abs() < 1e-12);
        assert!((x[1] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn detects_singular() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(solve(a, vec![1.0, 2.0]).is_none());
    }

    #[test]
    #[should_panic(expected = "matrix must be square")]
    fn rejects_non_square() {
        let _ = solve(vec![vec![1.0, 2.0]], vec![1.0]);
    }

    /// A x = b round-trips: generate a diagonally-dominant (hence
    /// nonsingular) matrix and a solution, recompute it.
    #[test]
    fn round_trips_diagonally_dominant() {
        cases(256, |rng| {
            let seed_vals: Vec<f64> = (0..9).map(|_| rng.range_f64(-1.0, 1.0)).collect();
            let x_true: Vec<f64> = (0..3).map(|_| rng.range_f64(-10.0, 10.0)).collect();
            let n = 3;
            let mut a = vec![vec![0.0; n]; n];
            for i in 0..n {
                for j in 0..n {
                    a[i][j] = seed_vals[i * n + j];
                }
                a[i][i] = 4.0 + seed_vals[i * n + i].abs();
            }
            let b: Vec<f64> = (0..n)
                .map(|i| (0..n).map(|j| a[i][j] * x_true[j]).sum())
                .collect();
            let x = solve(a, b).expect("diagonally dominant is nonsingular");
            for i in 0..n {
                assert!((x[i] - x_true[i]).abs() < 1e-6);
            }
        });
    }
}
