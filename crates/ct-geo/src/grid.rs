//! Generic raster grid over a local east/north domain.

use crate::coords::EnuKm;
use crate::error::GeoError;

/// A dense row-major raster over a rectangular east/north domain.
///
/// Cell `(0, 0)` is the south-west corner. Cell centres are at
/// `origin + (i + 0.5) * cell_km` in each axis.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid<T> {
    cols: usize,
    rows: usize,
    /// South-west corner of the domain, in local km.
    origin: EnuKm,
    /// Cell edge length in km (square cells).
    cell_km: f64,
    data: Vec<T>,
}

impl<T: Clone> Grid<T> {
    /// Creates a grid by evaluating `f` at every cell centre.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::EmptyGrid`] for a zero-sized grid or
    /// non-positive cell size.
    pub fn from_fn(
        cols: usize,
        rows: usize,
        origin: EnuKm,
        cell_km: f64,
        mut f: impl FnMut(EnuKm) -> T,
    ) -> Result<Self, GeoError> {
        if cols == 0 || rows == 0 || cell_km.is_nan() || cell_km <= 0.0 {
            return Err(GeoError::EmptyGrid);
        }
        let mut data = Vec::with_capacity(cols * rows);
        for r in 0..rows {
            for c in 0..cols {
                let p = EnuKm::new(
                    origin.east + (c as f64 + 0.5) * cell_km,
                    origin.north + (r as f64 + 0.5) * cell_km,
                );
                data.push(f(p));
            }
        }
        Ok(Self {
            cols,
            rows,
            origin,
            cell_km,
            data,
        })
    }
}

impl<T> Grid<T> {
    /// Number of columns (east axis).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of rows (north axis).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// South-west corner of the domain in local km.
    pub fn origin(&self) -> EnuKm {
        self.origin
    }

    /// Cell edge length in km.
    pub fn cell_km(&self) -> f64 {
        self.cell_km
    }

    /// Returns the value at `(col, row)`, or `None` when out of range.
    pub fn get(&self, col: usize, row: usize) -> Option<&T> {
        if col < self.cols && row < self.rows {
            self.data.get(row * self.cols + col)
        } else {
            None
        }
    }

    /// Centre coordinate of cell `(col, row)` in local km.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of range.
    pub fn cell_center(&self, col: usize, row: usize) -> EnuKm {
        assert!(col < self.cols && row < self.rows, "cell out of range");
        EnuKm::new(
            self.origin.east + (col as f64 + 0.5) * self.cell_km,
            self.origin.north + (row as f64 + 0.5) * self.cell_km,
        )
    }

    /// Raw row-major data slice.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// A grid of the same shape holding `f` of each value.
    pub(crate) fn map<U>(&self, f: impl FnMut(&T) -> U) -> Grid<U> {
        Grid {
            cols: self.cols,
            rows: self.rows,
            origin: self.origin,
            cell_km: self.cell_km,
            data: self.data.iter().map(f).collect(),
        }
    }

    /// Bilinear interpolation at a point of the cell values `value`
    /// gives by `(col, row)`, or `None` outside the domain; it reads at
    /// most four cells. Edge cells clamp to their centre values.
    pub(crate) fn interpolate(
        &self,
        p: EnuKm,
        mut value: impl FnMut(usize, usize) -> f64,
    ) -> Option<f64> {
        let fx = (p.east - self.origin.east) / self.cell_km - 0.5;
        let fy = (p.north - self.origin.north) / self.cell_km - 0.5;
        if fx < -0.5 || fy < -0.5 {
            return None;
        }
        if fx > self.cols as f64 - 0.5 || fy > self.rows as f64 - 0.5 {
            return None;
        }
        let x0 = fx.floor().clamp(0.0, (self.cols - 1) as f64) as usize;
        let y0 = fy.floor().clamp(0.0, (self.rows - 1) as f64) as usize;
        let x1 = (x0 + 1).min(self.cols - 1);
        let y1 = (y0 + 1).min(self.rows - 1);
        let tx = (fx - x0 as f64).clamp(0.0, 1.0);
        let ty = (fy - y0 as f64).clamp(0.0, 1.0);
        let v00 = value(x0, y0);
        let v10 = value(x1, y0);
        let v01 = value(x0, y1);
        let v11 = value(x1, y1);
        let a = v00 * (1.0 - tx) + v10 * tx;
        let b = v01 * (1.0 - tx) + v11 * tx;
        Some(a * (1.0 - ty) + b * ty)
    }
}

impl Grid<f64> {
    /// Bilinearly interpolated value at a point, or `None` outside the
    /// domain. Edge cells clamp to their centre values.
    pub fn sample(&self, p: EnuKm) -> Option<f64> {
        self.interpolate(p, |c, r| self.data[r * self.cols + c])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_grid() -> Grid<f64> {
        Grid::from_fn(10, 8, EnuKm::new(-5.0, -4.0), 1.0, |p| {
            p.east + 2.0 * p.north
        })
        .unwrap()
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            Grid::from_fn(0, 4, EnuKm::default(), 1.0, |_| 0.0),
            Err(GeoError::EmptyGrid)
        );
        assert_eq!(
            Grid::from_fn(4, 4, EnuKm::default(), 0.0, |_| 0.0),
            Err(GeoError::EmptyGrid)
        );
    }

    #[test]
    fn cell_center_is_the_cell_midpoint() {
        let g = unit_grid();
        let center = g.cell_center(6, 6);
        assert!((center.east - 1.5).abs() < 1e-12);
        assert!((center.north - 2.5).abs() < 1e-12);
    }

    #[test]
    fn bilinear_reconstructs_linear_field() {
        // A bilinear interpolant reproduces affine functions exactly.
        let g = unit_grid();
        for &(e, n) in &[(0.0, 0.0), (1.2, -1.7), (-3.3, 2.9), (4.0, 3.0)] {
            let v = g.sample(EnuKm::new(e, n)).unwrap();
            assert!((v - (e + 2.0 * n)).abs() < 1e-9, "at ({e},{n}) got {v}");
        }
    }

    #[test]
    fn sample_outside_is_none() {
        let g = unit_grid();
        assert!(g.sample(EnuKm::new(-20.0, 0.0)).is_none());
        assert!(g.sample(EnuKm::new(0.0, 40.0)).is_none());
    }
}
