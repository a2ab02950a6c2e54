//! Error types for geospatial operations.

use std::fmt;

/// Errors produced by geospatial operations.
#[derive(Debug, Clone, PartialEq)]
pub enum GeoError {
    /// A coordinate was outside the domain of a grid or DEM.
    OutOfBounds {
        /// What was being looked up (for diagnostics).
        what: String,
    },
    /// A grid was constructed with zero rows or columns.
    EmptyGrid,
    /// A polygon had fewer than three vertices.
    DegeneratePolygon {
        /// Number of vertices supplied.
        vertices: usize,
    },
    /// A coastal sector's shelf slope was negative: its sea floor
    /// would rise offshore.
    RisingShelf {
        /// Index of the sector in the spec's table.
        sector: usize,
    },
}

impl fmt::Display for GeoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeoError::OutOfBounds { what } => {
                write!(f, "coordinate outside grid domain: {what}")
            }
            GeoError::EmptyGrid => write!(f, "grid must have at least one row and column"),
            GeoError::DegeneratePolygon { vertices } => {
                write!(f, "polygon needs at least 3 vertices, got {vertices}")
            }
            GeoError::RisingShelf { sector } => {
                write!(f, "coastal sector {sector} has a negative shelf slope")
            }
        }
    }
}

impl std::error::Error for GeoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty() {
        let errs = [
            GeoError::OutOfBounds { what: "x".into() },
            GeoError::EmptyGrid,
            GeoError::DegeneratePolygon { vertices: 2 },
            GeoError::RisingShelf { sector: 1 },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GeoError>();
    }
}
