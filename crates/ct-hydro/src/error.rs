//! Error types for the hydrodynamic substrate.

use std::fmt;

/// Errors produced by hurricane/surge modelling.
#[derive(Debug, Clone, PartialEq)]
pub enum HydroError {
    /// A storm track needs at least two points to define motion.
    DegenerateTrack {
        /// Number of track points supplied.
        points: usize,
    },
    /// Track points must be strictly increasing in time.
    NonMonotonicTrack,
    /// A point of interest fell outside the DEM domain.
    PoiOutsideDomain {
        /// POI identifier for diagnostics.
        id: String,
    },
    /// A point of interest is in the sea.
    PoiInSea {
        /// POI identifier for diagnostics.
        id: String,
    },
    /// Invalid physical parameter (non-finite or out of range).
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// Ensemble configuration requested zero realizations.
    EmptyEnsemble,
    /// An underlying geospatial error.
    Geo(ct_geo::GeoError),
}

impl fmt::Display for HydroError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HydroError::DegenerateTrack { points } => {
                write!(f, "storm track needs >= 2 points, got {points}")
            }
            HydroError::NonMonotonicTrack => {
                write!(f, "storm track times must be strictly increasing")
            }
            HydroError::PoiOutsideDomain { id } => {
                write!(f, "point of interest '{id}' is outside the DEM domain")
            }
            HydroError::PoiInSea { id } => {
                write!(f, "point of interest '{id}' is located in the sea")
            }
            HydroError::InvalidParameter { name, value } => {
                write!(f, "invalid parameter {name} = {value}")
            }
            HydroError::EmptyEnsemble => write!(f, "ensemble must have >= 1 realization"),
            HydroError::Geo(e) => write!(f, "geospatial error: {e}"),
        }
    }
}

impl std::error::Error for HydroError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HydroError::Geo(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ct_geo::GeoError> for HydroError {
    fn from(e: ct_geo::GeoError) -> Self {
        HydroError::Geo(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty_and_source_chains() {
        use std::error::Error;
        let e = HydroError::Geo(ct_geo::GeoError::EmptyGrid);
        assert!(!e.to_string().is_empty());
        assert!(e.source().is_some());
        let e = HydroError::EmptyEnsemble;
        assert!(e.source().is_none());
        assert!(!e.to_string().is_empty());
    }
}
