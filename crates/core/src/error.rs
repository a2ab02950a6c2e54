//! Framework-level errors.

use std::fmt;

/// Errors surfaced by the analysis framework.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Hazard-model failure.
    Hydro(ct_hydro::HydroError),
    /// Topology / architecture failure.
    Scada(ct_scada::ScadaError),
    /// Geospatial failure.
    Geo(ct_geo::GeoError),
    /// A requested asset id is unknown to the case study.
    UnknownAsset {
        /// The missing id.
        id: String,
    },
    /// A configuration value failed validation.
    InvalidConfig {
        /// The offending field (builder setter name).
        field: &'static str,
        /// Why the value was rejected.
        reason: String,
    },
    /// Artifact-store failure (I/O under the store root). Corrupt
    /// records never surface here — the store heals them internally.
    Store(ct_store::StoreError),
    /// I/O on a named file or endpoint failed: writing an output
    /// artifact (e.g. a `--metrics` snapshot), a `ct probe` fetch, the
    /// `ct bench-serve` dial, or the `ct serve` bind. The I/O error is
    /// stringified to keep `CoreError` cloneable and comparable.
    Io {
        /// The file path, URL or listen address the operation used.
        path: String,
        /// The underlying I/O error message.
        message: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Hydro(e) => write!(f, "hazard model: {e}"),
            CoreError::Scada(e) => write!(f, "scada model: {e}"),
            CoreError::Geo(e) => write!(f, "geospatial: {e}"),
            CoreError::UnknownAsset { id } => write!(f, "unknown asset id '{id}'"),
            CoreError::InvalidConfig { field, reason } => {
                write!(f, "invalid configuration: {field}: {reason}")
            }
            CoreError::Store(e) => write!(f, "{e}"),
            CoreError::Io { path, message } => write!(f, "i/o on '{path}': {message}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Hydro(e) => Some(e),
            CoreError::Scada(e) => Some(e),
            CoreError::Geo(e) => Some(e),
            CoreError::UnknownAsset { .. } => None,
            CoreError::InvalidConfig { .. } => None,
            CoreError::Store(e) => Some(e),
            CoreError::Io { .. } => None,
        }
    }
}

impl From<ct_hydro::HydroError> for CoreError {
    fn from(e: ct_hydro::HydroError) -> Self {
        CoreError::Hydro(e)
    }
}

impl From<ct_scada::ScadaError> for CoreError {
    fn from(e: ct_scada::ScadaError) -> Self {
        CoreError::Scada(e)
    }
}

impl From<ct_geo::GeoError> for CoreError {
    fn from(e: ct_geo::GeoError) -> Self {
        CoreError::Geo(e)
    }
}

impl From<ct_store::StoreError> for CoreError {
    fn from(e: ct_store::StoreError) -> Self {
        CoreError::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_and_sources() {
        let e = CoreError::from(ct_hydro::HydroError::EmptyEnsemble);
        assert!(!e.to_string().is_empty());
        assert!(e.source().is_some());
        let e = CoreError::UnknownAsset { id: "x".into() };
        assert!(e.source().is_none());
    }

    #[test]
    fn new_variants_display_their_context() {
        let e = CoreError::InvalidConfig {
            field: "realizations",
            reason: "must be at least 1".into(),
        };
        assert!(e.to_string().contains("realizations"));
        assert!(e.source().is_none());
        let e = CoreError::Io {
            path: "/tmp/m.csv".into(),
            message: "denied".into(),
        };
        assert!(e.to_string().contains("/tmp/m.csv"));
        // A fetch is no write: the label names no direction.
        let e = CoreError::Io {
            path: "http://127.0.0.1:7199/probe?scenario=compound".into(),
            message: "no response within 60s".into(),
        };
        let shown = e.to_string();
        assert!(shown.contains("http://127.0.0.1:7199/probe"), "{shown}");
        assert!(!shown.contains("writing"), "{shown}");
    }
}
