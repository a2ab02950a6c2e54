//! Error types for the SCADA system model.

use std::fmt;

/// Errors produced by topology and site-plan operations.
#[derive(Debug, Clone, PartialEq)]
pub enum ScadaError {
    /// Two assets with the same id were added.
    DuplicateAsset {
        /// The colliding id.
        id: String,
    },
    /// An asset id was referenced but not present.
    UnknownAsset {
        /// The missing id.
        id: String,
    },
    /// A site plan supplied the wrong number of control sites for an
    /// architecture.
    SiteCountMismatch {
        /// Architecture label.
        architecture: String,
        /// Sites required.
        required: usize,
        /// Sites supplied.
        supplied: usize,
    },
    /// An asset was used as a control site but has a non-hosting kind.
    NotAControlSite {
        /// The offending asset id.
        id: String,
    },
    /// A hazard-model error while deriving site profiles.
    Hydro(ct_hydro::HydroError),
}

impl fmt::Display for ScadaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScadaError::DuplicateAsset { id } => write!(f, "duplicate asset id '{id}'"),
            ScadaError::UnknownAsset { id } => write!(f, "unknown asset id '{id}'"),
            ScadaError::SiteCountMismatch {
                architecture,
                required,
                supplied,
            } => write!(
                f,
                "architecture '{architecture}' needs {required} control sites, got {supplied}"
            ),
            ScadaError::NotAControlSite { id } => {
                write!(f, "asset '{id}' cannot host SCADA masters")
            }
            ScadaError::Hydro(e) => write!(f, "hazard model error: {e}"),
        }
    }
}

impl std::error::Error for ScadaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScadaError::Hydro(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ct_hydro::HydroError> for ScadaError {
    fn from(e: ct_hydro::HydroError) -> Self {
        ScadaError::Hydro(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let errs = [
            ScadaError::DuplicateAsset { id: "x".into() },
            ScadaError::UnknownAsset { id: "y".into() },
            ScadaError::SiteCountMismatch {
                architecture: "6-6".into(),
                required: 2,
                supplied: 1,
            },
            ScadaError::NotAControlSite { id: "z".into() },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
