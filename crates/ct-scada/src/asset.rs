//! Power-grid assets.

use ct_geo::LatLon;
use std::fmt;

/// What a power asset is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssetKind {
    /// A SCADA control center.
    ControlCenter,
    /// A commercial data center (can host additional replicas, as in
    /// config `6+6+6`).
    DataCenter,
    /// A generation site.
    PowerPlant,
    /// A transmission/distribution substation.
    Substation,
}

impl AssetKind {
    /// Whether SCADA masters/replicas can be hosted here.
    pub(crate) fn can_host_control(self) -> bool {
        matches!(
            self,
            AssetKind::ControlCenter | AssetKind::DataCenter | AssetKind::PowerPlant
        )
    }
}

impl fmt::Display for AssetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AssetKind::ControlCenter => "control center",
            AssetKind::DataCenter => "data center",
            AssetKind::PowerPlant => "power plant",
            AssetKind::Substation => "substation",
        };
        f.write_str(s)
    }
}

/// A geolocated power asset.
#[derive(Debug, Clone, PartialEq)]
pub struct Asset {
    /// Stable identifier, unique within a topology.
    pub id: String,
    /// Human-readable name.
    pub name: String,
    /// Asset class.
    pub(crate) kind: AssetKind,
    /// Geographic position.
    pub pos: LatLon,
}

impl Asset {
    /// Creates an asset.
    pub fn new(
        id: impl Into<String>,
        name: impl Into<String>,
        kind: AssetKind,
        pos: LatLon,
    ) -> Self {
        Self {
            id: id.into(),
            name: name.into(),
            kind,
            pos,
        }
    }
}

impl fmt::Display for Asset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}, {})", self.name, self.kind, self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hosting_rules() {
        assert!(AssetKind::ControlCenter.can_host_control());
        assert!(AssetKind::DataCenter.can_host_control());
        assert!(AssetKind::PowerPlant.can_host_control());
        assert!(!AssetKind::Substation.can_host_control());
    }

    #[test]
    fn display() {
        let a = Asset::new(
            "cc",
            "Honolulu CC",
            AssetKind::ControlCenter,
            LatLon::new(21.307, -157.858),
        );
        let s = a.to_string();
        assert!(s.contains("Honolulu CC") && s.contains("control center"));
    }
}
