//! Geospatial SCADA topologies.

use crate::asset::Asset;
use crate::error::ScadaError;
use ct_geo::Dem;
use ct_hydro::Poi;

/// A named collection of power assets — the geospatial SCADA topology
/// that feeds the analysis pipeline (Fig. 5, first input).
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    name: String,
    assets: Vec<Asset>,
}

impl Topology {
    /// Starts building a topology.
    pub(crate) fn builder(name: impl Into<String>) -> TopologyBuilder {
        TopologyBuilder {
            name: name.into(),
            assets: Vec::new(),
        }
    }

    /// All assets, in insertion order.
    pub fn assets(&self) -> &[Asset] {
        &self.assets
    }

    /// Looks up an asset by id.
    pub fn asset(&self, id: &str) -> Option<&Asset> {
        self.assets.iter().find(|a| a.id == id)
    }

    /// Assets that can host SCADA control sites.
    pub fn control_candidates(&self) -> Vec<&Asset> {
        self.assets
            .iter()
            .filter(|a| a.kind.can_host_control())
            .collect()
    }

    /// Converts every asset into a hazard-model point of interest,
    /// sampling ground elevation and shore distance from the DEM.
    ///
    /// # Errors
    ///
    /// Fails if any asset lies outside the DEM or in the sea — a
    /// topology/terrain mismatch that should be caught loudly.
    pub fn to_pois(&self, dem: &Dem) -> Result<Vec<Poi>, ScadaError> {
        self.assets
            .iter()
            .map(|a| Poi::from_dem(a.id.clone(), a.pos, dem).map_err(ScadaError::from))
            .collect()
    }
}

/// Builder for [`Topology`].
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    name: String,
    assets: Vec<Asset>,
}

impl TopologyBuilder {
    /// Adds an asset.
    pub(crate) fn asset(mut self, asset: Asset) -> Self {
        self.assets.push(asset);
        self
    }

    /// Finishes the topology.
    ///
    /// # Errors
    ///
    /// Returns [`ScadaError::DuplicateAsset`] when two assets share an
    /// id.
    pub(crate) fn build(self) -> Result<Topology, ScadaError> {
        for (i, a) in self.assets.iter().enumerate() {
            if self.assets[..i].iter().any(|b| b.id == a.id) {
                return Err(ScadaError::DuplicateAsset { id: a.id.clone() });
            }
        }
        Ok(Topology {
            name: self.name,
            assets: self.assets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asset::AssetKind;
    use ct_geo::LatLon;

    fn tiny() -> Topology {
        Topology::builder("tiny")
            .asset(Asset::new(
                "cc",
                "CC",
                AssetKind::ControlCenter,
                LatLon::new(21.307, -157.858),
            ))
            .asset(Asset::new(
                "sub",
                "Sub",
                AssetKind::Substation,
                LatLon::new(21.33, -157.86),
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn lookup_and_kinds() {
        let t = tiny();
        assert_eq!(t.name, "tiny");
        assert!(t.asset("cc").is_some());
        assert!(t.asset("nope").is_none());
        assert_eq!(t.assets()[1].kind, AssetKind::Substation);
        assert_eq!(t.control_candidates().len(), 1);
    }

    #[test]
    fn duplicate_ids_rejected() {
        let r = Topology::builder("dup")
            .asset(Asset::new(
                "x",
                "A",
                AssetKind::Substation,
                LatLon::new(21.3, -157.9),
            ))
            .asset(Asset::new(
                "x",
                "B",
                AssetKind::Substation,
                LatLon::new(21.4, -157.9),
            ))
            .build();
        assert!(matches!(r, Err(ScadaError::DuplicateAsset { .. })));
    }

    #[test]
    fn to_pois_samples_dem() {
        use ct_geo::terrain::{synthesize_oahu, OahuTerrainConfig};
        let dem = synthesize_oahu(&OahuTerrainConfig::default());
        let pois = tiny().to_pois(&dem).unwrap();
        assert_eq!(pois.len(), 2);
        assert_eq!(pois[0].id, "cc");
        assert!(pois[0].ground_elevation_m > 0.0);
    }
}
