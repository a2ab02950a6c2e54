//! The five SCADA architectures the paper evaluates (Sec. IV-A).

use crate::error::ScadaError;
use crate::topology::Topology;
use std::fmt;

/// A SCADA configuration, labelled as in the paper: the digits give
/// replicas per site, `-` marks a cold-backup site, `+` an active
/// replication site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// `2`: one control center, primary + hot-standby SCADA master.
    C2,
    /// `2-2`: primary control center plus a cold-backup control
    /// center.
    C2_2,
    /// `6`: one control center, 6-replica intrusion-tolerant
    /// replication (f = 1, k = 1).
    C6,
    /// `6-6`: intrusion-tolerant primary plus a cold-backup control
    /// center with 6 more replicas.
    C6_6,
    /// `6+6+6`: network-attack-resilient intrusion-tolerant
    /// replication: 18 active replicas across two control centers and
    /// a data center.
    C6P6P6,
}

impl Architecture {
    /// All five configurations, in the paper's order.
    pub const ALL: [Architecture; 5] = [
        Architecture::C2,
        Architecture::C2_2,
        Architecture::C6,
        Architecture::C6_6,
        Architecture::C6P6P6,
    ];

    /// The paper's label.
    pub fn label(self) -> &'static str {
        match self {
            Architecture::C2 => "2",
            Architecture::C2_2 => "2-2",
            Architecture::C6 => "6",
            Architecture::C6_6 => "6-6",
            Architecture::C6P6P6 => "6+6+6",
        }
    }

    /// Control sites the architecture occupies (primary, then backup,
    /// then data center).
    pub fn site_count(self) -> usize {
        match self {
            Architecture::C2 | Architecture::C6 => 1,
            Architecture::C2_2 | Architecture::C6_6 => 2,
            Architecture::C6P6P6 => 3,
        }
    }

    /// SCADA masters/replicas per site.
    pub fn replicas_per_site(self) -> usize {
        match self {
            Architecture::C2 | Architecture::C2_2 => 2,
            _ => 6,
        }
    }

    /// Server intrusions each active replica group tolerates while
    /// remaining correct (`f`).
    pub(crate) fn intrusion_tolerance(self) -> usize {
        match self {
            Architecture::C2 | Architecture::C2_2 => 0,
            _ => 1,
        }
    }

    /// Intrusions needed to compromise safety (Table I's gray
    /// threshold): `f + 1`.
    pub fn gray_threshold(self) -> usize {
        self.intrusion_tolerance() + 1
    }

    /// Whether all sites actively replicate (config `6+6+6`).
    pub(crate) fn is_active_active(self) -> bool {
        matches!(self, Architecture::C6P6P6)
    }

    /// Sites that must be simultaneously functional for uninterrupted
    /// operation.
    pub fn min_sites_for_green(self) -> usize {
        if self.is_active_active() {
            2
        } else {
            1
        }
    }

    /// Parses a paper label.
    pub fn from_label(label: &str) -> Option<Architecture> {
        Architecture::ALL.into_iter().find(|a| a.label() == label)
    }
}

impl fmt::Display for Architecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{}\"", self.label())
    }
}

/// A concrete siting of an architecture on a topology: which asset
/// hosts each control site, primary first.
#[derive(Debug, Clone, PartialEq)]
pub struct SitePlan {
    architecture: Architecture,
    site_asset_ids: Vec<String>,
}

impl SitePlan {
    /// Creates a plan, validating the site count and that each asset
    /// exists in `topology` and can host control equipment.
    ///
    /// # Errors
    ///
    /// Returns [`ScadaError::SiteCountMismatch`],
    /// [`ScadaError::UnknownAsset`] or [`ScadaError::NotAControlSite`].
    pub fn new(
        architecture: Architecture,
        topology: &Topology,
        site_asset_ids: Vec<String>,
    ) -> Result<Self, ScadaError> {
        if site_asset_ids.len() != architecture.site_count() {
            return Err(ScadaError::SiteCountMismatch {
                architecture: architecture.label().to_string(),
                required: architecture.site_count(),
                supplied: site_asset_ids.len(),
            });
        }
        for id in &site_asset_ids {
            let asset = topology
                .asset(id)
                .ok_or_else(|| ScadaError::UnknownAsset { id: id.clone() })?;
            if !asset.kind.can_host_control() {
                return Err(ScadaError::NotAControlSite { id: id.clone() });
            }
        }
        Ok(Self {
            architecture,
            site_asset_ids,
        })
    }

    /// The architecture being sited.
    pub fn architecture(&self) -> Architecture {
        self.architecture
    }

    /// Asset ids per control site, primary first.
    pub fn site_asset_ids(&self) -> &[String] {
        &self.site_asset_ids
    }

    /// The primary control center's asset id.
    pub fn primary(&self) -> &str {
        &self.site_asset_ids[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asset::{Asset, AssetKind};
    use ct_geo::LatLon;

    fn topo() -> Topology {
        Topology::builder("t")
            .asset(Asset::new(
                "cc",
                "CC",
                AssetKind::ControlCenter,
                LatLon::new(21.31, -157.86),
            ))
            .asset(Asset::new(
                "dc",
                "DC",
                AssetKind::DataCenter,
                LatLon::new(21.32, -157.87),
            ))
            .asset(Asset::new(
                "pp",
                "PP",
                AssetKind::PowerPlant,
                LatLon::new(21.39, -157.95),
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
    fn structural_properties_match_the_paper() {
        use Architecture::*;
        assert_eq!(C2.site_count(), 1);
        assert_eq!(C2_2.site_count(), 2);
        assert_eq!(C6P6P6.site_count(), 3);
        assert_eq!(C2.replicas_per_site(), 2);
        assert_eq!(C6_6.replicas_per_site(), 6);
        assert_eq!(C2.gray_threshold(), 1);
        assert_eq!(C6.gray_threshold(), 2);
        assert_eq!(C6P6P6.min_sites_for_green(), 2);
        assert_eq!(C2.min_sites_for_green(), 1);
    }

    #[test]
    fn labels_round_trip() {
        for a in Architecture::ALL {
            assert_eq!(Architecture::from_label(a.label()), Some(a));
        }
        assert_eq!(Architecture::from_label("9"), None);
        assert_eq!(Architecture::C6P6P6.to_string(), "\"6+6+6\"");
    }

    #[test]
    fn site_plan_validation() {
        let t = topo();
        assert!(SitePlan::new(Architecture::C2, &t, vec!["cc".into()]).is_ok());
        // Wrong count.
        assert!(matches!(
            SitePlan::new(Architecture::C2_2, &t, vec!["cc".into()]),
            Err(ScadaError::SiteCountMismatch { .. })
        ));
        // Unknown asset.
        assert!(matches!(
            SitePlan::new(Architecture::C2, &t, vec!["zzz".into()]),
            Err(ScadaError::UnknownAsset { .. })
        ));
        // Substations can't host masters.
        assert!(matches!(
            SitePlan::new(Architecture::C2, &t, vec!["sub".into()]),
            Err(ScadaError::NotAControlSite { .. })
        ));
    }

    #[test]
    fn site_plan_accessors() {
        let t = topo();
        let p = SitePlan::new(
            Architecture::C6P6P6,
            &t,
            vec!["cc".into(), "pp".into(), "dc".into()],
        )
        .unwrap();
        assert_eq!(p.primary(), "cc");
        assert_eq!(p.site_asset_ids()[1], "pp");
        assert_eq!(p.architecture(), Architecture::C6P6P6);
    }
}
