//! The compound combinator: several hazards acting on the same storm.

use crate::model::HazardModel;
use ct_hydro::{HydroError, Poi, Realization, StormParams};
use ct_store::StableHasher;

/// A hazard built from several component hazards evaluated against
/// the same storm, combined with per-asset **maximum** severity.
///
/// Because every component reports severity on the shared
/// threshold-comparable axis, `max` gives exact *union* failure
/// semantics: the compound fails an asset at threshold `t` iff any
/// component fails it at `t`. That matches the compound-threat
/// reading of simultaneous flood and wind damage — an asset is lost
/// if either channel takes it out.
///
/// Diagnostics: `tide_m` comes from the storm (identical across
/// components); `max_station_surge_m` is the max over components
/// (mixed units — diagnostics only, as each component defines).
#[derive(Debug)]
pub struct CompoundHazard {
    parts: Vec<Box<dyn HazardModel>>,
}

impl CompoundHazard {
    /// Combines `parts` (at least one) under union semantics.
    ///
    /// # Errors
    ///
    /// Returns [`HydroError::InvalidParameter`] for an empty part
    /// list.
    pub fn union(parts: Vec<Box<dyn HazardModel>>) -> Result<Self, HydroError> {
        if parts.is_empty() {
            return Err(HydroError::InvalidParameter {
                name: "compound hazard parts",
                value: 0.0,
            });
        }
        Ok(Self { parts })
    }
}

impl HazardModel for CompoundHazard {
    fn hazard_id(&self) -> String {
        let ids: Vec<String> = self.parts.iter().map(|p| p.hazard_id()).collect();
        format!("compound({})", ids.join("+"))
    }

    fn digest_params(&self, h: &mut StableHasher) {
        h.write_usize(self.parts.len());
        for part in &self.parts {
            h.write_str(&part.hazard_id());
            part.digest_params(h);
        }
    }

    fn evaluate(
        &self,
        index: usize,
        storm: &StormParams,
        pois: &[Poi],
    ) -> Result<Realization, HydroError> {
        static COMPONENT_EVALUATIONS: ct_obs::CachedCounter =
            ct_obs::CachedCounter::new(ct_obs::names::HAZARD_COMPOUND_COMPONENT_EVALUATIONS);
        let mut combined: Option<Realization> = None;
        for part in &self.parts {
            let r = part.evaluate(index, storm, pois)?;
            COMPONENT_EVALUATIONS.add(1);
            combined = Some(match combined {
                None => r,
                Some(mut acc) => {
                    for (a, b) in acc.inundation_m.iter_mut().zip(&r.inundation_m) {
                        *a = a.max(*b);
                    }
                    acc.max_station_surge_m = acc.max_station_surge_m.max(r.max_station_surge_m);
                    acc
                }
            });
        }
        Ok(combined.expect("union() guarantees at least one part"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A constant-severity stub hazard for combinator tests.
    #[derive(Debug)]
    struct Flat(f64, &'static str);

    impl HazardModel for Flat {
        fn hazard_id(&self) -> String {
            self.1.to_string()
        }
        fn digest_params(&self, h: &mut StableHasher) {
            h.write_f64(self.0);
        }
        fn evaluate(
            &self,
            index: usize,
            storm: &StormParams,
            pois: &[Poi],
        ) -> Result<Realization, HydroError> {
            Ok(Realization {
                index,
                tide_m: storm.tide_m,
                max_station_surge_m: self.0,
                inundation_m: pois.iter().map(|_| self.0).collect(),
            })
        }
    }

    fn storm() -> StormParams {
        use ct_geo::LatLon;
        StormParams {
            track: ct_hydro::StormTrack::straight(LatLon::new(19.2, -158.35), 5.0, 6.0, 48.0)
                .unwrap(),
            central_pressure_hpa: 966.0,
            ambient_pressure_hpa: 1010.0,
            rmax_km: 35.0,
            b: 1.6,
            tide_m: 0.1,
        }
    }

    fn pois() -> Vec<Poi> {
        use ct_geo::LatLon;
        vec![
            Poi::with_site_profile("a", LatLon::new(21.31, -157.86), 3.0, 0.5),
            Poi::with_site_profile("b", LatLon::new(21.36, -158.12), 60.0, 1.2),
        ]
    }

    #[test]
    fn empty_part_list_is_rejected() {
        assert!(CompoundHazard::union(vec![]).is_err());
    }

    #[test]
    fn union_takes_per_asset_max() {
        let c = CompoundHazard::union(vec![Box::new(Flat(0.2, "lo")), Box::new(Flat(0.9, "hi"))])
            .unwrap();
        let r = c.evaluate(0, &storm(), &pois()).unwrap();
        assert_eq!(r.inundation_m, vec![0.9, 0.9]);
        assert_eq!(r.max_station_surge_m, 0.9);
        assert_eq!(r.tide_m, 0.1);
    }

    #[test]
    fn id_and_digest_compose_from_parts() {
        let c = CompoundHazard::union(vec![Box::new(Flat(0.2, "lo")), Box::new(Flat(0.9, "hi"))])
            .unwrap();
        assert_eq!(c.hazard_id(), "compound(lo+hi)");
        let digest = |h: &dyn HazardModel| {
            let mut s = StableHasher::new();
            h.digest_params(&mut s);
            s.finish()
        };
        let reordered =
            CompoundHazard::union(vec![Box::new(Flat(0.9, "hi")), Box::new(Flat(0.2, "lo"))])
                .unwrap();
        assert_ne!(digest(&c), digest(&reordered), "part order is keyed");
    }
}
