//! What a hazard model derives from the POI set it evaluates, kept
//! across the storms of a study.

use ct_hydro::{Poi, StationId};
use std::sync::OnceLock;

/// A value prepared from the first POI set a model evaluates, reused
/// for every later call that passes the same set. A call with another
/// set prepares its own value through the same function, so a stale
/// value is never used.
#[derive(Debug, Clone)]
pub(crate) struct PoiPrepared<T> {
    cell: OnceLock<(Vec<PoiSite>, T)>,
}

impl<T> Default for PoiPrepared<T> {
    fn default() -> Self {
        Self {
            cell: OnceLock::new(),
        }
    }
}

/// The parts of a POI that preparation reads, compared bitwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PoiSite {
    lat: u64,
    lon: u64,
    station_override: Option<StationId>,
}

impl PoiSite {
    fn of(poi: &Poi) -> Self {
        Self {
            lat: poi.pos.lat.to_bits(),
            lon: poi.pos.lon.to_bits(),
            station_override: poi.station_override,
        }
    }
}

impl<T> PoiPrepared<T> {
    /// `f` applied to `prepare(pois)`, which is computed once for the
    /// first set seen and kept.
    pub(crate) fn with<R>(
        &self,
        pois: &[Poi],
        prepare: impl Fn(&[Poi]) -> T,
        f: impl FnOnce(&T) -> R,
    ) -> R {
        let (sites, kept) = self
            .cell
            .get_or_init(|| (pois.iter().map(PoiSite::of).collect(), prepare(pois)));
        if sites.iter().copied().eq(pois.iter().map(PoiSite::of)) {
            f(kept)
        } else {
            f(&prepare(pois))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_geo::LatLon;
    use std::cell::Cell;

    fn poi(lat: f64) -> Poi {
        Poi::with_site_profile("p", LatLon::new(lat, -158.0), 3.0, 0.5)
    }

    #[test]
    fn the_first_set_is_kept_and_other_sets_prepare_their_own() {
        let prepared = PoiPrepared::default();
        let calls = Cell::new(0);
        let lats = |pois: &[Poi]| {
            calls.set(calls.get() + 1);
            pois.iter().map(|p| p.pos.lat).collect::<Vec<_>>()
        };
        let a = [poi(21.3), poi(21.4)];
        let b = [poi(21.3)];
        for _ in 0..3 {
            assert_eq!(prepared.with(&a, lats, Vec::clone), vec![21.3, 21.4]);
        }
        assert_eq!(calls.get(), 1);
        assert_eq!(prepared.with(&b, lats, Vec::clone), vec![21.3]);
        assert_eq!(prepared.with(&a, lats, Vec::clone), vec![21.3, 21.4]);
        assert_eq!(calls.get(), 2);
        // A changed station override is another set.
        let mut pinned = a.clone();
        pinned[0].station_override = Some(StationId::West);
        prepared.with(&pinned, lats, |_| ());
        assert_eq!(calls.get(), 3);
    }
}
