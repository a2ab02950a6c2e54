//! Content addresses and binary codecs for cached pipeline artifacts.
//!
//! The artifact store ([`ct_store`]) holds per-realization inundation
//! outcomes, per-plan flood-pattern histograms and the sites record:
//! the POIs and coastal stations the pipeline measures on the
//! synthesized DEM. Everything here is
//! about *addressing* those records correctly: a record's key is a
//! stable hash of every input that can change its value — the full
//! case-study configuration, the terrain spec, the storm-ensemble
//! parameters, the tracked POI set, and the kernel versions of the
//! numerics — so a stale artifact can never be mistaken for a current
//! one. Anything that does *not* change a record's value (worker
//! thread count, flood threshold applied after evaluation, and the
//! ensemble *size*, since realization `i` depends only on the seed and
//! `i`) is deliberately excluded, which is what lets a 1000-realization
//! sweep reuse the records of an earlier 100-realization run.
//!
//! Payload codecs are hand-rolled little-endian (the workspace's
//! zero-serializer policy); decoders return `None` on any shape
//! mismatch so callers degrade to recompute-and-rewrite.

use crate::pipeline::CaseStudyConfig;
use ct_geo::terrain::oahu_region_spec;
use ct_geo::{Dem, LatLon, RegionTerrainSpec};
use ct_hazard::HazardModel;
use ct_hydro::{Poi, Realization, Station, StationId, Stations};
use ct_scada::{SitePlan, Topology};
use ct_store::{Digest, StableHasher};
use ct_threat::PostDisasterState;

/// Version of the evaluation pipeline semantics baked into every
/// content address. Bump whenever the meaning of a cached record
/// changes (e.g. a different inundation formula) without a config
/// change; every existing record is then invisible, not wrong.
///
/// v2: records are per-hazard — the base key carries the hazard id,
/// its parameter digest, and [`ct_hazard::HAZARD_KERNEL_VERSION`], and
/// realization payloads are tagged with the hazard id. Pre-hazard (v1)
/// stores therefore read as cold, never as aliased surge hits.
///
/// v3: the base key carries the ensemble's `anchor_lat` and, ahead of
/// the terrain fields, the literal region name `"oahu"` and region
/// index 0. v2 stores therefore read as cold misses. The pipeline now
/// runs Oahu only, and v3 keys still hash that name and index, so
/// every v3 record stays addressable without a version bump.
///
/// v4: the base key hashes the terrain spec's `dem_key` where it
/// hashed every DEM cell, and the surge hazard's parameter digest
/// covers its stations. Builds read the [`sites_key`] record instead
/// of a DEM record. v3 stores read as cold misses.
pub(crate) const PIPELINE_KERNEL_VERSION: u32 = 4;

/// The run-level base address: a stable hash of the case-study
/// configuration, the terrain spec's `dem_key`, the storm-ensemble
/// parameters, the tracked POI set, the hazard engine (id + its full
/// parameter digest), and the kernel versions.
///
/// Excluded on purpose: `threads` (does not affect values) and
/// `ensemble.realizations` (realization `i` is a function of the seed
/// and `i` alone, so runs of different sizes share records). The surge
/// calibration and stations are *not* hashed here: they are inputs of
/// the surge hazard, so they enter through
/// [`HazardModel::digest_params`] exactly when the selected hazard
/// actually uses them. What the DEM feeds a run is covered twice: by
/// the spec it is synthesized from and by the POIs and hazard digest
/// measured on it.
pub fn base_key(config: &CaseStudyConfig, pois: &[Poi], hazard: &dyn HazardModel) -> Digest {
    let mut h = StableHasher::new();
    h.write_str("compound-threats/ensemble");
    h.write_u32(PIPELINE_KERNEL_VERSION);
    h.write_u32(ct_hydro::HYDRO_KERNEL_VERSION);
    h.write_u32(ct_hazard::HAZARD_KERNEL_VERSION);

    // Region name and index, fixed since the pipeline runs Oahu only
    // (see `PIPELINE_KERNEL_VERSION`).
    h.write_str("oahu");
    h.write_usize(0);

    let t = &config.terrain;
    h.write_u64(t.seed);
    h.write_f64(t.cell_km);
    h.write_f64(t.noise_amp_m);

    h.update(&dem_key(&oahu_region_spec(t)).0);

    let e = &config.ensemble;
    h.write_u64(e.seed);
    h.write_str(&format!("{:?}", e.category));
    h.write_f64(e.ambient_pressure_hpa);
    h.write_f64(e.base_passing_lon);
    h.write_f64(e.anchor_lat);
    h.write_f64(e.cross_track_mean_km);
    h.write_f64(e.cross_track_sd_km);
    h.write_f64(e.heading_mean_deg);
    h.write_f64(e.heading_sd_deg);

    h.write_str(&hazard.hazard_id());
    hazard.digest_params(&mut h);

    h.write_usize(pois.len());
    for poi in pois {
        h.write_str(&poi.id);
        h.write_f64(poi.pos.lat);
        h.write_f64(poi.pos.lon);
        h.write_f64(poi.ground_elevation_m);
        h.write_f64(poi.shore_distance_km);
        match poi.station_override {
            None => h.write_str("nearest"),
            Some(id) => h.write_str(&format!("{id:?}")),
        }
    }
    h.finish()
}

/// [`base_key`]; the DEM is no longer hashed.
#[deprecated(note = "use `artifact::base_key`, which needs no DEM")]
pub fn ensemble_base_key(
    config: &CaseStudyConfig,
    _dem: &Dem,
    pois: &[Poi],
    hazard: &dyn HazardModel,
) -> Digest {
    base_key(config, pois, hazard)
}

/// The digest of a DEM alone, under the exact recipe the base key
/// uses. The Oahu preset's digest is pinned in tests and CI so any
/// drift in the named terrain (which would silently re-key every
/// cached artifact) fails loudly.
pub fn dem_digest(dem: &Dem) -> Digest {
    let mut h = StableHasher::new();
    hash_dem(&mut h, dem);
    h.finish()
}

fn hash_dem(h: &mut StableHasher, dem: &Dem) {
    let grid = dem.elevation_grid();
    h.write_usize(grid.cols());
    h.write_usize(grid.rows());
    h.write_f64(grid.origin().east);
    h.write_f64(grid.origin().north);
    h.write_f64(grid.cell_km());
    h.write_f64_slice(grid.as_slice());
    let origin = dem.projection().origin();
    h.write_f64(origin.lat);
    h.write_f64(origin.lon);
}

/// The terrain spec's digest: a stable hash of
/// [`ct_geo::TERRAIN_KERNEL_VERSION`] and every field of the spec,
/// which together fix the synthesized DEM cell for cell. Hazard,
/// ensemble, realization count and threads are left out because the
/// DEM depends on none of them. It stands for the DEM in every
/// [`base_key`] and under the [`sites_key`].
pub(crate) fn dem_key(spec: &RegionTerrainSpec) -> Digest {
    // Destructured so a new spec field cannot be left out of the key.
    let RegionTerrainSpec {
        name,
        origin,
        outline,
        inland_waters,
        ridges,
        sectors,
        sector_rules,
        fallback_sector,
        domain_origin,
        extent_km,
        seed,
        cell_km,
        noise_amp_m,
    } = spec;
    let mut h = StableHasher::new();
    h.write_str("compound-threats/dem");
    h.write_u32(ct_geo::TERRAIN_KERNEL_VERSION);
    h.write_str(name);
    hash_latlon(&mut h, *origin);
    hash_ring(&mut h, outline);
    h.write_usize(inland_waters.len());
    for water in inland_waters {
        hash_ring(&mut h, water);
    }
    h.write_usize(ridges.len());
    for ct_geo::RidgeSpec {
        a,
        b,
        height_m,
        width_km,
    } in ridges
    {
        hash_latlon(&mut h, *a);
        hash_latlon(&mut h, *b);
        h.write_f64(*height_m);
        h.write_f64(*width_km);
    }
    h.write_usize(sectors.len());
    for ct_geo::CoastSector {
        terrain_slope_m_per_km,
        shelf_slope_m_per_km,
    } in sectors
    {
        h.write_f64(*terrain_slope_m_per_km);
        h.write_f64(*shelf_slope_m_per_km);
    }
    h.write_usize(sector_rules.len());
    for ct_geo::SectorRule {
        max_east,
        max_north,
        min_north,
        sector,
    } in sector_rules
    {
        for bound in [max_east, max_north, min_north] {
            match bound {
                None => h.write_u8(0),
                Some(v) => {
                    h.write_u8(1);
                    h.write_f64(*v);
                }
            }
        }
        h.write_usize(*sector);
    }
    h.write_usize(*fallback_sector);
    h.write_f64(domain_origin.east);
    h.write_f64(domain_origin.north);
    h.write_f64(extent_km.0);
    h.write_f64(extent_km.1);
    h.write_u64(*seed);
    h.write_f64(*cell_km);
    h.write_f64(*noise_amp_m);
    h.finish()
}

fn hash_latlon(h: &mut StableHasher, p: LatLon) {
    h.write_f64(p.lat);
    h.write_f64(p.lon);
}

fn hash_ring(h: &mut StableHasher, ring: &[LatLon]) {
    h.write_usize(ring.len());
    for &p in ring {
        hash_latlon(h, p);
    }
}

/// The address of the sites record ([`encode_sites`]): the terrain
/// spec's `dem_key` plus the pipeline and hydro kernel versions,
/// since the record holds what the pipeline (the POIs) and the hydro
/// kernel (the stations' shelf factors) measure on the DEM. Every
/// hazard run over the same terrain shares one record.
pub fn sites_key(spec: &RegionTerrainSpec) -> Digest {
    let mut h = StableHasher::new();
    h.write_str("compound-threats/sites");
    h.write_u32(PIPELINE_KERNEL_VERSION);
    h.write_u32(ct_hydro::HYDRO_KERNEL_VERSION);
    h.update(&dem_key(spec).0);
    h.finish()
}

/// The address of one realization's inundation record.
pub fn realization_key(base: &Digest, index: usize) -> Digest {
    base.derive(&format!("realization/{index}"))
}

/// The address of a site plan's flood-pattern histogram. Unlike the
/// realization records, a histogram aggregates over the whole
/// ensemble, so its address also pins the ensemble size and the flood
/// threshold it was folded with.
pub fn plan_histogram_key(
    base: &Digest,
    realizations: usize,
    threshold_m: f64,
    plan: &SitePlan,
) -> Digest {
    let mut h = StableHasher::new();
    h.update(&base.0);
    h.write_str("plan-histogram");
    h.write_usize(realizations);
    h.write_f64(threshold_m);
    h.write_str(plan.architecture().label());
    h.write_usize(plan.site_asset_ids().len());
    for id in plan.site_asset_ids() {
        h.write_str(id);
    }
    h.finish()
}

/// Encodes a realization record payload:
/// `id_len u64 | hazard_id bytes | index u64 | tide f64 | max_surge f64
/// | n u64 | inundation f64×n`
/// (all little-endian, `f64` by bit pattern — bit-exact round trip).
/// The hazard-id tag is defense in depth on top of the hazard-keyed
/// address: even a key-derivation bug cannot surface a surge record in
/// a wind run, because the decoder rejects the mismatched tag.
pub fn encode_realization(r: &Realization, hazard_id: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(40 + hazard_id.len() + 8 * r.inundation_m.len());
    out.extend_from_slice(&(hazard_id.len() as u64).to_le_bytes());
    out.extend_from_slice(hazard_id.as_bytes());
    out.extend_from_slice(&(r.index as u64).to_le_bytes());
    out.extend_from_slice(&r.tide_m.to_bits().to_le_bytes());
    out.extend_from_slice(&r.max_station_surge_m.to_bits().to_le_bytes());
    out.extend_from_slice(&(r.inundation_m.len() as u64).to_le_bytes());
    for &d in &r.inundation_m {
        out.extend_from_slice(&d.to_bits().to_le_bytes());
    }
    out
}

/// Decodes a realization record. `expected_pois` guards against a
/// record addressed correctly but written against a different POI
/// arity, and `expected_hazard_id` against a record produced by a
/// different hazard engine (either only possible via a key-derivation
/// bug — still, never let it reach the analysis). Returns `None` on
/// any mismatch.
pub fn decode_realization(
    bytes: &[u8],
    expected_pois: usize,
    expected_hazard_id: &str,
) -> Option<Realization> {
    let mut r = Reader::new(bytes);
    let id_len = usize::try_from(r.u64()?).ok()?;
    if r.take(id_len)? != expected_hazard_id.as_bytes() {
        return None;
    }
    let index = usize::try_from(r.u64()?).ok()?;
    let tide_m = r.f64()?;
    let max_station_surge_m = r.f64()?;
    let n = usize::try_from(r.u64()?).ok()?;
    if n != expected_pois {
        return None;
    }
    let mut inundation_m = Vec::with_capacity(n);
    for _ in 0..n {
        inundation_m.push(r.f64()?);
    }
    r.finish()?;
    Some(Realization {
        index,
        tide_m,
        max_station_surge_m,
        inundation_m,
    })
}

/// Encodes a flood-pattern histogram payload:
/// `n_entries u64 | (sites u64 | flag u8×sites | count u64)×n`.
pub(crate) fn encode_histogram(hist: &[(PostDisasterState, usize)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(hist.len() as u64).to_le_bytes());
    for (state, count) in hist {
        let flags = state.flooded();
        out.extend_from_slice(&(flags.len() as u64).to_le_bytes());
        out.extend(flags.iter().map(|&f| u8::from(f)));
        out.extend_from_slice(&(*count as u64).to_le_bytes());
    }
    out
}

/// Decodes a flood-pattern histogram for an architecture with
/// `site_count` control sites. Returns `None` on any shape mismatch.
pub fn decode_histogram(
    bytes: &[u8],
    architecture: ct_scada::Architecture,
) -> Option<Vec<(PostDisasterState, usize)>> {
    let site_count = architecture.site_count();
    let mut r = Reader::new(bytes);
    let n = usize::try_from(r.u64()?).ok()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let sites = usize::try_from(r.u64()?).ok()?;
        if sites != site_count {
            return None;
        }
        let mut flags = Vec::with_capacity(sites);
        for _ in 0..sites {
            flags.push(match r.u8()? {
                0 => false,
                1 => true,
                _ => return None,
            });
        }
        let count = usize::try_from(r.u64()?).ok()?;
        out.push((PostDisasterState::new(architecture, flags), count));
    }
    r.finish()?;
    Some(out)
}

/// Encodes the sites record payload: the case-study POIs and the
/// surge stations, the only inputs a build measures on the DEM.
/// `n u64 | (id_len u64 | id bytes | lat f64 | lon f64 | elevation
/// f64 | shore_km f64 | override u8)×n | m u64 | (id u8 | lat f64 |
/// lon f64 | onshore_bearing f64 | shelf_factor f64)×m | harbor
/// amplification f64` (little-endian, `f64` by bit pattern). A
/// station is stored as its position in [`StationId::ALL`]; an
/// override as that position plus one, 0 meaning none.
pub fn encode_sites(pois: &[Poi], stations: &Stations) -> Vec<u8> {
    let mut out = (pois.len() as u64).to_le_bytes().to_vec();
    for p in pois {
        out.extend_from_slice(&(p.id.len() as u64).to_le_bytes());
        out.extend_from_slice(p.id.as_bytes());
        let pos = p.pos;
        for v in [pos.lat, pos.lon, p.ground_elevation_m, p.shore_distance_km] {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        out.push(p.station_override.map_or(0, |id| station_code(id) + 1));
    }
    out.extend_from_slice(&(stations.iter().count() as u64).to_le_bytes());
    for st in stations.iter() {
        out.push(station_code(st.id));
        let (pos, bearing) = (st.pos, st.onshore_bearing_deg);
        for v in [pos.lat, pos.lon, bearing, st.shelf_factor] {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    out.extend_from_slice(&stations.harbor_amplification.to_bits().to_le_bytes());
    out
}

/// Decodes the sites record. Returns `None` unless it holds one POI
/// per asset of `topology`, in order, each with that asset's id and
/// position (so a record measured for another topology never reaches
/// the analysis), and every station exactly once.
pub fn decode_sites(bytes: &[u8], topology: &Topology) -> Option<(Vec<Poi>, Stations)> {
    let mut r = Reader::new(bytes);
    let assets = topology.assets();
    if usize::try_from(r.u64()?).ok()? != assets.len() {
        return None;
    }
    let mut pois = Vec::with_capacity(assets.len());
    for asset in assets {
        let id_len = usize::try_from(r.u64()?).ok()?;
        let same_site = r.take(id_len)? == asset.id.as_bytes() && r.latlon()? == asset.pos;
        if !same_site {
            return None;
        }
        pois.push(Poi {
            id: asset.id.clone(),
            pos: asset.pos,
            ground_elevation_m: r.f64()?,
            shore_distance_km: r.f64()?,
            station_override: match r.u8()? {
                0 => None,
                code => Some(station_id(code - 1)?),
            },
        });
    }
    if r.u64()? != StationId::ALL.len() as u64 {
        return None;
    }
    let mut stations = Vec::with_capacity(StationId::ALL.len());
    for _ in StationId::ALL {
        stations.push(Station {
            id: station_id(r.u8()?)?,
            pos: r.latlon()?,
            onshore_bearing_deg: r.f64()?,
            shelf_factor: r.f64()?,
        });
    }
    let harbor_amplification = r.f64()?;
    r.finish()?;
    Some((pois, Stations::from_parts(stations, harbor_amplification)?))
}

/// A station's position in [`StationId::ALL`], its code in the sites
/// record.
fn station_code(id: StationId) -> u8 {
    StationId::ALL
        .iter()
        .position(|&s| s == id)
        .expect("every id is in ALL") as u8
}

fn station_id(code: u8) -> Option<StationId> {
    StationId::ALL.get(usize::from(code)).copied()
}

/// A bounds-checked little-endian cursor; every read is `Option` so
/// malformed payloads fall out as `None` instead of panicking.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    /// Latitude then longitude. Not [`LatLon::new`], whose range
    /// checks would panic on a malformed payload in debug builds.
    fn latlon(&mut self) -> Option<LatLon> {
        Some(LatLon {
            lat: self.f64()?,
            lon: self.f64()?,
        })
    }

    /// Succeeds only when the payload was consumed exactly.
    fn finish(&self) -> Option<()> {
        (self.pos == self.bytes.len()).then_some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_geo::terrain::synthesize_oahu;
    use ct_hazard::HazardSpec;
    use ct_scada::{oahu, Architecture};

    /// The default study's configuration, DEM, POIs and stations.
    fn study_inputs() -> (CaseStudyConfig, Dem, Vec<Poi>, Stations) {
        let config = CaseStudyConfig::default();
        let dem = synthesize_oahu(&config.terrain);
        let pois = oahu::case_study_pois(&dem).unwrap();
        let stations = Stations::from_dem(&dem);
        (config, dem, pois, stations)
    }

    /// The base key of `config` over `pois` and `stations`.
    fn key(config: &CaseStudyConfig, pois: &[Poi], stations: &Stations) -> Digest {
        let hazard = config.hazard.build(stations, config.calibration);
        base_key(config, pois, hazard.as_ref())
    }

    #[test]
    fn base_key_is_deterministic_and_input_sensitive() {
        let (config, _, pois, stations) = study_inputs();
        let key_of = |c: &CaseStudyConfig| key(c, &pois, &stations);
        let a = key_of(&config);
        assert_eq!(key_of(&config), a);

        let mut seeded = config.clone();
        seeded.ensemble.seed += 1;
        assert_ne!(key_of(&seeded), a);

        // Surge calibration enters via the surge hazard's param digest.
        let mut calibrated = config.clone();
        calibrated.calibration.ib_m_per_hpa *= 2.0;
        assert_ne!(key_of(&calibrated), a);

        // The terrain enters through its spec's digest.
        let mut reseeded = config.clone();
        reseeded.terrain.seed += 1;
        assert_ne!(key_of(&reseeded), a);
    }

    /// The deprecated shim ignores its DEM and gives the live key.
    #[test]
    #[allow(deprecated)]
    fn the_dem_taking_shim_forwards_to_the_base_key() {
        let (config, dem, pois, stations) = study_inputs();
        let hazard = config.hazard.build_model(&dem, config.calibration);
        assert_eq!(
            ensemble_base_key(&config, &dem, &pois, hazard.as_ref()),
            key(&config, &pois, &stations)
        );
    }

    #[test]
    fn base_key_ignores_size_and_threads() {
        let (config, _, pois, stations) = study_inputs();
        let a = key(&config, &pois, &stations);
        let mut other = config.clone();
        other.ensemble.realizations = 7;
        other.threads = 3;
        assert_eq!(
            key(&other, &pois, &stations),
            a,
            "size/threads must not invalidate records"
        );
    }

    #[test]
    fn base_key_separates_hazards() {
        let (config, _, pois, stations) = study_inputs();
        let key_of = |c: &CaseStudyConfig| key(c, &pois, &stations);
        let mut keys = Vec::new();
        for hazard in HazardSpec::ALL {
            let mut c = config.clone();
            c.hazard = hazard;
            keys.push(key_of(&c));
        }
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                assert_ne!(
                    keys[i],
                    keys[j],
                    "{} and {} must not share records",
                    HazardSpec::ALL[i],
                    HazardSpec::ALL[j]
                );
            }
        }
        // Wind runs ignore the surge calibration, so calibration must
        // not churn their keys.
        let mut wind = config.clone();
        wind.hazard = HazardSpec::Wind;
        let wind_key = key_of(&wind);
        let mut recalibrated = wind.clone();
        recalibrated.calibration.ib_m_per_hpa *= 2.0;
        assert_eq!(key_of(&recalibrated), wind_key);
    }

    /// Regression for four store migrations, each reconstructed and
    /// shown not to collide with any current key:
    /// - pipeline v2: the pre-hazard v1 recipe (calibration hashed
    ///   inline, no hazard version, id or digest), so records written
    ///   before the hazard engine never read as aliased surge hits;
    /// - pipeline v3: the v2 recipe (no region name/index, no anchor
    ///   latitude), so older records read as cold misses, never as
    ///   aliased hits;
    /// - the in-tree generator: the v3 recipe under
    ///   `HYDRO_KERNEL_VERSION = 1`, whose storms came from whichever
    ///   `rand` was linked, so those records never alias storms of the
    ///   `ct-rand` stream;
    /// - pipeline v4: the v3 recipe, which hashed every DEM cell.
    ///
    /// The same recipe at today's versions must equal the live key,
    /// which shows the reconstruction is verbatim. (The hazard digest
    /// is today's in v2 and v3; before v4 the surge digest left the
    /// stations out, which only separates the keys further.)
    #[test]
    fn older_store_keys_are_invisible_not_aliased() {
        fn recipe(
            c: &CaseStudyConfig,
            dem: &Dem,
            pois: &[Poi],
            hazard: &dyn HazardModel,
            (pipeline, hydro): (u32, u32),
        ) -> Digest {
            let mut h = StableHasher::new();
            h.write_str("compound-threats/ensemble");
            h.write_u32(pipeline);
            h.write_u32(hydro);
            if pipeline >= 2 {
                h.write_u32(ct_hazard::HAZARD_KERNEL_VERSION);
            }
            if pipeline >= 3 {
                h.write_str("oahu");
                h.write_usize(0);
            }
            let t = &c.terrain;
            h.write_u64(t.seed);
            h.write_f64(t.cell_km);
            h.write_f64(t.noise_amp_m);
            if pipeline >= 4 {
                h.update(&dem_key(&oahu_region_spec(t)).0);
            } else {
                hash_dem(&mut h, dem);
            }
            let e = &c.ensemble;
            h.write_u64(e.seed);
            h.write_str(&format!("{:?}", e.category));
            h.write_f64(e.ambient_pressure_hpa);
            h.write_f64(e.base_passing_lon);
            if pipeline >= 3 {
                h.write_f64(e.anchor_lat);
            }
            h.write_f64(e.cross_track_mean_km);
            h.write_f64(e.cross_track_sd_km);
            h.write_f64(e.heading_mean_deg);
            h.write_f64(e.heading_sd_deg);
            if pipeline >= 2 {
                h.write_str(&hazard.hazard_id());
                hazard.digest_params(&mut h);
            } else {
                let cal = &c.calibration;
                h.write_f64(cal.setup_coefficient);
                h.write_f64(cal.ib_m_per_hpa);
                h.write_f64(cal.ib_decay_km);
                h.write_f64(cal.wave_setup_fraction);
                h.write_f64(cal.attenuation_m_per_km);
                h.write_f64(cal.scan_step_hours);
            }
            h.write_usize(pois.len());
            for poi in pois {
                h.write_str(&poi.id);
                h.write_f64(poi.pos.lat);
                h.write_f64(poi.pos.lon);
                h.write_f64(poi.ground_elevation_m);
                h.write_f64(poi.shore_distance_km);
                match poi.station_override {
                    None => h.write_str("nearest"),
                    Some(id) => h.write_str(&format!("{id:?}")),
                }
            }
            h.finish()
        }

        let (config, dem, pois, stations) = study_inputs();
        for hazard_spec in HazardSpec::ALL {
            let mut c = config.clone();
            c.hazard = hazard_spec;
            let hazard = c.hazard.build(&stations, c.calibration);
            let live = key(&c, &pois, &stations);
            let current = (PIPELINE_KERNEL_VERSION, ct_hydro::HYDRO_KERNEL_VERSION);
            assert_eq!(recipe(&c, &dem, &pois, hazard.as_ref(), current), live);
            for (era, versions) in [
                ("pre-hazard", (1, 1)),
                ("single-region", (2, 1)),
                ("linked-rand", (3, 1)),
                ("dem-hashed", (3, 2)),
            ] {
                assert_ne!(
                    recipe(&c, &dem, &pois, hazard.as_ref(), versions),
                    live,
                    "a {era} store must read as a miss under {hazard_spec}"
                );
            }
        }
    }

    /// The Oahu preset's DEM digest, pinned. A change here means the
    /// named terrain drifted — every cached artifact silently re-keys —
    /// so it must be an explicit, reviewed decision.
    ///
    /// The terrain kernel version is pinned beside it: the two change
    /// together. A synthesis change that moves the digest must also
    /// bump `TERRAIN_KERNEL_VERSION`, or stores would keep serving the
    /// old sites record and realizations under the unchanged spec
    /// key.
    #[test]
    fn oahu_dem_digest_is_pinned() {
        let (_, dem, _, _) = study_inputs();
        assert_eq!(
            dem_digest(&dem).to_hex(),
            "bdb63530bd71b6d1aa8bdc3951c7b858",
            "Oahu preset DEM drifted — this invalidates every cached artifact"
        );
        assert_eq!(ct_geo::TERRAIN_KERNEL_VERSION, 1);
        let grid = dem.elevation_grid();
        assert_eq!((grid.cols(), grid.rows()), (184, 156));
    }

    #[test]
    fn realization_keys_are_distinct_per_index() {
        let (config, _, pois, stations) = study_inputs();
        let base = key(&config, &pois, &stations);
        assert_ne!(realization_key(&base, 0), realization_key(&base, 1));
    }

    #[test]
    fn realization_codec_round_trips_bit_exactly() {
        let r = Realization {
            index: 17,
            tide_m: -0.0,
            max_station_surge_m: 2.5000000000000004,
            inundation_m: vec![0.0, 1.5, f64::MIN_POSITIVE, 3.75],
        };
        let decoded = decode_realization(&encode_realization(&r, "surge"), 4, "surge").unwrap();
        assert_eq!(decoded.index, r.index);
        assert_eq!(decoded.tide_m.to_bits(), r.tide_m.to_bits());
        assert_eq!(
            decoded.max_station_surge_m.to_bits(),
            r.max_station_surge_m.to_bits()
        );
        for (a, b) in decoded.inundation_m.iter().zip(&r.inundation_m) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn realization_codec_rejects_malformed_payloads() {
        let r = Realization {
            index: 0,
            tide_m: 0.1,
            max_station_surge_m: 1.0,
            inundation_m: vec![0.5; 3],
        };
        let bytes = encode_realization(&r, "surge");
        assert!(
            decode_realization(&bytes, 4, "surge").is_none(),
            "wrong POI arity"
        );
        assert!(
            decode_realization(&bytes, 3, "wind").is_none(),
            "hazard-id tag mismatch"
        );
        assert!(decode_realization(&bytes[..bytes.len() - 1], 3, "surge").is_none());
        let mut long = bytes.clone();
        long.push(0);
        assert!(
            decode_realization(&long, 3, "surge").is_none(),
            "trailing junk"
        );
        assert!(decode_realization(&[], 3, "surge").is_none());
    }

    #[test]
    fn histogram_codec_round_trips() {
        let arch = Architecture::C6P6P6;
        let hist = vec![
            (PostDisasterState::new(arch, vec![false, false, false]), 900),
            (PostDisasterState::new(arch, vec![true, true, false]), 100),
        ];
        let decoded = decode_histogram(&encode_histogram(&hist), arch).unwrap();
        assert_eq!(decoded, hist);
        // Decoding against a different site count must fail cleanly.
        assert!(decode_histogram(&encode_histogram(&hist), Architecture::C2).is_none());
        assert!(decode_histogram(b"junk", arch).is_none());
    }

    /// The sites record round-trips bit for bit for the Oahu preset:
    /// every POI and station, in order.
    #[test]
    fn sites_codec_round_trips_bit_exactly() {
        let (_, _, pois, stations) = study_inputs();
        let bytes = encode_sites(&pois, &stations);
        assert!(bytes.len() < 2048, "{} bytes", bytes.len());
        let decoded = decode_sites(&bytes, &oahu::topology()).expect("valid payload");
        assert_eq!(decoded, (pois, stations));
        assert_eq!(encode_sites(&decoded.0, &decoded.1), bytes);
    }

    #[test]
    fn sites_codec_rejects_malformed_payloads() {
        let (_, _, pois, stations) = study_inputs();
        let topology = oahu::topology();
        let bytes = encode_sites(&pois, &stations);
        let decode = |b: &[u8]| decode_sites(b, &topology);
        assert!(decode(&bytes[..bytes.len() - 1]).is_none(), "truncated");
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode(&long).is_none(), "trailing junk");
        assert!(decode(&[]).is_none());
        assert!(
            decode(&encode_sites(&pois[1..], &stations)).is_none(),
            "one POI short"
        );
        let mut renamed = pois.clone();
        renamed[0].id.push('x');
        assert!(
            decode(&encode_sites(&renamed, &stations)).is_none(),
            "a POI of another topology"
        );
        // One station short: drop the last station entry (id byte and
        // four f64s, ahead of the harbor amplification) and its count.
        let station_bytes = 1 + 4 * 8;
        let mut short = bytes.clone();
        let end = short.len() - 8;
        short.drain(end - station_bytes..end);
        let count_at = end - 6 * station_bytes - 8;
        short[count_at..count_at + 8].copy_from_slice(&5u64.to_le_bytes());
        assert!(decode(&short).is_none(), "one station short");
    }

    /// The spec's digest, and the sites record's key built on it.
    #[test]
    fn dem_keys_follow_the_terrain_spec_only() {
        let oahu = ct_geo::terrain::oahu_region_spec(&Default::default());
        let key = dem_key(&oahu);
        assert_eq!(dem_key(&oahu.clone()), key);
        assert_eq!(sites_key(&oahu.clone()), sites_key(&oahu));
        assert_ne!(sites_key(&oahu), key, "the record has its own address");
        let mut reseeded = oahu.clone();
        reseeded.seed += 1;
        assert_ne!(dem_key(&reseeded), key);
        assert_ne!(sites_key(&reseeded), sites_key(&oahu));
        let mut finer = oahu.clone();
        finer.cell_km = 0.25;
        assert_ne!(dem_key(&finer), key);
        let mut loosened = oahu.clone();
        loosened.sector_rules[0].max_north = None;
        assert_ne!(dem_key(&loosened), key);
    }

    #[test]
    fn histogram_keys_separate_threshold_size_and_plan() {
        let (config, _, pois, stations) = study_inputs();
        let base = key(&config, &pois, &stations);
        let plan = oahu::site_plan(Architecture::C2_2, oahu::SiteChoice::Waiau).unwrap();
        let k = plan_histogram_key(&base, 1000, 0.5, &plan);
        assert_ne!(plan_histogram_key(&base, 999, 0.5, &plan), k);
        assert_ne!(plan_histogram_key(&base, 1000, 0.75, &plan), k);
        let other = oahu::site_plan(Architecture::C2_2, oahu::SiteChoice::Kahe).unwrap();
        assert_ne!(plan_histogram_key(&base, 1000, 0.5, &other), k);
    }
}
