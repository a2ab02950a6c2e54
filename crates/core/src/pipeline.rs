//! The analysis pipeline (Fig. 5) for the paper's Oahu case study:
//! the topology, its POIs and the surge stations measured on the
//! synthesized terrain (or read from their store record), the hazard
//! ensemble evaluated at every asset, and profiling under each threat
//! scenario.

use crate::artifact;
use crate::error::CoreError;
use crate::parallel::{default_threads, par_map_dynamic};
use crate::profile::OutcomeProfile;
use ct_geo::synthesize_region;
use ct_geo::terrain::{oahu_region_spec, OahuTerrainConfig};
use ct_hazard::{HazardModel, HazardSpec};
use ct_hydro::{
    EnsembleConfig, Poi, Realization, RealizationSet, Stations, SurgeCalibration, TrackEnsemble,
};
use ct_scada::{oahu, Architecture, SitePlan, Topology};
use ct_store::{Digest, StoreBackend, StoreError};
use ct_threat::{
    classify, post_disaster_histogram, Attacker, PostDisasterState, ThreatScenario,
    WorstCaseAttacker,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cache key for a site plan: its architecture and ordered site ids.
type PlanKey = (Architecture, Vec<String>);
/// A shared flood-pattern histogram (distinct pattern, multiplicity).
type PlanHistogram = Arc<Vec<(PostDisasterState, usize)>>;

/// Configuration of a full case-study run.
///
/// Construct via [`CaseStudyConfig::builder`], which validates values
/// before they reach the pipeline; `Default` gives the paper's
/// canonical setup (Oahu, 1000 realizations, auto threads). Assets
/// fail at the paper's 0.5 m flood threshold
/// ([`ct_hydro::FloodThreshold`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CaseStudyConfig {
    /// Terrain synthesis parameters of the Oahu preset.
    pub terrain: OahuTerrainConfig,
    /// Hurricane ensemble parameters (1000 realizations by default,
    /// as in the paper).
    pub ensemble: EnsembleConfig,
    /// Surge-model calibration.
    pub calibration: SurgeCalibration,
    /// Which hazard engine evaluates the ensemble (surge by default;
    /// `wind` and `compound` reuse the same storm tracks through
    /// other [`HazardModel`] implementations).
    pub hazard: HazardSpec,
    /// Worker threads for ensemble evaluation (0 = auto).
    pub threads: usize,
}

impl CaseStudyConfig {
    /// A fluent, validating builder for the configuration.
    ///
    /// ```
    /// use compound_threats::CaseStudyConfig;
    ///
    /// let config = CaseStudyConfig::builder()
    ///     .realizations(200)
    ///     .threads(4)
    ///     .build()
    ///     .expect("valid config");
    /// assert_eq!(config.ensemble.realizations, 200);
    /// assert!(CaseStudyConfig::builder().realizations(0).build().is_err());
    /// ```
    pub fn builder() -> CaseStudyConfigBuilder {
        CaseStudyConfigBuilder::default()
    }
}

/// Builder for [`CaseStudyConfig`]; see [`CaseStudyConfig::builder`].
///
/// Setters are infallible; [`CaseStudyConfigBuilder::build`] performs
/// validation so errors carry the offending field and value.
#[derive(Debug, Clone, Default)]
pub struct CaseStudyConfigBuilder {
    config: CaseStudyConfig,
}

impl CaseStudyConfigBuilder {
    /// Terrain synthesis parameters.
    #[must_use]
    pub fn terrain(mut self, terrain: OahuTerrainConfig) -> Self {
        self.config.terrain = terrain;
        self
    }

    /// Number of hurricane realizations (must be ≥ 1).
    #[must_use]
    pub fn realizations(mut self, n: usize) -> Self {
        self.config.ensemble.realizations = n;
        self
    }

    /// Hazard engine for the ensemble (`surge` | `wind` | `compound`).
    #[must_use]
    pub fn hazard(mut self, hazard: HazardSpec) -> Self {
        self.config.hazard = hazard;
        self
    }

    /// Worker threads for ensemble evaluation (0 = auto).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when the ensemble is empty.
    pub fn build(self) -> Result<CaseStudyConfig, CoreError> {
        if self.config.ensemble.realizations == 0 {
            return Err(CoreError::InvalidConfig {
                field: "realizations",
                reason: "ensemble must contain at least 1 realization".into(),
            });
        }
        Ok(self.config)
    }
}

/// One slice of a sharded ensemble run: this process owns realization
/// `i` iff `i % count == index`. Interleaving (rather than contiguous
/// ranges) keeps shard workloads balanced when storm cost drifts with
/// the sampled track distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    index: usize,
    count: usize,
}

impl ShardSpec {
    /// A shard `index` out of `count`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when `count` is zero or `index`
    /// is out of range.
    pub fn new(index: usize, count: usize) -> Result<Self, CoreError> {
        if count == 0 {
            return Err(CoreError::InvalidConfig {
                field: "shards",
                reason: "shard count must be at least 1".into(),
            });
        }
        if index >= count {
            return Err(CoreError::InvalidConfig {
                field: "shard",
                reason: format!("shard index {index} out of range for {count} shard(s)"),
            });
        }
        Ok(Self { index, count })
    }

    /// Whether realization `i` belongs to this shard.
    pub fn owns(&self, i: usize) -> bool {
        i % self.count == self.index
    }
}

/// What a shard run did: how many of its records were computed fresh
/// versus reused from the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardReport {
    /// Realizations evaluated in this process.
    pub computed: usize,
    /// Realizations loaded from the artifact store.
    pub reused: usize,
    /// Realizations owned by the shard (`computed + reused`).
    pub total: usize,
}

/// Store handle plus the run's base content address; carried by a
/// store-backed [`CaseStudy`] so plan histograms can be cached on disk
/// too. The handle is whatever [`StoreBackend`] the study was built
/// through — local or remote — retained via
/// [`StoreBackend::clone_handle`].
#[derive(Debug, Clone)]
struct StoreContext {
    store: Arc<dyn StoreBackend>,
    base: Digest,
}

/// A fully-prepared case study: Oahu's topology and hazard ensemble,
/// ready to evaluate architectures under threat scenarios.
#[derive(Debug)]
pub struct CaseStudy {
    config: CaseStudyConfig,
    topology: Topology,
    set: RealizationSet,
    /// Memoized flood-pattern histograms per site plan. A plan's
    /// histogram is scenario-independent, so one entry serves every
    /// threat scenario and repeated figure/sweep evaluations.
    histograms: Mutex<HashMap<PlanKey, PlanHistogram>>,
    /// Present when the study was built through an artifact store.
    store: Option<StoreContext>,
}

impl Clone for CaseStudy {
    fn clone(&self) -> Self {
        // A clone starts with an empty histogram cache, so its first
        // profile of each plan computes the histogram again (or reads
        // it from the store): a cold histogram can be timed on a clone
        // of a built study. The store context survives.
        Self {
            config: self.config.clone(),
            topology: self.topology.clone(),
            set: self.set.clone(),
            histograms: Mutex::new(HashMap::new()),
            store: self.store.clone(),
        }
    }
}

/// The prepared (pre-evaluation) inputs: everything that is cheap and
/// deterministic, shared by full builds and shard runs.
struct Prepared {
    topology: Topology,
    pois: Vec<Poi>,
    hazard: Box<dyn HazardModel>,
    /// The hazard's stable id, computed once (it tags every store
    /// record and the base key).
    hazard_id: String,
    threads: usize,
}

impl Prepared {
    /// Builds the topology, gets its POIs and the surge stations (see
    /// [`oahu_sites`]), and instantiates the configured hazard engine.
    /// Opens `topology` and `terrain` spans under the caller's current
    /// span.
    fn new(config: &CaseStudyConfig, store: Option<&dyn StoreBackend>) -> Result<Self, CoreError> {
        let threads = if config.threads == 0 {
            default_threads()
        } else {
            config.threads
        };
        ct_obs::gauge(ct_obs::names::BUILD_THREADS, threads as f64);
        let topology = {
            let _s = ct_obs::span("topology");
            oahu::topology()
        };
        let (pois, stations) = {
            let _s = ct_obs::span("terrain");
            oahu_sites(&config.terrain, &topology, store)?
        };
        let hazard = config.hazard.build(&stations, config.calibration);
        let hazard_id = hazard.hazard_id();
        Ok(Self {
            topology,
            pois,
            hazard,
            hazard_id,
            threads,
        })
    }

    /// The run's base content address.
    fn base_key(&self, config: &CaseStudyConfig) -> Digest {
        artifact::base_key(config, &self.pois, self.hazard.as_ref())
    }
}

/// Oahu's sites: the case-study POIs and the surge stations, all that
/// a build measures on the DEM. Read from the store's sites record
/// ([`artifact::sites_key`]), so a warm build synthesizes no terrain;
/// else measured on a freshly synthesized DEM and written back.
fn oahu_sites(
    terrain: &OahuTerrainConfig,
    topology: &Topology,
    store: Option<&dyn StoreBackend>,
) -> Result<(Vec<Poi>, Stations), CoreError> {
    let spec = oahu_region_spec(terrain);
    let stored = store.map(|store| (store, artifact::sites_key(&spec)));
    if let Some((store, key)) = &stored {
        if let Some(sites) = load_record(*store, key, |b| artifact::decode_sites(b, topology)) {
            return Ok(sites);
        }
    }
    let dem = synthesize_region(&spec)?;
    let (pois, stations) = (oahu::case_study_pois(&dem)?, Stations::from_dem(&dem));
    if let Some((store, key)) = &stored {
        store_record(*store, key, &artifact::encode_sites(&pois, &stations));
    }
    Ok((pois, stations))
}

/// Reads and decodes the record at `key`; `None` means compute it. A
/// record that passed the frame checksum but fails `decode` is
/// invalidated, so the cache can only ever *degrade to recompute*,
/// never corrupt a result. A failed read degrades the same way,
/// counted as `store.degraded`.
fn load_record<T>(
    store: &dyn StoreBackend,
    key: &Digest,
    decode: impl FnOnce(&[u8]) -> Option<T>,
) -> Option<T> {
    decode_loaded(store, key, store.get(key), decode)
}

/// The decode half of [`load_record`], for a read already made (one
/// result of [`StoreBackend::get_many`]).
fn decode_loaded<T>(
    store: &dyn StoreBackend,
    key: &Digest,
    loaded: Result<Option<Vec<u8>>, StoreError>,
    decode: impl FnOnce(&[u8]) -> Option<T>,
) -> Option<T> {
    match loaded {
        Ok(Some(bytes)) => {
            let decoded = decode(&bytes);
            if decoded.is_none() && store.invalidate(key).is_err() {
                store.note_degraded();
            }
            decoded
        }
        Ok(None) => None,
        Err(_) => {
            store.note_degraded();
            None
        }
    }
}

/// Writes a freshly computed record back. A failed write is dropped
/// and counted as `store.degraded`: a flaky disk can cost time but
/// never a run.
fn store_record(store: &dyn StoreBackend, key: &Digest, payload: &[u8]) {
    if store.put(key, payload).is_err() {
        store.note_degraded();
    }
}

/// [`par_map_dynamic`] under a coordinator span named `stage`. Workers
/// attribute their per-item busy time to the span as its CPU proxy;
/// the span itself stays on this thread, so the span tree is
/// identical for every thread count.
fn timed_par_map<T: Sync, R: Send>(
    stage: &str,
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let span = ct_obs::span(stage);
    let busy_ns = AtomicU64::new(0);
    let out = par_map_dynamic(items, threads, |item| {
        let started = std::time::Instant::now();
        let r = f(item);
        busy_ns.fetch_add(
            u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        r
    });
    span.add_cpu_ns(busy_ns.into_inner());
    out
}

/// Produces the given realizations of `ensemble`, in input order,
/// and how many were read from the store.
///
/// With a store, every realization's record is loaded first, under a
/// `store_load` span on this thread: one [`StoreBackend::get_many`]
/// call reads the whole batch (a local store in a few coalesced
/// reads, a remote one in pipelined GETs), and the records are then
/// decoded in order, by [`load_record`]'s rules: an undecodable record
/// is invalidated and a failed read degrades to a recompute. Only
/// then, if any is missing,
/// is the ensemble sampled, on this thread under the
/// `ensemble_generate` span, and only the misses are evaluated and
/// written back, under `hazard_evaluate`: a fully warm build samples
/// no storm and runs no hazard kernel. Storeless builds skip the load
/// phase and evaluate every realization. Dynamic scheduling: storm
/// cost varies with track/intensity, so one work-stealing pool keeps
/// all workers busy to the end.
fn evaluate_tasks(
    prepared: &Prepared,
    ensemble: &EnsembleConfig,
    indices: &[usize],
    store: Option<(&dyn StoreBackend, &Digest)>,
) -> Result<(Vec<Realization>, usize), CoreError> {
    let threads = prepared.threads;
    let mut out: Vec<Option<Realization>> = match store {
        Some((store, base)) => {
            let _s = ct_obs::span("store_load");
            let keys: Vec<Digest> = indices
                .iter()
                .map(|&i| artifact::realization_key(base, i))
                .collect();
            let loaded = store.get_many(&keys);
            keys.iter()
                .zip(loaded)
                .map(|(key, got)| {
                    decode_loaded(store, key, got, |b| {
                        artifact::decode_realization(b, prepared.pois.len(), &prepared.hazard_id)
                    })
                })
                .collect()
        }
        None => indices.iter().map(|_| None).collect(),
    };
    let misses: Vec<usize> = (0..indices.len()).filter(|&t| out[t].is_none()).collect();
    let reused = indices.len() - misses.len();

    let storms = {
        let _s = ct_obs::span("ensemble_generate");
        if misses.is_empty() {
            Vec::new()
        } else {
            TrackEnsemble::new(ensemble.clone())?.generate()
        }
    };

    static REALIZATIONS: ct_obs::CachedCounter =
        ct_obs::CachedCounter::new(ct_obs::names::HAZARD_REALIZATIONS_EVALUATED);
    static ASSET_EXPOSURES: ct_obs::CachedCounter =
        ct_obs::CachedCounter::new(ct_obs::names::HAZARD_ASSET_EXPOSURES);
    let fresh = timed_par_map("hazard_evaluate", &misses, threads, |&t| {
        let i = indices[t];
        let realization = prepared.hazard.evaluate(i, &storms[i], &prepared.pois)?;
        REALIZATIONS.add(1);
        ASSET_EXPOSURES.add(prepared.pois.len() as u64);
        if let Some((store, base)) = store {
            store_record(
                store,
                &artifact::realization_key(base, i),
                &artifact::encode_realization(&realization, &prepared.hazard_id),
            );
        }
        Ok::<_, CoreError>(realization)
    });
    for (t, realization) in misses.into_iter().zip(fresh) {
        out[t] = Some(realization?);
    }
    let realizations = out
        .into_iter()
        .map(|r| r.expect("every realization is loaded or evaluated"))
        .collect();
    Ok((realizations, reused))
}

/// Evaluates only this shard's slice of the ensemble, writing each
/// record to `store`. Records already present (from an earlier run or
/// an interrupted one) are skipped, which is what makes a shard run
/// resumable after `kill -9`: re-running the same shard recomputes
/// only the records the crash lost.
///
/// # Errors
///
/// Propagates terrain/hazard errors. Store I/O failures degrade to
/// compute-without-cache (`store.degraded`) and never fail the shard;
/// a record whose write-back was dropped is simply recomputed by the
/// merge.
pub fn run_shard(
    config: &CaseStudyConfig,
    store: &dyn StoreBackend,
    shard: ShardSpec,
) -> Result<ShardReport, CoreError> {
    let shard_span = ct_obs::span("shard_run");
    let prepared = Prepared::new(config, Some(store))?;
    let base = prepared.base_key(config);
    let owned: Vec<usize> = (0..config.ensemble.realizations)
        .filter(|&i| shard.owns(i))
        .collect();
    let total = owned.len();
    let (_, reused) = evaluate_tasks(&prepared, &config.ensemble, &owned, Some((store, &base)))?;
    drop(shard_span);
    Ok(ShardReport {
        computed: total - reused,
        reused,
        total,
    })
}

impl CaseStudy {
    /// Synthesizes the terrain, builds the topology, and evaluates the
    /// hurricane ensemble at every asset (in parallel).
    ///
    /// # Errors
    ///
    /// Propagates terrain/hazard errors (e.g. an asset outside the
    /// DEM).
    pub fn build(config: &CaseStudyConfig) -> Result<Self, CoreError> {
        Self::build_with_store(config, None)
    }

    /// [`CaseStudy::build`] through an artifact store: each
    /// realization already present in the store is loaded bit-exactly
    /// instead of recomputed, and anything computed fresh is written
    /// back. The resulting study is identical to a storeless build
    /// (asserted by tests); only the work performed differs — and that
    /// guarantee survives a failing store, because every store error
    /// degrades to compute-without-cache (`store.degraded`) instead of
    /// surfacing.
    ///
    /// # Errors
    ///
    /// Propagates terrain/hazard errors; store I/O failures never
    /// abort a build.
    pub fn build_with_store(
        config: &CaseStudyConfig,
        store: Option<&dyn StoreBackend>,
    ) -> Result<Self, CoreError> {
        let build_span = ct_obs::span("build");
        let prepared = Prepared::new(config, store)?;
        let base = store.map(|_| prepared.base_key(config));
        let indices: Vec<usize> = (0..config.ensemble.realizations).collect();
        let (realizations, _) = evaluate_tasks(
            &prepared,
            &config.ensemble,
            &indices,
            store.zip(base.as_ref()),
        )?;
        let set = RealizationSet::from_parts(prepared.pois, realizations);
        drop(build_span);
        Ok(Self {
            config: config.clone(),
            topology: prepared.topology,
            set,
            histograms: Mutex::new(HashMap::new()),
            store: store.zip(base).map(|(s, base)| StoreContext {
                store: s.clone_handle(),
                base,
            }),
        })
    }

    /// Merges a sharded run: builds the full study through `store`,
    /// loading every record the shards produced and computing any that
    /// are missing (e.g. a shard that never ran or was interrupted).
    /// The result is bit-identical to a clean single-process
    /// [`CaseStudy::build`] — even when the store misbehaves, since
    /// store failures degrade to recompute rather than abort.
    ///
    /// # Errors
    ///
    /// Propagates terrain/hazard errors; store I/O failures never
    /// abort a merge.
    pub fn merge_from_store(
        config: &CaseStudyConfig,
        store: &dyn StoreBackend,
    ) -> Result<Self, CoreError> {
        let _s = ct_obs::span("merge");
        Self::build_with_store(config, Some(store))
    }

    /// The hazard engine the ensemble was evaluated with.
    pub fn hazard(&self) -> HazardSpec {
        self.config.hazard
    }

    /// Effective worker-thread count for parallel sweeps over this
    /// study (resolves the config's `0 = auto`).
    pub fn threads(&self) -> usize {
        if self.config.threads == 0 {
            default_threads()
        } else {
            self.config.threads
        }
    }

    /// The power-asset topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The evaluated hazard ensemble.
    pub fn realizations(&self) -> &RealizationSet {
        &self.set
    }

    /// Outcome profile of an architecture under a scenario with the
    /// paper's control-site plan for `choice`.
    ///
    /// # Errors
    ///
    /// Propagates site-plan errors.
    pub fn profile(
        &self,
        architecture: Architecture,
        scenario: ThreatScenario,
        choice: oahu::SiteChoice,
    ) -> Result<OutcomeProfile, CoreError> {
        self.profile_with_plan(&oahu::site_plan(architecture, choice)?, scenario)
    }

    /// Outcome profile for an arbitrary site plan: applies each
    /// hurricane realization, then the worst-case attacker, then
    /// Table I.
    ///
    /// The attacker and classification are deterministic functions of
    /// the post-disaster flood pattern, so they are evaluated once per
    /// *distinct* pattern (at most eight for three sites) and weighted
    /// by the pattern's multiplicity; the histogram itself is memoized
    /// per plan. Produces exactly the same profile as running the
    /// attacker and classification once per realization (asserted by
    /// this module's tests against that per-realization path).
    ///
    /// # Errors
    ///
    /// Returns an error when the plan references assets missing from
    /// the ensemble's POI set.
    pub(crate) fn profile_with_plan(
        &self,
        plan: &SitePlan,
        scenario: ThreatScenario,
    ) -> Result<OutcomeProfile, CoreError> {
        ct_obs::add(ct_obs::names::PROFILE_PLANS_EVALUATED, 1);
        let hist = self.plan_histogram(plan)?;
        let budget = scenario.budget();
        let arch = plan.architecture();
        let attacker = WorstCaseAttacker;
        let mut profile = OutcomeProfile::new();
        for (post, n) in hist.iter() {
            profile.record_n(classify(&attacker.attack(arch, post, budget)), *n);
        }
        Ok(profile)
    }

    /// The plan's flood-pattern histogram, computed on first use and
    /// cached. Concurrent first calls may compute it redundantly; the
    /// first insert wins and the result is identical either way.
    ///
    /// Store-backed studies check the artifact store between the
    /// in-memory cache and a fresh computation; the disk key pins the
    /// base address, the ensemble size, and the flood threshold.
    fn plan_histogram(&self, plan: &SitePlan) -> Result<PlanHistogram, CoreError> {
        let key = (plan.architecture(), plan.site_asset_ids().to_vec());
        if let Some(hist) = self
            .histograms
            .lock()
            .expect("histogram cache lock")
            .get(&key)
        {
            ct_obs::add(ct_obs::names::PROFILE_PATTERN_CACHE_HITS, 1);
            return Ok(Arc::clone(hist));
        }
        let hist = Arc::new(self.load_or_compute_histogram(plan)?);
        let mut cache = self.histograms.lock().expect("histogram cache lock");
        // A miss is counted only for the winning insert, so hit+miss
        // totals stay deterministic even when concurrent first calls
        // compute the same histogram redundantly.
        match cache.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                ct_obs::add(ct_obs::names::PROFILE_PATTERN_CACHE_HITS, 1);
                Ok(Arc::clone(e.get()))
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                ct_obs::add(ct_obs::names::PROFILE_PATTERN_CACHE_MISSES, 1);
                ct_obs::histogram(
                    ct_obs::names::PROFILE_PATTERNS_PER_PLAN,
                    &ct_obs::names::PROFILE_PATTERNS_PER_PLAN_BOUNDS,
                )
                .observe(hist.len() as f64);
                Ok(Arc::clone(e.insert(hist)))
            }
        }
    }

    /// The disk-or-compute half of [`CaseStudy::plan_histogram`]: a
    /// store-backed study tries its artifact store first; a valid
    /// record is returned as written, an undecodable one is
    /// invalidated and recomputed, and fresh computations are written
    /// back for the next process. Store I/O failure degrades to the
    /// fresh computation (counted as `store.degraded`), never aborts.
    fn load_or_compute_histogram(
        &self,
        plan: &SitePlan,
    ) -> Result<Vec<(PostDisasterState, usize)>, CoreError> {
        let set = &self.set;
        let disk = self.store.as_ref().map(|ctx| {
            let key =
                artifact::plan_histogram_key(&ctx.base, set.len(), set.threshold().depth_m(), plan);
            (ctx.store.as_ref(), key)
        });
        if let Some((store, key)) = disk {
            let decode = |b: &[u8]| artifact::decode_histogram(b, plan.architecture());
            if let Some(hist) = load_record(store, &key, decode) {
                return Ok(hist);
            }
        }
        let hist = post_disaster_histogram(plan, set)?;
        if let Some((store, key)) = disk {
            store_record(store, &key, &artifact::encode_histogram(&hist));
        }
        Ok(hist)
    }

    /// Probability that the asset's site floods across the ensemble.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownAsset`] for ids missing from the
    /// topology.
    pub fn flood_probability(&self, asset_id: &str) -> Result<f64, CoreError> {
        let idx = self
            .set
            .poi_index(asset_id)
            .ok_or_else(|| CoreError::UnknownAsset {
                id: asset_id.to_string(),
            })?;
        Ok(self.set.flood_fraction(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_geo::terrain::synthesize_oahu;
    use ct_hydro::Realization;
    use ct_rand::cases;
    use ct_threat::{post_disaster_states, OperationalState};

    impl CaseStudy {
        /// The pre-memoization profiling path: attacker and
        /// classification run once per realization instead of once per
        /// distinct flood pattern. The ground truth
        /// the memoized [`CaseStudy::profile_with_plan`] is checked
        /// against.
        fn profile_with_plan_naive(
            &self,
            plan: &SitePlan,
            scenario: ThreatScenario,
        ) -> Result<OutcomeProfile, CoreError> {
            let posts = post_disaster_states(plan, &self.set)?;
            let budget = scenario.budget();
            let arch = plan.architecture();
            let attacker = WorstCaseAttacker;
            Ok(OutcomeProfile::from_outcomes(posts.iter().map(|post| {
                classify(&attacker.attack(arch, post, budget))
            })))
        }
    }

    fn small_study() -> CaseStudy {
        CaseStudy::build(
            &CaseStudyConfig::builder()
                .realizations(120)
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn builder_rejects_invalid_configs() {
        let e = CaseStudyConfig::builder()
            .realizations(0)
            .build()
            .unwrap_err();
        assert!(matches!(
            e,
            CoreError::InvalidConfig {
                field: "realizations",
                ..
            }
        ));
    }

    /// A study over a hand-built, RNG-free ensemble: realization `i`
    /// floods the POIs selected by bit `j % 8` of `masks[i]`. Gives
    /// the profiling paths correlated, repeating flood patterns
    /// without going through ensemble sampling.
    fn synthetic_study(masks: &[u8]) -> CaseStudy {
        let config = CaseStudyConfig::default();
        let dem = synthesize_oahu(&config.terrain);
        let topology = oahu::topology();
        let pois = oahu::case_study_pois(&dem).unwrap();
        let realizations = masks
            .iter()
            .enumerate()
            .map(|(index, &m)| {
                let inundation_m = (0..pois.len())
                    .map(|j| if m & (1 << (j % 8)) != 0 { 2.0 } else { 0.0 })
                    .collect();
                Realization {
                    index,
                    tide_m: 0.0,
                    max_station_surge_m: 0.0,
                    inundation_m,
                }
            })
            .collect();
        let set = RealizationSet::from_parts(pois, realizations);
        CaseStudy {
            config,
            topology,
            set,
            histograms: Mutex::new(HashMap::new()),
            store: None,
        }
    }

    #[test]
    fn memoized_profile_matches_naive_everywhere() {
        let masks: Vec<u8> = (0..200u32).map(|i| (i * 37 % 251) as u8).collect();
        let study = synthetic_study(&masks);
        for arch in Architecture::ALL {
            for scenario in ThreatScenario::ALL {
                for choice in [oahu::SiteChoice::Waiau, oahu::SiteChoice::Kahe] {
                    let plan = oahu::site_plan(arch, choice).unwrap();
                    let memo = study.profile_with_plan(&plan, scenario).unwrap();
                    let naive = study.profile_with_plan_naive(&plan, scenario).unwrap();
                    assert_eq!(memo, naive, "{arch} / {scenario} / {choice:?}");
                    // Second (cached) call must be stable too.
                    let again = study.profile_with_plan(&plan, scenario).unwrap();
                    assert_eq!(again, memo, "cache changed the answer");
                }
            }
        }
    }

    #[test]
    fn memoized_profile_matches_naive_prop() {
        cases(16, |rng| {
            let masks: Vec<u8> = (0..1 + rng.below(119))
                .map(|_| rng.next_u64() as u8)
                .collect();
            let study = synthetic_study(&masks);
            for arch in Architecture::ALL {
                for scenario in ThreatScenario::ALL {
                    let plan = oahu::site_plan(arch, oahu::SiteChoice::Waiau).unwrap();
                    let memo = study.profile_with_plan(&plan, scenario).unwrap();
                    let naive = study.profile_with_plan_naive(&plan, scenario).unwrap();
                    assert_eq!(memo, naive, "{} / {}", arch, scenario);
                }
            }
        });
    }

    #[test]
    fn shard_spec_validates_and_partitions() {
        assert!(ShardSpec::new(0, 0).is_err());
        assert!(ShardSpec::new(2, 2).is_err());
        let shards: Vec<ShardSpec> = (0..3).map(|i| ShardSpec::new(i, 3).unwrap()).collect();
        for i in 0..100 {
            let owners = shards.iter().filter(|s| s.owns(i)).count();
            assert_eq!(owners, 1, "realization {i} must have exactly one owner");
        }
        assert!(ShardSpec::new(0, 1).unwrap().owns(7));
    }

    /// Scratch store rooted in a unique temp directory; removed on
    /// drop so test runs do not accumulate state.
    struct ScratchStore {
        root: std::path::PathBuf,
        store: ct_store::Store,
    }

    impl ScratchStore {
        fn new(tag: &str) -> Self {
            let root = std::env::temp_dir().join(format!(
                "ct-pipeline-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            std::fs::remove_dir_all(&root).ok();
            let store = ct_store::Store::open(&root).unwrap();
            Self { root, store }
        }
    }

    impl Drop for ScratchStore {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.root).ok();
        }
    }

    #[test]
    fn store_backed_build_is_bit_identical_cold_and_warm() {
        let config = CaseStudyConfig::builder().realizations(30).build().unwrap();
        let plain = CaseStudy::build(&config).unwrap();
        let scratch = ScratchStore::new("coldwarm");
        let cold = CaseStudy::build_with_store(&config, Some(&scratch.store)).unwrap();
        let warm = CaseStudy::build_with_store(&config, Some(&scratch.store)).unwrap();
        // RealizationSet's PartialEq compares every f64, so equality
        // here is bit equality of the whole ensemble.
        assert_eq!(plain.realizations(), cold.realizations());
        assert_eq!(plain.realizations(), warm.realizations());
        // The warm study answers profiles identically too.
        let p = plain
            .profile(
                Architecture::C2,
                ThreatScenario::HurricaneIntrusion,
                oahu::SiteChoice::Waiau,
            )
            .unwrap();
        let w = warm
            .profile(
                Architecture::C2,
                ThreatScenario::HurricaneIntrusion,
                oahu::SiteChoice::Waiau,
            )
            .unwrap();
        assert_eq!(p, w);
    }

    #[test]
    fn sharded_run_merges_to_clean_build() {
        let config = CaseStudyConfig::builder().realizations(31).build().unwrap();
        let scratch = ScratchStore::new("shards");
        let a = run_shard(&config, &scratch.store, ShardSpec::new(0, 2).unwrap()).unwrap();
        let b = run_shard(&config, &scratch.store, ShardSpec::new(1, 2).unwrap()).unwrap();
        assert_eq!(a.total, 16, "shard 0 owns the even indices of 0..31");
        assert_eq!(b.total, 15);
        assert_eq!(a.computed, a.total);
        assert_eq!(b.computed, b.total);
        let merged = CaseStudy::merge_from_store(&config, &scratch.store).unwrap();
        let clean = CaseStudy::build(&config).unwrap();
        assert_eq!(merged.realizations(), clean.realizations());
        // Re-running a shard is a no-op: everything is reused.
        let again = run_shard(&config, &scratch.store, ShardSpec::new(0, 2).unwrap()).unwrap();
        assert_eq!(again.reused, again.total);
        assert_eq!(again.computed, 0);
    }

    #[test]
    fn merge_computes_records_missing_from_partial_shards() {
        // Only one of three shards ran (an interrupted sweep); merge
        // must fill the gaps and still match a clean build.
        let config = CaseStudyConfig::builder().realizations(20).build().unwrap();
        let scratch = ScratchStore::new("partial");
        run_shard(&config, &scratch.store, ShardSpec::new(1, 3).unwrap()).unwrap();
        let merged = CaseStudy::merge_from_store(&config, &scratch.store).unwrap();
        let clean = CaseStudy::build(&config).unwrap();
        assert_eq!(merged.realizations(), clean.realizations());
    }

    #[test]
    fn smaller_run_reuses_records_of_a_larger_one() {
        // Realization i is a function of (seed, i) alone, so a 12-run
        // sweep finds all its records in the store a 24-run sweep
        // filled.
        let scratch = ScratchStore::new("sizes");
        let large = CaseStudyConfig::builder().realizations(24).build().unwrap();
        CaseStudy::build_with_store(&large, Some(&scratch.store)).unwrap();
        let small = CaseStudyConfig::builder().realizations(12).build().unwrap();
        let via_store = CaseStudy::build_with_store(&small, Some(&scratch.store)).unwrap();
        let plain = CaseStudy::build(&small).unwrap();
        assert_eq!(via_store.realizations(), plain.realizations());
    }

    #[test]
    fn build_and_shapes() {
        let s = small_study();
        assert_eq!(s.realizations().len(), 120);
        assert_eq!(s.realizations().pois().len(), s.topology().assets().len());
        assert_eq!(s.topology(), &oahu::topology());
    }

    #[test]
    fn parallel_matches_serial_generation() {
        let mut cfg = CaseStudyConfig::builder().realizations(40).build().unwrap();
        cfg.threads = 1;
        let serial = CaseStudy::build(&cfg).unwrap();
        cfg.threads = 8;
        let parallel = CaseStudy::build(&cfg).unwrap();
        assert_eq!(
            serial.realizations().realizations(),
            parallel.realizations().realizations()
        );
    }

    #[test]
    fn hurricane_only_profiles_match_across_architectures() {
        // Fig. 6's headline: with Honolulu+Waiau siting, every
        // architecture has the same hurricane-only profile.
        let s = small_study();
        let base = s
            .profile(
                Architecture::C2,
                ThreatScenario::Hurricane,
                oahu::SiteChoice::Waiau,
            )
            .unwrap();
        for arch in Architecture::ALL {
            let p = s
                .profile(arch, ThreatScenario::Hurricane, oahu::SiteChoice::Waiau)
                .unwrap();
            assert!(p.approx_eq(&base, 1e-9), "{arch}: {p} differs from {base}");
        }
        assert_eq!(base.orange(), 0.0);
        assert_eq!(base.gray(), 0.0);
    }

    #[test]
    fn flood_probability_known_sites() {
        let s = small_study();
        let kahe = s.flood_probability(ct_scada::oahu::KAHE).unwrap();
        assert_eq!(kahe, 0.0, "Kahe never floods");
        assert!(s.flood_probability("nope").is_err());
    }

    #[test]
    fn compound_threat_degrades_industry_configs() {
        let s = small_study();
        let p = s
            .profile(
                Architecture::C2,
                ThreatScenario::HurricaneIntrusion,
                oahu::SiteChoice::Waiau,
            )
            .unwrap();
        assert_eq!(p.green(), 0.0);
        assert!(p.gray() > 0.5);
        assert!(
            (p.gray() + p.red() - 1.0).abs() < 1e-9,
            "only gray/red possible: {p}"
        );
        let _ = OperationalState::Gray;
    }
}
