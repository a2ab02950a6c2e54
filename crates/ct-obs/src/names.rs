//! Canonical metric names used across the workspace.
//!
//! Naming scheme: `<layer>.<noun>[_<verb>]`, lower-snake inside a
//! dot-separated layer prefix. Span paths are slash-separated stage
//! names (`build/ensemble_evaluate`); see DESIGN.md for the full
//! conventions.

/// Hazard realizations evaluated fresh by the active hazard model
/// (any engine: surge, wind, compound; store hits do not count).
pub const HAZARD_REALIZATIONS_EVALUATED: &str = "hazard.realizations_evaluated";
/// Per-asset severity evaluations performed by the hazard engine.
pub const HAZARD_ASSET_EXPOSURES: &str = "hazard.asset_exposures";
/// Component-hazard evaluations performed inside compound hazards
/// (one per part per realization).
pub const HAZARD_COMPOUND_COMPONENT_EVALUATIONS: &str = "hazard.compound_component_evaluations";
/// DEMs synthesized from their terrain spec (a DEM read from the
/// artifact store does not count).
pub const GEO_DEM_SYNTHESIZED: &str = "geo.dem_synthesized";
/// DEM cells whose elevation terrain synthesis computed: the cells a
/// query read (once each), or the whole raster when it is filled.
pub const GEO_TERRAIN_CELLS_EVALUATED: &str = "geo.terrain.cells_evaluated";
/// Polygon edges whose closest point and distance terrain synthesis
/// computed, over every evaluated cell and polygon.
pub const GEO_TERRAIN_EDGES_EVALUATED: &str = "geo.terrain.edges_evaluated";
/// Polygon edges terrain synthesis skipped because their bounding box
/// lay beyond the best boundary distance.
pub const GEO_TERRAIN_EDGES_CULLED: &str = "geo.terrain.edges_culled";
/// Storm ensembles sampled (one per build whose realizations were not
/// all read from the artifact store).
pub const HYDRO_ENSEMBLES_SAMPLED: &str = "hydro.ensembles_sampled";
/// Box-Muller normal draws made while sampling storm ensembles (one
/// per rejection try of each truncated variate, plus the plain
/// cross-track offset; one add per sampled ensemble).
pub const HYDRO_ENSEMBLE_NORMAL_DRAWS: &str = "hydro.ensemble.normal_draws";
/// Hurricane realizations evaluated against the POI set.
pub const HYDRO_REALIZATIONS_EVALUATED: &str = "hydro.realizations_evaluated";
/// Per-POI inundation evaluations.
pub const HYDRO_POI_EVALUATIONS: &str = "hydro.poi_evaluations";
/// Wind evaluations completed by the storm-passage peak scans (one per
/// in-range step and site whose wind was computed in full).
pub const HYDRO_PEAK_SCAN_EVALUATED: &str = "hydro.peak_scan.evaluated";
/// In-range steps the peak scans skipped after computing the gradient
/// wind, because a bound on the wind speed, or on a component's
/// direction, showed they could not raise the running peak.
pub const HYDRO_PEAK_SCAN_SKIPPED: &str = "hydro.peak_scan.skipped";
/// Steps the peak scans culled before any trig, because a chord lower
/// bound on the distance put the site past the storm's reach or the
/// 400 km gate, or a bound on an onshore component from the chord
/// showed it could not raise the running peak.
pub const HYDRO_PEAK_SCAN_CULLED: &str = "hydro.peak_scan.culled";
/// Haversine distances the peak scans computed, for the pairs they
/// tested and for each site's closest approach.
pub const HYDRO_PEAK_SCAN_HAVERSINES: &str = "hydro.peak_scan.haversines";
/// Attacker strategy invocations.
pub const ATTACKER_ATTACKS: &str = "attacker.attacks";
/// Discrete events dispatched by the simulator (deliveries, timers,
/// faults).
pub const SIMNET_EVENTS_DISPATCHED: &str = "simnet.events_dispatched";
/// Messages dropped by crashes, partitions, or schedule faults.
pub const SIMNET_MESSAGES_DROPPED: &str = "simnet.messages_dropped";
/// Timer events swallowed because their node was crashed.
pub const SIMNET_TIMERS_SUPPRESSED: &str = "simnet.timers_suppressed";
/// Sends discarded by the randomized schedule tier.
pub const SIMNET_SCHEDULE_DISCARDS: &str = "simnet.schedule.discards";
/// Sends delayed by the randomized schedule tier.
pub const SIMNET_SCHEDULE_DELAYS: &str = "simnet.schedule.delays";
/// Sends duplicated by the randomized schedule tier.
pub const SIMNET_SCHEDULE_DUPLICATES: &str = "simnet.schedule.duplicates";
/// Events executed across all paths of exhaustive explorations.
pub const SIMNET_EXPLORE_VISITED: &str = "simnet.explore.visited";
/// Explored subtrees skipped by state-hash deduplication.
pub const SIMNET_EXPLORE_PRUNED: &str = "simnet.explore.pruned";
/// Choice points branched on during exhaustive explorations.
pub const SIMNET_EXPLORE_CHOICE_POINTS: &str = "simnet.explore.choice_points";
/// Conflicts past the exploration depth bound (heap-order fallback).
pub const SIMNET_EXPLORE_DEPTH_TRUNCATED: &str = "simnet.explore.depth_truncated";
/// Choice points whose ready set was capped at the branching bound.
pub const SIMNET_EXPLORE_BRANCH_CAPPED: &str = "simnet.explore.branch_capped";
/// Terminal states reached by exhaustive explorations.
pub const SIMNET_EXPLORE_TERMINALS: &str = "simnet.explore.terminals";
/// Protocol verdict executions.
pub const REPLICATION_VERDICT_RUNS: &str = "replication.verdict_runs";
/// Table I cell states model-checked by `ct check`.
pub const CHECK_STATES_CHECKED: &str = "check.states_checked";
/// Randomized schedules executed by `ct check` campaigns.
pub const CHECK_SCHEDULES_RUN: &str = "check.schedules_run";
/// Property violations found by `ct check`.
pub const CHECK_VIOLATIONS: &str = "check.violations";
/// Site plans profiled.
pub const PROFILE_PLANS_EVALUATED: &str = "profile.plans_evaluated";
/// Flood-pattern histogram cache hits.
pub const PROFILE_PATTERN_CACHE_HITS: &str = "profile.pattern_cache_hits";
/// Flood-pattern histograms computed (cache misses).
pub const PROFILE_PATTERN_CACHE_MISSES: &str = "profile.pattern_cache_misses";
/// Figures reproduced.
pub const FIGURES_REPRODUCED: &str = "figures.reproduced";
/// Backup-site placement candidates ranked.
pub const PLACEMENT_CANDIDATES_RANKED: &str = "placement.candidates_ranked";
/// Artifact-store record lookups that returned a valid record.
pub const STORE_HITS: &str = "store.hits";
/// Artifact-store record lookups that found nothing.
pub const STORE_MISSES: &str = "store.misses";
/// Positioned reads a local store issued for record reads: one per
/// run of adjacent entries a batched read coalesced, one per entry
/// read alone (retried attempts included).
pub const STORE_READ_CALLS: &str = "store.read_calls";
/// Payload bytes artifact-store lookups returned (`get` and
/// `get_many`, local or remote; frames and corrupt records excluded).
pub const STORE_BYTES_READ: &str = "store.bytes_read";
/// Artifact-store records written (atomic temp-then-rename commits).
pub const STORE_RECORDS_WRITTEN: &str = "store.records_written";
/// Records that failed frame or payload validation (truncated, bad
/// magic, wrong version, checksum mismatch, undecodable payload).
pub const STORE_CORRUPT_RECORDS: &str = "store.corrupt_records";
/// Records removed from the store (corruption cleanup or explicit
/// eviction).
pub const STORE_EVICTIONS: &str = "store.evictions";
/// Transient store I/O errors absorbed by the bounded retry loop
/// (one per retried attempt, successful or not).
pub const STORE_RETRIES: &str = "store.retries";
/// Store failures absorbed by callers degrading to
/// compute-without-cache instead of aborting the run.
pub const STORE_DEGRADED: &str = "store.degraded";
/// Orphaned `tmp/` staging files swept (crashed-writer residue).
pub const STORE_TMP_SWEPT: &str = "store.tmp_swept";
/// Entries appended to packed-store segments (puts and tombstones).
pub const STORE_SEGMENT_APPENDS: &str = "store.segment.appends";
/// Segments sealed with a footer index (rolls and compactions).
pub const STORE_SEGMENT_SEALS: &str = "store.segment.seals";
/// Group fsyncs of the active segment (one per batch, not per put).
pub const STORE_SEGMENT_GROUP_SYNCS: &str = "store.segment.group_syncs";
/// Segments whose index was rebuilt from a valid footer at open.
pub const STORE_SEGMENT_FOOTER_LOADS: &str = "store.segment.footer_loads";
/// Segments rebuilt by a full frame scan at open (unsealed tail, or
/// a missing/damaged footer).
pub const STORE_SEGMENT_SCANS: &str = "store.segment.scans";
/// Segments whose torn tail was truncated back to the last clean
/// entry boundary at open.
pub const STORE_SEGMENT_TRUNCATED_TAILS: &str = "store.segment.truncated_tails";
/// Segments rewritten by `fsck --repair` compaction.
pub const STORE_SEGMENT_COMPACTIONS: &str = "store.segment.compactions";
/// Remote-store `get` round-trips issued by the HTTP client backend.
pub const STORE_REMOTE_GETS: &str = "store.remote.gets";
/// Remote-store `put` round-trips issued by the HTTP client backend.
pub const STORE_REMOTE_PUTS: &str = "store.remote.puts";
/// Remote-store gets answered with a record by the server.
pub const STORE_REMOTE_HITS: &str = "store.remote.hits";
/// Remote-store gets answered with a 404 miss by the server.
pub const STORE_REMOTE_MISSES: &str = "store.remote.misses";
/// Remote-store evict/invalidate round-trips issued by the client.
pub const STORE_REMOTE_EVICTIONS: &str = "store.remote.evictions";
/// Remote-store operations that failed after the retry budget was
/// exhausted (callers degrade to compute-without-cache).
pub const STORE_REMOTE_ERRORS: &str = "store.remote.errors";
/// Remote-store operations refused with a permanent 4xx status (the
/// request itself is wrong; retrying would repeat the refusal, so the
/// retry loop is skipped entirely).
pub const STORE_REMOTE_PERMANENT: &str = "store.remote.permanent";
/// Requests that reused a kept-alive connection instead of dialing:
/// a pooled connection checked out healthy, plus each further GET a
/// batch pipelined on its connection.
pub const STORE_REMOTE_POOL_HITS: &str = "store.remote.pool.hits";
/// Fresh TCP connections dialed by the client pool (pool empty, or
/// every idle candidate was stale).
pub const STORE_REMOTE_POOL_DIALS: &str = "store.remote.pool.dials";
/// Idle pooled connections retired at checkout because the health
/// probe saw EOF, buffered garbage, or a socket error.
pub const STORE_REMOTE_POOL_RETIRED: &str = "store.remote.pool.retired";
/// Serving-cache lookups satisfied from the in-memory LRU.
pub const STORE_LRU_HITS: &str = "store.lru.hits";
/// Serving-cache lookups that fell through to the backing store.
pub const STORE_LRU_MISSES: &str = "store.lru.misses";
/// Entries dropped from the serving cache to honor the byte budget.
pub const STORE_LRU_EVICTIONS: &str = "store.lru.evictions";
/// HTTP requests accepted by `ct serve` (all routes).
pub const SERVE_REQUESTS: &str = "serve.requests";
/// Malformed, oversized, or unroutable requests answered with a 4xx
/// status (the connection thread survives and keeps serving).
pub const SERVE_BAD_REQUESTS: &str = "serve.bad_requests";
/// `/probe` queries answered (cached or computed).
pub const SERVE_PROBES: &str = "serve.probes";
/// Case studies built to answer a `/probe` miss (subsequent probes of
/// the same tuple hit the in-memory study cache).
pub const SERVE_PROBE_BUILDS: &str = "serve.probe_builds";
/// Requests served on an already-established connection (request #2
/// and beyond on a kept-alive socket; request #1 is never a reuse).
pub const SERVE_KEEPALIVE_REUSES: &str = "serve.keepalive_reuses";
/// Kept-alive connections closed by the server after
/// the serve idle timeout without a byte from the client, or with a
/// response write stalled that long by a client that stopped reading.
pub const SERVE_IDLE_CLOSES: &str = "serve.idle_closes";
/// Failpoints armed on a fault registry (test- or `CT_FAULTS`-driven).
pub const FAULTS_ARMED: &str = "faults.armed";
/// Failpoint firings: armed faults actually injected at their site.
pub const FAULTS_FIRED: &str = "faults.fired";
/// Candidate points scanned by spatial-index range queries (bucket
/// superset, before the exact distance filter). No code path issues
/// such queries any more; the three `spatial.*` names stay registered,
/// at 0, for readers of existing snapshots.
pub const SPATIAL_CANDIDATES: &str = "spatial.candidates";
/// Points returned by spatial-index range queries (after the exact
/// distance filter).
pub(crate) const SPATIAL_HITS: &str = "spatial.hits";
/// Spatial-index range queries issued (one per `within_km` call), so
/// `spatial.candidates / spatial.queries` is the mean scan width — the
/// number a brute-force scan would pin at the indexed point count.
pub const SPATIAL_QUERIES: &str = "spatial.queries";
/// Effective worker-thread count of the last pipeline build (gauge).
pub const BUILD_THREADS: &str = "build.threads";
/// Histogram: distinct flood patterns per profiled site plan.
pub const PROFILE_PATTERNS_PER_PLAN: &str = "profile.patterns_per_plan";
/// Histogram: committed record sizes (framed bytes on disk).
pub const STORE_RECORD_BYTES: &str = "store.record_bytes";
/// Histogram: milliseconds slept per store retry (deadline-budgeted
/// backoff; p50/p99 readable from the bucket rows).
pub const STORE_RETRY_WAIT_MS: &str = "store.retry_wait_ms";
/// Histogram: round-trip milliseconds per remote-store operation
/// (connect + request + response, as seen by the client).
pub const STORE_REMOTE_RTT_MS: &str = "store.remote.rtt_ms";
/// Histogram: milliseconds to serve one HTTP request (read to flush,
/// as seen by the server's connection thread).
pub const SERVE_REQUEST_MS: &str = "serve.request_ms";
/// Histogram: milliseconds a server connection stayed open, accept to
/// close (keep-alive stretches the tail; one observation per socket).
pub const SERVE_CONN_LIFETIME_MS: &str = "serve.conn_lifetime_ms";

/// Bucket bounds for [`PROFILE_PATTERNS_PER_PLAN`].
pub const PROFILE_PATTERNS_PER_PLAN_BOUNDS: [f64; 6] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];
/// Bucket bounds for [`STORE_RECORD_BYTES`].
pub const STORE_RECORD_BYTES_BOUNDS: [f64; 6] = [256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0];
/// Bucket bounds for [`STORE_RETRY_WAIT_MS`].
pub const STORE_RETRY_WAIT_MS_BOUNDS: [f64; 7] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];
/// Bucket bounds for [`STORE_REMOTE_RTT_MS`].
pub const STORE_REMOTE_RTT_MS_BOUNDS: [f64; 8] = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0];
/// Bucket bounds for [`SERVE_REQUEST_MS`].
pub const SERVE_REQUEST_MS_BOUNDS: [f64; 8] = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 64.0, 1000.0];
/// Bucket bounds for [`SERVE_CONN_LIFETIME_MS`].
pub const SERVE_CONN_LIFETIME_MS_BOUNDS: [f64; 7] =
    [1.0, 10.0, 100.0, 1000.0, 10000.0, 60000.0, 300000.0];

/// Registers the full canonical metric set on `registry` so
/// snapshots list every standard counter even when a run never
/// exercises its code path (e.g. `ct figures` never model-checks a
/// Table I cell, but its `--metrics` output still reports
/// `check.states_checked,0`).
pub fn register_defaults(registry: &crate::Registry) {
    for name in [
        HAZARD_REALIZATIONS_EVALUATED,
        HAZARD_ASSET_EXPOSURES,
        HAZARD_COMPOUND_COMPONENT_EVALUATIONS,
        GEO_DEM_SYNTHESIZED,
        GEO_TERRAIN_CELLS_EVALUATED,
        GEO_TERRAIN_EDGES_EVALUATED,
        GEO_TERRAIN_EDGES_CULLED,
        HYDRO_ENSEMBLES_SAMPLED,
        HYDRO_ENSEMBLE_NORMAL_DRAWS,
        HYDRO_REALIZATIONS_EVALUATED,
        HYDRO_POI_EVALUATIONS,
        HYDRO_PEAK_SCAN_EVALUATED,
        HYDRO_PEAK_SCAN_SKIPPED,
        HYDRO_PEAK_SCAN_CULLED,
        HYDRO_PEAK_SCAN_HAVERSINES,
        ATTACKER_ATTACKS,
        SIMNET_EVENTS_DISPATCHED,
        SIMNET_MESSAGES_DROPPED,
        SIMNET_TIMERS_SUPPRESSED,
        SIMNET_SCHEDULE_DISCARDS,
        SIMNET_SCHEDULE_DELAYS,
        SIMNET_SCHEDULE_DUPLICATES,
        SIMNET_EXPLORE_VISITED,
        SIMNET_EXPLORE_PRUNED,
        SIMNET_EXPLORE_CHOICE_POINTS,
        SIMNET_EXPLORE_DEPTH_TRUNCATED,
        SIMNET_EXPLORE_BRANCH_CAPPED,
        SIMNET_EXPLORE_TERMINALS,
        REPLICATION_VERDICT_RUNS,
        CHECK_STATES_CHECKED,
        CHECK_SCHEDULES_RUN,
        CHECK_VIOLATIONS,
        PROFILE_PLANS_EVALUATED,
        PROFILE_PATTERN_CACHE_HITS,
        PROFILE_PATTERN_CACHE_MISSES,
        FIGURES_REPRODUCED,
        PLACEMENT_CANDIDATES_RANKED,
        STORE_HITS,
        STORE_MISSES,
        STORE_READ_CALLS,
        STORE_BYTES_READ,
        STORE_RECORDS_WRITTEN,
        STORE_CORRUPT_RECORDS,
        STORE_EVICTIONS,
        STORE_RETRIES,
        STORE_DEGRADED,
        STORE_TMP_SWEPT,
        STORE_SEGMENT_APPENDS,
        STORE_SEGMENT_SEALS,
        STORE_SEGMENT_GROUP_SYNCS,
        STORE_SEGMENT_FOOTER_LOADS,
        STORE_SEGMENT_SCANS,
        STORE_SEGMENT_TRUNCATED_TAILS,
        STORE_SEGMENT_COMPACTIONS,
        STORE_REMOTE_GETS,
        STORE_REMOTE_PUTS,
        STORE_REMOTE_HITS,
        STORE_REMOTE_MISSES,
        STORE_REMOTE_EVICTIONS,
        STORE_REMOTE_ERRORS,
        STORE_REMOTE_PERMANENT,
        STORE_REMOTE_POOL_HITS,
        STORE_REMOTE_POOL_DIALS,
        STORE_REMOTE_POOL_RETIRED,
        STORE_LRU_HITS,
        STORE_LRU_MISSES,
        STORE_LRU_EVICTIONS,
        SERVE_REQUESTS,
        SERVE_BAD_REQUESTS,
        SERVE_PROBES,
        SERVE_PROBE_BUILDS,
        SERVE_KEEPALIVE_REUSES,
        SERVE_IDLE_CLOSES,
        FAULTS_ARMED,
        FAULTS_FIRED,
        SPATIAL_CANDIDATES,
        SPATIAL_HITS,
        SPATIAL_QUERIES,
    ] {
        registry.counter(name);
    }
    registry.gauge(BUILD_THREADS);
    registry.histogram(PROFILE_PATTERNS_PER_PLAN, &PROFILE_PATTERNS_PER_PLAN_BOUNDS);
    registry.histogram(STORE_RECORD_BYTES, &STORE_RECORD_BYTES_BOUNDS);
    registry.histogram(STORE_RETRY_WAIT_MS, &STORE_RETRY_WAIT_MS_BOUNDS);
    registry.histogram(STORE_REMOTE_RTT_MS, &STORE_REMOTE_RTT_MS_BOUNDS);
    registry.histogram(SERVE_REQUEST_MS, &SERVE_REQUEST_MS_BOUNDS);
    registry.histogram(SERVE_CONN_LIFETIME_MS, &SERVE_CONN_LIFETIME_MS_BOUNDS);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_register_every_name() {
        let reg = crate::Registry::new();
        register_defaults(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counters.len(), 78);
        assert_eq!(snap.counter(GEO_DEM_SYNTHESIZED), Some(0));
        assert_eq!(snap.counter(GEO_TERRAIN_CELLS_EVALUATED), Some(0));
        assert_eq!(snap.counter(GEO_TERRAIN_EDGES_EVALUATED), Some(0));
        assert_eq!(snap.counter(GEO_TERRAIN_EDGES_CULLED), Some(0));
        assert_eq!(snap.counter(HYDRO_ENSEMBLES_SAMPLED), Some(0));
        assert_eq!(snap.counter(HYDRO_ENSEMBLE_NORMAL_DRAWS), Some(0));
        assert_eq!(snap.counter(HYDRO_PEAK_SCAN_EVALUATED), Some(0));
        assert_eq!(snap.counter(HYDRO_PEAK_SCAN_SKIPPED), Some(0));
        assert_eq!(snap.counter(HYDRO_PEAK_SCAN_CULLED), Some(0));
        assert_eq!(snap.counter(HYDRO_PEAK_SCAN_HAVERSINES), Some(0));
        assert_eq!(snap.counter(SPATIAL_CANDIDATES), Some(0));
        assert_eq!(snap.counter(SPATIAL_HITS), Some(0));
        assert_eq!(snap.counter(SERVE_KEEPALIVE_REUSES), Some(0));
        assert_eq!(snap.counter(STORE_REMOTE_POOL_HITS), Some(0));
        assert_eq!(snap.counter(STORE_REMOTE_PERMANENT), Some(0));
        assert_eq!(snap.counter(STORE_REMOTE_GETS), Some(0));
        assert_eq!(snap.counter(SERVE_REQUESTS), Some(0));
        assert_eq!(snap.counter(STORE_LRU_EVICTIONS), Some(0));
        assert_eq!(snap.counter(FAULTS_FIRED), Some(0));
        assert_eq!(snap.counter(STORE_DEGRADED), Some(0));
        assert_eq!(snap.counter(HAZARD_REALIZATIONS_EVALUATED), Some(0));
        assert_eq!(snap.counter(STORE_HITS), Some(0));
        assert_eq!(snap.counter(STORE_READ_CALLS), Some(0));
        assert_eq!(snap.counter(STORE_BYTES_READ), Some(0));
        assert_eq!(snap.counter(STORE_SEGMENT_APPENDS), Some(0));
        assert_eq!(snap.counter(STORE_SEGMENT_COMPACTIONS), Some(0));
        assert_eq!(snap.gauge(BUILD_THREADS), Some(0.0));
        assert_eq!(snap.histograms.len(), 6);
    }
}
