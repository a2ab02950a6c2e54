//! Control-site placement search — the paper's stated future-work
//! question ("How should we choose additional control site locations
//! to maximize availability?"), implemented as an exhaustive ranking
//! of candidate backup sites.

use crate::error::CoreError;
use crate::parallel::par_map_dynamic;
use crate::pipeline::CaseStudy;
use crate::profile::OutcomeProfile;
use ct_scada::{oahu, Architecture, SitePlan};
use ct_threat::ThreatScenario;

/// One candidate backup siting and its outcome profile.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementResult {
    /// The asset hosting the backup control center.
    pub backup_asset_id: String,
    /// The resulting outcome profile.
    pub profile: OutcomeProfile,
}

/// Ranks every control-capable asset (other than the primary) as the
/// backup control center for `architecture` under `scenario`,
/// best first.
///
/// "Best" orders by green probability, then orange (a disrupted
/// system beats a dead one), then inverse gray.
///
/// # Errors
///
/// Propagates pipeline errors. Architectures with a single site have
/// no backup to place and return an empty ranking.
pub fn rank_backup_sites(
    study: &CaseStudy,
    architecture: Architecture,
    scenario: ThreatScenario,
) -> Result<Vec<PlacementResult>, CoreError> {
    if architecture.site_count() < 2 {
        return Ok(Vec::new());
    }
    let span = ct_obs::span("placement_rank");
    let topology = study.topology();
    let mut candidates = Vec::new();
    for asset in topology.control_candidates() {
        if asset.id == oahu::HONOLULU_CC {
            continue;
        }
        let mut ids = vec![oahu::HONOLULU_CC.to_string(), asset.id.clone()];
        if architecture.site_count() == 3 {
            if asset.id == oahu::DRFORTRESS {
                // The data center is the third site; it cannot also be
                // the backup.
                continue;
            }
            ids.push(oahu::DRFORTRESS.to_string());
        }
        candidates.push((
            asset.id.clone(),
            SitePlan::new(architecture, topology, ids)?,
        ));
    }
    ct_obs::add(
        ct_obs::names::PLACEMENT_CANDIDATES_RANKED,
        candidates.len() as u64,
    );
    // Candidate cost is skewed (coastal plans flood in many more
    // realizations than inland ones), so steal work dynamically.
    let busy_ns = std::sync::atomic::AtomicU64::new(0);
    let mut results = par_map_dynamic(&candidates, study.threads(), |(id, plan)| {
        let t0 = std::time::Instant::now();
        let result = study
            .profile_with_plan(plan, scenario)
            .map(|profile| PlacementResult {
                backup_asset_id: id.clone(),
                profile,
            });
        busy_ns.fetch_add(
            t0.elapsed().as_nanos() as u64,
            std::sync::atomic::Ordering::Relaxed,
        );
        result
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    span.add_cpu_ns(busy_ns.into_inner());
    results.sort_by(|a, b| {
        b.profile
            .green()
            .total_cmp(&a.profile.green())
            .then(b.profile.orange().total_cmp(&a.profile.orange()))
            .then(a.profile.gray().total_cmp(&b.profile.gray()))
            .then(a.backup_asset_id.cmp(&b.backup_asset_id))
    });
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::CaseStudyConfig;

    fn study() -> CaseStudy {
        CaseStudy::build(
            &CaseStudyConfig::builder()
                .realizations(150)
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn single_site_architectures_have_no_ranking() {
        let s = study();
        assert!(
            rank_backup_sites(&s, Architecture::C6, ThreatScenario::Hurricane)
                .unwrap()
                .is_empty()
        );
    }

    #[test]
    fn kahe_beats_waiau_as_backup() {
        // The paper's Sec. VII finding, now as a search result: for
        // "6-6" under hurricane + isolation, Kahe dominates Waiau.
        let s = study();
        let ranking =
            rank_backup_sites(&s, Architecture::C6_6, ThreatScenario::HurricaneIsolation).unwrap();
        let pos = |id: &str| {
            ranking
                .iter()
                .position(|r| r.backup_asset_id == id)
                .unwrap_or(usize::MAX)
        };
        assert!(
            pos(oahu::KAHE) < pos(oahu::WAIAU),
            "expected Kahe above Waiau: {:?}",
            ranking
                .iter()
                .map(|r| (&r.backup_asset_id, r.profile.orange()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn third_site_excluded_from_backup_candidates() {
        let s = study();
        let ranking =
            rank_backup_sites(&s, Architecture::C6P6P6, ThreatScenario::Hurricane).unwrap();
        assert!(ranking
            .iter()
            .all(|r| r.backup_asset_id != oahu::DRFORTRESS));
    }
}
