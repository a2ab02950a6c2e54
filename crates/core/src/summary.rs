//! One-shot markdown report: the whole case study as a single
//! document (hazard statistics, all six figures, downtime, placement),
//! for dropping into a lab notebook or CI artifact.

use crate::availability::{downtime_report, DowntimeModel};
use crate::error::CoreError;
use crate::figures::{reproduce_all, Figure};
use crate::pipeline::CaseStudy;
use crate::placement::rank_backup_sites;
use crate::report::figure_markdown;
use ct_scada::{oahu, Architecture};
use ct_threat::ThreatScenario;
use std::fmt::Write as _;

/// Options for [`write_report`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReportOptions {
    /// Downtime durations used in the availability section.
    pub(crate) downtime: DowntimeModel,
    /// Include the placement-search section (adds a full ranking per
    /// architecture).
    pub(crate) include_placement: bool,
}

impl Default for ReportOptions {
    fn default() -> Self {
        Self {
            downtime: DowntimeModel::default(),
            include_placement: true,
        }
    }
}

/// Renders the complete case study as a markdown document.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn write_report(study: &CaseStudy, options: &ReportOptions) -> Result<String, CoreError> {
    let _span = ct_obs::span("report");
    let mut out = String::new();
    writeln!(out, "# Compound-threat case study — Oahu, Hawaii\n")?;
    writeln!(
        out,
        "Ensemble: {} hurricane realizations, seed {}, hazard engine `{}`.\n",
        study.realizations().len(),
        study.config().ensemble.seed,
        study.hazard()
    )?;

    // Hazard section.
    writeln!(out, "## Hazard\n")?;
    writeln!(out, "| control site | flood probability |")?;
    writeln!(out, "|---|---|")?;
    for id in [
        oahu::HONOLULU_CC,
        oahu::WAIAU,
        oahu::KAHE,
        oahu::DRFORTRESS,
        oahu::ALOHANAP,
    ] {
        writeln!(
            out,
            "| {} | {:.1} % |",
            id,
            100.0 * study.flood_probability(id)?
        )?;
    }
    writeln!(out)?;

    // Figures.
    writeln!(out, "## Operational profiles (paper Figs. 6-11)\n")?;
    for data in reproduce_all(study)? {
        writeln!(out, "{}", figure_markdown(&data))?;
    }

    // Downtime.
    writeln!(out, "## Expected downtime per threat event\n")?;
    writeln!(
        out,
        "Durations: orange {:.1} h, red {:.0} h, gray {:.0} h.\n",
        options.downtime.orange_hours, options.downtime.red_hours, options.downtime.gray_hours
    )?;
    for choice in [oahu::SiteChoice::Waiau, oahu::SiteChoice::Kahe] {
        writeln!(out, "### Backup at {choice:?}\n")?;
        writeln!(
            out,
            "| scenario | {} |",
            Architecture::ALL
                .iter()
                .map(|a| format!("\"{}\"", a.label()))
                .collect::<Vec<_>>()
                .join(" | ")
        )?;
        writeln!(out, "|---|---|---|---|---|---|")?;
        for scenario in ThreatScenario::ALL {
            let report = downtime_report(study, scenario, choice, &options.downtime)?;
            let cells: Vec<String> = Architecture::ALL
                .iter()
                .map(|&a| format!("{:.1} h", report.hours(a).unwrap_or(f64::NAN)))
                .collect();
            writeln!(out, "| {} | {} |", scenario, cells.join(" | "))?;
        }
        writeln!(out)?;
    }

    // Placement.
    if options.include_placement {
        writeln!(out, "## Backup-site ranking (future-work extension)\n")?;
        for arch in [Architecture::C6_6, Architecture::C6P6P6] {
            let ranking =
                rank_backup_sites(study, arch, ThreatScenario::HurricaneIntrusionIsolation)?;
            writeln!(out, "### {arch} under the full compound threat\n")?;
            writeln!(out, "| rank | backup site | green | orange | red | gray |")?;
            writeln!(out, "|---|---|---|---|---|---|")?;
            for (i, r) in ranking.iter().enumerate().take(8) {
                writeln!(
                    out,
                    "| {} | {} | {:.1} % | {:.1} % | {:.1} % | {:.1} % |",
                    i + 1,
                    r.backup_asset_id,
                    100.0 * r.profile.green(),
                    100.0 * r.profile.orange(),
                    100.0 * r.profile.red(),
                    100.0 * r.profile.gray()
                )?;
            }
            writeln!(out)?;
        }
    }

    writeln!(
        out,
        "_Generated from {} figures across {} architectures._",
        Figure::ALL.len(),
        Architecture::ALL.len()
    )?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::CaseStudyConfig;

    #[test]
    fn report_contains_all_sections() {
        let study = CaseStudy::build(&CaseStudyConfig::builder().realizations(80).build().unwrap())
            .unwrap();
        let report = write_report(&study, &ReportOptions::default()).unwrap();
        for needle in [
            "# Compound-threat case study",
            "hazard engine `surge`",
            "## Hazard",
            "Fig. 6",
            "Fig. 11",
            "## Expected downtime",
            "## Backup-site ranking",
            "honolulu-cc",
            "\"6+6+6\"",
        ] {
            assert!(report.contains(needle), "missing section: {needle}");
        }
        // Markdown tables are well-formed: every table row line starts
        // and ends with a pipe.
        for line in report.lines().filter(|l| l.starts_with('|')) {
            assert!(line.ends_with('|'), "ragged table row: {line}");
        }
    }

    #[test]
    fn placement_section_is_optional() {
        let study = CaseStudy::build(&CaseStudyConfig::builder().realizations(40).build().unwrap())
            .unwrap();
        let opts = ReportOptions {
            include_placement: false,
            ..ReportOptions::default()
        };
        let report = write_report(&study, &opts).unwrap();
        assert!(!report.contains("## Backup-site ranking"));
    }
}
