//! Text renderers for figures and tables (no plotting dependencies:
//! the "figures" are probability tables plus ASCII bars).

use crate::figures::FigureData;
use crate::placement::PlacementResult;
use crate::profile::OutcomeProfile;
use ct_hazard::HazardSpec;
use ct_scada::Architecture;
use ct_threat::{OperationalState, ThreatScenario};
use std::fmt::Write as _;

/// The caption suffix that marks a figure computed under a non-paper
/// hazard engine. Empty for surge, so the original figures render
/// byte-identically to the pre-hazard-engine pipeline.
fn hazard_label(data: &FigureData) -> String {
    match data.hazard {
        HazardSpec::Surge => String::new(),
        other => format!(" [hazard: {other}]"),
    }
}

/// Renders a figure as an aligned text table with one row per
/// architecture.
pub fn figure_table(data: &FigureData) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{}: {}{}",
        data.figure,
        data.figure.caption(),
        hazard_label(data)
    )
    .expect("writing to String cannot fail");
    writeln!(
        out,
        "{:<8} {:>8} {:>8} {:>8} {:>8}",
        "config", "green", "orange", "red", "gray"
    )
    .expect("writing to String cannot fail");
    for (arch, p) in &data.rows {
        writeln!(
            out,
            "{:<8} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%",
            format!("\"{}\"", arch.label()),
            100.0 * p.green(),
            100.0 * p.orange(),
            100.0 * p.red(),
            100.0 * p.gray()
        )
        .expect("writing to String cannot fail");
    }
    out
}

/// Renders a figure as CSV (`figure,config,green,orange,red,gray`).
pub fn figure_csv(data: &FigureData) -> String {
    let mut out = String::from("figure,config,green,orange,red,gray\n");
    for (arch, p) in &data.rows {
        writeln!(
            out,
            "{},{},{:.4},{:.4},{:.4},{:.4}",
            data.figure.number(),
            arch.label(),
            p.green(),
            p.orange(),
            p.red(),
            p.gray()
        )
        .expect("writing to String cannot fail");
    }
    out
}

/// Renders a backup-site ranking (`ct placement`), best first, or the
/// line saying `architecture` has no backup site to place.
pub fn placement_table(
    architecture: Architecture,
    scenario: ThreatScenario,
    ranking: &[PlacementResult],
) -> String {
    if ranking.is_empty() {
        return format!("configuration {architecture} has no backup site to place\n");
    }
    let mut out = format!("Backup-site ranking for {architecture} under {scenario}:\n");
    for (i, r) in ranking.iter().enumerate() {
        writeln!(
            out,
            "  {:>2}. {:<16} green {:5.1}%  orange {:5.1}%  red {:5.1}%  gray {:5.1}%",
            i + 1,
            r.backup_asset_id,
            100.0 * r.profile.green(),
            100.0 * r.profile.orange(),
            100.0 * r.profile.red(),
            100.0 * r.profile.gray()
        )
        .expect("writing to String cannot fail");
    }
    out
}

/// An ASCII stacked bar for one profile (40 characters wide):
/// `G` green, `O` orange, `R` red, `X` gray, `.` filler.
pub fn profile_bar(profile: &OutcomeProfile) -> String {
    const WIDTH: usize = 40;
    let mut bar = String::with_capacity(WIDTH);
    let segments = [
        (OperationalState::Green, 'G'),
        (OperationalState::Orange, 'O'),
        (OperationalState::Red, 'R'),
        (OperationalState::Gray, 'X'),
    ];
    for (state, ch) in segments {
        let n = (profile.fraction(state) * WIDTH as f64).round() as usize;
        for _ in 0..n {
            bar.push(ch);
        }
    }
    bar.truncate(WIDTH);
    while bar.len() < WIDTH {
        bar.push('.');
    }
    bar
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Figure;
    use ct_scada::Architecture;
    use OperationalState::*;

    fn sample() -> FigureData {
        FigureData {
            figure: Figure::Fig6,
            hazard: HazardSpec::Surge,
            rows: vec![
                (
                    Architecture::C2,
                    OutcomeProfile::from_outcomes(std::iter::repeat_n(Green, 9).chain([Red])),
                ),
                (Architecture::C6P6P6, OutcomeProfile::from_outcomes([Green])),
            ],
        }
    }

    #[test]
    fn text_table_contains_rows_and_caption() {
        let t = figure_table(&sample());
        assert!(t.contains("Fig. 6"));
        assert!(t.contains("\"2\""));
        assert!(t.contains("90.0%"));
        assert!(t.contains("\"6+6+6\""));
    }

    #[test]
    fn only_non_surge_hazards_are_labelled() {
        // Surge renders exactly as the pre-hazard-engine pipeline did.
        assert!(!figure_table(&sample()).contains("[hazard:"));
        let wind = FigureData {
            hazard: HazardSpec::Wind,
            ..sample()
        };
        assert!(figure_table(&wind).contains("[hazard: wind]"));
    }

    #[test]
    fn csv_has_numeric_fractions() {
        let csv = figure_csv(&sample());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "figure,config,green,orange,red,gray");
        assert!(lines[1].starts_with("6,2,0.9000,"));
    }

    #[test]
    fn bar_width_fixed_and_composition_sane() {
        let p = OutcomeProfile::from_outcomes(
            std::iter::repeat_n(Green, 20).chain(std::iter::repeat_n(Red, 20)),
        );
        let bar = profile_bar(&p);
        assert_eq!(bar.chars().count(), 40);
        assert_eq!(bar.matches('G').count(), 20);
        assert_eq!(bar.matches('R').count(), 20);
        // Empty profile is all filler.
        assert_eq!(profile_bar(&OutcomeProfile::new()), ".".repeat(40));
    }
}
