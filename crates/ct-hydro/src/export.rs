//! Plain-text export of hazard ensembles.

use crate::realization::RealizationSet;
use std::fmt::Write as _;

/// Renders the per-asset peak inundation matrix as CSV: one row per
/// realization, one column per POI, preceded by the tide and peak
/// station surge diagnostics.
///
/// Header: `realization,tide_m,max_station_surge_m,<poi ids...>`.
pub fn realizations_to_csv(set: &RealizationSet) -> String {
    let mut out = String::from("realization,tide_m,max_station_surge_m");
    for poi in set.pois() {
        out.push(',');
        out.push_str(&poi.id);
    }
    out.push('\n');
    for r in set.realizations() {
        write!(
            out,
            "{},{:.3},{:.3}",
            r.index, r.tide_m, r.max_station_surge_m
        )
        .expect("writing to String cannot fail");
        for d in &r.inundation_m {
            write!(out, ",{d:.3}").expect("writing to String cannot fail");
        }
        out.push('\n');
    }
    out
}

/// Renders the per-asset flood *probabilities* as CSV
/// (`asset,flood_probability`).
pub fn flood_probabilities_to_csv(set: &RealizationSet) -> String {
    let mut out = String::from("asset,flood_probability\n");
    for (i, poi) in set.pois().iter().enumerate() {
        writeln!(out, "{},{:.4}", poi.id, set.flood_fraction(i))
            .expect("writing to String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set() -> RealizationSet {
        crate::realization::tests::surge_set(["a", "b"], 5)
    }

    #[test]
    fn realization_csv_shape() {
        let s = set();
        let csv = realizations_to_csv(&s);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 6);
        assert_eq!(lines[0], "realization,tide_m,max_station_surge_m,a,b");
        assert_eq!(lines[1].split(',').count(), 5);
        assert!(lines[1].starts_with("0,"));
    }

    #[test]
    fn probability_csv_shape() {
        let s = set();
        let csv = flood_probabilities_to_csv(&s);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "asset,flood_probability");
        assert!(lines[2].starts_with("b,"));
    }
}
