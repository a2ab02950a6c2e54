//! Cascading-overload simulation: after the initial damage, lines
//! loaded beyond their thermal limit trip, flows redistribute, and the
//! process repeats until no line is overloaded.

use crate::network::{GridError, GridNetwork, LineId, OutageSet};
use crate::powerflow::{dc_power_flow, GridState};

/// Result of a cascade simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeOutcome {
    /// Final solved grid state.
    pub final_state: GridState,
    /// Lines tripped by overload, in trip order (per round).
    pub tripped: Vec<LineId>,
    /// Number of redistribution rounds executed.
    pub rounds: usize,
    /// Outages at the end (initial damage plus trips).
    pub(crate) final_outages: OutageSet,
}

impl CascadeOutcome {
    /// Demand served after the cascade settles (fraction of nominal).
    pub fn served_fraction(&self) -> f64 {
        self.final_state.served_fraction()
    }
}

/// Runs the overload cascade from an initial damage set.
///
/// Each round solves the DC power flow and trips every line loaded
/// beyond its limit; the loop ends when a round trips nothing. The
/// round count is bounded by the line count, so termination is
/// guaranteed.
///
/// # Errors
///
/// Propagates power-flow errors.
pub fn simulate_cascade(
    grid: &GridNetwork,
    initial: &OutageSet,
) -> Result<CascadeOutcome, GridError> {
    let mut outages = initial.clone();
    let mut tripped = Vec::new();
    let mut rounds = 0usize;
    loop {
        let state = dc_power_flow(grid, &outages)?;
        let overloaded = state.overloaded_lines(grid);
        if overloaded.is_empty() {
            return Ok(CascadeOutcome {
                final_state: state,
                tripped,
                rounds,
                final_outages: outages,
            });
        }
        rounds += 1;
        for line in overloaded {
            outages.lines.insert(line);
            tripped.push(line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Bus, BusId, BusKind, Line};
    use ct_geo::LatLon;

    fn bus(name: &str, kind: BusKind) -> Bus {
        Bus {
            name: name.to_string(),
            kind,
            pos: LatLon::new(21.3, -157.9),
        }
    }

    /// Two parallel corridors from one generator to one load; each
    /// corridor alone cannot carry the full demand.
    fn fragile_pair(demand: f64, per_line_cap: f64) -> GridNetwork {
        GridNetwork::new(
            vec![
                bus("g", BusKind::Generator { capacity_mw: 200.0 }),
                bus("l", BusKind::Load { demand_mw: demand }),
            ],
            vec![
                Line {
                    from: BusId(0),
                    to: BusId(1),
                    susceptance: 10.0,
                    capacity_mw: per_line_cap,
                },
                Line {
                    from: BusId(0),
                    to: BusId(1),
                    susceptance: 10.0,
                    capacity_mw: per_line_cap,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn no_damage_no_cascade() {
        let g = fragile_pair(100.0, 60.0); // 50 MW each, within limits
        let out = simulate_cascade(&g, &OutageSet::none()).unwrap();
        assert_eq!(out.rounds, 0);
        assert!(out.tripped.is_empty());
        assert!((out.served_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn losing_one_line_overloads_and_blacks_out_the_other() {
        // 100 MW demand, 60 MW per line: N-1 insecure by design.
        let g = fragile_pair(100.0, 60.0);
        let mut initial = OutageSet::none();
        initial.lines.insert(LineId(0));
        let out = simulate_cascade(&g, &initial).unwrap();
        // The surviving line takes 100 MW > 60 MW, trips, and the load
        // islands away from generation.
        assert_eq!(out.tripped, vec![LineId(1)]);
        assert_eq!(out.rounds, 1);
        assert_eq!(out.served_fraction(), 0.0);
    }

    #[test]
    fn strong_lines_absorb_the_contingency() {
        let g = fragile_pair(100.0, 120.0); // N-1 secure
        let mut initial = OutageSet::none();
        initial.lines.insert(LineId(0));
        let out = simulate_cascade(&g, &initial).unwrap();
        assert!(out.tripped.is_empty());
        assert!((out.served_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cascade_terminates_on_real_network() {
        let g = crate::oahu::grid();
        // Knock out the two biggest plants' interconnections brutally:
        // trip the first four lines.
        let mut initial = OutageSet::none();
        for i in 0..4 {
            initial.lines.insert(LineId(i));
        }
        let out = simulate_cascade(&g, &initial).unwrap();
        assert!(out.rounds <= g.lines().len());
        let f = out.served_fraction();
        assert!((0.0..=1.0).contains(&f));
    }
}
