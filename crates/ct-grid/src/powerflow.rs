//! DC (linearised) power flow with islanding, proportional dispatch
//! and load shedding.

use crate::linalg::solve;
use crate::network::{BusId, BusKind, GridError, GridNetwork, LineId, OutageSet};
use std::collections::BTreeMap;

/// Solved state of one electrical island.
#[derive(Debug, Clone, PartialEq)]
pub struct IslandState {
    /// Buses in the island.
    pub buses: Vec<BusId>,
    /// Demand present (MW).
    pub demand_mw: f64,
    /// Demand actually served after shedding (MW).
    pub served_mw: f64,
    /// Generation dispatched (MW), equal to `served_mw`.
    pub(crate) dispatched_mw: f64,
}

/// Solved state of the whole network under an outage set.
#[derive(Debug, Clone, PartialEq)]
pub struct GridState {
    /// Per-island summaries.
    pub islands: Vec<IslandState>,
    /// Signed flow per in-service line (MW, positive from -> to).
    pub flows_mw: BTreeMap<LineId, f64>,
    /// Total nominal demand of the *whole* network (including dead
    /// buses), MW.
    pub total_demand_mw: f64,
}

impl GridState {
    /// Total demand served across islands (MW).
    pub fn served_mw(&self) -> f64 {
        self.islands.iter().map(|i| i.served_mw).sum()
    }

    /// Fraction of the network's nominal demand served.
    pub fn served_fraction(&self) -> f64 {
        if self.total_demand_mw == 0.0 {
            1.0
        } else {
            self.served_mw() / self.total_demand_mw
        }
    }

    /// Lines whose flow exceeds their thermal limit.
    pub(crate) fn overloaded_lines(&self, grid: &GridNetwork) -> Vec<LineId> {
        self.flows_mw
            .iter()
            .filter(|(id, flow)| flow.abs() > grid.lines()[id.0].capacity_mw)
            .map(|(id, _)| *id)
            .collect()
    }

    /// Demand served (MW) after *emergency load shedding*: a working
    /// control room relieves every thermal overload by curtailing load
    /// (and generation) island-wide. Because the DC power flow is
    /// linear in the injections, scaling an island's injections by
    /// `1 / max_utilization` brings its worst line exactly to its
    /// limit — a closed-form model of SCADA-directed corrective
    /// action. Without SCADA the alternative is the unchecked
    /// [`crate::simulate_cascade`].
    pub fn served_after_emergency_shedding(&self, grid: &GridNetwork) -> f64 {
        // Map each bus to its island index.
        let mut island_of = BTreeMap::new();
        for (k, island) in self.islands.iter().enumerate() {
            for &b in &island.buses {
                island_of.insert(b, k);
            }
        }
        // Worst utilisation per island.
        let mut max_util = vec![0.0f64; self.islands.len()];
        for (lid, flow) in &self.flows_mw {
            let line = &grid.lines()[lid.0];
            if let Some(&k) = island_of.get(&line.from) {
                let u = flow.abs() / line.capacity_mw;
                if u > max_util[k] {
                    max_util[k] = u;
                }
            }
        }
        self.islands
            .iter()
            .enumerate()
            .map(|(k, island)| {
                if max_util[k] > 1.0 {
                    island.served_mw / max_util[k]
                } else {
                    island.served_mw
                }
            })
            .sum()
    }
}

/// Runs a DC power flow over every island of the in-service network.
///
/// Dispatch model: within each island, generation is dispatched
/// proportionally to capacity to meet island demand; when capacity is
/// insufficient, load is shed proportionally (`served < demand`).
/// Islands without generation (or without load) serve nothing.
///
/// # Errors
///
/// Returns [`GridError::SingularSystem`] if an island's susceptance
/// matrix cannot be solved (should not occur for connected islands
/// with positive susceptances).
pub fn dc_power_flow(grid: &GridNetwork, outages: &OutageSet) -> Result<GridState, GridError> {
    let islands = grid.islands(outages);
    let mut island_states = Vec::with_capacity(islands.len());
    let mut flows: BTreeMap<LineId, f64> = BTreeMap::new();

    for island in islands {
        let state = solve_island(grid, outages, &island, &mut flows)?;
        island_states.push(state);
    }

    Ok(GridState {
        islands: island_states,
        flows_mw: flows,
        total_demand_mw: grid.total_demand_mw(),
    })
}

fn solve_island(
    grid: &GridNetwork,
    outages: &OutageSet,
    island: &[BusId],
    flows: &mut BTreeMap<LineId, f64>,
) -> Result<IslandState, GridError> {
    // Dispatch: balance generation against demand inside the island.
    let mut demand = 0.0;
    let mut capacity = 0.0;
    for &b in island {
        match grid.buses()[b.0].kind {
            BusKind::Load { demand_mw } => demand += demand_mw,
            BusKind::Generator { capacity_mw } => capacity += capacity_mw,
            BusKind::Junction => {}
        }
    }
    let served = demand.min(capacity);
    let load_scale = if demand > 0.0 { served / demand } else { 0.0 };
    let gen_scale = if capacity > 0.0 {
        served / capacity
    } else {
        0.0
    };

    let state = IslandState {
        buses: island.to_vec(),
        demand_mw: demand,
        served_mw: served,
        dispatched_mw: served,
    };
    if island.len() == 1 || served == 0.0 {
        // Single bus or dead island: no flows to compute.
        return Ok(state);
    }

    // Net injection per island bus (MW): generation minus load.
    let index: BTreeMap<BusId, usize> = island.iter().enumerate().map(|(i, &b)| (b, i)).collect();
    let n = island.len();
    let mut injection = vec![0.0; n];
    for (&bus, &i) in &index {
        injection[i] = match grid.buses()[bus.0].kind {
            BusKind::Generator { capacity_mw } => capacity_mw * gen_scale,
            BusKind::Load { demand_mw } => -demand_mw * load_scale,
            BusKind::Junction => 0.0,
        };
    }

    // Build the susceptance matrix over island buses.
    let mut b_mat = vec![vec![0.0; n]; n];
    let mut island_lines: Vec<(LineId, usize, usize, f64)> = Vec::new();
    for (li, line) in grid.lines().iter().enumerate() {
        let lid = LineId(li);
        if outages.lines.contains(&lid)
            || outages.buses.contains(&line.from)
            || outages.buses.contains(&line.to)
        {
            continue;
        }
        let (Some(&i), Some(&j)) = (index.get(&line.from), index.get(&line.to)) else {
            continue;
        };
        b_mat[i][i] += line.susceptance;
        b_mat[j][j] += line.susceptance;
        b_mat[i][j] -= line.susceptance;
        b_mat[j][i] -= line.susceptance;
        island_lines.push((lid, i, j, line.susceptance));
    }

    // Reduce by the slack bus (island bus 0): delete its row/column.
    let reduced: Vec<Vec<f64>> = (1..n)
        .map(|i| (1..n).map(|j| b_mat[i][j]).collect())
        .collect();
    let rhs: Vec<f64> = (1..n).map(|i| injection[i]).collect();
    let theta_rest = solve(reduced, rhs).ok_or(GridError::SingularSystem {
        island_bus: island[0].0,
    })?;
    let mut theta = vec![0.0; n];
    theta[1..].copy_from_slice(&theta_rest);

    for (lid, i, j, susceptance) in island_lines {
        flows.insert(lid, susceptance * (theta[i] - theta[j]));
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Bus, Line};
    use ct_geo::LatLon;

    fn bus(name: &str, kind: BusKind) -> Bus {
        Bus {
            name: name.to_string(),
            kind,
            pos: LatLon::new(21.3, -157.9),
        }
    }

    /// g(100 MW cap) -- l(60 MW) with one line.
    fn two_bus() -> GridNetwork {
        GridNetwork::new(
            vec![
                bus("g", BusKind::Generator { capacity_mw: 100.0 }),
                bus("l", BusKind::Load { demand_mw: 60.0 }),
            ],
            vec![Line {
                from: BusId(0),
                to: BusId(1),
                susceptance: 10.0,
                capacity_mw: 100.0,
            }],
        )
        .unwrap()
    }

    #[test]
    fn two_bus_flow_carries_the_demand() {
        let state = dc_power_flow(&two_bus(), &OutageSet::none()).unwrap();
        assert_eq!(state.islands.len(), 1);
        assert!((state.served_mw() - 60.0).abs() < 1e-9);
        assert!((state.served_fraction() - 1.0).abs() < 1e-12);
        let flow = state.flows_mw[&LineId(0)];
        assert!((flow - 60.0).abs() < 1e-9, "flow {flow}");
    }

    #[test]
    fn shedding_when_capacity_short() {
        let g = GridNetwork::new(
            vec![
                bus("g", BusKind::Generator { capacity_mw: 40.0 }),
                bus("l", BusKind::Load { demand_mw: 60.0 }),
            ],
            vec![Line {
                from: BusId(0),
                to: BusId(1),
                susceptance: 10.0,
                capacity_mw: 100.0,
            }],
        )
        .unwrap();
        let state = dc_power_flow(&g, &OutageSet::none()).unwrap();
        assert!((state.served_mw() - 40.0).abs() < 1e-9);
        assert!((state.served_fraction() - 40.0 / 60.0).abs() < 1e-9);
    }

    #[test]
    fn island_without_generation_is_dark() {
        let g = two_bus();
        let mut out = OutageSet::none();
        out.lines.insert(LineId(0));
        let state = dc_power_flow(&g, &out).unwrap();
        assert_eq!(state.served_mw(), 0.0);
        assert_eq!(state.islands.len(), 2);
        assert!(state.flows_mw.is_empty());
    }

    #[test]
    fn parallel_paths_split_flow_by_susceptance() {
        // g -0- l with a second path through a junction: g -1- j -2- l.
        // Direct line susceptance 10; series path 30&30 -> effective 15.
        let g = GridNetwork::new(
            vec![
                bus("g", BusKind::Generator { capacity_mw: 100.0 }),
                bus("l", BusKind::Load { demand_mw: 50.0 }),
                bus("j", BusKind::Junction),
            ],
            vec![
                Line {
                    from: BusId(0),
                    to: BusId(1),
                    susceptance: 10.0,
                    capacity_mw: 100.0,
                },
                Line {
                    from: BusId(0),
                    to: BusId(2),
                    susceptance: 30.0,
                    capacity_mw: 100.0,
                },
                Line {
                    from: BusId(2),
                    to: BusId(1),
                    susceptance: 30.0,
                    capacity_mw: 100.0,
                },
            ],
        )
        .unwrap();
        let state = dc_power_flow(&g, &OutageSet::none()).unwrap();
        let direct = state.flows_mw[&LineId(0)];
        let via_j = state.flows_mw[&LineId(1)];
        // Split 10 : 15 => direct 20 MW, indirect 30 MW.
        assert!((direct - 20.0).abs() < 1e-6, "direct {direct}");
        assert!((via_j - 30.0).abs() < 1e-6, "via junction {via_j}");
        // Conservation through the junction.
        assert!((state.flows_mw[&LineId(1)] - state.flows_mw[&LineId(2)]).abs() < 1e-9);
    }

    #[test]
    fn emergency_shedding_relieves_overloads_exactly() {
        // 100 MW demand over one 60 MW line: shedding to 60 MW serves
        // exactly the line limit.
        let g = GridNetwork::new(
            vec![
                bus("g", BusKind::Generator { capacity_mw: 200.0 }),
                bus("l", BusKind::Load { demand_mw: 100.0 }),
            ],
            vec![Line {
                from: BusId(0),
                to: BusId(1),
                susceptance: 10.0,
                capacity_mw: 60.0,
            }],
        )
        .unwrap();
        let state = dc_power_flow(&g, &OutageSet::none()).unwrap();
        assert_eq!(state.overloaded_lines(&g), vec![LineId(0)]);
        let shed = state.served_after_emergency_shedding(&g);
        assert!((shed - 60.0).abs() < 1e-9, "served {shed}");
    }

    #[test]
    fn shedding_is_noop_without_overloads() {
        let g = two_bus();
        let state = dc_power_flow(&g, &OutageSet::none()).unwrap();
        assert!((state.served_after_emergency_shedding(&g) - state.served_mw()).abs() < 1e-12);
    }

    #[test]
    fn flow_conservation_at_every_bus() {
        let g = crate::oahu::grid();
        let state = dc_power_flow(&g, &OutageSet::none()).unwrap();
        // For each bus: injection - sum(outflows) = 0.
        let mut net = vec![0.0; g.buses().len()];
        for island in &state.islands {
            let demand_scale = if island.demand_mw > 0.0 {
                island.served_mw / island.demand_mw
            } else {
                0.0
            };
            let cap: f64 = island
                .buses
                .iter()
                .map(|b| match g.buses()[b.0].kind {
                    BusKind::Generator { capacity_mw } => capacity_mw,
                    _ => 0.0,
                })
                .sum();
            let gen_scale = if cap > 0.0 {
                island.dispatched_mw / cap
            } else {
                0.0
            };
            for &b in &island.buses {
                net[b.0] = match g.buses()[b.0].kind {
                    BusKind::Generator { capacity_mw } => capacity_mw * gen_scale,
                    BusKind::Load { demand_mw } => -demand_mw * demand_scale,
                    BusKind::Junction => 0.0,
                };
            }
        }
        for (lid, flow) in &state.flows_mw {
            let line = &g.lines()[lid.0];
            net[line.from.0] -= flow;
            net[line.to.0] += flow;
        }
        for (i, v) in net.iter().enumerate() {
            assert!(v.abs() < 1e-6, "bus {i} violates conservation by {v}");
        }
    }
}
