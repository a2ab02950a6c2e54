//! Buses, lines and the grid network graph.

use ct_geo::LatLon;
use std::collections::BTreeSet;
use std::fmt;

/// Identifier of a bus (indexes into [`GridNetwork::buses`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BusId(pub usize);

/// Identifier of a line (indexes into [`GridNetwork::lines`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineId(pub usize);

/// Electrical role of a bus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BusKind {
    /// Generation with a capacity ceiling (MW).
    Generator {
        /// Maximum output.
        capacity_mw: f64,
    },
    /// Demand (MW).
    Load {
        /// Nominal demand.
        demand_mw: f64,
    },
    /// Switching/junction bus: neither injects nor consumes.
    Junction,
}

/// A bus in the network.
#[derive(Debug, Clone, PartialEq)]
pub struct Bus {
    /// Stable name (typically the hosting asset's id).
    pub name: String,
    /// Electrical role.
    pub kind: BusKind,
    /// Geographic position (used by the fragility model).
    pub pos: LatLon,
}

/// A transmission line.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    /// Terminal buses.
    pub from: BusId,
    /// Terminal buses.
    pub to: BusId,
    /// Susceptance magnitude (p.u.); higher carries more flow per
    /// angle difference.
    pub susceptance: f64,
    /// Thermal limit (MW) used by the cascade model.
    pub capacity_mw: f64,
}

/// Errors from network construction and power-flow evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum GridError {
    /// A line references a bus index that does not exist.
    DanglingLine {
        /// Index of the offending line.
        line: usize,
    },
    /// A physical parameter was non-positive or non-finite.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// The power-flow system for an island was singular.
    SingularSystem {
        /// A bus of the island concerned.
        island_bus: usize,
    },
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::DanglingLine { line } => {
                write!(f, "line {line} references a missing bus")
            }
            GridError::InvalidParameter { name, value } => {
                write!(f, "invalid grid parameter {name} = {value}")
            }
            GridError::SingularSystem { island_bus } => {
                write!(
                    f,
                    "singular power-flow system in island of bus {island_bus}"
                )
            }
        }
    }
}

impl std::error::Error for GridError {}

/// Buses and lines taken out of service (by damage or by cascading
/// trips).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OutageSet {
    /// Out-of-service buses.
    pub(crate) buses: BTreeSet<BusId>,
    /// Out-of-service lines.
    pub lines: BTreeSet<LineId>,
}

impl OutageSet {
    /// Nothing out of service.
    pub fn none() -> Self {
        Self::default()
    }
}

/// The transmission network.
#[derive(Debug, Clone, PartialEq)]
pub struct GridNetwork {
    buses: Vec<Bus>,
    lines: Vec<Line>,
}

impl GridNetwork {
    /// Creates a network, validating line endpoints and parameters.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::DanglingLine`] or
    /// [`GridError::InvalidParameter`].
    pub fn new(buses: Vec<Bus>, lines: Vec<Line>) -> Result<Self, GridError> {
        for (i, l) in lines.iter().enumerate() {
            if l.from.0 >= buses.len() || l.to.0 >= buses.len() || l.from == l.to {
                return Err(GridError::DanglingLine { line: i });
            }
            if l.susceptance <= 0.0 || !l.susceptance.is_finite() {
                return Err(GridError::InvalidParameter {
                    name: "susceptance",
                    value: l.susceptance,
                });
            }
            if l.capacity_mw <= 0.0 || !l.capacity_mw.is_finite() {
                return Err(GridError::InvalidParameter {
                    name: "capacity_mw",
                    value: l.capacity_mw,
                });
            }
        }
        for b in &buses {
            let v = match b.kind {
                BusKind::Generator { capacity_mw } => capacity_mw,
                BusKind::Load { demand_mw } => demand_mw,
                BusKind::Junction => 1.0,
            };
            if v <= 0.0 || !v.is_finite() {
                return Err(GridError::InvalidParameter {
                    name: "bus power",
                    value: v,
                });
            }
        }
        Ok(Self { buses, lines })
    }

    /// All buses.
    pub fn buses(&self) -> &[Bus] {
        &self.buses
    }

    /// All lines.
    pub fn lines(&self) -> &[Line] {
        &self.lines
    }

    /// Total nominal demand (MW).
    pub fn total_demand_mw(&self) -> f64 {
        self.buses
            .iter()
            .map(|b| match b.kind {
                BusKind::Load { demand_mw } => demand_mw,
                _ => 0.0,
            })
            .sum()
    }

    /// Connected components of the in-service network: lists of bus
    /// ids, smallest-index-first order.
    pub fn islands(&self, outages: &OutageSet) -> Vec<Vec<BusId>> {
        let n = self.buses.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (li, l) in self.lines.iter().enumerate() {
            if outages.lines.contains(&LineId(li))
                || outages.buses.contains(&l.from)
                || outages.buses.contains(&l.to)
            {
                continue;
            }
            adj[l.from.0].push(l.to.0);
            adj[l.to.0].push(l.from.0);
        }
        let mut seen = vec![false; n];
        let mut out = Vec::new();
        for start in 0..n {
            if seen[start] || outages.buses.contains(&BusId(start)) {
                continue;
            }
            let mut stack = vec![start];
            let mut comp = Vec::new();
            seen[start] = true;
            while let Some(u) = stack.pop() {
                comp.push(BusId(u));
                for &v in &adj[u] {
                    if !seen[v] {
                        seen[v] = true;
                        stack.push(v);
                    }
                }
            }
            comp.sort();
            out.push(comp);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus(name: &str, kind: BusKind) -> Bus {
        Bus {
            name: name.to_string(),
            kind,
            pos: LatLon::new(21.3, -157.9),
        }
    }

    impl GridNetwork {
        /// Looks up a bus id by name.
        pub(crate) fn bus_id(&self, name: &str) -> Option<BusId> {
            self.buses.iter().position(|b| b.name == name).map(BusId)
        }

        /// Total generation capacity (MW).
        pub(crate) fn total_capacity_mw(&self) -> f64 {
            self.buses
                .iter()
                .map(|b| match b.kind {
                    BusKind::Generator { capacity_mw } => capacity_mw,
                    _ => 0.0,
                })
                .sum()
        }
    }

    fn line(from: usize, to: usize) -> Line {
        Line {
            from: BusId(from),
            to: BusId(to),
            susceptance: 10.0,
            capacity_mw: 100.0,
        }
    }

    fn triangle() -> GridNetwork {
        GridNetwork::new(
            vec![
                bus("g", BusKind::Generator { capacity_mw: 100.0 }),
                bus("l", BusKind::Load { demand_mw: 60.0 }),
                bus("j", BusKind::Junction),
            ],
            vec![line(0, 1), line(1, 2), line(2, 0)],
        )
        .unwrap()
    }

    #[test]
    fn validation() {
        assert!(matches!(
            GridNetwork::new(vec![bus("a", BusKind::Junction)], vec![line(0, 1)]),
            Err(GridError::DanglingLine { line: 0 })
        ));
        let mut l = line(0, 1);
        l.susceptance = -1.0;
        assert!(GridNetwork::new(
            vec![bus("a", BusKind::Junction), bus("b", BusKind::Junction)],
            vec![l]
        )
        .is_err());
        assert!(GridNetwork::new(
            vec![bus("g", BusKind::Generator { capacity_mw: 0.0 })],
            vec![]
        )
        .is_err());
    }

    #[test]
    fn totals_and_lookup() {
        let g = triangle();
        assert_eq!(g.total_demand_mw(), 60.0);
        assert_eq!(g.total_capacity_mw(), 100.0);
        assert_eq!(g.bus_id("l"), Some(BusId(1)));
        assert_eq!(g.bus_id("zzz"), None);
    }

    #[test]
    fn islands_intact_and_split() {
        let g = triangle();
        assert_eq!(g.islands(&OutageSet::none()).len(), 1);
        // Remove two lines: bus 2 separates.
        let mut out = OutageSet::none();
        out.lines.insert(LineId(1));
        out.lines.insert(LineId(2));
        let islands = g.islands(&out);
        assert_eq!(islands.len(), 2);
        assert_eq!(islands[0], vec![BusId(0), BusId(1)]);
        assert_eq!(islands[1], vec![BusId(2)]);
    }

    #[test]
    fn dead_bus_removes_its_lines() {
        let g = triangle();
        let mut out = OutageSet::none();
        out.buses.insert(BusId(0));
        let islands = g.islands(&out);
        // Buses 1 and 2 remain, still joined by line(1,2).
        assert_eq!(islands.len(), 1);
        assert_eq!(islands[0], vec![BusId(1), BusId(2)]);
    }
}
