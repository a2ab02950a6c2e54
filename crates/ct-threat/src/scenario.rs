//! The four compound-threat scenarios (paper Sec. III-B).

use std::fmt;

/// How many of each attack the cyberattacker can execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct AttackBudget {
    /// Servers the attacker can compromise.
    pub intrusions: usize,
    /// Control sites the attacker can isolate from the network.
    pub isolations: usize,
}

impl AttackBudget {
    /// No attack at all.
    pub const NONE: AttackBudget = AttackBudget {
        intrusions: 0,
        isolations: 0,
    };
}

impl fmt::Display for AttackBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} intrusion(s) + {} isolation(s)",
            self.intrusions, self.isolations
        )
    }
}

/// The paper's four threat scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreatScenario {
    /// Natural disaster only (the baseline of Fig. 6/10).
    Hurricane,
    /// Hurricane followed by one server intrusion (Fig. 7/11).
    HurricaneIntrusion,
    /// Hurricane followed by one site isolation (Fig. 8).
    HurricaneIsolation,
    /// Hurricane followed by a server intrusion *and* a site
    /// isolation (Fig. 9).
    HurricaneIntrusionIsolation,
}

impl ThreatScenario {
    /// All four scenarios, in the paper's order.
    pub const ALL: [ThreatScenario; 4] = [
        ThreatScenario::Hurricane,
        ThreatScenario::HurricaneIntrusion,
        ThreatScenario::HurricaneIsolation,
        ThreatScenario::HurricaneIntrusionIsolation,
    ];

    /// The attacker's budget in this scenario.
    pub fn budget(self) -> AttackBudget {
        match self {
            ThreatScenario::Hurricane => AttackBudget::NONE,
            ThreatScenario::HurricaneIntrusion => AttackBudget {
                intrusions: 1,
                isolations: 0,
            },
            ThreatScenario::HurricaneIsolation => AttackBudget {
                intrusions: 0,
                isolations: 1,
            },
            ThreatScenario::HurricaneIntrusionIsolation => AttackBudget {
                intrusions: 1,
                isolations: 1,
            },
        }
    }

    /// The CLI keyword for this scenario — the canonical short form
    /// accepted by the `FromStr` impl
    /// (`scenario.keyword().parse()` always round-trips).
    pub fn keyword(self) -> &'static str {
        match self {
            ThreatScenario::Hurricane => "hurricane",
            ThreatScenario::HurricaneIntrusion => "intrusion",
            ThreatScenario::HurricaneIsolation => "isolation",
            ThreatScenario::HurricaneIntrusionIsolation => "compound",
        }
    }

    /// Human-readable name matching the paper's figure captions.
    pub(crate) fn label(self) -> &'static str {
        match self {
            ThreatScenario::Hurricane => "Hurricane",
            ThreatScenario::HurricaneIntrusion => "Hurricane + Server Intrusion",
            ThreatScenario::HurricaneIsolation => "Hurricane + Site Isolation",
            ThreatScenario::HurricaneIntrusionIsolation => {
                "Hurricane + Server Intrusion + Site Isolation"
            }
        }
    }
}

impl fmt::Display for ThreatScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A scenario string was not one of the CLI keywords.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseScenarioError {
    /// The rejected input.
    pub(crate) input: String,
}

impl fmt::Display for ParseScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown scenario '{}' (expected hurricane, intrusion, isolation, or compound)",
            self.input
        )
    }
}

impl std::error::Error for ParseScenarioError {}

impl std::str::FromStr for ThreatScenario {
    type Err = ParseScenarioError;

    /// Parses the CLI keywords `hurricane`, `intrusion`, `isolation`,
    /// `compound` — or a full display label ("Hurricane + Server
    /// Intrusion") — case-insensitively, so
    /// `scenario.to_string().parse()` round-trips.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lowered = s.to_ascii_lowercase();
        if let Some(scenario) = ThreatScenario::ALL
            .into_iter()
            .find(|sc| sc.label().to_ascii_lowercase() == lowered)
        {
            return Ok(scenario);
        }
        match lowered.as_str() {
            "hurricane" => Ok(ThreatScenario::Hurricane),
            "intrusion" => Ok(ThreatScenario::HurricaneIntrusion),
            "isolation" => Ok(ThreatScenario::HurricaneIsolation),
            "compound" => Ok(ThreatScenario::HurricaneIntrusionIsolation),
            _ => Err(ParseScenarioError { input: s.into() }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_match_the_paper() {
        assert_eq!(ThreatScenario::Hurricane.budget(), AttackBudget::NONE);
        assert_eq!(
            ThreatScenario::HurricaneIntrusion.budget(),
            AttackBudget {
                intrusions: 1,
                isolations: 0
            }
        );
        assert_eq!(
            ThreatScenario::HurricaneIsolation.budget(),
            AttackBudget {
                intrusions: 0,
                isolations: 1
            }
        );
        assert_eq!(
            ThreatScenario::HurricaneIntrusionIsolation.budget(),
            AttackBudget {
                intrusions: 1,
                isolations: 1
            }
        );
    }

    #[test]
    fn scenario_keywords_round_trip() {
        assert_eq!("hurricane".parse(), Ok(ThreatScenario::Hurricane));
        assert_eq!("intrusion".parse(), Ok(ThreatScenario::HurricaneIntrusion));
        assert_eq!("isolation".parse(), Ok(ThreatScenario::HurricaneIsolation));
        assert_eq!(
            "COMPOUND".parse(),
            Ok(ThreatScenario::HurricaneIntrusionIsolation)
        );
        let err = "tsunami".parse::<ThreatScenario>().unwrap_err();
        assert!(err.to_string().contains("tsunami"));
        assert!(err.to_string().contains("compound"));
    }

    #[test]
    fn labels_and_empty() {
        assert_eq!(ThreatScenario::Hurricane.budget(), AttackBudget::NONE);
        assert_ne!(
            ThreatScenario::HurricaneIntrusion.budget(),
            AttackBudget::NONE
        );
        for s in ThreatScenario::ALL {
            assert!(!s.label().is_empty());
        }
        assert_eq!(
            AttackBudget {
                intrusions: 1,
                isolations: 2
            }
            .to_string(),
            "1 intrusion(s) + 2 isolation(s)"
        );
    }
}
