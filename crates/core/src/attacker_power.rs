//! Probabilistic attacker power — the paper's Sec. VII discussion
//! ("the worst-case model may give the attacker more power than they
//! are likely to have in practice").
//!
//! Instead of assuming every attack succeeds, each attack type gets a
//! success probability. The expected outcome distribution is the
//! mixture of the four deterministic scenarios weighted by the
//! success probabilities — an analytic combination, so no extra
//! Monte-Carlo error is introduced.

use crate::error::CoreError;
use crate::pipeline::CaseStudy;
use ct_scada::{oahu::SiteChoice, Architecture};
use ct_threat::ThreatScenario;
use std::fmt;

/// Success probabilities of the attacker's two capabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackerPower {
    /// Probability the server intrusion succeeds.
    pub(crate) intrusion_success: f64,
    /// Probability the site isolation succeeds.
    pub(crate) isolation_success: f64,
}

impl AttackerPower {
    /// Creates a power model, validating probabilities.
    ///
    /// # Errors
    ///
    /// Returns an error when either probability is outside `[0, 1]`.
    pub fn new(intrusion_success: f64, isolation_success: f64) -> Result<Self, CoreError> {
        for (name, p) in [
            ("intrusion_success", intrusion_success),
            ("isolation_success", isolation_success),
        ] {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(CoreError::Hydro(ct_hydro::HydroError::InvalidParameter {
                    name: match name {
                        "intrusion_success" => "intrusion_success",
                        _ => "isolation_success",
                    },
                    value: p,
                }));
            }
        }
        Ok(Self {
            intrusion_success,
            isolation_success,
        })
    }
}

/// An expected outcome distribution (fractions, not counts).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ExpectedProfile {
    /// Expected probability of green.
    pub green: f64,
    /// Expected probability of orange.
    pub orange: f64,
    /// Expected probability of red.
    pub red: f64,
    /// Expected probability of gray.
    pub gray: f64,
}

impl ExpectedProfile {
    /// Whether the four fractions sum to ~1.
    pub fn is_normalized(&self) -> bool {
        (self.green + self.orange + self.red + self.gray - 1.0).abs() < 1e-9
    }
}

impl fmt::Display for ExpectedProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "green {:.1}% / orange {:.1}% / red {:.1}% / gray {:.1}%",
            100.0 * self.green,
            100.0 * self.orange,
            100.0 * self.red,
            100.0 * self.gray
        )
    }
}

/// Expected profile of an architecture under a probabilistic attacker
/// attempting *both* attacks after the hurricane.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn expected_profile(
    study: &CaseStudy,
    architecture: Architecture,
    choice: SiteChoice,
    power: AttackerPower,
) -> Result<ExpectedProfile, CoreError> {
    let pi = power.intrusion_success;
    let ps = power.isolation_success;
    let weighted = [
        (ThreatScenario::Hurricane, (1.0 - pi) * (1.0 - ps)),
        (ThreatScenario::HurricaneIntrusion, pi * (1.0 - ps)),
        (ThreatScenario::HurricaneIsolation, (1.0 - pi) * ps),
        (ThreatScenario::HurricaneIntrusionIsolation, pi * ps),
    ];
    let mut out = ExpectedProfile::default();
    for (scenario, weight) in weighted {
        if weight == 0.0 {
            continue;
        }
        let p = study.profile(architecture, scenario, choice)?;
        out.green += weight * p.green();
        out.orange += weight * p.orange();
        out.red += weight * p.red();
        out.gray += weight * p.gray();
    }
    Ok(out)
}

/// Sweeps a symmetric attacker power `p` from 0 to 1 in `steps`
/// increments, returning `(p, expected profile)` pairs — the
/// sensitivity analysis the paper calls for.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn power_sweep(
    study: &CaseStudy,
    architecture: Architecture,
    choice: SiteChoice,
    steps: usize,
) -> Result<Vec<(f64, ExpectedProfile)>, CoreError> {
    let steps = steps.max(1);
    (0..=steps)
        .map(|i| {
            let p = i as f64 / steps as f64;
            let power = AttackerPower::new(p, p).expect("p in range");
            expected_profile(study, architecture, choice, power).map(|e| (p, e))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::CaseStudyConfig;

    fn study() -> CaseStudy {
        CaseStudy::build(
            &CaseStudyConfig::builder()
                .realizations(100)
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn validation() {
        assert!(AttackerPower::new(1.1, 0.0).is_err());
        assert!(AttackerPower::new(0.5, -0.1).is_err());
        assert!(AttackerPower::new(0.5, 0.5).is_ok());
    }

    #[test]
    fn zero_power_equals_hurricane_only() {
        let s = study();
        let zero = AttackerPower::new(0.0, 0.0).unwrap();
        let e = expected_profile(&s, Architecture::C2, SiteChoice::Waiau, zero).unwrap();
        let base = s
            .profile(
                Architecture::C2,
                ThreatScenario::Hurricane,
                SiteChoice::Waiau,
            )
            .unwrap();
        assert!((e.green - base.green()).abs() < 1e-12);
        assert!((e.red - base.red()).abs() < 1e-12);
        assert!(e.is_normalized());
    }

    #[test]
    fn full_power_equals_worst_case_scenario() {
        let s = study();
        let e = expected_profile(
            &s,
            Architecture::C6_6,
            SiteChoice::Waiau,
            AttackerPower::new(1.0, 1.0).unwrap(),
        )
        .unwrap();
        let worst = s
            .profile(
                Architecture::C6_6,
                ThreatScenario::HurricaneIntrusionIsolation,
                SiteChoice::Waiau,
            )
            .unwrap();
        assert!((e.orange - worst.orange()).abs() < 1e-12);
        assert!(e.is_normalized());
    }

    #[test]
    fn green_probability_decreases_with_power() {
        let s = study();
        let sweep = power_sweep(&s, Architecture::C2_2, SiteChoice::Waiau, 4).unwrap();
        assert_eq!(sweep.len(), 5);
        for w in sweep.windows(2) {
            assert!(
                w[1].1.green <= w[0].1.green + 1e-12,
                "green should not increase with attacker power"
            );
        }
    }
}
