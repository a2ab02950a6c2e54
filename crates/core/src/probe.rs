//! Typed `/probe` queries: one parser for the server and the CLI.
//!
//! `GET /probe?scenario=…&site=…[&hazard=…][&realizations=N]` asks a
//! serving store for the outcome probabilities of one scenario × site
//! under one hazard ensemble over Oahu. [`ProbeQuery`] is the typed
//! form of that query string: `FromStr` parses and validates
//! it (loudly — unknown or malformed parameters are rejected, never
//! ignored, so a typo'd `relizations=500` cannot silently probe the
//! 60-realization default), and `Display` renders the canonical
//! fully-explicit form, so a parsed query round-trips byte for byte
//! into a URL, a log line, or a child process's argv.
//!
//! The server routes `/probe` through this type, and
//! `ct probe --store http://…` builds one from CLI flags and
//! [`ProbeQuery::fetch`]es it over the same wire — one grammar, two
//! entry points, zero drift.

use crate::error::CoreError;
use crate::serve::DEFAULT_PROBE_REALIZATIONS;
use ct_hazard::HazardSpec;
use ct_scada::oahu::SiteChoice;
use ct_store::remote::{encode_request, query_param, ClientConn, IO_TIMEOUT};
use ct_threat::ThreatScenario;
use std::fmt;
use std::str::FromStr;

/// One validated `/probe` query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeQuery {
    /// The compound-threat scenario to profile.
    pub scenario: ThreatScenario,
    /// The SCADA control-site choice.
    pub site: SiteChoice,
    /// The hazard ensemble (defaults to the paper's surge model).
    pub hazard: HazardSpec,
    /// Ensemble size (defaults to
    /// [`DEFAULT_PROBE_REALIZATIONS`] — a probe is a live question,
    /// not a reproduction run).
    pub realizations: usize,
}

impl ProbeQuery {
    /// The request target this query probes: `/probe?<canonical>`.
    pub fn target(&self) -> String {
        format!("/probe?{self}")
    }

    /// Asks the serving store at `authority` (`host:port`) and
    /// returns the state-probability CSV.
    ///
    /// # Errors
    ///
    /// Connect/transport failures — including a server that has not
    /// answered within the client IO timeout — or any non-200 answer
    /// (the server's explanation is carried in the message).
    pub fn fetch(&self, authority: &str) -> Result<String, CoreError> {
        let url = format!("http://{authority}{}", self.target());
        let fail = |message: String| CoreError::Io {
            path: url.clone(),
            message,
        };
        let response = ClientConn::dial(authority, IO_TIMEOUT)
            .and_then(|mut conn| {
                conn.send(&encode_request("GET", &self.target(), &[], false))?;
                conn.answer()
            })
            .map_err(|e| fail(e.to_string()))?;
        let body = String::from_utf8_lossy(&response.body);
        if response.status != 200 {
            return Err(fail(format!(
                "server answered {}: {}",
                response.status,
                body.trim()
            )));
        }
        Ok(body.into_owned())
    }
}

impl FromStr for ProbeQuery {
    type Err = String;

    /// Parses the query-string form, e.g.
    /// `scenario=compound&site=waiau&hazard=surge&realizations=60`.
    /// Order-insensitive; `hazard` and `realizations` are optional;
    /// anything else — unknown keys, bare words, empty values — is an
    /// error naming the offender.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        for pair in s.split('&').filter(|p| !p.is_empty()) {
            let Some((key, _)) = pair.split_once('=') else {
                return Err(format!(
                    "malformed probe parameter '{pair}' (want key=value)"
                ));
            };
            if !matches!(key, "scenario" | "site" | "hazard" | "realizations") {
                return Err(format!(
                    "unknown probe parameter '{key}' \
                     (expected scenario, site, hazard, realizations)"
                ));
            }
        }
        let Some(scenario) = query_param(s, "scenario") else {
            return Err("probe needs scenario= (e.g. hurricane-intrusion-isolation)".into());
        };
        let scenario: ThreatScenario = scenario.parse().map_err(|e| format!("{e}"))?;
        let Some(site) = query_param(s, "site") else {
            return Err("probe needs site= (waiau | kahe)".into());
        };
        let site: SiteChoice = site.parse().map_err(|e| format!("{e}"))?;
        let hazard = match query_param(s, "hazard") {
            None => HazardSpec::default(),
            Some(h) => h.parse::<HazardSpec>().map_err(|e| format!("{e}"))?,
        };
        let realizations = match query_param(s, "realizations") {
            None => DEFAULT_PROBE_REALIZATIONS,
            Some(n) => n
                .parse::<usize>()
                .map_err(|_| "realizations= must be a positive integer".to_string())?,
        };
        Ok(ProbeQuery {
            scenario,
            site,
            hazard,
            realizations,
        })
    }
}

impl fmt::Display for ProbeQuery {
    /// The canonical fully-explicit query string; `FromStr` of this
    /// output always round-trips.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scenario={}&site={}&hazard={}&realizations={}",
            self.scenario.keyword(),
            self.site.keyword(),
            self.hazard.keyword(),
            self.realizations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_with_defaults_and_round_trips() {
        let q: ProbeQuery = "scenario=compound&site=waiau".parse().unwrap();
        assert_eq!(q.scenario, ThreatScenario::HurricaneIntrusionIsolation);
        assert_eq!(q.site, SiteChoice::Waiau);
        assert_eq!(q.hazard, HazardSpec::default());
        assert_eq!(q.realizations, DEFAULT_PROBE_REALIZATIONS);
        let reparsed: ProbeQuery = q.to_string().parse().unwrap();
        assert_eq!(q, reparsed);
        assert!(q.target().starts_with("/probe?scenario="));
    }

    #[test]
    fn order_is_insensitive() {
        let a: ProbeQuery = "realizations=12&site=kahe&scenario=hurricane&hazard=wind"
            .parse()
            .unwrap();
        let b: ProbeQuery = "scenario=hurricane&site=kahe&hazard=wind&realizations=12"
            .parse()
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejections_are_loud_and_name_the_offender() {
        for (input, fragment) in [
            ("site=waiau", "scenario"),
            ("scenario=compound", "site"),
            ("scenario=florble&site=waiau", "florble"),
            ("scenario=compound&site=atlantis", "atlantis"),
            (
                "scenario=compound&site=waiau&hazard=earthquake",
                "earthquake",
            ),
            (
                "scenario=compound&site=waiau&realizations=lots",
                "positive integer",
            ),
            (
                "scenario=compound&site=waiau&florble=1",
                "unknown probe parameter 'florble'",
            ),
            (
                "scenario=compound&site=waiau&region=oahu",
                "unknown probe parameter 'region'",
            ),
            (
                "scenario=compound&site=waiau&florble",
                "malformed probe parameter 'florble'",
            ),
        ] {
            let err = input.parse::<ProbeQuery>().unwrap_err();
            assert!(
                err.contains(fragment),
                "input '{input}': error '{err}' should mention '{fragment}'"
            );
        }
    }
}
