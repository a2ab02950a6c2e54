//! Deterministic failpoint layer for crash-path testing.
//!
//! The store's clean path is exercised constantly; its *failure* paths
//! — ENOSPC mid-append, a group fsync that fails, a read that tears —
//! are exactly the ones the compound-threats argument depends on and
//! exactly the ones ordinary tests never reach. This module gives
//! every fragile I/O operation a named **site** that tests and the CLI
//! can arm to inject a fault deterministically:
//!
//! ```text
//! CT_FAULTS=site:nth:kind[:limit][,site:nth:kind[:limit]...]
//! ```
//!
//! - `site` — one of [`sites::ALL`] (e.g. `segment.append`);
//! - `nth` — fire on every `nth` hit of the site (1 = every hit);
//! - `kind` — `io` (transient I/O error, retryable), `enospc`
//!   (disk full, not retryable), `corrupt` (payload mangled in
//!   flight), `torn` (a partial write followed by an error);
//! - `limit` — optional cap on total firings (absent or 0 = no cap).
//!
//! Arming and firing are counted through [`ct_obs`] (`faults.armed`,
//! `faults.fired`), so a fault campaign's coverage is visible in the
//! same `--metrics` snapshot as the `store.degraded` recoveries it
//! provokes. The process-global registry arms itself from `CT_FAULTS`
//! on first use; tests needing exact counts use a private
//! [`FaultRegistry`] wired into a store via
//! [`Store::open_with_faults`](crate::Store::open_with_faults).
//!
//! Everything here is deliberately boring std: a mutexed `Vec` of
//! armed sites. Failpoints sit on I/O paths whose cost is dominated by
//! the filesystem, so a registry lookup per operation is noise.

use crate::metrics::MetricsSink;
use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, Mutex, OnceLock};

/// The canonical failpoint site names.
pub mod sites {
    /// Reading a record's entry inside `Store::get` or
    /// `Store::get_many`: hit once per record and attempt.
    pub(crate) const STORE_GET_READ: &str = "store.get.read";
    /// Tombstoning a record (evictions, invalidations, corrupt
    /// cleanup).
    pub const STORE_EVICT_REMOVE: &str = "store.evict.remove";
    /// Appending an entry to the active segment (puts and
    /// tombstones).
    pub const SEGMENT_APPEND: &str = "segment.append";
    /// The group fsync that makes a batch of appends durable.
    pub const SEGMENT_SYNC: &str = "segment.sync";
    /// Writing the footer index that seals a full segment.
    pub(crate) const SEGMENT_FOOTER: &str = "segment.footer";
    /// Rewriting a segment during `fsck --repair` compaction.
    pub const SEGMENT_COMPACT: &str = "segment.compact";

    /// Every site, for docs, validation, and fault campaigns.
    pub const ALL: &[&str] = &[
        STORE_GET_READ,
        STORE_EVICT_REMOVE,
        SEGMENT_APPEND,
        SEGMENT_SYNC,
        SEGMENT_FOOTER,
        SEGMENT_COMPACT,
    ];
}

/// What an armed failpoint injects when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A transient I/O error (`ErrorKind::TimedOut`) — the class the
    /// store's bounded retry is allowed to absorb.
    Io,
    /// Disk full (`ErrorKind::StorageFull`) — an environmental error
    /// retrying cannot fix; callers must degrade instead.
    Enospc,
    /// The bytes crossing the site are silently mangled (one flipped
    /// byte), so the operation "succeeds" and the frame checksum has
    /// to catch it later.
    Corruption,
    /// Only a prefix of the bytes reaches the disk before the
    /// operation errors — the on-disk signature of a crash mid-write.
    PartialWrite,
}

impl FaultKind {
    /// The keyword used in `CT_FAULTS` specs.
    pub(crate) fn keyword(&self) -> &'static str {
        match self {
            FaultKind::Io => "io",
            FaultKind::Enospc => "enospc",
            FaultKind::Corruption => "corrupt",
            FaultKind::PartialWrite => "torn",
        }
    }

    /// The error an error-injecting kind produces. `Corruption` and
    /// `PartialWrite` sites that cannot express data mangling (e.g. a
    /// group fsync) fall back to a generic injected error.
    pub(crate) fn io_error(&self) -> std::io::Error {
        match self {
            FaultKind::Io => {
                std::io::Error::new(std::io::ErrorKind::TimedOut, "injected transient I/O fault")
            }
            FaultKind::Enospc => {
                std::io::Error::new(std::io::ErrorKind::StorageFull, "injected disk-full fault")
            }
            FaultKind::Corruption | FaultKind::PartialWrite => {
                std::io::Error::other(format!("injected {} fault", self.keyword()))
            }
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// One parsed `site:nth:kind[:limit]` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// The failpoint site to arm (must be in [`sites::ALL`]).
    pub(crate) site: String,
    /// Fire on every `nth` hit (≥ 1).
    pub(crate) nth: u64,
    /// What to inject when firing.
    pub(crate) kind: FaultKind,
    /// Maximum total firings; 0 = unlimited.
    pub(crate) limit: u64,
}

impl FaultSpec {
    /// A spec firing on every `nth` hit with no firing cap.
    pub fn every(site: &str, nth: u64, kind: FaultKind) -> Self {
        Self {
            site: site.to_string(),
            nth,
            kind,
            limit: 0,
        }
    }

    /// A spec that fires exactly once, on the `nth` hit.
    pub fn once(site: &str, nth: u64, kind: FaultKind) -> Self {
        Self {
            limit: 1,
            ..Self::every(site, nth, kind)
        }
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.site, self.nth, self.kind)?;
        if self.limit != 0 {
            write!(f, ":{}", self.limit)?;
        }
        Ok(())
    }
}

/// A `CT_FAULTS` directive that failed to parse, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultParseError {
    /// The directive as typed.
    pub(crate) spec: String,
    /// What was wrong with it.
    pub(crate) reason: String,
}

impl fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault spec '{}': {}", self.spec, self.reason)
    }
}

impl std::error::Error for FaultParseError {}

impl FromStr for FaultKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "io" => Ok(FaultKind::Io),
            "enospc" => Ok(FaultKind::Enospc),
            "corrupt" => Ok(FaultKind::Corruption),
            "torn" => Ok(FaultKind::PartialWrite),
            other => Err(format!(
                "unknown fault kind '{other}' (expected io | enospc | corrupt | torn)"
            )),
        }
    }
}

impl FromStr for FaultSpec {
    type Err = FaultParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |reason: String| FaultParseError {
            spec: s.to_string(),
            reason,
        };
        let parts: Vec<&str> = s.split(':').collect();
        if !(3..=4).contains(&parts.len()) {
            return Err(err("expected site:nth:kind[:limit]".into()));
        }
        let site = parts[0];
        if !sites::ALL.contains(&site) {
            return Err(err(format!(
                "unknown site '{site}' (known: {})",
                sites::ALL.join(", ")
            )));
        }
        let nth: u64 = parts[1]
            .parse()
            .map_err(|_| err(format!("nth '{}' is not an integer", parts[1])))?;
        if nth == 0 {
            return Err(err("nth must be ≥ 1".into()));
        }
        let kind: FaultKind = match parts[2].parse() {
            Ok(kind) => kind,
            Err(reason) => return Err(err(reason)),
        };
        let limit: u64 = match parts.get(3) {
            None => 0,
            Some(l) => l
                .parse()
                .map_err(|_| err(format!("limit '{l}' is not an integer")))?,
        };
        Ok(FaultSpec {
            site: site.to_string(),
            nth,
            kind,
            limit,
        })
    }
}

/// Parses a full comma-separated `CT_FAULTS` plan.
///
/// # Errors
///
/// The first malformed directive, verbatim.
pub(crate) fn parse_plan(plan: &str) -> Result<Vec<FaultSpec>, FaultParseError> {
    plan.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(FaultSpec::from_str)
        .collect()
}

/// One armed failpoint plus its hit/fire history.
#[derive(Debug)]
struct ArmedFault {
    spec: FaultSpec,
    hits: u64,
    fired: u64,
}

/// A registry of armed failpoints. Stores consult one on every
/// instrumented operation ([`crate::Store`] defaults to the
/// process-global registry; tests inject their own).
#[derive(Debug, Default)]
pub struct FaultRegistry {
    armed: Mutex<Vec<ArmedFault>>,
    obs: MetricsSink,
}

impl FaultRegistry {
    /// An empty registry reporting to the global [`ct_obs`] registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty registry reporting `faults.*` counters to `obs`.
    pub fn with_obs(obs: Arc<ct_obs::Registry>) -> Self {
        Self {
            armed: Mutex::new(Vec::new()),
            obs: MetricsSink::Local(obs),
        }
    }

    /// Arms one failpoint (counted as `faults.armed`).
    pub fn arm(&self, spec: FaultSpec) {
        self.obs.add(ct_obs::names::FAULTS_ARMED, 1);
        self.armed
            .lock()
            .expect("fault registry lock")
            .push(ArmedFault {
                spec,
                hits: 0,
                fired: 0,
            });
    }

    /// Parses and arms a full `CT_FAULTS`-syntax plan, returning how
    /// many directives were armed.
    ///
    /// # Errors
    ///
    /// The first malformed directive; nothing is armed on error.
    pub fn arm_plan(&self, plan: &str) -> Result<usize, FaultParseError> {
        let specs = parse_plan(plan)?;
        let n = specs.len();
        for spec in specs {
            self.arm(spec);
        }
        Ok(n)
    }

    /// Disarms every failpoint (hit/fire history included).
    pub fn disarm_all(&self) {
        self.armed.lock().expect("fault registry lock").clear();
    }

    /// Records a hit on `site`. Every armed spec matching the site
    /// counts the hit; the first one whose schedule says "fire now"
    /// (every `nth` hit, under its firing limit) returns its kind,
    /// counted as `faults.fired`.
    pub(crate) fn hit(&self, site: &str) -> Option<FaultKind> {
        let mut armed = self.armed.lock().expect("fault registry lock");
        let mut firing = None;
        for fault in armed.iter_mut().filter(|f| f.spec.site == site) {
            fault.hits += 1;
            let due = fault.hits % fault.spec.nth == 0;
            let capped = fault.spec.limit != 0 && fault.fired >= fault.spec.limit;
            if due && !capped && firing.is_none() {
                fault.fired += 1;
                firing = Some(fault.spec.kind);
            }
        }
        drop(armed);
        if firing.is_some() {
            self.obs.add(ct_obs::names::FAULTS_FIRED, 1);
        }
        firing
    }
}

/// Global registry plus the result of its `CT_FAULTS` arming.
static GLOBAL: OnceLock<(FaultRegistry, Option<FaultParseError>)> = OnceLock::new();

fn global_init() -> &'static (FaultRegistry, Option<FaultParseError>) {
    GLOBAL.get_or_init(|| {
        let registry = FaultRegistry::new();
        let error = match std::env::var("CT_FAULTS") {
            Ok(plan) => registry.arm_plan(&plan).err(),
            Err(_) => None,
        };
        (registry, error)
    })
}

/// The process-global fault registry, armed from the `CT_FAULTS`
/// environment variable on first use. Stores opened without an
/// explicit registry consult this one.
pub(crate) fn global() -> &'static FaultRegistry {
    &global_init().0
}

/// The parse error from arming `CT_FAULTS`, if the variable was set
/// and malformed. Binaries check this at startup so a typo'd fault
/// campaign fails loudly instead of silently running clean.
pub fn env_arming_error() -> Option<&'static FaultParseError> {
    global_init().1.as_ref()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing_round_trips_and_validates() {
        let spec: FaultSpec = "segment.append:3:io".parse().unwrap();
        assert_eq!(
            spec,
            FaultSpec::every(sites::SEGMENT_APPEND, 3, FaultKind::Io)
        );
        assert_eq!(spec.to_string(), "segment.append:3:io");

        let spec: FaultSpec = "store.get.read:1:torn:2".parse().unwrap();
        assert_eq!(spec.kind, FaultKind::PartialWrite);
        assert_eq!(spec.limit, 2);
        assert_eq!(spec.to_string(), "store.get.read:1:torn:2");

        for bad in [
            "",
            "segment.append",
            "segment.append:0:io",
            "segment.append:x:io",
            "segment.append:1:lightning",
            "nonsense.site:1:io",
            "segment.append:1:io:many",
            "segment.append:1:io:1:extra",
        ] {
            let e = bad.parse::<FaultSpec>().unwrap_err();
            assert_eq!(e.spec, bad, "error must quote the input");
        }
    }

    #[test]
    fn plan_parses_lists_and_rejects_first_bad_entry() {
        let plan = parse_plan("segment.append:1:io, store.get.read:2:corrupt:5").unwrap();
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[1].site, sites::STORE_GET_READ);
        assert!(parse_plan("").unwrap().is_empty());
        let e = parse_plan("segment.append:1:io,bogus").unwrap_err();
        assert_eq!(e.spec, "bogus");
    }

    #[test]
    fn fires_every_nth_hit_up_to_limit_with_counters() {
        let obs = Arc::new(ct_obs::Registry::new());
        let reg = FaultRegistry::with_obs(Arc::clone(&obs));
        reg.arm(FaultSpec {
            site: sites::SEGMENT_APPEND.into(),
            nth: 3,
            kind: FaultKind::Io,
            limit: 2,
        });
        let fires: Vec<bool> = (0..12)
            .map(|_| reg.hit(sites::SEGMENT_APPEND).is_some())
            .collect();
        // Hits 3 and 6 fire; the limit of 2 silences hits 9 and 12.
        let expected: Vec<bool> = (1..=12).map(|h| h % 3 == 0 && h <= 6).collect();
        assert_eq!(fires, expected);
        // Other sites are untouched.
        assert_eq!(reg.hit(sites::STORE_GET_READ), None);

        let snap = obs.snapshot();
        assert_eq!(snap.counter(ct_obs::names::FAULTS_ARMED), Some(1));
        assert_eq!(snap.counter(ct_obs::names::FAULTS_FIRED), Some(2));
    }

    #[test]
    fn disarm_clears_everything() {
        let reg = FaultRegistry::with_obs(Arc::new(ct_obs::Registry::new()));
        reg.arm(FaultSpec::every(
            sites::STORE_GET_READ,
            1,
            FaultKind::Enospc,
        ));
        assert_eq!(reg.hit(sites::STORE_GET_READ), Some(FaultKind::Enospc));
        reg.disarm_all();
        assert_eq!(reg.hit(sites::STORE_GET_READ), None);
    }

    #[test]
    fn kinds_map_to_the_documented_errors() {
        assert_eq!(
            FaultKind::Io.io_error().kind(),
            std::io::ErrorKind::TimedOut
        );
        assert_eq!(
            FaultKind::Enospc.io_error().kind(),
            std::io::ErrorKind::StorageFull
        );
        for kind in [FaultKind::Corruption, FaultKind::PartialWrite] {
            assert!(kind.io_error().to_string().contains(kind.keyword()));
        }
    }
}
