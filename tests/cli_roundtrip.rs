//! Round-trip contracts for the CLI-facing enums: every value's
//! `Display` (and CLI keyword) parses back to the same value, and
//! rejection messages name the offending input. These are the strings
//! users type and scripts grep, so the contracts are pinned here
//! rather than left to convention. The enums are tiny, so coverage is
//! exhaustive: every variant, every case mix, and a corpus of
//! near-miss junk. The last contracts run the `ct` binary itself: a
//! store directory that another open store holds is refused, and so is
//! a removed flag; a bad config, figure or scenario is an `error: `
//! that quotes it; `ct --help` lists every command, in order, with its
//! summaries aligned.

use compound_threats::prelude::{HazardSpec, ProbeQuery, Store, StoreUrl};
use ct_rand::{cases, SplitMix64};
use ct_scada::oahu::SiteChoice;
use ct_threat::ThreatScenario;
use std::path::Path;

const SITES: [SiteChoice; 2] = [SiteChoice::Waiau, SiteChoice::Kahe];

/// Junk inputs a user could plausibly type; none may parse, and every
/// rejection must quote the input verbatim.
const JUNK: &[&str] = &[
    "",
    " ",
    "hurricane2",
    "hurricanes",
    "intrusion isolation",
    "compound ",
    " compound",
    "hurricane+intrusion",
    "waiau,kahe",
    "kahe-pp",
    "none",
    "all",
    "6-6",
];

#[test]
fn scenario_keyword_and_display_round_trip() {
    for scenario in ThreatScenario::ALL {
        let from_keyword: ThreatScenario = scenario.keyword().parse().unwrap();
        assert_eq!(from_keyword, scenario);
        let from_display: ThreatScenario = scenario.to_string().parse().unwrap();
        assert_eq!(from_display, scenario, "Display must parse back");
    }
}

#[test]
fn scenario_parsing_is_case_insensitive() {
    for scenario in ThreatScenario::ALL {
        for s in [
            scenario.keyword().to_ascii_uppercase(),
            scenario.to_string().to_ascii_uppercase(),
            capitalize(scenario.keyword()),
        ] {
            assert_eq!(s.parse::<ThreatScenario>().unwrap(), scenario, "{s:?}");
        }
    }
}

#[test]
fn site_choice_keyword_and_display_round_trip() {
    for choice in SITES {
        assert_eq!(choice.to_string(), choice.keyword());
        let parsed: SiteChoice = choice.to_string().parse().unwrap();
        assert_eq!(parsed, choice);
        let upper: SiteChoice = choice.keyword().to_ascii_uppercase().parse().unwrap();
        assert_eq!(upper, choice);
    }
}

#[test]
fn hazard_keyword_and_display_round_trip() {
    for hazard in HazardSpec::ALL {
        assert_eq!(hazard.to_string(), hazard.keyword());
        let from_keyword: HazardSpec = hazard.keyword().parse().unwrap();
        assert_eq!(from_keyword, hazard);
        for s in [
            hazard.keyword().to_ascii_uppercase(),
            capitalize(hazard.keyword()),
        ] {
            assert_eq!(s.parse::<HazardSpec>().unwrap(), hazard, "{s:?}");
        }
    }
    assert_eq!(HazardSpec::default(), HazardSpec::Surge);
}

#[test]
fn junk_is_rejected_with_the_input_quoted() {
    for s in JUNK {
        let e = s.parse::<ThreatScenario>().unwrap_err();
        assert!(
            e.to_string().contains(s),
            "scenario rejection must quote {s:?}, got: {e}"
        );
        let e = s.parse::<SiteChoice>().unwrap_err();
        assert!(
            e.to_string().contains(s),
            "site rejection must quote {s:?}, got: {e}"
        );
        if *s == "compound" {
            continue; // a valid hazard keyword
        }
        let e = s.parse::<HazardSpec>().unwrap_err();
        assert!(
            e.to_string().contains(s),
            "hazard rejection must quote {s:?}, got: {e}"
        );
    }
    // Hazard-specific near-misses.
    for s in ["surge+wind", "windd", "flood", "hurricane"] {
        let e = s.parse::<HazardSpec>().unwrap_err();
        assert!(e.to_string().contains(s), "must quote {s:?}: {e}");
    }
}

#[test]
fn store_url_forms_round_trip() {
    // The three accepted forms, and what each resolves to.
    let local: StoreUrl = "runs/store".parse().unwrap();
    assert_eq!(local.local_root(), Some(Path::new("runs/store")));
    let explicit: StoreUrl = "file:///var/ct/store".parse().unwrap();
    assert_eq!(explicit.local_root(), Some(Path::new("/var/ct/store")));
    let remote: StoreUrl = "http://127.0.0.1:7171".parse().unwrap();
    assert_eq!(remote.local_root(), None);
    assert_eq!(remote.to_string(), "http://127.0.0.1:7171");

    // Display → parse → Display is the identity, so a parsed URL can
    // be re-rendered into a child process's argv unchanged.
    for input in [
        "runs/store",
        "/abs/store",
        "file:///abs/store",
        "http://127.0.0.1:7171",
        "http://[::1]:80/",
        "http://shard-host.internal:9000",
    ] {
        let url: StoreUrl = input.parse().unwrap();
        let reparsed: StoreUrl = url.to_string().parse().unwrap();
        assert_eq!(url, reparsed, "round-trip of {input:?}");
        assert_eq!(url.to_string(), reparsed.to_string());
    }
}

#[test]
fn store_url_rejections_are_loud_and_specific() {
    // A typo'd scheme must never be mistaken for a relative path
    // (silently creating a directory literally named `https:/host`).
    for (input, fragment) in [
        ("https://h:1", "unsupported store url scheme"),
        ("ssh://h:1", "unsupported store url scheme"),
        ("", "empty"),
        ("file://", "names no path"),
        ("http://", "host:port"),
        ("http://hostonly", "missing its port"),
        ("http://:7171", "missing its host"),
        ("http://h:99999", "not a valid port"),
        ("http://h:1/objects/abc", "got a path"),
    ] {
        let err = input.parse::<StoreUrl>().unwrap_err();
        assert!(
            err.contains(fragment),
            "input {input:?}: error {err:?} should mention {fragment:?}"
        );
    }
}

/// Characters a store path plausibly contains.
const PATH_CHARS: &[char] = &[
    'a', 'b', 'z', 'A', 'Z', '0', '9', '_', '-', '.', '/', 's', 't', 'o', 'r', 'e',
];

/// Lower-case ASCII letters, for scheme and key names.
const LOWER: &[char] = &[
    'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p', 'q', 'r', 's',
    't', 'u', 'v', 'w', 'x', 'y', 'z',
];

/// One element of `xs`, uniformly.
fn pick<T: Copy>(rng: &mut SplitMix64, xs: &[T]) -> T {
    xs[rng.below(xs.len() as u64) as usize]
}

/// A string of `lo..hi` characters drawn from `alphabet`.
fn word(rng: &mut SplitMix64, alphabet: &[char], lo: u64, hi: u64) -> String {
    (0..lo + rng.below(hi - lo))
        .map(|_| pick(rng, alphabet))
        .collect()
}

/// Any bare path without a scheme separator parses as a local
/// root and survives a Display → parse → Display cycle.
#[test]
fn bare_paths_are_local_stores() {
    cases(256, |rng| {
        let path = word(rng, PATH_CHARS, 1, 40);
        if path.contains("://") {
            return;
        }
        let url: StoreUrl = path.parse().unwrap();
        assert_eq!(url.local_root(), Some(Path::new(&path)));
        let reparsed: StoreUrl = url.to_string().parse().unwrap();
        assert_eq!(url, reparsed);
    });
}

/// Every scheme other than `file` and `http` is rejected, with
/// the scheme named in the error.
#[test]
fn unknown_schemes_never_parse() {
    cases(256, |rng| {
        let scheme = word(rng, LOWER, 2, 8);
        if scheme == "file" || scheme == "http" {
            return;
        }
        let input = format!("{scheme}://host:1");
        let err = input.parse::<StoreUrl>().unwrap_err();
        assert!(
            err.contains(&scheme),
            "error {err:?} should name {scheme:?}"
        );
    });
}

/// Every probe query survives a Display → parse cycle unchanged —
/// the grammar shared by `GET /probe` and `ct probe`, so a query
/// logged by the server replays verbatim through the CLI.
#[test]
fn probe_queries_round_trip() {
    cases(256, |rng| {
        let scenario = pick(rng, &ThreatScenario::ALL);
        let site = pick(rng, &SITES);
        let hazard = pick(rng, &HazardSpec::ALL);
        let realizations = 1 + rng.below(4999) as usize;
        let query = ProbeQuery {
            scenario,
            site,
            hazard,
            realizations,
        };
        let reparsed: ProbeQuery = query.to_string().parse().unwrap();
        assert_eq!(query, reparsed);
        assert!(query.target().starts_with("/probe?scenario="));
    });
}

/// An unknown parameter key is rejected by name, never silently
/// ignored — a typo'd key must not probe the defaults.
#[test]
fn probe_unknown_keys_are_rejected_by_name() {
    cases(256, |rng| {
        let key = word(rng, LOWER, 1, 12);
        if matches!(
            key.as_str(),
            "scenario" | "site" | "hazard" | "realizations"
        ) {
            return;
        }
        let input = format!("scenario=compound&site=waiau&{key}=1");
        let err = input.parse::<ProbeQuery>().unwrap_err();
        assert!(err.contains(&key), "error {:?} should name {:?}", err, key);
    });
}

#[test]
fn probe_query_rejections_quote_the_offender() {
    for (input, fragment) in [
        ("", "scenario"),
        ("scenario=compound", "site"),
        (
            "site=waiau&scenario",
            "malformed probe parameter 'scenario'",
        ),
        ("scenario=florble&site=waiau", "florble"),
        ("scenario=compound&site=nauru", "nauru"),
        ("scenario=compound&site=waiau&hazard=volcano", "volcano"),
        (
            "scenario=compound&site=waiau&realizations=-3",
            "positive integer",
        ),
    ] {
        let err = input.parse::<ProbeQuery>().unwrap_err();
        assert!(
            err.contains(fragment),
            "input {input:?}: error {err:?} should mention {fragment:?}"
        );
    }
}

/// Any scenario/site pair survives a Display → parse → Display
/// cycle unchanged (format stability for scripts that pipe `ct`
/// output back into arguments).
#[test]
fn display_parse_display_is_identity() {
    cases(256, |rng| {
        let s1 = pick(rng, &ThreatScenario::ALL).to_string();
        let s2 = s1.parse::<ThreatScenario>().unwrap().to_string();
        assert_eq!(s1, s2);
        let c1 = pick(rng, &SITES).to_string();
        let c2 = c1.parse::<SiteChoice>().unwrap().to_string();
        assert_eq!(c1, c2);
        let h1 = pick(rng, &HazardSpec::ALL).to_string();
        let h2 = h1.parse::<HazardSpec>().unwrap().to_string();
        assert_eq!(h1, h2);
    });
}

/// While this test holds a store root, `ct run` and a repairing
/// `ct fsck` on the same directory exit non-zero, name the root, and
/// point at `ct serve` for sharing a store. The removed `--region`
/// flag fails in the parser, before the store is touched.
#[test]
fn ct_refuses_a_store_root_another_store_holds() {
    let root = std::env::temp_dir().join(format!("ct-cli-held-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let held = Store::open(&root).unwrap();
    let root_s = root.display().to_string();
    let held_root = [root_s.as_str(), "already held", "ct serve"];
    for (args, fragments) in [
        (&["run", "--realizations", "4"][..], &held_root[..]),
        (&["fsck", "--repair"], &held_root),
        (
            &["figures", "--region", "oahu"],
            &["unknown flag '--region' for 'figures'"],
        ),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_ct"))
            .args(args)
            .arg("--store")
            .arg(&root)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "ct {args:?} must fail: {stderr}");
        assert!(
            fragments.iter().all(|f| stderr.contains(f)),
            "ct {args:?}: {stderr}"
        );
    }
    drop(held);
    std::fs::remove_dir_all(&root).ok();
}

/// A config, figure or scenario that does not exist fails the way
/// every other `ct` error does: a non-zero exit and a stderr that
/// starts with `error: ` and quotes the input.
#[test]
fn ct_reports_bad_inputs_as_errors() {
    for (args, quoted) in [
        (&["check", "--arch", "9"][..], "'9'"),
        (&["check", "--scenario", "florble"], "'florble'"),
        (&["figures", "12"], "'12'"),
        (&["placement", "9", "hurricane"], "'9'"),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_ct"))
            .args(args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "ct {args:?} must fail: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(quoted),
            "ct {args:?}: {stderr}"
        );
    }
}

/// `ct --help` lists every command, in order, with its summary in one
/// column however long the longest command name is.
#[test]
fn ct_help_aligns_every_command_summary() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ct"))
        .arg("--help")
        .output()
        .unwrap();
    assert!(out.status.success());
    let help = String::from_utf8(out.stdout).unwrap();
    let columns: Vec<(&str, usize)> = help
        .lines()
        .skip_while(|l| *l != "commands:")
        .skip(1)
        .take_while(|l| !l.is_empty())
        .map(|line| {
            let name = line.trim_start().split(' ').next().unwrap();
            let after_name = line.find(name).unwrap() + name.len();
            let gap = line[after_name..].len() - line[after_name..].trim_start().len();
            assert!(gap >= 1, "{line:?}");
            (name, after_name + gap)
        })
        .collect();
    let names: Vec<&str> = columns.iter().map(|&(name, _)| name).collect();
    assert_eq!(
        names.join(" "),
        "figures run merge fsck serve probe bench-serve placement check topology hazard",
        "{help}"
    );
    assert!(
        columns.iter().all(|&(_, col)| col == columns[0].1),
        "summaries start at different columns: {columns:?}"
    );
}

fn capitalize(s: &str) -> String {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) => c.to_ascii_uppercase().to_string() + chars.as_str(),
        None => String::new(),
    }
}
