//! `ct` — command-line interface to the compound-threats framework.
//!
//! Run `ct --help` for the command listing and `ct <command> --help`
//! for per-command flags; both are generated from the same
//! [`CommandSpec`] table that drives parsing, so they cannot drift
//! from behavior.
//!
//! Ensemble evaluation can run through a content-addressed artifact
//! store (`--store <url>`): records already stored are loaded
//! bit-exactly instead of recomputed. `ct run --shards K --shard I`
//! evaluates one interleaved slice of the ensemble into the store
//! (resumable after interruption), and `ct merge` assembles the full
//! study from the store, computing anything missing — its output is
//! identical to `ct figures` without a store.
//!
//! A store URL is a local directory (`path` or `file://path`) or a
//! `ct serve` endpoint (`http://host:port`). One process at a time
//! holds a local directory, so shards that run concurrently — on this
//! machine or others — share a store through `ct serve --store <dir>`,
//! which hosts it over HTTP and answers `GET /probe`
//! state-probability queries from the artifacts it hosts.
//!
//! Worker-thread count comes from the `CT_THREADS` environment
//! variable (default: all cores, capped at 16).
//!
//! Scenarios: `hurricane`, `intrusion`, `isolation`, `compound`.
//! Configs: `2`, `2-2`, `6`, `6-6`, `6+6+6`.
//! Hazard engines (`--hazard`): `surge`, `wind`, `compound`.
//! Every study is the paper's Oahu case study.

use compound_threats::check::{check_cell, CheckMode, CheckOptions};
use compound_threats::error::CoreError;
use compound_threats::figures::{reproduce, reproduce_all, Figure};
use compound_threats::placement::rank_backup_sites;
use compound_threats::prelude::{
    bench_serve, run_shard, BenchMode, BenchOp, BenchServeOptions, HazardSpec, ProbeQuery,
    ServeOptions, Server, ShardSpec, Store, StoreBackend, StoreUrl,
};
use compound_threats::report::{figure_csv, figure_table, placement_table, profile_bar};
use compound_threats::{CaseStudy, CaseStudyConfig};
use compound_threats_suite::cli::{CliArgs, CommandSpec, FlagSpec};
use ct_scada::{export, oahu, Architecture};
use ct_threat::ThreatScenario;
use std::process::ExitCode;

const METRICS: FlagSpec = FlagSpec {
    name: "--metrics",
    value_name: Some("path"),
    help: "write the observability snapshot on exit (CSV; markdown for .md)",
};
const REALIZATIONS: FlagSpec = FlagSpec {
    name: "--realizations",
    value_name: Some("N"),
    help: "hazard-ensemble size (default: paper's 1000)",
};
const HAZARD: FlagSpec = FlagSpec {
    name: "--hazard",
    value_name: Some("h"),
    help: "hazard engine: surge | wind | compound (default surge)",
};
const CSV: FlagSpec = FlagSpec {
    name: "--csv",
    value_name: None,
    help: "emit CSV instead of tables",
};
const STORE: FlagSpec = FlagSpec {
    name: "--store",
    value_name: Some("url"),
    help: "artifact store: a directory, file://dir, or http://host:port (ct serve)",
};
const ADDR: FlagSpec = FlagSpec {
    name: "--addr",
    value_name: Some("host:port"),
    help: "serve: bind address (default 127.0.0.1:7171; port 0 picks a free port)",
};
const CACHE_BYTES: FlagSpec = FlagSpec {
    name: "--cache-bytes",
    value_name: Some("N"),
    help: "serve: in-memory record-cache budget in bytes (default 256 MiB)",
};
const CONNECTIONS: FlagSpec = FlagSpec {
    name: "--connections",
    value_name: Some("N"),
    help: "bench-serve: concurrent kept-alive connections (default 64)",
};
const INFLIGHT: FlagSpec = FlagSpec {
    name: "--inflight",
    value_name: Some("M"),
    help: "bench-serve: pipelined requests per connection, closed mode (default 4)",
};
const SECONDS: FlagSpec = FlagSpec {
    name: "--seconds",
    value_name: Some("S"),
    help: "bench-serve: measured duration per phase in seconds (default 5)",
};
const PAYLOAD_BYTES: FlagSpec = FlagSpec {
    name: "--payload-bytes",
    value_name: Some("N"),
    help: "bench-serve: record payload size (default 256)",
};
const KEYS: FlagSpec = FlagSpec {
    name: "--keys",
    value_name: Some("N"),
    help: "bench-serve: distinct object keys cycled through (default 1024)",
};
const MODE: FlagSpec = FlagSpec {
    name: "--mode",
    value_name: Some("m"),
    help: "bench-serve: loop discipline, closed | open (default closed)",
};
const RATE: FlagSpec = FlagSpec {
    name: "--rate",
    value_name: Some("ops"),
    help: "bench-serve: total offered ops/s in open mode (default 10000)",
};
const OP: FlagSpec = FlagSpec {
    name: "--op",
    value_name: Some("verb"),
    help: "bench-serve: traffic to measure, put | get | both (default both)",
};
const SHARDS: FlagSpec = FlagSpec {
    name: "--shards",
    value_name: Some("K"),
    help: "total shard count (default 1)",
};
const SHARD: FlagSpec = FlagSpec {
    name: "--shard",
    value_name: Some("I"),
    help: "this process's shard index, 0-based (default 0)",
};
const FULL: FlagSpec = FlagSpec {
    name: "--full",
    value_name: None,
    help: "full per-realization inundation matrix instead of probabilities",
};
const REPAIR: FlagSpec = FlagSpec {
    name: "--repair",
    value_name: None,
    help: "evict corrupt records, compact their segments, sweep tmp/",
};
const PRUNE: FlagSpec = FlagSpec {
    name: "--prune",
    value_name: Some("secs"),
    help: "also remove records older than this many seconds (destructive)",
};
const ARCH: FlagSpec = FlagSpec {
    name: "--arch",
    value_name: Some("c"),
    help: "check: only this configuration, 2 | 2-2 | 6 | 6-6 | 6+6+6 (default all)",
};
const SCENARIO: FlagSpec = FlagSpec {
    name: "--scenario",
    value_name: Some("s"),
    help: "check: only this threat scenario, hurricane | intrusion | isolation | compound (default all)",
};
const DEPTH: FlagSpec = FlagSpec {
    name: "--depth",
    value_name: Some("N"),
    help: "check: exhaustive tier, max choice points per path (default 2)",
};
const SCHEDULES: FlagSpec = FlagSpec {
    name: "--schedules",
    value_name: Some("N"),
    help: "check: randomized tier, schedules per state (selects this tier)",
};
const SEED: FlagSpec = FlagSpec {
    name: "--seed",
    value_name: Some("S"),
    help: "check: randomized tier base seed; run i uses S+i (default 1)",
};

/// Every `ct` subcommand; parsing, dispatch, and all help text derive
/// from this table.
const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "figures",
        summary: "reproduce Figs. 6-11, or only the numbered one",
        positionals: &[("number", false)],
        flags: &[CSV, HAZARD, REALIZATIONS, STORE, METRICS],
    },
    CommandSpec {
        name: "run",
        summary: "evaluate one shard of the ensemble into an artifact store",
        positionals: &[],
        flags: &[STORE, SHARDS, SHARD, HAZARD, REALIZATIONS, METRICS],
    },
    CommandSpec {
        name: "merge",
        summary: "assemble a sharded run from the store and print the figures",
        positionals: &[],
        flags: &[STORE, CSV, HAZARD, REALIZATIONS, METRICS],
    },
    CommandSpec {
        name: "fsck",
        summary: "validate every store record; --repair heals what it finds",
        positionals: &[],
        flags: &[STORE, REPAIR, PRUNE, METRICS],
    },
    CommandSpec {
        name: "serve",
        summary: "host a local store over http for concurrent shards and probes",
        positionals: &[],
        flags: &[STORE, ADDR, CACHE_BYTES],
    },
    CommandSpec {
        name: "probe",
        summary: "ask a serving store for one scenario's outcome profile",
        positionals: &[("scenario", true), ("site", true)],
        flags: &[STORE, HAZARD, REALIZATIONS, METRICS],
    },
    CommandSpec {
        name: "bench-serve",
        summary: "drive keep-alive load at a serving store and report latency",
        positionals: &[],
        flags: &[
            STORE,
            CONNECTIONS,
            INFLIGHT,
            SECONDS,
            PAYLOAD_BYTES,
            KEYS,
            MODE,
            RATE,
            OP,
            METRICS,
        ],
    },
    CommandSpec {
        name: "placement",
        summary: "rank backup control sites",
        positionals: &[("config", true), ("scenario", true)],
        flags: &[HAZARD, REALIZATIONS, STORE, METRICS],
    },
    CommandSpec {
        name: "check",
        summary: "model-check the Table I cells over many schedules",
        positionals: &[],
        flags: &[ARCH, SCENARIO, DEPTH, SCHEDULES, SEED, METRICS],
    },
    CommandSpec {
        name: "topology",
        summary: "export the Oahu topology's assets as CSV",
        positionals: &[],
        flags: &[METRICS],
    },
    CommandSpec {
        name: "hazard",
        summary: "flood probabilities (or inundation matrix) as CSV",
        positionals: &[],
        flags: &[FULL, HAZARD, REALIZATIONS, STORE, METRICS],
    },
];

fn usage() -> String {
    let mut s = String::from("usage: ct <command> [options]\n\ncommands:\n");
    let width = COMMANDS.iter().map(|c| c.name.len()).max().unwrap_or(0);
    for c in COMMANDS {
        s.push_str(&format!("  {:<width$} {}\n", c.name, c.summary));
    }
    s.push_str(
        "\nrun 'ct <command> --help' for that command's flags\n\
         scenarios: hurricane | intrusion | isolation | compound\n\
         configs:   2 | 2-2 | 6 | 6-6 | 6+6+6\n\
         hazards:   surge | wind | compound\n\
         stores:    --store <dir> | file://<dir> | http://host:port (see 'ct serve')\n\
         env:       CT_THREADS=<n> caps the worker-thread count\n\
         \x20          CT_FAULTS=site:nth:kind[:limit],... arms deterministic failpoints\n\
         \x20          CT_SEGMENT_ROLL_BYTES=<n> store segment roll threshold (default 64 MiB)\n\
         \x20          CT_SEGMENT_SYNC_BYTES=<n> store group-fsync threshold (default 8 MiB)",
    );
    s
}

/// The study's configuration from the common flags.
fn study_config(args: &CliArgs) -> Result<CaseStudyConfig, Box<dyn std::error::Error>> {
    let mut builder = CaseStudyConfig::builder();
    if let Some(n) = args.parsed::<usize>("--realizations")? {
        builder = builder.realizations(n);
    }
    if let Some(hazard) = args.parsed::<HazardSpec>("--hazard")? {
        builder = builder.hazard(hazard);
    }
    Ok(builder.build()?)
}

/// The parsed `--store` URL, if any. Unknown schemes and malformed
/// authorities are loud parse errors, never silent paths.
fn store_url(args: &CliArgs) -> Result<Option<StoreUrl>, Box<dyn std::error::Error>> {
    Ok(args.parsed::<StoreUrl>("--store")?)
}

/// Opens the store backend named by `--store`, if any: local for a
/// directory URL (held by this process until it exits, so a root
/// that another process holds is an error), the HTTP client for
/// `http://host:port`.
fn open_store(
    args: &CliArgs,
) -> Result<Option<std::sync::Arc<dyn StoreBackend>>, Box<dyn std::error::Error>> {
    match store_url(args)? {
        Some(url) => Ok(Some(url.open()?)),
        None => Ok(None),
    }
}

/// Opens the store backend named by `--store`, required.
fn require_store(
    args: &CliArgs,
) -> Result<std::sync::Arc<dyn StoreBackend>, Box<dyn std::error::Error>> {
    match open_store(args)? {
        Some(store) => Ok(store),
        None => Err(format!("'{}' requires --store <url>", args.spec().name).into()),
    }
}

/// The `host:port` of the serving store named by `--store`, for
/// commands that speak to a live `ct serve` daemon and nothing else.
fn require_http_authority(args: &CliArgs) -> Result<String, Box<dyn std::error::Error>> {
    match store_url(args)? {
        Some(StoreUrl::Http { authority }) => Ok(authority),
        Some(url) => Err(format!(
            "'{}' talks to a serving store and cannot use {url}; \
             pass --store http://host:port (see 'ct serve')",
            args.spec().name
        )
        .into()),
        None => Err(format!("'{}' requires --store http://host:port", args.spec().name).into()),
    }
}

/// The local root named by `--store`, for commands that own the bytes
/// on disk (`fsck`, `serve`) and therefore cannot run against an
/// `http://` URL.
fn require_local_root(args: &CliArgs) -> Result<std::path::PathBuf, Box<dyn std::error::Error>> {
    match store_url(args)? {
        Some(url) => match url.local_root() {
            Some(root) => Ok(root.to_path_buf()),
            None => Err(format!(
                "'{}' operates on the store's local files and cannot target {url}; \
                 run it on the serving machine with a directory --store",
                args.spec().name
            )
            .into()),
        },
        None => Err(format!("'{}' requires --store <dir>", args.spec().name).into()),
    }
}

/// The configuration a `2 | 2-2 | 6 | 6-6 | 6+6+6` label names.
fn architecture(label: &str) -> Result<Architecture, String> {
    Architecture::from_label(label).ok_or_else(|| format!("unknown config '{label}'"))
}

/// Builds the study from the common flags, through the artifact store
/// when one was named.
fn build_study(args: &CliArgs) -> Result<CaseStudy, Box<dyn std::error::Error>> {
    let config = study_config(args)?;
    Ok(CaseStudy::build_with_store(
        &config,
        open_store(args)?.as_deref(),
    )?)
}

/// Prints every figure (or only `only`), as CSV or tables — shared by
/// `figures` and `merge` so the two paths cannot drift apart.
fn print_figures(
    study: &CaseStudy,
    only: Option<Figure>,
    csv: bool,
) -> Result<(), Box<dyn std::error::Error>> {
    let figures = match only {
        Some(figure) => vec![reproduce(study, figure)?],
        None => reproduce_all(study)?,
    };
    for data in figures {
        if csv {
            print!("{}", figure_csv(&data));
        } else {
            print!("{}", figure_table(&data));
            for (arch, p) in &data.rows {
                println!(
                    "  {:<8} |{}|",
                    format!("\"{}\"", arch.label()),
                    profile_bar(p)
                );
            }
            println!();
        }
    }
    Ok(())
}

/// Writes the global observability snapshot to `path` (markdown when
/// the path ends in `.md`, CSV otherwise).
fn write_metrics(path: &str) -> Result<(), CoreError> {
    let snap = ct_obs::snapshot();
    let body = if path.ends_with(".md") {
        snap.to_markdown()
    } else {
        snap.to_csv()
    };
    std::fs::write(path, body).map_err(|e| CoreError::Io {
        path: path.to_string(),
        message: e.to_string(),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(argv: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let Some(command) = argv.first() else {
        eprintln!("{}", usage());
        return Ok(ExitCode::FAILURE);
    };
    if command == "--help" || command == "-h" || command == "help" {
        println!("{}", usage());
        return Ok(ExitCode::SUCCESS);
    }
    let Some(spec) = COMMANDS.iter().find(|c| c.name == *command) else {
        return Err(format!("unknown command '{command}'\n\n{}", usage()).into());
    };
    let args = spec.parse(&argv[1..])?;
    if args.help() {
        print!("{}", spec.help_text());
        return Ok(ExitCode::SUCCESS);
    }
    // A malformed CT_FAULTS must fail the run loudly: the alternative
    // is a fault campaign that silently tests nothing.
    if let Some(e) = ct_store::faults::env_arming_error() {
        return Err(format!("CT_FAULTS: {e}").into());
    }
    if args.flag("--metrics") {
        // Pre-register the canonical metric set so the snapshot lists
        // every counter (zero-valued included), whatever the command.
        ct_obs::names::register_defaults(ct_obs::global());
    }
    let code = run_command(&args)?;
    if let Some(path) = args.value("--metrics") {
        write_metrics(path)?;
    }
    Ok(code)
}

fn run_command(args: &CliArgs) -> Result<ExitCode, Box<dyn std::error::Error>> {
    match args.spec().name {
        "figures" => {
            let only = match args.positional(0) {
                None => None,
                Some(number) => {
                    let Some(fig) = number
                        .parse::<u32>()
                        .ok()
                        .and_then(|n| Figure::ALL.into_iter().find(|f| f.number() == n))
                    else {
                        return Err(
                            format!("no figure '{number}'; the paper has figures 6-11").into()
                        );
                    };
                    Some(fig)
                }
            };
            let study = build_study(args)?;
            print_figures(&study, only, args.flag("--csv"))?;
        }
        "run" => {
            let store = require_store(args)?;
            let config = study_config(args)?;
            let shards = args.parsed::<usize>("--shards")?.unwrap_or(1);
            let index = args.parsed::<usize>("--shard")?.unwrap_or(0);
            let shard = ShardSpec::new(index, shards)?;
            let report = run_shard(&config, store.as_ref(), shard)?;
            println!(
                "shard {index}/{shards}: {} computed, {} reused, {} records total",
                report.computed, report.reused, report.total
            );
        }
        "merge" => {
            let store = require_store(args)?;
            let config = study_config(args)?;
            let study = CaseStudy::merge_from_store(&config, store.as_ref())?;
            print_figures(&study, None, args.flag("--csv"))?;
        }
        "serve" => {
            let root = require_local_root(args)?;
            let mut options = ServeOptions::default();
            if let Some(addr) = args.value("--addr") {
                options.addr = addr.to_string();
            }
            if let Some(bytes) = args.parsed::<u64>("--cache-bytes")? {
                options.cache_bytes = bytes;
            }
            let server = Server::bind(&root, &options)?;
            println!(
                "serving {} at {} ({} byte cache); GET /healthz, /metricsz, /probe",
                root.display(),
                server.url(),
                options.cache_bytes,
            );
            use std::io::Write;
            std::io::stdout().flush().ok();
            server.join_forever();
        }
        "fsck" => {
            let root = require_local_root(args)?;
            let store = Store::open(&root)?;
            let options = ct_store::FsckOptions {
                repair: args.flag("--repair"),
                prune_max_age: args
                    .parsed::<u64>("--prune")?
                    .map(std::time::Duration::from_secs),
            };
            let report = store.fsck(&options)?;
            print!("{}", report.to_csv());
            // Without --repair, surviving problems mean the store
            // needs attention: signal it through the exit code so
            // scripts can gate on `ct fsck`.
            if !options.repair && !report.clean() {
                return Ok(ExitCode::FAILURE);
            }
        }
        "probe" => {
            let authority = require_http_authority(args)?;
            let scenario: ThreatScenario =
                args.positional(0).expect("required positional").parse()?;
            let site: oahu::SiteChoice =
                args.positional(1).expect("required positional").parse()?;
            let mut query = ProbeQuery {
                scenario,
                site,
                hazard: HazardSpec::default(),
                realizations: compound_threats::serve::DEFAULT_PROBE_REALIZATIONS,
            };
            if let Some(hazard) = args.parsed::<HazardSpec>("--hazard")? {
                query.hazard = hazard;
            }
            if let Some(n) = args.parsed::<usize>("--realizations")? {
                query.realizations = n;
            }
            println!("# GET {}", query.target());
            print!("{}", query.fetch(&authority)?);
        }
        "bench-serve" => {
            let authority = require_http_authority(args)?;
            let mut options = BenchServeOptions {
                authority,
                ..BenchServeOptions::default()
            };
            if let Some(n) = args.parsed::<usize>("--connections")? {
                options.connections = n;
            }
            if let Some(n) = args.parsed::<usize>("--inflight")? {
                options.inflight = n;
            }
            if let Some(s) = args.parsed::<f64>("--seconds")? {
                options.seconds = s;
            }
            if let Some(n) = args.parsed::<usize>("--payload-bytes")? {
                options.payload_bytes = n;
            }
            if let Some(n) = args.parsed::<usize>("--keys")? {
                options.keys = n;
            }
            if let Some(mode) = args.parsed::<BenchMode>("--mode")? {
                options.mode = mode;
            }
            if let Some(rate) = args.parsed::<f64>("--rate")? {
                options.rate = rate;
            }
            options.ops = match args.value("--op") {
                None | Some("both") => vec![BenchOp::Put, BenchOp::Get],
                Some("put") => vec![BenchOp::Put],
                Some("get") => vec![BenchOp::Get],
                Some(other) => {
                    return Err(format!("unknown --op '{other}' (put | get | both)").into())
                }
            };
            for row in bench_serve(&options)? {
                println!("{}", row.to_csv());
            }
        }
        "placement" => {
            let arch = architecture(args.positional(0).expect("required positional"))?;
            let scenario: ThreatScenario =
                args.positional(1).expect("required positional").parse()?;
            let study = build_study(args)?;
            let ranking = rank_backup_sites(&study, arch, scenario)?;
            print!("{}", placement_table(arch, scenario, &ranking));
        }
        "check" => {
            let architectures = match args.value("--arch") {
                None => Architecture::ALL.to_vec(),
                Some(arch_s) => vec![architecture(arch_s)?],
            };
            let scenarios = match args.value("--scenario") {
                None => ThreatScenario::ALL.to_vec(),
                Some(scen_s) => vec![scen_s.parse::<ThreatScenario>()?],
            };
            let depth = args.parsed::<usize>("--depth")?;
            let schedules = args.parsed::<u64>("--schedules")?;
            let mode = match (depth, schedules) {
                (Some(_), Some(_)) => {
                    return Err("--depth selects the exhaustive tier and --schedules the randomized one; pass exactly one".into());
                }
                (None, Some(schedules)) => CheckMode::Randomized {
                    schedules,
                    seed: args.parsed::<u64>("--seed")?.unwrap_or(1),
                },
                (depth, None) => {
                    if args.value("--seed").is_some() {
                        return Err(
                            "--seed applies to the randomized tier; pass --schedules <N>".into(),
                        );
                    }
                    CheckMode::Exhaustive {
                        depth: depth.unwrap_or(2),
                    }
                }
            };
            let mut cells = 0;
            let mut ok = true;
            for &architecture in &architectures {
                for &scenario in &scenarios {
                    let report = check_cell(&CheckOptions {
                        architecture,
                        scenario,
                        mode,
                    });
                    print!("{}", report.to_csv());
                    cells += 1;
                    ok &= report.ok();
                }
            }
            // A single cell's report is complete as it stands; a
            // table gets a verdict over all of its cells.
            if cells > 1 {
                println!("check,cells,{cells}");
                println!("check,table,{}", if ok { "ok" } else { "FAIL" });
            }
            if !ok {
                return Ok(ExitCode::FAILURE);
            }
        }
        "topology" => print!("{}", export::to_csv(&oahu::topology())),
        "hazard" => {
            let study = build_study(args)?;
            if args.flag("--full") {
                print!(
                    "{}",
                    ct_hydro::export::realizations_to_csv(study.realizations())
                );
            } else {
                print!(
                    "{}",
                    ct_hydro::export::flood_probabilities_to_csv(study.realizations())
                );
            }
        }
        other => unreachable!("command '{other}' is in COMMANDS but not dispatched"),
    }
    Ok(ExitCode::SUCCESS)
}
