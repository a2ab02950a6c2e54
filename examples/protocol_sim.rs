//! Drives the discrete-event replication simulator through every
//! Table I cell: each reachable post-compound-threat state is executed
//! once as sampled and once under a perturbed schedule, and printed
//! next to Table I's rule-based answer.
//!
//! This is the executable justification for Table I — the paper takes
//! the conditions from prior work; here they emerge from protocol
//! runs (quorum votes, view changes, cold-backup activations, forged
//! replies).
//!
//! ```text
//! cargo run --release --example protocol_sim
//! ```

use compound_threats::check::{check_cell, CheckMode, CheckOptions};
use ct_scada::Architecture;
use ct_threat::ThreatScenario;

fn main() {
    let mut cells = 0usize;
    let mut total = 0usize;
    let mut agreed = 0usize;
    for architecture in Architecture::ALL {
        for scenario in ThreatScenario::ALL {
            let report = check_cell(&CheckOptions {
                architecture,
                scenario,
                mode: CheckMode::Randomized {
                    schedules: 1,
                    seed: 1,
                },
            });
            cells += 1;
            println!("Configuration {architecture}, {scenario}:");
            for s in &report.states {
                total += 1;
                agreed += usize::from(s.agrees());
                println!(
                    "  {:<44} rule: {:<6}  sampled: {:<6}  worst: {:<6}  {}",
                    s.state.to_string(),
                    s.rule.to_string(),
                    s.sampled.to_string(),
                    s.worst.to_string(),
                    if s.agrees() { "agree" } else { "DISAGREE" },
                );
            }
            println!();
        }
    }
    println!("{agreed}/{total} cell-states agree across {cells} cells between Table I and protocol execution.");
}
