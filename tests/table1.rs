//! Every Table I cell, checked against protocol executions: for each
//! system state the worst-case attacker can reach in a cell, Table I's
//! rule, one sampled execution and one perturbed schedule must all
//! name the same color.
//!
//! Each cell pins how many states it reaches and how those states'
//! rule colors split. The 20 cells hold 80 cell-states (19 green, 6
//! orange, 47 red, 8 gray) over 55 distinct states.

use compound_threats::check::{check_cell, CheckMode, CheckOptions};
use ct_scada::Architecture::{self, C2, C2_2, C6, C6P6P6, C6_6};
use ct_threat::OperationalState;
use ct_threat::ThreatScenario::{
    self, Hurricane, HurricaneIntrusion, HurricaneIntrusionIsolation, HurricaneIsolation,
};

/// Checks one cell and pins its rule-color tally, in
/// [`OperationalState::ALL`] order: green, orange, red, gray.
fn assert_cell(architecture: Architecture, scenario: ThreatScenario, tally: [usize; 4]) {
    let report = check_cell(&CheckOptions {
        architecture,
        scenario,
        mode: CheckMode::Randomized {
            schedules: 1,
            seed: 1,
        },
    });
    assert!(report.ok(), "{}", report.to_csv());
    assert_eq!(report.states.len(), tally.iter().sum::<usize>());
    let observed =
        OperationalState::ALL.map(|color| report.states.iter().filter(|s| s.rule == color).count());
    assert_eq!(observed, tally, "{architecture} / {scenario}");
}

#[test]
fn config_2_hurricane() {
    assert_cell(C2, Hurricane, [1, 0, 1, 0]);
}

#[test]
fn config_2_intrusion() {
    assert_cell(C2, HurricaneIntrusion, [0, 0, 1, 1]);
}

#[test]
fn config_2_isolation() {
    assert_cell(C2, HurricaneIsolation, [0, 0, 2, 0]);
}

#[test]
fn config_2_compound() {
    assert_cell(C2, HurricaneIntrusionIsolation, [0, 0, 1, 1]);
}

#[test]
fn config_2_2_hurricane() {
    assert_cell(C2_2, Hurricane, [2, 1, 1, 0]);
}

#[test]
fn config_2_2_intrusion() {
    assert_cell(C2_2, HurricaneIntrusion, [0, 0, 1, 3]);
}

#[test]
fn config_2_2_isolation() {
    assert_cell(C2_2, HurricaneIsolation, [0, 1, 3, 0]);
}

#[test]
fn config_2_2_compound() {
    assert_cell(C2_2, HurricaneIntrusionIsolation, [0, 0, 1, 3]);
}

#[test]
fn config_6_hurricane() {
    assert_cell(C6, Hurricane, [1, 0, 1, 0]);
}

#[test]
fn config_6_intrusion() {
    assert_cell(C6, HurricaneIntrusion, [1, 0, 1, 0]);
}

#[test]
fn config_6_isolation() {
    assert_cell(C6, HurricaneIsolation, [0, 0, 2, 0]);
}

#[test]
fn config_6_compound() {
    assert_cell(C6, HurricaneIntrusionIsolation, [0, 0, 2, 0]);
}

#[test]
fn config_6_6_hurricane() {
    assert_cell(C6_6, Hurricane, [2, 1, 1, 0]);
}

#[test]
fn config_6_6_intrusion() {
    assert_cell(C6_6, HurricaneIntrusion, [2, 1, 1, 0]);
}

#[test]
fn config_6_6_isolation() {
    assert_cell(C6_6, HurricaneIsolation, [0, 1, 3, 0]);
}

#[test]
fn config_6_6_compound() {
    assert_cell(C6_6, HurricaneIntrusionIsolation, [0, 1, 3, 0]);
}

#[test]
fn config_6p6p6_hurricane() {
    assert_cell(C6P6P6, Hurricane, [4, 0, 4, 0]);
}

#[test]
fn config_6p6p6_intrusion() {
    assert_cell(C6P6P6, HurricaneIntrusion, [4, 0, 4, 0]);
}

#[test]
fn config_6p6p6_isolation() {
    assert_cell(C6P6P6, HurricaneIsolation, [1, 0, 7, 0]);
}

#[test]
fn config_6p6p6_compound() {
    assert_cell(C6P6P6, HurricaneIntrusionIsolation, [1, 0, 7, 0]);
}
