//! Fault-class reuse: a campaign simulates each distinct first
//! injection once.
//!
//! `Campaign::execute` keys every trial by the end of its first
//! injection step (the step, both injectors' records and both
//! injectors' cadence state) and serves a trial whose class already
//! has a stored result from that result. A result is stored only if
//! its suffix reached no further due call, and only if the dump
//! policy does not keep its dump. This suite checks the cache
//! where it hits (E3, E6), where it must not (the free-running E2, E7,
//! kept dumps) and where only the cadence state tells two classes
//! apart, always against per-seed `run_trial` in the equivalence
//! harness's observed cells at 1, 2 and 4 workers (`tests/common`):
//! every `TrialResult`, the CSV bytes and every dump.

use certify_core::campaign::{Campaign, Scenario};
use certify_core::memfault::{MemFaultModel, MemTarget};
use certify_core::spec::{MemorySpec, Paced};
use certify_core::{DumpPolicy, TraceConfig};
use std::collections::HashSet;

mod common;
use common::{check, run_mode, Mode, Reference};

const SEED: u64 = 0xD5_2022;

/// The cells every campaign here runs in: observed at 1, 2 and 4
/// workers. The harness returns the one-worker `suffixes_simulated`.
const CELLS: [Mode; 3] = [Mode::Observed(1), Mode::Observed(2), Mode::Observed(4)];

/// Checks `campaign` against `reference` in [`CELLS`] and returns the
/// suffixes one worker simulated.
fn suffixes_simulated(campaign: &Campaign, reference: &Reference) -> u64 {
    check(campaign, reference, &CELLS)
        .simulated
        .expect("a one-worker cell")
}

/// Trials of `reference` whose first (and only) injection step's
/// records appeared in an earlier single-injection trial: the hits one
/// worker must find when every single-injection trial is stored.
fn repeats(reference: &Reference) -> u64 {
    let mut seen = HashSet::new();
    let once = reference
        .trials
        .iter()
        .filter(|t| t.report.injections.len() + t.report.mem_injections.len() == 1);
    once.filter(|t| {
        let report = &t.report;
        !seen.insert((report.injections.clone(), report.mem_injections.clone()))
    })
    .count() as u64
}

/// E3 draws each trial's one fault from 512 (register, bit) pairs, and
/// no trial reaches a second due call, so every trial is stored and
/// every repeat of a fault is served.
#[test]
fn e3_repeats_are_served_with_identical_results() {
    let campaign = Campaign::new(Scenario::e3_fig3(), 600, SEED);
    let reference = common::reference(&campaign);
    let simulated = suffixes_simulated(&campaign, &reference);
    assert_eq!(simulated, 600 - repeats(&reference));
    assert!(simulated < 600, "E3 must hit: {simulated} of 600 simulated");
}

/// E6's first memory attempt often kills the victim cell, so its
/// trial makes no further attempt and is stored; the other trials go
/// on drawing faults and are never stored.
#[test]
fn e6_single_attempt_trials_are_served() {
    let scenario = Scenario::e6_memory(MemFaultModel::SingleBitFlip, MemTarget::e6());
    let campaign = Campaign::new(scenario, E6_TRIALS, SEED);
    let reference = common::reference(&campaign);
    let single = (reference.trials.iter())
        .filter(|t| t.report.mem_injections.len() == 1)
        .count();
    let repeats = repeats(&reference);
    assert_eq!((single, repeats), E6_SINGLE_AND_REPEATS, "E6 shape");
    assert_eq!(
        suffixes_simulated(&campaign, &reference),
        E6_TRIALS as u64 - repeats
    );
}

const E6_TRIALS: usize = 1000;
const E6_SINGLE_AND_REPEATS: (usize, u64) = (361, 361 - 123);

/// The negative case: the free-running E2 campaign injects every 50
/// calls with a per-seed phase, so nearly every trial injects more than
/// once and must simulate its suffix.
#[test]
fn e2_trials_that_inject_again_are_all_simulated() {
    let campaign = Campaign::new(Scenario::e2_nonroot_high(), 300, SEED);
    let reference = common::reference(&campaign);
    let again = (reference.trials.iter())
        .filter(|t| t.report.injections.len() > 1)
        .count() as u64;
    assert_eq!(again, 294, "E2 shape");
    let simulated = suffixes_simulated(&campaign, &reference);
    assert!(
        simulated >= again,
        "{simulated} suffixes simulated, {again} trials injected again"
    );
}

/// A trial whose suffix draws another fault is never stored: E3 at
/// twice the paper's rate injects at trap calls 50 and 100, and a
/// trial whose cell survives the first fault takes a second one. Many
/// such trials share their first fault with an earlier one, and none
/// of them may take that trial's result.
#[test]
fn trials_that_draw_again_are_never_served() {
    let scenario = Scenario {
        name: "e3-rate-50".into(),
        spec: Scenario::e3_fig3().spec.map(|spec| spec.with_rate(50)),
        ..Scenario::e3_fig3()
    };
    let campaign = Campaign::new(scenario, 300, SEED);
    let reference = common::reference(&campaign);
    let mut firsts = HashSet::new();
    let shared = (reference.trials.iter())
        .filter(|t| !firsts.insert(t.report.injections[0].clone()) && t.injection_count > 1)
        .count() as u64;
    assert!(
        shared > 0,
        "no trial injected again after a repeated first fault"
    );
    let simulated = suffixes_simulated(&campaign, &reference);
    assert_eq!(simulated, 300 - repeats(&reference));
}

/// Kept dumps always come from a simulated trial. Traced E7 draws
/// memory faults after its register fault, so it stores nothing.
/// Traced E3 stores all its trials except those whose anomaly dump the
/// policy keeps, and those dumps must reach the sink byte-identical.
#[test]
fn kept_dumps_come_from_simulated_trials() {
    let trace = TraceConfig::new().with_policy(DumpPolicy::anomalies());
    let e7 = Campaign::new(Scenario::e7_mixed(), 120, SEED).with_trace(trace.clone());
    let reference = common::reference(&e7);
    assert!(!reference.dumps.is_empty(), "E7 keeps no dump");
    assert_eq!(
        suffixes_simulated(&e7, &reference),
        120,
        "E7 stores nothing"
    );

    let e3 = Campaign::new(Scenario::e3_fig3(), 300, SEED).with_trace(trace);
    let reference = common::reference(&e3);
    let kept: HashSet<usize> = reference.dumps.iter().map(|(seq, _)| *seq).collect();
    assert!(!kept.is_empty(), "E3 keeps no dump");
    let simulated = suffixes_simulated(&e3, &reference);
    assert!(
        simulated < 300 && simulated >= kept.len() as u64,
        "{simulated} suffixes simulated, {} dumps kept",
        kept.len()
    );
}

/// Two trials with the same register fault whose memory cadences are
/// in different phases are in different classes: the register fault
/// at step 3158 is the first record, and whether a memory fault follows
/// in the window depends on the phase (CPU 1 makes ~530 matching calls
/// in the last 1,342 steps of a healthy run, so a rate of 1,000 leaves
/// about half the phases without one). Without the cadence state in
/// the key, one trial would take the other's result.
#[test]
fn the_cadence_state_separates_classes() {
    let scenario = Scenario {
        name: "e3-with-late-jittered-memory".into(),
        mem_spec: Some(
            MemorySpec::e6_memory(MemFaultModel::SingleBitFlip, MemTarget::e6())
                .with_rate(1000)
                .with_phase_jitter()
                .with_window(3300, 4500),
        ),
        rtos_heartbeat: true,
        ..Scenario::e3_fig3()
    };
    let campaign = Campaign::new(scenario, 300, SEED);
    let reference = common::reference(&campaign);
    // The case exists: a register fault shared by a trial with memory
    // faults and by one without.
    let with = |memory: bool| -> HashSet<_> {
        (reference.trials.iter())
            .filter(|t| t.report.mem_injections.is_empty() != memory)
            .map(|t| t.report.injections.clone())
            .collect()
    };
    assert!(with(true).intersection(&with(false)).next().is_some());
    suffixes_simulated(&campaign, &reference);
}

/// The one-worker count of a 1,000-trial E3 pass, at the benchmark's
/// default seed and at a held-out one: the distinct faults among its
/// seeds.
#[test]
fn e3_pass_simulates_one_suffix_per_distinct_fault() {
    for (seed, distinct) in [(SEED, 448), (0xC0FFEE, 442)] {
        let campaign = Campaign::new(Scenario::e3_fig3(), 1000, seed);
        let run = run_mode(&campaign, Mode::Observed(1), "E3 pass");
        let faults: HashSet<_> = run.trials.iter().map(|t| &t.report.injections).collect();
        assert_eq!(faults.len(), distinct, "distinct faults from {seed:#x}");
        assert_eq!(
            run.simulated,
            Some(distinct as u64),
            "simulated from {seed:#x}"
        );
    }
}
