//! Parallel-vs-sequential determinism of the campaign engine, as rows
//! of the equivalence harness (`tests/common/mod.rs`).
//!
//! `Campaign::execute` distributes trials over `std::thread::scope`
//! lanes (trial `i` on lane `i % workers`), but every trial is seeded
//! `base_seed + i` and delivered at sequence `i` — so every worker
//! count, range split and OS scheduling of the workers must deliver
//! exactly the trials (every field of every `TrialResult`, including
//! full `RunReport` evidence), dumps, CSV bytes and stats of the same
//! seeds run from step 0. CI runs this suite in both debug and
//! `--release`, where trial timing skew actually exercises the lanes'
//! hand-over.

use certify_core::campaign::{Campaign, Scenario};
use certify_core::{DumpPolicy, TraceConfig};

mod common;
use common::{check_campaign, modes, splits, Mode};

#[test]
fn e1_campaign_is_deterministic_across_worker_counts() {
    check_campaign(&Campaign::new(Scenario::e1_root_high(), 12, 0xD5), &modes());
}

#[test]
fn e3_campaign_is_deterministic_across_worker_counts() {
    check_campaign(&Campaign::new(Scenario::e3_fig3(), 8, 2022), &modes());
}

#[test]
fn golden_campaign_is_deterministic_across_worker_counts() {
    check_campaign(&Campaign::new(Scenario::golden(1500), 6, 7), &modes());
}

#[test]
fn memory_campaign_is_deterministic_across_worker_counts() {
    use certify_core::memfault::{MemFaultModel, MemTarget};
    let scenario = Scenario::e6_memory(MemFaultModel::SingleBitFlip, MemTarget::e6());
    check_campaign(&Campaign::new(scenario, 8, 0xE6), &modes());
}

#[test]
fn mixed_register_memory_campaign_is_deterministic_across_worker_counts() {
    // A campaign with BOTH injectors armed must stay bit-identical in
    // every mode.
    let campaign = Campaign::new(Scenario::e7_mixed(), 8, 2026);
    let trials = check_campaign(&campaign, &modes()).trials;
    assert!(
        trials.iter().any(|t| t.injection_count > 0),
        "mixed campaign fired no register injections"
    );
    assert!(
        trials.iter().any(|t| t.mem_injection_count > 0),
        "mixed campaign applied no memory injections"
    );
}

#[test]
fn concatenated_ranges_equal_the_full_run() {
    // The shard execution primitive: `Campaign::execute` over any
    // two-range partition of the trial space must deliver exactly the
    // trials — same global sequence numbers, same full reports — of
    // the full run, and the per-range stats must merge to its stats.
    // E7 arms both injectors, so this also pins that a range's RNG
    // state never leaks from one range into the next.
    for (scenario, trials) in [(Scenario::e3_fig3(), 8usize), (Scenario::e7_mixed(), 6)] {
        check_campaign(&Campaign::new(scenario, trials, 0xD5_2022), &splits(trials));
    }
}

#[test]
fn traced_campaigns_dump_identically_across_engines() {
    // The flight recorder rides the deterministic trial path, so a
    // traced campaign must surface byte-identical dumps — same seqs,
    // same event streams — whether the trials run on one worker or on
    // the threaded lanes.
    let config = TraceConfig::new().with_policy(DumpPolicy::all_outcomes());
    for (scenario, trials) in [(Scenario::e3_fig3(), 8usize), (Scenario::e7_mixed(), 6)] {
        let campaign = Campaign::new(scenario, trials, 0xD5_2022).with_trace(config.clone());
        let reference = check_campaign(&campaign, &modes());
        assert_eq!(
            reference.dumps.len(),
            trials,
            "{}: all_outcomes must dump every trial",
            campaign.scenario().name
        );
    }
}

#[test]
fn traced_trials_repeat_their_event_streams() {
    // Same seed, same stream: re-running a traced trial reproduces the
    // recorder's exact contents, including the drop counter.
    use certify_core::encode_to_vec;

    let runner = Scenario::e7_mixed().runner();
    let config = TraceConfig::new();
    for seed in 0..6 {
        let (trial_a, dump_a) = runner.run_trial_traced(seed, Some(&config));
        let (trial_b, dump_b) = runner.run_trial_traced(seed, Some(&config));
        assert_eq!(trial_a, trial_b);
        assert_eq!(
            encode_to_vec(&dump_a.expect("traced trial always dumps")),
            encode_to_vec(&dump_b.expect("traced trial always dumps")),
            "seed {seed}: replayed event stream drifted"
        );
    }
}

#[test]
fn parallel_run_with_more_workers_than_trials() {
    check_campaign(
        &Campaign::new(Scenario::e1_root_high(), 3, 1),
        &[Mode::Workers(64)],
    );
}

#[test]
fn zero_workers_clamps_to_one() {
    check_campaign(
        &Campaign::new(Scenario::e1_root_high(), 2, 5),
        &[Mode::Workers(0)],
    );
}

#[test]
fn repeated_parallel_runs_are_stable() {
    // The OS schedules the lanes differently from run to run; the
    // result must not change.
    check_campaign(
        &Campaign::new(Scenario::e3_fig3(), 6, 99),
        &[Mode::Workers(4); 4],
    );
}
