//! Parallel-vs-sequential determinism of the campaign engine.
//!
//! `Campaign::execute` distributes trials over `std::thread::scope`
//! workers through a reorder buffer, but every trial
//! is seeded `base_seed + i` and delivered at sequence `i` — so the
//! result must be *identical* (every field of every `TrialResult`,
//! including full `RunReport` evidence) to sequential `run()`, for any
//! worker count and any OS scheduling of the workers. The streamed
//! `CampaignStats` must be identical too. CI runs this suite in both
//! debug and `--release`, where trial timing skew actually exercises
//! the reorder buffer.

use certify_core::campaign::{Campaign, CampaignResult, Scenario};
use certify_core::NullSink;

mod common;
use common::worker_counts;

fn assert_parallel_matches_sequential(campaign: &Campaign) {
    let sequential = campaign.run();
    let sequential_stats = campaign.run_streamed(&mut NullSink);
    assert_eq!(
        sequential_stats,
        sequential.stats(),
        "run_streamed stats diverged from run() for scenario {}",
        campaign.scenario().name
    );
    for workers in worker_counts() {
        let parallel = campaign.run_parallel(workers);
        assert_eq!(
            sequential,
            parallel,
            "run_parallel({workers}) diverged from run() for scenario {}",
            campaign.scenario().name
        );
        let (parallel_stats, _) = campaign.execute(.., workers, &mut NullSink, None);
        assert_eq!(
            sequential_stats,
            parallel_stats,
            "execute on {workers} workers: stats diverged for scenario {}",
            campaign.scenario().name
        );
    }
}

#[test]
fn e1_campaign_is_deterministic_across_worker_counts() {
    assert_parallel_matches_sequential(&Campaign::new(Scenario::e1_root_high(), 12, 0xD5));
}

#[test]
fn e3_campaign_is_deterministic_across_worker_counts() {
    assert_parallel_matches_sequential(&Campaign::new(Scenario::e3_fig3(), 8, 2022));
}

#[test]
fn golden_campaign_is_deterministic_across_worker_counts() {
    assert_parallel_matches_sequential(&Campaign::new(Scenario::golden(1500), 6, 7));
}

#[test]
fn memory_campaign_is_deterministic_across_worker_counts() {
    use certify_core::memfault::{MemFaultModel, MemTarget};
    assert_parallel_matches_sequential(&Campaign::new(
        Scenario::e6_memory(MemFaultModel::SingleBitFlip, MemTarget::e6()),
        8,
        0xE6,
    ));
}

#[test]
fn mixed_register_memory_campaign_is_deterministic_across_worker_counts() {
    // A campaign with BOTH injectors armed must stay bit-identical
    // between run() and run_parallel() for workers 1, 4 and
    // available_parallelism (worker_counts() covers all three).
    let campaign = Campaign::new(Scenario::e7_mixed(), 8, 2026);
    assert_parallel_matches_sequential(&campaign);
    let result = campaign.run();
    assert!(
        result.trials.iter().any(|t| t.injection_count > 0),
        "mixed campaign fired no register injections"
    );
    assert!(
        result.trials.iter().any(|t| t.mem_injection_count > 0),
        "mixed campaign applied no memory injections"
    );
}

#[test]
fn concatenated_ranges_equal_the_full_run() {
    // The shard execution primitive: `Campaign::execute` over any
    // partition of the trial space must deliver exactly the trials —
    // same global sequence numbers, same full reports — the
    // single-process `run_streamed` delivers, and the per-range stats
    // must merge to the full-run stats. E7 arms both injectors, so
    // this also pins that a range's RNG state never leaks from one
    // range into the next.
    use certify_core::campaign::TrialResult;
    use certify_core::CampaignStats;

    for (scenario, trials) in [(Scenario::e3_fig3(), 8usize), (Scenario::e7_mixed(), 6)] {
        let campaign = Campaign::new(scenario, trials, 0xD5_2022);
        let mut full = Vec::new();
        let full_stats = campaign.run_streamed(&mut |seq: usize, t: TrialResult| {
            full.push((seq, t));
        });

        for split in 1..trials {
            let mut pieces = Vec::new();
            let mut merged = CampaignStats::new(campaign.scenario().name.clone());
            for range in [0..split, split..trials] {
                let mut piece = |seq: usize, t: TrialResult| pieces.push((seq, t));
                merged.merge(&campaign.execute(range, 1, &mut piece, None).0);
            }
            assert_eq!(
                pieces,
                full,
                "ranges split at {split} diverged for scenario {}",
                campaign.scenario().name
            );
            assert_eq!(
                merged, full_stats,
                "merged range stats diverged at split {split}"
            );
        }
    }
}

#[test]
fn traced_campaigns_dump_identically_across_engines() {
    // The flight recorder rides the deterministic trial path, so a
    // traced campaign must surface byte-identical dumps — same seqs,
    // same event streams, same wire encodings — whether the trials run
    // on one worker or through the threaded reorder buffer.
    use certify_core::{encode_to_vec, CollectSink, DumpPolicy, TraceConfig};

    let config = TraceConfig::new().with_policy(DumpPolicy::all_outcomes());
    for (scenario, trials) in [(Scenario::e3_fig3(), 8usize), (Scenario::e7_mixed(), 6)] {
        let campaign = Campaign::new(scenario, trials, 0xD5_2022).with_trace(config.clone());
        let name = campaign.scenario().name.clone();

        let mut seq_sink = CollectSink::new();
        campaign.run_streamed(&mut seq_sink);
        let (seq_trials, seq_dumps) = seq_sink.into_parts();
        assert_eq!(
            seq_dumps.len(),
            trials,
            "{name}: all_outcomes must dump every trial"
        );

        for workers in worker_counts() {
            let mut par_sink = CollectSink::new();
            campaign.execute(.., workers, &mut par_sink, None);
            let (par_trials, par_dumps) = par_sink.into_parts();
            assert_eq!(
                seq_trials, par_trials,
                "{name}: traced trials diverged at {workers} workers"
            );
            assert_eq!(seq_dumps.len(), par_dumps.len(), "{name}: dump count");
            for ((seq_a, a), (seq_b, b)) in seq_dumps.iter().zip(&par_dumps) {
                assert_eq!(seq_a, seq_b, "{name}: dump sequence order");
                assert_eq!(
                    encode_to_vec(a),
                    encode_to_vec(b),
                    "{name}: trial {seq_a} dump not byte-identical at {workers} workers"
                );
            }
        }
    }
}

#[test]
fn traced_trials_repeat_their_event_streams() {
    // Same seed, same stream: re-running a traced trial reproduces the
    // recorder's exact contents, including the drop counter.
    use certify_core::{encode_to_vec, TraceConfig};

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
    let campaign = Campaign::new(Scenario::e1_root_high(), 3, 1);
    assert_eq!(campaign.run(), campaign.run_parallel(64));
}

#[test]
fn zero_workers_clamps_to_one() {
    let campaign = Campaign::new(Scenario::e1_root_high(), 2, 5);
    assert_eq!(campaign.run(), campaign.run_parallel(0));
}

#[test]
fn repeated_parallel_runs_are_stable() {
    // Work stealing means trial->worker assignment varies run to run;
    // the result must not.
    let campaign = Campaign::new(Scenario::e3_fig3(), 6, 99);
    let first: CampaignResult = campaign.run_parallel(4);
    for _ in 0..3 {
        assert_eq!(first, campaign.run_parallel(4));
    }
}
