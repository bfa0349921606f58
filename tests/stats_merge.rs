//! Algebraic properties of `CampaignStats::merge` — the sharding
//! primitive.
//!
//! A sharded campaign folds each shard's trials locally and merges
//! the per-shard stats at the coordinator, so correctness of the
//! whole tier reduces to: *merge of any partition's folds equals the
//! single fold*, which in turn needs merge to be associative with the
//! empty stats as identity. The proptests here exercise that algebra
//! over synthetic trial populations (every outcome, watchdog/monitor
//! evidence, multi-region memory faults) without paying for real
//! simulator runs; one real-campaign test pins the same laws on
//! `Campaign::execute` range output.

use certify_core::campaign::{Campaign, Scenario, TrialResult};
use certify_core::classify::RunReport;
use certify_core::memfault::MemLocus;
use certify_core::{
    AppliedMemFault, CampaignStats, MemInjectionRecord, MemRegionKind, NullSink, Outcome,
};
use proptest::collection;
use proptest::prelude::*;

/// A synthetic trial covering every field `CampaignStats::record`
/// reads: outcome, both injection counts, per-region applied memory
/// faults, watchdog expiry and monitor alarms.
#[allow(clippy::too_many_arguments)]
fn synth_trial(
    seed: u64,
    outcome_tag: u8,
    injections: u8,
    mem_injections: u8,
    region_tags: Vec<u8>,
    watchdog: Option<u64>,
    alarms: u8,
) -> TrialResult {
    let outcome = Outcome::ALL[outcome_tag as usize % Outcome::ALL.len()];
    let mem_records: Vec<MemInjectionRecord> = region_tags
        .iter()
        .map(|&tag| MemInjectionRecord {
            step: 1,
            filtered_call: 1,
            faults: vec![AppliedMemFault {
                region: MemRegionKind::ALL[tag as usize % MemRegionKind::ALL.len()],
                locus: MemLocus::RamWord,
                addr: 0x1000,
                before: 0,
                after: 1,
                len: 4,
                live: false,
            }],
            skipped: None,
        })
        .collect();
    TrialResult {
        seed,
        outcome,
        injection_count: injections as usize,
        mem_injection_count: mem_injections as usize,
        report: RunReport {
            outcome,
            injections: Vec::new(),
            mem_injections: mem_records,
            notes: Vec::new(),
            cell_state: None,
            cpu1_park: None,
            serial_line_count: 0,
            watchdog_first_expiry: watchdog,
            monitor_alarms: alarms as usize,
        },
    }
}

type TrialSpec = (u8, u8, u8, Vec<u8>, Option<u64>, u8);

fn population(specs: Vec<TrialSpec>) -> Vec<TrialResult> {
    specs
        .into_iter()
        .enumerate()
        .map(|(i, (outcome, inj, mem, regions, wd, alarms))| {
            synth_trial(i as u64, outcome, inj, mem, regions, wd, alarms)
        })
        .collect()
}

fn fold(name: &str, trials: &[TrialResult]) -> CampaignStats {
    let mut stats = CampaignStats::new(name);
    for trial in trials {
        stats.record(trial);
    }
    stats
}

fn trial_spec_strategy() -> impl Strategy<Value = Vec<TrialSpec>> {
    collection::vec(
        (
            any::<u8>(),
            0u8..4,
            0u8..4,
            collection::vec(any::<u8>(), 0..4),
            (0u64..2, 0u64..5000).prop_map(|(some, step)| (some == 1).then_some(step)),
            0u8..3,
        ),
        0..24,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// merge is associative: (a ∪ b) ∪ c == a ∪ (b ∪ c), and both
    /// equal the single fold over the concatenation.
    #[test]
    fn merge_is_associative(
        specs in trial_spec_strategy(),
        cut_a in 0.0f64..1.0,
        cut_b in 0.0f64..1.0,
    ) {
        let trials = population(specs);
        let i = (trials.len() as f64 * cut_a) as usize;
        let j = i + ((trials.len() - i) as f64 * cut_b) as usize;
        let (a, b, c) = (&trials[..i], &trials[i..j], &trials[j..]);

        let mut left = fold("s", a);
        left.merge(&fold("s", b));
        left.merge(&fold("s", c));

        let mut right_tail = fold("s", b);
        right_tail.merge(&fold("s", c));
        let mut right = fold("s", a);
        right.merge(&right_tail);

        prop_assert_eq!(&left, &right, "merge is not associative");
        prop_assert_eq!(&left, &fold("s", &trials), "merge diverged from the single fold");
    }

    /// Empty stats are a two-sided identity for merge.
    #[test]
    fn merge_with_empty_is_identity(specs in trial_spec_strategy()) {
        let stats = fold("s", &population(specs));

        let mut left = CampaignStats::new("s");
        left.merge(&stats);
        prop_assert_eq!(&left, &stats, "empty ∪ s != s");

        let mut right = stats.clone();
        right.merge(&CampaignStats::new("s"));
        prop_assert_eq!(&right, &stats, "s ∪ empty != s");
    }

    /// Folding any contiguous partition shard by shard and merging in
    /// order reproduces the single fold — the exact shape a sharded
    /// campaign's coordinator computes.
    #[test]
    fn shard_fold_equals_single_fold(
        specs in trial_spec_strategy(),
        shards in 1usize..6,
    ) {
        let trials = population(specs);
        let mut merged = CampaignStats::new("s");
        for k in 0..shards {
            let start = k * trials.len() / shards;
            let end = (k + 1) * trials.len() / shards;
            merged.merge(&fold("s", &trials[start..end]));
        }
        prop_assert_eq!(merged, fold("s", &trials));
    }
}

/// The same law on *real* engine output: per-range stats from
/// `Campaign::execute` merge to the full `run_streamed` stats, in
/// order and in a rotated order.
#[test]
fn real_campaign_range_stats_merge_to_the_full_run() {
    let campaign = Campaign::new(Scenario::e1_root_high(), 12, 0xD5);
    let full = campaign.run_streamed(&mut NullSink);
    let mut in_order = CampaignStats::new("e1-root-high");
    for range in [0..5, 5..8, 8..12] {
        in_order.merge(&campaign.execute(range, 1, &mut NullSink, None).0);
    }
    assert_eq!(in_order, full);

    // Merge order must not matter for any field that doesn't track
    // order (everything: counts, histograms, min/max/sums).
    let mut rotated = CampaignStats::new("e1-root-high");
    for range in [8..12, 0..5, 5..8] {
        rotated.merge(&campaign.execute(range, 1, &mut NullSink, None).0);
    }
    assert_eq!(rotated, full);
}
