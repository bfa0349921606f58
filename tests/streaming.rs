//! The streamed campaign engine: equivalence with the buffered path,
//! seed-order delivery, and the O(workers) residency bound.
//!
//! Contract under test (see `Campaign::execute`):
//!
//! * same seeds ⇒ identical `CampaignStats` and byte-identical CSV
//!   from `run` and `execute`, at any worker count;
//! * sinks always see trials in seed order (`seq` = 0, 1, 2, …);
//! * at most `workers` completed-but-undelivered reports exist at any
//!   time, even when the sink is slower than the workers.

use certify_analysis::{campaign_to_csv, CsvSink};
use certify_core::campaign::{Campaign, Scenario, TrialResult};
use certify_core::memfault::{MemFaultModel, MemTarget};
use certify_core::{CampaignStats, NullSink, TrialSink};
use proptest::prelude::*;

mod common;
use common::worker_counts;

/// Buffered run, sequential stream and parallel stream (all worker
/// counts) must produce identical stats — and identical CSV bytes.
fn assert_streamed_equals_buffered(campaign: &Campaign) {
    let buffered = campaign.run();
    let reference_stats = buffered.stats();
    let reference_csv = campaign_to_csv(&buffered);

    let mut seq_csv = CsvSink::in_memory();
    let seq_stats = campaign.run_streamed(&mut seq_csv);
    assert_eq!(
        seq_stats,
        reference_stats,
        "run_streamed stats diverged for {}",
        campaign.scenario().name
    );
    assert_eq!(
        seq_csv.into_csv(),
        reference_csv,
        "run_streamed CSV diverged for {}",
        campaign.scenario().name
    );

    for workers in worker_counts() {
        let mut par_csv = CsvSink::in_memory();
        let (par_stats, _) = campaign.execute(.., workers, &mut par_csv, None);
        assert_eq!(
            par_stats,
            reference_stats,
            "execute on {workers} workers: stats diverged for {}",
            campaign.scenario().name
        );
        assert_eq!(
            par_csv.into_csv(),
            reference_csv,
            "execute on {workers} workers: CSV diverged for {}",
            campaign.scenario().name
        );
    }
}

#[test]
fn e1_streamed_equals_buffered_stats_and_csv() {
    assert_streamed_equals_buffered(&Campaign::new(Scenario::e1_root_high(), 12, 0xD5));
}

#[test]
fn e3_streamed_equals_buffered_stats_and_csv() {
    assert_streamed_equals_buffered(&Campaign::new(Scenario::e3_fig3(), 8, 2022));
}

#[test]
fn memory_campaign_streamed_equals_buffered_stats_and_csv() {
    assert_streamed_equals_buffered(&Campaign::new(
        Scenario::e6_memory(MemFaultModel::SingleBitFlip, MemTarget::e6()),
        8,
        0xE6,
    ));
}

#[test]
fn mixed_campaign_streamed_equals_buffered_stats_and_csv() {
    assert_streamed_equals_buffered(&Campaign::new(Scenario::e7_mixed(), 6, 21));
}

#[test]
fn streamed_stats_equal_the_engines_own_fold() {
    // The stats the engine returns are the same as folding the sink's
    // deliveries by hand.
    let campaign = Campaign::new(Scenario::e1_root_high(), 9, 77);
    let mut folded = CampaignStats::new("e1-root-high");
    let (returned, _) = campaign.execute(.., 4, &mut folded, None);
    assert_eq!(folded, returned);
}

/// A deliberately slow sink: stalls on the first delivery so workers
/// race far ahead — the worst case for the residency bound.
struct SlowSink {
    delivered: Vec<usize>,
}

impl TrialSink for SlowSink {
    fn accept(&mut self, seq: usize, _trial: TrialResult) {
        if seq == 0 {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        self.delivered.push(seq);
    }
}

#[test]
fn undelivered_reports_never_exceed_the_worker_count() {
    let trials = 24;
    for workers in [1usize, 2, 4] {
        let campaign = Campaign::new(Scenario::golden(200), trials, 3);
        let mut sink = SlowSink {
            delivered: Vec::new(),
        };
        let (stats, high_water) = campaign.execute(.., workers, &mut sink, None);
        assert_eq!(stats.trials, trials);
        assert_eq!(sink.delivered, (0..trials).collect::<Vec<_>>());
        assert!(
            high_water <= workers,
            "{high_water} undelivered reports with {workers} workers"
        );
        assert!(high_water >= 1, "nothing was ever undelivered");
    }
}

#[test]
fn high_water_is_bounded_even_with_more_workers_than_trials() {
    let campaign = Campaign::new(Scenario::golden(200), 3, 1);
    let (stats, high_water) = campaign.execute(.., 64, &mut NullSink, None);
    assert_eq!(stats.trials, 3);
    assert!(high_water <= 3, "workers clamp to the trial count");
}

#[test]
fn empty_campaign_streams_nothing() {
    let campaign = Campaign::new(Scenario::golden(100), 0, 1);
    let mut seen = 0usize;
    let mut count = |_seq: usize, _trial: TrialResult| seen += 1;
    let (stats, high_water) = campaign.execute(.., 4, &mut count, None);
    assert_eq!(high_water, 0);
    assert_eq!(stats.trials, 0);
    assert_eq!(seen, 0);
}

/// Records exactly what the sink saw, for order assertions.
#[derive(Default)]
struct OrderSink {
    deliveries: Vec<(usize, u64)>,
}

impl TrialSink for OrderSink {
    fn accept(&mut self, seq: usize, trial: TrialResult) {
        self.deliveries.push((seq, trial.seed));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever the trial count, worker count and base seed, sinks
    /// see consecutive `seq` values with seeds `base_seed + seq`.
    #[test]
    fn sink_deliveries_arrive_in_seed_order(
        trials in 1usize..10,
        workers in 1usize..6,
        base_seed in 0u64..1000,
    ) {
        let campaign = Campaign::new(Scenario::golden(120), trials, base_seed);
        let mut sink = OrderSink::default();
        let (stats, _) = campaign.execute(.., workers, &mut sink, None);
        prop_assert_eq!(stats.trials, trials);
        let expected: Vec<(usize, u64)> =
            (0..trials).map(|i| (i, base_seed + i as u64)).collect();
        prop_assert_eq!(sink.deliveries, expected);
    }
}
