//! The streamed campaign engine: equivalence with collected trials,
//! seed-order delivery, and the O(workers) residency bound.
//!
//! Contract under test (see `Campaign::execute`):
//!
//! * same seeds ⇒ identical trials, `CampaignStats` and byte-identical
//!   CSV from `execute` into a sink, at any worker count, as from the
//!   seeds run from step 0 and rendered by `campaign_to_csv` (rows of
//!   the equivalence harness, `tests/common/mod.rs`);
//! * sinks always see trials in seed order (`seq` = 0, 1, 2, …);
//! * at most `workers` completed-but-undelivered reports exist at any
//!   time, even when the sink is slower than the workers.

use certify_analysis::campaign_to_csv;
use certify_arch::CpuId;
use certify_core::campaign::{Campaign, Scenario, TrialResult};
use certify_core::memfault::{MemFaultModel, MemFaultSkip, MemRegionKind, MemTarget};
use certify_core::telemetry::EngineTelemetry;
use certify_core::{CampaignStats, CollectSink, MemorySpec, NullSink, Paced, TrialSink};
use certify_hypervisor::HandlerKind;
use certify_obs::{Clock, NullObserver};
use proptest::prelude::*;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

mod common;
use common::{check_campaign, modes};

#[test]
fn e1_streamed_equals_buffered_stats_and_csv() {
    check_campaign(&Campaign::new(Scenario::e1_root_high(), 12, 0xD5), &modes());
}

#[test]
fn e3_streamed_equals_buffered_stats_and_csv() {
    check_campaign(&Campaign::new(Scenario::e3_fig3(), 8, 2022), &modes());
}

#[test]
fn memory_campaign_streamed_equals_buffered_stats_and_csv() {
    let scenario = Scenario::e6_memory(MemFaultModel::SingleBitFlip, MemTarget::e6());
    check_campaign(&Campaign::new(scenario, 8, 0xE6), &modes());
}

/// A descriptor attack fired before the script creates the non-root
/// cell has no victim: the engine records the typed skip and the CSV
/// notes name it. Debug builds also run the engine's skip check on
/// every delivered trial, which accepts the skip because the spec's
/// descriptor path may end that way.
#[test]
fn a_descriptor_attack_before_the_cell_exists_is_a_no_victim_skip() {
    let model = MemFaultModel::DescriptorInvalidate;
    let target = MemTarget::only(MemRegionKind::Stage2Tables);
    let mut scenario = Scenario::e6_memory(model.clone(), target.clone());
    // Paced by the root cell's hypercalls, the first fire is the
    // enable call, well before `CreateCell`.
    let spec = MemorySpec::new(model, target, [HandlerKind::ArchHandleHvc], Some(CpuId(0)));
    assert!(spec.may_skip(MemFaultSkip::NoVictimCell));
    scenario.mem_spec = Some(spec.with_rate(1));
    scenario.steps = 600;
    let mut collect = CollectSink::new();
    Campaign::new(scenario, 2, 0xD5_2022).execute(.., 1, &mut collect, None);
    let trials = collect.into_trials();
    for trial in &trials {
        let first = &trial.report.mem_injections[0];
        assert_eq!(first.outcome, Err(MemFaultSkip::NoVictimCell), "{first}");
    }
    let csv = campaign_to_csv(&trials);
    assert!(
        csv.contains("skipped (first: no non-root victim cell exists)"),
        "{csv}"
    );
}

#[test]
fn mixed_campaign_streamed_equals_buffered_stats_and_csv() {
    check_campaign(&Campaign::new(Scenario::e7_mixed(), 6, 21), &modes());
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

/// A sink that dies mid-campaign: it panics on delivery `seq` 10.
struct PanickingSink;

impl TrialSink for PanickingSink {
    fn accept(&mut self, seq: usize, _trial: TrialResult) {
        if seq == 10 {
            panic!("sink gave up at seq {seq}");
        }
    }
}

/// A clock that panics on its 40th read: with telemetry attached, a
/// trial that dies mid-campaign on whichever thread takes that read.
struct FailingClock(AtomicU64);

impl Clock for FailingClock {
    fn now_ns(&self) -> u64 {
        let reads = self.0.fetch_add(1, Ordering::Relaxed) + 1;
        if reads == 40 {
            panic!("clock failed at read {reads}");
        }
        reads
    }
}

/// Runs `run` on its own thread, so that a teardown that deadlocks
/// fails the calling test instead of hanging it, and returns the
/// message of the panic it raised, if any.
fn panic_message(run: impl FnOnce() + Send + 'static) -> Option<String> {
    let (done, outcome) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let message = std::panic::catch_unwind(AssertUnwindSafe(run))
            .err()
            .map(|payload| match payload.downcast::<String>() {
                Ok(message) => *message,
                Err(_) => "a panic without a message".into(),
            });
        let _ = done.send(message);
    });
    outcome
        .recv_timeout(Duration::from_secs(120))
        .expect("the campaign hung after a panic")
}

#[test]
fn sink_panic_reaches_the_caller_instead_of_hanging() {
    for workers in [1usize, 4] {
        let message = panic_message(move || {
            let campaign = Campaign::new(Scenario::golden(200), 24, 3);
            campaign.execute(.., workers, &mut PanickingSink, None);
        });
        assert_eq!(
            message.as_deref(),
            Some("sink gave up at seq 10"),
            "execute on {workers} workers must re-raise the sink's own panic"
        );
    }
}

#[test]
fn trial_panic_reaches_the_caller_instead_of_hanging() {
    for workers in [1usize, 4] {
        let message = panic_message(move || {
            let campaign = Campaign::new(Scenario::golden(200), 24, 3);
            let clock = FailingClock(AtomicU64::new(0));
            let mut observer = NullObserver;
            let mut telemetry = EngineTelemetry::new(&clock, &mut observer, 0);
            campaign.execute(.., workers, &mut NullSink, Some(&mut telemetry));
        });
        assert_eq!(
            message.as_deref(),
            Some("clock failed at read 40"),
            "execute on {workers} workers must re-raise the trial's own panic"
        );
    }
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
