//! Hot-path overhaul equivalence suite and the engine's equivalence
//! table.
//!
//! The trial hot path was rebuilt around incremental state — the
//! UART's line index, the hypervisor's online [`Evidence`] counters
//! and the RTOS kernel's ready lists — in place of per-trial scans.
//! This suite pins the refactor to the historical semantics:
//!
//! * the O(1) evidence counters must agree with a from-scratch scan
//!   of the structured event trace, for every trial of golden, E2,
//!   E3, E6 and mixed E7 campaigns;
//! * classification built on those counters must hand back the same
//!   `RunReport`s / `CampaignStats` through the buffered run and
//!   `execute` at workers 1 and 4, and the streamed CSV must stay
//!   byte-identical to the buffered render;
//! * the UART's incremental line index must reproduce a naive
//!   byte-at-a-time reassembly of real trial captures;
//! * the E3 distribution at the bench seed keeps its committed shape
//!   (55 panic park / 16 cpu park / 79 correct at 0xD52022);
//! * the equivalence table: every built-in scenario, untraced and
//!   traced, gives the same trials, stats, CSV bytes and trace dumps
//!   (events, `total`, `dropped`) through every mode of
//!   `Campaign::execute` — workers 0, 1, 4 and 64, range-split,
//!   sharded, and observed at workers 1 and 4 — as its trials run
//!   from step 0 (`run_trial`, `run_trial_traced`). Observed cells
//!   also pin the telemetry counts, and every cell pins the reorder
//!   bound and seed-order delivery on the caller's thread.

use certify_analysis::{campaign_to_csv, CsvSink};
use certify_core::campaign::{Campaign, CampaignResult, Scenario};
use certify_core::classify::{classify, Outcome};
use certify_core::system::System;
use certify_core::{CampaignStats, CollectSink, DumpPolicy, EngineTelemetry, NullSink};
use certify_core::{TraceConfig, TraceDump, TrialResult, TrialSink};
use certify_shard::TracePrefix;
use certify_uncertified::arch::cpu::ParkReason;
use certify_uncertified::arch::CpuId;
use certify_uncertified::hypervisor::HvEvent;
use certify_uncertified::obs::trace::FlightRecorder;
use certify_uncertified::obs::{Clock, CollectObserver, ManualClock};
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};

/// The scenarios the issue calls out, in cheap-to-run shapes.
fn scenarios() -> Vec<(Scenario, usize)> {
    use certify_core::memfault::{MemFaultModel, MemTarget};
    vec![
        (Scenario::golden(1500), 2),
        (Scenario::e2_boot_window(), 6),
        (Scenario::e3_fig3(), 8),
        (
            Scenario::e6_memory(MemFaultModel::SingleBitFlip, MemTarget::e6()),
            6,
        ),
        (Scenario::e7_mixed(), 6),
    ]
}

/// Runs one seeded trial of `scenario`, returning the live `System`
/// (the campaign engine classifies and drops it; the equivalence
/// checks need the carcass).
fn run_system(scenario: &Scenario, seed: u64) -> System {
    let script = Arc::new(scenario.script.clone());
    let mut system = if scenario.rtos_heartbeat {
        System::new_with_heartbeat(script)
    } else {
        System::new(script)
    };
    if let Some(spec) = &scenario.spec {
        system.install_injector(spec.clone(), seed);
    }
    if let Some(mem_spec) = &scenario.mem_spec {
        // Matches `TrialRunner`'s MEM_SEED_OFFSET derivation.
        system.install_mem_injector(mem_spec.clone(), seed.wrapping_add(0x6d65_6d66));
    }
    system.run(scenario.steps);
    system
}

/// Asserts the hypervisor's online evidence counters agree with a
/// from-scratch scan of the event trace — the queries `classify`
/// used to answer by iterating `hv.events()` four times.
fn assert_evidence_matches_event_scan(system: &System, context: &str) {
    let events = system.hv.events();
    let evidence = system.hv.evidence();

    for cpu in 0..system.machine.num_cpus() as u32 {
        let cpu = CpuId(cpu);
        let tally = evidence.park_tally(cpu);
        let scan = |pred: &dyn Fn(&ParkReason) -> bool| -> u64 {
            events
                .iter()
                .filter(|e| {
                    matches!(e, HvEvent::CpuParked { cpu: c, reason, .. }
                             if *c == cpu && pred(reason))
                })
                .count() as u64
        };
        assert_eq!(
            tally.unhandled_trap,
            scan(&|r| matches!(r, ParkReason::UnhandledTrap(_))),
            "{context}: unhandled-trap tally for {cpu}"
        );
        assert_eq!(
            tally.failed_online,
            scan(&|r| matches!(r, ParkReason::FailedOnline)),
            "{context}: failed-online tally for {cpu}"
        );
        assert_eq!(
            tally.idle,
            scan(&|r| matches!(r, ParkReason::Idle)),
            "{context}: idle tally for {cpu}"
        );
        assert_eq!(
            tally.cell_shutdown,
            scan(&|r| matches!(r, ParkReason::CellShutdown)),
            "{context}: cell-shutdown tally for {cpu}"
        );
        let first_trap = events.iter().find_map(|e| match e {
            HvEvent::CpuParked {
                cpu: c,
                reason: reason @ ParkReason::UnhandledTrap(_),
                ..
            } if *c == cpu => Some(*reason),
            _ => None,
        });
        assert_eq!(
            tally.first_unhandled_trap, first_trap,
            "{context}: first unhandled-trap reason for {cpu}"
        );
    }

    let violation_steps: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            HvEvent::AccessViolation { step, .. } => Some(*step),
            _ => None,
        })
        .collect();
    assert_eq!(
        evidence.access_violations(),
        violation_steps.len(),
        "{context}: total access violations"
    );
    // The classifier queries violations since the first live table
    // fault; sweep representative cut points.
    let mut cuts = vec![0, u64::MAX];
    cuts.extend(violation_steps.iter().flat_map(|&s| [s, s + 1]));
    for cut in cuts {
        assert_eq!(
            evidence.violations_since(cut),
            violation_steps.iter().filter(|&&s| s >= cut).count(),
            "{context}: violations since step {cut}"
        );
    }
}

/// Naive byte-at-a-time reassembly of the serial capture — the
/// implementation the incremental line index replaced.
fn naive_lines(system: &System) -> Vec<(u64, String)> {
    let mut lines = Vec::new();
    let mut current = Vec::new();
    let mut last_step = 0;
    for tx in system.machine.uart.captured() {
        last_step = tx.step;
        if tx.byte == b'\n' {
            lines.push((last_step, String::from_utf8_lossy(&current).into_owned()));
            current.clear();
        } else {
            current.push(tx.byte);
        }
    }
    if !current.is_empty() {
        lines.push((last_step, String::from_utf8_lossy(&current).into_owned()));
    }
    lines
}

#[test]
fn evidence_counters_match_event_scans_across_scenarios() {
    for (scenario, trials) in scenarios() {
        for seq in 0..trials as u64 {
            let seed = 0xD5_2022 + seq;
            let system = run_system(&scenario, seed);
            let context = format!("{} seed {seed}", scenario.name);
            assert_evidence_matches_event_scan(&system, &context);
        }
    }
}

#[test]
fn uart_line_index_matches_naive_reassembly_on_real_captures() {
    for (scenario, _) in scenarios() {
        let system = run_system(&scenario, 0xD5_2022);
        let naive = naive_lines(&system);
        assert_eq!(
            system.serial_lines(),
            naive,
            "{}: owned lines diverged from naive reassembly",
            scenario.name
        );
        assert_eq!(
            system.machine.uart.line_count(),
            naive.len(),
            "{}: line_count",
            scenario.name
        );
        let borrowed: Vec<(u64, String)> = system
            .machine
            .uart
            .indexed_lines()
            .map(|l| (l.step, l.text().into_owned()))
            .collect();
        assert_eq!(
            borrowed, naive,
            "{}: borrowed lines diverged from naive reassembly",
            scenario.name
        );
        // classify's serial_line_count feeds the CSV; keep it honest.
        assert_eq!(classify(&system).serial_line_count, naive.len());
    }
}

#[test]
fn streamed_and_buffered_campaigns_agree_after_the_overhaul() {
    for (scenario, trials) in scenarios() {
        let campaign = Campaign::new(scenario, trials, 0xD5_2022);
        let buffered = campaign.run();
        let (stats, _) = campaign.execute(.., 1, &mut NullSink, None);
        assert_eq!(
            stats,
            buffered.stats(),
            "{}: streamed stats diverged",
            campaign.scenario().name
        );
        let mut sink = CsvSink::in_memory();
        let (parallel_stats, _) = campaign.execute(.., 4, &mut sink, None);
        assert_eq!(
            parallel_stats,
            stats,
            "{}: parallel streamed stats diverged",
            campaign.scenario().name
        );
        assert_eq!(
            sink.into_csv(),
            campaign_to_csv(&buffered),
            "{}: streamed CSV not byte-identical to buffered",
            campaign.scenario().name
        );
        // Same seeds through the engine and through a bare System
        // must classify identically (RunReport level).
        for trial in &buffered.trials {
            let system = run_system(campaign.scenario(), trial.seed);
            assert_eq!(
                classify(&system),
                trial.report,
                "{} seed {}: classify(report) diverged from engine",
                campaign.scenario().name,
                trial.seed
            );
        }
    }
}

/// The observability law: telemetry must never influence trial
/// results. An instrumented run — phase timings, engine metrics,
/// progress snapshots — must produce the *same stats and the same CSV
/// bytes* as the uninstrumented engine, for every scenario shape.
#[test]
fn instrumented_runs_leave_results_and_csv_untouched() {
    for (scenario, trials) in scenarios() {
        let campaign = Campaign::new(scenario, trials, 0xD5_2022);
        let name = campaign.scenario().name.clone();

        let mut plain_sink = CsvSink::in_memory();
        let (plain_stats, _) = campaign.execute(.., 4, &mut plain_sink, None);
        let plain_csv = plain_sink.into_csv();

        let clock = ManualClock::new();
        let mut observer = CollectObserver::default();
        let mut telemetry = EngineTelemetry::new(&clock, &mut observer, 2);
        let mut observed_sink = CsvSink::in_memory();
        let (observed_stats, _) = campaign.execute(.., 4, &mut observed_sink, Some(&mut telemetry));
        let observed_csv = observed_sink.into_csv();

        assert_eq!(observed_stats, plain_stats, "{name}: stats diverged");
        assert_eq!(observed_csv, plain_csv, "{name}: CSV bytes diverged");

        // And the run must actually have been observed.
        let metrics = &telemetry.metrics;
        assert_eq!(metrics.trials.get(), trials as u64, "{name}: trial count");
        assert_eq!(
            metrics.phases.total.count(),
            trials as u64,
            "{name}: phase samples"
        );
        assert_eq!(metrics.sink_rows.get(), trials as u64, "{name}: sink rows");
        assert_eq!(
            metrics.sink_bytes.get(),
            plain_csv.len() as u64,
            "{name}: sink bytes"
        );
        let last = observer
            .snapshots
            .last()
            .unwrap_or_else(|| panic!("{name}: no progress snapshots"));
        assert_eq!(last.done, trials as u64, "{name}: final snapshot done");
        assert_eq!(last.total, trials as u64, "{name}: final snapshot total");
        assert_eq!(last.source, None, "{name}: campaign-level snapshot");
    }
}

/// The same law for the flight recorder: arming tracing must leave
/// the CampaignStats and the CSV bytes untouched, and leaving it off
/// (`run_trial_traced(seed, None)`) must be *exactly* `run_trial` —
/// no recorder allocation, no extra events, identical results.
#[test]
fn tracing_leaves_results_and_csv_untouched() {
    for (scenario, trials) in scenarios() {
        let campaign = Campaign::new(scenario, trials, 0xD5_2022);
        let name = campaign.scenario().name.clone();

        let mut plain_sink = CsvSink::in_memory();
        let (plain_stats, _) = campaign.execute(.., 4, &mut plain_sink, None);
        let plain_csv = plain_sink.into_csv();

        // Tracing off through the traced entry point.
        let runner = campaign.scenario().runner();
        for seq in 0..trials as u64 {
            let seed = 0xD5_2022 + seq;
            let (trial, dump) = runner.run_trial_traced(seed, None);
            assert_eq!(trial, runner.run_trial(seed), "{name}: tracing-off trial");
            assert!(dump.is_none(), "{name}: tracing off must never dump");
        }

        // Tracing on: same stats, same CSV bytes, on 4 workers and on 1.
        let traced = campaign.clone().with_trace(TraceConfig::new());
        let mut traced_sink = CsvSink::in_memory();
        let (traced_stats, _) = traced.execute(.., 4, &mut traced_sink, None);
        assert_eq!(traced_stats, plain_stats, "{name}: traced stats diverged");
        assert_eq!(
            traced_sink.into_csv(),
            plain_csv,
            "{name}: traced CSV bytes diverged"
        );
        let mut streamed_sink = CsvSink::in_memory();
        let streamed_stats = traced.run_streamed(&mut streamed_sink);
        assert_eq!(streamed_stats, plain_stats, "{name}: streamed traced stats");
        assert_eq!(
            streamed_sink.into_csv(),
            plain_csv,
            "{name}: streamed traced CSV bytes"
        );
    }
}

/// Same law under the real clock: `MonotonicClock` feeds nonzero
/// timings into the histograms without perturbing the results.
#[test]
fn instrumented_run_under_the_real_clock_matches_plain() {
    use certify_uncertified::obs::MonotonicClock;

    let campaign = Campaign::new(Scenario::e3_fig3(), 8, 0xD5_2022);
    let (plain_stats, _) = campaign.execute(.., 4, &mut NullSink, None);

    let clock = MonotonicClock::new();
    let mut observer = CollectObserver::default();
    let mut telemetry = EngineTelemetry::new(&clock, &mut observer, 0);
    let (observed_stats, _) = campaign.execute(.., 4, &mut NullSink, Some(&mut telemetry));

    assert_eq!(observed_stats, plain_stats);
    assert_eq!(telemetry.metrics.trials.get(), 8);
    assert!(
        telemetry.metrics.phases.total.sum() > 0,
        "real-clock phase timings must be nonzero"
    );
    assert_eq!(observer.snapshots.len(), 1, "progress_every=0: final only");
}

#[test]
fn e3_shape_at_the_bench_seed_is_preserved() {
    let (stats, _) =
        Campaign::new(Scenario::e3_fig3(), 150, 0xD5_2022).execute(.., 4, &mut NullSink, None);
    assert_eq!(stats.count(Outcome::PanicPark), 55, "{stats}");
    assert_eq!(stats.count(Outcome::CpuPark), 16, "{stats}");
    assert_eq!(stats.count(Outcome::Correct), 79, "{stats}");
    assert_eq!(stats.trials, 150);
}

/// What a campaign delivered: rows, dumps and CSV bytes in one pass,
/// plus each trace prefix handed over with the rows delivered before
/// it, and how many hand-overs reached the sink off the thread that
/// created it.
struct Delivered {
    collect: CollectSink,
    csv: CsvSink<Vec<u8>>,
    rows: usize,
    prefixes: Vec<(usize, TracePrefix)>,
    caller: ThreadId,
    off_thread: usize,
}

impl Delivered {
    fn new() -> Delivered {
        Delivered {
            collect: CollectSink::new(),
            csv: CsvSink::in_memory(),
            rows: 0,
            prefixes: Vec::new(),
            caller: thread::current().id(),
            off_thread: 0,
        }
    }

    fn note_thread(&mut self) {
        if thread::current().id() != self.caller {
            self.off_thread += 1;
        }
    }
}

impl TrialSink for Delivered {
    fn accept(&mut self, seq: usize, trial: TrialResult) {
        self.note_thread();
        self.rows += 1;
        self.csv.accept(seq, trial.clone());
        self.collect.accept(seq, trial);
    }

    fn accept_dump(&mut self, seq: usize, dump: TraceDump) {
        self.note_thread();
        self.collect.accept_dump(seq, dump);
    }

    fn accept_trace_prefix(&mut self, prefix: &FlightRecorder) {
        self.note_thread();
        self.prefixes.push((self.rows, TracePrefix::of(prefix)));
    }

    fn bytes_written(&self) -> Option<u64> {
        self.csv.bytes_written()
    }
}

/// Scripted time that also records which threads read it: an observed
/// trial reads the clock on the thread that runs it.
#[derive(Default)]
struct ThreadClock {
    time: ManualClock,
    readers: Mutex<Vec<ThreadId>>,
}

impl Clock for ThreadClock {
    fn now_ns(&self) -> u64 {
        self.readers
            .lock()
            .expect("clock readers")
            .push(thread::current().id());
        self.time.now_ns()
    }
}

/// The modes of the equivalence table, each one or more
/// `Campaign::execute` calls over the whole campaign:
/// `"workers-N"` is one call on N workers; `"range-split"` is three
/// uneven ranges on 2 workers; `"sharded"` is the shard coordinator's
/// partition, each range on one worker the way a shard worker runs
/// it; `"observed-N"` is one call on N workers with telemetry.
const MODES: [&str; 8] = [
    "workers-0",
    "workers-1",
    "workers-4",
    "workers-64",
    "range-split",
    "sharded",
    "observed-1",
    "observed-4",
];

/// Runs `campaign` in one table mode and returns the merged stats,
/// the deliveries and the first trial of each engine call. Checks the
/// mode's engine-side cells on the way: the reorder high-water mark is
/// within `1..=workers` (clamped to the range), every hand-over reaches
/// the sink on the caller's thread, and an observed run records one
/// phase sample, row and progress count per trial, the sink's bytes,
/// and reads its clock on the caller's thread exactly when it runs on
/// one worker.
fn run_mode(
    campaign: &Campaign,
    mode: &str,
    context: &str,
) -> (CampaignStats, Delivered, Vec<usize>) {
    let n = campaign.trials();
    let (workers, ranges, observed) = match mode {
        "range-split" => (2, vec![(0, 1), (1, n / 2 - 1), (n / 2, n - n / 2)], false),
        "sharded" => (1, certify_shard::partition(n, 3), false),
        _ => {
            let (observed, workers) = match mode.split_once('-') {
                Some(("workers", workers)) => (false, workers),
                Some(("observed", workers)) => (true, workers),
                _ => panic!("unknown mode {mode}"),
            };
            let workers: usize = workers.parse().expect("worker count");
            (workers, vec![(0, n)], observed)
        }
    };
    let clock = ThreadClock::default();
    let mut observer = CollectObserver::default();
    let mut telemetry = EngineTelemetry::new(&clock, &mut observer, 2);
    let mut delivered = Delivered::new();
    let mut stats = CampaignStats::new(campaign.scenario().name.clone());
    for &(start, len) in &ranges {
        let (range_stats, high_water) = campaign.execute(
            start..start + len,
            workers,
            &mut delivered,
            observed.then_some(&mut telemetry),
        );
        assert!(
            (1..=workers.clamp(1, len)).contains(&high_water),
            "{context}: reorder high-water {high_water} for {len} trials on {workers} workers"
        );
        stats.merge(&range_stats);
    }
    assert_eq!(
        delivered.off_thread, 0,
        "{context}: delivered off the caller's thread"
    );
    if observed {
        let metrics = telemetry.metrics;
        assert_eq!(metrics.trials.get(), n as u64, "{context}: trial count");
        assert_eq!(
            metrics.phases.total.count(),
            n as u64,
            "{context}: phase samples"
        );
        assert_eq!(metrics.sink_rows.get(), n as u64, "{context}: sink rows");
        assert_eq!(
            Some(metrics.sink_bytes.get()),
            delivered.bytes_written(),
            "{context}: sink bytes"
        );
        let last = observer
            .snapshots
            .last()
            .unwrap_or_else(|| panic!("{context}: no progress snapshots"));
        assert_eq!(last.done, n as u64, "{context}: final snapshot done");
        assert_eq!(last.total, n as u64, "{context}: final snapshot total");
        assert_eq!(last.source, None, "{context}: campaign-level snapshot");
        let readers = clock.readers.into_inner().expect("clock readers");
        let on_caller = readers.iter().all(|reader| *reader == delivered.caller);
        assert_eq!(
            on_caller,
            workers == 1,
            "{context}: trials ran on the caller's thread exactly when on one worker"
        );
    }
    (
        stats,
        delivered,
        ranges.iter().map(|&(start, _)| start).collect(),
    )
}

/// The equivalence table. Forked ≡ from-scratch, and every mode ≡
/// every other: for every built-in scenario, untraced and traced with
/// every trial dumped, each [`MODES`] cell must deliver exactly the
/// trials, dumps (events, `total`, `dropped`), CSV bytes and stats of
/// trials run from step 0. Tracing off through the traced entry point
/// must be exactly `run_trial`.
#[test]
fn forked_trials_equal_from_scratch_trials_in_every_mode() {
    let traced = TraceConfig::new().with_policy(DumpPolicy::all_outcomes());
    let mut dropped_before_fork = false;
    for scenario in certify_lint::builtin_scenarios() {
        let name = scenario.name.clone();
        let trials = if name.starts_with("e3") { 6 } else { 4 };
        let runner = scenario.runner();
        let campaign = Campaign::new(scenario, trials, 0xD5_2022);

        // The reference: every seed from step 0, traced and untraced.
        let mut scratch = Vec::new();
        let mut scratch_dumps = Vec::new();
        for seq in 0..trials {
            let seed = 0xD5_2022 + seq as u64;
            let (trial, dump) = runner.run_trial_traced(seed, Some(&traced));
            assert_eq!(
                trial,
                runner.run_trial(seed),
                "{name}: traced scratch trial"
            );
            assert_eq!(
                runner.run_trial_traced(seed, None),
                (trial.clone(), None),
                "{name}: tracing off is exactly run_trial"
            );
            scratch_dumps.push((seq, dump.expect("armed recorder dumps")));
            scratch.push(trial);
        }
        let reference = CampaignResult {
            scenario_name: name.clone(),
            trials: scratch,
        };
        let (stats, csv) = (reference.stats(), campaign_to_csv(&reference));
        dropped_before_fork |= scratch_dumps.iter().any(|(_, d)| d.dropped > 0);

        for (config, expect_dumps) in [(None, &Vec::new()), (Some(&traced), &scratch_dumps)] {
            let campaign = match config {
                Some(config) => campaign.clone().with_trace(config.clone()),
                None => campaign.clone(),
            };
            for mode in MODES {
                let context = format!("{name} {mode} traced={}", config.is_some());
                let (mode_stats, delivered, calls) = run_mode(&campaign, mode, &context);
                let prefixes = delivered.prefixes;
                let (mode_trials, mode_dumps) = delivered.collect.into_parts();
                assert_eq!(mode_trials, reference.trials, "{context}: trials");
                assert_eq!(&mode_dumps, expect_dumps, "{context}: dumps");
                assert_eq!(delivered.csv.into_csv(), csv, "{context}: CSV bytes");
                assert_eq!(mode_stats, stats, "{context}: stats");
                // One prefix per engine call, before its first row, and
                // every dump is that prefix's ring continued.
                let Some(config) = config else {
                    assert!(prefixes.is_empty(), "{context}: untraced prefix");
                    continue;
                };
                let at: Vec<usize> = prefixes.iter().map(|(rows, _)| *rows).collect();
                assert_eq!(at, calls, "{context}: prefix hand-overs");
                for (_, prefix) in &prefixes {
                    assert_eq!(prefix, &prefixes[0].1, "{context}: prefixes differ");
                }
                let prefix = &prefixes[0].1;
                for (seq, dump) in &mode_dumps {
                    let suffix = prefix.suffix(dump.clone());
                    assert_eq!(
                        prefix.check_suffix(config.capacity, &suffix),
                        Ok(()),
                        "{context}: trial {seq}'s suffix does not fit the prefix"
                    );
                    assert_eq!(
                        &prefix.rebuild(config.capacity, &suffix),
                        dump,
                        "{context}: trial {seq}'s ring does not continue the prefix"
                    );
                }
            }
        }
    }
    assert!(
        dropped_before_fork,
        "some scenario must overflow its ring, so the forked ring's counters are tested"
    );
}

/// The fork steps the built-in scenarios share their trials' prefix
/// up to: the first injections land at step 3158 (E3), 3159 (E5a,
/// E7) and 25 (E6); golden runs are all prefix. E2 with phase jitter
/// forks at the first matching call.
#[test]
fn fork_steps_of_the_paper_scenarios() {
    use certify_core::memfault::{MemFaultModel, MemTarget};
    let fork = |scenario: Scenario| scenario.runner().fork_step();
    assert_eq!(fork(Scenario::e3_fig3()), 3157);
    assert_eq!(fork(Scenario::e5a_watchdog()), 3158);
    assert_eq!(fork(Scenario::e7_mixed()), 3158);
    assert_eq!(
        fork(Scenario::e6_memory(
            MemFaultModel::SingleBitFlip,
            MemTarget::e6()
        )),
        24
    );
    assert_eq!(fork(Scenario::golden(1500)), 1500);
    let e2 = fork(Scenario::e2_nonroot_high());
    assert!(e2 < 30, "E2's jittered cadence forks early, got {e2}");
}
