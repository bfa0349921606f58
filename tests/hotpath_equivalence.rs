//! The engine's equivalence table, and the hot-path checks that sit
//! beside it.
//!
//! * The equivalence table: every built-in scenario, untraced and
//!   traced, gives the same trials, stats, CSV bytes and trace dumps
//!   (events, `total`, `dropped`) through every mode of
//!   `Campaign::execute` as its trials run from step 0 (`run_trial`,
//!   `run_trial_traced`): workers 0, 1, 2, 4, 64 and the host's
//!   `available_parallelism`, range-split, observed at 1 and 4
//!   workers, and for E3 and E7 every split point of a two-range
//!   split. `crates/shard/tests/sharded.rs` runs the same scenarios
//!   through real shard worker processes. Observed cells also pin the
//!   telemetry counts, every cell pins the undelivered-report bound and
//!   seed-order delivery on the caller's thread, and an oracle column
//!   classifies every seed on a bare `System`. The modes and the
//!   comparison live in the equivalence harness, `tests/common/mod.rs`.
//! * Rows of the same harness at other shapes: collected and streamed
//!   deliveries at workers 1 and 4, observed runs and traced runs of a
//!   set of cheap scenario shapes.
//! * The UART's incremental line index must reproduce a naive
//!   byte-at-a-time reassembly of real trial captures.
//! * The E3 distribution at `full_report`'s seed keeps its committed
//!   shape (55 panic park / 16 cpu park / 79 correct at 0xD52022).
//! * Fork steps, copy-on-write forks, the certificate phases and the
//!   one-injection property of the paper scenarios.

use certify_core::campaign::{Campaign, Scenario};
use certify_core::classify::{classify, Outcome};
use certify_core::system::System;
use certify_core::{CollectSink, DumpPolicy, EngineTelemetry, NullSink, TraceConfig};
use certify_uncertified::obs::CollectObserver;

mod common;
use common::{check, check_campaign, check_oracle, e7_stage2_after_fork, finish_trial};
use common::{fresh_system, modes, reference, run_system, splits, table_scenarios, Mode};

/// Paper scenarios in cheap-to-run shapes, for the UART test and the
/// rows below.
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
        (e7_stage2_after_fork(), 12),
    ]
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

/// Collected and streamed deliveries of the cheap shapes agree at
/// workers 1 and 4: trials (whole `RunReport`s), stats and CSV bytes,
/// and a bare `System` classifies every seed the same way.
#[test]
fn streamed_and_buffered_campaigns_agree_after_the_overhaul() {
    for (scenario, trials) in scenarios() {
        let campaign = Campaign::new(scenario, trials, 0xD5_2022);
        let reference = check_campaign(&campaign, &[Mode::Workers(1), Mode::Workers(4)]);
        check_oracle(campaign.scenario(), &reference);
    }
}

/// The observability law: telemetry must never influence trial
/// results. An instrumented run — phase timings, engine metrics,
/// progress snapshots — must deliver the same trials, stats and CSV
/// bytes as the trials run from step 0, for every scenario shape.
#[test]
fn instrumented_runs_leave_results_and_csv_untouched() {
    for (scenario, trials) in scenarios() {
        let campaign = Campaign::new(scenario, trials, 0xD5_2022);
        check_campaign(&campaign, &[Mode::Observed(4)]);
    }
}

/// The same law for the flight recorder: arming tracing must leave the
/// trials, stats and CSV bytes untouched, on 4 workers and on 1.
#[test]
fn tracing_leaves_results_and_csv_untouched() {
    for (scenario, trials) in scenarios() {
        let campaign = Campaign::new(scenario, trials, 0xD5_2022);
        let plain = reference(&campaign);
        let traced = campaign.with_trace(TraceConfig::new());
        let name = traced.scenario().name.clone();
        let traced = check_campaign(&traced, &[Mode::Workers(4), Mode::Workers(1)]);
        assert_eq!(traced.trials, plain.trials, "{name}: traced trials");
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

/// The equivalence table. Forked ≡ from-scratch, and every mode ≡
/// every other: for every built-in scenario (plus
/// [`e7_stage2_after_fork`], whose trials write the stage-2 tables they
/// share with their prefix), untraced and traced with every trial
/// dumped, each cell of [`modes`] (and for E3 and E7 each of
/// [`splits`]) must deliver exactly the trials, dumps (events, `total`,
/// `dropped`), CSV bytes and stats of trials run from step 0. Tracing
/// off must be exactly `run_trial`, tracing on must not change a
/// trial, and the oracle column — the seed's injectors installed into a
/// bare `System` run to the end — must classify to every trial's
/// report.
#[test]
fn forked_trials_equal_from_scratch_trials_in_every_mode() {
    let traced = TraceConfig::new().with_policy(DumpPolicy::all_outcomes());
    let split = [Scenario::e3_fig3().name, Scenario::e7_mixed().name];
    let mut dropped_before_fork = false;
    for scenario in table_scenarios() {
        let name = scenario.name.clone();
        let trials = if name.starts_with("e3") { 6 } else { 4 };
        let mut modes = modes();
        if split.contains(&name) {
            modes.extend(splits(trials));
        }
        let runner = scenario.runner();
        let campaign = Campaign::new(scenario, trials, 0xD5_2022);

        let untraced = reference(&campaign);
        for trial in &untraced.trials {
            assert_eq!(
                &runner.run_trial(trial.seed),
                trial,
                "{name} seed {:#x}: tracing off is exactly run_trial",
                trial.seed
            );
        }
        check_oracle(campaign.scenario(), &untraced);
        check(&campaign, &untraced, &modes);

        let campaign = campaign.with_trace(traced.clone());
        let scratch = reference(&campaign);
        assert_eq!(
            scratch.trials, untraced.trials,
            "{name}: traced scratch trials"
        );
        assert_eq!(scratch.dumps.len(), trials, "{name}: every trial dumps");
        dropped_before_fork |= scratch.dumps.iter().any(|(_, d)| d.dropped > 0);
        check(&campaign, &scratch, &modes);
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

/// Copy-on-write isolation at the system level: forks of one prefix
/// that corrupt its shared stage-2 tables, or write its shared RAM
/// pages, copy them first. The prefix stays byte-identical, so every
/// later fork starts from the same state.
#[test]
fn forks_that_write_shared_state_leave_the_prefix_untouched() {
    let scenario = e7_stage2_after_fork();
    let mut prefix = fresh_system(&scenario);
    prefix.run(scenario.runner().fork_step());

    let tables = |system: &System| -> Vec<_> {
        system
            .hv
            .cells()
            .map(|cell| cell.stage2().clone())
            .collect()
    };
    // The words of the prefix's resident pages, as `system` holds them.
    let pages = prefix.machine.ram().resident_page_addrs();
    let ram = |system: &System| -> Vec<u32> {
        let ram = system.machine.ram();
        let words = pages
            .iter()
            .flat_map(|page| (0..1024).map(move |i| page + 4 * i));
        words.map(|addr| ram.read32(addr).unwrap()).collect()
    };
    let (prefix_tables, prefix_ram) = (tables(&prefix), ram(&prefix));
    assert_eq!(prefix_tables.len(), 2, "both cells exist at the fork");

    let (mut wrote_tables, mut wrote_ram) = (0, 0);
    for seq in 0..12 {
        let mut fork = prefix.clone();
        finish_trial(&mut fork, &scenario, 0xD5_2022 + seq);
        wrote_tables += usize::from(tables(&fork) != prefix_tables);
        wrote_ram += usize::from(ram(&fork) != prefix_ram);
        assert_eq!(tables(&prefix), prefix_tables, "seed {seq}: prefix tables");
        assert_eq!(ram(&prefix), prefix_ram, "seed {seq}: prefix RAM");
        assert_eq!(prefix.machine.ram().resident_page_addrs(), pages);
    }
    assert!(wrote_tables > 0, "no fork wrote a shared stage-2 table");
    assert!(wrote_ram > 0, "no fork wrote a shared RAM page");
}

/// Cross-checks the fork step against the pre-flight certificate, for
/// every built-in scenario plus E6 with its memory window opened late.
///
/// The off-by-one: the fork step counts steps *run*, while a phase's
/// `start` is a step *number*, and the `k`-th step runs with
/// `machine.now() == k`. A trial forked at step `F` can therefore first
/// inject at step `F + 1`, and no injector fires before its earliest
/// phase starts, so `F + 1 >= earliest start`. Equality holds when the
/// injector's first due call comes before its window opens, as in the
/// windowed E6: it forks at 3299 for a window starting at step 3300. A
/// scenario without injectors forks at its last step. And over a fixed
/// set of seeds run from step 0, every register and memory injection
/// attempt lands after the fork step and inside one of its domain's
/// phases.
#[test]
fn fork_steps_agree_with_the_certificate_phases() {
    use certify_core::memfault::{MemFaultModel, MemTarget};
    use certify_core::spec::{MemorySpec, Paced};
    let late_window = Scenario {
        name: "e6-late-window".into(),
        mem_spec: Some(
            MemorySpec::e6_memory(MemFaultModel::SingleBitFlip, MemTarget::e6())
                .with_window(3300, 4500),
        ),
        ..Scenario::e6_memory(MemFaultModel::SingleBitFlip, MemTarget::e6())
    };
    let mut checked = 0;
    for scenario in certify_lint::builtin_scenarios()
        .into_iter()
        .chain([late_window])
    {
        let name = &scenario.name;
        let runner = scenario.runner();
        let fork = runner.fork_step();
        let (certificate, _) = certify_lint::certify_scenario(&scenario);
        let (reg_phases, mem_phases) = (&certificate.reg_phases, &certificate.mem_phases);
        match reg_phases.iter().chain(mem_phases).map(|p| p.start).min() {
            Some(earliest) => assert!(
                fork + 1 >= earliest,
                "{name}: fork step {fork} is before the earliest phase start {earliest}"
            ),
            None => assert_eq!(fork, scenario.steps, "{name}: no phase, whole-run prefix"),
        }
        if name == "e6-late-window" {
            assert_eq!((fork, mem_phases[0].start), (3299, 3300), "{name}");
        }

        let in_phase = |phases: &[certify_core::PhaseBound], step: u64| {
            phases.iter().any(|p| p.start <= step && step < p.end)
        };
        for seq in 0..3 {
            let report = runner.run_trial(0xD5_2022 + seq).report;
            let reg = report.injections.iter().map(|r| (r.step, reg_phases));
            let mem = report.mem_injections.iter().map(|r| (r.step, mem_phases));
            for (step, phases) in reg.chain(mem) {
                assert!(step > fork, "{name}: injection at step {step}, fork {fork}");
                assert!(
                    in_phase(phases, step),
                    "{name}: injection at step {step} outside every phase"
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 0, "no seed injected");
}

/// The one-injection property behind an enumerable fault space: in
/// E1, the E2 boot window, E3, E5a and E5b every trial records exactly
/// one register injection and no memory injection, and every seed
/// injects at the same `(step, cpu, handler)` with the same number of
/// faults. Only the flipped bits depend on the seed. (The free-running
/// E2 campaign injects a seed-dependent number of times, and E7 adds
/// memory injections, so neither has the property.)
#[test]
fn one_injection_scenarios_inject_once_at_a_seed_independent_call() {
    use certify_uncertified::hypervisor::HandlerKind::{ArchHandleHvc, ArchHandleTrap};
    let cases = [
        (Scenario::e1_root_high(), (64, 0, ArchHandleHvc, 3)),
        (Scenario::e2_boot_window(), (22, 1, ArchHandleHvc, 3)),
        (Scenario::e3_fig3(), (3158, 1, ArchHandleTrap, 1)),
        (Scenario::e5a_watchdog(), (3159, 1, ArchHandleTrap, 1)),
        (Scenario::e5b_monitor(), (22, 1, ArchHandleHvc, 3)),
    ];
    for (scenario, expected) in cases {
        let name = scenario.name.clone();
        let mut sink = CollectSink::new();
        Campaign::new(scenario, 64, 0xD5_2022).execute(.., 1, &mut sink, None);
        for trial in sink.into_trials() {
            let report = &trial.report;
            let seed = trial.seed;
            assert!(
                report.mem_injections.is_empty(),
                "{name} seed {seed:#x}: memory injections"
            );
            let [record] = report.injections.as_slice() else {
                panic!(
                    "{name} seed {seed:#x}: {} register injections",
                    report.injections.len()
                );
            };
            let call = (
                record.step,
                record.cpu.0,
                record.handler,
                record.faults.len(),
            );
            assert_eq!(call, expected, "{name} seed {seed:#x}");
        }
    }
}
