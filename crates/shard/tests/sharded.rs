//! End-to-end tests of multi-process sharded campaigns.
//!
//! Every test here spawns real `shard_worker` OS processes (the
//! `CARGO_BIN_EXE_shard_worker` binary Cargo builds alongside this
//! suite) and asserts the coordinator's merged output — stats *and*
//! CSV bytes — is identical to a single-process
//! `Campaign::run_streamed`, the invariant the whole tier rests on.
//! The recovery tests SIGKILL a worker mid-stream and hand a
//! protocol-violating executable to the coordinator; both must leave
//! the output untouched or fail loudly, never silently truncate.

use certify_analysis::export::CsvSink;
use certify_core::memfault::{MemFaultModel, MemTarget};
use certify_core::{Campaign, CampaignStats, NullSink, Scenario};
use certify_shard::{partition, run_sharded, ShardError, ShardOptions};
use std::path::PathBuf;

fn worker() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_shard_worker"))
}

fn options(shards: usize) -> ShardOptions {
    ShardOptions::new(shards).with_worker(worker())
}

/// Single-process reference output: streamed stats + CSV bytes.
fn reference(campaign: &Campaign) -> (CampaignStats, String) {
    let mut sink = CsvSink::in_memory();
    let stats = campaign.run_streamed(&mut sink);
    (stats, sink.into_csv())
}

/// Runs `campaign` sharded and asserts stats and CSV bytes match the
/// single-process reference exactly. Returns the run for extra
/// assertions.
fn assert_sharded_identical(campaign: &Campaign, opts: &ShardOptions) -> certify_shard::ShardedRun {
    let (expected_stats, expected_csv) = reference(campaign);
    let mut csv = Vec::new();
    let run = run_sharded(campaign, opts, Some(&mut csv)).expect("sharded run succeeds");
    assert_eq!(
        run.stats, expected_stats,
        "sharded stats diverged from single-process run_streamed"
    );
    assert_eq!(
        String::from_utf8(csv).unwrap(),
        expected_csv,
        "sharded CSV bytes diverged from single-process CsvSink"
    );
    assert_eq!(run.rows, campaign.trials() as u64);
    run
}

#[test]
fn partition_covers_the_trial_space_exactly() {
    assert_eq!(partition(10, 3), vec![(0, 3), (3, 3), (6, 4)]);
    assert_eq!(partition(4, 4), vec![(0, 1), (1, 1), (2, 1), (3, 1)]);
    assert_eq!(partition(3, 8).len(), 3, "shards clamp to trials");
    assert_eq!(partition(5, 0), vec![(0, 5)], "zero shards clamp to one");
    for (trials, shards) in [(1, 1), (7, 2), (100, 7), (13, 13)] {
        let ranges = partition(trials, shards);
        let mut next = 0;
        for (start, len) in ranges {
            assert_eq!(start, next, "ranges must be contiguous");
            assert!(len > 0, "no empty shard");
            next = start + len;
        }
        assert_eq!(next, trials, "ranges must cover 0..trials");
    }
}

#[test]
fn sharded_e3_matches_single_process() {
    let campaign = Campaign::new(Scenario::e3_fig3(), 240, 0xD5_2022);
    let run = assert_sharded_identical(&campaign, &options(3));
    assert_eq!(run.worker_failures, 0);
    assert_eq!(run.shard_ranges, vec![(0, 80), (80, 80), (160, 80)]);
}

#[test]
fn sharded_memory_campaign_ships_mem_specs_over_the_wire() {
    // E6 exercises the MemorySpec/MemTarget leg of the handshake
    // codec and the rtos_heartbeat flag end to end.
    let campaign = Campaign::new(
        Scenario::e6_memory(MemFaultModel::SingleBitFlip, MemTarget::e6()),
        48,
        0xE6,
    );
    let run = assert_sharded_identical(&campaign, &options(2));
    assert!(
        run.stats.mem_injected_trials > 0,
        "the sharded campaign must actually inject"
    );
}

#[test]
fn killed_worker_is_recovered_byte_identically() {
    // SIGKILL shard 1's worker after 40 rows; the coordinator must
    // re-run its range on a fresh worker and still produce output
    // byte-identical to the single-process run.
    let campaign = Campaign::new(Scenario::e3_fig3(), 240, 77);
    let opts = options(2).with_sabotage(1, 40);
    let run = assert_sharded_identical(&campaign, &opts);
    assert!(
        run.worker_failures >= 1,
        "the sabotaged worker must register as a failure"
    );
}

#[test]
fn killing_the_first_shard_mid_delivery_also_recovers() {
    // Shard 0's rows stream straight to the output while it is being
    // killed — recovery must skip the already-delivered prefix, not
    // emit it twice.
    let campaign = Campaign::new(Scenario::e1_root_high(), 120, 5);
    let opts = options(2).with_sabotage(0, 25);
    let run = assert_sharded_identical(&campaign, &opts);
    assert!(run.worker_failures >= 1);
}

#[test]
fn stats_only_runs_need_no_csv_output() {
    let campaign = Campaign::new(Scenario::e1_root_high(), 60, 11);
    let expected = campaign.run_streamed(&mut NullSink);
    let run = run_sharded(&campaign, &options(3), None).expect("sharded run succeeds");
    assert_eq!(run.stats, expected);
}

#[test]
fn more_shards_than_trials_clamps() {
    let campaign = Campaign::new(Scenario::e1_root_high(), 3, 9);
    let run = assert_sharded_identical(&campaign, &options(16));
    assert_eq!(run.shard_ranges.len(), 3);
}

#[test]
fn empty_campaign_is_a_no_op() {
    let campaign = Campaign::new(Scenario::e1_root_high(), 0, 9);
    let mut csv = Vec::new();
    let run = run_sharded(&campaign, &options(2), Some(&mut csv)).expect("empty run succeeds");
    assert_eq!(run.rows, 0);
    assert_eq!(
        String::from_utf8(csv).unwrap(),
        certify_analysis::export::CSV_HEADER,
        "an empty campaign still writes the header"
    );
}

#[test]
fn protocol_violating_worker_fails_after_retries() {
    // `cat` echoes the handshake back: a syntactically valid frame of
    // the wrong kind. Every attempt sees the violation; the run must
    // fail with the shard's attempt count, not hang or truncate.
    let campaign = Campaign::new(Scenario::e1_root_high(), 8, 3);
    let mut opts = options(1).with_worker("/bin/cat");
    opts.max_attempts = 2;
    match run_sharded(&campaign, &opts, None) {
        Err(ShardError::ShardFailed {
            shard,
            attempts,
            last_error,
        }) => {
            assert_eq!(shard, 0);
            assert_eq!(attempts, 2);
            assert!(
                last_error.contains("handshake"),
                "violation must be named: {last_error}"
            );
        }
        other => panic!("expected ShardFailed, got {other:?}"),
    }
}

#[test]
fn statically_broken_scenario_is_refused_before_spawning() {
    // A spec whose only window opens after the horizon lints as the
    // error-severity `window-all-dead`: the coordinator must refuse
    // the campaign outright. No worker binary is configured — the
    // refusal has to happen before worker resolution.
    use certify_core::spec::InjectionWindow;
    let mut scenario = Scenario::e3_fig3();
    let steps = scenario.steps;
    scenario.spec.as_mut().unwrap().cadence.windows =
        vec![InjectionWindow::new(steps + 1, steps + 100)];
    let campaign = Campaign::new(scenario, 8, 3);
    match run_sharded(&campaign, &ShardOptions::new(2), None) {
        Err(ShardError::BadScenario(diags)) => {
            assert!(
                diags
                    .iter()
                    .any(|d| d.code == certify_lint::Code::WindowAllDead),
                "diagnostics must name the dead window: {diags:?}"
            );
        }
        other => panic!("expected BadScenario, got {other:?}"),
    }
}

/// Runs every built-in scenario sharded across real worker processes.
/// Workers enforce the scenario's certificate on every trial through a
/// `ConformanceMonitor`: a single violation suppresses the Done frame
/// and kills the worker, so `worker_failures == 0` across the sweep is
/// an end-to-end soundness proof of the abstract interpreter.
fn assert_sharded_conformance(trials: usize, base_seed: u64) {
    for scenario in certify_lint::builtin_scenarios() {
        let name = scenario.name.clone();
        let campaign = Campaign::new(scenario, trials, base_seed);
        let run = run_sharded(&campaign, &options(2), None)
            .unwrap_or_else(|e| panic!("sharded `{name}` must conform to its certificate: {e:?}"));
        assert_eq!(run.worker_failures, 0, "scenario `{name}`");
        assert_eq!(run.rows, trials as u64, "scenario `{name}`");
    }
}

#[test]
fn sharded_builtins_conform_to_their_certificates() {
    assert_sharded_conformance(6, 0xCE27);
}

/// Full-depth sharded soundness: 500 trials of every built-in
/// scenario through worker processes. CI runs it with
/// `cargo test --release -p certify_shard -- --ignored`.
#[test]
#[ignore = "500-trial sharded sweep; execute in --release (CI does)"]
fn sharded_builtins_conform_to_their_certificates_at_depth() {
    assert_sharded_conformance(500, 0xCE28);
}

#[test]
fn zero_certified_budget_is_refused_before_spawning() {
    // A two-step window on E3's rate-100 cadence certifies to a zero
    // injection budget: the abstract interpreter proves the campaign
    // can never inject, which is the error-severity `cert-zero-budget`.
    // No worker binary is configured — the refusal must come from the
    // coordinator's certify pass, before worker resolution.
    use certify_core::spec::InjectionWindow;
    let mut scenario = Scenario::e3_fig3();
    scenario.spec.as_mut().unwrap().cadence.windows = vec![InjectionWindow::new(0, 2)];
    let campaign = Campaign::new(scenario, 8, 3);
    match run_sharded(&campaign, &ShardOptions::new(2), None) {
        Err(ShardError::BadScenario(diags)) => {
            assert!(
                diags
                    .iter()
                    .any(|d| d.code == certify_lint::Code::CertZeroBudget),
                "diagnostics must name the zero budget: {diags:?}"
            );
        }
        other => panic!("expected BadScenario, got {other:?}"),
    }
}

#[test]
fn warning_level_findings_do_not_block_sharded_runs() {
    // max_injections == 0 lints as a warning (`spec-zero-injection-cap`)
    // — suspicious, but the campaign is still runnable.
    let mut scenario = Scenario::e1_root_high();
    scenario.spec.as_mut().unwrap().cadence.max_injections = Some(0);
    let campaign = Campaign::new(scenario, 6, 3);
    let run = run_sharded(&campaign, &options(2), None).expect("warnings must not block");
    assert_eq!(run.rows, 6);
}

#[test]
fn missing_worker_binary_is_a_clean_error() {
    let campaign = Campaign::new(Scenario::e1_root_high(), 4, 3);
    let opts = options(1).with_worker("/nonexistent/certify/shard_worker");
    match run_sharded(&campaign, &opts, None) {
        Err(ShardError::ShardFailed { last_error, .. }) => {
            assert!(last_error.contains("spawning"), "{last_error}");
        }
        other => panic!("expected a spawn failure, got {other:?}"),
    }
}

#[test]
fn worker_with_closed_output_pipe_exits_nonzero() {
    // The satellite contract: a TrialSink write failure inside a
    // worker surfaces as a non-zero exit, never a silent truncation.
    use certify_shard::{write_frame, Frame, Handshake};
    use std::process::{Command, Stdio};

    let mut child = Command::new(worker())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn shard_worker");
    {
        let mut stdin = child.stdin.take().expect("piped stdin");
        write_frame(
            &mut stdin,
            &Frame::Handshake(Handshake {
                certificate_fingerprint: certify_lint::certify_scenario(&Scenario::e1_root_high())
                    .0
                    .fingerprint(),
                scenario: Scenario::e1_root_high(),
                base_seed: 1,
                start_trial: 0,
                len: 50,
                stats_every: 4,
                trace: None,
            }),
        )
        .expect("handshake written");
    }
    // Close our end of the worker's stdout: its next flushed row
    // write hits a broken pipe.
    drop(child.stdout.take());
    let status = child.wait().expect("worker exits");
    assert!(!status.success(), "worker must die loudly, got {status}");
    assert_eq!(
        status.code(),
        Some(certify_shard::worker::EXIT_STREAM_FAILED)
    );
}

#[test]
fn sharded_trace_dumps_match_in_process_byte_for_byte() {
    // The tracing contract across process boundaries: a traced sharded
    // run must surface exactly the dumps an in-process run buffers,
    // and each dump's wire encoding must be byte-identical — the dump
    // carries no shard- or transport-specific state.
    use certify_core::codec::encode_to_vec;
    use certify_core::{CollectSink, TraceConfig};

    let scenario = Scenario::e6_memory(MemFaultModel::SingleBitFlip, MemTarget::e6());
    let campaign = Campaign::new(scenario, 64, 0xE6D0).with_trace(TraceConfig::new());

    let mut sink = CollectSink::new();
    campaign.run_streamed(&mut sink);
    let (_, expected) = sink.into_parts();
    assert!(
        !expected.is_empty(),
        "this sweep must produce at least one anomalous dump"
    );

    let run = run_sharded(&campaign, &options(2), None).expect("sharded traced run succeeds");

    assert_eq!(run.dumps.len(), expected.len());
    for ((seq_a, a), (seq_b, b)) in expected.iter().zip(&run.dumps) {
        assert_eq!(*seq_a as u64, *seq_b);
        assert_eq!(
            encode_to_vec(a),
            encode_to_vec(&b.dump()),
            "trial {seq_a} dump drifted across the wire"
        );
    }
}

#[test]
fn sharded_forked_trials_match_trials_run_from_step_zero() {
    // Each worker forks its range's trials from a fault-free prefix it
    // builds itself and ships each dump as its suffix after that
    // prefix; the merged rows, stats and rebuilt dumps (ring counters
    // included) must equal every seed run from step 0. A one-event
    // ring truncates every suffix, a 1<<20 one drops nothing, and the
    // golden run's suffix is its verdict event alone.
    use certify_analysis::campaign_to_csv;
    use certify_core::{CampaignResult, DumpPolicy, TraceConfig};

    for capacity in [1, 64, 1 << 20] {
        let config = TraceConfig::new()
            .with_capacity(capacity)
            .with_policy(DumpPolicy::all_outcomes());
        for scenario in [
            Scenario::e3_fig3(),
            Scenario::e7_mixed(),
            Scenario::golden(600),
        ] {
            let runner = scenario.runner();
            let campaign = Campaign::new(scenario, 12, 0xD5_2022).with_trace(config.clone());
            let (trials, dumps): (Vec<_>, Vec<_>) = (0..12u64)
                .map(|seq| {
                    let (trial, dump) = runner.run_trial_traced(0xD5_2022 + seq, Some(&config));
                    (trial, (seq, dump.expect("armed recorder dumps")))
                })
                .unzip();
            let expected = CampaignResult {
                scenario_name: campaign.scenario().name.clone(),
                trials,
            };
            let mut csv = Vec::new();
            let run =
                run_sharded(&campaign, &options(3), Some(&mut csv)).expect("sharded run succeeds");
            let name = format!("{} at capacity {capacity}", expected.scenario_name);
            assert_eq!(
                String::from_utf8(csv).unwrap(),
                campaign_to_csv(&expected),
                "{name}: CSV"
            );
            assert_eq!(run.stats, expected.stats(), "{name}: stats");
            let rebuilt: Vec<_> = run
                .dumps
                .iter()
                .map(|(seq, shipped)| (*seq, shipped.dump()))
                .collect();
            assert_eq!(rebuilt, dumps, "{name}: dumps");
            for (seq, dump) in &rebuilt {
                assert_eq!(
                    dump.events.capacity(),
                    dump.events.len(),
                    "{name}: trial {seq} dump was not rebuilt at its exact length"
                );
            }
        }
    }
}

/// Full-depth tracing acceptance: 500-trial sweeps of E6 and E7 at
/// the default ring and of E7 at a 256-event ring, traced, in-process
/// and sharded. A dump must fire for *exactly* the
/// anomalous trials, and the sharded dumps must be byte-identical to
/// the in-process captures. CI runs it with
/// `cargo test --release -p certify_shard -- --ignored`.
#[test]
#[ignore = "500-trial traced sweeps; execute in --release (CI does)"]
fn traced_sweeps_dump_every_anomaly_at_depth() {
    use certify_core::codec::encode_to_vec;
    use certify_core::{CollectSink, DumpPolicy, TraceConfig, DEFAULT_TRACE_CAPACITY};

    for (scenario, capacity) in [
        (
            Scenario::e6_memory(MemFaultModel::SingleBitFlip, MemTarget::e6()),
            DEFAULT_TRACE_CAPACITY,
        ),
        (Scenario::e7_mixed(), DEFAULT_TRACE_CAPACITY),
        (Scenario::e7_mixed(), 256),
    ] {
        let campaign = Campaign::new(scenario, 500, 0xD5_2022)
            .with_trace(TraceConfig::new().with_capacity(capacity));
        let name = format!("{} at capacity {capacity}", campaign.scenario().name);

        let mut sink = CollectSink::new();
        campaign.run_streamed(&mut sink);
        let (trials, dumps) = sink.into_parts();
        let policy = DumpPolicy::anomalies();
        let anomalies: Vec<usize> = trials
            .iter()
            .enumerate()
            .filter(|(_, t)| policy.wants(t.outcome))
            .map(|(i, _)| i)
            .collect();
        assert!(!anomalies.is_empty(), "{name}: sweep produced no anomalies");
        assert_eq!(
            dumps.iter().map(|(seq, _)| *seq).collect::<Vec<_>>(),
            anomalies,
            "{name}: a dump must fire for exactly the anomalous trials"
        );

        let run = run_sharded(&campaign, &options(4), None)
            .unwrap_or_else(|e| panic!("{name}: sharded traced run failed: {e:?}"));
        assert_eq!(run.dumps.len(), dumps.len(), "{name}: sharded dump count");
        for ((seq_a, a), (seq_b, b)) in dumps.iter().zip(&run.dumps) {
            assert_eq!(*seq_a as u64, *seq_b, "{name}: dump order");
            assert_eq!(
                encode_to_vec(a),
                encode_to_vec(&b.dump()),
                "{name}: trial {seq_a} dump drifted across the wire"
            );
        }
    }
}

#[test]
fn killed_traced_worker_recovers_without_duplicate_dumps() {
    // A SIGKILLed shard re-runs its range; re-sent dumps must dedup to
    // the same set an unsabotaged run produces.
    use certify_core::codec::encode_to_vec;
    use certify_core::TraceConfig;

    let scenario = Scenario::e6_memory(MemFaultModel::SingleBitFlip, MemTarget::e6());
    let campaign = Campaign::new(scenario, 64, 0xE6D0).with_trace(TraceConfig::new());

    let clean = run_sharded(&campaign, &options(2), None).expect("clean traced run");
    let sabotaged = run_sharded(&campaign, &options(2).with_sabotage(1, 10), None)
        .expect("sabotaged traced run recovers");
    assert!(sabotaged.worker_failures >= 1);
    assert_eq!(clean.dumps.len(), sabotaged.dumps.len());
    for ((seq_a, a), (seq_b, b)) in clean.dumps.iter().zip(&sabotaged.dumps) {
        assert_eq!(seq_a, seq_b);
        assert_eq!(encode_to_vec(&a.dump()), encode_to_vec(&b.dump()));
    }
}

/// Asserts how a traced run holds its dumps: each is its suffix, cut
/// to exactly the events the ring kept after the fork, plus the trace
/// prefix of the worker attempt that sent it, shared by every dump of
/// that attempt. Each shard's dumps come from at most one attempt
/// after another, so their prefixes form contiguous runs, one per
/// attempt whose dumps were kept; returns those runs' counts, shard
/// by shard. Every held dump must rebuild to the in-process capture.
fn assert_held_as_shipped(
    run: &certify_shard::ShardedRun,
    expected: &[(usize, certify_core::TraceDump)],
    capacity: usize,
) -> Vec<usize> {
    use certify_core::codec::encode_to_vec;
    use std::sync::Arc;

    assert_eq!(run.dumps.len(), expected.len(), "dump count");
    for ((seq_a, a), (seq_b, b)) in expected.iter().zip(&run.dumps) {
        assert_eq!(*seq_a as u64, *seq_b, "dump order");
        let (prefix, suffix) = (b.prefix(), b.suffix());
        assert_eq!(
            suffix.events.len() as u64,
            (suffix.total - prefix.total).min(capacity as u64),
            "trial {seq_a}: the held suffix is exactly what the ring kept after the fork"
        );
        assert_eq!(
            encode_to_vec(a),
            encode_to_vec(&b.dump()),
            "trial {seq_a}: the held dump does not rebuild to the in-process capture"
        );
    }
    run.shard_ranges
        .iter()
        .map(|&(start, len)| {
            let range = start as u64..(start + len) as u64;
            let mut runs: Vec<_> = run
                .dumps
                .iter()
                .filter(|(seq, _)| range.contains(seq))
                .map(|(_, shipped)| shipped.prefix())
                .collect();
            runs.dedup_by(|a, b| Arc::ptr_eq(a, b));
            for (i, prefix) in runs.iter().enumerate() {
                assert!(
                    !runs[..i].iter().any(|seen| Arc::ptr_eq(seen, prefix)),
                    "shard at {start}: an attempt's dumps are not contiguous"
                );
            }
            runs.len()
        })
        .collect()
}

#[test]
fn traced_dumps_are_held_as_shared_prefix_plus_suffix() {
    // The coordinator keeps each received dump as it came off the
    // wire: no rebuilt ring per dump, one shared prefix per attempt.
    // In the sabotaged run shard 1's first worker dies after 20 rows;
    // its dumps up to there are kept from the failed attempt (first
    // copy wins) and the rest come from the retry, each under its own
    // attempt's prefix, and all of them still rebuild byte-identically.
    use certify_core::{CollectSink, TraceConfig, DEFAULT_TRACE_CAPACITY};

    let campaign =
        Campaign::new(Scenario::e7_mixed(), 240, 0xD5_2022).with_trace(TraceConfig::new());
    let mut sink = CollectSink::new();
    campaign.run_streamed(&mut sink);
    let (_, expected) = sink.into_parts();
    assert!(expected.len() > 100, "E7 dumps most trials");

    let clean = run_sharded(&campaign, &options(2), None).expect("clean traced run");
    assert_eq!(clean.worker_failures, 0);
    assert_eq!(
        assert_held_as_shipped(&clean, &expected, DEFAULT_TRACE_CAPACITY),
        vec![1, 1],
        "every dump of one attempt shares that attempt's prefix"
    );

    let sabotaged = run_sharded(&campaign, &options(2).with_sabotage(1, 20), None)
        .expect("sabotaged traced run recovers");
    assert!(sabotaged.worker_failures >= 1);
    // A killed worker can have written no more than a pipe's worth of
    // frames past row 20, far short of shard 1's remaining ~65 dumps
    // of ~16 KB each, so the retry's dumps are held too.
    assert_eq!(
        assert_held_as_shipped(&sabotaged, &expected, DEFAULT_TRACE_CAPACITY),
        vec![1, 2],
        "shard 1 holds dumps from its failed attempt and from its retry"
    );
}

#[test]
fn observed_sharded_run_emits_progress_and_stays_byte_identical() {
    use certify_obs::{CollectObserver, MonotonicClock};
    use certify_shard::run_sharded_observed;

    let campaign = Campaign::new(Scenario::e3_fig3(), 240, 0xD5_2022);
    let (expected_stats, expected_csv) = reference(&campaign);

    // Small stats_every so each worker reports several times mid-run.
    let mut opts = options(2);
    opts.stats_every = 32;
    let clock = MonotonicClock::new();
    let mut observer = CollectObserver::default();
    let mut csv = Vec::new();
    let run = run_sharded_observed(&campaign, &opts, Some(&mut csv), &clock, &mut observer)
        .expect("observed sharded run succeeds");

    // Observation must not perturb the output.
    assert_eq!(run.stats, expected_stats, "observed stats diverged");
    assert_eq!(
        String::from_utf8(csv).unwrap(),
        expected_csv,
        "observed CSV bytes diverged"
    );

    // Per-shard snapshots carry their shard id; exactly one final
    // campaign-level snapshot closes the stream at 100 %.
    let snapshots = &observer.snapshots;
    assert!(snapshots.len() > 1, "expected mid-run snapshots");
    for (shard, (_, len)) in run.shard_ranges.iter().enumerate() {
        assert!(
            snapshots
                .iter()
                .any(|s| s.source == Some(shard as u32) && s.total == *len as u64),
            "no snapshot from shard {shard}"
        );
    }
    let last = snapshots.last().unwrap();
    assert_eq!(last.source, None, "final snapshot is campaign-level");
    assert_eq!(last.done, 240);
    assert_eq!(last.total, 240);

    // Transport counters: all rows accounted, a clean wire, real time.
    assert_eq!(run.metrics.rows.get(), 240);
    assert!(run.metrics.frames.get() > 0, "frames were counted");
    assert!(run.metrics.frame_bytes.get() > 0, "wire bytes were counted");
    assert_eq!(run.metrics.crc_rejects.get(), 0);
    assert_eq!(run.metrics.retries.get(), 0);
    assert_eq!(run.metrics.wasted_rerun_trials.get(), 0);
    assert!(run.metrics.elapsed_ns.high_water() > 0);
    assert!(run.metrics.rows_per_sec() > 0.0);

    // The merged view is the fold of the per-shard views.
    assert_eq!(run.shard_metrics.len(), 2);
    let folded_rows: u64 = run.shard_metrics.iter().map(|m| m.rows.get()).sum();
    assert_eq!(folded_rows, run.metrics.rows.get());
}

#[test]
fn observed_run_prices_crash_recovery_in_wasted_trials() {
    use certify_obs::{CollectObserver, MonotonicClock};
    use certify_shard::run_sharded_observed;

    let campaign = Campaign::new(Scenario::e3_fig3(), 240, 77);
    let (expected_stats, expected_csv) = reference(&campaign);

    let mut opts = options(2).with_sabotage(1, 40);
    opts.stats_every = 32;
    let clock = MonotonicClock::new();
    let mut observer = CollectObserver::default();
    let mut csv = Vec::new();
    let run = run_sharded_observed(&campaign, &opts, Some(&mut csv), &clock, &mut observer)
        .expect("recovery still succeeds when observed");

    assert_eq!(run.stats, expected_stats);
    assert_eq!(String::from_utf8(csv).unwrap(), expected_csv);
    assert!(run.worker_failures >= 1);

    // The sabotaged attempt's rows are the recovery bill.
    assert!(run.metrics.retries.get() >= 1, "retry must be counted");
    assert!(
        run.metrics.wasted_rerun_trials.get() > 0,
        "killed worker's delivered rows must count as waste"
    );
    // Accepted rows still cover exactly the campaign.
    assert_eq!(run.metrics.rows.get(), 240);
}

/// The acceptance-criteria run: 10 000 E3 trials across multiple OS
/// processes, clean and with a mid-run worker kill, both
/// byte-identical to single-process output. ~10 s in release, far
/// slower in debug — CI runs it with
/// `cargo test --release -p certify_shard -- --ignored`.
#[test]
#[ignore = "10k-trial acceptance run; execute in --release (CI does)"]
fn sharded_10k_e3_campaign_is_byte_identical() {
    let campaign = Campaign::new(Scenario::e3_fig3(), 10_000, 0xD5_2022);
    let run = assert_sharded_identical(&campaign, &options(4));
    assert_eq!(run.worker_failures, 0);
    assert_eq!(run.shard_ranges.len(), 4);

    // Same campaign, two workers, one of them SIGKILLed mid-run.
    let opts = options(2).with_sabotage(1, 1_500);
    let run = assert_sharded_identical(&campaign, &opts);
    assert!(run.worker_failures >= 1);
}

#[test]
fn hostile_trace_frames_fail_the_shard_without_panicking() {
    // A scripted "worker" drains the handshake, then replays a fixed
    // frame stream. Every stream breaks the trace-prefix contract of
    // a ring of 8 events; each must end as a dead shard naming the
    // breach, not as a panic or an allocation sized by a wire count.
    use certify_core::{Outcome, TraceConfig, TraceDump};
    use certify_obs::trace::{TraceEvent, TraceKind};
    use certify_shard::{write_frame, Frame, TracePrefix};
    use std::os::unix::fs::PermissionsExt;

    let event = |step: u64| TraceEvent {
        step,
        cpu: 0,
        kind: TraceKind::HandlerEntry,
        arg_a: 0,
        arg_b: 0,
    };
    let prefix = |total: u64, held: u64| {
        Frame::TracePrefix(TracePrefix {
            total,
            events: (total - held..total).map(event).collect(),
        })
    };
    let row = Frame::TrialRow {
        seq: 0,
        row: b"0,correct\n".to_vec(),
    };
    let dump = |total: u64, held: u64| Frame::TraceDump {
        seq: 0,
        dump: TraceDump {
            seed: 1,
            scenario: "hostile".into(),
            outcome: Outcome::Correct,
            total,
            dropped: total - held,
            events: (total - held..total).map(event).collect(),
        },
    };
    let cases: Vec<(&str, Vec<Frame>, &str)> = vec![
        (
            "dump-before-prefix",
            vec![row.clone(), dump(3, 3)],
            "before the trace prefix",
        ),
        (
            "second-prefix",
            vec![prefix(5, 5), prefix(5, 5)],
            "second trace-prefix frame",
        ),
        (
            "prefix-over-capacity",
            vec![prefix(20, 9)],
            "holds 9 events; a ring of 8 that recorded 20 holds 8",
        ),
        (
            "prefix-over-total",
            vec![Frame::TracePrefix(TracePrefix {
                total: 2,
                events: (0..3).map(event).collect(),
            })],
            "holds 3 events; a ring of 8 that recorded 2 holds 2",
        ),
        (
            "huge-prefix-total",
            vec![prefix(u64::MAX, 3)],
            "holds 3 events; a ring of 8",
        ),
        (
            "dump-below-prefix",
            vec![prefix(5, 5), row.clone(), dump(4, 0)],
            "below the prefix total 5",
        ),
        (
            "short-suffix",
            vec![prefix(5, 5), row.clone(), dump(7, 1)],
            "suffix holds 1 events",
        ),
        (
            "long-suffix",
            vec![prefix(5, 5), row.clone(), dump(7, 3)],
            "suffix holds 3 events",
        ),
        (
            "huge-dump-total",
            vec![prefix(5, 5), row, dump(u64::MAX, 2)],
            "suffix holds 2 events",
        ),
    ];

    let dir = std::env::temp_dir().join(format!("certify-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let campaign = Campaign::new(Scenario::e1_root_high(), 2, 1)
        .with_trace(TraceConfig::new().with_capacity(8));
    for (name, frames, expected) in cases {
        let stream = dir.join(format!("{name}.frames"));
        let mut bytes = Vec::new();
        for frame in &frames {
            write_frame(&mut bytes, frame).expect("in-memory frame write");
        }
        std::fs::write(&stream, bytes).expect("frame stream written");
        let script = dir.join(name);
        std::fs::write(
            &script,
            format!(
                "#!/bin/sh\ncat > /dev/null\nexec cat '{}'\n",
                stream.display()
            ),
        )
        .expect("worker script written");
        std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755))
            .expect("worker script made executable");

        match run_sharded(&campaign, &options(1).with_worker(&script), None) {
            Err(ShardError::ShardFailed { last_error, .. }) => assert!(
                last_error.contains(expected),
                "{name}: the error must name the breach: {last_error}"
            ),
            other => panic!("{name}: expected ShardFailed, got {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
