//! Wall-clock per-trial latency of the campaign hot path.
//!
//! The ROADMAP's perf item tracks the cost of one fault-injection
//! trial end to end — `System` construction, the 4500-step E3 run and
//! classification — against a <0.2 ms target (the seed measured
//! ~0.8 ms). This harness measures it directly with `std::time`
//! (criterion's sampling adds nothing for a millisecond-scale,
//! deterministic workload), prints a per-scenario table and emits a
//! machine-readable `BENCH_hotpath.json` so CI can detect regressions.
//!
//! Modes (after `--`):
//!
//! * *(none)* — full run: 5 rounds × 400 trials per scenario;
//! * `--fast` — smoke run: 3 rounds × 120 trials;
//! * `--emit <path>` — also write the JSON report to `<path>`;
//! * `--check <path>` — compare the E3 mean against the committed
//!   baseline JSON and exit non-zero if it regressed by more than
//!   25 % (the CI gate);
//! * `--overhead-check` — interleave plain and telemetry-observed E3
//!   engine runs (`Campaign::execute` on one worker, forking every
//!   trial from the shared prefix, without and with an
//!   `EngineTelemetry`), and plain, tracing-off
//!   (`run_trial_traced(seed, None)`) and tracing-on E3 trials; fail if
//!   observation or the disarmed tracing path costs more than 5 % over
//!   plain, or the armed flight recorder more than 25 % (the
//!   observability overhead gates). The traced means also ride in the
//!   JSON report (`e3_traced_off_mean_us`, `e3_traced_on_mean_us`).
//!
//! Per-trial latencies are also folded into a `certify_obs::Histogram`
//! (5 µs buckets), so the report carries E3 p50/p90/p99 alongside the
//! round means; the JSON keys are appended after the original schema,
//! which stays backward-compatible for the committed baseline.
//!
//! The headline metric is the **best-round mean**: the mean per-trial
//! wall time of the fastest round. Rounds amortise interference from
//! co-tenants on shared CI hardware; the best round estimates the
//! unloaded cost, which is what code changes move.
//!
//! Regenerate with `cargo bench -p certify_bench --bench
//! trial_latency` (add `-- --fast` for the smoke configuration).

use certify_bench::{json_number, resolve_baseline_path as resolve};
use certify_core::campaign::Scenario;
use certify_core::{Campaign, EngineTelemetry, MemFaultModel, MemTarget, NullSink, TraceConfig};
use certify_obs::{Histogram, MonotonicClock, NullObserver};
use std::time::Instant;

/// The per-trial budget the ROADMAP targets, in microseconds.
const TARGET_US: f64 = 200.0;
/// The seed-state cost this work started from, in microseconds.
const SEED_BASELINE_US: f64 = 805.0;
/// CI failure threshold: measured mean may exceed the committed
/// baseline by at most this factor.
const REGRESSION_FACTOR: f64 = 1.25;
/// Observability overhead gate: an observed trial may cost at most
/// this factor of an unobserved one.
const OVERHEAD_FACTOR: f64 = 1.05;
/// Tracing-on gate: a trial with the flight recorder armed may cost at
/// most this factor of a plain one.
const TRACING_ON_FACTOR: f64 = 1.25;

struct Config {
    rounds: usize,
    trials: usize,
    emit: Option<String>,
    check: Option<String>,
    overhead_check: bool,
    fast: bool,
}

fn parse_args() -> Config {
    let mut config = Config {
        rounds: 5,
        trials: 400,
        emit: None,
        check: None,
        overhead_check: false,
        fast: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => {
                config.fast = true;
                config.rounds = 3;
                config.trials = 120;
            }
            "--emit" => {
                config.emit = Some(args.next().unwrap_or_else(|| panic!("--emit needs a path")));
            }
            "--check" => {
                config.check = Some(
                    args.next()
                        .unwrap_or_else(|| panic!("--check needs a path")),
                );
            }
            "--overhead-check" => config.overhead_check = true,
            // Cargo's own bench plumbing.
            "--bench" => {}
            // Any other flag is a typo — failing loudly keeps the CI
            // gate from silently degrading into a no-op.
            flag if flag.starts_with('-') => panic!("unknown trial_latency flag: {flag}"),
            // Bare positionals are cargo bench-name filters; ignore.
            _ => {}
        }
    }
    config
}

/// Best-round (minimum) and worst-round (maximum) mean per-trial wall
/// time, in microseconds.
fn measure(scenario: Scenario, rounds: usize, trials: usize) -> (f64, f64) {
    let runner = scenario.runner();
    // Warm-up: populate caches, the jump tables and the shared
    // platform blobs.
    for seed in 0..(trials / 4).max(8) as u64 {
        std::hint::black_box(runner.run_trial(seed));
    }
    let mut best = f64::INFINITY;
    let mut worst = 0.0f64;
    for round in 0..rounds {
        let start = Instant::now();
        for i in 0..trials as u64 {
            let seed = 0xD5_2022 + round as u64 * trials as u64 + i;
            std::hint::black_box(runner.run_trial(seed));
        }
        let mean_us = start.elapsed().as_secs_f64() * 1e6 / trials as f64;
        best = best.min(mean_us);
        worst = worst.max(mean_us);
    }
    (best, worst)
}

/// Per-trial latency distribution over one round: each trial timed
/// individually into a 5 µs-bucket histogram (up to 2 ms, then
/// overflow), so the report can quote p50/p90/p99 and not just means.
fn measure_distribution(scenario: Scenario, trials: usize) -> Histogram {
    let runner = scenario.runner();
    let bounds: Vec<u64> = (1..=400).map(|i| i * 5_000).collect();
    let mut histogram = Histogram::with_bounds(bounds);
    for i in 0..trials as u64 {
        let seed = 0xD5_2022 + i;
        let start = Instant::now();
        std::hint::black_box(runner.run_trial(seed));
        histogram.record(start.elapsed().as_nanos() as u64);
    }
    histogram
}

/// A forked E3 trial costs about a third of a from-scratch one, so the
/// engine rounds run this many times the from-scratch trial count to
/// last about as long.
const FORKED_TRIALS_PER_SCRATCH_TRIAL: usize = 3;

/// Best-round per-trial means of plain vs telemetry-observed E3 engine
/// runs on one worker — the path every observed campaign takes — with
/// the two variants interleaved round by round so slow drift on
/// shared hardware hits both equally.
fn measure_overhead(rounds: usize, trials: usize) -> (f64, f64) {
    let trials = trials * FORKED_TRIALS_PER_SCRATCH_TRIAL;
    let clock = MonotonicClock::new();
    let time = |campaign: &Campaign, observed: bool| {
        let mut observer = NullObserver;
        let mut telemetry = EngineTelemetry::new(&clock, &mut observer, 0);
        let start = Instant::now();
        std::hint::black_box(campaign.execute(
            ..,
            1,
            &mut NullSink,
            observed.then_some(&mut telemetry),
        ));
        start.elapsed().as_secs_f64() * 1e6 / trials as f64
    };
    let warm_up = Campaign::new(Scenario::e3_fig3(), (trials / 4).max(8), 0);
    time(&warm_up, false);
    time(&warm_up, true);
    let mut plain_best = f64::INFINITY;
    let mut observed_best = f64::INFINITY;
    for round in 0..rounds {
        let base = 0xD5_2022 + (round * trials) as u64;
        let campaign = Campaign::new(Scenario::e3_fig3(), trials, base);
        plain_best = plain_best.min(time(&campaign, false));
        observed_best = observed_best.min(time(&campaign, true));
    }
    (plain_best, observed_best)
}

/// Best-round means of plain vs tracing-off
/// (`run_trial_traced(seed, None)`) vs tracing-on E3 trials, the
/// three variants interleaved round by round. Tracing-off must be the
/// plain path (an `Option` check per event site, nothing else);
/// tracing-on pays for the ring.
fn measure_tracing_overhead(rounds: usize, trials: usize) -> (f64, f64, f64) {
    let runner = Scenario::e3_fig3().runner();
    let trace = TraceConfig::new();
    for seed in 0..(trials / 4).max(8) as u64 {
        std::hint::black_box(runner.run_trial(seed));
        std::hint::black_box(runner.run_trial_traced(seed, None));
        std::hint::black_box(runner.run_trial_traced(seed, Some(&trace)));
    }
    let mut plain_best = f64::INFINITY;
    let mut off_best = f64::INFINITY;
    let mut on_best = f64::INFINITY;
    for round in 0..rounds {
        let base = 0xD5_2022 + round as u64 * trials as u64;
        let start = Instant::now();
        for i in 0..trials as u64 {
            std::hint::black_box(runner.run_trial(base + i));
        }
        plain_best = plain_best.min(start.elapsed().as_secs_f64() * 1e6 / trials as f64);
        let start = Instant::now();
        for i in 0..trials as u64 {
            std::hint::black_box(runner.run_trial_traced(base + i, None));
        }
        off_best = off_best.min(start.elapsed().as_secs_f64() * 1e6 / trials as f64);
        let start = Instant::now();
        for i in 0..trials as u64 {
            std::hint::black_box(runner.run_trial_traced(base + i, Some(&trace)));
        }
        on_best = on_best.min(start.elapsed().as_secs_f64() * 1e6 / trials as f64);
    }
    (plain_best, off_best, on_best)
}

fn main() {
    let config = parse_args();
    println!(
        "==== trial_latency: per-trial wall clock ({} rounds x {} trials{}) ====",
        config.rounds,
        config.trials,
        if config.fast { ", fast" } else { "" }
    );

    let (e3_best, e3_worst) = measure(Scenario::e3_fig3(), config.rounds, config.trials);
    let (golden_best, golden_worst) = measure(Scenario::golden(4500), config.rounds, config.trials);
    let (e6_best, e6_worst) = measure(
        Scenario::e6_memory(MemFaultModel::SingleBitFlip, MemTarget::e6()),
        config.rounds,
        config.trials / 2,
    );

    let distribution = measure_distribution(Scenario::e3_fig3(), config.trials);
    let (e3_p50, e3_p90, e3_p99) = (
        distribution.p50() as f64 / 1e3,
        distribution.p90() as f64 / 1e3,
        distribution.p99() as f64 / 1e3,
    );

    for (name, best, worst) in [
        ("e3_fig3 (4500 steps)", e3_best, e3_worst),
        ("golden (4500 steps)", golden_best, golden_worst),
        ("e6_memory (4500 steps)", e6_best, e6_worst),
    ] {
        println!("{name:>24}: best-round mean {best:8.1} us/trial, worst {worst:8.1}");
    }
    println!(
        "{:>24}: p50 {e3_p50:8.1} us, p90 {e3_p90:8.1} us, p99 {e3_p99:8.1} us",
        "e3_fig3 distribution"
    );
    println!(
        "e3 vs seed baseline ({SEED_BASELINE_US} us): {:.1}x faster; target {TARGET_US} us: {}",
        SEED_BASELINE_US / e3_best,
        if e3_best < TARGET_US { "MET" } else { "MISSED" }
    );

    // With --overhead-check, the tracing rounds run before the JSON
    // is assembled so their keys can ride in the report.
    let tracing = config
        .overhead_check
        .then(|| measure_tracing_overhead(config.rounds, config.trials));
    let tracing_keys = tracing
        .map(|(_, off, on)| {
            format!(
                ",\n  \"e3_traced_off_mean_us\": {off:.1},\n  \"e3_traced_on_mean_us\": {on:.1}"
            )
        })
        .unwrap_or_default();

    // The percentile and tracing keys are appended after the original
    // schema so a previously committed baseline (without them) still
    // `--check`s.
    let json = format!(
        "{{\n  \"bench\": \"trial_latency\",\n  \"mode\": \"{}\",\n  \"rounds\": {},\n  \"trials_per_round\": {},\n  \"e3_mean_us\": {:.1},\n  \"e3_worst_round_us\": {:.1},\n  \"golden_mean_us\": {:.1},\n  \"golden_worst_round_us\": {:.1},\n  \"e6_mean_us\": {:.1},\n  \"e6_worst_round_us\": {:.1},\n  \"target_us\": {:.1},\n  \"seed_baseline_us\": {:.1},\n  \"e3_p50_us\": {:.1},\n  \"e3_p90_us\": {:.1},\n  \"e3_p99_us\": {:.1}{tracing_keys}\n}}\n",
        if config.fast { "fast" } else { "full" },
        config.rounds,
        config.trials,
        e3_best,
        e3_worst,
        golden_best,
        golden_worst,
        e6_best,
        e6_worst,
        TARGET_US,
        SEED_BASELINE_US,
        e3_p50,
        e3_p90,
        e3_p99,
    );
    print!("{json}");

    if let Some(path) = &config.emit {
        let path = resolve(path);
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }

    if let Some(path) = &config.check {
        let path = resolve(path);
        let baseline = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading baseline {}: {e}", path.display()));
        let committed = json_number(&baseline, "e3_mean_us")
            .unwrap_or_else(|| panic!("no e3_mean_us in {}", path.display()));
        let limit = committed * REGRESSION_FACTOR;
        println!(
            "regression check: measured {e3_best:.1} us vs committed {committed:.1} us \
             (limit {limit:.1} us)"
        );
        assert!(
            e3_best <= limit,
            "per-trial mean regressed: {e3_best:.1} us > {limit:.1} us \
             ({REGRESSION_FACTOR}x the committed {committed:.1} us baseline)"
        );
        println!("regression check passed");
    }

    if config.overhead_check {
        let (plain, observed) = measure_overhead(config.rounds, config.trials);
        let limit = plain * OVERHEAD_FACTOR;
        println!(
            "overhead check: plain {plain:.1} us vs observed {observed:.1} us \
             (limit {limit:.1} us)"
        );
        assert!(
            observed <= limit,
            "telemetry overhead too high: observed {observed:.1} us > {limit:.1} us \
             ({OVERHEAD_FACTOR}x the plain {plain:.1} us mean)"
        );
        println!("overhead check passed");

        let (t_plain, t_off, t_on) = tracing.expect("tracing rounds ran above");
        let limit = t_plain * OVERHEAD_FACTOR;
        println!(
            "tracing-off check: plain {t_plain:.1} us vs traced-off {t_off:.1} us \
             (limit {limit:.1} us)"
        );
        assert!(
            t_off <= limit,
            "tracing-off overhead too high: {t_off:.1} us > {limit:.1} us \
             ({OVERHEAD_FACTOR}x the plain {t_plain:.1} us mean) — the disarmed \
             recorder must be the plain path"
        );
        println!("tracing-off check passed");
        let limit = t_plain * TRACING_ON_FACTOR;
        println!(
            "tracing-on check: plain {t_plain:.1} us vs traced-on {t_on:.1} us \
             ({:.2}x plain, limit {limit:.1} us)",
            t_on / t_plain
        );
        assert!(
            t_on <= limit,
            "tracing-on overhead too high: {t_on:.1} us > {limit:.1} us \
             ({TRACING_ON_FACTOR}x the plain {t_plain:.1} us mean)"
        );
        println!("tracing-on check passed");
    }
}
