//! Throughput of multi-process sharded campaigns.
//!
//! The sharding tier's reason to exist is wall-clock scale: the same
//! E3 campaign, run through `certify_shard::run_sharded` at 1, 2 and
//! 4 worker processes, must convert processes into trials/sec. This
//! harness measures exactly that (plus the in-process `run_streamed`
//! reference), prints a table, emits a machine-readable
//! `BENCH_shard.json` and gates CI:
//!
//! * the 1-worker throughput must stay within the regression factor
//!   of the committed baseline (protocol overhead creep shows here);
//! * on hosts with ≥ 2 cores, 4 workers must beat 1 worker by more
//!   than the 1.5× acceptance floor. On a single-core host (where no
//!   process count can beat serial execution) the speedup gate is
//!   skipped loudly rather than failing vacuously.
//!
//! One more leg, advisory only, runs E7 traced on 2 workers with the
//! anomaly dump policy: about two thirds of its trials ship a
//! full-ring trace dump (~119 KB) through the wire codec, so it is the
//! leg that shows the cost of dump transport.
//!
//! Modes (after `--`): *(none)* — 3 rounds × 2000 trials; `--fast` —
//! 2 rounds × 600 trials; `--emit <path>`; `--check <path>`.
//!
//! The headline metric is the **best-round throughput** per worker
//! count, for the same co-tenancy reasons as `trial_latency`.
//!
//! Requires the `shard_worker` binary (`cargo build --release -p
//! certify_shard` first, or let CI's workspace build produce it).

use certify_bench::{json_number, resolve_baseline_path as resolve};
use certify_core::campaign::{Campaign, Scenario};
use certify_core::{DumpPolicy, NullSink, TraceConfig};
use certify_shard::{run_sharded, ShardOptions};
use std::time::Instant;

/// The acceptance floor: 4 workers vs 1 worker.
const SPEEDUP_FLOOR: f64 = 1.5;
/// CI failure threshold on 1-worker throughput vs the committed
/// baseline.
const REGRESSION_FACTOR: f64 = 1.25;

struct Config {
    rounds: usize,
    trials: usize,
    emit: Option<String>,
    check: Option<String>,
    fast: bool,
}

fn parse_args() -> Config {
    let mut config = Config {
        rounds: 3,
        trials: 2000,
        emit: None,
        check: None,
        fast: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => {
                config.fast = true;
                config.rounds = 2;
                config.trials = 600;
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
            "--bench" => {}
            flag if flag.starts_with('-') => panic!("unknown shard_throughput flag: {flag}"),
            _ => {}
        }
    }
    config
}

/// Best-round throughput (trials/sec) of a sharded run at the given
/// worker count.
fn measure_sharded(campaign: &Campaign, workers: usize, rounds: usize) -> f64 {
    let opts = ShardOptions::new(workers);
    let mut best = 0.0f64;
    for _ in 0..rounds {
        let start = Instant::now();
        let run = run_sharded(campaign, &opts, None)
            .unwrap_or_else(|e| panic!("sharded run failed: {e}"));
        assert_eq!(run.rows, campaign.trials() as u64);
        assert_eq!(run.dumps.is_empty(), campaign.trace().is_none());
        best = best.max(campaign.trials() as f64 / start.elapsed().as_secs_f64());
    }
    best
}

/// Best-round throughput of the single-process in-process engine (the
/// overhead reference: sharding at 1 worker pays protocol + process
/// cost over this).
fn measure_in_process(campaign: &Campaign, rounds: usize) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..rounds {
        let start = Instant::now();
        campaign.run_streamed(&mut NullSink);
        best = best.max(campaign.trials() as f64 / start.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let config = parse_args();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "==== shard_throughput: E3 trials/sec over worker processes \
         ({} rounds x {} trials, {} core(s){}) ====",
        config.rounds,
        config.trials,
        cores,
        if config.fast { ", fast" } else { "" }
    );

    let campaign = Campaign::new(Scenario::e3_fig3(), config.trials, 0xD5_2022);
    // Warm-up: shared platform blobs, page caches, one worker spawn.
    run_sharded(&campaign, &ShardOptions::new(1), None)
        .unwrap_or_else(|e| panic!("warm-up sharded run failed: {e}"));

    let in_process = measure_in_process(&campaign, config.rounds);
    let w1 = measure_sharded(&campaign, 1, config.rounds);
    let w2 = measure_sharded(&campaign, 2, config.rounds);
    let w4 = measure_sharded(&campaign, 4, config.rounds);
    let speedup_2 = w2 / w1;
    let speedup_4 = w4 / w1;
    let e7_traced = Campaign::new(Scenario::e7_mixed(), config.trials, 0xD5_2022)
        .with_trace(TraceConfig::new().with_policy(DumpPolicy::anomalies()));
    let w2_e7_traced = measure_sharded(&e7_traced, 2, config.rounds);

    println!(
        "{:>22}: {in_process:9.0} trials/sec",
        "in-process (1 thread)"
    );
    for (name, rate, speedup) in [
        ("1 worker process", w1, 1.0),
        ("2 worker processes", w2, speedup_2),
        ("4 worker processes", w4, speedup_4),
    ] {
        println!("{name:>22}: {rate:9.0} trials/sec ({speedup:4.2}x vs 1 worker)");
    }
    println!(
        "{:>22}: {w2_e7_traced:9.0} trials/sec",
        "E7 traced, 2 workers"
    );
    println!(
        "sharding overhead at 1 worker: {:.1}% vs in-process",
        100.0 * (1.0 - w1 / in_process)
    );

    let json = format!(
        "{{\n  \"bench\": \"shard_throughput\",\n  \"mode\": \"{}\",\n  \"rounds\": {},\n  \"trials\": {},\n  \"cores\": {},\n  \"in_process_trials_per_sec\": {:.0},\n  \"w1_trials_per_sec\": {:.0},\n  \"w2_trials_per_sec\": {:.0},\n  \"w4_trials_per_sec\": {:.0},\n  \"w2_e7_traced_trials_per_sec\": {:.0},\n  \"speedup_2v1\": {:.2},\n  \"speedup_4v1\": {:.2},\n  \"speedup_floor\": {:.1}\n}}\n",
        if config.fast { "fast" } else { "full" },
        config.rounds,
        config.trials,
        cores,
        in_process,
        w1,
        w2,
        w4,
        w2_e7_traced,
        speedup_2,
        speedup_4,
        SPEEDUP_FLOOR,
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
        let committed = json_number(&baseline, "w1_trials_per_sec")
            .unwrap_or_else(|| panic!("no w1_trials_per_sec in {}", path.display()));
        let floor = committed / REGRESSION_FACTOR;
        println!(
            "regression check: measured {w1:.0} trials/sec at 1 worker \
             vs committed {committed:.0} (floor {floor:.0})"
        );
        assert!(
            w1 >= floor,
            "1-worker throughput regressed: {w1:.0} < {floor:.0} trials/sec \
             (committed {committed:.0} / {REGRESSION_FACTOR})"
        );
        if let Some(committed) = json_number(&baseline, "w2_e7_traced_trials_per_sec") {
            // A fast round spreads each run's fixed start-up cost over
            // fewer trials, so fast and full values of this leg differ;
            // say which mode the committed value came from.
            let committed_mode = if baseline.contains("\"mode\": \"fast\"") {
                "fast"
            } else {
                "full"
            };
            println!(
                "advisory: E7 traced at 2 workers {w2_e7_traced:.0} trials/sec \
                 vs committed {committed:.0} ({committed_mode} mode; not gated)"
            );
        }
        // The hard floor only binds where 4 workers actually have 4
        // cores; on 2–3 cores the ideal speedup is the core count and
        // scheduler noise can graze 1.5x, so the gate reports instead
        // of failing (and a single core cannot beat serial at all).
        if cores >= 4 {
            println!(
                "speedup check: {speedup_4:.2}x at 4 workers (floor {SPEEDUP_FLOOR}x, \
                 {cores} cores)"
            );
            assert!(
                speedup_4 > SPEEDUP_FLOOR,
                "4-worker speedup {speedup_4:.2}x did not clear the {SPEEDUP_FLOOR}x floor"
            );
        } else if cores >= 2 {
            println!(
                "speedup check ADVISORY on {cores} cores: measured {speedup_4:.2}x \
                 at 4 workers (floor {SPEEDUP_FLOOR}x enforced at >= 4 cores)"
            );
        } else {
            println!(
                "speedup check SKIPPED: single-core host cannot demonstrate \
                 multi-process speedup (measured {speedup_4:.2}x)"
            );
        }
        println!("checks passed");
    }
}
