//! The two speed gates the calibrated benchmark cannot measure.
//!
//! `perfbench` (gated by `.github/perf_gates.py`) times trials in CPU
//! time and divides by a calibrated host slowdown, so it cannot see a
//! cost that shows only in wall time against a second run on the same
//! host. This harness measures two such ratios, each from runs
//! interleaved on one host, so neither verdict depends on how fast the
//! host is:
//!
//! * **observed-overhead**: an E3 `Campaign::execute` on one worker
//!   with an `EngineTelemetry` costs at most 1.05× the same run without
//!   one (best-round means, the two variants interleaved round by
//!   round);
//! * **shard-speedup**: an E3 campaign through `run_sharded` on 4
//!   worker processes runs more than 1.5× faster than on 1 (best-round
//!   wall-clock throughput). The floor is enforced on hosts with at
//!   least 4 cores. With 2 or 3 cores it is advisory: scheduler noise
//!   can graze 1.5× there. A single core cannot beat serial execution,
//!   so there the gate is skipped.
//!
//! Each gate prints `<gate> passed` or `<gate> FAILED`, and the harness
//! exits 1 naming every failed gate. Run it with `cargo bench -p
//! certify_bench --bench ratio_gates`; it needs the `shard_worker`
//! binary (`cargo build --release -p certify_shard` first).

use certify_core::campaign::{Campaign, Scenario};
use certify_core::{EngineTelemetry, NullSink};
use certify_obs::{MonotonicClock, NullObserver};
use certify_shard::{run_sharded, ShardOptions};
use std::process::ExitCode;
use std::time::Instant;

/// An observed engine run may cost at most this factor of a plain one.
const OVERHEAD_FACTOR: f64 = 1.05;
/// 4 shard workers must beat 1 by more than this factor.
const SPEEDUP_FLOOR: f64 = 1.5;
/// Rounds of the overhead gate; each variant's best round counts. A
/// round takes ~20 ms, so the rounds span a few seconds, long enough
/// for both variants to meet a quiet spell on a shared host.
const ENGINE_ROUNDS: usize = 25;
/// Trials per engine round of the overhead gate.
const ENGINE_TRIALS: usize = 360;
/// Rounds of the speed-up gate at each worker count.
const SHARD_ROUNDS: usize = 3;
/// Trials per sharded round of the speed-up gate.
const SHARD_TRIALS: usize = 600;

/// Best-round per-trial means of plain and telemetry-observed E3
/// engine runs on one worker, in microseconds.
fn measure_overhead() -> (f64, f64) {
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
        start.elapsed().as_secs_f64() * 1e6 / campaign.trials() as f64
    };
    let warm_up = Campaign::new(Scenario::e3_fig3(), ENGINE_TRIALS / 4, 0);
    time(&warm_up, false);
    time(&warm_up, true);
    let mut plain_best = f64::INFINITY;
    let mut observed_best = f64::INFINITY;
    for round in 0..ENGINE_ROUNDS {
        let base = 0xD5_2022 + (round * ENGINE_TRIALS) as u64;
        let campaign = Campaign::new(Scenario::e3_fig3(), ENGINE_TRIALS, base);
        plain_best = plain_best.min(time(&campaign, false));
        observed_best = observed_best.min(time(&campaign, true));
    }
    (plain_best, observed_best)
}

/// Best-round throughput (trials/sec) of a sharded E3 campaign at the
/// given worker count.
fn measure_sharded(campaign: &Campaign, workers: usize) -> f64 {
    let opts = ShardOptions::new(workers);
    let mut best = 0.0f64;
    for _ in 0..SHARD_ROUNDS {
        let start = Instant::now();
        let run = run_sharded(campaign, &opts, None)
            .unwrap_or_else(|e| panic!("sharded run failed: {e}"));
        assert_eq!(run.rows, campaign.trials() as u64);
        best = best.max(campaign.trials() as f64 / start.elapsed().as_secs_f64());
    }
    best
}

/// Prints a gate's verdict, recording `name` in `failed` if it failed.
fn verdict(failed: &mut Vec<&'static str>, name: &'static str, passed: bool) {
    if passed {
        println!("{name} passed");
    } else {
        println!("{name} FAILED");
        failed.push(name);
    }
}

fn main() -> ExitCode {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("==== ratio_gates ({cores} core(s)) ====");
    let mut failed = Vec::new();

    let (plain, observed) = measure_overhead();
    let limit = plain * OVERHEAD_FACTOR;
    println!(
        "observed-overhead: plain {plain:.1} us vs observed {observed:.1} us per trial \
         (limit {limit:.1} us)"
    );
    verdict(&mut failed, "observed-overhead", observed <= limit);

    let campaign = Campaign::new(Scenario::e3_fig3(), SHARD_TRIALS, 0xD5_2022);
    // Warm-up: shared platform blobs, page caches, one worker spawn.
    run_sharded(&campaign, &ShardOptions::new(1), None)
        .unwrap_or_else(|e| panic!("warm-up sharded run failed: {e}"));
    let w1 = measure_sharded(&campaign, 1);
    let w4 = measure_sharded(&campaign, 4);
    let speedup = w4 / w1;
    println!(
        "shard-speedup: {w1:.0} trials/sec at 1 worker, {w4:.0} at 4: {speedup:.2}x \
         (floor {SPEEDUP_FLOOR}x, enforced at >= 4 cores)"
    );
    if cores >= 4 {
        verdict(&mut failed, "shard-speedup", speedup > SPEEDUP_FLOOR);
    } else if cores >= 2 {
        println!("shard-speedup ADVISORY on {cores} cores");
    } else {
        println!("shard-speedup SKIPPED: a single core cannot beat serial execution");
    }

    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("ratio_gates: failed gates: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}
