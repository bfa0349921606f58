//! The traced run (`--trace 1`): per-layer numbers, timed from outside
//! the program around its public calls.
//!
//! Each round drives one `System` per seed through `construct`, a run
//! up to the step before the first injection (the fault-free prefix),
//! a run of the rest (the suffix) and `classify`, recording a span
//! around each call. The split point comes from the untraced
//! `run_trial` of the same seed, and the reconstructed result must
//! equal it: `run(a); run(b)` is `run(a + b)`, so any difference is a
//! failed trial. Each seed also runs once with the flight recorder
//! armed. Then the round times one threaded and one sharded campaign
//! over the same seeds, both checked against a sequential reference.
//!
//! Simulated work counts and allocation counts are per-seed facts: every
//! round must reproduce the first round's exactly.

use crate::adapter::{self, Engine, Prepared, WORK_COUNTS};
use crate::alloc::counted;
use crate::measure::{median, Spans};
use crate::{Metric, Report};
use std::path::Path;
use std::time::{Duration, Instant};

/// Seeds per round: ~1 ms of work each, so a round takes ~0.5 s.
const SEEDS_PER_ROUND: usize = 500;

/// Workers of the threaded and sharded passes (the host has 2 cores).
const WORKERS: usize = 2;

/// Per-seed facts that must repeat exactly, summed over a round.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Counts {
    work: [u64; WORK_COUNTS.len()],
    allocs: u64,
    alloc_bytes: u64,
    prefix_steps: u64,
    first_min: Option<u64>,
    first_max: Option<u64>,
    events: u64,
    dropped: u64,
    dumps: u64,
}

/// Per-round figures of the two campaign passes.
#[derive(Default)]
struct Passes {
    threaded_efficiency: Vec<f64>,
    reorder_high_water: u64,
    sink_ns_per_row: Vec<f64>,
    csv_bytes_per_trial: f64,
    shard_efficiency: Vec<f64>,
    first_row_ms: Vec<f64>,
    wire_bytes_per_trial: f64,
    frames_per_trial: f64,
    retries: u64,
    wasted_trials: u64,
}

/// Runs the traced measurement for `seconds`, writing every span to
/// `spans_out` at the end.
pub fn run(prepared: &Prepared, base_seed: u64, seconds: u64, spans_out: Option<&Path>) -> Report {
    let mut report = Report::default();
    let mut spans = Spans::new();
    let steps = prepared.steps;
    // Warm lazily built tables so that the first round counts the same
    // allocations as every later one.
    std::hint::black_box(adapter::plain_trial(prepared, base_seed));
    std::hint::black_box(adapter::flight_recorded_trial(prepared, base_seed));

    let mut reference = None;
    let id = spans.open("core.campaign.run_streamed", None, None);
    let pass = adapter::run_pass(
        prepared,
        Engine::Sequential,
        base_seed,
        SEEDS_PER_ROUND,
        false,
    );
    spans.close(id);
    report.check_pass(
        "sequential reference",
        SEEDS_PER_ROUND,
        &pass,
        &mut reference,
    );

    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut first_counts: Option<Counts> = None;
    let mut ns_per_step = Vec::new();
    let mut passes = Passes::default();
    let mut rounds = 0;
    while rounds == 0 || Instant::now() < deadline {
        rounds += 1;
        let mut counts = Counts::default();
        let mut plain_ns = 0u64;
        for seed in (0..SEEDS_PER_ROUND as u64).map(|i| base_seed + i) {
            let (trial_ns, run_ns) =
                trace_seed(prepared, seed, &mut spans, &mut counts, &mut report);
            plain_ns += trial_ns;
            ns_per_step.push(run_ns as f64 / steps as f64);
        }
        match &first_counts {
            None => first_counts = Some(counts),
            Some(first) if *first != counts => {
                report.failed += SEEDS_PER_ROUND as u64;
                println!("failed round {rounds}: work or allocation counts differ from round 1");
            }
            Some(_) => {}
        }
        time_passes(
            prepared,
            base_seed,
            plain_ns,
            &mut spans,
            &mut passes,
            &mut reference,
            &mut report,
        );
    }
    println!("traced: {rounds} rounds of {SEEDS_PER_ROUND} seeds");
    if let Some(path) = spans_out {
        if let Err(e) = spans.write_tsv(path) {
            report
                .problems
                .push(format!("writing spans to {}: {e}", path.display()));
        }
    }
    report.metrics = metrics(
        prepared,
        &spans,
        &ns_per_step,
        &first_counts.unwrap_or_default(),
        &passes,
    );
    report
}

/// Traces one seed: the untraced trial, its reconstruction through the
/// public calls, and the flight-recorded trial. Returns the untraced
/// trial's time and the reconstruction's step-loop time.
fn trace_seed(
    prepared: &Prepared,
    seed: u64,
    spans: &mut Spans,
    counts: &mut Counts,
    report: &mut Report,
) -> (u64, u64) {
    let steps = prepared.steps;
    let id = spans.open("core.trial.run_trial", None, Some(seed));
    let plain = adapter::plain_trial(prepared, seed);
    let plain_ns = spans.close(id);
    let first = adapter::first_injection_step(&plain);
    let prefix = first.map_or(steps, |step| step.saturating_sub(1).min(steps));

    let root = spans.open("bench.trial", None, Some(seed));
    let id = spans.open("core.system.construct", Some(root), Some(seed));
    let (mut system, calls, bytes) = counted(|| adapter::construct(prepared, seed));
    spans.close(id);
    let mut allocs = (calls, bytes);
    let mut run_ns = 0;
    for (name, n) in [
        ("core.system.prefix", prefix),
        ("core.system.suffix", steps - prefix),
    ] {
        let id = spans.open(name, Some(root), Some(seed));
        let ((), calls, bytes) = counted(|| adapter::run(&mut system, n));
        run_ns += spans.close(id);
        allocs = (allocs.0 + calls, allocs.1 + bytes);
    }
    let id = spans.open("core.classify", Some(root), Some(seed));
    let (rebuilt, calls, bytes) = counted(|| adapter::classify_trial(&system, seed));
    spans.close(id);
    spans.close(root);

    let id = spans.open("obs.trace.run_trial_traced", None, Some(seed));
    let (recorded, events, dropped, kept) = adapter::flight_recorded_trial(prepared, seed);
    spans.close(id);

    report.attempted += 2;
    if rebuilt != plain {
        report.failed += 1;
        println!("failed trial: seed {seed:#x}: reconstruction differs from run_trial");
    }
    if recorded != plain {
        report.failed += 1;
        println!("failed trial: seed {seed:#x}: flight-recorded result differs from run_trial");
    }
    for (sum, n) in counts
        .work
        .iter_mut()
        .zip(adapter::work_counts(&system, &rebuilt))
    {
        *sum += n;
    }
    counts.allocs += allocs.0 + calls;
    counts.alloc_bytes += allocs.1 + bytes;
    counts.prefix_steps += prefix;
    if let Some(step) = first {
        counts.first_min = Some(counts.first_min.map_or(step, |m| m.min(step)));
        counts.first_max = Some(counts.first_max.map_or(step, |m| m.max(step)));
    }
    counts.events += events;
    counts.dropped += dropped;
    counts.dumps += u64::from(kept);
    (plain_ns, run_ns)
}

/// Times one threaded and one sharded campaign over the round's seeds.
/// `plain_ns` is the round's summed untraced trial time, the
/// one-worker cost the engines' efficiencies are measured against.
fn time_passes(
    prepared: &Prepared,
    base_seed: u64,
    plain_ns: u64,
    spans: &mut Spans,
    passes: &mut Passes,
    reference: &mut Option<crate::Reference>,
    report: &mut Report,
) {
    let trials = SEEDS_PER_ROUND as f64;
    let id = spans.open("core.campaign.run_parallel_streamed", None, None);
    let pass = adapter::run_pass(
        prepared,
        Engine::Threaded(WORKERS),
        base_seed,
        SEEDS_PER_ROUND,
        false,
    );
    spans.close(id);
    if report.check_pass("threaded", SEEDS_PER_ROUND, &pass, reference) {
        let pass = pass.as_ref().expect("a clean pass completed");
        passes
            .threaded_efficiency
            .push(plain_ns as f64 / (WORKERS as f64 * pass.wall_ns as f64));
        passes.reorder_high_water = passes.reorder_high_water.max(pass.reorder_high_water);
        passes.sink_ns_per_row.push(pass.sink_ns as f64 / trials);
        passes.csv_bytes_per_trial = pass.csv_bytes as f64 / trials;
    }

    let id = spans.open("shard.run_sharded", None, None);
    let pass = adapter::run_pass(
        prepared,
        Engine::Sharded(WORKERS),
        base_seed,
        SEEDS_PER_ROUND,
        false,
    );
    spans.close(id);
    if report.check_pass("sharded", SEEDS_PER_ROUND, &pass, reference) {
        let pass = pass.as_ref().expect("a clean pass completed");
        let shard = pass.shard.unwrap_or_default();
        passes
            .shard_efficiency
            .push(plain_ns as f64 / (WORKERS as f64 * pass.wall_ns as f64));
        passes.first_row_ms.push(pass.first_row_ns as f64 / 1e6);
        passes.wire_bytes_per_trial = shard.wire_bytes as f64 / trials;
        passes.frames_per_trial = shard.frames as f64 / trials;
        passes.retries += shard.retries;
        passes.wasted_trials += shard.wasted_trials;
    }
}

fn metrics(
    prepared: &Prepared,
    spans: &Spans,
    ns_per_step: &[f64],
    counts: &Counts,
    passes: &Passes,
) -> Vec<Metric> {
    let median_us = |name: &str| {
        let ns: Vec<f64> = spans.durations(name).iter().map(|&ns| ns as f64).collect();
        median(&ns) / 1e3
    };
    let total_us = |name: &str| spans.durations(name).iter().sum::<u64>() as f64 / 1e3;
    let seeds = SEEDS_PER_ROUND as f64;
    let plain_p50 = median_us("core.trial.run_trial");
    let never = prepared.steps + 1;
    let mut metrics = vec![
        Metric::new(
            "core.system.construct_us",
            median_us("core.system.construct"),
            "us",
        ),
        Metric::new(
            "core.system.prefix_us",
            median_us("core.system.prefix"),
            "us",
        ),
        Metric::new(
            "core.system.suffix_us",
            median_us("core.system.suffix"),
            "us",
        ),
        Metric::new("core.system.ns_per_step", median(ns_per_step), "ns"),
        Metric::new(
            "core.system.prefix_share",
            counts.prefix_steps as f64 / (seeds * prepared.steps as f64),
            "ratio",
        ),
        Metric::new(
            "core.system.first_injection_step_min",
            counts.first_min.unwrap_or(never) as f64,
            "step",
        ),
        Metric::new(
            "core.system.first_injection_step_max",
            counts.first_max.unwrap_or(never) as f64,
            "step",
        ),
        Metric::new(
            "core.classify.classify_us",
            median_us("core.classify"),
            "us",
        ),
        Metric::new(
            "core.alloc.allocs_per_trial",
            counts.allocs as f64 / seeds,
            "count",
        ),
        Metric::new(
            "core.alloc.bytes_per_trial",
            counts.alloc_bytes as f64 / seeds,
            "B",
        ),
        Metric::new(
            "core.campaign.efficiency",
            median(&passes.threaded_efficiency),
            "ratio",
        ),
        Metric::new(
            "core.campaign.reorder_high_water",
            passes.reorder_high_water as f64,
            "count",
        ),
        Metric::new(
            "analysis.export.sink_ns_per_row",
            median(&passes.sink_ns_per_row),
            "ns",
        ),
        Metric::new(
            "analysis.export.csv_bytes_per_trial",
            passes.csv_bytes_per_trial,
            "B",
        ),
        Metric::new("lint.certify_ms", prepared.certify_ns as f64 / 1e6, "ms"),
        Metric::new(
            "core.testbed_init_ms",
            prepared.testbed_init_ns as f64 / 1e6,
            "ms",
        ),
        Metric::new("shard.first_row_ms", median(&passes.first_row_ms), "ms"),
        Metric::new(
            "shard.wire_bytes_per_trial",
            passes.wire_bytes_per_trial,
            "B",
        ),
        Metric::new("shard.frames_per_trial", passes.frames_per_trial, "count"),
        Metric::new("shard.retries", passes.retries as f64, "count"),
        Metric::new("shard.wasted_trials", passes.wasted_trials as f64, "count"),
        Metric::new(
            "shard.efficiency",
            median(&passes.shard_efficiency),
            "ratio",
        ),
        Metric::new(
            "obs.trace.on_over_off",
            total_us("obs.trace.run_trial_traced") / total_us("core.trial.run_trial"),
            "ratio",
        ),
        Metric::new(
            "obs.trace.events_per_trial",
            counts.events as f64 / seeds,
            "count",
        ),
        Metric::new(
            "obs.trace.dropped_per_trial",
            counts.dropped as f64 / seeds,
            "count",
        ),
        Metric::new("obs.trace.dumps", counts.dumps as f64, "count"),
    ];
    for (&(name, unit), sum) in WORK_COUNTS.iter().zip(counts.work) {
        metrics.push(Metric::new(name, sum as f64 / seeds, unit));
    }
    metrics.push(Metric::new(
        "bench.trace_overhead",
        median_us("bench.trial") / plain_p50,
        "ratio",
    ));
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_SEED;

    /// The reconstruction through the public calls reproduces
    /// `run_trial` and the flight-recorded trial on every workload, and
    /// a second pass over the same seed repeats every simulated work
    /// count. (Allocation counts are checked by the run itself: test
    /// threads allocate concurrently.)
    #[test]
    fn reconstruction_equals_run_trial_and_repeats() {
        for name in adapter::WORKLOADS {
            let prepared = adapter::prepare(&adapter::workload(name).unwrap()).unwrap();
            for seed in [DEFAULT_SEED, DEFAULT_SEED + 1, 0xC0FFEE] {
                let mut report = Report::default();
                let mut spans = Spans::new();
                let mut first = Counts::default();
                let mut second = Counts::default();
                trace_seed(&prepared, seed, &mut spans, &mut first, &mut report);
                trace_seed(&prepared, seed, &mut spans, &mut second, &mut report);
                assert_eq!(report.failed, 0, "{name} seed {seed:#x}");
                assert_eq!(report.attempted, 4);
                assert_eq!(first.work, second.work, "{name} seed {seed:#x}");
                assert_eq!(first.prefix_steps, second.prefix_steps);
                assert_eq!(first.events, second.events);
                assert!(
                    first.prefix_steps < prepared.steps,
                    "{name}: an injection fired"
                );
            }
        }
    }
}
