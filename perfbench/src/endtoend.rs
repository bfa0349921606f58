//! The end-to-end run (`--trace 0`): what a user of the campaign engine
//! waits on and pays for, with nothing but the campaign running.
//!
//! The run alternates two passes over the same seeds until its time is
//! up: a sequential pass, timed trial by trial (the latency samples and
//! the correctness reference), and a pass on the workload's own engine
//! (the throughput sample). Every pass must reproduce the reference's
//! stats and CSV bytes, or all of its trials count as failed.
//!
//! The benchmark's host is a small virtual machine whose hypervisor
//! steals a varying share of its CPUs, and whose co-tenants slow it by
//! up to 2x for minutes at a time, CPU time included. So trials and
//! passes are timed in CPU time, which leaves out stolen time; each
//! trial's latency is its best timing over the run's passes, and
//! throughput comes from the best pass. Between the passes the run
//! times a fixed calibration kernel that no change to the program can
//! alter, on one thread and on the engine's workers at once, and scales
//! every time by how much slower than the reference host the kernel's
//! best timing was. All of these estimate the undisturbed cost on the
//! reference host, which is what code changes move (the best-round
//! convention of the older `BENCH_*.json` files).

use crate::adapter::{self, Engine, Prepared, Workload};
use crate::measure::{median, peak_rss_mb, percentile, Calibration, CALIBRATION_REF_NS};
use crate::{Metric, Report, DEFAULT_SEED};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Trials per pass: enough for a p99 with 10 samples beyond it. At
/// ~0.25 ms a trial a sequential pass takes ~0.25 s, so a run has
/// dozens of passes.
const TRIALS_PER_PASS: usize = 1000;

/// Runs the end-to-end measurement of `workload` for `seconds`.
pub fn run(workload: &Workload, prepared: &Prepared, base_seed: u64, seconds: u64) -> Report {
    let mut report = Report::default();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut reference = None;
    let mut best_ns = vec![u64::MAX; TRIALS_PER_PASS];
    let mut rates = Vec::new();
    let mut setup_s = Vec::new();
    let mut calibration = Calibration::new(workload.engine.workers());
    let mut solo_ns = Vec::new();
    let mut team_ns = Vec::new();
    let mut round = 0;
    while round < 2 || Instant::now() < deadline {
        solo_ns.push(calibration.time_one());
        // The testbed cache fills once per process, so each set-up
        // sample needs a fresh one; one per round spreads them over
        // the run's changing host load.
        match setup_in_child(workload.name, base_seed) {
            Ok(ns) => setup_s.push(ns as f64 / 1e9),
            Err(e) => report.problems.push(format!("setup sample: {e}")),
        }
        let seq = adapter::run_pass(
            prepared,
            Engine::Sequential,
            base_seed,
            TRIALS_PER_PASS,
            true,
        );
        let seq_clean = report.check_pass("sequential", TRIALS_PER_PASS, &seq, &mut reference);
        if let (true, Ok(pass)) = (seq_clean, &seq) {
            for (best, &gap) in best_ns.iter_mut().zip(&pass.gaps_ns) {
                *best = (*best).min(gap);
            }
            if round == 0 {
                check_figure3_pin(workload, base_seed, pass, &mut report);
            }
        }
        solo_ns.push(calibration.time_one());
        let timed = if workload.engine == Engine::Sequential {
            seq_clean.then_some(seq)
        } else {
            let pass =
                adapter::run_pass(prepared, workload.engine, base_seed, TRIALS_PER_PASS, false);
            let clean = report.check_pass(workload.name, TRIALS_PER_PASS, &pass, &mut reference);
            clean.then_some(pass)
        };
        if let Some(Ok(pass)) = timed {
            rates.push(rate(&pass, workload.engine));
        }
        for _ in 0..2 {
            team_ns.push(calibration.time_all());
        }
        round += 1;
    }

    best_ns.retain(|&ns| ns != u64::MAX);
    best_ns.sort_unstable();
    // How much slower than the reference host this run's host was, at
    // its fastest: for one thread, and for the engine's workers at once.
    let slowdown = host_slowdown(&solo_ns);
    let team_slowdown = host_slowdown(&team_ns);
    println!(
        "latency samples: {} trials, each timed in {round} sequential passes; {} set-up samples",
        best_ns.len(),
        setup_s.len()
    );
    println!(
        "host: best calibration {slowdown:.3} times the reference host's on one thread \
         ({} samples), {team_slowdown:.3} on {} ({} samples)",
        solo_ns.len(),
        workload.engine.workers(),
        team_ns.len()
    );
    let mut latency_us = |q: f64| match percentile(&best_ns, q) {
        Some(ns) => ns as f64 / 1e3 / slowdown,
        None => {
            report.problems.push(format!(
                "{} latency samples are too few for q={q}",
                best_ns.len()
            ));
            0.0
        }
    };
    let (p50, p99) = (latency_us(0.5), latency_us(0.99));
    let rss = peak_rss_mb().unwrap_or_else(|| {
        report.problems.push("VmHWM unreadable".into());
        0.0
    });
    let trials_per_s = rates.iter().copied().fold(0.0, f64::max) * team_slowdown;
    let ok_frac = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
    report.metrics = vec![
        Metric::new("trials_per_s", trials_per_s, "1/s"),
        Metric::new("trial_us_p50", p50, "us"),
        Metric::new("trial_us_p99", p99, "us"),
        Metric::new("setup_s", median(&setup_s) / slowdown, "s"),
        Metric::new("peak_rss_mb", rss, "MiB"),
        Metric::new("ok_frac", ok_frac, "ratio"),
    ];
    report
}

/// The best of `samples` calibration timings over the reference host's.
fn host_slowdown(samples: &[u64]) -> f64 {
    samples
        .iter()
        .min()
        .map_or(1.0, |&ns| ns as f64 / CALIBRATION_REF_NS)
}

/// A pass's throughput: trials per second of CPU time, times the
/// engine's workers. On a host that gives each worker a CPU of its own
/// this is the trials per second of wall time; it leaves out the time
/// the host takes the CPUs away.
fn rate(pass: &adapter::PassReport, engine: Engine) -> f64 {
    pass.rows as f64 * engine.workers() as f64 * 1e9 / pass.cpu_ns.max(1) as f64
}

/// At the default seed the first 150 E3 trials must split 55 panic
/// park / 16 CPU park / 79 correct, as in the repository's pins.
fn check_figure3_pin(
    workload: &Workload,
    base_seed: u64,
    pass: &adapter::PassReport,
    report: &mut Report,
) {
    if workload.name != "e3_threaded" || base_seed != DEFAULT_SEED {
        return;
    }
    let counts = pass.head.as_ref().map(adapter::figure3_counts);
    if counts != Some([55, 16, 79]) {
        report.problems.push(format!(
            "Figure-3 pin: first 150 trials gave {counts:?}, want 55/16/79"
        ));
    }
}

/// Sets the workload up in a fresh process of this binary and returns
/// its set-up time as that process measured it.
fn setup_in_child(workload: &str, seed: u64) -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--setup-only",
        ])
        .env_remove(adapter::SHARD_WORKER_ENV)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("set-up process exited with {}", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("set-up process printed no time: {e}"))
}
