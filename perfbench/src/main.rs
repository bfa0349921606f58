//! `perfbench` — the repository's benchmark of fault-injection
//! campaigns, end to end and layer by layer.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1] [--spans <file>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing but the
//! workload's own campaign running; `--trace 1` is the separate traced
//! run that times the public calls into each layer. Both check every
//! campaign against a sequential reference and print one JSON object as
//! the last line of standard output. See `perfbench/README.md`.

mod adapter;
mod alloc;
mod endtoend;
mod measure;
mod traced;

use std::path::PathBuf;
use std::process::exit;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The campaigns' base seed unless `--seed` says otherwise: the seed
/// the Figure-3 55/16/79 pin was taken at.
pub const DEFAULT_SEED: u64 = 0xD5_2022;

const USAGE: &str = "usage: perfbench --workload <e3_threaded|e6_sequential|e7_sharded_traced> \
                     [--seed <n>] [--seconds <s>] [--trace 0|1] [--spans <file>] [--setup-only]";

struct Args {
    workload: adapter::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<PathBuf>,
    setup_only: bool,
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: adapter::workload(adapter::WORKLOADS[0]).expect("built-in workload"),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        spans: None,
        setup_only: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(adapter::workload(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => args.seed = parse_seed(&value).ok_or(format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or(format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                };
            }
            "--spans" => args.spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What a run measured and whether its outputs were correct.
#[derive(Default)]
pub struct Report {
    /// Trials run, across every pass.
    pub attempted: u64,
    /// Trials that panicked, broke conformance, or belong to a pass
    /// whose output differed from the reference.
    pub failed: u64,
    /// Problems that are not tied to trials (a missed pin, too few
    /// samples for a percentile).
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

/// The output every pass over the same seeds must reproduce: the
/// sequential reference pass's stats, CSV digest and dump count.
pub struct Reference {
    stats: adapter::CampaignStats,
    csv_digest: u64,
    dumps: u64,
}

impl Report {
    /// Books a pass of `trials` trials: all of them fail if the pass
    /// did not complete or its output differs from `reference`;
    /// otherwise its non-conforming trials fail. The first pass to
    /// complete becomes the reference. Returns whether the pass counted
    /// as clean.
    pub fn check_pass(
        &mut self,
        what: &str,
        trials: usize,
        pass: &Result<adapter::PassReport, String>,
        reference: &mut Option<Reference>,
    ) -> bool {
        self.attempted += trials as u64;
        let pass = match pass {
            Ok(pass) => pass,
            Err(error) => {
                self.failed += trials as u64;
                println!("failed pass: {what}: {error}");
                return false;
            }
        };
        let wrong = match reference {
            None => {
                *reference = Some(Reference {
                    stats: pass.stats.clone(),
                    csv_digest: pass.csv_digest,
                    dumps: pass.dumps,
                });
                pass.rows != trials as u64
            }
            Some(r) => {
                pass.rows != trials as u64
                    || pass.stats != r.stats
                    || pass.csv_digest != r.csv_digest
                    || pass.dumps != r.dumps
            }
        };
        if wrong {
            self.failed += trials as u64;
            println!("failed pass: {what}: output differs from the sequential reference");
            return false;
        }
        self.failed += pass.violating_trials;
        pass.violating_trials == 0
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() {
    if std::env::var_os(adapter::SHARD_WORKER_ENV).is_some() {
        exit(adapter::shard_worker_main());
    }
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        exit(2)
    });
    let prepared = adapter::prepare(&args.workload).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        exit(1)
    });
    if args.setup_only {
        // CPU time from process start (exec included) to where the
        // campaign would start.
        println!("{}", measure::process_cpu_ns());
        return;
    }
    // The sharded engine spawns this binary as its workers; they find
    // their role in the environment they inherit.
    std::env::set_var(adapter::SHARD_WORKER_ENV, "1");

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "perfbench: workload={} seed={:#x} seconds={} trace={} nproc={nproc} profile={profile}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let report = if args.trace {
        traced::run(&prepared, args.seed, args.seconds, args.spans.as_deref())
    } else {
        endtoend::run(&args.workload, &prepared, args.seed, args.seconds)
    };
    for problem in &report.problems {
        println!("problem: {problem}");
    }
    for m in &report.metrics {
        println!("{:>40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:>40} {:>16.6} ratio ({} of {} trials failed)",
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    println!("{}", report.to_json());
}
