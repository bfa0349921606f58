//! The equivalence harness: the one place in `tests/` that runs a
//! campaign in an execution mode of `Campaign::execute` and compares
//! what it delivers with the same seeds run from step 0.
//!
//! [`reference`] runs every seed of a campaign from step 0 with the
//! campaign's trace config and keeps exactly the dumps its policy
//! keeps. [`check`] runs the campaign in each [`Mode`] and asserts that
//! the mode delivers the reference's trials, dumps, CSV bytes and
//! stats, and that a traced mode hands over one trace prefix per engine
//! call which every dump continues. [`run_mode`] checks the engine side
//! of one mode on the way: the undelivered-report bound, delivery in
//! seed order on the caller's thread, and an observed run's telemetry
//! counts. [`check_oracle`] classifies every seed on a bare `System`.
//!
//! The table in `tests/hotpath_equivalence.rs` runs every built-in
//! scenario through [`modes`]; the other suites run their own
//! campaigns through the cells they name. Each suite uses part of this
//! module, hence the `dead_code` allowance.

#![allow(dead_code)]

use certify_analysis::{campaign_to_csv, CsvSink};
use certify_core::campaign::{Campaign, Scenario};
use certify_core::classify::classify;
use certify_core::system::System;
use certify_core::{CampaignStats, CollectSink, EngineTelemetry};
use certify_core::{TraceDump, TrialResult, TrialSink};
use certify_shard::TracePrefix;
use certify_uncertified::obs::trace::FlightRecorder;
use certify_uncertified::obs::{Clock, CollectObserver, ManualClock};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, ThreadId};

/// The offset a trial's memory-injection seed takes from its trial
/// seed. Mirrors the private `MEM_SEED_OFFSET` of
/// `crates/core/src/campaign.rs`; the oracle column of the table fails
/// if the two drift apart.
pub const MEM_SEED_OFFSET: u64 = 0x6d65_6d66;

/// How a mode drives `Campaign::execute` over the whole campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One call on this many workers.
    Workers(usize),
    /// One call on this many workers, with telemetry.
    Observed(usize),
    /// Three uneven ranges on 2 workers.
    RangeSplit,
    /// The shard coordinator's partition into 3, each range on one
    /// worker the way a shard worker runs it.
    Sharded,
    /// Two ranges on one worker, the second starting at this trial.
    SplitAt(usize),
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mode::Workers(workers) => write!(f, "workers-{workers}"),
            Mode::Observed(workers) => write!(f, "observed-{workers}"),
            Mode::RangeSplit => write!(f, "range-split"),
            Mode::Sharded => write!(f, "sharded"),
            Mode::SplitAt(split) => write!(f, "split-at-{split}"),
        }
    }
}

impl Mode {
    /// The worker count, the `(start, len)` ranges of the engine calls
    /// and whether they are observed, for a campaign of `n` trials.
    fn plan(self, n: usize) -> (usize, Vec<(usize, usize)>, bool) {
        match self {
            Mode::Workers(workers) => (workers, vec![(0, n)], false),
            Mode::Observed(workers) => (workers, vec![(0, n)], true),
            Mode::RangeSplit => (2, vec![(0, 1), (1, n / 2 - 1), (n / 2, n - n / 2)], false),
            Mode::Sharded => (1, certify_shard::partition(n, 3), false),
            Mode::SplitAt(split) => (1, vec![(0, split), (split, n - split)], false),
        }
    }
}

/// The table's modes: workers 0, 1, 2, 4, 64 and the host's
/// `available_parallelism`, range-split, sharded, and observed at 1 and
/// 4 workers.
pub fn modes() -> Vec<Mode> {
    let available = thread::available_parallelism().map_or(4, |n| n.get());
    let mut workers = vec![0, 1, 2, 4, 64, available];
    workers.sort_unstable();
    workers.dedup();
    let mut modes: Vec<Mode> = workers.into_iter().map(Mode::Workers).collect();
    modes.extend([
        Mode::RangeSplit,
        Mode::Sharded,
        Mode::Observed(1),
        Mode::Observed(4),
    ]);
    modes
}

/// Every split point of a two-range split of `trials` trials.
pub fn splits(trials: usize) -> Vec<Mode> {
    (1..trials).map(Mode::SplitAt).collect()
}

/// A campaign's seeds run from step 0: the trials, the dumps its policy
/// keeps, their CSV bytes and their stats.
pub struct Reference {
    pub trials: Vec<TrialResult>,
    pub dumps: Vec<(usize, TraceDump)>,
    pub csv: String,
    pub stats: CampaignStats,
}

/// Runs every seed of `campaign` from step 0 (`run_trial_traced` with
/// the campaign's trace config). An untraced trial must not dump.
pub fn reference(campaign: &Campaign) -> Reference {
    let runner = campaign.scenario().runner();
    let trace = campaign.trace();
    let (mut trials, mut dumps) = (Vec::new(), Vec::new());
    for seq in 0..campaign.trials() {
        let seed = campaign.base_seed() + seq as u64;
        let (trial, dump) = runner.run_trial_traced(seed, trace);
        match (trace, dump) {
            (Some(config), Some(dump)) if config.policy.wants(trial.outcome) => {
                dumps.push((seq, dump));
            }
            (None, Some(_)) => panic!("seed {seed:#x}: tracing off must never dump"),
            _ => {}
        }
        trials.push(trial);
    }
    let mut stats = CampaignStats::new(campaign.scenario().name.clone());
    for trial in &trials {
        stats.record(trial);
    }
    Reference {
        csv: campaign_to_csv(&trials),
        trials,
        dumps,
        stats,
    }
}

/// What one mode delivered and returned.
pub struct Run {
    /// The calls' stats, merged.
    pub stats: CampaignStats,
    pub trials: Vec<TrialResult>,
    pub dumps: Vec<(usize, TraceDump)>,
    pub csv: String,
    /// Each trace prefix handed over, with the rows delivered before it.
    pub prefixes: Vec<(usize, TracePrefix)>,
    /// The first trial of each engine call.
    pub calls: Vec<usize>,
    /// The engine's `suffixes_simulated` count, for an observed mode.
    pub simulated: Option<u64>,
}

/// The sink of every mode: rows, dumps and CSV bytes in one pass, plus
/// the sequence number of every row, each trace prefix handed over
/// with the rows delivered before it, and how many hand-overs reached
/// the sink off the thread that created it.
struct Delivered {
    collect: CollectSink,
    csv: CsvSink<Vec<u8>>,
    seqs: Vec<usize>,
    prefixes: Vec<(usize, TracePrefix)>,
    caller: ThreadId,
    off_thread: usize,
}

impl Delivered {
    fn new() -> Delivered {
        Delivered {
            collect: CollectSink::new(),
            csv: CsvSink::in_memory(),
            seqs: Vec::new(),
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
        self.seqs.push(seq);
        self.csv.accept(seq, trial.clone());
        self.collect.accept(seq, trial);
    }

    fn accept_dump(&mut self, seq: usize, dump: TraceDump) {
        self.note_thread();
        self.collect.accept_dump(seq, dump);
    }

    fn accept_trace_prefix(&mut self, prefix: &FlightRecorder) {
        self.note_thread();
        self.prefixes
            .push((self.seqs.len(), TracePrefix::of(prefix)));
    }

    fn bytes_written(&self) -> Option<u64> {
        self.csv.bytes_written()
    }
}

/// Scripted time that advances 1 ns per read and notes whether a
/// thread other than `caller` read it: an observed trial reads the
/// clock on the thread that runs it, and a phase reads nonzero exactly
/// when the clock was read inside it.
struct ThreadClock {
    time: ManualClock,
    caller: ThreadId,
    read_off_caller: AtomicBool,
}

impl Clock for ThreadClock {
    fn now_ns(&self) -> u64 {
        if thread::current().id() != self.caller {
            self.read_off_caller.store(true, Ordering::Relaxed);
        }
        self.time.advance(1);
        self.time.now_ns()
    }
}

/// Runs `campaign` in `mode`. Checks the mode's engine side on the
/// way: the undelivered high-water mark is within `1..=workers`
/// (clamped to the range), rows arrive under their global sequence
/// numbers in seed order, every hand-over reaches the sink on the
/// caller's thread, and an observed run records one phase sample, row
/// and progress count per trial, the sink's bytes, and reads its clock
/// off the caller's thread exactly when it runs on more than one
/// worker.
pub fn run_mode(campaign: &Campaign, mode: Mode, context: &str) -> Run {
    let n = campaign.trials();
    let (workers, ranges, observed) = mode.plan(n);
    let clock = ThreadClock {
        time: ManualClock::new(),
        caller: thread::current().id(),
        read_off_caller: AtomicBool::new(false),
    };
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
    assert!(
        delivered.seqs.iter().copied().eq(0..n),
        "{context}: sequence numbers {:?}",
        delivered.seqs
    );
    assert_eq!(
        delivered.off_thread, 0,
        "{context}: delivered off the caller's thread"
    );
    let mut simulated = None;
    if observed {
        let metrics = &telemetry.metrics;
        assert_eq!(metrics.trials.get(), n as u64, "{context}: trial count");
        assert_eq!(
            metrics.phases.total.count(),
            n as u64,
            "{context}: phase samples"
        );
        // A trial's boot (fork + install) reads the clock.
        assert!(metrics.phases.boot.min() > 0, "{context}: boot untimed");
        assert_eq!(metrics.sink_rows.get(), n as u64, "{context}: sink rows");
        assert_eq!(
            Some(metrics.sink_bytes.get()),
            delivered.bytes_written(),
            "{context}: sink bytes"
        );
        simulated = Some(metrics.suffixes_simulated.get());
        let last = observer
            .snapshots
            .last()
            .unwrap_or_else(|| panic!("{context}: no progress snapshots"));
        assert_eq!(last.done, n as u64, "{context}: final snapshot done");
        assert_eq!(last.total, n as u64, "{context}: final snapshot total");
        assert_eq!(last.source, None, "{context}: campaign-level snapshot");
        assert_eq!(
            clock.read_off_caller.into_inner(),
            workers > 1,
            "{context}: trials ran off the caller's thread exactly when on more than one worker"
        );
    }
    let (trials, dumps) = delivered.collect.into_parts();
    Run {
        stats,
        trials,
        dumps,
        csv: delivered.csv.into_csv(),
        prefixes: delivered.prefixes,
        calls: ranges.iter().map(|&(start, _)| start).collect(),
        simulated,
    }
}

/// Runs `campaign` in each of `modes` and asserts that every one
/// delivers exactly `reference`: its trials, dumps, CSV bytes and
/// stats. A traced mode must hand over one trace prefix per engine
/// call, before that call's first row, and every dump must be that
/// prefix's ring continued; an untraced mode hands over none.
///
/// Returns the one-worker observed cell's `suffixes_simulated`, if
/// `modes` has one. One worker's count is exact; more workers may each
/// simulate a class they miss at the same time, so every observed cell
/// simulates at least that many suffixes (at least one when there is no
/// one-worker cell) and at most one per trial.
pub fn check(campaign: &Campaign, reference: &Reference, modes: &[Mode]) -> Option<u64> {
    let name = &campaign.scenario().name;
    let trace = campaign.trace();
    let mut simulated = Vec::new();
    for &mode in modes {
        let context = format!("{name} {mode} traced={}", trace.is_some());
        let run = run_mode(campaign, mode, &context);
        assert_eq!(run.trials.len(), reference.trials.len(), "{context}: rows");
        for (trial, expected) in run.trials.iter().zip(&reference.trials) {
            assert_eq!(trial, expected, "{context}: seed {:#x}", expected.seed);
        }
        let seqs = |dumps: &[(usize, TraceDump)]| -> Vec<usize> {
            dumps.iter().map(|(seq, _)| *seq).collect()
        };
        assert_eq!(seqs(&run.dumps), seqs(&reference.dumps), "{context}: dumps");
        for ((seq, dump), (_, expected)) in run.dumps.iter().zip(&reference.dumps) {
            assert!(dump == expected, "{context}: trial {seq}'s dump differs");
        }
        assert!(run.csv == reference.csv, "{context}: CSV bytes differ");
        assert_eq!(run.stats, reference.stats, "{context}: stats");
        if let Some(count) = run.simulated {
            simulated.push((mode, count));
        }

        let Some(config) = trace else {
            assert!(run.prefixes.is_empty(), "{context}: untraced prefix");
            continue;
        };
        let at: Vec<usize> = run.prefixes.iter().map(|(rows, _)| *rows).collect();
        assert_eq!(at, run.calls, "{context}: prefix hand-overs");
        for (_, prefix) in &run.prefixes {
            assert_eq!(prefix, &run.prefixes[0].1, "{context}: prefixes differ");
        }
        let prefix = &run.prefixes[0].1;
        for (seq, dump) in &run.dumps {
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
    let one_worker = simulated
        .iter()
        .find(|(mode, _)| *mode == Mode::Observed(1))
        .map(|&(_, count)| count);
    let (least, most) = (one_worker.unwrap_or(1), campaign.trials() as u64);
    for (mode, count) in simulated {
        assert!(
            (least..=most).contains(&count),
            "{name} {mode}: {count} suffixes simulated, at least {least}"
        );
    }
    one_worker
}

/// [`check`]s `campaign` against its own [`reference`], and returns the
/// reference.
pub fn check_campaign(campaign: &Campaign, modes: &[Mode]) -> Reference {
    let reference = reference(campaign);
    check(campaign, &reference, modes);
    reference
}

/// The oracle column: every seed of `reference`, its injectors
/// installed into a bare `System` run to the end, must classify to the
/// trial's report.
pub fn check_oracle(scenario: &Scenario, reference: &Reference) {
    for trial in &reference.trials {
        assert_eq!(
            classify(&run_system(scenario, trial.seed)),
            trial.report,
            "{} seed {:#x}: bare System classify diverged from the engine",
            scenario.name,
            trial.seed
        );
    }
}

/// `scenario`'s fault-free testbed, not yet stepped.
pub fn fresh_system(scenario: &Scenario) -> System {
    let script = Arc::new(scenario.script.clone());
    if scenario.rtos_heartbeat {
        System::new_with_heartbeat(script)
    } else {
        System::new(script)
    }
}

/// Installs `seed`'s injectors into `system` and runs it to the end of
/// `scenario`'s step budget.
pub fn finish_trial(system: &mut System, scenario: &Scenario, seed: u64) {
    if let Some(spec) = &scenario.spec {
        system.install_injector(spec.clone(), seed);
    }
    if let Some(mem_spec) = &scenario.mem_spec {
        system.install_mem_injector(mem_spec.clone(), seed.wrapping_add(MEM_SEED_OFFSET));
    }
    system.run(scenario.steps - system.steps_run());
}

/// Runs one seeded trial of `scenario` on a bare `System`, returning it
/// live (the campaign engine classifies and drops it; the oracle column
/// and the UART-index test need the carcass).
pub fn run_system(scenario: &Scenario, seed: u64) -> System {
    let mut system = fresh_system(scenario);
    finish_trial(&mut system, scenario, seed);
    system
}
