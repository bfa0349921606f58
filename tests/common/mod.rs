//! The equivalence harness: the one place in the workspace's tests
//! that runs a campaign in an execution mode — `Campaign::execute` in
//! process, or `run_sharded` over real `shard_worker` processes — and
//! compares what it delivers with the same seeds run from step 0.
//!
//! [`reference`] runs every seed of a campaign from step 0 with the
//! campaign's trace config and keeps exactly the dumps its policy
//! keeps. [`check`] runs the campaign in each [`Mode`] and asserts that
//! the mode delivers the reference's dumps, CSV bytes and stats (and,
//! in process, its trials), and that every dump continues the trace
//! prefix it was forked from. [`run_mode`] checks the engine side of
//! one in-process mode on the way: the undelivered-report bound
//! (`min(workers × LANE_CHUNK, len)`), delivery in seed order on the
//! caller's thread, and an observed run's telemetry counts and the
//! threads that ran its trials. [`check_oracle`] classifies every seed
//! on a bare `System`.
//!
//! The table in `tests/hotpath_equivalence.rs` runs every built-in
//! scenario through [`modes`], and `crates/shard/tests/sharded.rs`
//! runs every built-in scenario through [`Mode::Sharded`] (the one
//! test crate that has a `shard_worker` to spawn, and includes this
//! file by path); the other suites run their own campaigns through the
//! cells they name. Each suite uses part of this module, hence the
//! `dead_code` allowance.

#![allow(dead_code)]

use certify_analysis::{campaign_to_csv, CsvSink};
use certify_core::campaign::{Campaign, Scenario, LANE_CHUNK};
use certify_core::classify::classify;
use certify_core::system::System;
use certify_core::{CampaignStats, CollectSink, EngineTelemetry};
use certify_core::{TraceDump, TrialResult, TrialSink};
use certify_obs::trace::FlightRecorder;
use certify_obs::{Clock, CollectObserver, ManualClock, MonotonicClock, ProgressSnapshot};
use certify_shard::{run_sharded, run_sharded_observed, ShardOptions, ShardedRun, TracePrefix};
use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};

/// The offset a trial's memory-injection seed takes from its trial
/// seed. Mirrors the private `MEM_SEED_OFFSET` of
/// `crates/core/src/campaign.rs`; the oracle column of the table fails
/// if the two drift apart.
pub const MEM_SEED_OFFSET: u64 = 0x6d65_6d66;

/// How a mode runs the whole campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One `execute` call on this many workers.
    Workers(usize),
    /// One `execute` call on this many workers, with telemetry.
    Observed(usize),
    /// Three uneven ranges on 2 workers.
    RangeSplit,
    /// Two ranges on one worker, the second starting at this trial.
    SplitAt(usize),
    /// `run_sharded` over real worker processes.
    Sharded(Shards),
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mode::Workers(workers) => write!(f, "workers-{workers}"),
            Mode::Observed(workers) => write!(f, "observed-{workers}"),
            Mode::RangeSplit => write!(f, "range-split"),
            Mode::SplitAt(split) => write!(f, "split-at-{split}"),
            Mode::Sharded(shards) => write!(f, "{shards}"),
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
            Mode::SplitAt(split) => (1, vec![(0, split), (split, n - split)], false),
            Mode::Sharded(_) => unreachable!("sharded cells run through run_sharded"),
        }
    }
}

/// A sharded cell: `run_sharded` over `count` processes of the
/// `shard_worker` Cargo builds for the shard crate's tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shards {
    /// Worker processes.
    pub count: usize,
    /// SIGKILL this shard's first worker after this many rows.
    pub sabotage: Option<(usize, u64)>,
    /// `buffered_rows_per_shard`, when not the default.
    pub queue_cap: Option<usize>,
    /// Observed through `run_sharded_observed`, the workers sending
    /// their stats every this many rows.
    pub stats_every: Option<u64>,
    /// Whether the coordinator writes CSV (a stats-only run does not).
    pub csv: bool,
}

impl Shards {
    /// An unobserved cell of `count` workers with the default options.
    pub const fn new(count: usize) -> Shards {
        Shards {
            count,
            sabotage: None,
            queue_cap: None,
            stats_every: None,
            csv: true,
        }
    }

    /// Kills `shard`'s first worker after `after_rows` rows.
    pub const fn killing(self, shard: usize, after_rows: u64) -> Shards {
        Shards {
            sabotage: Some((shard, after_rows)),
            ..self
        }
    }

    /// Caps each shard's queue at `rows`.
    pub const fn queue_cap(self, rows: usize) -> Shards {
        Shards {
            queue_cap: Some(rows),
            ..self
        }
    }

    /// Observes the run, the workers sending stats every `rows` rows.
    pub const fn observed(self, rows: u64) -> Shards {
        Shards {
            stats_every: Some(rows),
            ..self
        }
    }

    /// Writes no CSV: the run returns stats and dumps only.
    pub const fn stats_only(self) -> Shards {
        Shards { csv: false, ..self }
    }
}

impl fmt::Display for Shards {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sharded-{}", self.count)?;
        if let Some((shard, rows)) = self.sabotage {
            write!(f, "-kill-{shard}@{rows}")?;
        }
        if let Some(rows) = self.queue_cap {
            write!(f, "-cap-{rows}")?;
        }
        if let Some(rows) = self.stats_every {
            write!(f, "-observed-{rows}")?;
        }
        if !self.csv {
            write!(f, "-stats-only")?;
        }
        Ok(())
    }
}

/// The table's modes: workers 0, 1, 2, 4, 64 and the host's
/// `available_parallelism`, range-split, and observed at 1 and 4
/// workers.
pub fn modes() -> Vec<Mode> {
    let available = thread::available_parallelism().map_or(4, |n| n.get());
    let mut workers = vec![0, 1, 2, 4, 64, available];
    workers.sort_unstable();
    workers.dedup();
    let mut modes: Vec<Mode> = workers.into_iter().map(Mode::Workers).collect();
    modes.extend([Mode::RangeSplit, Mode::Observed(1), Mode::Observed(4)]);
    modes
}

/// Every split point of a two-range split of `trials` trials.
pub fn splits(trials: usize) -> Vec<Mode> {
    (1..trials).map(Mode::SplitAt).collect()
}

/// E7 with its memory faults aimed at the stage-2 tables. It forks at
/// step 3158, after both cells' tables are built, so every trial that
/// corrupts a table writes one its prefix shares: the copy-on-write
/// path of `Cell::stage2_mut`.
pub fn e7_stage2_after_fork() -> Scenario {
    use certify_core::memfault::{MemFaultModel, MemRegionKind, MemTarget};
    use certify_core::spec::{MemorySpec, Paced};
    Scenario {
        name: "e7-stage2-after-fork".into(),
        mem_spec: Some(
            MemorySpec::e6_memory(
                MemFaultModel::DescriptorInvalidate,
                MemTarget::only(MemRegionKind::Stage2Tables),
            )
            .with_rate(10)
            .with_window(3300, 4500),
        ),
        ..Scenario::e7_mixed()
    }
}

/// The table's scenarios: every built-in scenario, plus
/// [`e7_stage2_after_fork`].
pub fn table_scenarios() -> impl Iterator<Item = Scenario> {
    certify_lint::builtin_scenarios()
        .into_iter()
        .chain([e7_stage2_after_fork()])
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
    /// How many threads other than the caller's read the clock: the
    /// lanes that ran trials, for an observed mode (0 otherwise).
    pub lanes: usize,
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

/// Scripted time that advances 1 ns per read and records every thread
/// other than `caller` that read it: an observed trial reads the clock
/// on the thread that runs it, and a phase reads nonzero exactly when
/// the clock was read inside it.
struct ThreadClock {
    time: ManualClock,
    caller: ThreadId,
    readers: Mutex<HashSet<ThreadId>>,
}

impl Clock for ThreadClock {
    fn now_ns(&self) -> u64 {
        let reader = thread::current().id();
        if reader != self.caller {
            self.readers.lock().unwrap().insert(reader);
        }
        self.time.advance(1);
        self.time.now_ns()
    }
}

/// Runs `campaign` in `mode`. Checks the mode's engine side on the
/// way: the undelivered high-water mark is within
/// `1..=min(workers × LANE_CHUNK, len)` for each range of `len` trials,
/// rows arrive under their global sequence numbers in seed order,
/// every hand-over reaches the sink on the caller's thread, and an
/// observed run records one phase sample, row and progress count per
/// trial, the sink's bytes, and has its clock read by at most
/// `workers` threads other than the caller's, and by some exactly when
/// it runs on more than one worker.
pub fn run_mode(campaign: &Campaign, mode: Mode, context: &str) -> Run {
    let n = campaign.trials();
    let (workers, ranges, observed) = mode.plan(n);
    let clock = ThreadClock {
        time: ManualClock::new(),
        caller: thread::current().id(),
        readers: Mutex::default(),
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
        let bound = workers.max(1).saturating_mul(LANE_CHUNK).min(len);
        assert!(
            (1..=bound).contains(&high_water),
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
    }
    let lanes = clock.readers.into_inner().unwrap().len();
    if observed {
        assert!(
            lanes <= workers,
            "{context}: {lanes} lanes for {workers} workers"
        );
        assert_eq!(
            lanes > 0,
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
        lanes,
    }
}

/// What [`check`] returns besides its verdict.
pub struct Checked {
    /// The one-worker observed cell's `suffixes_simulated`, if the
    /// modes have one.
    pub simulated: Option<u64>,
    /// What each sharded cell returned, in the order of the modes.
    pub sharded: Vec<Sharded>,
}

/// What one sharded cell returned: the run, and the progress snapshots
/// its observer got (none for an unobserved cell).
pub struct Sharded {
    pub run: ShardedRun,
    pub snapshots: Vec<ProgressSnapshot>,
}

/// Runs `campaign` in each of `modes` and asserts that every one
/// delivers exactly `reference`: its dumps, CSV bytes and stats, and in
/// process its trials. A traced in-process mode must hand over one
/// trace prefix per engine call, before that call's first row, and
/// every dump must be that prefix's ring continued; an untraced mode
/// hands over none. Every dump a sharded cell holds must be a suffix
/// that fits its attempt's prefix and rebuilds to the reference's dump.
///
/// One worker's `suffixes_simulated` is exact; more workers may each
/// simulate a class they miss at the same time, so every observed cell
/// simulates at least the one-worker count (at least one when there is
/// no one-worker cell) and at most one suffix per trial.
pub fn check(campaign: &Campaign, reference: &Reference, modes: &[Mode]) -> Checked {
    let name = &campaign.scenario().name;
    let trace = campaign.trace();
    let (mut simulated, mut sharded) = (Vec::new(), Vec::new());
    for &mode in modes {
        let context = format!("{name} {mode} traced={}", trace.is_some());
        if let Mode::Sharded(shards) = mode {
            sharded.push(check_sharded(campaign, reference, shards, &context));
            continue;
        }
        let run = run_mode(campaign, mode, &context);
        assert_eq!(run.trials.len(), reference.trials.len(), "{context}: rows");
        for (trial, expected) in run.trials.iter().zip(&reference.trials) {
            assert_eq!(trial, expected, "{context}: seed {:#x}", expected.seed);
        }
        assert_delivered(&context, reference, &run.dumps, Some(&run.csv), &run.stats);
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
    Checked {
        simulated: one_worker,
        sharded,
    }
}

/// Asserts that a mode delivered `reference`'s dumps, CSV bytes (when
/// it wrote any) and stats.
fn assert_delivered(
    context: &str,
    reference: &Reference,
    dumps: &[(usize, TraceDump)],
    csv: Option<&str>,
    stats: &CampaignStats,
) {
    let seqs = |dumps: &[(usize, TraceDump)]| -> Vec<usize> {
        dumps.iter().map(|(seq, _)| *seq).collect()
    };
    assert_eq!(seqs(dumps), seqs(&reference.dumps), "{context}: dumps");
    for ((seq, dump), (_, expected)) in dumps.iter().zip(&reference.dumps) {
        assert!(dump == expected, "{context}: trial {seq}'s dump differs");
    }
    if let Some(csv) = csv {
        assert!(csv == reference.csv, "{context}: CSV bytes differ");
    }
    assert_eq!(stats, &reference.stats, "{context}: stats");
}

/// Runs `campaign` through `run_sharded` (`run_sharded_observed` under
/// the real clock when observed) over the `shard_worker` of the test
/// crate that includes this file, and asserts that the wire carried
/// exactly `reference` (see [`check`]).
fn check_sharded(
    campaign: &Campaign,
    reference: &Reference,
    shards: Shards,
    context: &str,
) -> Sharded {
    let worker = option_env!("CARGO_BIN_EXE_shard_worker")
        .unwrap_or_else(|| panic!("{context}: this test crate builds no shard_worker"));
    let mut opts = ShardOptions::new(shards.count).with_worker(worker);
    if let Some((shard, after_rows)) = shards.sabotage {
        opts = opts.with_sabotage(shard, after_rows);
    }
    if let Some(rows) = shards.queue_cap {
        opts.buffered_rows_per_shard = rows;
    }
    let mut csv = Vec::new();
    let csv_out = shards.csv.then_some(&mut csv as &mut dyn std::io::Write);
    let mut observer = CollectObserver::default();
    let run = match shards.stats_every {
        Some(rows) => {
            opts.stats_every = rows;
            run_sharded_observed(
                campaign,
                &opts,
                csv_out,
                &MonotonicClock::new(),
                &mut observer,
            )
        }
        None => run_sharded(campaign, &opts, csv_out),
    }
    .unwrap_or_else(|error| panic!("{context}: {error}"));
    let dumps: Vec<(usize, TraceDump)> = run
        .dumps
        .iter()
        .map(|(seq, shipped)| (*seq as usize, shipped.dump()))
        .collect();
    let csv = shards
        .csv
        .then(|| String::from_utf8(csv).expect("CSV is UTF-8"));
    assert_delivered(context, reference, &dumps, csv.as_deref(), &run.stats);
    if let Some(config) = campaign.trace() {
        for (seq, shipped) in &run.dumps {
            assert_eq!(
                shipped
                    .prefix()
                    .check_suffix(config.capacity, shipped.suffix()),
                Ok(()),
                "{context}: trial {seq}'s held suffix does not fit its attempt's prefix"
            );
        }
    }
    Sharded {
        run,
        snapshots: observer.snapshots,
    }
}

/// [`check`]s `campaign` against its own [`reference`], and returns the
/// reference.
pub fn check_campaign(campaign: &Campaign, modes: &[Mode]) -> Reference {
    let reference = reference(campaign);
    check(campaign, &reference, modes);
    reference
}

/// The oracle column: every seed of `reference`, its injectors
/// installed into a bare `System` stepped one step at a time to the
/// end, must classify to the trial's report.
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
/// `scenario`'s step budget one `System::step` at a time, never through
/// `System::run`'s quiet-span skipping: the oracle column compares the
/// engine, which runs trials with `run`, against per-step semantics.
pub fn finish_trial(system: &mut System, scenario: &Scenario, seed: u64) {
    if let Some(spec) = &scenario.spec {
        system.install_injector(spec.clone(), seed);
    }
    if let Some(mem_spec) = &scenario.mem_spec {
        system.install_mem_injector(mem_spec.clone(), seed.wrapping_add(MEM_SEED_OFFSET));
    }
    while system.steps_run() < scenario.steps {
        system.step();
    }
}

/// Runs one seeded trial of `scenario` on a bare `System`, returning it
/// live (the campaign engine classifies and drops it; the oracle column
/// and the UART-index test need the carcass).
pub fn run_system(scenario: &Scenario, seed: u64) -> System {
    let mut system = fresh_system(scenario);
    finish_trial(&mut system, scenario, seed);
    system
}
