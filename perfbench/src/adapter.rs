//! The benchmark's only door into the workspace crates.
//!
//! Every call into `certify_*` lives here, so when the campaign API
//! changes (one `execute(...)` for the seven `run_*` entry points, one
//! `run_trial_with(...)` for the three trial paths) the benchmark
//! changes in this file alone. The rest of the benchmark sees plain
//! numbers, [`Prepared`] workloads and opaque [`System`] values.

use crate::measure::{children_cpu_ns, process_cpu_ns, thread_cpu_ns, HashWriter};
use certify_analysis::{CsvSink, CSV_HEADER};
use certify_core::campaign::{Campaign, Scenario, TrialRunner};
use certify_core::{
    classify, ConformanceMonitor, DumpPolicy, InjectionSpec, MemFaultModel, MemTarget, MemorySpec,
    ScenarioCertificate, TraceConfig, TraceDump, TrialSink,
};
use certify_guest_linux::MgmtScript;
use certify_hypervisor::HandlerKind;
use certify_shard::{run_sharded, ShardOptions};
use std::io::{self, BufWriter};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

pub use certify_core::{CampaignStats, System, TrialResult};

/// Copy of the private `MEM_SEED_OFFSET` in `crates/core/src/campaign.rs`:
/// a trial's memory injector is seeded `seed + MEM_SEED_OFFSET`. The
/// traced run checks every reconstructed trial against `run_trial`, so a
/// drifted copy fails the run instead of skewing it.
const MEM_SEED_OFFSET: u64 = 0x6d65_6d66;

/// Environment variable that turns the benchmark binary into a shard
/// worker; the coordinator spawns the binary itself as its workers.
pub const SHARD_WORKER_ENV: &str = "PERFBENCH_SHARD_WORKER";

/// The workload names, in the order the benchmark documents them.
pub const WORKLOADS: [&str; 3] = ["e3_threaded", "e6_sequential", "e7_sharded_traced"];

/// How a workload's campaign executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `Campaign::run_streamed`: one worker, the caller's thread.
    Sequential,
    /// `Campaign::run_parallel_streamed` with this many threads.
    Threaded(usize),
    /// `certify_shard::run_sharded` with this many worker processes.
    Sharded(usize),
}

impl Engine {
    /// Trials the engine runs at once.
    pub fn workers(self) -> usize {
        match self {
            Engine::Sequential => 1,
            Engine::Threaded(n) | Engine::Sharded(n) => n,
        }
    }
}

/// A named workload: a scenario, the engine its campaign runs on, and
/// whether the flight recorder is armed.
pub struct Workload {
    /// The workload's name (one of [`WORKLOADS`]).
    pub name: &'static str,
    /// The engine of the end-to-end campaign.
    pub engine: Engine,
    scenario: Scenario,
    flight_recorder: bool,
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    let (name, scenario, engine, flight_recorder) = match name {
        "e3_threaded" => (
            WORKLOADS[0],
            Scenario::e3_fig3(),
            Engine::Threaded(2),
            false,
        ),
        "e6_sequential" => (
            WORKLOADS[1],
            Scenario::e6_memory(MemFaultModel::SingleBitFlip, MemTarget::e6()),
            Engine::Sequential,
            false,
        ),
        "e7_sharded_traced" => (WORKLOADS[2], Scenario::e7_mixed(), Engine::Sharded(2), true),
        _ => return None,
    };
    Some(Workload {
        name,
        engine,
        scenario,
        flight_recorder,
    })
}

/// A workload after set-up: certified, linted, with the testbed built.
pub struct Prepared {
    scenario: Scenario,
    runner: TrialRunner,
    certificate: Arc<ScenarioCertificate>,
    trace: Option<TraceConfig>,
    // Shared the way `TrialRunner` shares them, so building a system
    // here costs what it costs inside the engine.
    script: Arc<MgmtScript>,
    spec: Option<Arc<InjectionSpec>>,
    mem_spec: Option<Arc<MemorySpec>>,
    /// Simulator steps per trial.
    pub steps: u64,
    /// Wall time of `certify_scenario` plus `lint_scenario`.
    pub certify_ns: u64,
    /// Wall time of the first `System` build (fills the testbed cache).
    pub testbed_init_ns: u64,
}

/// Sets a workload up the way a campaign run does before its first
/// trial: pre-flight certificate and lint (refusing on errors), then
/// the first `System` build.
pub fn prepare(workload: &Workload) -> Result<Prepared, String> {
    let scenario = workload.scenario.clone();
    let start = Instant::now();
    let (certificate, mut diagnostics) = certify_lint::certify_scenario(&scenario);
    diagnostics.extend(certify_lint::lint_scenario(&scenario));
    let certify_ns = nanos(start);
    if certify_lint::has_errors(&diagnostics) {
        let text: Vec<String> = diagnostics.iter().map(|d| d.to_string()).collect();
        return Err(format!(
            "{} fails pre-flight: {}",
            scenario.name,
            text.join("; ")
        ));
    }
    let start = Instant::now();
    std::hint::black_box(System::new(scenario.script.clone()));
    let testbed_init_ns = nanos(start);
    let trace = workload
        .flight_recorder
        .then(|| TraceConfig::new().with_policy(DumpPolicy::anomalies()));
    Ok(Prepared {
        runner: scenario.runner(),
        script: Arc::new(scenario.script.clone()),
        spec: scenario.spec.clone().map(Arc::new),
        mem_spec: scenario.mem_spec.clone().map(Arc::new),
        steps: scenario.steps,
        scenario,
        certificate: Arc::new(certificate),
        trace,
        certify_ns,
        testbed_init_ns,
    })
}

/// What one campaign pass produced, for checking and timing.
pub struct PassReport {
    /// The engine's returned stats.
    pub stats: CampaignStats,
    /// FNV-1a-64 of the campaign's CSV bytes (header included).
    pub csv_digest: u64,
    /// CSV bytes written (header included).
    pub csv_bytes: u64,
    /// Rows the pass delivered.
    pub rows: u64,
    /// Trials that broke certificate conformance.
    pub violating_trials: u64,
    /// Trace dumps delivered.
    pub dumps: u64,
    /// Wall time of the engine call.
    pub wall_ns: u64,
    /// CPU time, user and system, that the engine call used: this
    /// process's threads plus the shard worker processes it waited for.
    pub cpu_ns: u64,
    /// Time from the engine call to the first CSV row byte.
    pub first_row_ns: u64,
    /// Delivery-to-delivery gaps in CPU time of the delivering
    /// thread, one per trial (sequential passes asked to record them,
    /// where that thread runs the trials; empty otherwise).
    pub gaps_ns: Vec<u64>,
    /// Time spent inside the conformance monitor and CSV sink.
    pub sink_ns: u64,
    /// Stats of the first [`HEAD_TRIALS`] trials (in-process engines).
    pub head: Option<CampaignStats>,
    /// High-water mark of undelivered reports (threaded engine).
    pub reorder_high_water: u64,
    /// Transport counters (sharded engine).
    pub shard: Option<ShardCounters>,
}

/// Transport counters of one sharded pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardCounters {
    /// Protocol frames read.
    pub frames: u64,
    /// Wire bytes read off worker pipes.
    pub wire_bytes: u64,
    /// Failed worker attempts that were retried.
    pub retries: u64,
    /// Rows received on failed attempts.
    pub wasted_trials: u64,
}

/// Trials whose stats the sink folds separately (the Figure-3 pin).
pub const HEAD_TRIALS: usize = 150;

/// Runs `trials` trials seeded `base_seed..` on `engine` into a CSV
/// sink over a hashing writer. `Err` means the pass did not complete:
/// a panic or a shard error, which fails all of its trials.
pub fn run_pass(
    prepared: &Prepared,
    engine: Engine,
    base_seed: u64,
    trials: usize,
    record_gaps: bool,
) -> Result<PassReport, String> {
    let mut campaign = Campaign::new(prepared.scenario.clone(), trials, base_seed)
        .with_certificate(Arc::clone(&prepared.certificate));
    if let Some(trace) = &prepared.trace {
        campaign = campaign.with_trace(trace.clone());
    }
    let cpu_before = process_cpu_ns() + children_cpu_ns();
    let mut pass = match engine {
        Engine::Sharded(shards) => sharded_pass(&campaign, shards),
        Engine::Sequential | Engine::Threaded(_) => {
            in_process_pass(prepared, &campaign, engine, record_gaps)
        }
    }?;
    pass.cpu_ns = process_cpu_ns() + children_cpu_ns() - cpu_before;
    Ok(pass)
}

fn in_process_pass(
    prepared: &Prepared,
    campaign: &Campaign,
    engine: Engine,
    record_gaps: bool,
) -> Result<PassReport, String> {
    let csv =
        CsvSink::new(HashWriter::new(CSV_HEADER.len())).map_err(|e| format!("CSV header: {e}"))?;
    let start = Instant::now();
    let mut sink = CheckedSink {
        monitor: ConformanceMonitor::new(Arc::clone(&prepared.certificate), csv),
        head: CampaignStats::new(prepared.scenario.name.clone()),
        gaps_ns: Vec::with_capacity(if record_gaps { campaign.trials() } else { 0 }),
        record_gaps,
        violating: 0,
        dumps: 0,
        sink_ns: 0,
        last_cpu_ns: thread_cpu_ns(),
    };
    let ran = catch_unwind(AssertUnwindSafe(|| match engine {
        Engine::Threaded(workers) => {
            campaign.run_parallel_streamed_instrumented(workers, &mut sink)
        }
        _ => (campaign.run_streamed(&mut sink), 1),
    }));
    let wall_ns = nanos(start);
    let (stats, high_water) = ran.map_err(|_| "campaign panicked".to_string())?;
    let CheckedSink {
        monitor,
        head,
        gaps_ns,
        violating,
        dumps,
        sink_ns,
        ..
    } = sink;
    let csv = monitor.into_inner();
    let rows = csv.rows() as u64;
    let writer = csv.finish().map_err(|e| format!("CSV sink: {e}"))?;
    Ok(PassReport {
        stats,
        csv_digest: writer.digest(),
        csv_bytes: writer.bytes(),
        rows,
        violating_trials: violating,
        dumps,
        wall_ns,
        cpu_ns: 0,
        first_row_ns: writer.first_row_since(start),
        gaps_ns,
        sink_ns,
        head: Some(head),
        reorder_high_water: high_water as u64,
        shard: None,
    })
}

fn sharded_pass(campaign: &Campaign, shards: usize) -> Result<PassReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let options = ShardOptions::new(shards).with_worker(exe);
    let mut out = HashWriter::new(CSV_HEADER.len());
    let start = Instant::now();
    let ran = catch_unwind(AssertUnwindSafe(|| {
        run_sharded(campaign, &options, Some(&mut out))
    }));
    let wall_ns = nanos(start);
    let run = ran
        .map_err(|_| "sharded campaign panicked".to_string())?
        .map_err(|e| e.to_string())?;
    Ok(PassReport {
        csv_digest: out.digest(),
        csv_bytes: out.bytes(),
        rows: run.rows,
        // Workers run their rows through a ConformanceMonitor and fail
        // the shard on a violation, which surfaces as a shard error.
        violating_trials: 0,
        dumps: run.dumps.len() as u64,
        wall_ns,
        cpu_ns: 0,
        first_row_ns: out.first_row_since(start),
        gaps_ns: Vec::new(),
        sink_ns: 0,
        head: None,
        reorder_high_water: 0,
        shard: Some(ShardCounters {
            frames: run.metrics.frames.get(),
            wire_bytes: run.metrics.frame_bytes.get(),
            retries: run.metrics.retries.get(),
            wasted_trials: run.metrics.wasted_rerun_trials.get(),
        }),
        stats: run.stats,
    })
}

/// The end-to-end sink: a [`ConformanceMonitor`] around a [`CsvSink`],
/// timed from outside. Records delivery-to-delivery gaps, counts
/// violating trials and dumps, and folds the first [`HEAD_TRIALS`]
/// trials into their own stats.
struct CheckedSink {
    monitor: ConformanceMonitor<CsvSink<HashWriter>>,
    head: CampaignStats,
    gaps_ns: Vec<u64>,
    record_gaps: bool,
    violating: u64,
    dumps: u64,
    sink_ns: u64,
    last_cpu_ns: u64,
}

impl TrialSink for CheckedSink {
    fn accept(&mut self, seq: usize, trial: TrialResult) {
        if self.record_gaps {
            let cpu_ns = thread_cpu_ns();
            self.gaps_ns.push(cpu_ns - self.last_cpu_ns);
            self.last_cpu_ns = cpu_ns;
        }
        let now = Instant::now();
        if seq < HEAD_TRIALS {
            self.head.record(&trial);
        }
        let before = self.monitor.violations_total();
        self.monitor.accept(seq, trial);
        if self.monitor.violations_total() > before {
            self.violating += 1;
        }
        self.sink_ns += nanos(now);
    }

    fn accept_dump(&mut self, seq: usize, dump: TraceDump) {
        self.dumps += 1;
        self.monitor.accept_dump(seq, dump);
    }
}

/// Panic-park, CPU-park and correct counts of `stats` (Figure 3's bars).
pub fn figure3_counts(stats: &CampaignStats) -> [usize; 3] {
    use certify_core::Outcome;
    [
        stats.count(Outcome::PanicPark),
        stats.count(Outcome::CpuPark),
        stats.count(Outcome::Correct),
    ]
}

/// One trial through `TrialRunner::run_trial`, the untraced path.
pub fn plain_trial(prepared: &Prepared, seed: u64) -> TrialResult {
    prepared.runner.run_trial(seed)
}

/// One trial through `TrialRunner::run_trial_traced` with the flight
/// recorder armed: the result, the events recorded and dropped, and
/// whether the anomaly dump policy keeps the dump.
pub fn flight_recorded_trial(prepared: &Prepared, seed: u64) -> (TrialResult, u64, u64, bool) {
    let config = TraceConfig::new().with_policy(DumpPolicy::anomalies());
    let (trial, dump) = prepared.runner.run_trial_traced(seed, Some(&config));
    let dump = dump.expect("an armed recorder always captures a dump");
    let kept = config.policy.wants(trial.outcome);
    (trial, dump.total, dump.dropped, kept)
}

/// The step in which a trial's first injection (register, or memory
/// attempt applied or skipped) landed; `None` if nothing fired.
pub fn first_injection_step(trial: &TrialResult) -> Option<u64> {
    let report = &trial.report;
    let reg = report.injections.iter().map(|r| r.step);
    let mem = report.mem_injections.iter().map(|r| r.step);
    reg.chain(mem).min()
}

/// Builds a trial's system the way `TrialRunner` does: the testbed,
/// then the register and memory injectors seeded from `seed`.
pub fn construct(prepared: &Prepared, seed: u64) -> System {
    let script = Arc::clone(&prepared.script);
    let mut system = if prepared.scenario.rtos_heartbeat {
        System::new_with_heartbeat(script)
    } else {
        System::new(script)
    };
    if let Some(spec) = &prepared.spec {
        system.install_injector(Arc::clone(spec), seed);
    }
    if let Some(mem_spec) = &prepared.mem_spec {
        system.install_mem_injector(Arc::clone(mem_spec), seed.wrapping_add(MEM_SEED_OFFSET));
    }
    system
}

/// Runs `steps` simulator steps.
pub fn run(system: &mut System, steps: u64) {
    system.run(steps);
}

/// Classifies a finished system into the `TrialResult` `run_trial`
/// would return for `seed`.
pub fn classify_trial(system: &System, seed: u64) -> TrialResult {
    let report = classify(system);
    TrialResult {
        seed,
        outcome: report.outcome,
        injection_count: report.injections.len(),
        mem_injection_count: report.mem_injections.iter().filter(|r| r.applied()).count(),
        report,
    }
}

/// Names and units of the simulated work counts [`work_counts`]
/// returns, in order.
pub const WORK_COUNTS: [(&str, &str); 14] = [
    ("hypervisor.calls.irqchip_handle_irq", "count"),
    ("hypervisor.calls.arch_handle_trap", "count"),
    ("hypervisor.calls.arch_handle_hvc", "count"),
    ("hypervisor.events", "count"),
    ("board.uart_bytes", "B"),
    ("board.ram_resident_pages", "count"),
    ("board.wdt_feeds", "count"),
    ("arch.gic_dropped", "count"),
    ("rtos.slices", "count"),
    ("rtos.ticks", "count"),
    ("guest_linux.mgmt_ops", "count"),
    ("core.injector.reg_injections", "count"),
    ("core.meminjector.applied", "count"),
    ("core.meminjector.skipped", "count"),
];

/// Simulated work done by a finished trial, per [`WORK_COUNTS`].
pub fn work_counts(system: &System, trial: &TrialResult) -> [u64; WORK_COUNTS.len()] {
    let mut calls = [0u64; HandlerKind::ALL.len()];
    for (handler, _cpu, count) in system.hv.call_counts() {
        calls[handler.index()] += count;
    }
    let mem = &trial.report.mem_injections;
    let applied = mem.iter().filter(|r| r.applied()).count() as u64;
    [
        calls[HandlerKind::IrqchipHandleIrq.index()],
        calls[HandlerKind::ArchHandleTrap.index()],
        calls[HandlerKind::ArchHandleHvc.index()],
        system.hv.events().len() as u64,
        system.machine.uart.byte_count() as u64,
        system.machine.ram().resident_pages() as u64,
        system.machine.wdt.feed_count(),
        system.machine.gic.dropped_count(),
        system.rtos.kernel().total_slices(),
        system.rtos.kernel().tick_count(),
        system.linux.records().len() as u64,
        trial.report.injections.len() as u64,
        applied,
        mem.len() as u64 - applied,
    ]
}

/// The shard-worker side of the conversation: one handshake on stdin,
/// rows on stdout. Returns the process exit code.
pub fn shard_worker_main() -> i32 {
    let stdin = io::stdin().lock();
    let stdout = BufWriter::new(io::stdout().lock());
    match certify_shard::run_worker(stdin, stdout) {
        Ok(()) => 0,
        Err(error) => {
            eprintln!("perfbench shard worker: {error}");
            error.exit_code()
        }
    }
}

fn nanos(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}
