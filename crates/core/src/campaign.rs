//! Campaigns: seeded batches of independent trials.
//!
//! A *scenario* fixes the workload (management script), the injection
//! specification and the test duration; a *campaign* runs many seeded
//! trials of one scenario and aggregates the outcome distribution —
//! the data behind Figure 3. Trials are independent systems, so they
//! can run on parallel threads (cf. the "No PAIN, no gain?" parallel
//! fault injection study the paper cites [10]) — and because the
//! campaign's value is the aggregate, results *stream*: one engine,
//! [`Campaign::execute`], runs any trial range on any number of
//! workers, delivers each [`TrialResult`] to a [`TrialSink`] in seed
//! order and folds it into [`CampaignStats`] online, holding at most
//! `workers` undelivered reports however large the campaign. The
//! buffered [`Campaign::run`]/[`Campaign::run_parallel`] are thin
//! collecting sinks over it.

use crate::certificate::ScenarioCertificate;
use crate::classify::{classify, Outcome, RunReport};
use crate::json::Json;
use crate::memfault::{MemFaultModel, MemTarget};
use crate::sink::{CollectSink, TrialSink};
use crate::spec::{Cadence, CallFilter, InjectionSpec, MemorySpec, Paced};
use crate::stats::CampaignStats;
use crate::system::System;
use crate::telemetry::{outcome_rows, EngineTelemetry};
use crate::trace::{trace_event_to_json, TraceConfig, TraceDump};
use certify_guest_linux::MgmtScript;
use certify_obs::trace::{FlightRecorder, TraceEvent, TraceKind, NO_CPU};
use certify_obs::{Clock, EngineMetrics, PhaseSample, ProgressTracker};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Bound, Range, RangeBounds};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Seed offset decorrelating a trial's memory-injection RNG from its
/// register-injection RNG (both are derived from the same trial seed).
const MEM_SEED_OFFSET: u64 = 0x6d65_6d66; // "memf"

/// A fully specified experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Scenario name (used in reports).
    pub name: String,
    /// The root-cell management script.
    pub script: MgmtScript,
    /// The register-injection specification; `None` = no register
    /// faults.
    pub spec: Option<InjectionSpec>,
    /// The memory-injection specification; `None` = no memory faults.
    /// Both specs may be set for mixed campaigns.
    pub mem_spec: Option<MemorySpec>,
    /// Simulator steps per trial (the paper's "each test lasts 1
    /// min" becomes a fixed step budget).
    pub steps: u64,
    /// Whether the RTOS workload includes the E5b safety-heartbeat
    /// task.
    pub rtos_heartbeat: bool,
}

impl Scenario {
    /// Golden (fault-free) bring-up scenario.
    pub fn golden(steps: u64) -> Scenario {
        Scenario {
            name: "golden".into(),
            script: MgmtScript::bring_up_and_run(steps),
            spec: None,
            mem_spec: None,
            steps,
            rtos_heartbeat: false,
        }
    }

    /// E1: high-intensity injection on the root-context handlers
    /// during hypervisor enable. The script issues 49 info polls
    /// before the enable, so the enable itself is the 50th
    /// hypercall — the injection cadence of the paper's high
    /// intensity lands exactly on it.
    pub fn e1_root_high() -> Scenario {
        Scenario {
            name: "e1-root-high".into(),
            script: MgmtScript::enable_attempt(49),
            spec: Some(InjectionSpec::e1_root_high()),
            mem_spec: None,
            steps: 400,
            rtos_heartbeat: false,
        }
    }

    /// E2: high-intensity injection filtered to CPU 1 while the root
    /// cell cycles the FreeRTOS cell lifecycle.
    pub fn e2_nonroot_high() -> Scenario {
        Scenario {
            name: "e2-nonroot-high".into(),
            script: MgmtScript::lifecycle_cycling(150),
            spec: Some(InjectionSpec::e2_nonroot_high()),
            mem_spec: None,
            steps: 8000,
            rtos_heartbeat: false,
        }
    }

    /// E2, boot-window aligned: the single injection lands exactly on
    /// the `CPU_BOOT` hypercall — the deterministic reproduction of
    /// the paper's inconsistent-state observation.
    pub fn e2_boot_window() -> Scenario {
        Scenario {
            name: "e2-boot-window".into(),
            script: MgmtScript::bring_up_and_run(1500),
            spec: Some(InjectionSpec::e2_boot_window()),
            mem_spec: None,
            steps: 2500,
            rtos_heartbeat: false,
        }
    }

    /// E3 (Figure 3): medium-intensity injection on the non-root
    /// cell's `arch_handle_trap` during steady-state operation.
    pub fn e3_fig3() -> Scenario {
        Scenario {
            name: "e3-fig3-medium".into(),
            script: MgmtScript::bring_up_and_run(u64::MAX / 2),
            spec: Some(InjectionSpec::e3_nonroot_trap_medium()),
            mem_spec: None,
            steps: 4500,
            rtos_heartbeat: false,
        }
    }

    /// E5a (extension): the Figure-3 campaign with the hardware
    /// watchdog armed — the root kernel feeds it from its heartbeat
    /// path, so *panic park* outcomes become detected events.
    pub fn e5a_watchdog() -> Scenario {
        Scenario {
            name: "e5a-watchdog".into(),
            script: MgmtScript::bring_up_with_watchdog(u64::MAX / 2),
            spec: Some(InjectionSpec::e3_nonroot_trap_medium()),
            mem_spec: None,
            steps: 4500,
            rtos_heartbeat: false,
        }
    }

    /// E5b (extension): the boot-window E2 scenario with the cell
    /// heartbeat + root-side safety monitor — the silent
    /// *inconsistent state* becomes a detected alarm.
    pub fn e5b_monitor() -> Scenario {
        Scenario {
            name: "e5b-monitor".into(),
            script: MgmtScript::bring_up_with_monitor(3000, 128),
            spec: Some(InjectionSpec::e2_boot_window()),
            mem_spec: None,
            steps: 4000,
            rtos_heartbeat: true,
        }
    }

    /// E6 (extension): a memory-fault campaign firing `model` at
    /// addresses drawn from `target`, paced by the non-root cell's
    /// handler stream during steady-state operation.
    pub fn e6_memory(model: MemFaultModel, target: MemTarget) -> Scenario {
        let name = format!("e6-{}", model.name());
        Scenario {
            name,
            script: MgmtScript::bring_up_and_run(u64::MAX / 2),
            spec: None,
            mem_spec: Some(MemorySpec::e6_memory(model, target)),
            steps: 4500,
            // The heartbeat task gives the victim a memory-active
            // workload (periodic ivshmem posts through stage-2) —
            // without it, table corruption could never manifest.
            rtos_heartbeat: true,
        }
    }

    /// E7 (extension): a mixed campaign — the paper's E3 register
    /// injection *and* an E6-style memory injection run in the same
    /// trials. The memory window opens after E3's single register
    /// injection (trap call 100, ~step 3160) so both domains fire.
    pub fn e7_mixed() -> Scenario {
        Scenario {
            name: "e7-mixed".into(),
            script: MgmtScript::bring_up_and_run(u64::MAX / 2),
            spec: Some(InjectionSpec::e3_nonroot_trap_medium()),
            mem_spec: Some(
                MemorySpec::e6_memory(MemFaultModel::SingleBitFlip, MemTarget::e6())
                    .with_rate(10)
                    .with_window(3300, 4500),
            ),
            steps: 4500,
            rtos_heartbeat: true,
        }
    }

    /// The fault-free twin of this scenario: same script, same step
    /// budget, same RTOS workload, both injection specs removed. Run
    /// at the same seed it is the golden baseline the
    /// `certify_analysis` golden-diff propagation analysis compares an
    /// anomalous trace against.
    pub fn fault_free(&self) -> Scenario {
        Scenario {
            name: format!("{}-fault-free", self.name),
            script: self.script.clone(),
            spec: None,
            mem_spec: None,
            steps: self.steps,
            rtos_heartbeat: self.rtos_heartbeat,
        }
    }

    /// Prepares this scenario for running many trials: the script and
    /// specs move behind `Arc`s once, so each trial clones pointers
    /// instead of deep-copying the script program and fault models
    /// (the campaign hot path).
    pub fn runner(&self) -> TrialRunner {
        TrialRunner {
            name: Arc::from(self.name.as_str()),
            script: Arc::new(self.script.clone()),
            spec: self.spec.clone().map(Arc::new),
            mem_spec: self.mem_spec.clone().map(Arc::new),
            steps: self.steps,
            rtos_heartbeat: self.rtos_heartbeat,
            fork_step: OnceLock::new(),
        }
    }

    /// Runs one seeded trial of this scenario. For many trials,
    /// build a [`Scenario::runner`] once and reuse it.
    pub fn run_trial(&self, seed: u64) -> TrialResult {
        self.runner().run_trial(seed)
    }
}

/// A [`Scenario`] prepared for repeated trials: immutable parts are
/// shared behind `Arc`s, so `run_trial` is allocation-light and
/// `Clone` hands workers a cheap handle.
///
/// Every trial runs one body: install the seed's injectors into a
/// fault-free system, run the remaining steps, classify. The system is either fresh (step 0) or forked from a
/// shared prefix: the scenario run fault-free up to its
/// [fork step](TrialRunner::fork_step), which is identical for every
/// seed because `System` takes the seed only through its injectors.
/// The campaign engines build the prefix once and fork every trial
/// from it.
#[derive(Debug, Clone)]
pub struct TrialRunner {
    name: Arc<str>,
    script: Arc<MgmtScript>,
    spec: Option<Arc<InjectionSpec>>,
    mem_spec: Option<Arc<MemorySpec>>,
    steps: u64,
    rtos_heartbeat: bool,
    /// The fork step, found by one probe run on first use.
    fork_step: OnceLock<u64>,
}

/// Clock readings a trial body takes after installing its injectors,
/// after its last step and after classifying (all 0 without a clock).
type Laps = [u64; 3];

impl TrialRunner {
    /// The scenario's testbed: fault-free, not yet stepped, with a
    /// flight recorder of `trace`'s capacity attached if tracing.
    fn fresh_system(&self, trace: Option<&TraceConfig>) -> System {
        let mut system = if self.rtos_heartbeat {
            System::new_with_heartbeat(Arc::clone(&self.script))
        } else {
            System::new(Arc::clone(&self.script))
        };
        if let Some(config) = trace {
            system.hv.set_recorder(FlightRecorder::new(config.capacity));
        }
        system
    }

    /// Assembles the trial result from a classified report.
    fn result(seed: u64, report: RunReport) -> TrialResult {
        TrialResult {
            seed,
            outcome: report.outcome,
            injection_count: report.injections.len(),
            mem_injection_count: report.mem_injections.iter().filter(|r| r.applied()).count(),
            report,
        }
    }

    /// The fork step: the largest step count after which no injector
    /// of this scenario can have fired or attempted an injection, for
    /// any seed. Trials may start from a fault-free system run this
    /// far; with no injector it is the whole run.
    ///
    /// One fault-free probe run finds it (on first use; the runner
    /// caches it). An injector's first attempt needs an armed step
    /// whose matching-call count has reached `rate`, or 1 when a
    /// seed-derived phase or the time trigger can fire on the first
    /// matching call. The fork step is the first step where either
    /// injector meets that, minus one, capped at the run length.
    pub fn fork_step(&self) -> u64 {
        *self.fork_step.get_or_init(|| {
            let triggers: Vec<(&Cadence, CallFilter, u64)> = self
                .spec
                .iter()
                .map(|s| (&s.cadence, s.first_attempt_call()))
                .chain(
                    self.mem_spec
                        .iter()
                        .map(|s| (&s.cadence, s.cadence.first_attempt_call())),
                )
                .map(|(cadence, first)| (cadence, cadence.calls(), first))
                .collect();
            if triggers.is_empty() {
                return self.steps;
            }
            let mut probe = self.fresh_system(None);
            while probe.steps_run() < self.steps {
                probe.step();
                let now = probe.machine.now();
                let reachable = triggers.iter().any(|(cadence, calls, first)| {
                    cadence.armed(now) && calls.count(&probe.hv) >= *first
                });
                if reachable {
                    return probe.steps_run() - 1;
                }
            }
            self.steps
        })
    }

    /// The shared prefix trials fork from: the scenario's fault-free
    /// system run to the [fork step](TrialRunner::fork_step), traced
    /// from step 0 when `trace` is set. The probe system is dropped
    /// before the prefix is built.
    fn prefix(&self, trace: Option<&TraceConfig>) -> System {
        let fork_step = self.fork_step();
        let mut system = self.fresh_system(trace);
        system.run(fork_step);
        system
    }

    /// The one trial body. `system` is a fault-free system of this
    /// scenario at most [`TrialRunner::fork_step`] steps in, with a
    /// flight recorder attached exactly when `trace` is set. Installs
    /// `seed`'s injectors (primed with the calls already made), runs
    /// the remaining steps, classifies, and captures the ring (see
    /// [`TrialRunner::run_trial_traced`] for `policy.on_panic`).
    fn run_from(
        &self,
        mut system: System,
        seed: u64,
        trace: Option<&TraceConfig>,
        clock: Option<&dyn Clock>,
    ) -> (TrialResult, Option<TraceDump>, Laps) {
        let now = || clock.map_or(0, |clock| clock.now_ns());
        if let Some(spec) = &self.spec {
            system.install_injector(Arc::clone(spec), seed);
        }
        if let Some(mem_spec) = &self.mem_spec {
            system.install_mem_injector(Arc::clone(mem_spec), seed.wrapping_add(MEM_SEED_OFFSET));
        }
        let installed = now();
        let steps = self.steps - system.steps_run();
        let run = |system: &mut System| {
            system.run(steps);
            let ran = now();
            (classify(system), ran)
        };
        let (report, ran) = if trace.is_some_and(|config| config.policy.on_panic) {
            match catch_unwind(AssertUnwindSafe(|| run(&mut system))) {
                Ok(classified) => classified,
                Err(payload) => {
                    if let Some(recorder) = system.hv.recorder() {
                        let doc = Json::obj([
                            ("seed", Json::U64(seed)),
                            ("scenario", Json::str(self.name.to_string())),
                            ("panicked", Json::Bool(true)),
                            ("total", Json::U64(recorder.total())),
                            ("dropped", Json::U64(recorder.dropped())),
                            (
                                "events",
                                Json::Arr(recorder.events().map(trace_event_to_json).collect()),
                            ),
                        ]);
                        eprintln!("{}", doc.render());
                    }
                    resume_unwind(payload);
                }
            }
        } else {
            run(&mut system)
        };
        let dump = system.hv.take_recorder().map(|mut recorder| {
            recorder.record(TraceEvent {
                step: system.machine.now(),
                cpu: NO_CPU,
                kind: TraceKind::ClassifyVerdict,
                arg_a: Outcome::ALL
                    .iter()
                    .position(|o| *o == report.outcome)
                    .unwrap_or(0) as u64,
                arg_b: 0,
            });
            TraceDump::capture(recorder, seed, &self.name, report.outcome)
        });
        let classified = now();
        (
            Self::result(seed, report),
            dump,
            [installed, ran, classified],
        )
    }

    /// Runs one seeded trial from a fresh system (a zero-step prefix).
    pub fn run_trial(&self, seed: u64) -> TrialResult {
        self.run_from(self.fresh_system(None), seed, None, None).0
    }

    /// Runs one seeded trial forked from `prefix` (built by
    /// [`TrialRunner::prefix`] with the same `trace`): the same result
    /// and dump as a trial run from step 0, plus, given a clock, a
    /// [`PhaseSample`] whose boot phase is the fork plus the injector
    /// install and whose steady phase is empty — the prefix is not
    /// re-run.
    fn run_forked(
        &self,
        prefix: &System,
        seed: u64,
        trace: Option<&TraceConfig>,
        clock: Option<&dyn Clock>,
    ) -> (TrialResult, Option<TraceDump>, Option<PhaseSample>) {
        let start = clock.map_or(0, |clock| clock.now_ns());
        let (trial, dump, [installed, ran, classified]) =
            self.run_from(prefix.clone(), seed, trace, clock);
        let sample = clock.map(|_| PhaseSample {
            boot_ns: installed.saturating_sub(start),
            steady_ns: 0,
            injection_ns: ran.saturating_sub(installed),
            classify_ns: classified.saturating_sub(ran),
        });
        (trial, dump, sample)
    }

    /// Runs one seeded trial from scratch with phase timing: the same
    /// steps and the same result as [`TrialRunner::run_trial`] (pinned
    /// by `tests/hotpath_equivalence.rs`), plus a [`PhaseSample`] on
    /// `clock`: boot is construction plus the injector install, steady
    /// state is the fault-free run to the
    /// [fork step](TrialRunner::fork_step), injection the rest of the
    /// run, then classification.
    ///
    /// The split leans on `System::run` being a plain incremental step
    /// loop and on injector priming: running the fault-free prefix
    /// before installing the injectors runs the same trial.
    pub fn run_trial_observed(&self, seed: u64, clock: &dyn Clock) -> (TrialResult, PhaseSample) {
        let fork_step = self.fork_step();
        let t0 = clock.now_ns();
        let mut system = self.fresh_system(None);
        let t1 = clock.now_ns();
        system.run(fork_step);
        let t2 = clock.now_ns();
        let (trial, _, [installed, ran, classified]) =
            self.run_from(system, seed, None, Some(clock));
        let sample = PhaseSample {
            boot_ns: t1.saturating_sub(t0) + installed.saturating_sub(t2),
            steady_ns: t2.saturating_sub(t1),
            injection_ns: ran.saturating_sub(installed),
            classify_ns: classified.saturating_sub(ran),
        };
        (trial, sample)
    }

    /// Runs one seeded trial from scratch with a flight recorder
    /// attached.
    ///
    /// `config: None` is exactly [`TrialRunner::run_trial`] — the same
    /// code path, no recorder anywhere in the stack (pinned by
    /// `tests/hotpath_equivalence.rs`). With a config, every component
    /// records causal events into one bounded ring, a final
    /// [`certify_obs::trace::TraceKind::ClassifyVerdict`] event stamps
    /// the outcome, and the ring is captured as a [`TraceDump`] —
    /// returned for *every* traced trial; the campaign's
    /// [`crate::DumpPolicy`] decides which dumps reach the sink.
    ///
    /// With `policy.on_panic` set, a panic inside the trial prints the
    /// ring as JSON to stderr before the unwind resumes — the trial
    /// that kills a worker process explains itself on the way down.
    pub fn run_trial_traced(
        &self,
        seed: u64,
        config: Option<&TraceConfig>,
    ) -> (TrialResult, Option<TraceDump>) {
        let (trial, dump, _) = self.run_from(self.fresh_system(config), seed, config, None);
        (trial, dump)
    }
}

/// One trial's result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialResult {
    /// The trial's RNG seed.
    pub seed: u64,
    /// The classified outcome.
    pub outcome: Outcome,
    /// Number of register injections that fired.
    pub injection_count: usize,
    /// Number of memory injections that were applied.
    pub mem_injection_count: usize,
    /// The full classified report.
    pub report: RunReport,
}

impl TrialResult {
    /// The trial as a JSON value (via [`crate::json`]): seed, outcome,
    /// injection counts and the full [`RunReport::to_json`] report.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seed", Json::U64(self.seed)),
            ("outcome", Json::str(self.outcome.to_string())),
            ("injection_count", Json::U64(self.injection_count as u64)),
            (
                "mem_injection_count",
                Json::U64(self.mem_injection_count as u64),
            ),
            ("report", self.report.to_json()),
        ])
    }
}

/// A campaign: `trials` seeded runs of one scenario.
#[derive(Debug, Clone)]
pub struct Campaign {
    scenario: Scenario,
    trials: usize,
    base_seed: u64,
    certificate: Option<Arc<ScenarioCertificate>>,
    trace: Option<TraceConfig>,
}

impl Campaign {
    /// Creates a campaign of `trials` runs seeded `base_seed + i`.
    pub fn new(scenario: Scenario, trials: usize, base_seed: u64) -> Campaign {
        Campaign {
            scenario,
            trials,
            base_seed,
            certificate: None,
            trace: None,
        }
    }

    /// Attaches a pre-flight certificate (builder style). Debug builds
    /// then assert every trial [`Campaign::execute`] delivers against
    /// it, whatever the range, worker count or telemetry — predicted
    /// outcomes, injection budgets and tracked regions — turning a
    /// certificate/engine disagreement into an immediate panic instead
    /// of a silent mis-prediction.
    pub fn with_certificate(mut self, certificate: Arc<ScenarioCertificate>) -> Campaign {
        self.certificate = Some(certificate);
        self
    }

    /// The attached pre-flight certificate, if any.
    pub fn certificate(&self) -> Option<&Arc<ScenarioCertificate>> {
        self.certificate.as_ref()
    }

    /// Attaches a tracing configuration (builder style): every trial
    /// runs with a flight recorder, and trials matching the config's
    /// [`crate::DumpPolicy`] deliver a [`TraceDump`] to the sink via
    /// [`TrialSink::accept_dump`] right after their
    /// [`TrialSink::accept`]. Each [`Campaign::execute`] call first
    /// hands the sink the ring of the shared fault-free prefix through
    /// [`TrialSink::accept_trace_prefix`].
    ///
    /// Tracing never changes trial results, sink rows or stats — the
    /// observability law, pinned by `tests/hotpath_equivalence.rs`.
    /// Tracing and phase timing are independent: an observed run of a
    /// traced campaign records both.
    pub fn with_trace(mut self, config: TraceConfig) -> Campaign {
        self.trace = Some(config);
        self
    }

    /// The attached tracing configuration, if any.
    pub fn trace(&self) -> Option<&TraceConfig> {
        self.trace.as_ref()
    }

    /// Whether `trial`'s dump should reach the sink: its outcome is in
    /// the policy's set, or it violates the attached certificate and
    /// the policy dumps on conformance violations.
    fn should_dump(&self, trial: &TrialResult) -> bool {
        let Some(config) = &self.trace else {
            return false;
        };
        if config.policy.wants(trial.outcome) {
            return true;
        }
        if config.policy.on_conformance_violation {
            if let Some(certificate) = &self.certificate {
                return !certificate.check_trial(trial).is_empty();
            }
        }
        false
    }

    /// The scenario under test.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Total number of trials in this campaign.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// The base seed: trial `i` runs with seed `base_seed + i`.
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// Runs all trials sequentially, buffering every report.
    pub fn run(&self) -> CampaignResult {
        self.run_parallel(1)
    }

    /// Runs all trials across `workers` threads, buffering every
    /// report: a [`CollectSink`] over [`Campaign::execute`]. The trials
    /// are in seed order and bit-identical to a sequential
    /// [`Campaign::run`], whatever the worker count or OS scheduling.
    pub fn run_parallel(&self, workers: usize) -> CampaignResult {
        let mut sink = CollectSink::new();
        self.execute(.., workers, &mut sink, None);
        CampaignResult {
            scenario_name: self.scenario.name.clone(),
            trials: sink.into_trials(),
        }
    }

    /// Runs all trials on the caller's thread into `sink`:
    /// [`Campaign::execute`] over `..` with one worker.
    pub fn run_streamed<S: TrialSink + ?Sized>(&self, sink: &mut S) -> CampaignStats {
        self.execute(.., 1, sink, None).0
    }

    /// Runs all trials across `workers` threads into `sink`, returning
    /// the stats and the reorder high-water mark: [`Campaign::execute`]
    /// over `..` without telemetry.
    pub fn run_parallel_streamed_instrumented<S: TrialSink + ?Sized>(
        &self,
        workers: usize,
        sink: &mut S,
    ) -> (CampaignStats, usize) {
        self.execute(.., workers, sink, None)
    }

    /// The campaign engine. Runs the trials of `range` (`..` for the
    /// whole campaign) on `workers` threads, delivers each result to
    /// `sink` in seed order under its *global* sequence number, and
    /// folds it into the returned [`CampaignStats`]. The second element
    /// is the high-water mark of completed-but-undelivered
    /// [`TrialResult`]s: at most `workers`, clamped to the range
    /// length, and 0 for an empty range.
    ///
    /// * **Range.** Trial `i` is seeded `base_seed + i` and independent
    ///   of every other trial, so concatenating the deliveries of a
    ///   partition of `0..trials` reproduces the full run bit for bit,
    ///   and merging the per-range stats (in any order) with
    ///   [`CampaignStats::merge`] reproduces its stats. A
    ///   `certify-shard` worker runs its range this way.
    /// * **Workers.** One worker (0 counts as 1) runs every trial on
    ///   the caller's thread, spawning none. With more, worker threads
    ///   claim trial indices in order but may only *start* trial `i`
    ///   once `i < delivered + workers`, and the caller's thread drains
    ///   a reorder buffer in seed order: at most `workers` undelivered
    ///   reports exist, however large the campaign.
    /// * **Telemetry.** Phase timings, the high-water mark, sink rows
    ///   and sink bytes fold into its metrics, and its observer gets a
    ///   progress snapshot every `progress_every` deliveries plus a
    ///   final one. It is write-only: whatever the clock, deliveries
    ///   and stats are those of an unobserved run.
    ///
    /// Every trial forks from one fault-free prefix built per call
    /// (none for an empty range); a traced campaign hands its ring to
    /// [`TrialSink::accept_trace_prefix`] before the first delivery.
    /// Debug builds check every delivered trial against the attached
    /// certificate and the memory spec's skip prediction.
    ///
    /// # Panics
    ///
    /// Panics if `range` is inverted or ends past the campaign's trial
    /// count, or if a trial or the sink panics.
    pub fn execute<S: TrialSink + ?Sized>(
        &self,
        range: impl RangeBounds<usize>,
        workers: usize,
        sink: &mut S,
        mut telemetry: Option<&mut EngineTelemetry<'_>>,
    ) -> (CampaignStats, usize) {
        let range = self.trial_range(range);
        let mut delivery = Delivery {
            campaign: self,
            sink,
            stats: CampaignStats::new(self.scenario.name.clone()),
            total: range.len(),
            progress: telemetry.as_deref_mut().map(|telemetry| {
                let tracker = ProgressTracker::new(telemetry.clock, None, range.len() as u64);
                (tracker, telemetry)
            }),
        };
        let (high_water, folded) = if range.is_empty() {
            (0, EngineMetrics::default())
        } else {
            self.run_trials(range.clone(), workers, &mut delivery)
        };
        let Delivery { sink, stats, .. } = delivery;
        let bytes = sink.bytes_written();
        if let Some(EngineTelemetry { metrics, .. }) = telemetry {
            metrics.merge(&folded);
            metrics.reorder_residency.set(high_water as u64);
            metrics.sink_rows.add(range.len() as u64);
            metrics.sink_bytes.add(bytes.unwrap_or(0));
        }
        (stats, high_water)
    }

    /// Resolves `range` against the campaign's trial count.
    fn trial_range(&self, range: impl RangeBounds<usize>) -> Range<usize> {
        let start = match range.start_bound() {
            Bound::Included(&start) => start,
            Bound::Excluded(&start) => start.checked_add(1).expect("trial range overflows"),
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&end) => end.checked_add(1).expect("trial range overflows"),
            Bound::Excluded(&end) => end,
            Bound::Unbounded => self.trials,
        };
        assert!(
            start <= end && end <= self.trials,
            "trial range [{start}, {end}) is inverted or exceeds campaign size {}",
            self.trials
        );
        start..end
    }

    /// Runs the non-empty `range` and hands every result to `delivery`
    /// in seed order. Builds the shared prefix (handing a traced ring to
    /// the sink) and forks each trial from it. One worker runs on the
    /// caller's thread. More claim the indices of `range` in order from
    /// a shared queue, while the caller's thread drains the reorder
    /// buffer. Returns the reorder high-water mark and the folded phase
    /// timings.
    fn run_trials<S: TrialSink + ?Sized>(
        &self,
        range: Range<usize>,
        workers: usize,
        delivery: &mut Delivery<'_, '_, S>,
    ) -> (usize, EngineMetrics) {
        let (runner, trace) = (self.scenario.runner(), self.trace.as_ref());
        let prefix = runner.prefix(trace);
        if let Some(recorder) = prefix.hv.recorder() {
            delivery.sink.accept_trace_prefix(recorder);
        }
        let clock = delivery.progress.as_ref().map(|(_, t)| t.clock);
        let run = |seq: usize| {
            let seed = self.base_seed + seq as u64;
            runner.run_forked(&prefix, seed, trace, clock.map(|c| c as _))
        };
        let workers = workers.min(range.len());
        if workers <= 1 {
            let mut folded = EngineMetrics::default();
            for seq in range {
                let (trial, dump, sample) = run(seq);
                fold_sample(&mut folded, sample);
                delivery.deliver(seq, trial, dump);
            }
            return (1, folded);
        }

        let end = range.end;
        let folded = Mutex::new(EngineMetrics::default());
        let shared = Mutex::new(Reorder {
            next: range.start,
            delivered: range.start,
            buffer: BTreeMap::new(),
            undelivered: 0,
            high_water: 0,
            aborted: false,
        });
        // Consumer waits on `ready` for the next in-order report;
        // workers wait on `space` for the delivery window to open.
        let ready = Condvar::new();
        let space = Condvar::new();

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let (run, shared, ready, space, folded) = (&run, &shared, &ready, &space, &folded);
                scope.spawn(move || {
                    // On panic (poisoned lock or unwind mid-trial),
                    // wake everyone so the scope can tear down instead
                    // of deadlocking.
                    let _guard = AbortGuard {
                        shared,
                        ready,
                        space,
                    };
                    // Observed runs fold phase timings thread-locally
                    // and merge once at exit — no locking on the trial
                    // hot path.
                    let mut local = EngineMetrics::default();
                    loop {
                        let seq = {
                            let mut state = shared.lock().expect("campaign engine lock");
                            if state.aborted || state.next >= end {
                                break;
                            }
                            let seq = state.next;
                            state.next += 1;
                            // Delivery window: starting this trial must
                            // not be able to push the undelivered count
                            // past `workers`.
                            while !state.aborted && seq >= state.delivered + workers {
                                state = space.wait(state).expect("campaign engine lock");
                            }
                            if state.aborted {
                                break;
                            }
                            seq
                        };
                        let (trial, dump, sample) = run(seq);
                        fold_sample(&mut local, sample);
                        let mut state = shared.lock().expect("campaign engine lock");
                        state.undelivered += 1;
                        state.high_water = state.high_water.max(state.undelivered);
                        state.buffer.insert(seq, (trial, dump));
                        drop(state);
                        ready.notify_all();
                    }
                    folded
                        .lock()
                        .expect("campaign telemetry lock")
                        .merge(&local);
                });
            }

            // The caller's thread is the consumer: drain the reorder
            // buffer in seed order, deliver, open the window.
            let _guard = AbortGuard {
                shared: &shared,
                ready: &ready,
                space: &space,
            };
            for seq in range {
                let (trial, dump) = {
                    let mut state = shared.lock().expect("campaign engine lock");
                    loop {
                        if let Some(trial) = state.buffer.remove(&seq) {
                            break trial;
                        }
                        assert!(!state.aborted, "campaign worker panicked");
                        state = ready.wait(state).expect("campaign engine lock");
                    }
                };
                delivery.deliver(seq, trial, dump);
                let mut state = shared.lock().expect("campaign engine lock");
                state.undelivered -= 1;
                state.delivered += 1;
                drop(state);
                space.notify_all();
            }
        });

        let high_water = shared
            .into_inner()
            .expect("campaign engine lock")
            .high_water;
        (
            high_water,
            folded.into_inner().expect("campaign telemetry lock"),
        )
    }
}

/// The delivery step both paths of [`Campaign::execute`] share. Results
/// arrive in seed order; each is checked against the attached
/// certificate and the skip prediction (debug builds), folded into the
/// stats, handed to the sink with its dump if the policy keeps it, and
/// counted towards progress: a snapshot every `progress_every`
/// deliveries and one after the last of `total`.
struct Delivery<'e, 't, S: ?Sized> {
    campaign: &'e Campaign,
    sink: &'e mut S,
    stats: CampaignStats,
    total: usize,
    progress: Option<(ProgressTracker<'t>, &'e mut EngineTelemetry<'t>)>,
}

impl<S: TrialSink + ?Sized> Delivery<'_, '_, S> {
    fn deliver(&mut self, seq: usize, trial: TrialResult, dump: Option<TraceDump>) {
        #[cfg(debug_assertions)]
        {
            let scenario = &self.campaign.scenario;
            let prediction = scenario.mem_spec.as_ref().map(MemorySpec::skip_prediction);
            assert_skips_predicted(prediction.as_ref(), &trial);
            assert_certificate_conformance(self.campaign.certificate.as_deref(), &trial);
        }
        self.stats.record(&trial);
        let kept = dump.filter(|_| self.campaign.should_dump(&trial));
        self.sink.accept(seq, trial);
        if let Some(dump) = kept {
            self.sink.accept_dump(seq, dump);
        }
        if let Some((tracker, telemetry)) = &mut self.progress {
            let (done, every) = (self.stats.trials, telemetry.progress_every);
            if (every > 0 && done.is_multiple_of(every)) || done == self.total {
                let rows = outcome_rows(&self.stats.distribution);
                telemetry
                    .progress
                    .on_progress(&tracker.snapshot(done as u64, rows));
            }
        }
    }
}

/// Folds an observed trial's phase timings (`None` when unobserved).
fn fold_sample(metrics: &mut EngineMetrics, sample: Option<PhaseSample>) {
    if let Some(sample) = sample {
        metrics.trials.inc();
        metrics.phases.record(&sample);
    }
}

/// Debug-build cross-check of the static skip analysis: every skipped
/// memory injection recorded by a trial must have been predicted as
/// *possible* by [`crate::memfault::SkipPrediction`] — if the linter
/// says a spec cannot skip, the engine holds it to that.
#[cfg(debug_assertions)]
fn assert_skips_predicted(
    prediction: Option<&crate::memfault::SkipPrediction>,
    trial: &TrialResult,
) {
    for record in &trial.report.mem_injections {
        let Some(reason) = &record.skipped else {
            continue;
        };
        let prediction = prediction.expect("a skip was recorded without a memory spec");
        assert!(
            prediction.predicts(reason),
            "trial {} skipped an injection ({reason}) the static analysis ruled out",
            trial.seed
        );
    }
}

/// Debug-build certificate conformance: every trial of a campaign
/// with an attached [`ScenarioCertificate`] must land inside its
/// predicted outcome set, injection budgets and tracked regions.
#[cfg(debug_assertions)]
fn assert_certificate_conformance(certificate: Option<&ScenarioCertificate>, trial: &TrialResult) {
    let Some(certificate) = certificate else {
        return;
    };
    let violations = certificate.check_trial(trial);
    assert!(
        violations.is_empty(),
        "trial {} violates the scenario certificate: {}",
        trial.seed,
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("; ")
    );
}

/// Shared state of the threaded [`Campaign::execute`]: an in-order index
/// queue plus the reorder buffer the consumer drains in seed order.
struct Reorder {
    /// Next trial index to hand to a worker.
    next: usize,
    /// Next trial index to deliver: every trial of the range before it
    /// has reached the sink.
    delivered: usize,
    /// Completed trials (with their optional trace dump) waiting for
    /// their turn at the sink.
    buffer: BTreeMap<usize, (TrialResult, Option<TraceDump>)>,
    /// Completed-but-undelivered reports (buffer plus the one the
    /// consumer is currently handing to the sink).
    undelivered: usize,
    /// High-water mark of `undelivered`.
    high_water: usize,
    /// A thread panicked; everyone should stop.
    aborted: bool,
}

/// Wakes all engine threads if the owning thread unwinds, so a panic
/// in a trial or in the sink tears the scope down instead of leaving
/// the other side blocked on a condvar forever.
struct AbortGuard<'a> {
    shared: &'a Mutex<Reorder>,
    ready: &'a Condvar,
    space: &'a Condvar,
}

impl Drop for AbortGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            if let Ok(mut state) = self.shared.lock() {
                state.aborted = true;
            }
            self.ready.notify_all();
            self.space.notify_all();
        }
    }
}

/// Aggregated campaign outcomes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignResult {
    /// The scenario that was run.
    pub scenario_name: String,
    /// All trial results, in seed order.
    pub trials: Vec<TrialResult>,
}

impl CampaignResult {
    /// Folds the buffered trials into the same [`CampaignStats`] a
    /// streamed run of identical seeds returns: the histogram, the
    /// injected-trial counts and the per-region attribution.
    pub fn stats(&self) -> CampaignStats {
        let mut stats = CampaignStats::new(self.scenario_name.clone());
        for trial in &self.trials {
            stats.record(trial);
        }
        stats
    }

    /// The buffered campaign as a JSON value: the scenario name and
    /// every trial through [`TrialResult::to_json`], in seed order.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("scenario", Json::str(self.scenario_name.clone())),
            (
                "trials",
                Json::Arr(self.trials.iter().map(TrialResult::to_json).collect()),
            ),
        ])
    }
}

impl fmt::Display for CampaignResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.stats().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_campaign_is_all_correct() {
        let campaign = Campaign::new(Scenario::golden(1500), 2, 1);
        let result = campaign.run();
        assert_eq!(result.trials.len(), 2);
        for trial in &result.trials {
            assert_eq!(trial.outcome, Outcome::Correct);
            assert_eq!(trial.injection_count, 0);
        }
        assert_eq!(result.stats().fraction(Outcome::Correct), 1.0);
    }

    #[test]
    fn e1_trials_always_reject_cleanly() {
        let campaign = Campaign::new(Scenario::e1_root_high(), 4, 100);
        let result = campaign.run();
        for trial in &result.trials {
            assert_eq!(
                trial.outcome,
                Outcome::InvalidArguments,
                "seed {}: {}",
                trial.seed,
                trial.report
            );
            assert!(trial.injection_count >= 1, "injection did not fire");
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let campaign = Campaign::new(Scenario::e1_root_high(), 4, 7);
        let seq = campaign.run();
        let par = campaign.run_parallel(4);
        let seq_outcomes: Vec<Outcome> = seq.trials.iter().map(|t| t.outcome).collect();
        let par_outcomes: Vec<Outcome> = par.trials.iter().map(|t| t.outcome).collect();
        assert_eq!(seq_outcomes, par_outcomes);
    }

    #[test]
    fn distribution_sums_to_trials() {
        let campaign = Campaign::new(Scenario::golden(800), 3, 3);
        let result = campaign.run();
        let total: usize = result.stats().distribution.values().sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn e6_campaign_applies_memory_faults_across_regions() {
        let campaign = Campaign::new(
            Scenario::e6_memory(MemFaultModel::SingleBitFlip, MemTarget::e6()),
            6,
            0xE6,
        );
        let stats = campaign.run_parallel(4).stats();
        assert!(stats.mem_injected_trials > 0, "no trial applied faults");
        assert_eq!(stats.injected_trials, 0, "no register injector in E6");
        assert!(!stats.mem_region_distribution.is_empty());
        let attributed: usize = stats.mem_region_distribution.values().sum();
        assert!(attributed >= stats.mem_injected_trials);
    }

    #[test]
    fn mixed_campaign_runs_both_injectors() {
        let campaign = Campaign::new(Scenario::e7_mixed(), 4, 0xE7);
        let stats = campaign.run().stats();
        assert!(stats.injected_trials > 0, "register injector silent");
        assert!(stats.mem_injected_trials > 0, "memory injector silent");
    }

    #[test]
    fn range_runs_concatenate_to_the_full_run() {
        let campaign = Campaign::new(Scenario::e1_root_high(), 5, 30);
        let mut full = Vec::new();
        let full_stats = campaign.run_streamed(&mut |seq: usize, t: TrialResult| {
            full.push((seq, t));
        });
        let mut pieces = Vec::new();
        let mut merged = CampaignStats::new(campaign.scenario().name.clone());
        let mut piece = |seq: usize, t: TrialResult| pieces.push((seq, t));
        // Every bound form resolves against the campaign's trial count.
        for (stats, _) in [
            campaign.execute(..2, 1, &mut piece, None),
            campaign.execute(2..=3, 2, &mut piece, None),
            campaign.execute(4.., 1, &mut piece, None),
        ] {
            merged.merge(&stats);
        }
        assert_eq!(pieces, full, "concatenated ranges diverged");
        assert_eq!(merged, full_stats, "merged range stats diverged");
    }

    #[test]
    #[should_panic(expected = "exceeds campaign size")]
    fn out_of_bounds_range_is_rejected() {
        let campaign = Campaign::new(Scenario::golden(400), 3, 1);
        campaign.execute(2..4, 1, &mut crate::sink::NullSink, None);
    }

    #[test]
    fn predicted_skips_pass_the_debug_assertion() {
        // A hole-region target guarantees OutOfRange skips; the
        // prediction marks them possible, so the run's debug
        // assertion accepts every one of them.
        let scenario = Scenario::e6_memory(
            MemFaultModel::SingleBitFlip,
            MemTarget::only(crate::MemRegionKind::Custom {
                base: 0x1000_0000,
                size: 0x1000,
            }),
        );
        let stats = Campaign::new(scenario, 2, 5).run_streamed(&mut crate::sink::NullSink);
        assert_eq!(stats.trials, 2);
        assert_eq!(stats.mem_injected_trials, 0, "every injection skipped");
    }

    /// Scripted time for phase pins: every read advances a
    /// [`certify_obs::ManualClock`] by 1 ns, so a phase reads as the
    /// number of clock reads it spans — 0 exactly when it never ran.
    struct TickingClock(certify_obs::ManualClock);

    impl Clock for TickingClock {
        fn now_ns(&self) -> u64 {
            self.0.advance(1);
            self.0.now_ns()
        }
    }

    #[test]
    fn phases_split_at_the_fork_step() {
        let runner = Scenario::e3_fig3().runner();
        assert_eq!(runner.fork_step(), 3157, "E3's steady state is its prefix");
        let clock = TickingClock(certify_obs::ManualClock::new());

        // From scratch: construction + install, the fault-free run to
        // the fork step, the rest, classification.
        let (scratch, sample) = runner.run_trial_observed(0xD5_2022, &clock);
        let expected = PhaseSample {
            boot_ns: 2,
            steady_ns: 1,
            injection_ns: 1,
            classify_ns: 1,
        };
        assert_eq!(sample, expected);

        // Forked: boot is the clone plus the install, and no steady
        // state runs per trial.
        let prefix = runner.prefix(None);
        let (forked, dump, sample) = runner.run_forked(&prefix, 0xD5_2022, None, Some(&clock));
        let expected = PhaseSample {
            boot_ns: 1,
            steady_ns: 0,
            injection_ns: 1,
            classify_ns: 1,
        };
        assert_eq!(sample, Some(expected));
        assert_eq!(forked, scratch);
        assert!(dump.is_none());
        assert_eq!(
            prefix.steps_run(),
            3157,
            "forking leaves the prefix untouched"
        );
    }

    #[test]
    fn golden_runs_are_all_prefix() {
        let runner = Scenario::golden(600).runner();
        assert_eq!(runner.fork_step(), 600);
        let prefix = runner.prefix(None);
        let (trial, _, _) = runner.run_forked(&prefix, 3, None, None);
        assert_eq!(trial, runner.run_trial(3));

        // Traced: each fork records into its own copy of the prefix's
        // ring, and the prefix's ring stays as it was.
        let config = TraceConfig::new();
        let prefix = runner.prefix(Some(&config));
        let total = prefix.hv.recorder().expect("traced prefix").total();
        for seed in [3, 4] {
            let (trial, dump, _) = runner.run_forked(&prefix, seed, Some(&config), None);
            assert_eq!((trial, dump), runner.run_trial_traced(seed, Some(&config)));
        }
        assert_eq!(prefix.hv.recorder().map(|r| r.total()), Some(total));
    }

    #[test]
    fn huge_trace_capacity_dumps_like_the_default() {
        let runner = Scenario::golden(600).runner();
        let huge = TraceConfig::new().with_capacity(usize::MAX);
        let (trial, dump) = runner.run_trial_traced(5, Some(&huge));
        let default = runner.run_trial_traced(5, Some(&TraceConfig::new()));
        assert_eq!((trial, dump), default);
    }

    #[test]
    fn mixed_parallel_equals_sequential() {
        let campaign = Campaign::new(Scenario::e7_mixed(), 4, 21);
        assert_eq!(campaign.run(), campaign.run_parallel(4));
    }
}
