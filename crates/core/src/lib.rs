//! `certify-core` — the paper's contribution: a fault-injection
//! framework for assessing a partitioning hypervisor as an ISO 26262
//! *Safety Element out of Context* (SEooC).
//!
//! The framework follows Figure 2 of the paper:
//!
//! ```text
//!  test plan ──► fault injection test ──► log file ──► analytics
//!    (spec)        (injector + system)     (serial +     (certify-
//!                                           events)       analysis)
//! ```
//!
//! * [`fault`] — the fault models: the classical single-bit-flip
//!   transient fault plus the multi-register variant of the paper's
//!   *high* intensity level and the extension models of the future-work
//!   section (double bit, stuck-at, register replacement);
//! * [`spec`] — injection specifications: the [`spec::Cadence`] both
//!   injectors share (target handlers, CPU filter, occurrence rate
//!   "once every given number of calls", cap, phase, injection
//!   windows) and its per-trial [`spec::CadenceCounter`], the intensity
//!   presets [`spec::Intensity::Medium`] / [`spec::Intensity::High`],
//!   and the memory-domain [`spec::MemorySpec`];
//! * [`injector`] — the [`certify_hypervisor::InjectionHook`]
//!   implementation that counts filtered handler calls and applies
//!   faults on cadence, recording every injection;
//! * [`memfault`] — the memory fault models (bit flips, stuck-at
//!   words, page bursts, stage-2 descriptor corruption, comm-region
//!   corruption) and the [`memfault::MemTarget`] address sampler;
//! * [`meminjector`] — the step-driven memory injector firing those
//!   models on the same cadence;
//! * [`system`] — the full testbed: board + hypervisor + root Linux
//!   guest + FreeRTOS guest, orchestrated step by step;
//! * [`classify`](mod@classify) — the outcome classifier producing the
//!   paper's categories (*correct*, *invalid arguments*, *inconsistent
//!   state*, *panic park*, *CPU park*);
//! * [`campaign`] — seeded, optionally parallel campaigns of
//!   independent trials, streamed into a sink with online stats
//!   (O(workers) resident reports);
//! * [`certificate`] — [`certificate::ScenarioCertificate`], the
//!   pre-flight abstract-interpretation certificate produced by
//!   `certify-lint`, plus the [`certificate::ConformanceMonitor`]
//!   sink wrapper enforcing it at runtime;
//! * [`sink`] — the [`sink::TrialSink`] streaming consumer trait and
//!   stock sinks;
//! * [`stats`] — [`stats::CampaignStats`], the online constant-size
//!   campaign aggregates;
//! * [`codec`] — the hand-rolled binary wire codec that ships
//!   scenarios to, and stats back from, `certify-shard` worker
//!   processes;
//! * [`json`] — the hand-rolled JSON writer behind `certify-lint
//!   --json`, the stats and trace-dump exports and the telemetry
//!   snapshots;
//! * [`telemetry`] — the `certify_obs` bridge: the
//!   [`telemetry::EngineTelemetry`] bundle observed campaign runs
//!   record into, and JSON views of metrics and progress snapshots;
//! * [`trace`] — trial tracing: the per-trial flight recorder's
//!   [`trace::TraceConfig`], the anomaly [`trace::DumpPolicy`] and the
//!   [`trace::TraceDump`] artifact with its JSON / Chrome-trace
//!   exports;
//! * [`profiler`] — golden-run profiling that ranks handler
//!   activations and (re)derives the paper's three injection points.
//!
//! # Quickstart
//!
//! ```
//! use certify_core::campaign::{Campaign, Scenario};
//! use certify_core::CollectSink;
//!
//! // Three seeded trials of the paper's Figure-3 experiment, on one
//! // worker, without telemetry; the sink keeps every trial.
//! let campaign = Campaign::new(Scenario::e3_fig3(), 3, 0xC0FFEE);
//! let mut sink = CollectSink::new();
//! let (stats, _) = campaign.execute(.., 1, &mut sink, None);
//! assert_eq!(sink.into_trials().len(), 3);
//! assert_eq!(stats.trials, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod certificate;
pub mod classify;
pub mod codec;
pub mod fault;
mod faultclass;
pub mod injector;
pub mod json;
pub mod memfault;
pub mod meminjector;
pub mod profiler;
pub mod sink;
pub mod spec;
pub mod stats;
pub mod system;
pub mod telemetry;
pub mod trace;

pub use campaign::{Campaign, Scenario, TrialResult, TrialRunner};
pub use certificate::{ConformanceMonitor, ConformanceViolation, PhaseBound, ScenarioCertificate};
pub use classify::{classify, Outcome, RunReport};
pub use codec::{decode_exact, encode_to_vec, DecodeError, Reader, Wire};
pub use fault::{AppliedFault, FaultModel};
pub use injector::{InjectionRecord, Injector};
pub use json::Json;
pub use memfault::{
    AppliedMemFault, FaultPath, MemFaultModel, MemFaultSkip, MemRegionKind, MemTarget, RamCoverage,
};
pub use meminjector::{MemInjectionRecord, MemInjector};
pub use profiler::{profile_golden_run, ProfileReport};
pub use sink::{CollectSink, NullSink, TrialSink};
pub use spec::{
    Cadence, CadenceCounter, InjectionSpec, InjectionWindow, Intensity, MemorySpec, Paced,
};
pub use stats::{CampaignStats, CountSummary};
pub use system::System;
pub use telemetry::{
    engine_metrics_to_json, histogram_to_json, progress_to_json, shard_metrics_to_json,
    EngineTelemetry,
};
pub use trace::{DumpPolicy, TraceConfig, TraceDump, DEFAULT_TRACE_CAPACITY};
