//! `certify-obs` — the observability substrate of the campaign stack.
//!
//! A campaign run is a black box without telemetry: the coordinator
//! gives no sign of per-shard health, retries, throughput or ETA until
//! the final merge, and the engine's phase costs are only visible to
//! one-off bench binaries. This crate is the dependency-free layer the
//! execution tiers thread their instrumentation through:
//!
//! * [`metrics`] — counters, gauges and fixed-bucket latency
//!   histograms (p50/p90/p99/max), all with a `merge()` law mirroring
//!   `CampaignStats`: shards fold locally, the coordinator merges, and
//!   shard-fold == single-fold. [`metrics::EngineMetrics`] and
//!   [`metrics::ShardMetrics`] bundle the per-tier instrument sets.
//! * [`clock`] — the deterministic timing discipline. Every wall-clock
//!   read in the workspace goes through the [`clock::Clock`] trait:
//!   [`clock::MonotonicClock`] is the *only* allowlisted
//!   `Instant::now` site (see `crates/lint/determinism-allow.txt`),
//!   and [`clock::ManualClock`] gives tests fully scripted time.
//! * [`progress`] — live campaign progress: the
//!   [`progress::ProgressObserver`] hook the streamed engine and the
//!   shard coordinator call with throughput / outcome-histogram / ETA
//!   [`progress::ProgressSnapshot`]s.
//! * [`io`] — byte-counting I/O adapters ([`io::CountingReader`]) so
//!   frame transports can report wire volume without re-buffering.
//! * [`trace`] — the causal trace layer: the step-stamped
//!   [`trace::TraceEvent`] vocabulary and the bounded ring-buffer
//!   [`trace::FlightRecorder`] the hypervisor owns and the testbed's
//!   event sites record into.
//!
//! The cardinal rule, pinned by the equivalence harness one level up
//! (`tests/common/mod.rs`): **telemetry never influences trial
//! results**. Observed and unobserved runs of the same seeds produce
//! identical stats and byte-identical CSV; the clock feeds histograms,
//! never the engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod io;
pub mod metrics;
pub mod progress;
pub mod trace;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use io::CountingReader;
pub use metrics::{
    Counter, EngineMetrics, Gauge, Histogram, PhaseSample, ShardMetrics, TrialPhaseMetrics,
};
pub use progress::{
    CollectObserver, NullObserver, ProgressObserver, ProgressSnapshot, ProgressTracker,
};
pub use trace::{FlightRecorder, TraceEvent, TraceKind, NO_CPU};
