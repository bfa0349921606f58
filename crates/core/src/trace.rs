//! Trial tracing: flight-recorder configuration, anomaly dump policy
//! and the [`TraceDump`] artifact.
//!
//! The raw machinery — the event vocabulary and the bounded ring —
//! lives in [`certify_obs::trace`]; this module is the campaign-level
//! wiring. A [`TraceConfig`] attached to a campaign
//! ([`crate::Campaign::with_trace`]) gives every trial its own flight
//! recorder; when a trial classifies into the [`DumpPolicy`]'s
//! outcome set (or violates the attached certificate), the recorder's
//! contents are captured as a [`TraceDump`] and delivered to the sink
//! via [`crate::sink::TrialSink::accept_dump`]. Dumps export as
//! deterministic JSON ([`TraceDump::to_json`]) and as
//! `chrome://tracing` JSON ([`TraceDump::to_chrome_trace`]).
//!
//! Everything here is a pure function of the trial seed: the same
//! seed produces byte-identical dumps in-process, across worker
//! threads and across shard processes — pinned by the equivalence
//! table in `tests/hotpath_equivalence.rs`, `tests/determinism.rs`
//! (replayed event streams) and `crates/shard/tests/sharded.rs`.

use crate::classify::Outcome;
use crate::json::Json;
use certify_obs::trace::{FlightRecorder, TraceEvent, NO_CPU};
use std::collections::BTreeSet;

/// Default flight-recorder capacity (events retained per trial).
///
/// A 4500-step E3/E6 trial records on the order of 10k handler
/// entries; 4096 keeps the full injection-to-verdict suffix — the
/// part propagation analysis needs — while bounding memory at
/// 128 KiB (4096 events of 32 bytes) per in-flight trial.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// When a trial's flight recorder is dumped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DumpPolicy {
    /// Outcomes that trigger a dump. A trial that violates the
    /// campaign's attached [`crate::ScenarioCertificate`] is dumped
    /// whatever its outcome.
    pub outcomes: BTreeSet<Outcome>,
}

impl DumpPolicy {
    /// The stock anomaly policy: dump on every outcome that signals
    /// something went wrong in an *interesting* way (panic park,
    /// inconsistent state, translation-fault storm, silent data
    /// corruption), plus conformance violations and panics. The
    /// expected outcomes — correct, CPU park, invalid arguments — are
    /// the campaign's bread and butter and stay quiet.
    pub fn anomalies() -> DumpPolicy {
        DumpPolicy {
            outcomes: [
                Outcome::PanicPark,
                Outcome::InconsistentState,
                Outcome::TranslationFaultStorm,
                Outcome::SilentDataCorruption,
            ]
            .into_iter()
            .collect(),
        }
    }

    /// Dump every trial, whatever its outcome — the propagation-
    /// analysis firehose.
    pub fn all_outcomes() -> DumpPolicy {
        DumpPolicy {
            outcomes: Outcome::ALL.into_iter().collect(),
        }
    }

    /// Whether `outcome` triggers a dump.
    pub fn wants(&self, outcome: Outcome) -> bool {
        self.outcomes.contains(&outcome)
    }
}

impl Default for DumpPolicy {
    fn default() -> DumpPolicy {
        DumpPolicy::anomalies()
    }
}

/// Per-campaign tracing configuration: ring capacity + dump policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Flight-recorder capacity in events (floored at 1).
    pub capacity: usize,
    /// When to keep a trial's dump.
    pub policy: DumpPolicy,
}

impl TraceConfig {
    /// The stock configuration: [`DEFAULT_TRACE_CAPACITY`] events,
    /// [`DumpPolicy::anomalies`].
    pub fn new() -> TraceConfig {
        TraceConfig::default()
    }

    /// Builder: override the ring capacity.
    pub fn with_capacity(mut self, capacity: usize) -> TraceConfig {
        self.capacity = capacity;
        self
    }

    /// Builder: override the dump policy.
    pub fn with_policy(mut self, policy: DumpPolicy) -> TraceConfig {
        self.policy = policy;
        self
    }
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            capacity: DEFAULT_TRACE_CAPACITY,
            policy: DumpPolicy::default(),
        }
    }
}

/// One anomalous trial's flight-recorder contents, ready to persist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDump {
    /// The trial's seed.
    pub seed: u64,
    /// The scenario that ran.
    pub scenario: String,
    /// The classified outcome that triggered (or survived) the dump.
    pub outcome: Outcome,
    /// Events recorded over the whole trial, including evicted ones.
    pub total: u64,
    /// Events lost off the head of the ring (`total - events.len()`).
    pub dropped: u64,
    /// The retained event suffix, oldest first.
    pub events: Vec<TraceEvent>,
}

impl TraceDump {
    /// Turns `recorder`'s ring into a dump, reusing its buffer.
    pub fn capture(
        recorder: FlightRecorder,
        seed: u64,
        scenario: &str,
        outcome: Outcome,
    ) -> TraceDump {
        TraceDump {
            seed,
            scenario: scenario.to_string(),
            outcome,
            total: recorder.total(),
            dropped: recorder.dropped(),
            events: recorder.into_events(),
        }
    }

    /// The dump as a deterministic JSON value (via [`crate::json`]).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seed", Json::U64(self.seed)),
            ("scenario", Json::str(self.scenario.clone())),
            ("outcome", Json::str(self.outcome.to_string())),
            ("total", Json::U64(self.total)),
            ("dropped", Json::U64(self.dropped)),
            (
                "events",
                Json::Arr(self.events.iter().map(trace_event_to_json).collect()),
            ),
        ])
    }

    /// The dump as a `chrome://tracing` / Perfetto JSON document:
    /// every event an instant ("ph":"i") at `ts` = machine step, on
    /// the thread lane of its CPU (lane -1 for events with no CPU).
    pub fn to_chrome_trace(&self) -> String {
        let events = self
            .events
            .iter()
            .map(|event| {
                let tid = if event.cpu == NO_CPU {
                    Json::I64(-1)
                } else {
                    Json::U64(event.cpu as u64)
                };
                Json::obj([
                    ("name", Json::str(event.kind.name())),
                    ("ph", Json::str("i")),
                    ("ts", Json::U64(event.step)),
                    ("pid", Json::U64(0)),
                    ("tid", tid),
                    ("s", Json::str("t")),
                    (
                        "args",
                        Json::obj([("a", Json::U64(event.arg_a)), ("b", Json::U64(event.arg_b))]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
            (
                "otherData",
                Json::obj([
                    ("scenario", Json::str(self.scenario.clone())),
                    ("seed", Json::U64(self.seed)),
                    ("outcome", Json::str(self.outcome.to_string())),
                    ("dropped", Json::U64(self.dropped)),
                ]),
            ),
        ])
        .render()
    }
}

/// One event as JSON; a [`NO_CPU`] cpu renders as `null`.
pub(crate) fn trace_event_to_json(event: &TraceEvent) -> Json {
    let cpu = if event.cpu == NO_CPU {
        Json::Null
    } else {
        Json::U64(event.cpu as u64)
    };
    Json::obj([
        ("step", Json::U64(event.step)),
        ("cpu", cpu),
        ("kind", Json::str(event.kind.name())),
        ("a", Json::U64(event.arg_a)),
        ("b", Json::U64(event.arg_b)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use certify_obs::trace::TraceKind;

    fn sample_dump() -> TraceDump {
        let mut recorder = FlightRecorder::new(2);
        for step in 1..=3u64 {
            recorder.record(TraceEvent {
                step,
                cpu: if step == 3 { NO_CPU } else { 1 },
                kind: TraceKind::HandlerEntry,
                arg_a: step * 10,
                arg_b: 0,
            });
        }
        TraceDump::capture(
            recorder,
            42,
            "e3-fig3-medium",
            Outcome::SilentDataCorruption,
        )
    }

    #[test]
    fn capture_reflects_ring_truncation() {
        let dump = sample_dump();
        assert_eq!(dump.total, 3);
        assert_eq!(dump.dropped, 1);
        assert_eq!(dump.events.len(), 2);
        assert_eq!(dump.events[0].step, 2);
    }

    #[test]
    fn json_encodes_no_cpu_as_null() {
        let rendered = sample_dump().to_json().render();
        assert!(rendered.contains("\"seed\":42"));
        assert!(rendered.contains("\"cpu\":null"));
        assert!(rendered.contains("\"kind\":\"handler_entry\""));
    }

    #[test]
    fn chrome_trace_is_well_formed_enough() {
        let doc = sample_dump().to_chrome_trace();
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.contains("\"ph\":\"i\""));
        assert!(doc.contains("\"tid\":-1"));
        assert!(doc.contains("\"scenario\":\"e3-fig3-medium\""));
    }

    #[test]
    fn default_policy_dumps_anomalies_only() {
        let policy = DumpPolicy::default();
        assert!(policy.wants(Outcome::SilentDataCorruption));
        assert!(policy.wants(Outcome::PanicPark));
        assert!(!policy.wants(Outcome::Correct));
        assert!(!policy.wants(Outcome::CpuPark));
        assert!(DumpPolicy::all_outcomes().wants(Outcome::Correct));
    }
}
