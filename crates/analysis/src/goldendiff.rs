//! Golden-diff propagation analysis: where did a faulty trial first
//! leave the golden path?
//!
//! An anomalous trial's [`TraceDump`] is a causal event stream; the
//! same scenario stripped of its injectors
//! ([`Scenario::fault_free`]) re-run at the *same seed* produces the
//! golden stream the trial would have followed without faults.
//! [`golden_diff`] runs that fault-free twin, aligns the two streams
//! event by event and reports the first divergence — typically the
//! injection itself, with the divergent suffix showing how the fault
//! propagated from there to the classified outcome (trap → park →
//! watchdog bite, or the silent scheduler drift of an SDC).
//!
//! The comparison is exact: both streams are pure functions of the
//! seed, so any difference is caused by the injectors and nothing
//! else.

use certify_core::campaign::Scenario;
use certify_core::trace::{DumpPolicy, TraceConfig, TraceDump};
use certify_core::Outcome;
use certify_obs::trace::{TraceEvent, NO_CPU};
use std::fmt;

/// The first point where the faulty stream leaves the golden one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Event index (into both streams) of the first mismatch.
    pub index: usize,
    /// Machine step of the first divergent event (the earlier of the
    /// two sides when both exist).
    pub step: u64,
    /// The faulty side's event at that index (`None`: the faulty
    /// stream ended first).
    pub faulty: Option<TraceEvent>,
    /// The golden side's event at that index (`None`: the golden
    /// stream ended first).
    pub golden: Option<TraceEvent>,
}

/// A faulty trial's trace diffed against its fault-free twin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenDiff {
    /// The shared trial seed.
    pub seed: u64,
    /// The faulty scenario's name.
    pub scenario: String,
    /// The faulty trial's classified outcome.
    pub faulty_outcome: Outcome,
    /// The fault-free twin's classified outcome (almost always
    /// [`Outcome::Correct`]; anything else means the scenario itself
    /// misbehaves without faults).
    pub golden_outcome: Outcome,
    /// Events dropped off the faulty ring (> 0 means the prefix is
    /// truncated and the "divergence" may be an alignment artifact —
    /// re-capture with a larger ring).
    pub faulty_dropped: u64,
    /// Events dropped off the golden ring.
    pub golden_dropped: u64,
    /// Events identical on both sides before the divergence.
    pub common_prefix: usize,
    /// The first mismatch, or `None` if the streams are identical
    /// (the injectors never perturbed anything the trace observes).
    pub divergence: Option<Divergence>,
    /// The faulty stream from the divergence on.
    pub faulty_suffix: Vec<TraceEvent>,
    /// The golden stream from the divergence on.
    pub golden_suffix: Vec<TraceEvent>,
}

/// Diffs `dump` (a trace captured from a faulty run of `scenario`)
/// against the fault-free twin re-run at the same seed.
///
/// The twin is traced with the same ring capacity as `dump` retained
/// events would suggest — pass the capacity the campaign used via
/// `config` so both sides truncate identically (the stock
/// [`TraceConfig::default`] matches a stock campaign).
pub fn golden_diff(scenario: &Scenario, dump: &TraceDump, config: &TraceConfig) -> GoldenDiff {
    let golden_scenario = scenario.fault_free();
    // Dump every outcome: the twin is expected to be Correct, which
    // the stock anomaly policy would not capture.
    let golden_config = TraceConfig {
        capacity: config.capacity,
        policy: DumpPolicy::all_outcomes(),
    };
    let (golden_trial, golden_dump) = golden_scenario
        .runner()
        .run_trial_traced(dump.seed, Some(&golden_config));
    let golden_dump = golden_dump.expect("traced trial always yields a dump");

    let faulty = &dump.events;
    let golden = &golden_dump.events;
    let common_prefix = faulty
        .iter()
        .zip(golden.iter())
        .take_while(|(a, b)| a == b)
        .count();
    let divergence = if common_prefix == faulty.len() && common_prefix == golden.len() {
        None
    } else {
        let f = faulty.get(common_prefix).copied();
        let g = golden.get(common_prefix).copied();
        let step = match (f, g) {
            (Some(a), Some(b)) => a.step.min(b.step),
            (Some(a), None) => a.step,
            (None, Some(b)) => b.step,
            (None, None) => unreachable!("divergence with two exhausted streams"),
        };
        Some(Divergence {
            index: common_prefix,
            step,
            faulty: f,
            golden: g,
        })
    };
    GoldenDiff {
        seed: dump.seed,
        scenario: dump.scenario.clone(),
        faulty_outcome: dump.outcome,
        golden_outcome: golden_trial.outcome,
        faulty_dropped: dump.dropped,
        golden_dropped: golden_dump.dropped,
        common_prefix,
        divergence,
        faulty_suffix: faulty[common_prefix..].to_vec(),
        golden_suffix: golden[common_prefix..].to_vec(),
    }
}

fn write_event(f: &mut fmt::Formatter<'_>, event: &TraceEvent) -> fmt::Result {
    write!(f, "{} step={}", event.kind.name(), event.step)?;
    if event.cpu != NO_CPU {
        write!(f, " cpu={}", event.cpu)?;
    }
    write!(f, " a={:#x} b={:#x}", event.arg_a, event.arg_b)
}

impl fmt::Display for GoldenDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "golden-diff {} seed {}: {} (faulty) vs {} (fault-free)",
            self.scenario, self.seed, self.faulty_outcome, self.golden_outcome
        )?;
        if self.faulty_dropped > 0 || self.golden_dropped > 0 {
            writeln!(
                f,
                "  warning: ring truncation (faulty dropped {}, golden dropped {}) — prefix alignment is unreliable",
                self.faulty_dropped, self.golden_dropped
            )?;
        }
        let Some(divergence) = &self.divergence else {
            return writeln!(
                f,
                "  streams identical over {} events: no observable propagation",
                self.common_prefix
            );
        };
        writeln!(
            f,
            "  first divergence at event {} (step {}), after {} identical events:",
            divergence.index, divergence.step, self.common_prefix
        )?;
        match &divergence.faulty {
            Some(event) => {
                write!(f, "    faulty: ")?;
                write_event(f, event)?;
                writeln!(f)?;
            }
            None => writeln!(f, "    faulty: <stream ended>")?,
        }
        match &divergence.golden {
            Some(event) => {
                write!(f, "    golden: ")?;
                write_event(f, event)?;
                writeln!(f)?;
            }
            None => writeln!(f, "    golden: <stream ended>")?,
        }
        writeln!(
            f,
            "  divergent suffix: {} faulty events vs {} golden events",
            self.faulty_suffix.len(),
            self.golden_suffix.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certify_core::Campaign;

    /// An E3 seed known to classify anomalously in a short sweep —
    /// found by scanning; asserted below, so a classifier change that
    /// invalidates it fails loudly here rather than silently testing
    /// nothing.
    fn anomalous_dump(scenario: &Scenario) -> TraceDump {
        let config = TraceConfig::new().with_policy(DumpPolicy::all_outcomes());
        for seed in 0..64u64 {
            let (trial, dump) = scenario.runner().run_trial_traced(seed, Some(&config));
            if trial.outcome != Outcome::Correct {
                return dump.unwrap();
            }
        }
        panic!("no anomalous trial in the first 64 seeds");
    }

    #[test]
    fn fault_free_twin_matches_itself() {
        let scenario = Scenario::golden(800);
        let config = TraceConfig::new().with_policy(DumpPolicy::all_outcomes());
        let (_, dump) = scenario.runner().run_trial_traced(5, Some(&config));
        let diff = golden_diff(&scenario, &dump.unwrap(), &config);
        assert!(diff.divergence.is_none(), "{diff}");
        assert_eq!(diff.golden_outcome, Outcome::Correct);
    }

    #[test]
    fn faulty_trial_diverges_and_reports_the_first_step() {
        let scenario = Scenario::e3_fig3();
        let dump = anomalous_dump(&scenario);
        let config = TraceConfig::default();
        let diff = golden_diff(&scenario, &dump, &config);
        assert!(diff.divergence.is_some(), "anomalous trial did not diverge");
        let divergence = diff.divergence.as_ref().unwrap();
        // The injection window opens once the trap stream reaches the
        // spec's cadence — the first divergence cannot precede boot.
        assert!(divergence.step > 0);
        assert!(!diff.faulty_suffix.is_empty());
        let rendered = diff.to_string();
        assert!(rendered.contains("first divergence"), "{rendered}");
    }

    #[test]
    fn sdc_diff_pinpoints_the_injection_step() {
        // The acceptance case: on a known silent-data-corruption seed
        // (E6 comm-state corruption, seed 0 — asserted, so a
        // classifier change fails loudly), with untruncated streams
        // on both sides, the first divergence must be the memory
        // injection itself — the diff names the exact step the fault
        // entered the system.
        use certify_core::memfault::{MemFaultModel, MemTarget};
        use certify_obs::trace::TraceKind;

        let scenario = Scenario::e6_memory(MemFaultModel::CommStateCorrupt, MemTarget::e6());
        let config = TraceConfig::new()
            .with_capacity(1 << 16)
            .with_policy(DumpPolicy::all_outcomes());
        let (trial, dump) = scenario.runner().run_trial_traced(0, Some(&config));
        assert_eq!(
            trial.outcome,
            Outcome::SilentDataCorruption,
            "seed 0 must classify as SDC for this pin to mean anything"
        );
        let diff = golden_diff(&scenario, &dump.unwrap(), &config);
        assert_eq!(diff.faulty_dropped, 0, "faulty stream truncated");
        assert_eq!(diff.golden_dropped, 0, "golden stream truncated");
        let divergence = diff.divergence.as_ref().expect("SDC trial must diverge");
        let faulty = divergence.faulty.as_ref().expect("faulty side present");
        assert_eq!(
            faulty.kind,
            TraceKind::MemInjectionApplied,
            "first divergence must be the injection itself:\n{diff}"
        );
    }

    #[test]
    fn diff_is_deterministic() {
        let scenario = Scenario::e3_fig3();
        let dump = anomalous_dump(&scenario);
        let config = TraceConfig::default();
        assert_eq!(
            golden_diff(&scenario, &dump, &config),
            golden_diff(&scenario, &dump, &config)
        );
    }

    #[test]
    fn campaign_dumps_feed_the_diff() {
        // End-to-end: a traced campaign delivers dumps whose diff
        // pinpoints a divergence.
        let scenario = Scenario::e3_fig3();
        let config = TraceConfig::new().with_policy(DumpPolicy::all_outcomes());
        let campaign = Campaign::new(scenario.clone(), 2, 0).with_trace(config.clone());
        let mut sink = certify_core::CollectSink::new();
        campaign.execute(.., 1, &mut sink, None);
        let (_, dumps) = sink.into_parts();
        assert_eq!(dumps.len(), 2, "all-outcomes policy dumps every trial");
        for (_, dump) in &dumps {
            let diff = golden_diff(&scenario, dump, &config);
            assert_eq!(diff.golden_outcome, Outcome::Correct);
        }
    }
}
