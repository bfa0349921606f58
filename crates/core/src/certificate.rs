//! Scenario certificates and runtime conformance checking.
//!
//! A [`ScenarioCertificate`] is the *output* of the pre-flight
//! abstract interpreter in `certify_lint::interp`: a sound
//! over-approximation of what a scenario's trials can do — which
//! [`Outcome`]s are reachable, how many injections each injector can
//! spend, and which memory regions applied faults may land in. The
//! types live here (not in the lint crate) because the runtime side
//! consumes them: [`crate::Campaign::execute`] debug-asserts every
//! delivered trial against an attached certificate in every mode, the
//! [`ConformanceMonitor`] sink wrapper enforces it in release builds,
//! and the shard handshake pins its [`ScenarioCertificate::fingerprint`]
//! so coordinator and workers provably certified the same scenario.
//!
//! The soundness contract is one-directional: the certificate's
//! predictions are supersets of runtime behaviour (predicted outcomes
//! ⊇ observed outcomes, certified budgets ≥ observed counts, tracked
//! regions ⊇ hit regions). A violation therefore always means the
//! *certificate* and the *engine* disagree about the scenario's
//! semantics — a bug, never noise — which is what makes it safe to
//! enforce with assertions.

use crate::campaign::TrialResult;
use crate::classify::Outcome;
use crate::codec::{encode_to_vec, fingerprint};
use crate::memfault::MemRegionKind;
use crate::sink::TrialSink;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Per-phase bounds derived from one armed stretch of a run: either an
/// injection window, or the whole step horizon for an unwindowed spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseBound {
    /// First step (inclusive) of the phase.
    pub start: u64,
    /// First step (exclusive) past the phase (clamped to the horizon).
    pub end: u64,
    /// Upper bound on filtered handler calls the phase can observe.
    pub max_handler_calls: u64,
    /// Upper bound on injections the phase can fire.
    pub max_injections: u64,
}

/// The pre-flight certificate for one scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioCertificate {
    /// The certified scenario's name.
    pub scenario_name: String,
    /// Whether the script can reach a `CreateCell` — the derived
    /// topology contains the non-root cell (and its comm region and
    /// stage-2 table) only if it can.
    pub cell_reachable: bool,
    /// Steps the script consumes before going quiet, capped at the
    /// scenario's step budget, or `None` when it loops forever.
    pub script_steps: Option<u64>,
    /// Sound over-approximation of the reachable outcome set.
    pub outcomes: BTreeSet<Outcome>,
    /// Register-injection budget (`None` when the scenario has no
    /// register spec; an attached injector then implies zero budget).
    pub reg_budget: Option<u64>,
    /// Memory-injection budget (`None` when there is no memory spec).
    pub mem_budget: Option<u64>,
    /// Regions an applied memory fault may record.
    pub tracked_regions: BTreeSet<MemRegionKind>,
    /// Per-phase call/injection bounds for the register injector.
    pub reg_phases: Vec<PhaseBound>,
    /// Per-phase call/injection bounds for the memory injector.
    pub mem_phases: Vec<PhaseBound>,
}

impl ScenarioCertificate {
    /// FNV-1a-64 over the certificate's wire encoding — the value the
    /// shard handshake carries so a worker can prove it re-derived the
    /// same certificate the coordinator dispatched.
    pub fn fingerprint(&self) -> u64 {
        fingerprint(&encode_to_vec(self))
    }

    /// Checks one finished trial against the certificate, returning
    /// every conformance violation found (empty = conformant).
    pub fn check_trial(&self, trial: &TrialResult) -> Vec<ConformanceViolation> {
        let mut violations = Vec::new();
        if !self.outcomes.contains(&trial.outcome) {
            violations.push(ConformanceViolation::UnpredictedOutcome {
                seed: trial.seed,
                outcome: trial.outcome,
            });
        }
        let reg_budget = self.reg_budget.unwrap_or(0);
        if trial.injection_count as u64 > reg_budget {
            violations.push(ConformanceViolation::RegBudgetExceeded {
                seed: trial.seed,
                observed: trial.injection_count as u64,
                budget: reg_budget,
            });
        }
        let mem_budget = self.mem_budget.unwrap_or(0);
        if trial.mem_injection_count as u64 > mem_budget {
            violations.push(ConformanceViolation::MemBudgetExceeded {
                seed: trial.seed,
                observed: trial.mem_injection_count as u64,
                budget: mem_budget,
            });
        }
        for record in &trial.report.mem_injections {
            let Ok(fault) = record.outcome else {
                continue;
            };
            if !self.tracked_regions.contains(&fault.region) {
                violations.push(ConformanceViolation::UntrackedRegion {
                    seed: trial.seed,
                    region: fault.region,
                });
            }
        }
        violations
    }
}

impl fmt::Display for ScenarioCertificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "certificate[{}]: outcomes {{", self.scenario_name)?;
        for (i, outcome) in self.outcomes.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{outcome}")?;
        }
        f.write_str("}")?;
        if let Some(budget) = self.reg_budget {
            write!(f, ", reg budget {budget}")?;
        }
        if let Some(budget) = self.mem_budget {
            write!(f, ", mem budget {budget}")?;
        }
        match self.script_steps {
            Some(steps) => write!(f, ", script {steps} steps"),
            None => f.write_str(", script loops"),
        }
    }
}

/// One way a trial disagreed with its scenario's certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConformanceViolation {
    /// The trial classified to an outcome outside the predicted set.
    UnpredictedOutcome {
        /// The trial's seed.
        seed: u64,
        /// The unpredicted outcome.
        outcome: Outcome,
    },
    /// More register injections fired than the certified budget.
    RegBudgetExceeded {
        /// The trial's seed.
        seed: u64,
        /// Observed injection count.
        observed: u64,
        /// The certified budget.
        budget: u64,
    },
    /// More memory injections applied than the certified budget.
    MemBudgetExceeded {
        /// The trial's seed.
        seed: u64,
        /// Observed applied-injection count.
        observed: u64,
        /// The certified budget.
        budget: u64,
    },
    /// An applied memory fault landed in a region the certificate does
    /// not track.
    UntrackedRegion {
        /// The trial's seed.
        seed: u64,
        /// The untracked region that was hit.
        region: MemRegionKind,
    },
}

impl fmt::Display for ConformanceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConformanceViolation::UnpredictedOutcome { seed, outcome } => {
                write!(f, "trial {seed}: outcome '{outcome}' not in predicted set")
            }
            ConformanceViolation::RegBudgetExceeded {
                seed,
                observed,
                budget,
            } => write!(
                f,
                "trial {seed}: {observed} register injection(s) exceed budget {budget}"
            ),
            ConformanceViolation::MemBudgetExceeded {
                seed,
                observed,
                budget,
            } => write!(
                f,
                "trial {seed}: {observed} memory injection(s) exceed budget {budget}"
            ),
            ConformanceViolation::UntrackedRegion { seed, region } => {
                write!(
                    f,
                    "trial {seed}: applied fault hit untracked region {region}"
                )
            }
        }
    }
}

/// Cap on violations a monitor stores verbatim; later ones are only
/// counted. A conformant campaign stores nothing, and a broken
/// certificate over millions of trials must not balloon memory.
const MAX_STORED_VIOLATIONS: usize = 128;

/// A [`TrialSink`] wrapper that checks every delivered trial against a
/// scenario certificate before forwarding it — the release-build
/// (shard-worker) enforcement of the conformance contract the
/// in-process engine debug-asserts.
#[derive(Debug)]
pub struct ConformanceMonitor<S> {
    certificate: Arc<ScenarioCertificate>,
    inner: S,
    violations: Vec<ConformanceViolation>,
    violations_total: u64,
}

impl<S> ConformanceMonitor<S> {
    /// Wraps `inner`, checking each trial against `certificate`.
    pub fn new(certificate: Arc<ScenarioCertificate>, inner: S) -> ConformanceMonitor<S> {
        ConformanceMonitor {
            certificate,
            inner,
            violations: Vec::new(),
            violations_total: 0,
        }
    }

    /// Violations recorded so far (capped; see
    /// [`ConformanceMonitor::violations_total`]).
    pub fn violations(&self) -> &[ConformanceViolation] {
        &self.violations
    }

    /// Total violations observed, including any past the storage cap.
    pub fn violations_total(&self) -> u64 {
        self.violations_total
    }

    /// The certificate being enforced.
    pub fn certificate(&self) -> &ScenarioCertificate {
        &self.certificate
    }

    /// Unwraps the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: TrialSink> TrialSink for ConformanceMonitor<S> {
    fn accept(&mut self, seq: usize, trial: TrialResult) {
        let found = self.certificate.check_trial(&trial);
        self.violations_total += found.len() as u64;
        let room = MAX_STORED_VIOLATIONS.saturating_sub(self.violations.len());
        self.violations.extend(found.into_iter().take(room));
        self.inner.accept(seq, trial);
    }

    fn accept_dump(&mut self, seq: usize, dump: crate::trace::TraceDump) {
        self.inner.accept_dump(seq, dump);
    }

    fn accept_trace_prefix(&mut self, prefix: &certify_obs::trace::FlightRecorder) {
        self.inner.accept_trace_prefix(prefix);
    }

    fn bytes_written(&self) -> Option<u64> {
        self.inner.bytes_written()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, Scenario};
    use crate::sink::CollectSink;

    fn permissive(name: &str) -> ScenarioCertificate {
        ScenarioCertificate {
            scenario_name: name.into(),
            cell_reachable: true,
            script_steps: Some(10_000),
            outcomes: Outcome::ALL.into_iter().collect(),
            reg_budget: Some(u64::MAX),
            mem_budget: Some(u64::MAX),
            tracked_regions: MemRegionKind::ALL.into_iter().collect(),
            reg_phases: Vec::new(),
            mem_phases: Vec::new(),
        }
    }

    fn sample_trial() -> TrialResult {
        let campaign = Campaign::new(Scenario::e3_fig3(), 1, 42);
        let mut sink = CollectSink::new();
        campaign.execute(.., 1, &mut sink, None);
        sink.into_trials().into_iter().next().expect("one trial")
    }

    #[test]
    fn permissive_certificate_accepts_everything() {
        let trial = sample_trial();
        let cert = permissive("e3-fig3-medium");
        assert!(cert.check_trial(&trial).is_empty());
    }

    #[test]
    fn unpredicted_outcome_is_reported() {
        let trial = sample_trial();
        let mut cert = permissive("e3-fig3-medium");
        cert.outcomes.remove(&trial.outcome);
        let violations = cert.check_trial(&trial);
        assert_eq!(violations.len(), 1);
        assert!(matches!(
            violations[0],
            ConformanceViolation::UnpredictedOutcome { .. }
        ));
        assert!(violations[0].to_string().contains("not in predicted set"));
    }

    #[test]
    fn exceeded_budgets_are_reported() {
        let trial = sample_trial();
        assert!(trial.injection_count > 0, "e3 trial should inject");
        let mut cert = permissive("e3-fig3-medium");
        cert.reg_budget = Some(0);
        cert.mem_budget = None; // no mem spec: zero tolerance, zero observed
        let violations = cert.check_trial(&trial);
        assert_eq!(violations.len(), 1);
        assert!(matches!(
            violations[0],
            ConformanceViolation::RegBudgetExceeded { budget: 0, .. }
        ));
    }

    #[test]
    fn untracked_region_is_reported() {
        use crate::memfault::{MemFaultModel, MemTarget};
        let scenario = Scenario::e6_memory(
            MemFaultModel::SingleBitFlip,
            MemTarget::only(MemRegionKind::NonRootRam),
        );
        let campaign = Campaign::new(scenario, 1, 7);
        let mut sink = CollectSink::new();
        campaign.execute(.., 1, &mut sink, None);
        let trials = sink.into_trials();
        let trial = &trials[0];
        assert!(trial.mem_injection_count > 0, "trial should apply faults");
        let mut cert = permissive("e6");
        cert.tracked_regions.remove(&MemRegionKind::NonRootRam);
        let violations = cert.check_trial(trial);
        assert!(!violations.is_empty());
        assert!(violations
            .iter()
            .all(|v| matches!(v, ConformanceViolation::UntrackedRegion { .. })));
    }

    #[test]
    fn monitor_forwards_trials_and_collects_violations() {
        let mut strict = permissive("e3-fig3-medium");
        strict.reg_budget = Some(0);
        let cert = Arc::new(strict);
        let mut monitor = ConformanceMonitor::new(Arc::clone(&cert), CollectSink::default());
        let trial = sample_trial();
        monitor.accept(0, trial.clone());
        assert_eq!(monitor.violations_total(), 1);
        assert_eq!(monitor.violations().len(), 1);
        let inner = monitor.into_inner();
        assert_eq!(inner.into_trials().len(), 1, "trial still forwarded");

        let mut conformant = ConformanceMonitor::new(
            Arc::new(permissive("e3-fig3-medium")),
            CollectSink::default(),
        );
        conformant.accept(0, trial);
        assert_eq!(conformant.violations_total(), 0);
        assert!(conformant.violations().is_empty());
    }

    #[test]
    fn violation_storage_is_capped_but_counted() {
        let mut strict = permissive("e3-fig3-medium");
        strict.reg_budget = Some(0);
        let mut monitor = ConformanceMonitor::new(Arc::new(strict), crate::sink::NullSink);
        let trial = sample_trial();
        for seq in 0..(MAX_STORED_VIOLATIONS + 10) {
            monitor.accept(seq, trial.clone());
        }
        assert_eq!(monitor.violations().len(), MAX_STORED_VIOLATIONS);
        assert_eq!(
            monitor.violations_total(),
            (MAX_STORED_VIOLATIONS + 10) as u64
        );
    }

    #[test]
    fn fingerprint_is_stable_and_shape_sensitive() {
        let a = permissive("x");
        let b = permissive("x");
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = permissive("x");
        c.reg_budget = Some(1);
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = permissive("x");
        d.outcomes.remove(&Outcome::Correct);
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn display_summarizes_the_certificate() {
        let cert = permissive("e1");
        let text = cert.to_string();
        assert!(text.contains("certificate[e1]"), "{text}");
        assert!(text.contains("correct"), "{text}");
        let mut looping = cert;
        looping.script_steps = None;
        assert!(looping.to_string().contains("script loops"));
    }
}
