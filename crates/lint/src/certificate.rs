//! The certificate builder — pass four of `certify-lint`.
//!
//! [`certify_scenario`] runs the script abstract interpreter
//! ([`crate::interp`]) and derives a
//! [`certify_core::ScenarioCertificate`]: the derived cell/memory
//! topology, a sound over-approximation of the reachable
//! [`Outcome`] set, global and per-phase injection budgets, and the
//! fault-target footprint — plus whole-scenario `cert-*` diagnostics
//! the interpreter alone cannot see (monitor without a heartbeat,
//! cell-backed regions with no cell, windows the script never
//! survives to, provably-zero budgets).
//!
//! # The soundness contract
//!
//! For a scenario whose certificate carries **no diagnostics**, every
//! trial of every seed satisfies:
//!
//! * the observed outcome is a member of the predicted set;
//! * the register-injection count is at most the register budget;
//! * the memory-injection count is at most the memory budget;
//! * every applied memory fault lands in a tracked region.
//!
//! Predictions are over-approximations: the certificate may predict
//! outcomes no seed produces, and budgets are upper bounds derived
//! from the cadence arithmetic of the concrete injectors (a fire needs
//! `rate` filtered calls; a step produces at most
//! [`crate::MAX_HANDLER_CALLS_PER_STEP`] calls per eligible CPU;
//! phase jitter shifts, never shrinks, the cadence). The runtime side —
//! [`certify_core::ConformanceMonitor`] and the sharded worker —
//! enforces the contract trial by trial.

use crate::diagnostic::{Code, Diagnostic};
use crate::interp::interpret_script;
use crate::spec::LintContext;
use certify_core::campaign::Scenario;
use certify_core::certificate::{PhaseBound, ScenarioCertificate};
use certify_core::classify::Outcome;
use certify_core::memfault::{FaultPath, MemRegionKind};
use certify_core::spec::{Cadence, InjectionWindow};
use std::collections::BTreeSet;

/// Upper bound on injections a cadence can fire given at most `calls`
/// filtered handler calls. Without jitter the counter starts at zero
/// and fires on every multiple of `rate`; with jitter it starts at a
/// phase in `[0, rate)`, which can only pull the first fire earlier —
/// `ceil` absorbs that.
fn fires_bound(calls: u64, rate: u64, jitter: bool) -> u64 {
    if rate == 0 {
        return 0; // spec-zero-rate is already an error; the engine rejects it
    }
    if jitter {
        calls.div_ceil(rate)
    } else {
        calls / rate
    }
}

/// Budget and per-phase bounds for one injector domain (register or
/// memory — the cadence arithmetic is shared).
struct DomainBounds {
    budget: u64,
    /// The budget before `max_injections` caps it. A zero here means
    /// the *cadence itself* can never fire — an error — whereas an
    /// explicit zero cap is the existing warning-level
    /// `spec-zero-injection-cap` finding.
    uncapped: u64,
    phases: Vec<PhaseBound>,
}

/// The bounds of `cadence` over `ctx`'s horizon and CPUs.
fn cadence_bounds(ctx: LintContext, cadence: &Cadence) -> DomainBounds {
    let Cadence {
        rate,
        phase_jitter: jitter,
        max_injections,
        ref windows,
        ..
    } = *cadence;
    let steps = ctx.steps;
    let per_step_calls = ctx.calls_per_step(cadence.cpu_filter.is_some());
    let capacity = ctx.call_capacity(cadence.cpu_filter.is_some());
    // Fires inside a window are numbered at most by the total calls
    // accumulated by its end.
    let window_fires = |end: u64| fires_bound(end.saturating_mul(per_step_calls), rate, jitter);

    let mut uncapped = fires_bound(capacity, rate, jitter);
    if !windows.is_empty() {
        uncapped = uncapped.min(
            ctx.live_windows(windows)
                .map(|(_, end, _)| window_fires(end))
                .sum(),
        );
    }
    let mut budget = uncapped;
    if let Some(cap) = max_injections {
        budget = budget.min(cap);
    }

    let phases = if windows.is_empty() {
        if steps == 0 {
            Vec::new()
        } else {
            vec![PhaseBound {
                start: 0,
                end: steps,
                max_handler_calls: capacity,
                max_injections: budget,
            }]
        }
    } else {
        ctx.live_windows(windows)
            .map(|(start, end, _)| PhaseBound {
                start,
                end,
                max_handler_calls: (end - start).saturating_mul(per_step_calls),
                max_injections: window_fires(end).min(budget),
            })
            .collect()
    };

    DomainBounds {
        budget,
        uncapped,
        phases,
    }
}

/// Whether a region is backed by the non-root cell in the derived
/// topology: faults there are physically applicable, but with no cell
/// in the scenario nothing ever reads the corrupted memory.
fn region_is_cell_backed(region: MemRegionKind) -> bool {
    matches!(
        region,
        MemRegionKind::NonRootRam
            | MemRegionKind::CommRegion
            | MemRegionKind::Stage2Tables
            | MemRegionKind::Ivshmem
    )
}

/// Abstractly interpret `scenario` and derive its pre-flight
/// certificate plus any `cert-*` diagnostics.
///
/// The certificate is always produced — for a scenario with
/// error-severity diagnostics it is still well-formed, but the
/// soundness contract (see the module docs) is only promised when the
/// diagnostic list is clean.
pub fn certify_scenario(scenario: &Scenario) -> (ScenarioCertificate, Vec<Diagnostic>) {
    let (facts, mut diagnostics) = interpret_script(&scenario.script);
    let ctx = LintContext::for_scenario(scenario);

    if facts.monitor_reachable && !scenario.rtos_heartbeat {
        diagnostics.push(Diagnostic::new(
            Code::CertMonitorWithoutHeartbeat,
            "script",
            "the script runs the heartbeat monitor but rtos_heartbeat is off: every \
             monitored window is a guaranteed alarm",
        ));
    }

    let mut outcomes = BTreeSet::new();
    outcomes.insert(Outcome::Correct);
    // The classifier's invalid-arguments branch needs a failed
    // enable/create in the management record.
    let mgmt_refusal_possible = facts.enable_reachable || facts.cell_reachable;

    let mut reg_budget = None;
    let mut reg_phases = Vec::new();
    if let Some(spec) = &scenario.spec {
        let bounds = cadence_bounds(ctx, &spec.cadence);
        if bounds.uncapped == 0 {
            diagnostics.push(Diagnostic::new(
                Code::CertZeroBudget,
                "spec",
                "the certified register-injection budget is zero: no cadence fire \
                 fits the horizon, windows and cap",
            ));
        }
        check_script_outlives_windows(ctx, &facts, &spec.cadence.windows, "spec", &mut diagnostics);
        reg_budget = Some(bounds.budget);
        reg_phases = bounds.phases;
        outcomes.extend([
            Outcome::PanicPark,
            Outcome::InconsistentState,
            Outcome::CpuPark,
        ]);
        if mgmt_refusal_possible {
            outcomes.insert(Outcome::InvalidArguments);
        }
    }

    let mut mem_budget = None;
    let mut mem_phases = Vec::new();
    let mut tracked_regions = BTreeSet::new();
    if let Some(mem) = &scenario.mem_spec {
        let bounds = cadence_bounds(ctx, &mem.cadence);
        if bounds.uncapped == 0 {
            diagnostics.push(Diagnostic::new(
                Code::CertZeroBudget,
                "mem_spec",
                "the certified memory-injection budget is zero: no cadence fire fits \
                 the horizon, windows and cap",
            ));
        }
        check_script_outlives_windows(
            ctx,
            &facts,
            &mem.cadence.windows,
            "mem_spec",
            &mut diagnostics,
        );
        mem_budget = Some(bounds.budget);
        mem_phases = bounds.phases;

        for (index, &region) in mem.target.regions().iter().enumerate() {
            tracked_regions.insert(region);
            if region_is_cell_backed(region) && !facts.cell_reachable {
                diagnostics.push(Diagnostic::new(
                    Code::CertRegionUnmapped,
                    format!("mem_spec.target.regions[{index}]"),
                    format!(
                        "{region:?} is cell-backed in the derived topology but the \
                         script never creates the cell: corruption there is \
                         unobservable"
                    ),
                ));
            }
        }
        let takes_path = |path| {
            mem.target
                .regions()
                .iter()
                .any(|&region| mem.model.path(region) == path)
        };
        if takes_path(FaultPath::CommState) {
            // The comm-state path always lands in the comm region,
            // whatever the sampler says.
            tracked_regions.insert(MemRegionKind::CommRegion);
        }

        outcomes.extend([
            Outcome::PanicPark,
            Outcome::InconsistentState,
            Outcome::CpuPark,
            Outcome::SilentDataCorruption,
        ]);
        if mgmt_refusal_possible {
            outcomes.insert(Outcome::InvalidArguments);
        }
        if takes_path(FaultPath::Descriptor) {
            outcomes.insert(Outcome::TranslationFaultStorm);
        }
    }

    let certificate = ScenarioCertificate {
        scenario_name: scenario.name.clone(),
        cell_reachable: facts.cell_reachable,
        script_steps: if facts.loops {
            None
        } else {
            Some(facts.steps_consumed)
        },
        outcomes,
        reg_budget,
        mem_budget,
        tracked_regions,
        reg_phases,
        mem_phases,
    };
    (certificate, diagnostics)
}

/// Warn when a non-looping script goes quiet before the earliest live
/// window even opens: only idle background traffic can drive the
/// cadence inside the window.
fn check_script_outlives_windows(
    ctx: LintContext,
    facts: &crate::interp::AbstractScript,
    windows: &[InjectionWindow],
    span: &str,
    diagnostics: &mut Vec<Diagnostic>,
) {
    if facts.loops || windows.is_empty() {
        return;
    }
    let Some(earliest) = ctx.live_windows(windows).map(|(start, _, _)| start).min() else {
        return;
    };
    if facts.steps_consumed < earliest {
        diagnostics.push(Diagnostic::new(
            Code::CertScriptEndsBeforeWindow,
            format!("{span}.windows"),
            format!(
                "the script goes quiet around step {} but the earliest live window \
                 opens at {}",
                facts.steps_consumed, earliest
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin_scenarios;
    use crate::spec::MAX_HANDLER_CALLS_PER_STEP;
    use certify_arch::NUM_CPUS;
    use certify_core::memfault::{MemFaultModel, MemTarget};

    fn codes(diagnostics: &[Diagnostic]) -> Vec<Code> {
        diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn every_builtin_scenario_certifies_clean() {
        for scenario in builtin_scenarios() {
            let (certificate, diagnostics) = certify_scenario(&scenario);
            assert!(
                diagnostics.is_empty(),
                "{}: {:?}",
                scenario.name,
                codes(&diagnostics)
            );
            assert!(certificate.outcomes.contains(&Outcome::Correct));
            assert_eq!(certificate.scenario_name, scenario.name);
        }
    }

    #[test]
    fn golden_certificate_predicts_only_correct() {
        let (certificate, _) = certify_scenario(&Scenario::golden(1500));
        assert_eq!(
            certificate.outcomes.iter().copied().collect::<Vec<_>>(),
            vec![Outcome::Correct]
        );
        assert_eq!(certificate.reg_budget, None);
        assert_eq!(certificate.mem_budget, None);
        assert!(certificate.tracked_regions.is_empty());
        assert!(certificate.cell_reachable);
    }

    #[test]
    fn register_budget_follows_the_cadence_arithmetic() {
        // e3: CPU-filtered (1 CPU), rate 100, no windows or cap.
        let scenario = Scenario::e3_fig3();
        let (certificate, _) = certify_scenario(&scenario);
        let capacity = scenario.steps * MAX_HANDLER_CALLS_PER_STEP;
        assert_eq!(certificate.reg_budget, Some(capacity / 100));
        assert_eq!(certificate.reg_phases.len(), 1);
        assert_eq!(certificate.reg_phases[0].max_handler_calls, capacity);
    }

    #[test]
    fn max_injections_caps_the_budget() {
        let (certificate, _) = certify_scenario(&Scenario::e2_boot_window());
        assert_eq!(certificate.reg_budget, Some(1));
    }

    #[test]
    fn windows_shrink_budget_and_phases() {
        let mut scenario = Scenario::e3_fig3();
        let spec = scenario.spec.as_mut().unwrap();
        spec.cadence.windows = vec![
            InjectionWindow::new(0, 1000),
            InjectionWindow::new(2000, u64::MAX),
        ];
        let (certificate, diagnostics) = certify_scenario(&scenario);
        assert!(diagnostics.is_empty(), "{:?}", codes(&diagnostics));
        let phases = &certificate.reg_phases;
        assert_eq!(phases.len(), 2);
        assert_eq!((phases[0].start, phases[0].end), (0, 1000));
        assert_eq!((phases[1].start, phases[1].end), (2000, scenario.steps));
        // Window fires are bounded by calls accumulated by window end.
        assert_eq!(phases[0].max_injections, 1000 * 8 / 100);
        assert!(certificate.reg_budget.unwrap() <= 4500 * 8 / 100);
    }

    #[test]
    fn a_window_too_short_to_fire_is_a_zero_budget_error() {
        let mut scenario = Scenario::e3_fig3();
        scenario.spec.as_mut().unwrap().cadence.windows = vec![InjectionWindow::new(0, 2)];
        let (certificate, diagnostics) = certify_scenario(&scenario);
        assert_eq!(certificate.reg_budget, Some(0));
        assert!(codes(&diagnostics).contains(&Code::CertZeroBudget));
    }

    #[test]
    fn memory_certificates_track_regions_and_predict_storms() {
        let scenario = Scenario::e6_memory(
            MemFaultModel::DescriptorInvalidate,
            MemTarget::only(MemRegionKind::RootRam),
        );
        let (certificate, diagnostics) = certify_scenario(&scenario);
        assert!(diagnostics.is_empty(), "{:?}", codes(&diagnostics));
        assert!(certificate
            .outcomes
            .contains(&Outcome::TranslationFaultStorm));
        assert!(certificate
            .outcomes
            .contains(&Outcome::SilentDataCorruption));
        assert!(certificate
            .tracked_regions
            .contains(&MemRegionKind::RootRam));

        // A plain word model away from the stage-2 tables cannot storm.
        let scenario = Scenario::e6_memory(
            MemFaultModel::SingleBitFlip,
            MemTarget::only(MemRegionKind::RootRam),
        );
        let (certificate, _) = certify_scenario(&scenario);
        assert!(!certificate
            .outcomes
            .contains(&Outcome::TranslationFaultStorm));
    }

    #[test]
    fn comm_state_corrupt_always_tracks_the_comm_region() {
        let scenario = Scenario::e6_memory(
            MemFaultModel::CommStateCorrupt,
            MemTarget::only(MemRegionKind::RootRam),
        );
        let (certificate, _) = certify_scenario(&scenario);
        assert!(certificate
            .tracked_regions
            .contains(&MemRegionKind::CommRegion));
        assert!(certificate
            .tracked_regions
            .contains(&MemRegionKind::RootRam));

        // Its path never writes a descriptor, so even a sample from the
        // stage-2 tables cannot storm.
        let target = MemTarget::only(MemRegionKind::Stage2Tables);
        let scenario = Scenario::e6_memory(MemFaultModel::CommStateCorrupt, target);
        let (certificate, _) = certify_scenario(&scenario);
        assert!(!certificate
            .outcomes
            .contains(&Outcome::TranslationFaultStorm));
    }

    #[test]
    fn cell_backed_regions_without_a_cell_warn() {
        let mut scenario = Scenario::e6_memory(
            MemFaultModel::SingleBitFlip,
            MemTarget::only(MemRegionKind::CommRegion),
        );
        scenario.script = certify_guest_linux::MgmtScript::enable_attempt(10);
        let (certificate, diagnostics) = certify_scenario(&scenario);
        assert!(!certificate.cell_reachable);
        assert!(codes(&diagnostics).contains(&Code::CertRegionUnmapped));
    }

    #[test]
    fn monitor_without_heartbeat_warns() {
        let mut scenario = Scenario::e5b_monitor();
        scenario.rtos_heartbeat = false;
        let (_, diagnostics) = certify_scenario(&scenario);
        assert!(codes(&diagnostics).contains(&Code::CertMonitorWithoutHeartbeat));
    }

    #[test]
    fn scripts_quieter_than_their_windows_warn() {
        let mut scenario = Scenario::e3_fig3();
        scenario.script = certify_guest_linux::MgmtScript::bring_up_and_run(100);
        scenario.spec.as_mut().unwrap().cadence.windows = vec![InjectionWindow::new(3000, 4000)];
        let (_, diagnostics) = certify_scenario(&scenario);
        assert!(codes(&diagnostics).contains(&Code::CertScriptEndsBeforeWindow));
    }

    #[test]
    fn looping_scripts_have_no_step_bound() {
        let (certificate, diagnostics) = certify_scenario(&Scenario::e2_nonroot_high());
        assert!(diagnostics.is_empty(), "{:?}", codes(&diagnostics));
        assert_eq!(certificate.script_steps, None);
    }

    #[test]
    fn unfiltered_specs_use_every_cpu_for_capacity() {
        let mut scenario = Scenario::e3_fig3();
        scenario.spec.as_mut().unwrap().cadence.cpu_filter = None;
        let (certificate, _) = certify_scenario(&scenario);
        assert_eq!(
            certificate.reg_budget,
            Some(scenario.steps * NUM_CPUS as u64 * MAX_HANDLER_CALLS_PER_STEP / 100)
        );
    }

    #[test]
    fn fires_bound_is_monotone_and_jitter_rounds_up() {
        assert_eq!(fires_bound(0, 100, false), 0);
        assert_eq!(fires_bound(99, 100, false), 0);
        assert_eq!(fires_bound(99, 100, true), 1);
        assert_eq!(fires_bound(200, 100, false), 2);
        assert_eq!(fires_bound(200, 100, true), 2);
        assert_eq!(fires_bound(100, 0, true), 0);
    }
}
