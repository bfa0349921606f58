//! Soundness of the abstract interpreter's certificates.
//!
//! The certificate's contract is an over-approximation: every outcome
//! a concrete campaign can produce must be in the predicted set, and
//! no trial may exceed the certified injection budgets. These tests
//! run real campaigns over every built-in scenario behind a
//! `ConformanceMonitor` — and with the certificate attached to the
//! `Campaign` itself, so the engine's debug assertions double-check
//! each trial — and require zero violations. The `#[ignore]`d variant
//! runs 500 trials per scenario; CI runs it in release mode.

use certify_core::{Campaign, ConformanceMonitor, NullSink, Outcome, ScenarioCertificate};
use certify_lint::{builtin_scenarios, certify_scenario};
use std::sync::Arc;

/// Runs `trials` trials of every built-in scenario and asserts the
/// certificate predicted every observed behaviour.
fn assert_certificates_sound(trials: usize, base_seed: u64) {
    for scenario in builtin_scenarios() {
        let name = scenario.name.clone();
        let (certificate, diags) = certify_scenario(&scenario);
        assert!(
            diags.is_empty(),
            "built-in scenario `{name}` must certify clean, got {diags:?}"
        );
        let certificate = Arc::new(certificate);
        let campaign =
            Campaign::new(scenario, trials, base_seed).with_certificate(Arc::clone(&certificate));
        let mut monitor = ConformanceMonitor::new(Arc::clone(&certificate), NullSink);
        let (stats, _) = campaign.execute(.., 1, &mut monitor, None);
        assert_eq!(stats.trials, trials, "scenario `{name}`");
        assert!(
            monitor.violations_total() == 0,
            "scenario `{name}` violated its certificate {} time(s): {:?}",
            monitor.violations_total(),
            monitor.violations()
        );
    }
}

#[test]
fn builtin_certificates_are_sound_on_short_campaigns() {
    assert_certificates_sound(8, 0xC0FF_EE00);
}

/// The full-depth soundness sweep: 500 trials per built-in scenario.
/// Slow in debug builds — run with `cargo test --release -- --ignored`.
#[test]
#[ignore = "500-trial sweep; run in release mode"]
fn builtin_certificates_are_sound_on_long_campaigns() {
    assert_certificates_sound(500, 0xC0FF_EE01);
}

/// A deliberately narrowed E1 certificate: only `Correct` predicted,
/// zero register budget. Every E1 trial violates it.
fn narrowed_e1_certificate() -> (certify_core::Scenario, Arc<ScenarioCertificate>) {
    let scenario = certify_core::Scenario::e1_root_high();
    let (mut certificate, diags) = certify_scenario(&scenario);
    assert!(diags.is_empty());
    certificate.outcomes.clear();
    certificate.outcomes.insert(Outcome::Correct);
    certificate.reg_budget = Some(0);
    (scenario, Arc::new(certificate))
}

/// The monitor is not vacuous: a deliberately narrowed certificate
/// must record violations on a high-rate scenario that demonstrably
/// produces failures.
#[test]
fn narrowed_certificate_is_caught_by_the_monitor() {
    let (scenario, certificate) = narrowed_e1_certificate();
    let mut monitor = ConformanceMonitor::new(certificate, NullSink);
    Campaign::new(scenario, 16, 0xBAD_5EED).execute(.., 1, &mut monitor, None);
    assert!(
        monitor.violations_total() > 0,
        "e1-root-high at 16 trials must trip a narrowed certificate"
    );
}

/// The engine's own debug check holds in every mode: a campaign
/// carrying a narrowed certificate panics on its first delivery,
/// whether it runs on the caller's thread or on worker threads.
#[cfg(debug_assertions)]
#[test]
fn narrowed_certificate_panics_the_engine_at_every_worker_count() {
    let (scenario, certificate) = narrowed_e1_certificate();
    let campaign = Campaign::new(scenario, 8, 0xBAD_5EED).with_certificate(certificate);
    for workers in [1, 4] {
        let payload =
            std::panic::catch_unwind(|| campaign.execute(.., workers, &mut NullSink, None))
                .expect_err("a narrowed certificate must panic the engine");
        let message = payload.downcast::<String>().expect("a formatted panic");
        assert!(
            message.contains("violates the scenario certificate"),
            "workers {workers}: unexpected panic {message:?}"
        );
    }
}
