//! Byte-stability of the `certify-lint --json` report.
//!
//! The JSON report is the machine-readable surface CI and tooling
//! parse; its shape and byte-level rendering must not drift by
//! accident. A doctored scenario that trips both the spec analyzer
//! (warning) and the certificate interpreter (error) is rendered
//! through the same `report_to_json` the binary uses, and compared
//! byte-for-byte against a committed fixture.

use certify_core::spec::InjectionWindow;
use certify_core::Scenario;
use certify_lint::{certify_scenario, lint_scenario, report_to_json, PassReport};

/// The committed golden rendering (exactly what the binary prints,
/// including the trailing newline).
const GOLDEN: &str = include_str!("fixtures/report.json.golden");

/// E3 doctored to produce deterministic findings in two passes: a
/// zero injection cap (spec warning) and a window too short for one
/// fire at E3's cadence (certificate error).
fn doctored_scenario() -> Scenario {
    let mut scenario = Scenario::e3_fig3();
    let spec = scenario.spec.as_mut().unwrap();
    spec.cadence.max_injections = Some(0);
    spec.cadence.windows = vec![InjectionWindow::new(0, 2)];
    scenario
}

fn render_report() -> String {
    let scenario = doctored_scenario();
    let reports = vec![
        PassReport {
            pass: "specs",
            diagnostics: lint_scenario(&scenario),
        },
        PassReport {
            pass: "certify",
            diagnostics: certify_scenario(&scenario).1,
        },
    ];
    format!("{}\n", report_to_json(&reports).render())
}

#[test]
fn json_report_rendering_is_byte_stable() {
    let rendered = render_report();
    assert!(
        rendered.contains("cert-zero-budget") && rendered.contains("spec-zero-injection-cap"),
        "the doctored scenario no longer trips both passes:\n{rendered}"
    );
    assert_eq!(
        rendered, GOLDEN,
        "JSON report drifted from tests/fixtures/report.json.golden; \
         if the change is deliberate, update the fixture to:\n{rendered}"
    );
}

#[test]
fn json_report_is_deterministic_across_renders() {
    assert_eq!(render_report(), render_report());
}
