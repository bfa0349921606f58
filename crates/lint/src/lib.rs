//! `certify-lint` — static analysis for the fault-injection framework.
//!
//! Campaigns are cheap to *run* but expensive to *trust*: a spec whose
//! injection window never opens, whose rate can never be satisfied, or
//! whose memory target guarantees skipped injections still produces a
//! full campaign of green-looking trials — they just certify nothing.
//! This crate catches those specs (and two adjacent failure classes)
//! before any trial runs, as a library used by the shard coordinator
//! and as the `certify-lint` binary CI runs:
//!
//! * [`spec`] — the **spec analyzer**: resolves a
//!   [`Scenario`] against the
//!   platform memory map, script and trial horizon and diagnoses dead
//!   or overlapping windows, unsatisfiable rates, out-of-range memory
//!   regions, guaranteed-skip targets, phase-locked mixed specs, and
//!   (for `run_sharded`) broken shard partitions;
//! * [`schema`] — the **codec schema auditor**: pins a golden
//!   fingerprint for every [`certify_core::codec`] wire type so a
//!   silent protocol break fails the build;
//! * [`audit`] — the **determinism audit**: a text scan over the
//!   trial-hot-path crates refusing known nondeterminism sources
//!   (`HashMap`, wall clocks, OS entropy, ambient env reads) modulo a
//!   committed allowlist;
//! * [`interp`] + [`certificate`] — the **scenario abstract
//!   interpreter**: symbolically executes the management script and
//!   derives a pre-flight
//!   [`ScenarioCertificate`](certify_core::ScenarioCertificate) — the
//!   reachable-outcome over-approximation, injection budgets and
//!   fault-target footprint the runtime conformance monitor enforces.
//!
//! Every pass emits [`Diagnostic`]s; callers gate on [`has_errors`].
//! The `certify-lint` binary renders them as text or (`--json`)
//! machine-readable JSON and exits non-zero on any error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod certificate;
pub mod diagnostic;
pub mod interp;
pub mod schema;
pub mod spec;

pub use audit::{
    audit_repo, audit_repo_with_allowlist, audit_tree_with_allowlist, FORBIDDEN_TOKENS,
};
pub use certificate::certify_scenario;
pub use diagnostic::{diagnostics_to_json, has_errors, Code, Diagnostic, Severity};
pub use interp::{interpret_script, AbstractScript};
pub use schema::{check_schema, check_schema_against, current_schema, fingerprint, SchemaEntry};
pub use spec::{lint_mem_regions, lint_partition, lint_scenario, MAX_HANDLER_CALLS_PER_STEP};

use certify_core::campaign::Scenario;
use certify_core::json::Json;
use certify_core::memfault::{MemFaultModel, MemRegionKind, MemTarget};

/// One pass's findings, tagged for the `certify-lint` report.
pub struct PassReport {
    /// The pass name (`specs`, `certify`, `schema`, `audit`).
    pub pass: &'static str,
    /// Everything the pass found.
    pub diagnostics: Vec<Diagnostic>,
}

/// The exact JSON object `certify-lint --json` prints for a set of
/// pass reports — kept in the library so its byte stability can be
/// pinned by a golden-file test.
pub fn report_to_json(reports: &[PassReport]) -> Json {
    let total: usize = reports.iter().map(|r| r.diagnostics.len()).sum();
    let failed = reports.iter().any(|r| has_errors(&r.diagnostics));
    Json::obj([
        (
            "passes",
            Json::Arr(
                reports
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("pass", Json::str(r.pass)),
                            ("diagnostics", diagnostics_to_json(&r.diagnostics)),
                            ("errors", Json::Bool(has_errors(&r.diagnostics))),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("total", Json::U64(total as u64)),
        ("failed", Json::Bool(failed)),
    ])
}

/// Every built-in scenario constructor the framework ships — the
/// experiment presets E1–E7 plus the golden run and the full
/// memory-model × region sweep. All of them must lint clean; CI
/// and the table-driven tests run [`lint_scenario`] over this list.
pub fn builtin_scenarios() -> Vec<Scenario> {
    let mut scenarios = vec![
        Scenario::golden(1500),
        Scenario::e1_root_high(),
        Scenario::e2_nonroot_high(),
        Scenario::e2_boot_window(),
        Scenario::e3_fig3(),
        Scenario::e5a_watchdog(),
        Scenario::e5b_monitor(),
        Scenario::e7_mixed(),
    ];
    for model in MemFaultModel::e6_models() {
        scenarios.push(Scenario::e6_memory(model, MemTarget::e6()));
    }
    for &region in &MemRegionKind::ALL {
        scenarios.push(Scenario::e6_memory(
            MemFaultModel::SingleBitFlip,
            MemTarget::only(region),
        ));
    }
    scenarios.push(Scenario::e6_memory(
        MemFaultModel::SingleBitFlip,
        MemTarget::all(),
    ));
    scenarios
}
