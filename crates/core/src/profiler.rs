//! Golden-run profiling: finding the injection points.
//!
//! §III: *"we decided to monitor some golden (fault-free) runs of the
//! hypervisor in order to find preliminary fault injection points.
//! This profiling operation yielded three candidates functions"* —
//! `irqchip_handle_irq()`, `arch_handle_trap()` and
//! `arch_handle_hvc()`. The profiler reruns that methodology: a
//! fault-free system is driven through the full bring-up-and-run
//! workload, per-handler per-CPU activation counts are collected from
//! the hypervisor, and the handlers are ranked.

use crate::system::System;
use certify_arch::CpuId;
use certify_guest_linux::MgmtScript;
use certify_hypervisor::HandlerKind;
use std::fmt;

/// One profile row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileRow {
    /// The handler.
    pub handler: HandlerKind,
    /// Calls observed on CPU 0 (root cell).
    pub cpu0_calls: u64,
    /// Calls observed on CPU 1 (non-root cell).
    pub cpu1_calls: u64,
}

impl ProfileRow {
    /// Total calls across CPUs.
    pub fn total(&self) -> u64 {
        self.cpu0_calls + self.cpu1_calls
    }
}

/// The golden-run profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileReport {
    /// Rows sorted by total activations, descending.
    pub rows: Vec<ProfileRow>,
    /// Steps the golden run executed.
    pub steps: u64,
}

impl ProfileReport {
    /// Handlers with observed activity, most active first — the
    /// "candidate functions" of the paper.
    pub fn candidates(&self) -> Vec<HandlerKind> {
        self.rows
            .iter()
            .filter(|r| r.total() > 0)
            .map(|r| r.handler)
            .collect()
    }

    /// Renders the report as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "golden-run profile over {} steps\n{:<22} {:>10} {:>10} {:>10}\n",
            self.steps, "handler", "cpu0", "cpu1", "total"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<22} {:>10} {:>10} {:>10}\n",
                row.handler.function_name(),
                row.cpu0_calls,
                row.cpu1_calls,
                row.total()
            ));
        }
        out
    }
}

impl fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Runs a fault-free bring-up-and-run workload for `steps` and
/// profiles handler activations.
pub fn profile_golden_run(steps: u64) -> ProfileReport {
    let mut system = System::new(MgmtScript::bring_up_and_run(steps));
    system.run(steps);
    profile_system(&system, steps)
}

/// Profiles an already-run system.
pub fn profile_system(system: &System, steps: u64) -> ProfileReport {
    let mut rows: Vec<ProfileRow> = HandlerKind::ALL
        .into_iter()
        .map(|handler| ProfileRow {
            handler,
            cpu0_calls: system.hv.call_count(handler, CpuId(0)),
            cpu1_calls: system.hv.call_count(handler, CpuId(1)),
        })
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.total()));
    ProfileReport { rows, steps }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_profile_finds_all_three_candidates() {
        let report = profile_golden_run(2500);
        let candidates = report.candidates();
        assert_eq!(candidates.len(), 3, "profile:\n{report}");
        // All three of the paper's functions are present.
        for handler in HandlerKind::ALL {
            assert!(candidates.contains(&handler));
        }
    }

    #[test]
    fn render_contains_function_names() {
        let report = profile_golden_run(1200);
        let text = report.render();
        assert!(text.contains("irqchip_handle_irq"));
        assert!(text.contains("arch_handle_trap"));
        assert!(text.contains("arch_handle_hvc"));
    }

    #[test]
    fn rows_are_sorted_descending() {
        let report = profile_golden_run(1500);
        for pair in report.rows.windows(2) {
            assert!(pair[0].total() >= pair[1].total());
        }
    }
}
