//! Per-experiment reports: paper claim vs. measured behaviour.
//!
//! Each constructor digests the raw campaign/profile results of one
//! experiment into the row EXPERIMENTS.md records: the paper's claim,
//! what the reproduction measured, and whether the *shape* of the
//! claim holds.

use crate::figure::Figure3;
use certify_core::profiler::ProfileReport;
use certify_core::{CampaignStats, Outcome};
use std::fmt;

/// One experiment's paper-vs-measured record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentReport {
    /// Experiment id (`E1`…`E4`).
    pub id: String,
    /// Short title.
    pub title: String,
    /// What the paper reports.
    pub paper_claim: String,
    /// What the reproduction measured.
    pub measured: String,
    /// Whether the claim's shape holds in the measurement.
    pub reproduced: bool,
}

impl ExperimentReport {
    /// E1: high-intensity root-context injections always produce a
    /// clean "invalid arguments" rejection and no allocation.
    ///
    /// All constructors take the online [`CampaignStats`] a streamed
    /// run returns (for a buffered run, use
    /// `CampaignResult::stats()`), so report generation never needs
    /// the per-trial reports resident.
    pub fn e1(stats: &CampaignStats) -> ExperimentReport {
        let total = stats.trials;
        let rejected = stats.count(Outcome::InvalidArguments);
        let injected = stats.injected_trials;
        ExperimentReport {
            id: "E1".into(),
            title: "High intensity, root-cell context".into(),
            paper_claim: "always returns \"invalid arguments\"; the root cell is \
                          not allocated at all (correct, expected fail-stop)"
                .into(),
            measured: format!(
                "{rejected}/{total} trials rejected with invalid arguments \
                 ({injected} trials saw injections)"
            ),
            reproduced: total > 0 && rejected == total && injected == total,
        }
    }

    /// E2: high-intensity CPU-1 injections across the cell-boot window
    /// leave the cell allocated-but-dead while reported running.
    pub fn e2(boot_window: &CampaignStats, full: &CampaignStats) -> ExperimentReport {
        let bw_total = boot_window.trials;
        let bw_inconsistent = boot_window.count(Outcome::InconsistentState);
        let full_inconsistent = full.count(Outcome::InconsistentState);
        ExperimentReport {
            id: "E2".into(),
            title: "High intensity, non-root (CPU 1) context".into(),
            paper_claim: "cell allocated but CPU fails to come online or cell left \
                          non-executable; USART blank; Jailhouse still reports it \
                          running; shutdown returns resources (inconsistent, dangerous)"
                .into(),
            measured: format!(
                "boot-window aligned: {bw_inconsistent}/{bw_total} trials inconsistent; \
                 free-running campaign: {full_inconsistent}/{} trials inconsistent \
                 (remainder isolated CPU parks)",
                full.trials
            ),
            reproduced: bw_total > 0 && bw_inconsistent == bw_total && full_inconsistent > 0,
        }
    }

    /// E3 (Figure 3): medium-intensity trap injections — correct
    /// majority, ~30 % panic park, limited CPU park.
    pub fn e3(stats: &CampaignStats) -> ExperimentReport {
        let figure = Figure3::from_stats(stats);
        let measured = figure
            .rows
            .iter()
            .map(|(o, m, _)| format!("{o} {:.1}%", m * 100.0))
            .collect::<Vec<_>>()
            .join(", ");
        ExperimentReport {
            id: "E3".into(),
            title: "Figure 3: medium intensity, non-root arch_handle_trap".into(),
            paper_claim: "correct majority (~65%), ~30% panic park (fault propagates \
                          to a whole-system kernel panic), limited CPU park (0x24, \
                          fault isolated)"
                .into(),
            measured,
            reproduced: figure.matches_paper_shape(),
        }
    }

    /// E4: golden-run profiling finds the three candidate handlers.
    pub fn e4(profile: &ProfileReport) -> ExperimentReport {
        let candidates = profile.candidates();
        let measured = candidates
            .iter()
            .map(|h| h.function_name().to_string())
            .collect::<Vec<_>>()
            .join(", ");
        ExperimentReport {
            id: "E4".into(),
            title: "Golden-run profiling of injection points".into(),
            paper_claim: "profiling yields three candidate functions: \
                          irqchip_handle_irq, arch_handle_trap, arch_handle_hvc"
                .into(),
            measured: format!("active handlers (desc. activations): {measured}"),
            reproduced: candidates.len() == 3,
        }
    }

    /// E5a (extension): the armed hardware watchdog detects panic-park
    /// outcomes. `stats` must come from the watchdog scenario.
    pub fn e5a(stats: &CampaignStats) -> ExperimentReport {
        let panic_trials = stats.count(Outcome::PanicPark);
        let detected = stats.watchdog_detected;
        let mean_latency = stats.watchdog_mean_latency();
        ExperimentReport {
            id: "E5a".into(),
            title: "Extension: watchdog detection of panic park".into(),
            paper_claim: "future work: mechanisms that detect hypervisor/system \
                          malfunction (paper outlook)"
                .into(),
            measured: format!(
                "{detected}/{panic_trials} panic-park trials detected by the armed \
                 watchdog (mean first expiry at step {mean_latency})"
            ),
            reproduced: panic_trials > 0 && detected == panic_trials,
        }
    }

    /// E5b (extension): the heartbeat safety monitor detects the E2
    /// inconsistent state. `stats` must come from the monitor
    /// scenario.
    pub fn e5b(stats: &CampaignStats) -> ExperimentReport {
        let inconsistent = stats.count(Outcome::InconsistentState);
        let detected = stats.monitor_detected;
        ExperimentReport {
            id: "E5b".into(),
            title: "Extension: heartbeat monitor detection of the inconsistent state".into(),
            paper_claim: "E2's inconsistent state is dangerous precisely because the \
                          operator believes the cell is running; the paper's outlook \
                          asks for detection mechanisms"
                .into(),
            measured: format!(
                "{detected}/{inconsistent} inconsistent-state trials raised a heartbeat alarm"
            ),
            reproduced: inconsistent > 0 && detected == inconsistent,
        }
    }

    /// Renders the report block.
    pub fn render(&self) -> String {
        format!(
            "## {} — {}\n\n* paper: {}\n* measured: {}\n* reproduced: {}\n",
            self.id,
            self.title,
            self.paper_claim,
            self.measured,
            if self.reproduced { "YES" } else { "NO" }
        )
    }
}

impl fmt::Display for ExperimentReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certify_core::campaign::{CampaignResult, TrialResult};
    use certify_core::classify::RunReport;

    fn fake(outcomes: &[(Outcome, usize)], injected: bool) -> CampaignStats {
        let mut trials = Vec::new();
        for (outcome, count) in outcomes {
            for i in 0..*count {
                trials.push(TrialResult {
                    seed: i as u64,
                    outcome: *outcome,
                    injection_count: usize::from(injected),
                    mem_injection_count: 0,
                    report: RunReport {
                        outcome: *outcome,
                        injections: Vec::new(),
                        mem_injections: Vec::new(),
                        notes: Vec::new(),
                        cell_state: None,
                        cpu1_park: None,
                        serial_line_count: 0,
                        watchdog_first_expiry: None,
                        monitor_alarms: 0,
                    },
                });
            }
        }
        CampaignResult {
            scenario_name: "fake".into(),
            trials,
        }
        .stats()
    }

    #[test]
    fn e1_reproduced_only_when_all_reject() {
        let all = fake(&[(Outcome::InvalidArguments, 5)], true);
        assert!(ExperimentReport::e1(&all).reproduced);
        let mixed = fake(
            &[(Outcome::InvalidArguments, 4), (Outcome::Correct, 1)],
            true,
        );
        assert!(!ExperimentReport::e1(&mixed).reproduced);
        let uninjected = fake(&[(Outcome::InvalidArguments, 5)], false);
        assert!(!ExperimentReport::e1(&uninjected).reproduced);
    }

    #[test]
    fn e2_requires_deterministic_boot_window_and_field_sightings() {
        let bw = fake(&[(Outcome::InconsistentState, 10)], true);
        let full = fake(
            &[(Outcome::CpuPark, 30), (Outcome::InconsistentState, 5)],
            true,
        );
        assert!(ExperimentReport::e2(&bw, &full).reproduced);
        let no_sightings = fake(&[(Outcome::CpuPark, 30)], true);
        assert!(!ExperimentReport::e2(&bw, &no_sightings).reproduced);
    }

    #[test]
    fn e3_shape_gate() {
        let good = fake(
            &[
                (Outcome::Correct, 13),
                (Outcome::PanicPark, 6),
                (Outcome::CpuPark, 1),
            ],
            true,
        );
        assert!(ExperimentReport::e3(&good).reproduced);
    }

    #[test]
    fn render_mentions_everything() {
        let report = ExperimentReport {
            id: "E9".into(),
            title: "t".into(),
            paper_claim: "c".into(),
            measured: "m".into(),
            reproduced: true,
        };
        let text = report.render();
        assert!(text.contains("E9"));
        assert!(text.contains("reproduced: YES"));
    }
}
