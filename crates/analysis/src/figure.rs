//! Figure 3 regeneration.
//!
//! The paper's only results figure is a distribution of non-root-cell
//! availability outcomes under medium-intensity injection: a clear
//! majority of *correct* runs, about 30 % *panic park*, and a limited
//! share of *CPU park*. This module renders the measured distribution
//! next to the paper's reported shares, as an aligned table, an ASCII
//! bar chart, and CSV.

use certify_core::campaign::CampaignResult;
use certify_core::{CampaignStats, Outcome};
use std::fmt;

/// The paper's Figure 3 shares (read off the chart): correct ≈ 65 %,
/// panic park ≈ 30 %, CPU park ≈ 5 %.
pub const PAPER_FIG3_SHARES: [(Outcome, f64); 3] = [
    (Outcome::Correct, 0.65),
    (Outcome::PanicPark, 0.30),
    (Outcome::CpuPark, 0.05),
];

/// A regenerated Figure 3.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure3 {
    /// Scenario name.
    pub scenario: String,
    /// Number of trials.
    pub trials: usize,
    /// `(outcome, measured_share, paper_share)` rows.
    pub rows: Vec<(Outcome, f64, Option<f64>)>,
}

impl Figure3 {
    /// Builds the figure data from online campaign statistics — no
    /// per-trial reports needed, so it composes with the streamed
    /// engine (`Campaign::execute`).
    pub fn from_stats(stats: &CampaignStats) -> Figure3 {
        let mut rows = Vec::new();
        for outcome in Outcome::ALL {
            let measured = stats.fraction(outcome);
            let paper = PAPER_FIG3_SHARES
                .iter()
                .find(|(o, _)| *o == outcome)
                .map(|(_, share)| *share);
            if measured > 0.0 || paper.is_some() {
                rows.push((outcome, measured, paper));
            }
        }
        Figure3 {
            scenario: stats.scenario_name.clone(),
            trials: stats.trials,
            rows,
        }
    }

    /// Builds the figure data from a buffered campaign result.
    pub fn from_campaign(result: &CampaignResult) -> Figure3 {
        Figure3::from_stats(&result.stats())
    }

    /// Renders an ASCII bar chart (one `#` per 2 %).
    pub fn render_chart(&self) -> String {
        let mut out = format!(
            "Figure 3 — non-root cell availability ({}, {} trials)\n",
            self.scenario, self.trials
        );
        for (outcome, measured, paper) in &self.rows {
            let bar = "#".repeat((measured * 50.0).round() as usize);
            let paper_note = paper
                .map(|p| format!(" (paper ≈ {:.0}%)", p * 100.0))
                .unwrap_or_default();
            out.push_str(&format!(
                "{:>20} |{:<50}| {:5.1}%{}\n",
                outcome.to_string(),
                bar,
                measured * 100.0,
                paper_note
            ));
        }
        out
    }

    /// Renders CSV: `outcome,measured,paper`.
    pub fn render_csv(&self) -> String {
        let mut out = String::from("outcome,measured_share,paper_share\n");
        for (outcome, measured, paper) in &self.rows {
            out.push_str(&format!(
                "{},{:.4},{}\n",
                outcome,
                measured,
                paper.map(|p| format!("{p:.4}")).unwrap_or_default()
            ));
        }
        out
    }

    /// Whether the measured distribution reproduces the paper's
    /// *shape*: correct is the majority, panic park is second and
    /// substantial, CPU park is a limited share, and the ordering
    /// correct > panic park > CPU park holds.
    pub fn matches_paper_shape(&self) -> bool {
        let share = |o: Outcome| {
            self.rows
                .iter()
                .find(|(outcome, _, _)| *outcome == o)
                .map(|(_, m, _)| *m)
                .unwrap_or(0.0)
        };
        let correct = share(Outcome::Correct);
        let panic = share(Outcome::PanicPark);
        let park = share(Outcome::CpuPark);
        correct > 0.5 && panic > 0.1 && panic < 0.5 && park > 0.0 && park < panic
    }
}

impl fmt::Display for Figure3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_chart())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certify_core::campaign::{CampaignResult, TrialResult};
    use certify_core::classify::RunReport;

    fn fake_result(outcomes: &[(Outcome, usize)]) -> CampaignResult {
        let mut trials = Vec::new();
        let mut seed = 0;
        for (outcome, count) in outcomes {
            for _ in 0..*count {
                trials.push(TrialResult {
                    seed,
                    outcome: *outcome,
                    injection_count: 1,
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
                seed += 1;
            }
        }
        CampaignResult {
            scenario_name: "fake".into(),
            trials,
        }
    }

    #[test]
    fn stats_and_campaign_paths_agree() {
        let result = fake_result(&[
            (Outcome::Correct, 13),
            (Outcome::PanicPark, 6),
            (Outcome::CpuPark, 1),
        ]);
        assert_eq!(
            Figure3::from_campaign(&result),
            Figure3::from_stats(&result.stats())
        );
    }

    #[test]
    fn paper_shares_sum_to_one() {
        let sum: f64 = PAPER_FIG3_SHARES.iter().map(|(_, s)| s).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn figure_rows_track_measured_shares() {
        let result = fake_result(&[
            (Outcome::Correct, 13),
            (Outcome::PanicPark, 6),
            (Outcome::CpuPark, 1),
        ]);
        let fig = Figure3::from_campaign(&result);
        let correct = fig
            .rows
            .iter()
            .find(|(o, _, _)| *o == Outcome::Correct)
            .unwrap();
        assert!((correct.1 - 0.65).abs() < 1e-9);
        assert_eq!(correct.2, Some(0.65));
    }

    #[test]
    fn paper_shape_detection() {
        let good = fake_result(&[
            (Outcome::Correct, 13),
            (Outcome::PanicPark, 6),
            (Outcome::CpuPark, 1),
        ]);
        assert!(Figure3::from_campaign(&good).matches_paper_shape());

        let inverted = fake_result(&[
            (Outcome::Correct, 3),
            (Outcome::PanicPark, 16),
            (Outcome::CpuPark, 1),
        ]);
        assert!(!Figure3::from_campaign(&inverted).matches_paper_shape());
    }

    #[test]
    fn renders_contain_all_rows() {
        let result = fake_result(&[
            (Outcome::Correct, 13),
            (Outcome::PanicPark, 6),
            (Outcome::CpuPark, 1),
        ]);
        let fig = Figure3::from_campaign(&result);
        let chart = fig.render_chart();
        assert!(chart.contains("correct"));
        assert!(chart.contains("panic park"));
        assert!(chart.contains("cpu park"));
        assert!(chart.contains("paper"));
        let csv = fig.render_csv();
        assert_eq!(csv.lines().count(), 1 + fig.rows.len());
    }
}
