//! Availability metrics over the parsed serial log.
//!
//! Figure 3 is titled "non-root cell *availability*": the cell counts
//! as available while it keeps producing observable output. This
//! module computes windowed liveness from the log — including the
//! "USART output left completely blank" predicate of experiment E2.

use crate::logparse::{LogEvent, LogSource};
use certify_core::{CampaignStats, Outcome};

/// Campaign-level availability from online statistics: the share of
/// trials whose outcome left the non-root cell observably available —
/// *correct* runs and *silent data corruption* (every observation
/// channel stayed green, so the cell was still producing output; the
/// corruption is latent). Panic park, CPU park, the inconsistent
/// state, translation storms and rejected bring-ups all count as
/// unavailable. Composes with the streamed engine: no per-trial
/// reports needed.
pub fn campaign_availability(stats: &CampaignStats) -> f64 {
    stats.fraction(Outcome::Correct) + stats.fraction(Outcome::SilentDataCorruption)
}

/// Windowed availability of one log source.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilityReport {
    /// The analysed source.
    pub source: LogSource,
    /// Window size in simulator steps.
    pub window: u64,
    /// Observation span `[start, end)`.
    pub start: u64,
    /// End of the observation span.
    pub end: u64,
    /// Per-window event counts.
    pub per_window: Vec<u64>,
}

impl AvailabilityReport {
    /// Computes the report for `source` over `[start, end)` with the
    /// given window size.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `end < start`.
    pub fn compute(
        events: &[(u64, LogEvent)],
        source: LogSource,
        start: u64,
        end: u64,
        window: u64,
    ) -> AvailabilityReport {
        assert!(window > 0, "window must be non-zero");
        assert!(end >= start, "end before start");
        let windows = (end - start).div_ceil(window);
        let mut per_window = vec![0u64; windows as usize];
        for (step, event) in events {
            if *step < start || *step >= end || event.source() != source {
                continue;
            }
            per_window[((step - start) / window) as usize] += 1;
        }
        AvailabilityReport {
            source,
            window,
            start,
            end,
            per_window,
        }
    }

    /// Fraction of windows with at least one event.
    pub fn availability(&self) -> f64 {
        if self.per_window.is_empty() {
            return 0.0;
        }
        let live = self.per_window.iter().filter(|&&c| c > 0).count();
        live as f64 / self.per_window.len() as f64
    }

    /// Total events in the span.
    pub fn total_events(&self) -> u64 {
        self.per_window.iter().sum()
    }

    /// The E2 predicate: completely silent over the whole span.
    pub fn is_blank(&self) -> bool {
        self.total_events() == 0
    }

    /// The longest run of consecutive silent windows.
    pub fn longest_gap_windows(&self) -> usize {
        let mut best = 0;
        let mut current = 0;
        for &count in &self.per_window {
            if count == 0 {
                current += 1;
                best = best.max(current);
            } else {
                current = 0;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logparse::parse_log;

    fn rtos_events(steps: &[u64]) -> Vec<(u64, LogEvent)> {
        let lines: Vec<(u64, String)> = steps
            .iter()
            .map(|&s| (s, "[rtos] blink #32".to_string()))
            .collect();
        parse_log(&lines)
    }

    #[test]
    fn full_availability_when_every_window_has_output() {
        let events = rtos_events(&[5, 15, 25, 35]);
        let report = AvailabilityReport::compute(&events, LogSource::Rtos, 0, 40, 10);
        assert_eq!(report.per_window, vec![1, 1, 1, 1]);
        assert!((report.availability() - 1.0).abs() < f64::EPSILON);
        assert!(!report.is_blank());
        assert_eq!(report.longest_gap_windows(), 0);
    }

    #[test]
    fn blank_log_is_blank() {
        let events = rtos_events(&[]);
        let report = AvailabilityReport::compute(&events, LogSource::Rtos, 0, 100, 10);
        assert!(report.is_blank());
        assert_eq!(report.availability(), 0.0);
        assert_eq!(report.longest_gap_windows(), 10);
    }

    #[test]
    fn gap_detection_finds_the_silent_stretch() {
        let events = rtos_events(&[5, 15, 65, 75]);
        let report = AvailabilityReport::compute(&events, LogSource::Rtos, 0, 80, 10);
        // Windows: 1 1 0 0 0 0 1 1
        assert_eq!(report.longest_gap_windows(), 4);
        assert!((report.availability() - 0.5).abs() < f64::EPSILON);
    }

    #[test]
    fn other_sources_are_filtered_out() {
        let lines = vec![
            (5, "[linux] Booting Linux on physical CPU 0x0".to_string()),
            (6, "[rtos] blink #32".to_string()),
        ];
        let events = parse_log(&lines);
        let report = AvailabilityReport::compute(&events, LogSource::Rtos, 0, 10, 10);
        assert_eq!(report.total_events(), 1);
    }

    #[test]
    fn events_outside_span_ignored() {
        let events = rtos_events(&[5, 95]);
        let report = AvailabilityReport::compute(&events, LogSource::Rtos, 10, 90, 10);
        assert_eq!(report.total_events(), 0);
    }

    #[test]
    #[should_panic(expected = "window must be non-zero")]
    fn zero_window_rejected() {
        let _ = AvailabilityReport::compute(&[], LogSource::Rtos, 0, 10, 0);
    }

    #[test]
    fn campaign_availability_counts_green_channel_outcomes() {
        use certify_core::campaign::{Campaign, Scenario};
        use certify_core::NullSink;
        // E1 rejects every bring-up: the cell never exists, so the
        // campaign-level availability is zero.
        let stats = Campaign::new(Scenario::e1_root_high(), 3, 1).run_streamed(&mut NullSink);
        assert_eq!(campaign_availability(&stats), 0.0);
        // A golden campaign is fully available.
        let stats = Campaign::new(Scenario::golden(800), 2, 1).run_streamed(&mut NullSink);
        assert_eq!(campaign_availability(&stats), 1.0);
    }
}
