//! Unified run timelines.
//!
//! Debugging a fault-injection run means correlating three streams:
//! the injections, the hypervisor's structured events, and the serial
//! log. A [`Timeline`] merges them into one chronologically sorted,
//! source-tagged trace — the view an engineer would build by hand from
//! the paper's log files.

use certify_core::injector::InjectionRecord;
use certify_hypervisor::HvEvent;
use std::fmt;

/// One timeline entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEntry {
    /// Simulator step.
    pub step: u64,
    /// Source tag (`inject`, `hv`, `serial`).
    pub source: &'static str,
    /// Rendered content.
    pub text: String,
}

impl fmt::Display for TimelineEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:>8} {:<7} {}", self.step, self.source, self.text)
    }
}

/// A merged, chronologically sorted run trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Timeline {
    entries: Vec<TimelineEntry>,
}

impl Timeline {
    /// Builds a timeline from the three observation streams.
    pub fn build(
        injections: &[InjectionRecord],
        events: &[HvEvent],
        serial: &[(u64, String)],
    ) -> Timeline {
        let mut entries = Vec::new();
        for record in injections {
            entries.push(TimelineEntry {
                step: record.step,
                source: "inject",
                text: record.to_string(),
            });
        }
        for event in events {
            entries.push(TimelineEntry {
                step: event.step(),
                source: "hv",
                text: event.to_string(),
            });
        }
        for (step, line) in serial {
            entries.push(TimelineEntry {
                step: *step,
                source: "serial",
                text: line.clone(),
            });
        }
        entries.sort_by_key(|e| e.step);
        Timeline { entries }
    }

    /// All entries in chronological order.
    pub fn entries(&self) -> &[TimelineEntry] {
        &self.entries
    }

    /// Entries within `margin` steps around `step` — the
    /// "what happened around the injection" view.
    pub fn around(&self, step: u64, margin: u64) -> Vec<&TimelineEntry> {
        self.entries
            .iter()
            .filter(|e| e.step >= step.saturating_sub(margin) && e.step <= step + margin)
            .collect()
    }

    /// Renders the whole timeline (or a tail of it).
    pub fn render(&self, last: Option<usize>) -> String {
        let skip = last
            .map(|n| self.entries.len().saturating_sub(n))
            .unwrap_or(0);
        self.entries
            .iter()
            .skip(skip)
            .map(|e| format!("{e}\n"))
            .collect()
    }
}

impl fmt::Display for Timeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render(None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certify_arch::cpu::ParkReason;
    use certify_arch::CpuId;

    fn sample() -> Timeline {
        let events = vec![HvEvent::CpuParked {
            cpu: CpuId(1),
            reason: ParkReason::UnhandledTrap(0x24),
            step: 50,
        }];
        let serial = vec![
            (10, "[linux] boot".to_string()),
            (60, "[hyp] parking cpu1: unhandled trap 0x24".to_string()),
        ];
        Timeline::build(&[], &events, &serial)
    }

    #[test]
    fn entries_are_chronological() {
        let timeline = sample();
        let steps: Vec<u64> = timeline.entries().iter().map(|e| e.step).collect();
        assert_eq!(steps, vec![10, 50, 60]);
    }

    #[test]
    fn around_windows_the_trace() {
        let timeline = sample();
        let window = timeline.around(50, 5);
        assert_eq!(window.len(), 1);
        assert_eq!(window[0].source, "hv");
    }

    #[test]
    fn render_tail_limits_output() {
        let timeline = sample();
        let tail = timeline.render(Some(1));
        assert_eq!(tail.lines().count(), 1);
        assert!(tail.contains("parking"));
    }

    #[test]
    fn sources_are_tagged() {
        let timeline = sample();
        let sources: Vec<&str> = timeline.entries().iter().map(|e| e.source).collect();
        assert_eq!(sources, vec!["serial", "hv", "serial"]);
    }
}
