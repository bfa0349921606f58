//! Online campaign statistics.
//!
//! The value of a campaign is its aggregate outcome distribution
//! (Figure 3), not the pile of per-trial reports. [`CampaignStats`]
//! folds each [`TrialResult`] into constant-size aggregates as it is
//! delivered, so a streamed campaign of any size needs O(1) memory
//! for its statistics — the enabler for production-scale campaigns
//! and, later, multi-process sharding (shards merge their stats).

use crate::campaign::TrialResult;
use crate::classify::Outcome;
use crate::json::Json;
use crate::memfault::MemRegionKind;
use crate::sink::TrialSink;
use std::collections::BTreeMap;
use std::fmt;

/// Min/max/total summary of a per-trial count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CountSummary {
    /// Smallest per-trial count seen (0 when no trial was recorded).
    pub min: usize,
    /// Largest per-trial count seen.
    pub max: usize,
    /// Sum over all trials.
    pub total: u64,
}

impl CountSummary {
    fn record(&mut self, count: usize, first_trial: bool) {
        if first_trial {
            self.min = count;
            self.max = count;
        } else {
            self.min = self.min.min(count);
            self.max = self.max.max(count);
        }
        self.total += count as u64;
    }

    /// Folds another summary in. When `self` covers no trials yet its
    /// zeroed `min` is meaningless, so the other summary is adopted
    /// wholesale.
    fn merge(&mut self, other: &CountSummary, self_is_empty: bool) {
        if self_is_empty {
            *self = *other;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
            self.total += other.total;
        }
    }
}

impl fmt::Display for CountSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "min {} / max {} / total {}",
            self.min, self.max, self.total
        )
    }
}

/// Constant-size aggregates of a campaign, built one trial at a time.
///
/// `CampaignStats` is itself a [`TrialSink`], and every streamed run
/// also returns the stats it folded — so `run`, and
/// `Campaign::execute` at any range split and worker count, produce
/// identical stats over the same seeds (asserted by the equivalence
/// harness, `tests/common/mod.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignStats {
    /// The scenario that was run.
    pub scenario_name: String,
    /// Number of trials folded in.
    pub trials: usize,
    /// Outcome histogram.
    pub distribution: BTreeMap<Outcome, usize>,
    /// Trials with at least one register injection.
    pub injected_trials: usize,
    /// Trials with at least one applied memory injection.
    pub mem_injected_trials: usize,
    /// Per-region outcome attribution: each trial's outcome counted
    /// once for every region it applied at least one memory fault in.
    pub mem_region_distribution: BTreeMap<(MemRegionKind, Outcome), usize>,
    /// Per-trial register-injection counts.
    pub injections: CountSummary,
    /// Per-trial applied memory-injection counts.
    pub mem_injections: CountSummary,
    /// Panic-park trials whose armed watchdog expired (E5a detection).
    pub watchdog_detected: usize,
    /// Sum of first-expiry steps over those detected trials (for mean
    /// detection latency).
    pub watchdog_expiry_sum: u64,
    /// Inconsistent-state trials that raised at least one heartbeat
    /// monitor alarm (E5b detection).
    pub monitor_detected: usize,
    /// Monitor alarms summed over all trials (false-alarm audits).
    pub monitor_alarms_total: usize,
}

impl CampaignStats {
    /// Empty stats for the named scenario.
    pub fn new(scenario_name: impl Into<String>) -> CampaignStats {
        CampaignStats {
            scenario_name: scenario_name.into(),
            trials: 0,
            distribution: BTreeMap::new(),
            injected_trials: 0,
            mem_injected_trials: 0,
            mem_region_distribution: BTreeMap::new(),
            injections: CountSummary::default(),
            mem_injections: CountSummary::default(),
            watchdog_detected: 0,
            watchdog_expiry_sum: 0,
            monitor_detected: 0,
            monitor_alarms_total: 0,
        }
    }

    /// Folds one trial into the aggregates. The trial is only
    /// borrowed: callers that also forward it to a sink do so after
    /// recording.
    pub fn record(&mut self, trial: &TrialResult) {
        let first = self.trials == 0;
        self.trials += 1;
        *self.distribution.entry(trial.outcome).or_insert(0) += 1;
        if trial.injection_count > 0 {
            self.injected_trials += 1;
        }
        if trial.mem_injection_count > 0 {
            self.mem_injected_trials += 1;
        }
        self.injections.record(trial.injection_count, first);
        self.mem_injections.record(trial.mem_injection_count, first);

        // Attribute the outcome to every region the trial applied at
        // least one memory fault in. Region dedup is a first-occurrence
        // scan — O(k²) with k (applied faults per trial) tiny, and no
        // scratch allocation on the per-trial path.
        let applied_faults = || {
            trial
                .report
                .mem_injections
                .iter()
                .filter_map(|r| r.outcome.ok())
        };
        for (i, fault) in applied_faults().enumerate() {
            if applied_faults().take(i).any(|f| f.region == fault.region) {
                continue;
            }
            *self
                .mem_region_distribution
                .entry((fault.region, trial.outcome))
                .or_insert(0) += 1;
        }

        if trial.outcome == Outcome::PanicPark {
            if let Some(step) = trial.report.watchdog_first_expiry {
                self.watchdog_detected += 1;
                self.watchdog_expiry_sum += step;
            }
        }
        if trial.outcome == Outcome::InconsistentState && trial.report.monitor_alarms > 0 {
            self.monitor_detected += 1;
        }
        self.monitor_alarms_total += trial.report.monitor_alarms;
    }

    /// Trials with the given outcome.
    pub fn count(&self, outcome: Outcome) -> usize {
        self.distribution.get(&outcome).copied().unwrap_or(0)
    }

    /// Fraction of trials with the given outcome (0.0 for an empty
    /// campaign). Derived from the histogram — O(log outcomes), not a
    /// trial re-scan.
    pub fn fraction(&self, outcome: Outcome) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        self.count(outcome) as f64 / self.trials as f64
    }

    /// Mean watchdog detection latency over detected panic-park
    /// trials, in steps (0 when nothing was detected).
    pub fn watchdog_mean_latency(&self) -> u64 {
        if self.watchdog_detected == 0 {
            0
        } else {
            self.watchdog_expiry_sum / self.watchdog_detected as u64
        }
    }

    /// Merges another shard's stats into this one (the multi-process
    /// sharding primitive: shards fold locally, the coordinator
    /// merges). Min/max summaries merge exactly; the scenario name is
    /// kept from `self`.
    pub fn merge(&mut self, other: &CampaignStats) {
        if other.trials == 0 {
            return;
        }
        let first = self.trials == 0;
        self.trials += other.trials;
        for (outcome, count) in &other.distribution {
            *self.distribution.entry(*outcome).or_insert(0) += count;
        }
        self.injected_trials += other.injected_trials;
        self.mem_injected_trials += other.mem_injected_trials;
        for (key, count) in &other.mem_region_distribution {
            *self.mem_region_distribution.entry(*key).or_insert(0) += count;
        }
        self.injections.merge(&other.injections, first);
        self.mem_injections.merge(&other.mem_injections, first);
        self.watchdog_detected += other.watchdog_detected;
        self.watchdog_expiry_sum += other.watchdog_expiry_sum;
        self.monitor_detected += other.monitor_detected;
        self.monitor_alarms_total += other.monitor_alarms_total;
    }

    /// The aggregates as a JSON value (via [`crate::json`]): the
    /// outcome distribution keyed by the paper's outcome names, the
    /// per-region attribution as an array of rows, and every
    /// detection counter — the machine-readable twin of the Display
    /// rendering.
    pub fn to_json(&self) -> Json {
        let count_summary = |s: &CountSummary| {
            Json::obj([
                ("min", Json::U64(s.min as u64)),
                ("max", Json::U64(s.max as u64)),
                ("total", Json::U64(s.total)),
            ])
        };
        Json::obj([
            ("scenario", Json::str(self.scenario_name.clone())),
            ("trials", Json::U64(self.trials as u64)),
            (
                "distribution",
                Json::Obj(
                    self.distribution
                        .iter()
                        .map(|(outcome, count)| (outcome.to_string(), Json::U64(*count as u64)))
                        .collect(),
                ),
            ),
            ("injected_trials", Json::U64(self.injected_trials as u64)),
            (
                "mem_injected_trials",
                Json::U64(self.mem_injected_trials as u64),
            ),
            (
                "mem_region_distribution",
                Json::Arr(
                    self.mem_region_distribution
                        .iter()
                        .map(|((region, outcome), count)| {
                            Json::obj([
                                ("region", Json::str(region.to_string())),
                                ("outcome", Json::str(outcome.to_string())),
                                ("count", Json::U64(*count as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("injections", count_summary(&self.injections)),
            ("mem_injections", count_summary(&self.mem_injections)),
            (
                "watchdog_detected",
                Json::U64(self.watchdog_detected as u64),
            ),
            (
                "watchdog_mean_latency_steps",
                Json::U64(self.watchdog_mean_latency()),
            ),
            ("monitor_detected", Json::U64(self.monitor_detected as u64)),
            (
                "monitor_alarms_total",
                Json::U64(self.monitor_alarms_total as u64),
            ),
        ])
    }
}

impl TrialSink for CampaignStats {
    fn accept(&mut self, _seq: usize, trial: TrialResult) {
        self.record(&trial);
    }
}

impl fmt::Display for CampaignStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "campaign {} ({} trials, {} reg-injected, {} mem-injected)",
            self.scenario_name, self.trials, self.injected_trials, self.mem_injected_trials
        )?;
        let total = self.trials.max(1);
        for (outcome, count) in &self.distribution {
            writeln!(
                f,
                "  {outcome:>20}: {count:4} ({:5.1}%)",
                100.0 * *count as f64 / total as f64
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, Scenario, TrialResult};
    use crate::memfault::{MemFaultModel, MemTarget};
    use crate::sink::{CollectSink, NullSink};
    use std::collections::BTreeSet;

    /// Every trial of `campaign` (one worker), and the stats folded
    /// from them after the run.
    fn buffered(campaign: &Campaign) -> (Vec<TrialResult>, CampaignStats) {
        let mut sink = CollectSink::new();
        campaign.execute(.., 1, &mut sink, None);
        let trials = sink.into_trials();
        let mut stats = CampaignStats::new(campaign.scenario().name.clone());
        for trial in &trials {
            stats.record(trial);
        }
        (trials, stats)
    }

    /// The stats `execute` folds online, on one worker.
    fn streamed(campaign: &Campaign) -> CampaignStats {
        campaign.execute(.., 1, &mut NullSink, None).0
    }

    #[test]
    fn stats_match_the_buffered_aggregates() {
        let campaign = Campaign::new(Scenario::e1_root_high(), 5, 41);
        let (_, buffered) = buffered(&campaign);
        let stats = streamed(&campaign);
        assert_eq!(stats, buffered);
        assert_eq!(stats.trials, 5);
        assert_eq!(stats.count(Outcome::InvalidArguments), 5);
        assert_eq!(stats.fraction(Outcome::InvalidArguments), 1.0);
        assert_eq!(stats.injected_trials, 5);
        assert!(stats.injections.min >= 1);
        assert!(stats.injections.total >= stats.injections.max as u64);
    }

    #[test]
    fn region_attribution_matches_a_per_trial_region_walk() {
        let campaign = Campaign::new(
            Scenario::e6_memory(MemFaultModel::SingleBitFlip, MemTarget::e6()),
            6,
            0xE6,
        );
        let (trials, _) = buffered(&campaign);
        let stats = streamed(&campaign);
        let mut walked = BTreeMap::new();
        for trial in &trials {
            let applied = trial
                .report
                .mem_injections
                .iter()
                .filter_map(|r| r.outcome.ok());
            let regions: BTreeSet<_> = applied.map(|f| f.region).collect();
            for region in regions {
                *walked.entry((region, trial.outcome)).or_insert(0) += 1;
            }
        }
        assert_eq!(stats.mem_region_distribution, walked);
        let applied = trials.iter().filter(|t| t.mem_injection_count > 0);
        assert_eq!(stats.mem_injected_trials, applied.count());
        assert!(stats.mem_injections.total > 0);
    }

    #[test]
    fn display_matches_the_buffered_display() {
        let campaign = Campaign::new(Scenario::e1_root_high(), 4, 7);
        let (_, buffered) = buffered(&campaign);
        assert_eq!(streamed(&campaign).to_string(), buffered.to_string());
    }

    #[test]
    fn merge_equals_one_pass() {
        let campaign_a = Campaign::new(Scenario::e1_root_high(), 3, 100);
        let campaign_b = Campaign::new(Scenario::e1_root_high(), 4, 103);
        let whole = Campaign::new(Scenario::e1_root_high(), 7, 100);
        let mut merged = streamed(&campaign_a);
        merged.merge(&streamed(&campaign_b));
        assert_eq!(merged, streamed(&whole));

        // Merging into empty stats adopts the shard's summaries.
        let mut empty = CampaignStats::new("e1-root-high");
        empty.merge(&merged);
        assert_eq!(empty, merged);
    }

    #[test]
    fn empty_stats_are_harmless() {
        let stats = CampaignStats::new("nothing");
        assert_eq!(stats.fraction(Outcome::Correct), 0.0);
        assert_eq!(stats.count(Outcome::Correct), 0);
        assert_eq!(stats.watchdog_mean_latency(), 0);
        assert!(stats.to_string().contains("0 trials"));
    }
}
