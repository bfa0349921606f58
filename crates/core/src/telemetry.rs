//! The engine's observability bridge: telemetry wiring for observed
//! campaign runs, and JSON views of the `certify_obs` instruments.
//!
//! `certify_obs` is a leaf crate — it cannot depend on this one — so
//! everything that couples its instruments to campaign types lives
//! here: [`EngineTelemetry`], the bundle an observed
//! [`Campaign::execute`](crate::Campaign::execute) records into at any
//! range and worker count, plus `Json` renderings of
//! histograms, engine/shard metrics and progress snapshots for the
//! campaign-service API surface.
//!
//! Telemetry is strictly one-way: the engine writes into it, nothing
//! in it feeds back into trial execution. Observed and unobserved runs
//! of the same seeds are byte-identical (pinned by
//! `tests/hotpath_equivalence.rs`).

use crate::classify::Outcome;
use crate::json::Json;
use certify_obs::{
    Clock, EngineMetrics, Histogram, ProgressObserver, ProgressSnapshot, ShardMetrics,
};
use std::collections::BTreeMap;

/// Everything an observed engine run records into: the clock to read,
/// the metrics to fold, and the observer to notify.
pub struct EngineTelemetry<'a> {
    /// The clock all phase timings and snapshots are taken with. Use
    /// `MonotonicClock` for real time, `ManualClock` in tests.
    pub clock: &'a (dyn Clock + Sync),
    /// The folded engine metrics; merged across worker threads at the
    /// end of the run (exercising the instrument merge law on every
    /// observed threaded campaign).
    pub metrics: EngineMetrics,
    /// Receives a whole-campaign snapshot every `progress_every`
    /// deliveries and one final snapshot at completion.
    pub progress: &'a mut dyn ProgressObserver,
    /// Deliveries between snapshots (0 = only the final snapshot).
    pub progress_every: usize,
}

impl<'a> EngineTelemetry<'a> {
    /// A telemetry bundle with zeroed metrics.
    pub fn new(
        clock: &'a (dyn Clock + Sync),
        progress: &'a mut dyn ProgressObserver,
        progress_every: usize,
    ) -> EngineTelemetry<'a> {
        EngineTelemetry {
            clock,
            metrics: EngineMetrics::default(),
            progress,
            progress_every,
        }
    }
}

impl std::fmt::Debug for EngineTelemetry<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineTelemetry")
            .field("metrics", &self.metrics)
            .field("progress_every", &self.progress_every)
            .finish_non_exhaustive()
    }
}

/// Renders an outcome histogram as snapshot rows, in classification
/// precedence order (the `BTreeMap`'s `Ord` order).
pub fn outcome_rows(distribution: &BTreeMap<Outcome, usize>) -> Vec<(String, u64)> {
    distribution
        .iter()
        .map(|(outcome, count)| (outcome.to_string(), *count as u64))
        .collect()
}

/// A latency histogram as JSON: count, mean and the quantile summary,
/// in nanoseconds.
pub fn histogram_to_json(histogram: &Histogram) -> Json {
    Json::obj([
        ("count", Json::U64(histogram.count())),
        ("sum_ns", Json::U64(histogram.sum())),
        ("mean_ns", Json::F64(histogram.mean())),
        ("min_ns", Json::U64(histogram.min())),
        ("p50_ns", Json::U64(histogram.p50())),
        ("p90_ns", Json::U64(histogram.p90())),
        ("p99_ns", Json::U64(histogram.p99())),
        ("max_ns", Json::U64(histogram.max())),
    ])
}

/// Engine metrics as JSON: the trial/sink/suffix counters, the
/// residency gauge and the per-phase histograms.
pub fn engine_metrics_to_json(metrics: &EngineMetrics) -> Json {
    Json::obj([
        ("trials", Json::U64(metrics.trials.get())),
        (
            "suffixes_simulated",
            Json::U64(metrics.suffixes_simulated.get()),
        ),
        (
            "reorder_residency_high_water",
            Json::U64(metrics.reorder_residency.high_water()),
        ),
        ("sink_rows", Json::U64(metrics.sink_rows.get())),
        ("sink_bytes", Json::U64(metrics.sink_bytes.get())),
        (
            "phases",
            Json::obj([
                ("boot", histogram_to_json(&metrics.phases.boot)),
                ("injection", histogram_to_json(&metrics.phases.injection)),
                ("classify", histogram_to_json(&metrics.phases.classify)),
                ("total", histogram_to_json(&metrics.phases.total)),
            ]),
        ),
    ])
}

/// Shard-tier metrics as JSON.
pub fn shard_metrics_to_json(metrics: &ShardMetrics) -> Json {
    Json::obj([
        ("rows", Json::U64(metrics.rows.get())),
        ("rows_per_sec", Json::F64(metrics.rows_per_sec())),
        ("frames", Json::U64(metrics.frames.get())),
        ("frame_bytes", Json::U64(metrics.frame_bytes.get())),
        ("crc_rejects", Json::U64(metrics.crc_rejects.get())),
        ("retries", Json::U64(metrics.retries.get())),
        (
            "wasted_rerun_trials",
            Json::U64(metrics.wasted_rerun_trials.get()),
        ),
        ("elapsed_ns", Json::U64(metrics.elapsed_ns.high_water())),
    ])
}

/// A progress snapshot as JSON — the shape the campaign service will
/// stream to clients.
pub fn progress_to_json(snapshot: &ProgressSnapshot) -> Json {
    Json::obj([
        (
            "source",
            match snapshot.source {
                Some(shard) => Json::U64(shard as u64),
                None => Json::Null,
            },
        ),
        ("done", Json::U64(snapshot.done)),
        ("total", Json::U64(snapshot.total)),
        ("elapsed_ns", Json::U64(snapshot.elapsed_ns)),
        ("rows_per_sec", Json::F64(snapshot.rows_per_sec)),
        (
            "eta_ns",
            snapshot.eta_ns.map(Json::U64).unwrap_or(Json::Null),
        ),
        (
            "outcomes",
            Json::Obj(
                snapshot
                    .outcomes
                    .iter()
                    .map(|(name, count)| (name.clone(), Json::U64(*count)))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use certify_obs::{ManualClock, NullObserver, ProgressTracker};

    #[test]
    fn histogram_json_carries_the_quantile_summary() {
        let mut h = Histogram::latency_ns();
        for v in [1_000, 2_000, 2_000, 5_000] {
            h.record(v);
        }
        let rendered = histogram_to_json(&h).render();
        assert!(rendered.contains("\"count\":4"));
        assert!(rendered.contains("\"p50_ns\":2000"));
        assert!(rendered.contains("\"max_ns\":5000"));
        assert!(rendered.contains("\"mean_ns\":2500"));
    }

    #[test]
    fn progress_json_distinguishes_shard_and_campaign_sources() {
        let clock = ManualClock::new();
        let tracker = ProgressTracker::new(&clock, Some(3), 10);
        clock.advance(1_000_000_000);
        let snap = tracker.snapshot(5, vec![("correct".into(), 5)]);
        let rendered = progress_to_json(&snap).render();
        assert!(rendered.contains("\"source\":3"));
        assert!(rendered.contains("\"outcomes\":{\"correct\":5}"));
        assert!(rendered.contains("\"eta_ns\":1000000000"));

        let overall = ProgressTracker::new(&clock, None, 10).snapshot(0, Vec::new());
        let rendered = progress_to_json(&overall).render();
        assert!(rendered.contains("\"source\":null"));
        assert!(rendered.contains("\"eta_ns\":null"));
    }

    #[test]
    fn outcome_rows_follow_classification_precedence() {
        let mut distribution = BTreeMap::new();
        distribution.insert(Outcome::Correct, 3usize);
        distribution.insert(Outcome::PanicPark, 1usize);
        assert_eq!(
            outcome_rows(&distribution),
            vec![("panic park".to_string(), 1), ("correct".to_string(), 3)]
        );
    }

    #[test]
    fn telemetry_bundle_debug_and_json_render() {
        let clock = ManualClock::new();
        let mut observer = NullObserver;
        let telemetry = EngineTelemetry::new(&clock, &mut observer, 8);
        assert!(format!("{telemetry:?}").contains("progress_every: 8"));
        let rendered = engine_metrics_to_json(&telemetry.metrics).render();
        assert!(rendered.contains("\"trials\":0"));
        assert!(rendered.contains("\"phases\""));
        let rendered = shard_metrics_to_json(&ShardMetrics::default()).render();
        assert!(rendered.contains("\"crc_rejects\":0"));
    }
}
