//! Mergeable metrics: counters, gauges and latency histograms.
//!
//! Every instrument here obeys the same algebra as `CampaignStats`:
//! `merge` is associative, the default value is a two-sided identity,
//! and folding per-shard metrics equals folding everything in one
//! place (shard-fold == single-fold) — pinned by
//! `tests/metrics_merge.rs` at the workspace root. That law is what
//! lets workers keep thread-local instruments on the hot path and
//! fold them once at the end, and lets the shard coordinator merge
//! per-process metrics exactly as it merges stats.

/// A monotonically increasing event count. Merge law: sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&mut self) {
        self.add(1);
    }

    /// Adds `n` (saturating — a counter pegs rather than wraps).
    pub fn add(&mut self, n: u64) {
        self.value = self.value.saturating_add(n);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.value
    }

    /// Folds another counter in.
    pub fn merge(&mut self, other: &Counter) {
        self.add(other.value);
    }
}

/// A high-water-mark gauge. Merge law: max — merged gauges answer
/// "what was the worst level anywhere", the question that matters
/// when shards report independently.
///
/// The gauge deliberately keeps *only* the high-water mark. An
/// earlier version also tracked the last-set level, which made
/// `merge` depend on fold order (whichever side happened to be set
/// last won) and broke full shard-fold == single-fold equality. Max
/// is commutative, associative and idempotent, so any fold order
/// gives the same gauge — pinned by `tests/metrics_merge.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Gauge {
    high_water: u64,
}

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Records a level, raising the high-water mark if it is a new
    /// maximum.
    pub fn set(&mut self, value: u64) {
        self.high_water = self.high_water.max(value);
    }

    /// The largest level ever recorded.
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Folds another gauge in (max).
    pub fn merge(&mut self, other: &Gauge) {
        self.high_water = self.high_water.max(other.high_water);
    }
}

/// A fixed-bucket histogram of `u64` samples (typically nanoseconds).
///
/// Buckets are defined by ascending inclusive upper `bounds`; one
/// extra overflow bucket catches samples above the last bound.
/// Quantiles are conservative bucket-upper-bound estimates clamped to
/// the observed `[min, max]` — exact at the resolution of the bucket
/// layout, never below the true value within a bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Ascending inclusive upper bounds of the regular buckets.
    bounds: Vec<u64>,
    /// Per-bucket sample counts; `counts[bounds.len()]` is overflow.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    /// `u64::MAX` sentinel while empty, so merge adopts the other
    /// side's minimum for free.
    min: u64,
    max: u64,
}

impl Histogram {
    /// A histogram over the given ascending, non-empty bucket bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn with_bounds(bounds: Vec<u64>) -> Histogram {
        assert!(!bounds.is_empty(), "a histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let buckets = bounds.len() + 1;
        Histogram {
            bounds,
            counts: vec![0; buckets],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The stock latency layout: a 1-2-5 series from 1 µs to 1 s, in
    /// nanoseconds. Wide enough for boot-to-classify phase timings at
    /// both debug and release speeds; sub-microsecond samples land in
    /// the first bucket.
    pub fn latency_ns() -> Histogram {
        let mut bounds = Vec::with_capacity(19);
        for decade in [
            1_000u64,
            10_000,
            100_000,
            1_000_000,
            10_000_000,
            100_000_000,
        ] {
            for step in [1, 2, 5] {
                bounds.push(decade * step);
            }
        }
        bounds.push(1_000_000_000);
        Histogram::with_bounds(bounds)
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = self.bounds.partition_point(|&bound| bound < value);
        self.counts[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 while empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 while empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0.0 while empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Per-bucket counts; the final entry is the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The conservative `q`-quantile estimate (`q` clamped to
    /// `[0, 1]`): the upper bound of the bucket holding the rank-`⌈q·n⌉`
    /// sample, clamped to the observed `[min, max]`. Overflow-bucket
    /// ranks report `max`. 0 while empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0;
        for (bucket, &count) in self.counts.iter().enumerate() {
            cumulative += count;
            if cumulative >= rank {
                let estimate = if bucket < self.bounds.len() {
                    self.bounds[bucket]
                } else {
                    self.max
                };
                return estimate.clamp(self.min, self.max);
            }
        }
        unreachable!("rank is at most the total count");
    }

    /// Median estimate — see [`Histogram::quantile`].
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate — see [`Histogram::quantile`].
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate — see [`Histogram::quantile`].
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Folds another histogram in.
    ///
    /// # Panics
    ///
    /// Panics if the bucket layouts differ — merging histograms of
    /// different resolution would silently degrade both.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bucket layouts"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::latency_ns()
    }
}

/// One trial's phase timings, as measured by an observed
/// `Campaign::execute`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseSample {
    /// System construction (or the fork of a shared prefix) plus
    /// injector installation.
    pub boot_ns: u64,
    /// Steps from the fork step to the horizon.
    pub injection_ns: u64,
    /// Outcome classification + report assembly.
    pub classify_ns: u64,
}

impl PhaseSample {
    /// The whole trial's wall time.
    pub fn total_ns(&self) -> u64 {
        self.boot_ns
            .saturating_add(self.injection_ns)
            .saturating_add(self.classify_ns)
    }
}

/// Per-phase latency histograms over many trials.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TrialPhaseMetrics {
    /// Boot-phase latencies.
    pub boot: Histogram,
    /// Injection-phase latencies.
    pub injection: Histogram,
    /// Classification latencies.
    pub classify: Histogram,
    /// Whole-trial latencies.
    pub total: Histogram,
}

impl TrialPhaseMetrics {
    /// Folds one trial's phase sample in.
    pub fn record(&mut self, sample: &PhaseSample) {
        self.boot.record(sample.boot_ns);
        self.injection.record(sample.injection_ns);
        self.classify.record(sample.classify_ns);
        self.total.record(sample.total_ns());
    }

    /// Folds another instrument set in.
    pub fn merge(&mut self, other: &TrialPhaseMetrics) {
        self.boot.merge(&other.boot);
        self.injection.merge(&other.injection);
        self.classify.merge(&other.classify);
        self.total.merge(&other.total);
    }
}

/// The in-process campaign engine's instrument set.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EngineMetrics {
    /// Trials executed.
    pub trials: Counter,
    /// Per-phase trial latencies.
    pub phases: TrialPhaseMetrics,
    /// Residency of completed-but-undelivered reports; the high-water
    /// mark is the engine's O(workers) bound made visible. (The name
    /// predates the engine's lanes; `schema.golden` pins it.)
    pub reorder_residency: Gauge,
    /// Rows delivered to the sink.
    pub sink_rows: Counter,
    /// Bytes the sink reported writing (0 for sinks that don't count).
    pub sink_bytes: Counter,
    /// Trials that simulated their suffix: every trial but those a
    /// campaign's fault-class cache served, so a cache hit never reads
    /// as a faster simulator.
    pub suffixes_simulated: Counter,
}

impl EngineMetrics {
    /// Folds another engine's metrics in.
    pub fn merge(&mut self, other: &EngineMetrics) {
        self.trials.merge(&other.trials);
        self.phases.merge(&other.phases);
        self.reorder_residency.merge(&other.reorder_residency);
        self.sink_rows.merge(&other.sink_rows);
        self.sink_bytes.merge(&other.sink_bytes);
        self.suffixes_simulated.merge(&other.suffixes_simulated);
    }
}

/// One shard's (or a whole sharded run's, once merged) coordinator-
/// side instrument set.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardMetrics {
    /// Rows accepted from workers on successful attempts.
    pub rows: Counter,
    /// Protocol frames read (all kinds, all attempts).
    pub frames: Counter,
    /// Wire bytes read off worker pipes (all attempts).
    pub frame_bytes: Counter,
    /// Frames rejected for a CRC mismatch.
    pub crc_rejects: Counter,
    /// Failed worker attempts that were retried.
    pub retries: Counter,
    /// Rows received on failed attempts — work a replacement worker
    /// re-executes, i.e. the price of crash recovery.
    pub wasted_rerun_trials: Counter,
    /// Wall time of the shard (max across merged shards — the
    /// critical-path shard).
    pub elapsed_ns: Gauge,
}

impl ShardMetrics {
    /// Successful-row throughput against the critical-path shard's
    /// wall time (0.0 before any time elapsed).
    pub fn rows_per_sec(&self) -> f64 {
        let elapsed = self.elapsed_ns.high_water();
        if elapsed == 0 {
            0.0
        } else {
            self.rows.get() as f64 * 1e9 / elapsed as f64
        }
    }

    /// Folds another shard's metrics in.
    pub fn merge(&mut self, other: &ShardMetrics) {
        self.rows.merge(&other.rows);
        self.frames.merge(&other.frames);
        self.frame_bytes.merge(&other.frame_bytes);
        self.crc_rejects.merge(&other.crc_rejects);
        self.retries.merge(&other.retries);
        self.wasted_rerun_trials.merge(&other.wasted_rerun_trials);
        self.elapsed_ns.merge(&other.elapsed_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_saturates() {
        let mut counter = Counter::new();
        counter.inc();
        counter.add(4);
        assert_eq!(counter.get(), 5);
        counter.add(u64::MAX);
        assert_eq!(counter.get(), u64::MAX);
    }

    #[test]
    fn gauge_tracks_high_water() {
        let mut gauge = Gauge::new();
        gauge.set(7);
        gauge.set(3);
        assert_eq!(gauge.high_water(), 7);
        let mut other = Gauge::new();
        other.set(5);
        gauge.merge(&other);
        assert_eq!(gauge.high_water(), 7);
        // Merge is commutative: the other direction lands in the same
        // place.
        let mut reversed = Gauge::new();
        reversed.set(5);
        let mut seven = Gauge::new();
        seven.set(7);
        seven.set(3);
        reversed.merge(&seven);
        assert_eq!(reversed, gauge);
    }

    #[test]
    fn histogram_buckets_are_inclusive_upper_bounds() {
        let mut h = Histogram::with_bounds(vec![10, 20, 30]);
        // Values exactly on a bound land in that bound's bucket.
        for value in [1, 10, 11, 20, 30] {
            h.record(value);
        }
        assert_eq!(h.counts(), &[2, 2, 1, 0]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 30);
    }

    #[test]
    fn histogram_overflow_reports_the_observed_max() {
        let mut h = Histogram::with_bounds(vec![10]);
        h.record(1_000);
        h.record(2_000);
        assert_eq!(h.counts(), &[0, 2]);
        // Every rank sits in the overflow bucket, whose only honest
        // (conservative) estimate is the observed max.
        assert_eq!(h.quantile(0.5), 2_000);
        assert_eq!(h.quantile(1.0), 2_000);
        assert_eq!(h.p99(), 2_000);
        assert_eq!(h.min(), 1_000);
    }

    #[test]
    fn quantiles_are_conservative_bucket_upper_bounds() {
        let mut h = Histogram::with_bounds(vec![10, 20, 30, 40]);
        for value in [5, 15, 25, 35] {
            h.record(value);
        }
        assert_eq!(h.p50(), 20);
        assert_eq!(h.p90(), 35, "clamped to observed max");
        assert_eq!(h.quantile(0.0), 10, "rank clamps to the first sample");
        assert_eq!(h.mean(), 20.0);
    }

    #[test]
    fn empty_histogram_is_harmless() {
        let h = Histogram::latency_ns();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "different bucket layouts")]
    fn merging_mismatched_layouts_panics() {
        let mut a = Histogram::with_bounds(vec![10]);
        a.merge(&Histogram::with_bounds(vec![20]));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_bounds_are_rejected() {
        Histogram::with_bounds(vec![10, 10]);
    }

    #[test]
    fn phase_sample_total_saturates() {
        let sample = PhaseSample {
            boot_ns: u64::MAX,
            injection_ns: 1,
            classify_ns: 1,
        };
        assert_eq!(sample.total_ns(), u64::MAX);
    }

    #[test]
    fn engine_metrics_merge_is_fieldwise() {
        let mut a = EngineMetrics::default();
        a.trials.add(3);
        a.phases.record(&PhaseSample {
            boot_ns: 1_000,
            injection_ns: 3_000,
            classify_ns: 500,
        });
        a.reorder_residency.set(2);
        a.suffixes_simulated.add(1);
        let mut b = EngineMetrics::default();
        b.trials.add(4);
        b.reorder_residency.set(5);
        b.suffixes_simulated.add(2);
        a.merge(&b);
        assert_eq!(a.trials.get(), 7);
        assert_eq!(a.suffixes_simulated.get(), 3);
        assert_eq!(a.reorder_residency.high_water(), 5);
        assert_eq!(a.phases.total.count(), 1);
        assert_eq!(a.phases.total.min(), 4_500);
    }

    #[test]
    fn shard_metrics_rate_uses_the_critical_path() {
        let mut m = ShardMetrics::default();
        assert_eq!(m.rows_per_sec(), 0.0);
        m.rows.add(500);
        m.elapsed_ns.set(250_000_000);
        let mut other = ShardMetrics::default();
        other.rows.add(500);
        other.elapsed_ns.set(500_000_000);
        m.merge(&other);
        assert_eq!(m.rows.get(), 1_000);
        // 1000 rows against the slowest shard's 0.5 s.
        assert_eq!(m.rows_per_sec(), 2_000.0);
    }
}
