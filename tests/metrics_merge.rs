//! Algebraic properties of the `certify_obs` instrument merges — the
//! observability mirror of `tests/stats_merge.rs`.
//!
//! Observed campaigns fold metrics per worker thread (or per shard
//! process) and merge at the end, so instrument correctness reduces to
//! the same algebra `CampaignStats` obeys: merge must be commutative
//! and associative, the default instrument must be a two-sided
//! identity, and folding any contiguous partition shard by shard must
//! reproduce the single fold — on *every* field. A [`Gauge`] is a pure
//! high-water mark (merged gauges answer "what was the worst level
//! anywhere"), which is what makes the full laws hold. Histogram
//! bucket-boundary and overflow behavior gets its own properties.

use certify_uncertified::obs::{EngineMetrics, Histogram, PhaseSample, ShardMetrics};
use proptest::collection;
use proptest::prelude::*;

/// One synthetic engine event: a trial's phase sample, a
/// reorder-residency reading, or a sink delivery.
type EngineOp = (u8, u64, u64, u64, u64);

fn engine_fold(ops: &[EngineOp]) -> EngineMetrics {
    let mut metrics = EngineMetrics::default();
    for &(kind, a, b, c, d) in ops {
        match kind % 3 {
            0 => {
                metrics.trials.inc();
                metrics.phases.record(&PhaseSample {
                    boot_ns: a,
                    injection_ns: c,
                    classify_ns: d,
                });
                metrics.sink_rows.inc();
                // A trial simulated its suffix or was served its class's result.
                metrics.suffixes_simulated.add(b % 2);
            }
            1 => metrics.reorder_residency.set(a % 64),
            _ => metrics.sink_bytes.add(a),
        }
    }
    metrics
}

/// One synthetic coordinator event: accepted rows, read frames, a CRC
/// reject, a retried attempt, or a shard wall-time reading.
type ShardOp = (u8, u64, u64);

fn shard_fold(ops: &[ShardOp]) -> ShardMetrics {
    let mut metrics = ShardMetrics::default();
    for &(kind, a, b) in ops {
        match kind % 5 {
            0 => metrics.rows.add(a % 512),
            1 => {
                metrics.frames.add(1 + a % 16);
                metrics.frame_bytes.add(b);
            }
            2 => metrics.crc_rejects.inc(),
            3 => {
                metrics.retries.inc();
                metrics.wasted_rerun_trials.add(a % 512);
            }
            _ => metrics.elapsed_ns.set(a),
        }
    }
    metrics
}

fn engine_ops() -> impl Strategy<Value = Vec<EngineOp>> {
    collection::vec(
        (
            any::<u8>(),
            0u64..5_000_000,
            0u64..5_000_000,
            0u64..5_000_000,
            0u64..5_000_000,
        ),
        0..32,
    )
}

fn shard_ops() -> impl Strategy<Value = Vec<ShardOp>> {
    collection::vec((any::<u8>(), any::<u64>(), 0u64..100_000), 0..32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Engine-metrics merge is commutative: a ∪ b == b ∪ a on every
    /// field, including the gauge (a pure high-water maximum).
    #[test]
    fn engine_merge_is_commutative(
        ops in engine_ops(),
        cut in 0.0f64..1.0,
    ) {
        let i = (ops.len() as f64 * cut) as usize;
        let (a, b) = (&ops[..i], &ops[i..]);

        let mut left = engine_fold(a);
        left.merge(&engine_fold(b));
        let mut right = engine_fold(b);
        right.merge(&engine_fold(a));

        prop_assert_eq!(&left, &right, "engine merge is not commutative");
    }

    /// Shard-metrics merge is commutative on every field.
    #[test]
    fn shard_merge_is_commutative(
        ops in shard_ops(),
        cut in 0.0f64..1.0,
    ) {
        let i = (ops.len() as f64 * cut) as usize;
        let (a, b) = (&ops[..i], &ops[i..]);

        let mut left = shard_fold(a);
        left.merge(&shard_fold(b));
        let mut right = shard_fold(b);
        right.merge(&shard_fold(a));

        prop_assert_eq!(&left, &right, "shard merge is not commutative");
    }

    /// Engine-metrics merge is associative and both orders equal the
    /// single fold's counters and histograms.
    #[test]
    fn engine_merge_is_associative(
        ops in engine_ops(),
        cut_a in 0.0f64..1.0,
        cut_b in 0.0f64..1.0,
    ) {
        let i = (ops.len() as f64 * cut_a) as usize;
        let j = i + ((ops.len() - i) as f64 * cut_b) as usize;
        let (a, b, c) = (&ops[..i], &ops[i..j], &ops[j..]);

        let mut left = engine_fold(a);
        left.merge(&engine_fold(b));
        left.merge(&engine_fold(c));

        let mut right_tail = engine_fold(b);
        right_tail.merge(&engine_fold(c));
        let mut right = engine_fold(a);
        right.merge(&right_tail);

        prop_assert_eq!(&left, &right, "engine merge is not associative");
    }

    /// The default engine instrument is a two-sided merge identity.
    #[test]
    fn engine_merge_with_default_is_identity(ops in engine_ops()) {
        let metrics = engine_fold(&ops);

        let mut left = EngineMetrics::default();
        left.merge(&metrics);
        prop_assert_eq!(&left, &metrics, "default ∪ m != m");

        let mut right = metrics.clone();
        right.merge(&EngineMetrics::default());
        prop_assert_eq!(&right, &metrics, "m ∪ default != m");
    }

    /// Worker-local folds merged in order reproduce the single fold's
    /// counters, histograms and high-water marks — the exact shape the
    /// observed engine computes per worker thread.
    #[test]
    fn engine_worker_fold_equals_single_fold(
        ops in engine_ops(),
        workers in 1usize..6,
    ) {
        let mut merged = EngineMetrics::default();
        for k in 0..workers {
            let start = k * ops.len() / workers;
            let end = (k + 1) * ops.len() / workers;
            merged.merge(&engine_fold(&ops[start..end]));
        }
        let single = engine_fold(&ops);
        prop_assert_eq!(merged.trials, single.trials);
        prop_assert_eq!(&merged.phases, &single.phases);
        prop_assert_eq!(merged.sink_rows, single.sink_rows);
        prop_assert_eq!(merged.sink_bytes, single.sink_bytes);
        prop_assert_eq!(
            merged.reorder_residency.high_water(),
            single.reorder_residency.high_water(),
            "residency high-water must survive partitioning"
        );
    }

    /// Shard-metrics merge is associative.
    #[test]
    fn shard_merge_is_associative(
        ops in shard_ops(),
        cut_a in 0.0f64..1.0,
        cut_b in 0.0f64..1.0,
    ) {
        let i = (ops.len() as f64 * cut_a) as usize;
        let j = i + ((ops.len() - i) as f64 * cut_b) as usize;
        let (a, b, c) = (&ops[..i], &ops[i..j], &ops[j..]);

        let mut left = shard_fold(a);
        left.merge(&shard_fold(b));
        left.merge(&shard_fold(c));

        let mut right_tail = shard_fold(b);
        right_tail.merge(&shard_fold(c));
        let mut right = shard_fold(a);
        right.merge(&right_tail);

        prop_assert_eq!(&left, &right, "shard merge is not associative");
    }

    /// The default shard instrument is a two-sided merge identity.
    #[test]
    fn shard_merge_with_default_is_identity(ops in shard_ops()) {
        let metrics = shard_fold(&ops);

        let mut left = ShardMetrics::default();
        left.merge(&metrics);
        prop_assert_eq!(&left, &metrics, "default ∪ m != m");

        let mut right = metrics.clone();
        right.merge(&ShardMetrics::default());
        prop_assert_eq!(&right, &metrics, "m ∪ default != m");
    }

    /// Per-shard folds merged in any contiguous partition reproduce
    /// the single fold, on every field.
    #[test]
    fn shard_fold_equals_single_fold(
        ops in shard_ops(),
        shards in 1usize..6,
    ) {
        let mut merged = ShardMetrics::default();
        for k in 0..shards {
            let start = k * ops.len() / shards;
            let end = (k + 1) * ops.len() / shards;
            merged.merge(&shard_fold(&ops[start..end]));
        }
        prop_assert_eq!(&merged, &shard_fold(&ops));
    }

    /// Bucket discipline: bounds are *inclusive* uppers — a sample
    /// equal to a bound lands in that bound's bucket, one past it in
    /// the next — and anything above the last bound overflows. The
    /// per-bucket counts always re-total to `count()`.
    #[test]
    fn histogram_buckets_are_inclusive_uppers(samples in collection::vec(0u64..4_000, 0..64)) {
        let bounds: Vec<u64> = vec![100, 500, 1_000, 2_000];
        let mut histogram = Histogram::with_bounds(bounds.clone());
        for &s in &samples {
            histogram.record(s);
        }
        prop_assert_eq!(histogram.counts().iter().sum::<u64>(), histogram.count());
        prop_assert_eq!(histogram.count(), samples.len() as u64);
        for (bucket, &count) in histogram.counts().iter().enumerate() {
            let lower = if bucket == 0 { 0 } else { bounds[bucket - 1] + 1 };
            let expected = samples
                .iter()
                .filter(|&&s| s >= lower && bounds.get(bucket).is_none_or(|&b| s <= b))
                .count() as u64;
            prop_assert_eq!(count, expected, "bucket {} miscounted", bucket);
        }
    }

    /// Quantile estimates are monotone in `q` and always inside the
    /// observed `[min, max]`, including for overflow-bucket ranks.
    #[test]
    fn histogram_quantiles_stay_in_range(samples in collection::vec(0u64..10_000, 1..64)) {
        let mut histogram = Histogram::with_bounds(vec![50, 200, 1_000]);
        for &s in &samples {
            histogram.record(s);
        }
        let mut previous = 0;
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let estimate = histogram.quantile(q);
            prop_assert!(estimate >= histogram.min(), "q={} below min", q);
            prop_assert!(estimate <= histogram.max(), "q={} above max", q);
            prop_assert!(estimate >= previous, "quantile not monotone at q={}", q);
            previous = estimate;
        }
        prop_assert_eq!(histogram.quantile(1.0), histogram.max());
    }
}

/// Merging histograms with different bucket layouts is a bug, not a
/// degradation — it must panic.
#[test]
#[should_panic(expected = "different bucket layouts")]
fn histogram_merge_rejects_mismatched_layouts() {
    let mut a = Histogram::with_bounds(vec![10, 20]);
    let b = Histogram::with_bounds(vec![10, 30]);
    a.merge(&b);
}
