//! A campaign executed as multiple OS worker processes — and proved
//! identical to the single-process run.
//!
//! The coordinator (`certify_shard::run_sharded`) splits the seed
//! space into contiguous shards, spawns one `shard_worker` process
//! per shard, streams their CRC-framed CSV rows back into global seed
//! order and merges their `CampaignStats`. This example runs the same
//! E3 campaign both ways and asserts stats *and CSV bytes* are
//! bit-identical — optionally while SIGKILLing one worker mid-run to
//! demonstrate the re-execution recovery path (the CI smoke does
//! exactly that).
//!
//! ```sh
//! cargo build --release -p certify_shard   # the worker binary
//! cargo run --release --example sharded_campaign               # 2000 trials, 2 shards
//! cargo run --release --example sharded_campaign -- 4000 4     # trials, shards
//! cargo run --release --example sharded_campaign -- 2000 2 --kill 1@200
//! #                            kill shard 1's worker after 200 rows ^
//! cargo run --release --example sharded_campaign -- 2000 2 --progress
//! #  live per-shard progress snapshots + a JSON telemetry report  ^
//! ```

use certify_analysis::CsvSink;
use certify_core::campaign::{Campaign, Scenario};
use certify_core::{progress_to_json, shard_metrics_to_json, Json};
use certify_obs::{MonotonicClock, ProgressSnapshot};
use certify_shard::{run_sharded, run_sharded_observed, ShardOptions};
use std::time::Instant;

/// Render one live snapshot line: where it came from, how far along,
/// the throughput and — once the tracker has one — the ETA.
fn print_snapshot(s: &ProgressSnapshot) {
    let source = match s.source {
        Some(shard) => format!("shard {shard}"),
        None => "campaign".to_string(),
    };
    let eta = match s.eta_ns {
        Some(ns) => format!("{:5.1} s", ns as f64 / 1e9),
        None => "   ?  ".to_string(),
    };
    println!(
        "[progress] {source:>9}: {:6}/{:<6} rows | {:8.0} rows/s | eta {eta}",
        s.done, s.total, s.rows_per_sec
    );
}

fn main() {
    let mut trials: usize = 2000;
    let mut shards: usize = 2;
    let mut kill: Option<(usize, u64)> = None;
    let mut progress = false;

    let mut args = std::env::args().skip(1);
    let mut positional = 0;
    while let Some(arg) = args.next() {
        if arg == "--kill" {
            let spec = args.next().expect("--kill needs shard@rows");
            let (shard, rows) = spec.split_once('@').expect("--kill format: shard@rows");
            kill = Some((
                shard.parse().expect("shard index"),
                rows.parse().expect("row count"),
            ));
        } else if arg == "--progress" {
            progress = true;
        } else {
            match positional {
                0 => trials = arg.parse().expect("trial count"),
                _ => shards = arg.parse().expect("shard count"),
            }
            positional += 1;
        }
    }

    let campaign = Campaign::new(Scenario::e3_fig3(), trials, 0xD5_2022);

    // The single-process reference: streamed stats + CSV.
    let start = Instant::now();
    let mut reference_sink = CsvSink::in_memory();
    let (reference_stats, _) = campaign.execute(.., 1, &mut reference_sink, None);
    let reference_csv = reference_sink.into_csv();
    let single_secs = start.elapsed().as_secs_f64();

    // The sharded run.
    let mut opts = ShardOptions::new(shards);
    if let Some((shard, rows)) = kill {
        opts = opts.with_sabotage(shard, rows);
        println!("sabotage armed: SIGKILL shard {shard}'s worker after {rows} rows");
    }
    let start = Instant::now();
    let mut sharded_csv = Vec::new();
    let mut snapshots: Vec<ProgressSnapshot> = Vec::new();
    let run = if progress {
        let clock = MonotonicClock::new();
        let mut observer = |s: &ProgressSnapshot| {
            print_snapshot(s);
            snapshots.push(s.clone());
        };
        run_sharded_observed(
            &campaign,
            &opts,
            Some(&mut sharded_csv),
            &clock,
            &mut observer,
        )
    } else {
        run_sharded(&campaign, &opts, Some(&mut sharded_csv))
    }
    .unwrap_or_else(|e| panic!("sharded run failed: {e}"));
    let sharded_secs = start.elapsed().as_secs_f64();

    assert_eq!(
        run.stats, reference_stats,
        "sharded stats diverged from the single-process run"
    );
    assert_eq!(
        String::from_utf8(sharded_csv).unwrap(),
        reference_csv,
        "sharded CSV bytes diverged from the single-process run"
    );
    if kill.is_some() {
        assert!(
            run.metrics.retries.get() >= 1,
            "the sabotaged worker must have been recovered"
        );
    }

    println!("{}", run.stats);
    println!(
        "shards: {:?} | worker failures recovered: {}",
        run.shard_ranges,
        run.metrics.retries.get()
    );
    println!(
        "single-process: {single_secs:5.2} s ({:7.0} trials/sec)",
        trials as f64 / single_secs
    );
    println!(
        "{shards:2} shard(s):     {sharded_secs:5.2} s ({:7.0} trials/sec)",
        trials as f64 / sharded_secs
    );
    println!("sharded output verified bit-identical to the single-process run");

    if progress {
        assert!(
            !snapshots.is_empty(),
            "an observed run must have produced progress snapshots"
        );
        let last = snapshots.last().unwrap();
        assert_eq!(last.done, trials as u64, "the final snapshot must be 100%");
        // The telemetry report: everything the observer saw plus the
        // merged and per-shard transport counters, as JSON.
        let report = Json::obj([
            ("trials", Json::U64(trials as u64)),
            ("snapshots", Json::U64(snapshots.len() as u64)),
            ("final_progress", progress_to_json(last)),
            ("transport", shard_metrics_to_json(&run.metrics)),
            (
                "shards",
                Json::Arr(
                    run.shard_metrics
                        .iter()
                        .map(shard_metrics_to_json)
                        .collect(),
                ),
            ),
        ]);
        println!("telemetry: {}", report.render());
    }
}
