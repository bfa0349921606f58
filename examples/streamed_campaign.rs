//! The streamed campaign engine at production scale: a 10 000-trial
//! Figure-3 campaign whose resident state is O(workers), not
//! O(trials).
//!
//! A `CollectSink` holds every trial's full `RunReport` until the
//! campaign ends; this example runs the campaign through
//! `Campaign::execute` into a sink that delivers each report in seed
//! order the moment its turn comes and drops it right after — here a
//! CSV export that keeps one row buffer, while the outcome
//! distribution folds online into `CampaignStats`. The engine's delivery window guarantees at most
//! `workers` completed-but-undelivered reports exist at any instant,
//! and the run prints the measured high-water mark to prove it.
//!
//! ```sh
//! cargo run --release --example streamed_campaign              # 10000 trials
//! cargo run --release --example streamed_campaign -- 500 7 4   # trials, seed, workers
//! ```

use certify_analysis::{CsvSink, Figure3};
use certify_core::campaign::{Campaign, Scenario};

fn main() {
    let mut args = std::env::args().skip(1);
    let trials: usize = args.next().and_then(|t| t.parse().ok()).unwrap_or(10_000);
    let seed: u64 = args
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xD5_2022);
    let workers: usize = args.next().and_then(|w| w.parse().ok()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    });

    println!("streaming {trials} E3 trials across {workers} workers (seed {seed:#x})…");

    // Stream the per-trial CSV into a byte-counting void: a stand-in
    // for a file or a network socket that shows the export path never
    // buffers more than one row.
    let mut csv = CsvSink::new(CountingWriter::default()).expect("writer is infallible");
    let campaign = Campaign::new(Scenario::e3_fig3(), trials, seed);
    let (stats, high_water) = campaign.execute(.., workers, &mut csv, None);

    let rows = csv.rows();
    let bytes = csv.finish().expect("writer is infallible").bytes;
    println!("{stats}");
    println!("{}", Figure3::from_stats(&stats).render_chart());
    println!("CSV rows streamed: {rows} ({bytes} bytes, one row resident at a time)");
    println!(
        "resident-report high-water mark: {high_water} (bound: {} workers)",
        workers.min(trials.max(1))
    );
    assert_eq!(rows, trials, "one CSV row per trial");
    assert!(
        high_water <= workers.min(trials.max(1)),
        "engine exceeded its O(workers) residency bound"
    );
}

/// Counts bytes and throws them away.
#[derive(Debug, Default)]
struct CountingWriter {
    bytes: usize,
}

impl std::io::Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes += buf.len();
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
