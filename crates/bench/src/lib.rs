//! Shared helpers for the benchmark/figure harnesses.
//!
//! Each bench target regenerates one experiment of the paper: it runs
//! the campaign, prints the same rows/series the paper reports (with
//! the paper's numbers alongside), and then takes Criterion timings of
//! the per-trial cost so the harness doubles as a performance
//! regression net.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use certify_core::campaign::{Campaign, CampaignResult, Scenario};
use certify_core::{CampaignStats, NullSink};

/// Default trial count for distribution-style experiments.
pub const DISTRIBUTION_TRIALS: usize = 150;
/// Default trial count for deterministic experiments.
pub const DETERMINISTIC_TRIALS: usize = 40;
/// Base seed for all benches (any value works; fixed for
/// reproducibility of the printed tables).
pub const BASE_SEED: u64 = 0xD5_2022;

/// The worker count every bench harness uses: all available cores.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Runs a campaign on all available cores, buffering every trial, and
/// prints its distribution. Prefer [`run_and_print_streamed`] unless
/// the harness needs per-trial evidence afterwards.
pub fn run_and_print(scenario: Scenario, trials: usize) -> CampaignResult {
    let campaign = Campaign::new(scenario, trials, BASE_SEED);
    let result = campaign.run_parallel(default_workers());
    println!("{result}");
    result
}

/// Runs a campaign on all available cores through the streamed engine
/// — trials are folded into [`CampaignStats`] as they complete, so
/// only O(workers) reports are ever resident — and prints the
/// distribution (identical bytes to [`run_and_print`] for the same
/// seeds).
pub fn run_and_print_streamed(scenario: Scenario, trials: usize) -> CampaignStats {
    let campaign = Campaign::new(scenario, trials, BASE_SEED);
    let (stats, _) = campaign.execute(.., default_workers(), &mut NullSink, None);
    println!("{stats}");
    stats
}

/// Prints a section banner.
pub fn banner(title: &str) {
    println!("\n==== {title} ====");
}

/// Pulls `"key": value` out of a flat JSON report (the committed
/// `BENCH_*.json` baselines are emitted by the bench harnesses
/// themselves, so a scan is all the parsing the gates need).
pub fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let rest = &text[text.find(&needle)? + needle.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Resolves a bench report path: cargo runs bench binaries from the
/// package directory, but the committed `BENCH_*.json` baselines live
/// at the workspace root — so relative paths are anchored there.
pub fn resolve_baseline_path(path: &str) -> std::path::PathBuf {
    let path = std::path::Path::new(path);
    if path.is_absolute() {
        path.to_path_buf()
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(path)
    }
}
