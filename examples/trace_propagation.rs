//! Flight-recorder tracing and golden-diff propagation analysis.
//!
//! Runs a traced E6 memory-fault campaign: every trial carries a
//! bounded flight recorder, and every anomalous trial (panic park,
//! inconsistent state, translation-fault storm, silent data
//! corruption) dumps its causal event stream. The example then takes
//! one silent-data-corruption dump and
//!
//! * exports it as a `chrome://tracing` / Perfetto JSON document,
//! * re-runs the *same seed* through the scenario's fault-free twin
//!   and prints the golden diff: the first step where the faulty
//!   trial's causal history diverges from the clean run, plus the
//!   divergent suffixes on both sides.
//!
//! ```sh
//! cargo run --release --example trace_propagation             # 500 trials
//! cargo run --release --example trace_propagation -- 200 7    # trials, seed
//! cargo run --release --example trace_propagation -- 200 7 /tmp/sdc.json
//! ```

use certify_analysis::golden_diff;
use certify_core::campaign::{Campaign, Scenario};
use certify_core::memfault::{MemFaultModel, MemTarget};
use certify_core::{CollectSink, Outcome, TraceConfig};
use std::path::PathBuf;

fn main() {
    let mut args = std::env::args().skip(1);
    let trials: usize = args.next().and_then(|t| t.parse().ok()).unwrap_or(500);
    let seed: u64 = args
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xE6_2022);
    let chrome_out: PathBuf = args
        .next()
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("trace_propagation.chrome.json"));
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);

    // The stock config: 4096-event ring, dump on anomalies.
    let config = TraceConfig::new();
    let scenario = Scenario::e6_memory(MemFaultModel::SingleBitFlip, MemTarget::e6());
    let campaign = Campaign::new(scenario, trials, seed).with_trace(config.clone());

    println!(
        "Traced E6 campaign: {trials} trials (seed {seed:#x}, {workers} workers, \
         ring capacity {})",
        config.capacity
    );
    let mut sink = CollectSink::new();
    let (stats, _) = campaign.execute(.., workers, &mut sink, None);
    print!("{stats}");
    let (_, dumps) = sink.into_parts();
    println!(
        "\n{} anomalous trials dumped a flight recording",
        dumps.len()
    );

    // Prefer a silent-data-corruption dump — the case propagation
    // analysis exists for — falling back to whatever anomaly came
    // first.
    let picked = dumps
        .iter()
        .find(|(_, d)| d.outcome == Outcome::SilentDataCorruption)
        .or_else(|| dumps.first());
    let Some((seq, dump)) = picked else {
        println!("no anomalies at this (trials, seed) — try more trials");
        return;
    };
    println!(
        "\n=== trial {seq} (seed {:#x}) classified `{}`: {} events retained, {} dropped ===",
        dump.seed,
        dump.outcome,
        dump.events.len(),
        dump.dropped
    );

    std::fs::write(&chrome_out, dump.to_chrome_trace()).expect("write chrome trace");
    println!(
        "chrome://tracing document written to {}",
        chrome_out.display()
    );

    // Golden diff: same seed, fault-free twin, first divergence. A
    // fault-free run survives to the horizon and records more events
    // than an early-dying faulty one, so give the twin a ring big
    // enough to avoid truncation — with both streams complete, the
    // first divergence is exactly the injection's first causal effect.
    let diff_config = config.clone().with_capacity(1 << 16);
    let diff = golden_diff(campaign.scenario(), dump, &diff_config);
    println!("\n{diff}");
}
