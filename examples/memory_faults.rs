//! E6 — the memory-fault campaign: sweep fault model × target region.
//!
//! Runs a seeded campaign for every memory fault model against every
//! E6 target region (non-root RAM, stage-2 translation tables, the
//! communication region), each in parallel **on the streamed engine**
//! (trials fold into `CampaignStats` as they complete; only
//! O(workers) reports are ever resident), and prints:
//!
//! * the per-(model, region) outcome distribution,
//! * the aggregated per-region outcome distribution as CSV,
//! * a full per-trial CSV (with the `applied_faults` column) for the
//!   mixed-region campaign, streamed row by row to stdout.
//!
//! ```sh
//! cargo run --release --example memory_faults            # 12 trials per cell
//! cargo run --release --example memory_faults -- 30 7    # trials, seed
//! ```

use certify_analysis::CsvSink;
use certify_core::campaign::{Campaign, Scenario};
use certify_core::memfault::{MemFaultModel, MemRegionKind, MemTarget};
use certify_core::{NullSink, Outcome};
use std::collections::BTreeMap;

fn main() {
    let mut args = std::env::args().skip(1);
    let trials: usize = args.next().and_then(|t| t.parse().ok()).unwrap_or(12);
    let seed: u64 = args
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xE6_2022);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);

    let regions = [
        MemRegionKind::NonRootRam,
        MemRegionKind::Stage2Tables,
        MemRegionKind::CommRegion,
    ];
    let models = MemFaultModel::e6_models();

    println!(
        "E6 memory-fault sweep: {} models x {} regions, {trials} trials each (seed {seed:#x}, {workers} workers, streamed)",
        models.len(),
        regions.len(),
    );

    // region -> outcome -> count, aggregated over all models.
    let mut per_region: BTreeMap<(MemRegionKind, Outcome), usize> = BTreeMap::new();

    for model in &models {
        for region in regions {
            let scenario = Scenario::e6_memory(model.clone(), MemTarget::only(region));
            let (stats, _) =
                Campaign::new(scenario, trials, seed).execute(.., workers, &mut NullSink, None);
            print!(
                "\n--- {model} x {region} ({} of {trials} trials injected) ---\n{stats}",
                stats.mem_injected_trials
            );
            for ((r, outcome), count) in &stats.mem_region_distribution {
                *per_region.entry((*r, *outcome)).or_insert(0) += count;
            }
        }
    }

    println!("\n==== per-region outcome distribution (CSV) ====");
    println!("region,outcome,trials");
    for ((region, outcome), count) in &per_region {
        println!("{region},\"{outcome}\",{count}");
    }

    // One mixed-region campaign, exported per-trial with the
    // applied_faults column: rows stream to stdout as trials finish,
    // each report dropped after its row.
    println!("\n==== mixed-region single-bit-flip campaign (per-trial CSV, streamed) ====");
    let stdout = std::io::stdout();
    let mut csv = CsvSink::new(stdout.lock()).expect("stdout writable");
    let (mixed, _) = Campaign::new(
        Scenario::e6_memory(MemFaultModel::SingleBitFlip, MemTarget::e6()),
        trials,
        seed,
    )
    .execute(.., workers, &mut csv, None);
    let rows = csv.rows();
    drop(csv.finish().expect("stdout writable"));
    assert_eq!(rows, mixed.trials, "one CSV row per trial");

    // The sweep must have exercised every region.
    for region in regions {
        assert!(
            per_region.keys().any(|(r, _)| *r == region),
            "region {region} never had a fault applied"
        );
    }
}
