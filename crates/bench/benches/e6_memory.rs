//! E6 — memory-fault campaigns: model × region sweep over the memory
//! fault subsystem (the "wider and customizable set of fault models"
//! of the paper's future work, applied to RAM, stage-2 translation
//! tables and the communication region).
//!
//! Expected shape: RAM faults into the mostly-untouched non-root slice
//! are dominated by *silent data corruption*; stage-2 descriptor
//! corruption escalates to *translation fault storms*; comm-region
//! corruption either stays silent (a lying `cell list`) or kills the
//! cell outright when live words are hit.
//!
//! Regenerate with `cargo bench -p certify_bench --bench e6_memory`.
//!
//! This sweep is the bench suite's largest campaign volume, so it
//! runs on the streamed engine: trials fold into `CampaignStats` as
//! they complete and only O(workers) reports are ever resident.

use certify_bench::{banner, run_and_print_streamed, BASE_SEED};
use certify_core::campaign::{Campaign, Scenario};
use certify_core::memfault::{MemFaultModel, MemRegionKind, MemTarget};
use certify_core::{NullSink, Outcome};
use criterion::{black_box, Criterion};

const TRIALS: usize = 40;

fn regenerate() {
    banner("E6: memory faults — model x region sweep (streamed)");
    let regions = [
        MemRegionKind::NonRootRam,
        MemRegionKind::Stage2Tables,
        MemRegionKind::CommRegion,
    ];
    let mut storms = 0usize;
    let mut silent = 0usize;
    for model in MemFaultModel::e6_models() {
        for region in regions {
            let scenario = Scenario::e6_memory(model.clone(), MemTarget::only(region));
            println!("\n--- {model} x {region} ---");
            let stats = run_and_print_streamed(scenario, TRIALS);
            assert!(
                stats.mem_injected_trials > 0,
                "{model} x {region}: no trial applied a memory fault"
            );
            storms += stats.count(Outcome::TranslationFaultStorm);
            silent += stats.count(Outcome::SilentDataCorruption);
        }
    }
    println!("\nsweep totals: {storms} translation-fault storms, {silent} silent corruptions");
    assert!(storms > 0, "no stage-2 corruption escalated to a storm");
    assert!(silent > 0, "no fault stayed silent");

    banner("E6b: mixed register+memory campaign (E7)");
    let (mixed, _) =
        Campaign::new(Scenario::e7_mixed(), TRIALS, BASE_SEED).execute(.., 8, &mut NullSink, None);
    println!("{mixed}");
    assert!(mixed.injected_trials > 0);
    assert!(mixed.mem_injected_trials > 0);
}

fn main() {
    regenerate();
    let mut criterion = Criterion::default().configure_from_args().sample_size(10);
    // Per-trial timings use a prepared runner, as campaigns do: the
    // script/spec Arcs are built once, not per trial.
    let runner = Scenario::e6_memory(MemFaultModel::SingleBitFlip, MemTarget::e6()).runner();
    criterion.bench_function("e6_single_trial", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(runner.run_trial(seed))
        });
    });
    let mixed = Scenario::e7_mixed().runner();
    criterion.bench_function("e7_mixed_single_trial", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(mixed.run_trial(seed))
        });
    });
    criterion.final_summary();
}
