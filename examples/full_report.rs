//! Regenerates the complete paper-vs-measured report (the data behind
//! EXPERIMENTS.md) in one run: E1–E4 plus the E5 extensions.
//!
//! ```sh
//! cargo run --release --example full_report
//! cargo run --release --example full_report -- --quick   # smaller campaigns
//! ```

use certify_analysis::{CsvSink, ExperimentReport, Figure3};
use certify_core::campaign::{Campaign, Scenario};
use certify_core::profiler::profile_golden_run;
use certify_core::{NullSink, TrialSink};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (dist_trials, det_trials) = if quick { (40, 12) } else { (150, 40) };
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let seed = 0xD5_2022;
    let run = |scenario: Scenario, trials: usize, sink: &mut dyn TrialSink| {
        Campaign::new(scenario, trials, seed)
            .execute(.., workers, sink, None)
            .0
    };
    let mut reports = Vec::new();

    println!("# Paper-vs-measured report\n");

    // E1
    let e1 = run(Scenario::e1_root_high(), det_trials, &mut NullSink);
    println!("{e1}");
    reports.push(ExperimentReport::e1(&e1));

    // E2 (both campaigns)
    let e2_bw = run(Scenario::e2_boot_window(), det_trials, &mut NullSink);
    println!("{e2_bw}");
    let e2_full = run(Scenario::e2_nonroot_high(), 2 * det_trials, &mut NullSink);
    println!("{e2_full}");
    reports.push(ExperimentReport::e2(&e2_bw, &e2_full));

    // E3 + Figure 3. The per-trial CSV (--csv) wants the full rows,
    // so this one campaign streams into a CSV sink as it runs; the
    // reports themselves only need the online stats.
    let mut e3_csv = CsvSink::in_memory();
    let e3 = run(Scenario::e3_fig3(), dist_trials, &mut e3_csv);
    println!("{e3}");
    let figure = Figure3::from_stats(&e3);
    println!("{}", figure.render_chart());
    reports.push(ExperimentReport::e3(&e3));

    // E4
    let profile = profile_golden_run(3000);
    println!("{profile}");
    reports.push(ExperimentReport::e4(&profile));

    // E5 extensions
    let e5a = run(Scenario::e5a_watchdog(), dist_trials, &mut NullSink);
    reports.push(ExperimentReport::e5a(&e5a));
    let e5b = run(Scenario::e5b_monitor(), det_trials, &mut NullSink);
    reports.push(ExperimentReport::e5b(&e5b));

    println!("\n# Summary\n");
    let mut all_reproduced = true;
    for report in &reports {
        println!("{report}");
        all_reproduced &= report.reproduced;
    }
    println!(
        "\nall experiments reproduced: {}",
        if all_reproduced { "YES" } else { "NO" }
    );

    // Per-trial CSV of the headline figure, for external analysis
    // (streamed row by row while the campaign ran).
    if std::env::args().any(|a| a == "--csv") {
        println!("\n# E3 per-trial CSV\n{}", e3_csv.into_csv());
    }
    if !all_reproduced {
        std::process::exit(1);
    }
}
