//! Run any of the paper's fault-injection campaigns from the command
//! line — on the streamed engine: the outcome distribution folds
//! online and a small custom sink keeps only the first few
//! non-correct trials for the evidence printout, so memory stays
//! O(workers) however many trials you ask for.
//!
//! ```sh
//! cargo run --release --example fault_campaign -- e3 100
//! cargo run --release --example fault_campaign -- e1 40
//! cargo run --release --example fault_campaign -- e2 60
//! cargo run --release --example fault_campaign -- e2-boot 30
//! cargo run --release --example fault_campaign -- golden 5
//! ```

use certify_analysis::Figure3;
use certify_core::campaign::{Campaign, Scenario, TrialResult};
use certify_core::{Outcome, TrialSink};

/// Keeps the first `max` trials that didn't classify *correct* (with
/// their full reports) and drops everything else on delivery.
struct InterestingSink {
    keep: Vec<TrialResult>,
    max: usize,
}

impl TrialSink for InterestingSink {
    fn accept(&mut self, _seq: usize, trial: TrialResult) {
        if trial.outcome != Outcome::Correct && self.keep.len() < self.max {
            self.keep.push(trial);
        }
    }
}

fn usage() -> ! {
    eprintln!("usage: fault_campaign <golden|e1|e2|e2-boot|e3> [trials] [seed]");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let which = args.next().unwrap_or_else(|| "e3".into());
    let trials: usize = args
        .next()
        .map(|t| t.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(60);
    let seed: u64 = args
        .next()
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(0xD5_2022);

    let scenario = match which.as_str() {
        "golden" => Scenario::golden(3000),
        "e1" => Scenario::e1_root_high(),
        "e2" => Scenario::e2_nonroot_high(),
        "e2-boot" => Scenario::e2_boot_window(),
        "e3" => Scenario::e3_fig3(),
        _ => usage(),
    };

    println!(
        "running scenario '{}' with {trials} trials (seed {seed:#x}, streamed)…",
        scenario.name
    );
    let campaign = Campaign::new(scenario, trials, seed);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut sink = InterestingSink {
        keep: Vec::new(),
        max: 3,
    };
    let (stats, _) = campaign.execute(.., workers, &mut sink, None);
    println!("{stats}");

    if which == "e3" {
        let figure = Figure3::from_stats(&stats);
        println!("{}", figure.render_chart());
        println!("paper shape reproduced: {}", figure.matches_paper_shape());
    }

    // Show the retained interesting trials in detail.
    for trial in &sink.keep {
        println!("--- seed {} => {} ---", trial.seed, trial.outcome);
        for injection in &trial.report.injections {
            println!("  injection: {injection}");
        }
        for note in &trial.report.notes {
            println!("  evidence:  {note}");
        }
    }
}
