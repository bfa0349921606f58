//! E1 as a standalone program: high-intensity injection in root-cell
//! context — every enable attempt must fail with "invalid arguments"
//! and the root cell must never be allocated.
//!
//! ```sh
//! cargo run --release --example experiment_e1 -- 40
//! ```

use certify_analysis::ExperimentReport;
use certify_core::campaign::{Campaign, Scenario};
use certify_core::CollectSink;

fn main() {
    let trials: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(40);
    let mut sink = CollectSink::new();
    let (stats, _) =
        Campaign::new(Scenario::e1_root_high(), trials, 0xE1).execute(.., 1, &mut sink, None);
    println!("{stats}");

    // Show the root-side view of one trial: the driver records the
    // rejection, the serial log carries the message.
    let trial = &sink.into_trials()[0];
    println!("--- trial seed {} ---", trial.seed);
    for injection in &trial.report.injections {
        println!("injection: {injection}");
    }
    for note in &trial.report.notes {
        println!("evidence:  {note}");
    }

    print!("{}", ExperimentReport::e1(&stats));
}
