//! E3 as a standalone program: regenerate Figure 3.
//!
//! ```sh
//! cargo run --release --example experiment_e3 -- 150
//! ```

use certify_analysis::{ExperimentReport, Figure3};
use certify_core::campaign::{Campaign, Scenario};
use certify_core::NullSink;

fn main() {
    let trials: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(150);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let (stats, _) =
        Campaign::new(Scenario::e3_fig3(), trials, 0xE3).execute(.., workers, &mut NullSink, None);

    let figure = Figure3::from_stats(&stats);
    println!("{}", figure.render_chart());
    println!("CSV:\n{}", figure.render_csv());
    print!("{}", ExperimentReport::e3(&stats));
}
