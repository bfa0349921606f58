//! E5 extension demo: turning the paper's silent failures into
//! detected events.
//!
//! Runs two scenarios side by side:
//! 1. the Figure-3 campaign with the hardware watchdog armed — panic
//!    parks are detected when the starved watchdog expires;
//! 2. the E2 boot-window scenario with the cell heartbeat and the
//!    root-side safety monitor — the inconsistent state raises an
//!    alarm instead of silently lying.
//!
//! ```sh
//! cargo run --release --example detection_demo
//! ```

use certify_analysis::ExperimentReport;
use certify_core::campaign::{Campaign, Scenario};
use certify_core::{CollectSink, Outcome};

fn main() {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);

    println!("== E5a: watchdog vs panic park ==");
    let mut sink = CollectSink::new();
    let (stats, _) =
        Campaign::new(Scenario::e5a_watchdog(), 60, 0x5A).execute(.., workers, &mut sink, None);
    println!("{stats}");
    for trial in sink
        .into_trials()
        .iter()
        .filter(|t| t.outcome == Outcome::PanicPark)
        .take(5)
    {
        match trial.report.watchdog_first_expiry {
            Some(step) => println!(
                "seed {:>4}: kernel died silently — watchdog expired at step {step}",
                trial.seed
            ),
            None => println!("seed {:>4}: PANIC UNDETECTED", trial.seed),
        }
    }
    print!("{}", ExperimentReport::e5a(&stats));

    println!("\n== E5b: heartbeat monitor vs the inconsistent state ==");
    let mut sink = CollectSink::new();
    let (stats, _) =
        Campaign::new(Scenario::e5b_monitor(), 30, 0x5B).execute(.., workers, &mut sink, None);
    println!("{stats}");
    for trial in sink.into_trials().iter().take(3) {
        println!(
            "seed {:>4}: outcome '{}', monitor alarms: {}",
            trial.seed, trial.outcome, trial.report.monitor_alarms
        );
    }
    print!("{}", ExperimentReport::e5b(&stats));
}
