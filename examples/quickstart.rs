//! Quickstart: boot the paper's mixed-criticality testbed, run it
//! fault-free, and look at every observation channel.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use certify_core::campaign::Scenario;
use certify_core::profiler::profile_system;
use certify_core::{classify, System};
use certify_guest_linux::MgmtScript;

fn main() {
    // The golden scenario: Linux root cell enables the hypervisor,
    // hands CPU 1 over, and brings up the FreeRTOS cell with the
    // paper's 20-task workload.
    let mut system = System::new(MgmtScript::bring_up_and_run(3000));
    system.run(4000);

    println!("=== serial console (first 20 lines) ===");
    for (step, line) in system.serial_lines().into_iter().take(20) {
        println!("{step:>6} | {line}");
    }

    println!("\n=== observation channels ===");
    println!(
        "LED toggles (FreeRTOS blink task): {}",
        system.rtos_led_toggles()
    );
    println!(
        "RTOS serial lines since cell start: {}",
        system
            .cell_start_step()
            .map(|s| system.rtos_output_since(s))
            .unwrap_or(0)
    );
    println!("hypervisor events recorded: {}", system.hv.events().len());

    println!("\n=== golden-run handler profile (E4) ===");
    print!("{}", profile_system(&system, system.steps_run()));

    println!("=== classification ===");
    let report = classify(&system);
    print!("{report}");

    // The same thing, as one call:
    let trial = Scenario::golden(3000).runner().run_trial(0);
    println!("\none-call golden trial outcome: {}", trial.outcome);
}
