//! E2 as a standalone program: the inconsistent cell state.
//!
//! Walks through one boot-window-aligned trial in full anatomy: the
//! injection on the cell-boot hypercall, the blank USART, the cell
//! still reported running, and the successful resource reclamation.
//!
//! ```sh
//! cargo run --release --example experiment_e2
//! ```

use certify_arch::CpuId;
use certify_core::campaign::Scenario;
use certify_core::{classify, System};
use certify_guest_linux::MgmtScript;
use certify_hypervisor::hypercall as hc;
use certify_hypervisor::CellState;

fn main() {
    // Build the system by hand so we can interleave checks.
    let mut system = System::new(MgmtScript::bring_up_and_run(2000));
    let spec = certify_core::InjectionSpec::e2_boot_window();
    system.install_injector(spec, 0xE2);
    system.run(2500);

    println!("== injections ==");
    for record in system.injections() {
        println!("{record}");
    }

    let cell = system.rtos_cell().expect("cell created");
    let state = system.hv.cell(cell).unwrap().state();
    let start = system.cell_start_step().unwrap_or(0);
    println!("\n== the inconsistent state ==");
    println!("cell state reported by the hypervisor: {state}");
    println!(
        "USART output from the cell since start:  {} lines (blank = {})",
        system.rtos_output_since(start),
        system.rtos_output_since(start) == 0
    );
    println!(
        "cpu1 park state: {:?}",
        system
            .machine
            .cpu(CpuId(1))
            .park_reason()
            .map(|r| r.to_string())
    );
    println!("boot hypercalls rejected: {}", system.boot_failures());
    assert_eq!(state, CellState::Running, "hypervisor believes it runs");

    println!("\n== timeline around the injection ==");
    let timeline = certify_analysis::Timeline::build(
        system.injections(),
        system.hv.events(),
        &system.serial_lines(),
    );
    if let Some(injection) = system.injections().first() {
        for entry in timeline.around(injection.step, 40) {
            println!("{entry}");
        }
    }

    println!("\n== classification ==");
    print!("{}", classify(&system));

    println!("== recovery: shutdown returns the resources ==");
    let ret = system.hv.handle_hvc(
        &mut system.machine,
        CpuId(0),
        hc::HVC_CELL_SHUTDOWN,
        cell.0,
        0,
    );
    println!("cell_shutdown -> {ret}");
    println!("cpu1 owner: {:?}", system.hv.cpu_owner(CpuId(1)));
    assert_eq!(ret, 0);

    // And the campaign view:
    println!("\n== campaign view (30 aligned trials) ==");
    let result = certify_core::Campaign::new(Scenario::e2_boot_window(), 30, 7).run();
    println!("{result}");
}
