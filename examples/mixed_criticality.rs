//! Mixed-criticality isolation demo: what the partitioning hypervisor
//! promises, shown on the live system.
//!
//! Demonstrates, on a running root-Linux + FreeRTOS deployment:
//! 1. both criticality domains make progress concurrently;
//! 2. an isolation violation from the non-root cell is contained
//!    (the CPU parks, the root cell keeps running);
//! 3. the root cell reclaims the CPU and peripherals with
//!    `cell shutdown` + `cell destroy` and the memory is scrubbed.
//!
//! ```sh
//! cargo run --release --example mixed_criticality
//! ```

use certify_arch::CpuId;
use certify_board::memmap;
use certify_core::System;
use certify_guest_linux::MgmtScript;
use certify_hypervisor::hypercall as hc;
use certify_hypervisor::CellState;

fn main() {
    let mut system = System::new(MgmtScript::bring_up_and_run(u64::MAX / 2));
    system.run(2500);

    let cell = system.rtos_cell().expect("cell created");
    println!("== phase 1: both domains alive ==");
    println!(
        "cell {cell} state: {}",
        system.hv.cell(cell).unwrap().state()
    );
    println!("rtos LED toggles:  {}", system.rtos_led_toggles());
    println!(
        "root heartbeat LED: {}",
        system.machine.gpio.toggle_count(memmap::ROOT_LED_PIN)
    );
    println!(
        "rtos kernel slices: {}",
        system.rtos.kernel().total_slices()
    );

    println!("\n== phase 2: the non-root cell violates isolation ==");
    // Reach into the running system and make the rtos cell touch root
    // memory, exactly like a wild pointer would.
    system.hv.guest_ram_write(
        &mut system.machine,
        CpuId(1),
        memmap::ROOT_RAM_BASE + 64,
        0xbad,
    );
    println!(
        "cpu1 parked: {:?}",
        system
            .machine
            .cpu(CpuId(1))
            .park_reason()
            .map(|r| r.to_string())
    );
    println!("cell state now: {}", system.hv.cell(cell).unwrap().state());

    // The root cell keeps going.
    let root_led_before = system.machine.gpio.toggle_count(memmap::ROOT_LED_PIN);
    system.run(500);
    let root_led_after = system.machine.gpio.toggle_count(memmap::ROOT_LED_PIN);
    println!(
        "root cell still beating: {} -> {} heartbeat toggles",
        root_led_before, root_led_after
    );
    assert!(root_led_after > root_led_before);

    println!("\n== phase 3: reclaim and scrub ==");
    let ret = system.hv.handle_hvc(
        &mut system.machine,
        CpuId(0),
        hc::HVC_CELL_SHUTDOWN,
        cell.0,
        0,
    );
    println!("cell_shutdown -> {ret}");
    assert_eq!(ret, 0);
    println!(
        "cpu1 owner back to root: {:?}",
        system.hv.cpu_owner(CpuId(1))
    );
    assert_eq!(system.hv.cell(cell).unwrap().state(), CellState::ShutDown);

    let probe = memmap::RTOS_RAM_BASE + 0x40;
    let ret = system.hv.handle_hvc(
        &mut system.machine,
        CpuId(0),
        hc::HVC_CELL_DESTROY,
        cell.0,
        0,
    );
    println!("cell_destroy -> {ret}");
    assert_eq!(ret, 0);
    println!(
        "cell RAM scrubbed: word at 0x{probe:08x} = {:#x}",
        system.machine.ram().read32(probe).unwrap()
    );
    println!("\nroot cell health at the end: {}", system.linux.health());
}
