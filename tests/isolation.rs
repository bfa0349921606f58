//! Integration: the isolation and integrity guarantees the paper sets
//! out to verify, exercised end to end.

use certify_arch::cpu::ParkReason;
use certify_arch::CpuId;
use certify_board::memmap;
use certify_core::System;
use certify_guest_linux::MgmtScript;
use certify_hypervisor::hypercall as hc;
use certify_hypervisor::{CellState, GuestHealth};

fn running_system() -> System {
    let mut system = System::new(MgmtScript::bring_up_and_run(u64::MAX / 2));
    system.run(2000);
    assert!(system.hv.is_enabled());
    assert_eq!(system.rtos.health(), GuestHealth::Healthy);
    system
}

#[test]
fn nonroot_cannot_read_root_memory() {
    let mut system = running_system();
    system
        .hv
        .guest_ram_read(&mut system.machine, CpuId(1), memmap::ROOT_RAM_BASE + 0x100);
    assert_eq!(
        system.machine.cpu(CpuId(1)).park_reason(),
        Some(ParkReason::UnhandledTrap(0x24))
    );
}

#[test]
fn nonroot_cannot_write_hypervisor_memory() {
    let mut system = running_system();
    system
        .hv
        .guest_ram_write(&mut system.machine, CpuId(1), memmap::HV_RAM_BASE + 8, 1);
    assert!(system.machine.cpu(CpuId(1)).is_parked());
    // The root cell is unaffected.
    let before = system.machine.gpio.toggle_count(memmap::ROOT_LED_PIN);
    system.run(300);
    assert!(system.machine.gpio.toggle_count(memmap::ROOT_LED_PIN) > before);
}

#[test]
fn nonroot_cannot_touch_root_uart() {
    let mut system = running_system();
    let cell = system.rtos_cell().unwrap();
    system
        .hv
        .guest_mmio_write(&mut system.machine, CpuId(1), memmap::UART_BASE, 0x41);
    assert_eq!(
        system.machine.cpu(CpuId(1)).park_reason(),
        Some(ParkReason::UnhandledTrap(0x24))
    );
    assert_eq!(system.hv.cell(cell).unwrap().state(), CellState::Failed);
}

#[test]
fn violation_is_contained_and_cell_recoverable() {
    // The paper's E3 CPU-park conclusion: "the destruction of the
    // non-root cell, which brings the CPU core 1 control back to the
    // root cell, is accomplished without any issue".
    let mut system = running_system();
    let cell = system.rtos_cell().unwrap();
    system
        .hv
        .guest_ram_write(&mut system.machine, CpuId(1), memmap::ROOT_RAM_BASE, 7);
    assert!(system.machine.cpu(CpuId(1)).is_parked());

    // Root cell destroys the failed cell.
    let ret = system.hv.handle_hvc(
        &mut system.machine,
        CpuId(0),
        hc::HVC_CELL_DESTROY,
        cell.0,
        0,
    );
    assert_eq!(ret, 0);
    assert_eq!(
        system.hv.cpu_owner(CpuId(1)),
        Some(certify_hypervisor::cell::ROOT_CELL)
    );
    assert!(system.hv.cell(cell).is_none());

    // And can re-create it from scratch.
    let blob_addr = memmap::ROOT_RAM_BASE + 0x0300_0000;
    let config = certify_hypervisor::SystemConfig::freertos_cell();
    system
        .hv
        .stage_blob(&mut system.machine, blob_addr, &config.serialize());
    let id = system.hv.handle_hvc(
        &mut system.machine,
        CpuId(0),
        hc::HVC_CELL_CREATE,
        blob_addr,
        0,
    );
    assert!(id > 0, "re-create failed: {id}");
}

#[test]
fn shutdown_returns_cpu_and_peripherals() {
    let mut system = running_system();
    let cell = system.rtos_cell().unwrap();
    let ret = system.hv.handle_hvc(
        &mut system.machine,
        CpuId(0),
        hc::HVC_CELL_SHUTDOWN,
        cell.0,
        0,
    );
    assert_eq!(ret, 0);
    assert_eq!(
        system.hv.cpu_owner(CpuId(1)),
        Some(certify_hypervisor::cell::ROOT_CELL)
    );
    assert_eq!(system.hv.cell(cell).unwrap().state(), CellState::ShutDown);
    assert!(system.machine.cpu(CpuId(1)).is_parked());
    // The ivshmem doorbell line was released.
    assert_eq!(
        system
            .machine
            .gic
            .targeted_cpu(certify_arch::IrqId(memmap::IVSHMEM_IRQ)),
        None
    );
}

#[test]
fn destroy_scrubs_cell_memory() {
    let mut system = running_system();
    let cell = system.rtos_cell().unwrap();
    let secret_addr = memmap::RTOS_RAM_BASE + 0x500;
    system
        .hv
        .guest_ram_write(&mut system.machine, CpuId(1), secret_addr, 0x5ec2_e700);
    assert_eq!(
        system.machine.ram().read32(secret_addr).unwrap(),
        0x5ec2_e700
    );
    system.hv.handle_hvc(
        &mut system.machine,
        CpuId(0),
        hc::HVC_CELL_DESTROY,
        cell.0,
        0,
    );
    assert_eq!(system.machine.ram().read32(secret_addr).unwrap(), 0);
}

#[test]
fn shared_memory_stays_shared_until_destroy() {
    let mut system = running_system();
    let addr = memmap::IVSHMEM_BASE + 0x20;
    system
        .hv
        .guest_ram_write(&mut system.machine, CpuId(1), addr, 0xfeed);
    assert_eq!(
        system
            .hv
            .guest_ram_read(&mut system.machine, CpuId(0), addr),
        0xfeed
    );
    // Not scrubbed on destroy (shared region belongs to the root too).
    let cell = system.rtos_cell().unwrap();
    system.hv.handle_hvc(
        &mut system.machine,
        CpuId(0),
        hc::HVC_CELL_DESTROY,
        cell.0,
        0,
    );
    assert_eq!(system.machine.ram().read32(addr).unwrap(), 0xfeed);
}

#[test]
fn nonroot_cell_cannot_issue_management_hypercalls() {
    let mut system = running_system();
    for (code, arg) in [
        (hc::HVC_CELL_CREATE, memmap::RTOS_RAM_BASE),
        (hc::HVC_CELL_DESTROY, 0),
        (hc::HVC_CELL_SHUTDOWN, 0),
        (hc::HVC_HYPERVISOR_DISABLE, 0),
    ] {
        let ret = system
            .hv
            .handle_hvc(&mut system.machine, CpuId(1), code, arg, 0);
        assert!(ret < 0, "management call {code} allowed from non-root");
    }
    // And the cell is still healthy — rejections are clean.
    assert!(!system.machine.cpu(CpuId(1)).is_parked());
}
