//! Property-based tests for the hypervisor.

use certify_arch::CpuId;
use certify_board::{memmap, Machine};
use certify_hypervisor::hypercall as hc;
use certify_hypervisor::{
    CellConfig, CellId, CellState, HvError, Hypervisor, MemFlags, MemRegion, SystemConfig,
};
use proptest::prelude::*;

fn enabled_system() -> (Machine, Hypervisor) {
    let mut machine = Machine::new_banana_pi();
    machine.cpu_mut(CpuId(0)).power_on();
    machine.cpu_mut(CpuId(1)).power_on();
    let platform = SystemConfig::banana_pi_demo();
    let mut hv = Hypervisor::new(platform.clone());
    let addr = memmap::ROOT_RAM_BASE + 0x0100_0000;
    hv.stage_blob(&mut machine, addr, &platform.serialize());
    assert_eq!(
        hv.handle_hvc(&mut machine, CpuId(0), hc::HVC_HYPERVISOR_ENABLE, addr, 0),
        0
    );
    (machine, hv)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Configuration blobs survive arbitrary-field round trips, and
    /// any single bit flip anywhere in the blob is rejected.
    #[test]
    fn config_serialization_round_trips_and_rejects_corruption(
        name_len in 1usize..16,
        entry_page in 0u32..1000,
        num_regions in 1usize..5,
        flip_byte_frac in 0.0f64..1.0,
        flip_bit in 0u8..8,
    ) {
        let mut regions = Vec::new();
        for i in 0..num_regions {
            regions.push(MemRegion::new(
                memmap::RTOS_RAM_BASE + (i as u32) * 0x10_0000,
                0x1000,
                MemFlags::rwx(),
            ));
        }
        let config = CellConfig {
            name: "x".repeat(name_len),
            cpus: vec![CpuId(1)],
            regions,
            irqs: vec![],
            entry: memmap::RTOS_RAM_BASE + entry_page * 4,
        };
        prop_assume!(config.validate().is_ok());

        let blob = config.serialize();
        prop_assert_eq!(CellConfig::deserialize(&blob).unwrap(), config);

        let byte = ((blob.len() - 1) as f64 * flip_byte_frac) as usize;
        let mut corrupted = blob.clone();
        corrupted[byte] ^= 1 << flip_bit;
        prop_assert!(CellConfig::deserialize(&corrupted).is_err());
    }

    /// The stage-2 check never grants a non-root cell access outside
    /// its configured regions.
    #[test]
    fn stage2_never_leaks_foreign_memory(addr in any::<u32>()) {
        let (mut machine, mut hv) = enabled_system();
        // Bring up the rtos cell.
        hv.handle_hvc(&mut machine, CpuId(1), hc::HVC_CPU_OFF, 0, 0);
        let blob = memmap::ROOT_RAM_BASE + 0x0200_0000;
        hv.stage_blob(&mut machine, blob, &SystemConfig::freertos_cell().serialize());
        let id = hv.handle_hvc(&mut machine, CpuId(0), hc::HVC_CELL_CREATE, blob, 0);
        prop_assert!(id > 0);

        let config = SystemConfig::freertos_cell();
        let allowed = hv.stage2_allows(CpuId(1), addr, true);
        let in_config = config
            .regions
            .iter()
            .any(|r| r.contains_addr(addr) && !r.flags.contains(MemFlags::IO));
        prop_assert_eq!(allowed, in_config, "addr {:#010x}", addr);
    }

    /// Unknown hypercall codes are always cleanly rejected, whatever
    /// the arguments, with no state change.
    #[test]
    fn unknown_hypercalls_never_have_side_effects(
        code in 9u32..100,
        a1 in any::<u32>(),
        a2 in any::<u32>(),
    ) {
        prop_assume!(certify_hypervisor::hypercall::name(code) == "unknown");
        let (mut machine, mut hv) = enabled_system();
        let cells_before: Vec<CellId> = hv.cells().map(|c| c.id).collect();
        let ret = hv.handle_hvc(&mut machine, CpuId(0), code, a1, a2);
        prop_assert_eq!(ret, HvError::UnknownHypercall.code());
        let cells_after: Vec<CellId> = hv.cells().map(|c| c.id).collect();
        prop_assert_eq!(cells_before, cells_after);
        prop_assert!(hv.is_enabled());
        prop_assert!(hv.panicked().is_none());
    }

    /// Cell lifecycle safety: random management-call sequences never
    /// panic the hypervisor, never destroy the root cell, and keep
    /// the CPU-ownership map consistent with the live cells.
    #[test]
    fn random_management_sequences_preserve_invariants(
        ops in proptest::collection::vec(0u8..6, 1..25),
    ) {
        let (mut machine, mut hv) = enabled_system();
        hv.handle_hvc(&mut machine, CpuId(1), hc::HVC_CPU_OFF, 0, 0);
        let blob = memmap::ROOT_RAM_BASE + 0x0200_0000;
        hv.stage_blob(&mut machine, blob, &SystemConfig::freertos_cell().serialize());

        for op in ops {
            match op {
                0 => {
                    let _ = hv.handle_hvc(&mut machine, CpuId(0), hc::HVC_CELL_CREATE, blob, 0);
                }
                1 => {
                    let _ = hv.handle_hvc(&mut machine, CpuId(0), hc::HVC_CELL_SET_LOADABLE, 1, 0);
                }
                2 => {
                    let _ = hv.handle_hvc(&mut machine, CpuId(0), hc::HVC_CELL_START, 1, 0);
                }
                3 => {
                    let _ = hv.handle_hvc(&mut machine, CpuId(0), hc::HVC_CELL_SHUTDOWN, 1, 0);
                }
                4 => {
                    let _ = hv.handle_hvc(&mut machine, CpuId(0), hc::HVC_CELL_DESTROY, 1, 0);
                }
                _ => {
                    let _ = hv.handle_hvc(&mut machine, CpuId(0), hc::HVC_HYPERVISOR_GET_INFO, 0, 0);
                }
            }
            // Invariants after every step:
            prop_assert!(hv.panicked().is_none());
            prop_assert!(hv.cell(CellId(0)).is_some(), "root cell vanished");
            prop_assert_eq!(hv.cell(CellId(0)).unwrap().state(), CellState::Running);
            for cpu in [CpuId(0), CpuId(1)] {
                if let Some(owner) = hv.cpu_owner(cpu) {
                    prop_assert!(
                        hv.cell(owner).is_some(),
                        "{} owned by dead {}", cpu, owner
                    );
                }
            }
            prop_assert_eq!(hv.cpu_owner(CpuId(0)), Some(CellId(0)));
        }
    }

    /// The debug console accepts every byte value and transmits it
    /// verbatim.
    #[test]
    fn console_putc_transmits_all_bytes(byte in 0u32..256) {
        let (mut machine, mut hv) = enabled_system();
        let before = machine.uart.byte_count();
        let ret = hv.handle_hvc(&mut machine, CpuId(0), hc::HVC_DEBUG_CONSOLE_PUTC, byte, 0);
        prop_assert_eq!(ret, 0);
        prop_assert_eq!(machine.uart.byte_count(), before + 1);
        prop_assert_eq!(machine.uart.captured().last().unwrap().byte, byte as u8);
    }
}
