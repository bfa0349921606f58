//! Physical memory map of the modelled board.
//!
//! Addresses follow the Allwinner A20 (the Banana Pi SoC): device
//! registers live below 0x0200_0000 and DRAM starts at 0x4000_0000.
//! The layout of the DRAM carve-outs mirrors the Jailhouse deployment
//! of the paper: the root cell owns most of RAM, a slice at the top is
//! reserved for the hypervisor itself, a second slice holds the
//! FreeRTOS (non-root) cell, and a small page between them is the
//! inter-cell shared-memory (ivshmem) region.

/// Start of DRAM.
pub const RAM_BASE: u32 = 0x4000_0000;
/// 1 GiB of DRAM, as on the paper's Banana Pi.
pub const RAM_SIZE: u32 = 0x4000_0000;

/// UART0 register block base (Allwinner A20 `UART0`).
pub const UART_BASE: u32 = 0x01c2_8000;
/// Size of the UART register block.
pub const UART_SIZE: u32 = 0x400;
/// Transmit holding register offset within the UART block.
pub const UART_THR_OFFSET: u32 = 0x0;
/// Line status register offset within the UART block.
pub const UART_LSR_OFFSET: u32 = 0x14;
/// UART interrupt line (SPI).
pub const UART_IRQ: u16 = 33;

/// Watchdog register block base (Allwinner A20 `WDT`).
pub const WDT_BASE: u32 = 0x01c2_0c90;
/// Size of the watchdog register block.
pub const WDT_SIZE: u32 = 0x10;
/// Watchdog control register offset: writing [`WDT_RESTART_KEY`]
/// restarts (feeds) the countdown.
pub const WDT_CTRL_OFFSET: u32 = 0x0;
/// Watchdog mode register offset: bit 0 enables the countdown.
pub const WDT_MODE_OFFSET: u32 = 0x4;
/// The feed key.
pub const WDT_RESTART_KEY: u32 = 0xa57;

/// GPIO (PIO) register block base.
pub const GPIO_BASE: u32 = 0x01c2_0800;
/// Size of the GPIO register block.
pub const GPIO_SIZE: u32 = 0x400;
/// Data-register offset: each bit is one pin level.
pub const GPIO_DATA_OFFSET: u32 = 0x10;
/// The green onboard LED pin the FreeRTOS blink task toggles.
pub const LED_PIN: u8 = 24;
/// The red status LED pin the root cell's heartbeat toggles.
pub const ROOT_LED_PIN: u8 = 25;

/// Root cell (Linux) RAM: the bottom 768 MiB of DRAM.
pub const ROOT_RAM_BASE: u32 = RAM_BASE;
/// Size of the root cell RAM slice.
pub const ROOT_RAM_SIZE: u32 = 0x3000_0000;

/// Inter-cell shared memory (ivshmem) page, sitting directly between
/// the root slice and the RTOS slice. Its adjacency to the RTOS cell
/// RAM matters: a single-bit corruption of an address register in the
/// non-root cell easily lands here, which is the fault-propagation
/// path behind the paper's *panic park* outcomes.
pub const IVSHMEM_BASE: u32 = ROOT_RAM_BASE + ROOT_RAM_SIZE;
/// Size of the shared-memory region.
pub const IVSHMEM_SIZE: u32 = 0x0010_0000;

/// Non-root (FreeRTOS) cell RAM slice.
pub const RTOS_RAM_BASE: u32 = IVSHMEM_BASE + IVSHMEM_SIZE;
/// Size of the non-root cell RAM slice (255 MiB minus hypervisor carve-out).
pub const RTOS_RAM_SIZE: u32 = 0x0af0_0000;

/// Hypervisor-reserved carve-out at the top of DRAM (Jailhouse's
/// `hypervisor memory` in the system configuration).
pub const HV_RAM_BASE: u32 = RTOS_RAM_BASE + RTOS_RAM_SIZE;
/// Size of the hypervisor carve-out.
pub const HV_RAM_SIZE: u32 = RAM_BASE + RAM_SIZE - HV_RAM_BASE;

/// SGI used by the hypervisor to kick a parked CPU during cell start
/// (the "CPU hot plug swap" of the paper).
pub const MGMT_SGI: u16 = 0;
/// Per-core generic-timer PPI.
pub const TIMER_IRQ: u16 = 27;
/// ivshmem doorbell interrupt (SPI).
pub const IVSHMEM_IRQ: u16 = 40;

/// Returns `true` if `addr` falls inside `[base, base + size)`.
pub fn in_region(addr: u32, base: u32, size: u32) -> bool {
    addr >= base && (addr - base) < size
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dram_carveouts_tile_exactly() {
        assert_eq!(ROOT_RAM_BASE, RAM_BASE);
        assert_eq!(IVSHMEM_BASE, ROOT_RAM_BASE + ROOT_RAM_SIZE);
        assert_eq!(RTOS_RAM_BASE, IVSHMEM_BASE + IVSHMEM_SIZE);
        assert_eq!(HV_RAM_BASE, RTOS_RAM_BASE + RTOS_RAM_SIZE);
        assert_eq!(HV_RAM_BASE + HV_RAM_SIZE, RAM_BASE.wrapping_add(RAM_SIZE));
    }

    #[test]
    fn carveouts_are_disjoint() {
        let regions = [
            (ROOT_RAM_BASE, ROOT_RAM_SIZE),
            (IVSHMEM_BASE, IVSHMEM_SIZE),
            (RTOS_RAM_BASE, RTOS_RAM_SIZE),
            (HV_RAM_BASE, HV_RAM_SIZE),
        ];
        for (i, &(base_a, size_a)) in regions.iter().enumerate() {
            for &(base_b, _) in regions.iter().skip(i + 1) {
                assert!(base_a + size_a <= base_b, "regions overlap");
            }
        }
    }

    #[test]
    fn devices_live_outside_dram() {
        // Evaluated at compile time: a layout regression fails the
        // build, not just the test run.
        const _: () = assert!(UART_BASE + UART_SIZE <= RAM_BASE);
        const _: () = assert!(GPIO_BASE + GPIO_SIZE <= RAM_BASE);
    }

    #[test]
    fn in_region_boundaries() {
        assert!(in_region(UART_BASE, UART_BASE, UART_SIZE));
        assert!(in_region(UART_BASE + UART_SIZE - 1, UART_BASE, UART_SIZE));
        assert!(!in_region(UART_BASE + UART_SIZE, UART_BASE, UART_SIZE));
        assert!(!in_region(UART_BASE - 1, UART_BASE, UART_SIZE));
    }

    #[test]
    fn ivshmem_is_adjacent_to_rtos_ram() {
        // The fault-propagation path of the panic-park outcome depends
        // on this adjacency; make it an explicit invariant.
        assert_eq!(IVSHMEM_BASE + IVSHMEM_SIZE, RTOS_RAM_BASE);
    }
}
