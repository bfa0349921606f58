//! The assembled board: CPUs, interrupt controller, timers, RAM and
//! devices behind one bus interface.
//!
//! [`Machine`] is deliberately passive — it performs accesses and
//! advances time but enforces no isolation. Partitioning (which cell
//! may touch which region) is the hypervisor's job; the machine's job
//! is to be a faithful substrate that also *records* everything the
//! experiments observe (serial bytes, LED toggles, step counts).

use crate::gpio::Gpio;
use crate::memmap;
use crate::ram::Ram;
use crate::uart::Uart;
use crate::watchdog::Watchdog;
use certify_arch::{Cpu, CpuId, GenericTimer, Gic, IrqId};
use std::fmt;

/// Default period (in simulator steps) of the per-core tick timers.
pub const DEFAULT_TIMER_PERIOD: u64 = 64;

/// A memory-mapped device, as decoded from a physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmioDevice {
    /// The serial port.
    Uart,
    /// The GPIO block.
    Gpio,
    /// The watchdog timer.
    Watchdog,
}

/// A failed bus access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusFault {
    /// No RAM or device decodes at this address.
    Unmapped {
        /// The faulting physical address.
        addr: u32,
    },
}

impl fmt::Display for BusFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusFault::Unmapped { addr } => {
                write!(f, "bus fault: no target decodes at 0x{addr:08x}")
            }
        }
    }
}

impl std::error::Error for BusFault {}

/// The dual-core board.
#[derive(Debug, Clone)]
pub struct Machine {
    cpus: Vec<Cpu>,
    /// Interrupt controller.
    pub gic: Gic,
    timers: Vec<GenericTimer>,
    ram: Ram,
    /// Serial port (public: the analysis crate reads the capture).
    pub uart: Uart,
    /// GPIO block (public: the analysis crate reads toggle counters).
    pub gpio: Gpio,
    /// Watchdog timer (public: the analysis crate reads expiries).
    pub wdt: Watchdog,
    step: u64,
    /// Step at which the per-core timers were last synchronised.
    timer_sync: u64,
    /// Absolute step of the earliest pending timer expiry (`u64::MAX`
    /// when no timer is enabled) — [`Machine::advance`] only walks the
    /// timer array at deadlines instead of every step.
    timer_next: u64,
}

impl Machine {
    /// Builds the paper's testbed: two Cortex-A7-style cores, 1 GiB of
    /// DRAM, one UART, one GPIO block, per-core tick timers.
    pub fn new_banana_pi() -> Machine {
        Machine::with_cpus(2)
    }

    /// Builds a machine with `num_cpus` cores (the memory map is
    /// unchanged). Useful for scaling experiments beyond the paper.
    ///
    /// # Panics
    ///
    /// Panics if `num_cpus` is zero.
    pub fn with_cpus(num_cpus: usize) -> Machine {
        assert!(num_cpus > 0, "a machine needs at least one CPU");
        let mut machine = Machine {
            cpus: (0..num_cpus).map(|i| Cpu::new(CpuId(i as u32))).collect(),
            gic: Gic::new(num_cpus),
            timers: (0..num_cpus)
                .map(|_| GenericTimer::new(DEFAULT_TIMER_PERIOD))
                .collect(),
            ram: Ram::new(memmap::RAM_BASE, memmap::RAM_SIZE),
            uart: Uart::new(),
            gpio: Gpio::new(),
            wdt: Watchdog::default(),
            step: 0,
            timer_sync: 0,
            timer_next: 0,
        };
        machine.gic.enable(IrqId(memmap::TIMER_IRQ));
        machine
    }

    /// Number of cores.
    pub fn num_cpus(&self) -> usize {
        self.cpus.len()
    }

    /// Immutable access to a core.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn cpu(&self, id: CpuId) -> &Cpu {
        &self.cpus[id.0 as usize]
    }

    /// Mutable access to a core.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn cpu_mut(&mut self, id: CpuId) -> &mut Cpu {
        &mut self.cpus[id.0 as usize]
    }

    /// All cores.
    pub fn cpus(&self) -> &[Cpu] {
        &self.cpus
    }

    /// The per-core tick timer.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn timer_mut(&mut self, id: CpuId) -> &mut GenericTimer {
        // Bring the timers up to the current step so the caller sees
        // live counters, and force a deadline recomputation on the
        // next advance (the caller may reconfigure the timer).
        self.sync_timers();
        self.timer_next = self.step;
        &mut self.timers[id.0 as usize]
    }

    /// Current simulator step.
    pub fn now(&self) -> u64 {
        self.step
    }

    /// Advances global time by one step and steps every core's timer,
    /// forwarding expirations to the GIC as private interrupts. Timer
    /// counters advance lazily: the array is only walked when the
    /// earliest deadline is due.
    ///
    /// Returns true when the watchdog expired on this step, so the
    /// caller can observe the bite at the step it happens instead of
    /// mining `wdt.expiries()` after the fact.
    pub fn advance(&mut self) -> bool {
        self.step += 1;
        if self.step >= self.timer_next {
            self.sync_timers();
        }
        self.wdt.step(self.step)
    }

    /// Applies the steps elapsed since the last synchronisation to
    /// every timer (firing those whose deadline is now) and recomputes
    /// the earliest deadline.
    fn sync_timers(&mut self) {
        let delta = self.step - self.timer_sync;
        self.timer_sync = self.step;
        let mut next = u64::MAX;
        for i in 0..self.timers.len() {
            if let Some(irq) = self.timers[i].advance_by(delta) {
                self.gic.raise_private(CpuId(i as u32), irq);
            }
            if let Some(remaining) = self.timers[i].steps_until_fire() {
                next = next.min(self.step + remaining);
            }
        }
        self.timer_next = next;
    }

    /// Decodes an address to its device, if it is device MMIO.
    pub fn decode_device(addr: u32) -> Option<(MmioDevice, u32)> {
        if memmap::in_region(addr, memmap::UART_BASE, memmap::UART_SIZE) {
            Some((MmioDevice::Uart, addr - memmap::UART_BASE))
        } else if memmap::in_region(addr, memmap::WDT_BASE, memmap::WDT_SIZE) {
            Some((MmioDevice::Watchdog, addr - memmap::WDT_BASE))
        } else if memmap::in_region(addr, memmap::GPIO_BASE, memmap::GPIO_SIZE) {
            Some((MmioDevice::Gpio, addr - memmap::GPIO_BASE))
        } else {
            None
        }
    }

    /// Whether `addr` decodes to RAM.
    pub fn is_ram(addr: u32) -> bool {
        memmap::in_region(addr, memmap::RAM_BASE, memmap::RAM_SIZE)
    }

    /// Reads a 32-bit word from RAM or a device.
    ///
    /// # Errors
    ///
    /// Returns [`BusFault::Unmapped`] when nothing decodes at `addr`.
    pub fn read32(&self, addr: u32) -> Result<u32, BusFault> {
        if let Some((device, offset)) = Self::decode_device(addr) {
            return Ok(match device {
                MmioDevice::Uart => self.uart.read_reg(offset),
                MmioDevice::Gpio => self.gpio.read_reg(offset),
                MmioDevice::Watchdog => self.wdt.read_reg(offset),
            });
        }
        self.ram
            .read32(addr)
            .map_err(|e| BusFault::Unmapped { addr: e.addr })
    }

    /// Writes a 32-bit word to RAM or a device.
    ///
    /// # Errors
    ///
    /// Returns [`BusFault::Unmapped`] when nothing decodes at `addr`.
    pub fn write32(&mut self, addr: u32, value: u32) -> Result<(), BusFault> {
        if let Some((device, offset)) = Self::decode_device(addr) {
            match device {
                MmioDevice::Uart => self.uart.write_reg(offset, value, self.step),
                MmioDevice::Gpio => self.gpio.write_reg(offset, value, self.step),
                MmioDevice::Watchdog => self.wdt.write_reg(offset, value),
            }
            return Ok(());
        }
        self.ram
            .write32(addr, value)
            .map_err(|e| BusFault::Unmapped { addr: e.addr })
    }

    /// Direct RAM access (no device decode) — used by the hypervisor
    /// for its own bookkeeping structures.
    pub fn ram(&self) -> &Ram {
        &self.ram
    }

    /// Mutable direct RAM access.
    pub fn ram_mut(&mut self) -> &mut Ram {
        &mut self.ram
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banana_pi_has_two_cores() {
        let machine = Machine::new_banana_pi();
        assert_eq!(machine.num_cpus(), 2);
        assert_eq!(machine.cpu(CpuId(1)).id, CpuId(1));
    }

    #[test]
    #[should_panic(expected = "at least one CPU")]
    fn zero_cpu_machine_rejected() {
        let _ = Machine::with_cpus(0);
    }

    #[test]
    fn ram_round_trip_through_bus() {
        let mut machine = Machine::new_banana_pi();
        machine
            .write32(memmap::RAM_BASE + 0x40, 0x1234_5678)
            .unwrap();
        assert_eq!(
            machine.read32(memmap::RAM_BASE + 0x40).unwrap(),
            0x1234_5678
        );
    }

    #[test]
    fn uart_write_through_bus_is_captured_with_step() {
        let mut machine = Machine::new_banana_pi();
        machine.advance();
        machine.advance();
        machine
            .write32(memmap::UART_BASE + memmap::UART_THR_OFFSET, u32::from(b'A'))
            .unwrap();
        assert_eq!(machine.uart.byte_count(), 1);
        assert_eq!(machine.uart.captured().next().unwrap().step, 2);
    }

    #[test]
    fn gpio_write_through_bus_toggles() {
        let mut machine = Machine::new_banana_pi();
        machine
            .write32(
                memmap::GPIO_BASE + memmap::GPIO_DATA_OFFSET,
                1 << memmap::LED_PIN,
            )
            .unwrap();
        assert_eq!(machine.gpio.toggle_count(memmap::LED_PIN), 1);
    }

    #[test]
    fn unmapped_access_faults() {
        let mut machine = Machine::new_banana_pi();
        assert_eq!(
            machine.read32(0x0900_0000),
            Err(BusFault::Unmapped { addr: 0x0900_0000 })
        );
        assert!(machine.write32(0x0900_0000, 1).is_err());
    }

    #[test]
    fn decode_device_finds_uart_and_gpio() {
        assert_eq!(
            Machine::decode_device(memmap::UART_BASE),
            Some((MmioDevice::Uart, 0))
        );
        assert_eq!(
            Machine::decode_device(memmap::GPIO_BASE + 0x10),
            Some((MmioDevice::Gpio, 0x10))
        );
        assert_eq!(Machine::decode_device(memmap::RAM_BASE), None);
    }

    #[test]
    fn advance_fires_timers_into_gic() {
        let mut machine = Machine::new_banana_pi();
        machine.timer_mut(CpuId(0)).start();
        for _ in 0..DEFAULT_TIMER_PERIOD {
            machine.advance();
        }
        assert!(machine.gic.has_pending(CpuId(0)));
        assert!(!machine.gic.has_pending(CpuId(1)));
    }

    #[test]
    fn timers_are_per_core() {
        let mut machine = Machine::new_banana_pi();
        machine.timer_mut(CpuId(1)).start();
        for _ in 0..DEFAULT_TIMER_PERIOD {
            machine.advance();
        }
        assert!(machine.gic.has_pending(CpuId(1)));
        assert!(!machine.gic.has_pending(CpuId(0)));
    }
}
