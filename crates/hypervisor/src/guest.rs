//! The guest interface: how cell payloads execute on the simulated
//! platform.
//!
//! Guests (the root Linux-like manager and the FreeRTOS-like RTOS) are
//! behavioural models, not instruction streams. Each scheduling slice
//! the system orchestrator gives a guest a [`GuestCtx`] through which
//! every architectural side effect flows — direct RAM accesses
//! (stage-2 checked), MMIO (trapped and emulated by the hypervisor)
//! and hypercalls. Because all guest interaction goes through the
//! hypervisor's handlers, the fault injector automatically sees the
//! same call stream the paper's instrumented Jailhouse saw.

use crate::hv::Hypervisor;
use certify_arch::CpuId;
use certify_board::Machine;
use std::fmt;

/// A guest's self-reported health, used by the outcome classifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GuestHealth {
    /// Operating normally.
    Healthy,
    /// The guest kernel panicked (root cell: "Kernel panic - not
    /// syncing", the paper's *panic park* evidence).
    Panicked,
    /// The guest took an unrecoverable internal fault and stopped
    /// making progress.
    HardFault,
    /// The guest was started at a bogus entry point and never became
    /// executable (the E2 "non-executable state").
    Broken,
}

impl GuestHealth {
    /// Whether the guest is still making progress.
    pub fn is_alive(self) -> bool {
        matches!(self, GuestHealth::Healthy)
    }
}

impl fmt::Display for GuestHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            GuestHealth::Healthy => "healthy",
            GuestHealth::Panicked => "panicked",
            GuestHealth::HardFault => "hard fault",
            GuestHealth::Broken => "broken",
        };
        f.write_str(name)
    }
}

/// Execution context handed to a guest for one scheduling slice.
pub struct GuestCtx<'a> {
    /// The CPU this guest is running on.
    pub cpu: CpuId,
    /// The board.
    pub machine: &'a mut Machine,
    /// The hypervisor.
    pub hv: &'a mut Hypervisor,
}

impl<'a> GuestCtx<'a> {
    /// Creates a context for `cpu`.
    pub fn new(cpu: CpuId, machine: &'a mut Machine, hv: &'a mut Hypervisor) -> Self {
        GuestCtx { cpu, machine, hv }
    }

    /// Current simulator step.
    pub fn now(&self) -> u64 {
        self.machine.now()
    }

    /// Issues a hypervisor call (`hvc`), returning the errno-style
    /// result.
    pub fn hvc(&mut self, code: u32, arg1: u32, arg2: u32) -> i64 {
        self.hv.handle_hvc(self.machine, self.cpu, code, arg1, arg2)
    }

    /// Performs a trapped MMIO write (the access faults to the
    /// hypervisor, which emulates it against the cell's assignment).
    pub fn mmio_write32(&mut self, addr: u32, value: u32) {
        self.hv
            .guest_mmio_write(self.machine, self.cpu, addr, value);
    }

    /// Performs a trapped MMIO read.
    pub fn mmio_read32(&mut self, addr: u32) -> u32 {
        self.hv.guest_mmio_read(self.machine, self.cpu, addr)
    }

    /// Performs a stage-2-checked direct RAM write. A violation
    /// escalates through the trap path (and, Jailhouse-style, parks
    /// the CPU).
    pub fn ram_write32(&mut self, addr: u32, value: u32) {
        self.hv.guest_ram_write(self.machine, self.cpu, addr, value);
    }

    /// Performs a stage-2-checked direct RAM read. Returns 0 when the
    /// access was denied.
    pub fn ram_read32(&mut self, addr: u32) -> u32 {
        self.hv.guest_ram_read(self.machine, self.cpu, addr)
    }

    /// Whether this CPU has been parked (a guest observing this should
    /// stop doing work; the orchestrator will too).
    pub fn parked(&self) -> bool {
        self.machine.cpu(self.cpu).is_parked()
    }

    /// Prints a string through the hypervisor debug console, one
    /// character per hypercall — the non-root cell's console path, and
    /// a major contributor to `arch_handle_hvc` traffic in golden-run
    /// profiling.
    pub fn console_print(&mut self, s: &str) {
        for byte in s.bytes() {
            if self.parked() {
                return;
            }
            self.hvc(crate::hypercall::HVC_DEBUG_CONSOLE_PUTC, u32::from(byte), 0);
        }
    }
}

impl fmt::Debug for GuestCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GuestCtx").field("cpu", &self.cpu).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_liveness() {
        assert!(GuestHealth::Healthy.is_alive());
        assert!(!GuestHealth::Panicked.is_alive());
        assert!(!GuestHealth::HardFault.is_alive());
        assert!(!GuestHealth::Broken.is_alive());
    }

    #[test]
    fn health_display() {
        assert_eq!(GuestHealth::Broken.to_string(), "broken");
        assert_eq!(GuestHealth::Panicked.to_string(), "panicked");
    }
}
