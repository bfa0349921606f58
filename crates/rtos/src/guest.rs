//! The RTOS cell payload: a [`Guest`] implementation that boots the
//! FreeRTOS-like kernel with the paper's workload.

use crate::kernel::Rtos;
use crate::task::TaskId;
use crate::workload;
use certify_arch::IrqId;
use certify_board::memmap;
use certify_hypervisor::{Guest, GuestCtx, GuestHealth};
use certify_obs::trace::{TraceEvent, TraceKind};
use std::fmt;

/// The non-root cell guest of the paper: FreeRTOS with the blink /
/// send-receive / float / integer task set.
#[derive(Clone)]
pub struct RtosGuest {
    kernel: Rtos,
    expected_entry: u32,
    health: GuestHealth,
    booted: bool,
    banner_printed: bool,
    /// Set when a wild hypervisor store corrupted this cell's memory:
    /// the next slice dereferences the mangled state and faults.
    pending_corruption: bool,
    /// Whether the workload includes the E5b safety-heartbeat task.
    with_heartbeat: bool,
    /// Booted, healthy, banner printed, no corruption pending: the
    /// per-slice fast path, re-derived whenever any of those change.
    steady: bool,
}

impl RtosGuest {
    /// Creates the guest for a cell whose configured entry point is
    /// `expected_entry` (usually
    /// [`certify_hypervisor::SystemConfig::freertos_cell`]'s `entry`).
    pub fn new(expected_entry: u32) -> RtosGuest {
        Self::build(expected_entry, false)
    }

    /// Like [`RtosGuest::new`], with the safety-heartbeat task added
    /// to the workload (extension experiment E5b).
    pub fn with_heartbeat(expected_entry: u32) -> RtosGuest {
        Self::build(expected_entry, true)
    }

    fn build(expected_entry: u32, with_heartbeat: bool) -> RtosGuest {
        let mut kernel = Rtos::new("freertos-demo");
        if with_heartbeat {
            workload::spawn_paper_workload_with_heartbeat(&mut kernel);
        } else {
            workload::spawn_paper_workload(&mut kernel);
        }
        RtosGuest {
            kernel,
            expected_entry,
            health: GuestHealth::Healthy,
            booted: false,
            banner_printed: false,
            pending_corruption: false,
            with_heartbeat,
            steady: false,
        }
    }

    /// Records the scheduler's pick into the hypervisor's flight
    /// recorder, if one is attached.
    fn trace_sched(ctx: &mut GuestCtx<'_>, picked: Option<TaskId>) {
        if let (Some(_), Some(task)) = (ctx.hv.recorder(), picked) {
            let step = ctx.now();
            ctx.hv.trace(TraceEvent {
                step,
                cpu: ctx.cpu.0,
                kind: TraceKind::SchedDecision,
                arg_a: task.0 as u64,
                arg_b: 0,
            });
        }
    }

    /// The guest's kernel (scheduler statistics for the analysis).
    pub fn kernel(&self) -> &Rtos {
        &self.kernel
    }

    /// Whether the guest was ever entered.
    pub fn is_booted(&self) -> bool {
        self.booted
    }
}

impl fmt::Debug for RtosGuest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RtosGuest")
            .field("health", &self.health)
            .field("booted", &self.booted)
            .finish()
    }
}

impl Guest for RtosGuest {
    fn name(&self) -> &str {
        "freertos"
    }

    fn step(&mut self, ctx: &mut GuestCtx<'_>) {
        // Hot path: a healthy, booted, banner-printed guest just runs
        // its next slice.
        if self.steady {
            let picked = self.kernel.run_slice(ctx);
            Self::trace_sched(ctx, picked);
            if ctx.parked() {
                self.health = GuestHealth::HardFault;
                self.steady = false;
            }
            return;
        }
        if !self.booted || !self.health.is_alive() {
            // A broken or never-booted guest produces nothing — the
            // blank USART of experiment E2.
            return;
        }
        if self.pending_corruption {
            // The mangled kernel structure is dereferenced: a wild
            // store escapes the cell and the stage-2 violation parks
            // the CPU (fault contained to this cell).
            self.pending_corruption = false;
            self.health = GuestHealth::HardFault;
            ctx.ram_write32(memmap::ROOT_RAM_BASE + 0x10, 0xdead_dead);
            return;
        }
        if !self.banner_printed {
            self.banner_printed = true;
            let line = format!(
                "[rtos] FreeRTOS boot: {} tasks ready\n",
                self.kernel.task_count()
            );
            ctx.console_print(&line);
            if ctx.parked() {
                return;
            }
        }
        self.steady = true;
        let picked = self.kernel.run_slice(ctx);
        Self::trace_sched(ctx, picked);
        if ctx.parked() {
            // The slice triggered an unrecoverable trap; stop making
            // progress.
            self.health = GuestHealth::HardFault;
            self.steady = false;
        }
    }

    fn on_tick(&mut self, _ctx: &mut GuestCtx<'_>) {
        if self.booted && self.health.is_alive() {
            self.kernel.tick();
        }
    }

    fn on_irq(&mut self, _irq: IrqId, _ctx: &mut GuestCtx<'_>) {
        // The workload uses no SPIs; ivshmem doorbells are absorbed.
    }

    fn on_reset(&mut self, entry: u32) {
        // A (re)start reloads the image: fresh kernel, fresh banner.
        // The very first boot of a never-entered guest reuses the
        // pristine kernel built at construction instead of spawning
        // the whole task set again (per-trial setup cost).
        if self.booted || self.kernel.total_slices() > 0 || self.kernel.tick_count() > 0 {
            let mut kernel = Rtos::new("freertos-demo");
            if self.with_heartbeat {
                workload::spawn_paper_workload_with_heartbeat(&mut kernel);
            } else {
                workload::spawn_paper_workload(&mut kernel);
            }
            self.kernel = kernel;
        }
        self.banner_printed = false;
        self.pending_corruption = false;
        self.steady = false;
        self.booted = true;
        if entry == self.expected_entry {
            self.health = GuestHealth::Healthy;
        } else {
            // Entered at a corrupted address: never becomes
            // executable (E2's second leg).
            self.health = GuestHealth::Broken;
        }
    }

    fn on_memory_corrupted(&mut self) {
        if self.health.is_alive() {
            self.pending_corruption = true;
            self.steady = false;
        }
    }

    fn health(&self) -> GuestHealth {
        self.health
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certify_arch::CpuId;
    use certify_board::Machine;
    use certify_hypervisor::{Hypervisor, SystemConfig};

    fn ctx_parts() -> (Machine, Hypervisor) {
        let machine = Machine::new_banana_pi();
        let hv = Hypervisor::new(SystemConfig::banana_pi_demo());
        (machine, hv)
    }

    #[test]
    fn unbooted_guest_is_silent() {
        let (mut machine, mut hv) = ctx_parts();
        let mut guest = RtosGuest::new(0x7010_8000);
        let mut ctx = GuestCtx::new(CpuId(1), &mut machine, &mut hv);
        guest.step(&mut ctx);
        assert_eq!(machine.uart.byte_count(), 0);
        assert!(!guest.is_booted());
    }

    #[test]
    fn reset_at_expected_entry_boots_healthy() {
        let mut guest = RtosGuest::new(0x7010_8000);
        guest.on_reset(0x7010_8000);
        assert!(guest.is_booted());
        assert_eq!(guest.health(), GuestHealth::Healthy);
    }

    #[test]
    fn reset_at_wrong_entry_is_broken_and_silent() {
        let (mut machine, mut hv) = ctx_parts();
        let mut guest = RtosGuest::new(0x7010_8000);
        guest.on_reset(0x7010_8010);
        assert_eq!(guest.health(), GuestHealth::Broken);
        let mut ctx = GuestCtx::new(CpuId(1), &mut machine, &mut hv);
        guest.step(&mut ctx);
        guest.step(&mut ctx);
        // The blank-USART signature of E2.
        assert_eq!(machine.uart.byte_count(), 0);
    }

    #[test]
    fn memory_corruption_leads_to_contained_hard_fault() {
        let (mut machine, mut hv) = ctx_parts();
        let mut guest = RtosGuest::new(0x7010_8000);
        guest.on_reset(0x7010_8000);
        guest.on_memory_corrupted();
        let mut ctx = GuestCtx::new(CpuId(1), &mut machine, &mut hv);
        guest.step(&mut ctx);
        assert_eq!(guest.health(), GuestHealth::HardFault);
    }

    #[test]
    fn corruption_after_death_is_ignored() {
        let mut guest = RtosGuest::new(0x7010_8000);
        guest.on_reset(0x7010_9999);
        assert_eq!(guest.health(), GuestHealth::Broken);
        guest.on_memory_corrupted();
        assert!(!guest.pending_corruption);
    }
}
