//! Injection hooks: the "dozen lines of code added to Jailhouse".
//!
//! The paper instruments the hypervisor so that, at the entry of each
//! profiled handler, a test orchestrator can observe the call and
//! corrupt the live register context. This module is that patch,
//! promoted to a first-class API: the hypervisor invokes the installed
//! [`InjectionHook`] with a [`HookCtx`] giving the handler identity,
//! the calling CPU, the simulator step and mutable access to the
//! register file. A hook that fires on a call cadence counts the calls
//! itself.
//!
//! The `certify-core` crate implements the hook with the paper's fault
//! models and intensity plans; golden runs simply install no hook.

use certify_arch::{CpuId, RegisterFile};
use std::any::Any;
use std::fmt;

/// The three handlers identified by the paper's golden-run profiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HandlerKind {
    /// `irqchip_handle_irq()` — hardware interrupt dispatch.
    IrqchipHandleIrq,
    /// `arch_handle_trap()` — trap/exception handling (MMIO emulation,
    /// aborts).
    ArchHandleTrap,
    /// `arch_handle_hvc()` — hypervisor call dispatch.
    ArchHandleHvc,
}

impl HandlerKind {
    /// All handlers, in profiling-report order.
    pub const ALL: [HandlerKind; 3] = [
        HandlerKind::IrqchipHandleIrq,
        HandlerKind::ArchHandleTrap,
        HandlerKind::ArchHandleHvc,
    ];

    /// Dense index of this handler in [`HandlerKind::ALL`] — used for
    /// flat per-handler tables on hot paths.
    pub fn index(self) -> usize {
        match self {
            HandlerKind::IrqchipHandleIrq => 0,
            HandlerKind::ArchHandleTrap => 1,
            HandlerKind::ArchHandleHvc => 2,
        }
    }

    /// The C function name used in the paper.
    pub fn function_name(self) -> &'static str {
        match self {
            HandlerKind::IrqchipHandleIrq => "irqchip_handle_irq",
            HandlerKind::ArchHandleTrap => "arch_handle_trap",
            HandlerKind::ArchHandleHvc => "arch_handle_hvc",
        }
    }
}

impl fmt::Display for HandlerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.function_name())
    }
}

/// Context passed to an [`InjectionHook`] at handler entry.
#[derive(Debug)]
pub struct HookCtx<'a> {
    /// Which handler is being entered.
    pub handler: HandlerKind,
    /// The CPU executing the handler — the paper's experiments filter
    /// on this ("only when the CPU core 1 is calling the function").
    pub cpu: CpuId,
    /// Simulator step at handler entry.
    pub step: u64,
    /// The live register context; mutations are what the handler will
    /// see and what a resumed guest will get back.
    pub regs: &'a mut RegisterFile,
    /// Must be set (via [`HookCtx::mark_touched`]) by any hook that
    /// mutates `regs`. When it stays `false` the hypervisor knows the
    /// entry context is exactly what it set up and skips the pointer
    /// integrity check and the guest-register writeback — the handler
    /// fast path that keeps fault-free campaign steps cheap.
    pub touched: bool,
}

impl HookCtx<'_> {
    /// Records that the hook mutated the register context, so the
    /// hypervisor re-validates pointers and writes back guest state.
    pub fn mark_touched(&mut self) {
        self.touched = true;
    }
}

/// A fault-injection (or tracing) hook installed into the hypervisor.
/// `Any` lets its installer read it back, typed, through
/// [`crate::Hypervisor::hook`].
pub trait InjectionHook: Any + fmt::Debug + Send + Sync {
    /// Invoked at every profiled-handler entry, before the handler
    /// reads any register.
    ///
    /// A hook that mutates `ctx.regs` **must** call
    /// [`HookCtx::mark_touched`]; otherwise the hypervisor assumes the
    /// context is untouched and skips corruption-dependent work.
    fn on_handler_entry(&mut self, ctx: &mut HookCtx<'_>);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn function_names_match_the_paper() {
        assert_eq!(
            HandlerKind::IrqchipHandleIrq.function_name(),
            "irqchip_handle_irq"
        );
        assert_eq!(
            HandlerKind::ArchHandleTrap.function_name(),
            "arch_handle_trap"
        );
        assert_eq!(
            HandlerKind::ArchHandleHvc.function_name(),
            "arch_handle_hvc"
        );
    }
}
