//! ARMv7-style architecture model for the `certify-uncertified` simulator.
//!
//! This crate models the subset of the ARMv7-A architecture (with the
//! virtualization extensions) that the DSN'22 paper's fault-injection
//! experiments observe:
//!
//! * a 16-entry general-purpose [`RegisterFile`] ([`registers`]),
//! * exception [`syndrome`] encoding (the `HSR` register), including the
//!   `0x24` *data abort from a lower exception level* class whose
//!   unhandled variant drives the paper's *CPU park* outcome,
//! * a GIC-like interrupt controller ([`gic`]) with software-generated
//!   interrupts used for cross-core cell management,
//! * per-CPU generic [`timer`]s, and
//! * the per-CPU execution state ([`cpu`]), for the [`NUM_CPUS`] cores
//!   of the board's Allwinner A20; every per-CPU table is an array of
//!   that length.
//!
//! The model is deliberately *behavioural*, not cycle-accurate: the fault
//! injection campaigns of the paper corrupt architecture registers at
//! hypervisor handler entry and observe system-level outcomes, so what
//! must be faithful is the flow of handler arguments and decisions
//! through registers — which this crate preserves.
//!
//! # Example
//!
//! ```
//! use certify_arch::{Cpu, Reg};
//!
//! let mut cpu = Cpu::new();
//! cpu.regs.write(Reg::R0, 0x1c28_0000);
//! assert_eq!(cpu.regs.read(Reg::R0), 0x1c28_0000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpu;
pub mod gic;
pub mod mmu;
pub mod registers;
pub mod syndrome;
pub mod timer;

pub use cpu::{Cpu, CpuId, NUM_CPUS};
pub use gic::{Gic, IrqId, SPURIOUS_IRQ};
pub use mmu::{AccessKind, S2Fault, S2Perms, Stage2Table};
pub use registers::{Reg, RegisterFile};
pub use syndrome::{ExceptionClass, Syndrome};
pub use timer::GenericTimer;
