//! A Jailhouse-like static partitioning hypervisor model.
//!
//! This crate is the *system under test* of the reproduction: an
//! open-source-style partitioning hypervisor whose isolation and
//! integrity guarantees the fault-injection campaigns of the paper
//! probe. It follows Jailhouse's architecture:
//!
//! * hardware is divided into statically configured **cells**
//!   ([`config`], [`cell`]); the **root cell** owns everything not
//!   explicitly given away;
//! * the hypervisor is installed from the root cell at runtime
//!   (`HYPERVISOR_ENABLE`), creating the root cell, and further cells
//!   are managed through **hypercalls** ([`hypercall`]);
//! * guest exceptions funnel through three handlers —
//!   `irqchip_handle_irq()`, `arch_handle_trap()` and
//!   `arch_handle_hvc()` — exactly the three injection points the
//!   paper's golden-run profiling identified ([`Hypervisor`]);
//! * a CPU whose trap cannot be handled is **parked**
//!   (`cpu_park()`), the paper's `0x24` outcome;
//! * cells communicate only through a shared-memory region
//!   ([`ivshmem`]).
//!
//! # Handler-entry register convention
//!
//! The paper injects bit flips into "a random architecture register" at
//! handler entry. What turns a flipped bit into a system-level outcome
//! is *which role* the register plays in the compiled handler. The
//! model fixes a realistic convention (see [`regconv`]) — argument
//! registers carry the fault address / syndrome / data, several callee
//! registers hold live hypervisor pointers (per-CPU state, cell
//! structure, region table, frame and stack pointers), and the rest is
//! saved guest context. Corrupting a live pointer makes the handler
//! store through a wild address with hypervisor privileges: the fault
//! *propagation* path behind the paper's ~30 % *panic park* share.
//!
//! # Example
//!
//! ```
//! use certify_board::Machine;
//! use certify_hypervisor::{Hypervisor, SystemConfig};
//!
//! let mut machine = Machine::new_banana_pi();
//! let config = SystemConfig::banana_pi_demo();
//! let mut hv = Hypervisor::new(config.clone());
//! // Stage the serialized system config in root RAM and enable.
//! let addr = 0x4100_0000;
//! hv.stage_blob(&mut machine, addr, &config.serialize());
//! let ret = hv.handle_hvc(&mut machine, certify_arch::CpuId(0),
//!                         certify_hypervisor::hypercall::HVC_HYPERVISOR_ENABLE,
//!                         addr, 0);
//! assert_eq!(ret, 0);
//! assert!(hv.is_enabled());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod commregion;
pub mod config;
pub mod error;
pub mod event;
pub mod guest;
pub mod hooks;
pub mod hv;
pub mod hypercall;
pub mod ivshmem;
pub mod regconv;

pub use cell::{Cell, CellId, CellState};
pub use commregion::CommRegion;
pub use config::{CellConfig, MemFlags, MemRegion, SystemConfig};
pub use error::HvError;
pub use event::HvEvent;
pub use guest::{GuestCtx, GuestHealth};
pub use hooks::{HandlerKind, HookCtx, InjectionHook};
pub use hv::Hypervisor;
pub use ivshmem::IvshmemChannel;
