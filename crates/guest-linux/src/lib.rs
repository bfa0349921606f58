//! The root-cell guest: a Linux-like management OS with a
//! Jailhouse-style driver.
//!
//! In the paper's deployment the root cell runs "general-purpose
//! Linux", patched with the Jailhouse driver: it installs the
//! hypervisor (`jailhouse enable`), offlines CPU 1 (the hot-plug
//! handover), creates/loads/starts the FreeRTOS cell, and later shuts
//! it down or destroys it. All of that, plus kernel-panic semantics,
//! is modelled here:
//!
//! * [`script`] — the management *script*: an ordered list of driver
//!   operations (with results recorded for the analysis pipeline);
//! * [`guest`] — [`LinuxGuest`], the root cell's guest model, which
//!   boots, prints dmesg-style lines on the
//!   (directly mapped) UART, blinks a heartbeat LED through trapped
//!   GPIO MMIO, executes the script, and **panics** ("Kernel panic -
//!   not syncing") when a propagated fault corrupts its memory — the
//!   observable behind the paper's *panic park* outcome.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod guest;
pub mod script;

pub use guest::LinuxGuest;
pub use script::{MgmtOp, MgmtRecord, MgmtScript};
