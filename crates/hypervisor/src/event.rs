//! Structured hypervisor event log.
//!
//! Alongside the raw serial capture, the hypervisor records a
//! structured trace of everything the analysis pipeline needs to
//! classify an experiment run: hypercall results, parks, wild stores,
//! corruption notices and panics. The trace is an *observation*
//! channel only — nothing in the hypervisor reads it back, so it
//! cannot mask a failure.

use crate::cell::{CellId, CellState};
use certify_arch::cpu::ParkReason;
use certify_arch::{CpuId, IrqId};
use std::fmt;

/// Where a wild hypervisor store landed, i.e. which part of the system
/// a propagating fault corrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorruptionTarget {
    /// A guest cell's memory.
    Cell(CellId),
    /// The hypervisor's own state (manifests at the next hypervisor
    /// entry on a root CPU).
    HypervisorState,
}

impl fmt::Display for CorruptionTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorruptionTarget::Cell(id) => write!(f, "{id} memory"),
            CorruptionTarget::HypervisorState => write!(f, "hypervisor state"),
        }
    }
}

/// One entry in the hypervisor trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HvEvent {
    /// A hypercall completed.
    Hypercall {
        /// Calling CPU.
        cpu: CpuId,
        /// Hypercall code as seen by the dispatcher (possibly
        /// corrupted).
        code: u32,
        /// Errno-style result.
        result: i64,
        /// Simulator step.
        step: u64,
    },
    /// A CPU was parked.
    CpuParked {
        /// The parked CPU.
        cpu: CpuId,
        /// Why.
        reason: ParkReason,
        /// Simulator step.
        step: u64,
    },
    /// A handler stored through a corrupted pointer.
    WildStore {
        /// Executing CPU.
        cpu: CpuId,
        /// The wild address.
        addr: u32,
        /// What it corrupted.
        target: Option<CorruptionTarget>,
        /// Simulator step.
        step: u64,
    },
    /// A guest access violated the cell's memory assignment.
    AccessViolation {
        /// Offending CPU.
        cpu: CpuId,
        /// Faulting address.
        addr: u32,
        /// Simulator step.
        step: u64,
    },
    /// An IRQ id mismatch was detected (the "IRQ error" the paper
    /// calls completely predictable).
    IrqError {
        /// The CPU that observed the mismatch.
        cpu: CpuId,
        /// The id the handler saw.
        seen: IrqId,
        /// The id that was actually acknowledged.
        actual: IrqId,
        /// Simulator step.
        step: u64,
    },
    /// A cell changed lifecycle state.
    CellStateChanged {
        /// The cell.
        cell: CellId,
        /// The new state.
        state: CellState,
        /// Simulator step.
        step: u64,
    },
    /// The hypervisor itself panicked (e.g. HYP-mode data abort).
    HypervisorPanic {
        /// Panic message.
        message: String,
        /// Simulator step.
        step: u64,
    },
}

impl HvEvent {
    /// The simulator step of this event.
    pub fn step(&self) -> u64 {
        match self {
            HvEvent::Hypercall { step, .. }
            | HvEvent::CpuParked { step, .. }
            | HvEvent::WildStore { step, .. }
            | HvEvent::AccessViolation { step, .. }
            | HvEvent::IrqError { step, .. }
            | HvEvent::CellStateChanged { step, .. }
            | HvEvent::HypervisorPanic { step, .. } => *step,
        }
    }
}

impl fmt::Display for HvEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HvEvent::Hypercall {
                cpu,
                code,
                result,
                step,
            } => write!(
                f,
                "[{step}] {cpu} hvc {} -> {result}",
                crate::hypercall::name(*code)
            ),
            HvEvent::CpuParked { cpu, reason, step } => {
                write!(f, "[{step}] {cpu} parked: {reason}")
            }
            HvEvent::WildStore {
                cpu,
                addr,
                target,
                step,
            } => match target {
                Some(t) => write!(f, "[{step}] {cpu} wild store 0x{addr:08x} -> {t}"),
                None => write!(f, "[{step}] {cpu} wild store 0x{addr:08x} -> unmapped"),
            },
            HvEvent::AccessViolation { cpu, addr, step } => {
                write!(f, "[{step}] {cpu} access violation at 0x{addr:08x}")
            }
            HvEvent::IrqError {
                cpu,
                seen,
                actual,
                step,
            } => write!(f, "[{step}] {cpu} irq error: saw {seen}, active {actual}"),
            HvEvent::CellStateChanged { cell, state, step } => {
                write!(f, "[{step}] {cell} -> {state}")
            }
            HvEvent::HypervisorPanic { message, step } => {
                write!(f, "[{step}] HYPERVISOR PANIC: {message}")
            }
        }
    }
}

/// Per-CPU tally of park events, updated as [`HvEvent::CpuParked`]
/// entries are recorded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuParkTally {
    /// Parks with [`ParkReason::Idle`].
    pub idle: u64,
    /// Parks with [`ParkReason::UnhandledTrap`].
    pub unhandled_trap: u64,
    /// Parks with [`ParkReason::CellShutdown`].
    pub cell_shutdown: u64,
    /// Parks with [`ParkReason::FailedOnline`].
    pub failed_online: u64,
    /// Parks with [`ParkReason::HypervisorPanic`].
    pub hypervisor_panic: u64,
    /// The first unhandled-trap park reason recorded, if any (carries
    /// the exception-class code for classifier notes).
    pub first_unhandled_trap: Option<ParkReason>,
}

/// Online classification evidence, maintained by the hypervisor as
/// events are recorded so a post-run classifier reads O(1) counters
/// instead of scanning the whole event trace per question. Everything
/// here is derivable from [`HvEvent`]s — the equivalence is asserted
/// by `tests/hotpath_equivalence.rs` in the workspace root.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Evidence {
    per_cpu: Vec<CpuParkTally>,
    /// Steps of every access-violation event, in record order
    /// (nondecreasing — the simulator clock is monotonic).
    violation_steps: Vec<u64>,
}

impl Evidence {
    /// Records a park event (mirrors an [`HvEvent::CpuParked`] push).
    pub(crate) fn record_park(&mut self, cpu: CpuId, reason: ParkReason) {
        let idx = cpu.0 as usize;
        if self.per_cpu.len() <= idx {
            self.per_cpu.resize_with(idx + 1, CpuParkTally::default);
        }
        let tally = &mut self.per_cpu[idx];
        match reason {
            ParkReason::Idle => tally.idle += 1,
            ParkReason::UnhandledTrap(_) => {
                tally.unhandled_trap += 1;
                tally.first_unhandled_trap.get_or_insert(reason);
            }
            ParkReason::CellShutdown => tally.cell_shutdown += 1,
            ParkReason::FailedOnline => tally.failed_online += 1,
            ParkReason::HypervisorPanic => tally.hypervisor_panic += 1,
        }
    }

    /// Records an access violation (mirrors an
    /// [`HvEvent::AccessViolation`] push).
    pub(crate) fn record_violation(&mut self, step: u64) {
        self.violation_steps.push(step);
    }

    /// The park tally for `cpu` (all-zero if the CPU never parked).
    pub fn park_tally(&self, cpu: CpuId) -> CpuParkTally {
        self.per_cpu
            .get(cpu.0 as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Total access violations recorded.
    pub fn access_violations(&self) -> usize {
        self.violation_steps.len()
    }

    /// Access violations at or after `step` — a binary search over the
    /// nondecreasing violation-step list.
    pub fn violations_since(&self, step: u64) -> usize {
        self.violation_steps.len() - self.violation_steps.partition_point(|&s| s < step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evidence_tallies_parks_and_violations() {
        let mut evidence = Evidence::default();
        evidence.record_park(CpuId(1), ParkReason::UnhandledTrap(0x24));
        evidence.record_park(CpuId(1), ParkReason::UnhandledTrap(0x20));
        evidence.record_park(CpuId(1), ParkReason::FailedOnline);
        evidence.record_park(CpuId(0), ParkReason::Idle);
        let cpu1 = evidence.park_tally(CpuId(1));
        assert_eq!(cpu1.unhandled_trap, 2);
        assert_eq!(cpu1.failed_online, 1);
        assert_eq!(
            cpu1.first_unhandled_trap,
            Some(ParkReason::UnhandledTrap(0x24)),
            "first trap code is kept, later ones ignored"
        );
        assert_eq!(evidence.park_tally(CpuId(0)).idle, 1);
        assert_eq!(evidence.park_tally(CpuId(7)), CpuParkTally::default());

        evidence.record_violation(10);
        evidence.record_violation(20);
        evidence.record_violation(20);
        evidence.record_violation(35);
        assert_eq!(evidence.access_violations(), 4);
        assert_eq!(evidence.violations_since(0), 4);
        assert_eq!(evidence.violations_since(20), 3);
        assert_eq!(evidence.violations_since(21), 1);
        assert_eq!(evidence.violations_since(36), 0);
    }

    #[test]
    fn step_accessor_covers_every_variant() {
        let events = [
            HvEvent::Hypercall {
                cpu: CpuId(0),
                code: 1,
                result: -22,
                step: 10,
            },
            HvEvent::CpuParked {
                cpu: CpuId(1),
                reason: ParkReason::UnhandledTrap(0x24),
                step: 11,
            },
            HvEvent::WildStore {
                cpu: CpuId(1),
                addr: 0x7b00_0000,
                target: Some(CorruptionTarget::HypervisorState),
                step: 12,
            },
            HvEvent::AccessViolation {
                cpu: CpuId(1),
                addr: 0x4000_0000,
                step: 13,
            },
            HvEvent::IrqError {
                cpu: CpuId(0),
                seen: IrqId(5),
                actual: IrqId(27),
                step: 14,
            },
            HvEvent::CellStateChanged {
                cell: CellId(1),
                state: CellState::Failed,
                step: 15,
            },
            HvEvent::HypervisorPanic {
                message: "HYP data abort".into(),
                step: 16,
            },
        ];
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.step(), 10 + i as u64);
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn display_mentions_the_park_code() {
        let e = HvEvent::CpuParked {
            cpu: CpuId(1),
            reason: ParkReason::UnhandledTrap(0x24),
            step: 1,
        };
        assert!(e.to_string().contains("0x24"));
    }
}
