//! A GIC-400-flavoured interrupt controller model.
//!
//! The model collapses the distributor and the per-CPU interfaces into a
//! single structure, keeping the behaviour the hypervisor and the fault
//! campaigns observe:
//!
//! * interrupt lines can be enabled, made pending, acknowledged and
//!   completed per CPU;
//! * software-generated interrupts (SGIs, ids 0–15) target a specific
//!   CPU and are how the root cell kicks a parked CPU when starting a
//!   cell (the *CPU hot-plug swap* of the paper);
//! * private peripheral interrupts (PPIs, ids 16–31) are banked per CPU
//!   (the per-core generic timer uses one);
//! * shared peripheral interrupts (SPIs, ids ≥ 32) are routed to the
//!   single CPU that owns the line — ownership is what the partitioning
//!   hypervisor configures from the cell configs.

use crate::cpu::{CpuId, NUM_CPUS};
use std::collections::VecDeque;
use std::fmt;

/// An interrupt line identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IrqId(pub u16);

impl IrqId {
    /// Whether this is a software-generated interrupt (0–15).
    pub fn is_sgi(self) -> bool {
        self.0 < 16
    }
}

impl fmt::Display for IrqId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "irq{}", self.0)
    }
}

/// The id returned by an acknowledge when no interrupt is pending.
pub const SPURIOUS_IRQ: IrqId = IrqId(1023);

/// Highest modelled interrupt line (exclusive).
pub const NUM_IRQS: usize = 256;

/// The routing byte of a line no CPU owns.
const UNROUTED: u8 = u8::MAX;

// Every core's id fits a routing byte below `UNROUTED`.
const _: () = assert!(NUM_CPUS < UNROUTED as usize);

/// Per-CPU interrupt queue and banked PPI state.
#[derive(Debug, Clone, Default)]
struct CpuInterface {
    /// FIFO of pending interrupt ids awaiting acknowledge.
    pending: VecDeque<u16>,
    /// Currently active (acknowledged, not yet completed) interrupt.
    active: Option<u16>,
}

/// The interrupt controller.
#[derive(Debug, Clone)]
pub struct Gic {
    enabled: [bool; NUM_IRQS],
    /// Owning CPU for SPI routing, one byte per line ([`UNROUTED`]
    /// when none); SGIs/PPIs ignore this.
    target: [u8; NUM_IRQS],
    interfaces: [CpuInterface; NUM_CPUS],
    /// Count of interrupts raised while the line was disabled — a useful
    /// liveness diagnostic for the analysis crate.
    dropped: u64,
}

/// A controller serving one CPU interface per core, with every line
/// disabled and unrouted.
impl Default for Gic {
    fn default() -> Gic {
        Gic {
            enabled: [false; NUM_IRQS],
            target: [UNROUTED; NUM_IRQS],
            interfaces: Default::default(),
            dropped: 0,
        }
    }
}

impl Gic {
    /// Enables an interrupt line.
    pub fn enable(&mut self, irq: IrqId) {
        if let Some(slot) = self.enabled.get_mut(irq.0 as usize) {
            *slot = true;
        }
    }

    /// Disables an interrupt line; already-pending instances remain
    /// queued (matching GIC behaviour where disable gates forwarding of
    /// *new* interrupts).
    pub fn disable(&mut self, irq: IrqId) {
        if let Some(slot) = self.enabled.get_mut(irq.0 as usize) {
            *slot = false;
        }
    }

    /// Whether the line is enabled.
    pub fn is_enabled(&self, irq: IrqId) -> bool {
        self.enabled.get(irq.0 as usize).copied().unwrap_or(false)
    }

    /// Routes an SPI line to `cpu`. The partitioning hypervisor calls
    /// this when applying a cell configuration. A CPU id past 254
    /// reads back as 254: still past the last core, so raises on the
    /// line drop the same way.
    pub fn set_target(&mut self, irq: IrqId, cpu: CpuId) {
        if let Some(slot) = self.target.get_mut(irq.0 as usize) {
            *slot = cpu.0.min(u32::from(UNROUTED) - 1) as u8;
        }
    }

    /// Removes SPI routing (line returns to unrouted; raises are
    /// dropped). Called when a cell is destroyed.
    pub fn clear_target(&mut self, irq: IrqId) {
        if let Some(slot) = self.target.get_mut(irq.0 as usize) {
            *slot = UNROUTED;
        }
    }

    /// The CPU an SPI is routed to.
    pub fn targeted_cpu(&self, irq: IrqId) -> Option<CpuId> {
        match self.target.get(irq.0 as usize) {
            Some(&cpu) if cpu != UNROUTED => Some(CpuId(cpu.into())),
            _ => None,
        }
    }

    /// Raises an SPI or PPI. SPIs follow their routing; PPIs must be
    /// raised with [`Gic::raise_private`]. Returns `true` if the
    /// interrupt was queued.
    pub fn raise(&mut self, irq: IrqId) -> bool {
        if !self.is_enabled(irq) {
            self.dropped += 1;
            return false;
        }
        let Some(cpu) = self.targeted_cpu(irq) else {
            self.dropped += 1;
            return false;
        };
        self.queue(cpu, irq)
    }

    /// Raises a banked (private) interrupt on a specific CPU — used by
    /// per-core timers.
    pub fn raise_private(&mut self, cpu: CpuId, irq: IrqId) -> bool {
        if !self.is_enabled(irq) {
            self.dropped += 1;
            return false;
        }
        self.queue(cpu, irq)
    }

    /// Sends a software-generated interrupt to `cpu`.
    ///
    /// SGIs are always deliverable (they have no enable gate in this
    /// model, matching their use as a kick mechanism for parked CPUs).
    pub fn send_sgi(&mut self, cpu: CpuId, irq: IrqId) -> bool {
        if !irq.is_sgi() {
            return false;
        }
        self.queue(cpu, irq)
    }

    fn queue(&mut self, cpu: CpuId, irq: IrqId) -> bool {
        match self.interfaces.get_mut(cpu.0 as usize) {
            Some(interface) => {
                // Level-ish semantics: collapse duplicates already queued.
                if !interface.pending.contains(&irq.0) {
                    interface.pending.push_back(irq.0);
                }
                true
            }
            None => {
                self.dropped += 1;
                false
            }
        }
    }

    /// Whether `cpu` has an interrupt waiting to be acknowledged.
    pub fn has_pending(&self, cpu: CpuId) -> bool {
        self.interfaces
            .get(cpu.0 as usize)
            .map(|i| !i.pending.is_empty())
            .unwrap_or(false)
    }

    /// Whether any CPU interface has a pending interrupt — the gate
    /// for the orchestrator's per-step wake/drain pass.
    pub fn any_pending(&self) -> bool {
        self.interfaces.iter().any(|i| !i.pending.is_empty())
    }

    /// Acknowledges the highest-priority (oldest, in this model) pending
    /// interrupt on `cpu`, making it active. Returns [`SPURIOUS_IRQ`]
    /// when nothing is pending.
    pub fn acknowledge(&mut self, cpu: CpuId) -> IrqId {
        let Some(interface) = self.interfaces.get_mut(cpu.0 as usize) else {
            return SPURIOUS_IRQ;
        };
        if interface.active.is_some() {
            // Nested acknowledge without completion: spurious.
            return SPURIOUS_IRQ;
        }
        match interface.pending.pop_front() {
            Some(id) => {
                interface.active = Some(id);
                IrqId(id)
            }
            None => SPURIOUS_IRQ,
        }
    }

    /// Signals end-of-interrupt for the active interrupt on `cpu`.
    /// Completion of a non-active id is ignored (write to `EOIR` with a
    /// stale id).
    pub fn complete(&mut self, cpu: CpuId, irq: IrqId) {
        if let Some(interface) = self.interfaces.get_mut(cpu.0 as usize) {
            if interface.active == Some(irq.0) {
                interface.active = None;
            }
        }
    }

    /// The interrupt currently being serviced on `cpu`, if any.
    pub fn active(&self, cpu: CpuId) -> Option<IrqId> {
        self.interfaces
            .get(cpu.0 as usize)
            .and_then(|i| i.active)
            .map(IrqId)
    }

    /// Interrupts dropped because their line was disabled or unrouted.
    pub fn dropped_count(&self) -> u64 {
        self.dropped
    }

    /// Drops all pending and active state for `cpu` — used when a CPU is
    /// reset as part of cell destruction.
    pub fn reset_cpu_interface(&mut self, cpu: CpuId) {
        if let Some(interface) = self.interfaces.get_mut(cpu.0 as usize) {
            interface.pending.clear();
            interface.active = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn irq_kind_predicates() {
        assert!(IrqId(0).is_sgi());
        assert!(IrqId(15).is_sgi());
        assert!(!IrqId(16).is_sgi());
        assert!(!IrqId(32).is_sgi());
    }

    #[test]
    fn spi_delivery_follows_routing() {
        let mut gic = Gic::default();
        let uart = IrqId(33);
        gic.enable(uart);
        gic.set_target(uart, CpuId(1));
        assert!(gic.raise(uart));
        assert!(!gic.has_pending(CpuId(0)));
        assert_eq!(gic.acknowledge(CpuId(1)), uart);
    }

    #[test]
    fn disabled_line_drops_and_counts() {
        let mut gic = Gic::default();
        let irq = IrqId(40);
        gic.set_target(irq, CpuId(0));
        assert!(!gic.raise(irq));
        assert_eq!(gic.dropped_count(), 1);
    }

    #[test]
    fn unrouted_spi_is_dropped() {
        let mut gic = Gic::default();
        let irq = IrqId(40);
        gic.enable(irq);
        assert!(!gic.raise(irq));
        assert_eq!(gic.dropped_count(), 1);
    }

    #[test]
    fn acknowledge_empty_is_spurious() {
        let mut gic = Gic::default();
        assert_eq!(gic.acknowledge(CpuId(0)), SPURIOUS_IRQ);
    }

    #[test]
    fn pending_duplicates_collapse() {
        let mut gic = Gic::default();
        let timer = IrqId(27);
        gic.enable(timer);
        gic.raise_private(CpuId(0), timer);
        gic.raise_private(CpuId(0), timer);
        assert_eq!(gic.acknowledge(CpuId(0)), timer);
        gic.complete(CpuId(0), timer);
        assert_eq!(gic.acknowledge(CpuId(0)), SPURIOUS_IRQ);
    }

    #[test]
    fn nested_acknowledge_is_spurious_until_completion() {
        let mut gic = Gic::default();
        let timer = IrqId(27);
        gic.enable(timer);
        gic.raise_private(CpuId(0), timer);
        assert_eq!(gic.acknowledge(CpuId(0)), timer);
        gic.raise_private(CpuId(0), IrqId(29));
        gic.enable(IrqId(29));
        assert_eq!(gic.acknowledge(CpuId(0)), SPURIOUS_IRQ);
        gic.complete(CpuId(0), timer);
        // After EOI the next pending interrupt can be taken. (29 was
        // raised while disabled, so re-raise it.)
        gic.raise_private(CpuId(0), IrqId(29));
        assert_eq!(gic.acknowledge(CpuId(0)), IrqId(29));
    }

    #[test]
    fn sgi_targets_specific_cpu_and_ignores_enable() {
        let mut gic = Gic::default();
        assert!(gic.send_sgi(CpuId(1), IrqId(7)));
        assert!(gic.has_pending(CpuId(1)));
        assert!(!gic.has_pending(CpuId(0)));
        // Non-SGI id refused.
        assert!(!gic.send_sgi(CpuId(1), IrqId(33)));
    }

    #[test]
    fn complete_with_stale_id_is_ignored() {
        let mut gic = Gic::default();
        let timer = IrqId(27);
        gic.enable(timer);
        gic.raise_private(CpuId(0), timer);
        let active = gic.acknowledge(CpuId(0));
        gic.complete(CpuId(0), IrqId(99));
        assert_eq!(gic.active(CpuId(0)), Some(active));
        gic.complete(CpuId(0), active);
        assert_eq!(gic.active(CpuId(0)), None);
    }

    #[test]
    fn any_pending_tracks_queue_drain_and_reset() {
        let mut gic = Gic::default();
        assert!(!gic.any_pending());
        let timer = IrqId(27);
        gic.enable(timer);
        gic.raise_private(CpuId(0), timer);
        gic.raise_private(CpuId(0), timer); // duplicate collapses
        gic.send_sgi(CpuId(1), IrqId(1));
        assert!(gic.has_pending(CpuId(0)) && gic.has_pending(CpuId(1)));
        assert_eq!(gic.acknowledge(CpuId(0)), timer);
        // The duplicate collapsed: one acknowledge empties CPU 0.
        assert!(!gic.has_pending(CpuId(0)));
        assert!(gic.any_pending());
        gic.reset_cpu_interface(CpuId(1));
        assert!(!gic.any_pending());
        assert_eq!(gic.acknowledge(CpuId(1)), SPURIOUS_IRQ);
        assert!(!gic.any_pending());
    }

    #[test]
    fn a_cpu_past_the_last_core_drops_and_answers_empty() {
        let mut gic = Gic::default();
        let past = CpuId(NUM_CPUS as u32);
        let timer = IrqId(27);
        gic.enable(timer);
        assert!(!gic.send_sgi(past, IrqId(1)));
        assert_eq!(gic.dropped_count(), 1);
        assert!(!gic.raise_private(past, timer));
        assert_eq!(gic.dropped_count(), 2);
        assert!(!gic.has_pending(past));
        assert_eq!(gic.acknowledge(past), SPURIOUS_IRQ);
        assert!(!gic.any_pending());
    }

    #[test]
    fn routing_round_trips_and_clears() {
        let mut gic = Gic::default();
        let (irq, past) = (IrqId(40), CpuId(NUM_CPUS as u32));
        assert_eq!(gic.targeted_cpu(irq), None);
        gic.set_target(irq, CpuId(1));
        assert_eq!(gic.targeted_cpu(irq), Some(CpuId(1)));
        gic.set_target(irq, past);
        assert_eq!(gic.targeted_cpu(irq), Some(past));
        gic.enable(irq);
        assert!(!gic.raise(irq), "a line routed past the last core drops");
        gic.set_target(irq, CpuId(u32::MAX));
        assert_eq!(gic.targeted_cpu(irq), Some(CpuId(254)));
        gic.clear_target(irq);
        assert_eq!(gic.targeted_cpu(irq), None);
        assert_eq!(gic.targeted_cpu(IrqId(NUM_IRQS as u16)), None);
    }

    #[test]
    fn reset_cpu_interface_clears_state() {
        let mut gic = Gic::default();
        gic.send_sgi(CpuId(0), IrqId(1));
        gic.acknowledge(CpuId(0));
        gic.send_sgi(CpuId(0), IrqId(2));
        gic.reset_cpu_interface(CpuId(0));
        assert!(!gic.has_pending(CpuId(0)));
        assert_eq!(gic.active(CpuId(0)), None);
    }
}
