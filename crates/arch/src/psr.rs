//! Program status register (CPSR/SPSR) helpers.
//!
//! Only the fields the hypervisor model inspects are given accessors:
//! the mode field, the IRQ/FIQ mask bits, and the Thumb bit. Everything
//! else is carried opaquely so that bit flips injected into a saved CPSR
//! still round-trip faithfully.

use crate::mode::CpuMode;
use std::fmt;

/// Bit positions of the CPSR fields we interpret.
mod bits {
    /// Thumb execution state.
    pub const T: u32 = 1 << 5;
    /// FIQ mask (set = masked).
    pub const F: u32 = 1 << 6;
    /// IRQ mask (set = masked).
    pub const I: u32 = 1 << 7;
}

/// A typed wrapper over a raw 32-bit program status register value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Psr(pub u32);

impl Psr {
    /// Builds a PSR for entering `mode` with IRQs and FIQs unmasked.
    pub fn for_mode(mode: CpuMode) -> Psr {
        Psr(mode.encoding())
    }

    /// The processor mode encoded in the low five bits, if valid.
    pub fn mode(self) -> Option<CpuMode> {
        CpuMode::from_encoding(self.0)
    }

    /// Returns a copy with the mode field replaced.
    pub fn with_mode(self, mode: CpuMode) -> Psr {
        Psr((self.0 & !0x1f) | mode.encoding())
    }

    /// Whether IRQs are masked.
    pub fn irq_masked(self) -> bool {
        self.0 & bits::I != 0
    }

    /// Returns a copy with the IRQ mask set or cleared.
    pub fn with_irq_masked(self, masked: bool) -> Psr {
        if masked {
            Psr(self.0 | bits::I)
        } else {
            Psr(self.0 & !bits::I)
        }
    }

    /// Whether FIQs are masked.
    pub fn fiq_masked(self) -> bool {
        self.0 & bits::F != 0
    }

    /// Whether the Thumb bit is set. A corrupted saved CPSR that flips
    /// this bit makes the resumed guest decode garbage — one of the
    /// crash paths the campaign can take.
    pub fn thumb(self) -> bool {
        self.0 & bits::T != 0
    }
}

impl From<u32> for Psr {
    fn from(raw: u32) -> Self {
        Psr(raw)
    }
}

impl From<Psr> for u32 {
    fn from(psr: Psr) -> Self {
        psr.0
    }
}

impl fmt::Display for Psr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:08x}[{}{}{}{}]",
            self.0,
            if self.irq_masked() { 'I' } else { '-' },
            if self.fiq_masked() { 'F' } else { '-' },
            if self.thumb() { 'T' } else { '-' },
            self.mode()
                .map(|m| m.to_string())
                .unwrap_or_else(|| "???".into()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_mode_sets_only_mode() {
        let psr = Psr::for_mode(CpuMode::Hyp);
        assert_eq!(psr.mode(), Some(CpuMode::Hyp));
        assert!(!psr.irq_masked());
        assert!(!psr.fiq_masked());
        assert!(!psr.thumb());
    }

    #[test]
    fn with_mode_preserves_flags() {
        let psr = Psr::for_mode(CpuMode::User).with_irq_masked(true);
        let moved = psr.with_mode(CpuMode::Supervisor);
        assert_eq!(moved.mode(), Some(CpuMode::Supervisor));
        assert!(moved.irq_masked());
    }

    #[test]
    fn irq_mask_round_trips() {
        let psr = Psr::for_mode(CpuMode::Supervisor);
        assert!(psr.with_irq_masked(true).irq_masked());
        assert!(!psr
            .with_irq_masked(true)
            .with_irq_masked(false)
            .irq_masked());
    }

    #[test]
    fn corrupted_mode_field_reads_as_none() {
        // 0b00000 is not a valid ARMv7 mode.
        let psr = Psr(0);
        assert_eq!(psr.mode(), None);
    }

    #[test]
    fn display_marks_flags() {
        let psr = Psr::for_mode(CpuMode::Hyp).with_irq_masked(true);
        let s = psr.to_string();
        assert!(s.contains('I'));
        assert!(s.contains("hyp"));
    }
}
