//! The general-purpose register file.
//!
//! The paper's fault model is "a random bit flip of a random architecture
//! register" at handler entry, so the register file is the central data
//! structure of the whole reproduction: every hypervisor handler argument
//! and every piece of saved guest context flows through it.

use std::fmt;

/// Number of general-purpose registers visible at an exception boundary
/// (`r0`–`r15`).
pub const NUM_GPRS: usize = 16;

/// A general-purpose register name.
///
/// `R13`–`R15` carry their conventional roles (`SP`, `LR`, `PC`); the
/// aliases are provided as associated constants so call sites can speak
/// the convention while the underlying index stays uniform for the
/// injector, which picks targets uniformly at random.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum Reg {
    R0,
    R1,
    R2,
    R3,
    R4,
    R5,
    R6,
    R7,
    R8,
    R9,
    R10,
    R11,
    R12,
    R13,
    R14,
    R15,
}

impl Reg {
    /// Stack pointer alias for [`Reg::R13`].
    pub const SP: Reg = Reg::R13;
    /// Link register alias for [`Reg::R14`].
    pub const LR: Reg = Reg::R14;
    /// Program counter alias for [`Reg::R15`].
    pub const PC: Reg = Reg::R15;

    /// All sixteen registers in index order.
    pub const ALL: [Reg; NUM_GPRS] = [
        Reg::R0,
        Reg::R1,
        Reg::R2,
        Reg::R3,
        Reg::R4,
        Reg::R5,
        Reg::R6,
        Reg::R7,
        Reg::R8,
        Reg::R9,
        Reg::R10,
        Reg::R11,
        Reg::R12,
        Reg::R13,
        Reg::R14,
        Reg::R15,
    ];

    /// The index of this register (0 for `r0` … 15 for `pc`).
    pub fn index(self) -> usize {
        self as usize
    }

    /// The AAPCS argument registers `r0`–`r3`, the subset a hypercall
    /// interface consumes. Used by the register-subset ablation (D2).
    pub const ARGUMENT: [Reg; 4] = [Reg::R0, Reg::R1, Reg::R2, Reg::R3];
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reg::R13 => write!(f, "sp"),
            Reg::R14 => write!(f, "lr"),
            Reg::R15 => write!(f, "pc"),
            other => write!(f, "r{}", other.index()),
        }
    }
}

/// The register state captured at an exception boundary.
///
/// This corresponds to the register part of Jailhouse's
/// `struct trap_context` on ARM: the sixteen general-purpose registers
/// of the interrupted context. The trap handlers take the syndrome from
/// `r1` and the fault address from `r0`, and keep the entry PC as the
/// resume address, so no separate `HSR`, `HDFAR` or `ELR_hyp` copy is
/// modelled.
///
/// The fault injector mutates values *in place* here, exactly like the
/// dozen-line patch the paper added to Jailhouse.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RegisterFile {
    gprs: [u32; NUM_GPRS],
}

impl RegisterFile {
    /// Creates a zeroed register file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads a general-purpose register.
    pub fn read(&self, reg: Reg) -> u32 {
        self.gprs[reg.index()]
    }

    /// Writes a general-purpose register.
    pub fn write(&mut self, reg: Reg, value: u32) {
        self.gprs[reg.index()] = value;
    }

    /// Flips bit `bit` (0–31) of `reg`, returning the new value.
    ///
    /// This is the paper's single-bit-flip transient fault. Flipping the
    /// same bit twice restores the original value (an involution — see
    /// the property tests).
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 32`.
    pub fn flip_bit(&mut self, reg: Reg, bit: u8) -> u32 {
        assert!(bit < 32, "bit index out of range: {bit}");
        let idx = reg.index();
        self.gprs[idx] ^= 1 << bit;
        self.gprs[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_indices_round_trip() {
        for (i, reg) in Reg::ALL.iter().enumerate() {
            assert_eq!(reg.index(), i);
        }
    }

    #[test]
    fn aliases_map_to_high_registers() {
        assert_eq!(Reg::SP, Reg::R13);
        assert_eq!(Reg::LR, Reg::R14);
        assert_eq!(Reg::PC, Reg::R15);
        assert_eq!(Reg::SP.to_string(), "sp");
        assert_eq!(Reg::R7.to_string(), "r7");
    }

    #[test]
    fn read_write_round_trip() {
        let mut rf = RegisterFile::new();
        for (i, reg) in Reg::ALL.iter().enumerate() {
            rf.write(*reg, (i as u32) * 0x1111);
        }
        for (i, reg) in Reg::ALL.iter().enumerate() {
            assert_eq!(rf.read(*reg), (i as u32) * 0x1111);
        }
    }

    #[test]
    fn flip_bit_is_involution() {
        let mut rf = RegisterFile::new();
        rf.write(Reg::R3, 0xdead_beef);
        let flipped = rf.flip_bit(Reg::R3, 17);
        assert_ne!(flipped, 0xdead_beef);
        let restored = rf.flip_bit(Reg::R3, 17);
        assert_eq!(restored, 0xdead_beef);
    }

    #[test]
    #[should_panic(expected = "bit index out of range")]
    fn flip_bit_rejects_bit_32() {
        let mut rf = RegisterFile::new();
        rf.flip_bit(Reg::R0, 32);
    }
}
