//! The general-purpose register file and hypervisor-visible system
//! registers.
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

    /// Returns the register with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 16`; use [`Reg::try_from_index`] for fallible
    /// conversion.
    pub fn from_index(index: usize) -> Reg {
        Reg::try_from_index(index).expect("register index out of range")
    }

    /// Returns the register with the given index, or `None` if the index
    /// is out of range.
    pub fn try_from_index(index: usize) -> Option<Reg> {
        Reg::ALL.get(index).copied()
    }

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
/// This corresponds to Jailhouse's `struct trap_context` on ARM: the
/// sixteen general-purpose registers of the interrupted context plus the
/// status/syndrome registers the hypervisor reads (`CPSR`, `HSR`,
/// `HDFAR`/`HIFAR` merged as `far`, and `ELR_hyp`).
///
/// The fault injector mutates values *in place* here, exactly like the
/// dozen-line patch the paper added to Jailhouse.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RegisterFile {
    gprs: [u32; NUM_GPRS],
    /// Current program status register of the interrupted context.
    pub cpsr: u32,
    /// Hyp syndrome register: why the exception was taken.
    pub hsr: u32,
    /// Fault address register (virtual/intermediate physical address of a
    /// faulting access).
    pub far: u32,
    /// Exception link register: where to resume the interrupted context.
    pub elr: u32,
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

    /// A view of all sixteen general-purpose registers in index order.
    pub fn gprs(&self) -> &[u32; NUM_GPRS] {
        &self.gprs
    }

    /// Copies the sixteen general-purpose registers from `other`,
    /// leaving status registers untouched. Used when restoring guest
    /// context on exception return.
    pub fn restore_gprs_from(&mut self, other: &RegisterFile) {
        self.gprs = other.gprs;
    }

    /// Iterator over `(register, value)` pairs, useful for diffing a
    /// corrupted context against a golden one.
    pub fn iter(&self) -> impl Iterator<Item = (Reg, u32)> + '_ {
        Reg::ALL.iter().map(move |&r| (r, self.read(r)))
    }
}

impl fmt::Display for RegisterFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (reg, value)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{reg}={value:08x}")?;
        }
        write!(
            f,
            " cpsr={:08x} hsr={:08x} far={:08x} elr={:08x}",
            self.cpsr, self.hsr, self.far, self.elr
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_indices_round_trip() {
        for (i, reg) in Reg::ALL.iter().enumerate() {
            assert_eq!(reg.index(), i);
            assert_eq!(Reg::from_index(i), *reg);
        }
    }

    #[test]
    fn try_from_index_rejects_out_of_range() {
        assert_eq!(Reg::try_from_index(16), None);
        assert_eq!(Reg::try_from_index(usize::MAX), None);
    }

    #[test]
    #[should_panic(expected = "register index out of range")]
    fn from_index_panics_out_of_range() {
        let _ = Reg::from_index(16);
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

    #[test]
    fn restore_gprs_leaves_status_registers() {
        let mut saved = RegisterFile::new();
        saved.write(Reg::R4, 44);
        let mut live = RegisterFile::new();
        live.hsr = 0x9000_0000;
        live.restore_gprs_from(&saved);
        assert_eq!(live.read(Reg::R4), 44);
        assert_eq!(live.hsr, 0x9000_0000);
    }

    #[test]
    fn display_is_nonempty_and_stable() {
        let rf = RegisterFile::new();
        let rendered = rf.to_string();
        assert!(rendered.starts_with("r0=00000000"));
        assert!(rendered.contains("pc=00000000"));
        assert!(rendered.contains("hsr=00000000"));
    }
}
