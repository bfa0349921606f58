//! Hyp syndrome register (`HSR`) encoding and decoding.
//!
//! When a guest action traps to the hypervisor, the hardware reports
//! *why* in the `HSR`: a 6-bit *exception class* (EC), an instruction-
//! length bit, and 25 class-specific *instruction specific syndrome*
//! (ISS) bits. Jailhouse's `arch_handle_trap()` dispatches on the EC —
//! and when it encounters a class it has no handler for, it prints the
//! class and parks the CPU. The paper observes exactly this for class
//! **`0x24`** (data abort from a lower exception level) whose ISS marks
//! the abort as un-emulatable: the *CPU park* outcome.
//!
//! Because the paper's faults flip bits of a register holding a raw
//! `HSR` value, this module keeps encoding/decoding total: *any* u32
//! decodes to *some* [`Syndrome`], possibly with an
//! [`ExceptionClass::Unknown`] class — just like hardware.

use std::fmt;

/// Exception classes reported in `HSR[31:26]` (ARMv7 virtualization
/// extensions subset relevant to a partitioning hypervisor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExceptionClass {
    /// `0x00` — unknown reason; always unhandled.
    Unknown,
    /// `0x01` — trapped `WFI`/`WFE`. Used by parked CPUs waiting for a
    /// cell start event.
    WfiWfe,
    /// `0x03` — trapped CP15 access (system register emulation).
    Cp15Trap,
    /// `0x11` — supervisor call taken from the guest (not routed to hyp
    /// in our configuration, listed for completeness).
    Svc,
    /// `0x12` — hypervisor call: the entry point of
    /// `arch_handle_hvc()`.
    Hvc,
    /// `0x13` — secure monitor call (always rejected).
    Smc,
    /// `0x20` — prefetch abort from a lower exception level (guest
    /// fetched from an unmapped/not-executable address).
    PrefetchAbortLower,
    /// `0x24` — data abort from a lower exception level. The MMIO
    /// emulation entry point, and — when the ISS says the access cannot
    /// be emulated — the paper's `0x24` unhandled-trap park path.
    DataAbortLower,
    /// Any other 6-bit class value, carried verbatim.
    Other(u8),
}

impl ExceptionClass {
    /// The raw 6-bit class code.
    pub fn code(self) -> u8 {
        match self {
            ExceptionClass::Unknown => 0x00,
            ExceptionClass::WfiWfe => 0x01,
            ExceptionClass::Cp15Trap => 0x03,
            ExceptionClass::Svc => 0x11,
            ExceptionClass::Hvc => 0x12,
            ExceptionClass::Smc => 0x13,
            ExceptionClass::PrefetchAbortLower => 0x20,
            ExceptionClass::DataAbortLower => 0x24,
            ExceptionClass::Other(code) => code & 0x3f,
        }
    }

    /// Decodes a 6-bit class code. Total: unknown codes map to
    /// [`ExceptionClass::Other`].
    pub fn from_code(code: u8) -> ExceptionClass {
        match code & 0x3f {
            0x00 => ExceptionClass::Unknown,
            0x01 => ExceptionClass::WfiWfe,
            0x03 => ExceptionClass::Cp15Trap,
            0x11 => ExceptionClass::Svc,
            0x12 => ExceptionClass::Hvc,
            0x13 => ExceptionClass::Smc,
            0x20 => ExceptionClass::PrefetchAbortLower,
            0x24 => ExceptionClass::DataAbortLower,
            other => ExceptionClass::Other(other),
        }
    }

    /// Whether a partitioning hypervisor has a handler for this class.
    /// Unhandled classes lead to `cpu_park()`.
    pub fn is_handled(self) -> bool {
        matches!(
            self,
            ExceptionClass::WfiWfe
                | ExceptionClass::Cp15Trap
                | ExceptionClass::Hvc
                | ExceptionClass::DataAbortLower
        )
    }
}

impl fmt::Display for ExceptionClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ec=0x{:02x}", self.code())
    }
}

/// Bit layout of the `HSR` as we model it.
mod layout {
    /// EC occupies bits 31:26.
    pub const EC_SHIFT: u32 = 26;
    /// Instruction-length bit.
    pub const IL: u32 = 1 << 25;
    /// ISS mask (bits 24:0).
    pub const ISS_MASK: u32 = (1 << 25) - 1;
    /// ISS valid bit inside a data-abort ISS: the abort carries enough
    /// information (register, size, direction) to be emulated as MMIO.
    pub const ISS_ISV: u32 = 1 << 24;
    /// Write-not-read bit inside a data-abort ISS.
    pub const ISS_WNR: u32 = 1 << 6;
    /// Source/target register field (bits 19:16) inside a data-abort ISS.
    pub const ISS_SRT_SHIFT: u32 = 16;
    /// Access-size field (bits 23:22): 0 byte, 1 halfword, 2 word.
    pub const ISS_SAS_SHIFT: u32 = 22;
}

/// A decoded hyp syndrome value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Syndrome {
    /// Why the trap was taken.
    pub class: ExceptionClass,
    /// 32-bit (true) or 16-bit (false) trapping instruction.
    pub il: bool,
    /// Class-specific syndrome bits (25 bits).
    pub iss: u32,
}

impl Syndrome {
    /// Builds a syndrome for a hypervisor call with the given 16-bit
    /// immediate in the ISS (the immediate is ignored by Jailhouse; the
    /// call number travels in `r0`).
    pub fn hvc(imm: u16) -> Syndrome {
        Syndrome {
            class: ExceptionClass::Hvc,
            il: true,
            iss: imm as u32,
        }
    }

    /// Builds a syndrome for an emulatable MMIO data abort: `ISV` set,
    /// direction, access size of one word, and the guest register that
    /// sources/receives the data.
    pub fn mmio_data_abort(write: bool, srt: u8) -> Syndrome {
        let mut iss = layout::ISS_ISV | (2 << layout::ISS_SAS_SHIFT);
        if write {
            iss |= layout::ISS_WNR;
        }
        iss |= u32::from(srt & 0xf) << layout::ISS_SRT_SHIFT;
        Syndrome {
            class: ExceptionClass::DataAbortLower,
            il: true,
            iss,
        }
    }

    /// Builds a syndrome for a data abort *without* valid decode
    /// information (`ISV` clear) — the un-emulatable abort that an
    /// unhandled-trap path turns into a CPU park.
    pub fn invalid_data_abort() -> Syndrome {
        Syndrome {
            class: ExceptionClass::DataAbortLower,
            il: true,
            iss: 0,
        }
    }

    /// Builds a trapped-WFI syndrome.
    pub fn wfi() -> Syndrome {
        Syndrome {
            class: ExceptionClass::WfiWfe,
            il: true,
            iss: 0,
        }
    }

    /// Encodes to the raw `HSR` value.
    pub fn encode(self) -> u32 {
        (u32::from(self.class.code()) << layout::EC_SHIFT)
            | if self.il { layout::IL } else { 0 }
            | (self.iss & layout::ISS_MASK)
    }

    /// Decodes a raw `HSR` value. Total — never fails, matching
    /// hardware behaviour under corrupted values.
    pub fn decode(raw: u32) -> Syndrome {
        Syndrome {
            class: ExceptionClass::from_code((raw >> layout::EC_SHIFT) as u8),
            il: raw & layout::IL != 0,
            iss: raw & layout::ISS_MASK,
        }
    }

    /// For a data abort: whether the ISS carries valid decode
    /// information, i.e. the abort can be emulated as MMIO.
    pub fn isv(self) -> bool {
        self.iss & layout::ISS_ISV != 0
    }

    /// For a data abort: whether the access was a write.
    pub fn is_write(self) -> bool {
        self.iss & layout::ISS_WNR != 0
    }

    /// For a data abort: the index of the guest register that sources
    /// (write) or receives (read) the data.
    pub fn srt(self) -> u8 {
        ((self.iss >> layout::ISS_SRT_SHIFT) & 0xf) as u8
    }

    /// For a data abort: the access size in bytes (1, 2 or 4); corrupted
    /// size fields decode to `None`.
    pub fn access_size(self) -> Option<u8> {
        match (self.iss >> layout::ISS_SAS_SHIFT) & 0x3 {
            0 => Some(1),
            1 => Some(2),
            2 => Some(4),
            _ => None,
        }
    }
}

impl fmt::Display for Syndrome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} iss=0x{:07x}", self.class, self.iss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ec_codes_match_architecture() {
        assert_eq!(ExceptionClass::Hvc.code(), 0x12);
        assert_eq!(ExceptionClass::DataAbortLower.code(), 0x24);
        assert_eq!(ExceptionClass::PrefetchAbortLower.code(), 0x20);
        assert_eq!(ExceptionClass::WfiWfe.code(), 0x01);
    }

    #[test]
    fn class_round_trips_all_codes() {
        for code in 0u8..64 {
            assert_eq!(ExceptionClass::from_code(code).code(), code);
        }
    }

    #[test]
    fn handled_set_is_exactly_the_hypervisor_handlers() {
        let handled: Vec<u8> = (0u8..64)
            .filter(|&c| ExceptionClass::from_code(c).is_handled())
            .collect();
        assert_eq!(handled, vec![0x01, 0x03, 0x12, 0x24]);
    }

    #[test]
    fn syndrome_encode_decode_round_trips() {
        let syndromes = [
            Syndrome::hvc(0),
            Syndrome::hvc(0x4a48),
            Syndrome::mmio_data_abort(true, 2),
            Syndrome::mmio_data_abort(false, 15),
            Syndrome::invalid_data_abort(),
            Syndrome::wfi(),
        ];
        for s in syndromes {
            assert_eq!(Syndrome::decode(s.encode()), s);
        }
    }

    #[test]
    fn decode_is_total() {
        // Any u32 decodes without panicking; spot-check a few corrupted
        // values of an MMIO abort.
        let base = Syndrome::mmio_data_abort(true, 1).encode();
        for bit in 0..32 {
            let _ = Syndrome::decode(base ^ (1 << bit));
        }
    }

    #[test]
    fn mmio_abort_iss_fields() {
        let s = Syndrome::mmio_data_abort(true, 7);
        assert!(s.isv());
        assert!(s.is_write());
        assert_eq!(s.srt(), 7);
        assert_eq!(s.access_size(), Some(4));

        let r = Syndrome::mmio_data_abort(false, 0);
        assert!(!r.is_write());
    }

    #[test]
    fn invalid_abort_has_no_isv() {
        assert!(!Syndrome::invalid_data_abort().isv());
    }

    #[test]
    fn flipping_ec_bits_changes_class() {
        // Flipping bit 27 of an HVC syndrome (EC 0x12) yields EC 0x10 —
        // an unhandled class. This is precisely the fault path that
        // produces the paper's unhandled-trap outcomes.
        let hvc = Syndrome::hvc(0).encode();
        let corrupted = Syndrome::decode(hvc ^ (1 << 27));
        assert_eq!(corrupted.class.code(), 0x10);
        assert!(!corrupted.class.is_handled());
    }
}
