//! ARMv7 processor modes.
//!
//! Only the distinctions the hypervisor model cares about are kept: user
//! and supervisor for guests, `HYP` for the hypervisor itself (the mode
//! the virtualization extensions add), and the exception-entry modes.

use std::fmt;

/// An ARMv7 processor mode, as encoded in the low five bits of the CPSR.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuMode {
    /// Unprivileged application mode.
    User,
    /// Fast-interrupt handling mode.
    Fiq,
    /// Interrupt handling mode.
    Irq,
    /// Supervisor mode — the privileged mode a guest kernel runs in.
    #[default]
    Supervisor,
    /// Abort mode, entered on memory faults taken within the same
    /// privilege level.
    Abort,
    /// Hypervisor mode (virtualization extensions) — where Jailhouse
    /// lives and where all three injected handlers execute.
    Hyp,
    /// Undefined-instruction handling mode.
    Undefined,
    /// Privileged mode sharing the user-mode register view.
    System,
}

impl CpuMode {
    /// The CPSR mode-field encoding of this mode (ARM ARM table B1-1).
    pub fn encoding(self) -> u32 {
        match self {
            CpuMode::User => 0b10000,
            CpuMode::Fiq => 0b10001,
            CpuMode::Irq => 0b10010,
            CpuMode::Supervisor => 0b10011,
            CpuMode::Abort => 0b10111,
            CpuMode::Hyp => 0b11010,
            CpuMode::Undefined => 0b11011,
            CpuMode::System => 0b11111,
        }
    }

    /// Decodes a CPSR mode field; returns `None` for reserved encodings.
    pub fn from_encoding(bits: u32) -> Option<CpuMode> {
        match bits & 0x1f {
            0b10000 => Some(CpuMode::User),
            0b10001 => Some(CpuMode::Fiq),
            0b10010 => Some(CpuMode::Irq),
            0b10011 => Some(CpuMode::Supervisor),
            0b10111 => Some(CpuMode::Abort),
            0b11010 => Some(CpuMode::Hyp),
            0b11011 => Some(CpuMode::Undefined),
            0b11111 => Some(CpuMode::System),
            _ => None,
        }
    }

    /// Whether this mode executes at a privilege level above the guest
    /// (i.e. the hypervisor's own mode).
    pub fn is_hyp(self) -> bool {
        matches!(self, CpuMode::Hyp)
    }

    /// Whether this mode is privileged (everything except `User`).
    pub fn is_privileged(self) -> bool {
        !matches!(self, CpuMode::User)
    }
}

impl fmt::Display for CpuMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CpuMode::User => "usr",
            CpuMode::Fiq => "fiq",
            CpuMode::Irq => "irq",
            CpuMode::Supervisor => "svc",
            CpuMode::Abort => "abt",
            CpuMode::Hyp => "hyp",
            CpuMode::Undefined => "und",
            CpuMode::System => "sys",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [CpuMode; 8] = [
        CpuMode::User,
        CpuMode::Fiq,
        CpuMode::Irq,
        CpuMode::Supervisor,
        CpuMode::Abort,
        CpuMode::Hyp,
        CpuMode::Undefined,
        CpuMode::System,
    ];

    #[test]
    fn encoding_round_trips() {
        for mode in ALL {
            assert_eq!(CpuMode::from_encoding(mode.encoding()), Some(mode));
        }
    }

    #[test]
    fn reserved_encodings_are_rejected() {
        // 0b10100 (old 26-bit modes) and 0b10110 (monitor, not modelled)
        // must not decode.
        assert_eq!(CpuMode::from_encoding(0b10100), None);
        assert_eq!(CpuMode::from_encoding(0b10110), None);
    }

    #[test]
    fn from_encoding_masks_high_bits() {
        let bits = 0xffff_ff00 | CpuMode::Hyp.encoding();
        assert_eq!(CpuMode::from_encoding(bits), Some(CpuMode::Hyp));
    }

    #[test]
    fn privilege_predicates() {
        assert!(CpuMode::Hyp.is_hyp());
        assert!(!CpuMode::Supervisor.is_hyp());
        assert!(CpuMode::Supervisor.is_privileged());
        assert!(!CpuMode::User.is_privileged());
    }

    #[test]
    fn display_names() {
        assert_eq!(CpuMode::Hyp.to_string(), "hyp");
        assert_eq!(CpuMode::Supervisor.to_string(), "svc");
    }
}
