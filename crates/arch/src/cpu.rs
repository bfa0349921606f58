//! Per-CPU execution state.
//!
//! A [`Cpu`] is the unit the partitioning hypervisor assigns to cells:
//! the Banana Pi of the paper has two of them, with core 0 statically
//! given to the root cell (Linux) and core 1 to the non-root cell
//! (FreeRTOS). The struct carries the architectural state a handler (or
//! a fault injector) can touch, plus the lifecycle flags the paper's
//! outcomes are phrased in: *online*, *parked* (with the park reason,
//! e.g. the unhandled-trap code `0x24`), and *waiting-for-event*.

use crate::mode::CpuMode;
use crate::psr::Psr;
use crate::registers::RegisterFile;
use std::fmt;

/// A physical CPU core identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CpuId(pub u32);

impl fmt::Display for CpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// Why a CPU was parked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParkReason {
    /// Parked at boot / after cell destruction, waiting for an
    /// assignment — the normal resting state of an unassigned core.
    Idle,
    /// Parked by the hypervisor because a trap could not be handled;
    /// carries the offending exception-class code (`0x24` in the
    /// paper's observation).
    UnhandledTrap(u8),
    /// Parked because the hypervisor shut the owning cell down.
    CellShutdown,
    /// Parked because the CPU failed to come online during the hot-plug
    /// swap (the E2 inconsistent-state ingredient).
    FailedOnline,
    /// Parked because the hypervisor itself panicked and froze the
    /// machine.
    HypervisorPanic,
}

impl ParkReason {
    /// A stable numeric discriminant for trace streams and logs. The
    /// trap class of an [`ParkReason::UnhandledTrap`] travels
    /// separately (see [`ParkReason::trap_code`]).
    pub fn code(&self) -> u8 {
        match self {
            ParkReason::Idle => 0,
            ParkReason::UnhandledTrap(_) => 1,
            ParkReason::CellShutdown => 2,
            ParkReason::FailedOnline => 3,
            ParkReason::HypervisorPanic => 4,
        }
    }

    /// The offending exception-class code for an unhandled trap, 0
    /// otherwise.
    pub fn trap_code(&self) -> u8 {
        match self {
            ParkReason::UnhandledTrap(code) => *code,
            _ => 0,
        }
    }
}

impl fmt::Display for ParkReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParkReason::Idle => write!(f, "idle"),
            ParkReason::UnhandledTrap(code) => write!(f, "unhandled trap 0x{code:02x}"),
            ParkReason::CellShutdown => write!(f, "cell shutdown"),
            ParkReason::FailedOnline => write!(f, "failed to come online"),
            ParkReason::HypervisorPanic => write!(f, "hypervisor panic"),
        }
    }
}

/// Architectural and lifecycle state of one core.
#[derive(Debug, Clone)]
pub struct Cpu {
    /// This core's id.
    pub id: CpuId,
    /// Register state of the currently interrupted/running context.
    pub regs: RegisterFile,
    /// Current processor mode.
    pub mode: CpuMode,
    /// Saved program status of the interrupted context (`SPSR_hyp`).
    pub spsr: Psr,
    /// Whether the core has been brought online by the platform.
    online: bool,
    /// Park state, if parked.
    parked: Option<ParkReason>,
    /// Whether the core executed `WFI` and is waiting for an interrupt.
    wfi: bool,
}

impl Cpu {
    /// Creates an offline, idle-parked core.
    pub fn new(id: CpuId) -> Cpu {
        Cpu {
            id,
            regs: RegisterFile::new(),
            mode: CpuMode::Supervisor,
            spsr: Psr::default(),
            online: false,
            parked: Some(ParkReason::Idle),
            wfi: false,
        }
    }

    /// Brings the core online and clears any park state: the hot-plug
    /// "power on" step.
    pub fn power_on(&mut self) {
        self.online = true;
        self.parked = None;
        self.wfi = false;
    }

    /// Takes the core offline (it also becomes idle-parked).
    pub fn power_off(&mut self) {
        self.online = false;
        self.parked = Some(ParkReason::Idle);
        self.wfi = false;
    }

    /// Whether the core is online.
    pub fn is_online(&self) -> bool {
        self.online
    }

    /// Parks the core with the given reason. A parked core makes no
    /// guest progress until reset.
    pub fn park(&mut self, reason: ParkReason) {
        self.parked = Some(reason);
        self.wfi = false;
    }

    /// Whether the core is parked.
    pub fn is_parked(&self) -> bool {
        self.parked.is_some()
    }

    /// The park reason, if parked.
    pub fn park_reason(&self) -> Option<ParkReason> {
        self.parked
    }

    /// Marks the core as waiting-for-interrupt.
    pub fn enter_wfi(&mut self) {
        self.wfi = true;
    }

    /// Wakes the core from `WFI`.
    pub fn wake(&mut self) {
        self.wfi = false;
    }

    /// Whether the core is in `WFI`.
    pub fn in_wfi(&self) -> bool {
        self.wfi
    }

    /// Whether the core can execute guest instructions right now.
    pub fn can_run_guest(&self) -> bool {
        self.online && !self.is_parked() && !self.wfi
    }

    /// Architectural warm reset: clears registers and park state and
    /// enters supervisor mode at the given entry point — what the
    /// hypervisor does when (re)starting a cell on this core.
    pub fn reset_to(&mut self, entry: u32) {
        self.regs = RegisterFile::new();
        self.regs.write(crate::registers::Reg::PC, entry);
        self.mode = CpuMode::Supervisor;
        self.spsr = Psr::for_mode(CpuMode::Supervisor);
        self.parked = None;
        self.wfi = false;
    }
}

impl fmt::Display for Cpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} mode={} online={} parked={}",
            self.id,
            self.mode,
            self.online,
            match self.parked {
                Some(reason) => reason.to_string(),
                None => "no".to_string(),
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registers::Reg;

    #[test]
    fn new_cpu_is_offline_and_idle_parked() {
        let cpu = Cpu::new(CpuId(1));
        assert!(!cpu.is_online());
        assert_eq!(cpu.park_reason(), Some(ParkReason::Idle));
        assert!(!cpu.can_run_guest());
    }

    #[test]
    fn power_on_enables_guest_execution() {
        let mut cpu = Cpu::new(CpuId(0));
        cpu.power_on();
        assert!(cpu.is_online());
        assert!(!cpu.is_parked());
        assert!(cpu.can_run_guest());
    }

    #[test]
    fn parked_cpu_cannot_run_guest() {
        let mut cpu = Cpu::new(CpuId(1));
        cpu.power_on();
        cpu.park(ParkReason::UnhandledTrap(0x24));
        assert!(!cpu.can_run_guest());
        assert_eq!(cpu.park_reason(), Some(ParkReason::UnhandledTrap(0x24)));
        assert_eq!(
            cpu.park_reason().unwrap().to_string(),
            "unhandled trap 0x24"
        );
    }

    #[test]
    fn wfi_blocks_until_wake() {
        let mut cpu = Cpu::new(CpuId(0));
        cpu.power_on();
        cpu.enter_wfi();
        assert!(!cpu.can_run_guest());
        cpu.wake();
        assert!(cpu.can_run_guest());
    }

    #[test]
    fn reset_to_clears_state_and_sets_pc() {
        let mut cpu = Cpu::new(CpuId(1));
        cpu.power_on();
        cpu.regs.write(Reg::R5, 0xdead);
        cpu.park(ParkReason::CellShutdown);
        cpu.reset_to(0x4800_0000);
        assert_eq!(cpu.regs.read(Reg::PC), 0x4800_0000);
        assert_eq!(cpu.regs.read(Reg::R5), 0);
        assert!(!cpu.is_parked());
        assert_eq!(cpu.mode, CpuMode::Supervisor);
    }

    #[test]
    fn power_off_returns_to_idle_park() {
        let mut cpu = Cpu::new(CpuId(1));
        cpu.power_on();
        cpu.power_off();
        assert_eq!(cpu.park_reason(), Some(ParkReason::Idle));
        assert!(!cpu.is_online());
    }

    #[test]
    fn display_is_informative() {
        let cpu = Cpu::new(CpuId(1));
        let s = cpu.to_string();
        assert!(s.contains("cpu1"));
        assert!(s.contains("parked=idle"));
    }
}
