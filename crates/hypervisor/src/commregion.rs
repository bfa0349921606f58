//! Per-cell communication regions.
//!
//! Jailhouse places a small *communication region* at the start of
//! each cell's RAM: a page through which the hypervisor publishes the
//! cell's lifecycle state. Tools (and the root cell) read the published
//! state — which is exactly why experiment E2's inconsistency is
//! dangerous: the comm region of a dead cell still says `RUNNING`. The
//! region's two message words (Jailhouse's shutdown handshake) are
//! initialised empty; no model exchanges messages through them.
//!
//! Layout (all little-endian `u32`, at the cell's first RAM region):
//!
//! ```text
//! +0x00  magic "JHCM"
//! +0x04  cell state (0 stopped, 1 running, 2 shut down, 3 failed)
//! +0x08  message to the cell (e.g. shutdown request)
//! +0x0c  message from the cell (e.g. shutdown ack)
//! ```

use crate::cell::CellState;
use certify_board::Machine;

/// Magic word identifying an initialised communication region.
pub const COMM_MAGIC: u32 = 0x4a48_434d; // "JHCM"
/// Offset of the state word.
pub const STATE_OFFSET: u32 = 0x4;
/// Offset of the to-cell message word.
pub const MSG_TO_CELL_OFFSET: u32 = 0x8;
/// Offset of the from-cell message word.
pub const MSG_FROM_CELL_OFFSET: u32 = 0xc;

/// Message codes of the region's message words.
pub mod msg {
    /// No message pending.
    pub const NONE: u32 = 0;
}

/// Encodes a cell state for the region.
pub fn encode_state(state: CellState) -> u32 {
    match state {
        CellState::Stopped => 0,
        CellState::Running => 1,
        CellState::ShutDown => 2,
        CellState::Failed => 3,
    }
}

/// Decodes a state word; `None` for corrupted values.
pub fn decode_state(word: u32) -> Option<CellState> {
    match word {
        0 => Some(CellState::Stopped),
        1 => Some(CellState::Running),
        2 => Some(CellState::ShutDown),
        3 => Some(CellState::Failed),
        _ => None,
    }
}

/// Hypervisor-side view of one cell's communication region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommRegion {
    base: u32,
}

impl CommRegion {
    /// A region rooted at `base` (the cell's first RAM address).
    pub fn at(base: u32) -> CommRegion {
        CommRegion { base }
    }

    /// The region's base address.
    pub fn base(self) -> u32 {
        self.base
    }

    /// Initialises the region: writes the magic, the state, and clears
    /// both message slots. Nothing reads the slots, but the writes
    /// matter: they set RAM contents and resident pages, which memory
    /// faults act on.
    pub fn init(self, machine: &mut Machine, state: CellState) {
        let _ = machine.ram_mut().write32(self.base, COMM_MAGIC);
        self.publish_state(machine, state);
        let _ = machine
            .ram_mut()
            .write32(self.base + MSG_TO_CELL_OFFSET, msg::NONE);
        let _ = machine
            .ram_mut()
            .write32(self.base + MSG_FROM_CELL_OFFSET, msg::NONE);
    }

    /// Publishes a lifecycle state.
    pub fn publish_state(self, machine: &mut Machine, state: CellState) {
        let _ = machine
            .ram_mut()
            .write32(self.base + STATE_OFFSET, encode_state(state));
    }

    /// Reads the published state (what `jailhouse cell list` would
    /// show). Returns `None` if the region is uninitialised or
    /// corrupted.
    pub fn read_state(self, machine: &Machine) -> Option<CellState> {
        if machine.ram().read32(self.base).ok()? != COMM_MAGIC {
            return None;
        }
        decode_state(machine.ram().read32(self.base + STATE_OFFSET).ok()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new_banana_pi()
    }

    const BASE: u32 = certify_board::memmap::RTOS_RAM_BASE;

    #[test]
    fn init_publishes_magic_and_state() {
        let mut m = machine();
        let region = CommRegion::at(BASE);
        region.init(&mut m, CellState::Stopped);
        assert_eq!(region.read_state(&m), Some(CellState::Stopped));
        assert_eq!(m.ram().read32(BASE).unwrap(), COMM_MAGIC);
    }

    #[test]
    fn uninitialised_region_reads_none() {
        let m = machine();
        assert_eq!(CommRegion::at(BASE).read_state(&m), None);
    }

    #[test]
    fn state_transitions_are_visible() {
        let mut m = machine();
        let region = CommRegion::at(BASE);
        region.init(&mut m, CellState::Stopped);
        region.publish_state(&mut m, CellState::Running);
        assert_eq!(region.read_state(&m), Some(CellState::Running));
        region.publish_state(&mut m, CellState::Failed);
        assert_eq!(region.read_state(&m), Some(CellState::Failed));
    }

    #[test]
    fn corrupted_state_word_reads_none() {
        let mut m = machine();
        let region = CommRegion::at(BASE);
        region.init(&mut m, CellState::Running);
        m.ram_mut().write32(BASE + STATE_OFFSET, 99).unwrap();
        assert_eq!(region.read_state(&m), None);
    }

    #[test]
    fn state_codes_round_trip() {
        for state in [
            CellState::Stopped,
            CellState::Running,
            CellState::ShutDown,
            CellState::Failed,
        ] {
            assert_eq!(decode_state(encode_state(state)), Some(state));
        }
        assert_eq!(decode_state(4), None);
    }
}
