//! Cell runtime state.
//!
//! A *cell* is Jailhouse's unit of partitioning: a static bundle of
//! CPUs, memory regions and interrupt lines running one guest. The
//! root cell (id 0) is created when the hypervisor is enabled and can
//! never be destroyed; non-root cells are created, loaded, started,
//! shut down and destroyed through hypercalls.
//!
//! The state machine matters for the paper's experiments: E2 hinges on
//! a cell being *reported* [`CellState::Running`] while its CPU never
//! came online, and E3's CPU-park outcome moves the cell to
//! [`CellState::Failed`] while the rest of the system keeps going.

use crate::config::{CellConfig, MemFlags};
use crate::error::HvError;
use certify_arch::mmu::{S2Perms, Stage2Table, PAGE_SIZE};
use std::fmt;
use std::sync::Arc;

/// A cell identifier. Id 0 is always the root cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(pub u32);

/// The root cell's id.
pub const ROOT_CELL: CellId = CellId(0);

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell{}", self.0)
    }
}

/// Lifecycle state of a cell, mirroring Jailhouse's communication-
/// region states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellState {
    /// Created but not yet started; loadable.
    Stopped,
    /// Started; the hypervisor believes the cell is executing. (E2
    /// shows this belief can be wrong.)
    Running,
    /// Shut down by the root cell; resources have been returned.
    ShutDown,
    /// A fault was isolated in this cell (e.g. its CPU was parked on an
    /// unhandled trap).
    Failed,
}

impl fmt::Display for CellState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CellState::Stopped => "stopped",
            CellState::Running => "running",
            CellState::ShutDown => "shut down",
            CellState::Failed => "failed",
        };
        f.write_str(name)
    }
}

/// A cell and its runtime state.
///
/// `Clone` is copy-on-write: the configuration and the stage-2 table
/// are shared behind `Arc`s, so a clone costs two reference-count
/// bumps until [`Cell::stage2_mut`] copies the table for the one clone
/// that writes it.
#[derive(Debug, Clone)]
pub struct Cell {
    /// This cell's id.
    pub id: CellId,
    /// The static configuration the cell was created from (immutable,
    /// so every clone shares it).
    pub config: Arc<CellConfig>,
    state: CellState,
    /// Whether an image has been loaded since the last stop.
    loaded: bool,
    /// The stage-2 translation table enforcing this cell's memory
    /// assignment. Built once from the static configuration — the
    /// hardware mechanism behind the isolation the paper probes.
    stage2: Arc<Stage2Table>,
}

impl Cell {
    /// Creates a cell in the [`CellState::Stopped`] state, building
    /// its stage-2 table from the configured memory regions
    /// (page-aligned, non-emulated regions are identity-mapped;
    /// emulated `IO` regions are deliberately left unmapped so their
    /// accesses trap).
    pub fn new(id: CellId, config: CellConfig) -> Cell {
        let mut stage2 = Stage2Table::new();
        for region in &config.regions {
            if region.flags.contains(MemFlags::IO) {
                continue;
            }
            if region.base % PAGE_SIZE != 0 || region.size % PAGE_SIZE != 0 {
                // Sub-page device windows (e.g. a UART register block)
                // are handled by the region-list fast path instead of
                // the page tables.
                continue;
            }
            let perms = S2Perms {
                read: region.flags.contains(MemFlags::READ),
                write: region.flags.contains(MemFlags::WRITE),
                execute: region.flags.contains(MemFlags::EXECUTE),
            };
            stage2.map_identity(region.base, region.size, perms);
        }
        Cell {
            id,
            config: Arc::new(config),
            state: CellState::Stopped,
            loaded: false,
            stage2: Arc::new(stage2),
        }
    }

    /// The cell's stage-2 translation table.
    pub fn stage2(&self) -> &Stage2Table {
        &self.stage2
    }

    /// Mutable access to the stage-2 table — the surface a memory-fault
    /// campaign corrupts to model MMU-table faults. Regular hypervisor
    /// operation never rewrites the table after [`Cell::new`].
    ///
    /// The table is copy-on-write: while a clone of this cell still
    /// shares it, the first call copies it (`Arc::make_mut`), so the
    /// write lands in this cell's own table and every other clone keeps
    /// the original.
    pub fn stage2_mut(&mut self) -> &mut Stage2Table {
        Arc::make_mut(&mut self.stage2)
    }

    /// The cell's communication region, rooted at its first private
    /// executable RAM region (Jailhouse's convention).
    pub fn comm_region(&self) -> Option<crate::commregion::CommRegion> {
        self.config
            .regions
            .iter()
            .find(|r| {
                r.flags.contains(MemFlags::EXECUTE)
                    && !r.flags.contains(MemFlags::IO)
                    && !r.flags.contains(MemFlags::SHARED)
            })
            .map(|r| crate::commregion::CommRegion::at(r.base))
    }

    /// Current lifecycle state.
    pub fn state(&self) -> CellState {
        self.state
    }

    /// Whether this is the root cell.
    pub fn is_root(&self) -> bool {
        self.id == ROOT_CELL
    }

    /// Marks the cell image as loaded (`CELL_SET_LOADABLE` + copy).
    ///
    /// # Errors
    ///
    /// Returns [`HvError::Busy`] if the cell is running.
    pub fn mark_loaded(&mut self) -> Result<(), HvError> {
        if self.state == CellState::Running {
            return Err(HvError::Busy);
        }
        self.loaded = true;
        Ok(())
    }

    /// Transition: start the cell.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::Busy`] if already running, or
    /// [`HvError::InvalidArguments`] if no image was loaded.
    pub fn start(&mut self) -> Result<(), HvError> {
        match self.state {
            CellState::Running => Err(HvError::Busy),
            _ if !self.loaded => Err(HvError::InvalidArguments),
            _ => {
                self.state = CellState::Running;
                Ok(())
            }
        }
    }

    /// Transition: the root cell shut this cell down; its resources
    /// return to the root cell.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::NotPermitted`] on the root cell.
    pub fn shut_down(&mut self) -> Result<(), HvError> {
        if self.is_root() {
            return Err(HvError::NotPermitted);
        }
        self.state = CellState::ShutDown;
        self.loaded = false;
        Ok(())
    }

    /// Transition: a fault was isolated into this cell.
    pub fn mark_failed(&mut self) {
        if !self.is_root() {
            self.state = CellState::Failed;
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} \"{}\" [{}]", self.id, self.config.name, self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;

    fn rtos_cell() -> Cell {
        Cell::new(CellId(1), SystemConfig::freertos_cell())
    }

    #[test]
    fn new_cell_is_stopped_and_unloaded() {
        let mut cell = rtos_cell();
        assert_eq!(cell.state(), CellState::Stopped);
        assert!(!cell.is_root());
        // Unloaded: starting needs an image.
        assert_eq!(cell.start(), Err(HvError::InvalidArguments));
    }

    #[test]
    fn start_requires_loaded_image() {
        let mut cell = rtos_cell();
        assert_eq!(cell.start(), Err(HvError::InvalidArguments));
        cell.mark_loaded().unwrap();
        assert_eq!(cell.start(), Ok(()));
        assert_eq!(cell.state(), CellState::Running);
    }

    #[test]
    fn double_start_is_busy() {
        let mut cell = rtos_cell();
        cell.mark_loaded().unwrap();
        cell.start().unwrap();
        assert_eq!(cell.start(), Err(HvError::Busy));
    }

    #[test]
    fn mark_loaded_while_running_is_busy() {
        let mut cell = rtos_cell();
        cell.mark_loaded().unwrap();
        cell.start().unwrap();
        assert_eq!(cell.mark_loaded(), Err(HvError::Busy));
    }

    #[test]
    fn shutdown_resets_loaded_flag() {
        let mut cell = rtos_cell();
        cell.mark_loaded().unwrap();
        cell.start().unwrap();
        cell.shut_down().unwrap();
        assert_eq!(cell.state(), CellState::ShutDown);
        // Restart requires a fresh load.
        assert_eq!(cell.start(), Err(HvError::InvalidArguments));
    }

    #[test]
    fn root_cell_cannot_shut_down_or_fail() {
        let mut root = Cell::new(ROOT_CELL, SystemConfig::banana_pi_demo().root);
        assert_eq!(root.shut_down(), Err(HvError::NotPermitted));
        root.mark_failed();
        assert_ne!(root.state(), CellState::Failed);
    }

    #[test]
    fn failed_cell_can_be_restarted_after_reload() {
        let mut cell = rtos_cell();
        cell.mark_loaded().unwrap();
        cell.start().unwrap();
        cell.mark_failed();
        assert_eq!(cell.state(), CellState::Failed);
        // The paper: destroying and re-creating fixes the cell; at the
        // cell-object level a reload+start models the re-creation.
        cell.mark_loaded().unwrap();
        assert_eq!(cell.start(), Ok(()));
    }

    #[test]
    fn clone_shares_stage2_until_the_first_write() {
        let original = rtos_cell();
        let pristine = original.stage2().clone();
        let mut fork = original.clone();
        assert!(std::ptr::eq(fork.stage2(), original.stage2()));
        assert!(Arc::ptr_eq(&fork.config, &original.config));

        let ipa = original.config.regions[0].base;
        assert_ne!(fork.stage2().descriptor_word(ipa), 0, "a mapped page");
        fork.stage2_mut().set_descriptor_word(ipa, 0);
        assert!(!std::ptr::eq(fork.stage2(), original.stage2()));
        assert_eq!(fork.stage2().descriptor_word(ipa), 0);
        assert_eq!(original.stage2(), &pristine, "the original is untouched");
        // The configuration is never written, so it stays shared.
        assert!(Arc::ptr_eq(&fork.config, &original.config));
    }

    #[test]
    fn display_shows_name_and_state() {
        let cell = rtos_cell();
        let s = cell.to_string();
        assert!(s.contains("freertos-demo"));
        assert!(s.contains("stopped"));
    }
}
