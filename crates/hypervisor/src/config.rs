//! Static cell and system configurations.
//!
//! Jailhouse cells are described by C structures compiled into `.cell`
//! blobs, loaded into root-cell memory and passed to the hypervisor by
//! physical address. This module models that pipeline: configurations
//! are built in Rust, serialized to a compact binary blob with a magic
//! and checksum, staged into guest RAM, and re-parsed by the
//! hypervisor when handling `HYPERVISOR_ENABLE` / `CELL_CREATE`.
//!
//! The checksum is what makes experiment E1 deterministic: a corrupted
//! blob address (or a blob corrupted in flight) fails validation and
//! the hypercall returns *invalid arguments* before any side effect.

use crate::error::HvError;
use certify_arch::{CpuId, IrqId};
use certify_board::memmap;
use std::fmt;

/// Maximum cell-name length in the serialized form.
pub const MAX_NAME_LEN: usize = 31;
/// Magic prefix of a serialized cell configuration.
pub const CONFIG_MAGIC: u32 = 0x4a48_4345; // "JHCE"

/// Access permissions of a memory region, Jailhouse-style flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MemFlags(pub u32);

impl MemFlags {
    /// Region is readable.
    pub const READ: MemFlags = MemFlags(1 << 0);
    /// Region is writable.
    pub const WRITE: MemFlags = MemFlags(1 << 1);
    /// Region is executable.
    pub const EXECUTE: MemFlags = MemFlags(1 << 2);
    /// Region is device MMIO emulated by the hypervisor (accesses
    /// trap into `arch_handle_trap`).
    pub const IO: MemFlags = MemFlags(1 << 3);
    /// Region is shared with other cells (ivshmem).
    pub const SHARED: MemFlags = MemFlags(1 << 4);

    /// Read+write+execute normal memory.
    pub fn rwx() -> MemFlags {
        MemFlags(Self::READ.0 | Self::WRITE.0 | Self::EXECUTE.0)
    }

    /// Read+write normal memory.
    pub fn rw() -> MemFlags {
        MemFlags(Self::READ.0 | Self::WRITE.0)
    }

    /// Emulated device MMIO (read/write, trapping).
    pub fn io() -> MemFlags {
        MemFlags(Self::READ.0 | Self::WRITE.0 | Self::IO.0)
    }

    /// Shared read/write memory.
    pub fn shared_rw() -> MemFlags {
        MemFlags(Self::READ.0 | Self::WRITE.0 | Self::SHARED.0)
    }

    /// Whether all bits of `other` are set in `self`.
    pub fn contains(self, other: MemFlags) -> bool {
        self.0 & other.0 == other.0
    }
}

impl fmt::Display for MemFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}{}{}",
            if self.contains(MemFlags::READ) {
                "r"
            } else {
                "-"
            },
            if self.contains(MemFlags::WRITE) {
                "w"
            } else {
                "-"
            },
            if self.contains(MemFlags::EXECUTE) {
                "x"
            } else {
                "-"
            },
            if self.contains(MemFlags::IO) {
                "i"
            } else {
                "-"
            },
            if self.contains(MemFlags::SHARED) {
                "s"
            } else {
                "-"
            },
        )
    }
}

/// A physical memory region assigned to a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRegion {
    /// Physical base address.
    pub base: u32,
    /// Region size in bytes.
    pub size: u32,
    /// Access permissions.
    pub flags: MemFlags,
}

impl MemRegion {
    /// Creates a region.
    pub fn new(base: u32, size: u32, flags: MemFlags) -> MemRegion {
        MemRegion { base, size, flags }
    }

    /// Whether `addr` falls inside this region.
    pub fn contains_addr(&self, addr: u32) -> bool {
        addr >= self.base && (addr - self.base) < self.size
    }

    /// Whether this region overlaps `other`.
    pub fn overlaps(&self, other: &MemRegion) -> bool {
        let self_end = u64::from(self.base) + u64::from(self.size);
        let other_end = u64::from(other.base) + u64::from(other.size);
        u64::from(self.base) < other_end && u64::from(other.base) < self_end
    }
}

impl fmt::Display for MemRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "0x{:08x}..0x{:08x} [{}]",
            self.base,
            u64::from(self.base) + u64::from(self.size),
            self.flags
        )
    }
}

/// A static cell description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellConfig {
    /// Human-readable cell name (≤ [`MAX_NAME_LEN`] bytes).
    pub name: String,
    /// CPUs statically assigned to this cell.
    pub cpus: Vec<CpuId>,
    /// Memory regions assigned to this cell.
    pub regions: Vec<MemRegion>,
    /// Interrupt lines routed to this cell.
    pub irqs: Vec<IrqId>,
    /// Guest entry point (physical address of the first instruction).
    pub entry: u32,
}

impl CellConfig {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::InvalidArguments`] when the name is too long
    /// or empty, no CPU is assigned, regions are empty or overlap each
    /// other, or the entry point lies outside an executable region.
    pub fn validate(&self) -> Result<(), HvError> {
        if self.name.is_empty() || self.name.len() > MAX_NAME_LEN {
            return Err(HvError::InvalidArguments);
        }
        if self.cpus.is_empty() {
            return Err(HvError::InvalidArguments);
        }
        if self.regions.is_empty() {
            return Err(HvError::InvalidArguments);
        }
        for (i, a) in self.regions.iter().enumerate() {
            if a.size == 0 || u64::from(a.base) + u64::from(a.size) > u64::from(u32::MAX) + 1 {
                return Err(HvError::InvalidArguments);
            }
            for b in self.regions.iter().skip(i + 1) {
                if a.overlaps(b) {
                    return Err(HvError::InvalidArguments);
                }
            }
        }
        let entry_ok = self
            .regions
            .iter()
            .any(|r| r.contains_addr(self.entry) && r.flags.contains(MemFlags::EXECUTE));
        if !entry_ok {
            return Err(HvError::InvalidArguments);
        }
        Ok(())
    }

    /// The region containing `addr`, if any.
    pub fn region_for(&self, addr: u32) -> Option<&MemRegion> {
        self.regions.iter().find(|r| r.contains_addr(addr))
    }

    /// Serializes to the binary blob format staged in guest RAM:
    ///
    /// ```text
    /// magic | checksum | name_len | name bytes (padded to 32) |
    /// num_cpus | cpu ids | num_regions | regions | num_irqs | irqs |
    /// entry
    /// ```
    ///
    /// All fields are little-endian `u32` except the name bytes. The
    /// checksum is a wrapping sum of every subsequent word.
    pub fn serialize(&self) -> Vec<u8> {
        let mut words: Vec<u32> = Vec::new();
        words.push(self.name.len() as u32);
        let mut name_bytes = [0u8; 32];
        name_bytes[..self.name.len().min(32)]
            .copy_from_slice(&self.name.as_bytes()[..self.name.len().min(32)]);
        for chunk in name_bytes.chunks(4) {
            words.push(u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]));
        }
        words.push(self.cpus.len() as u32);
        words.extend(self.cpus.iter().map(|c| c.0));
        words.push(self.regions.len() as u32);
        for r in &self.regions {
            words.push(r.base);
            words.push(r.size);
            words.push(r.flags.0);
        }
        words.push(self.irqs.len() as u32);
        words.extend(self.irqs.iter().map(|i| u32::from(i.0)));
        words.push(self.entry);

        let checksum = words.iter().fold(0u32, |acc, w| acc.wrapping_add(*w));
        let mut blob = Vec::with_capacity((words.len() + 2) * 4);
        blob.extend(CONFIG_MAGIC.to_le_bytes());
        blob.extend(checksum.to_le_bytes());
        for w in words {
            blob.extend(w.to_le_bytes());
        }
        blob
    }

    /// Parses a binary blob produced by [`CellConfig::serialize`].
    ///
    /// # Errors
    ///
    /// Returns [`HvError::InvalidArguments`] on a bad magic, checksum
    /// mismatch, truncated blob, or malformed contents — the
    /// first line of defence that experiment E1 exercises.
    pub fn deserialize(blob: &[u8]) -> Result<CellConfig, HvError> {
        let mut reader = WordReader::new(blob);
        let magic = reader.next()?;
        if magic != CONFIG_MAGIC {
            return Err(HvError::InvalidArguments);
        }
        let checksum = reader.next()?;
        let payload_sum = reader
            .remaining_words()?
            .iter()
            .fold(0u32, |acc, w| acc.wrapping_add(*w));
        if payload_sum != checksum {
            return Err(HvError::InvalidArguments);
        }

        let name_len = reader.next()? as usize;
        if name_len == 0 || name_len > MAX_NAME_LEN {
            return Err(HvError::InvalidArguments);
        }
        let mut name_bytes = Vec::with_capacity(32);
        for _ in 0..8 {
            name_bytes.extend(reader.next()?.to_le_bytes());
        }
        let name = String::from_utf8(name_bytes[..name_len].to_vec())
            .map_err(|_| HvError::InvalidArguments)?;

        let num_cpus = reader.next()? as usize;
        if num_cpus > 64 {
            return Err(HvError::InvalidArguments);
        }
        let cpus = (0..num_cpus)
            .map(|_| reader.next().map(CpuId))
            .collect::<Result<Vec<_>, _>>()?;

        let num_regions = reader.next()? as usize;
        if num_regions > 64 {
            return Err(HvError::InvalidArguments);
        }
        let mut regions = Vec::with_capacity(num_regions);
        for _ in 0..num_regions {
            let base = reader.next()?;
            let size = reader.next()?;
            let flags = MemFlags(reader.next()?);
            regions.push(MemRegion { base, size, flags });
        }

        let num_irqs = reader.next()? as usize;
        if num_irqs > 256 {
            return Err(HvError::InvalidArguments);
        }
        let irqs = (0..num_irqs)
            .map(|_| reader.next().map(|w| IrqId(w as u16)))
            .collect::<Result<Vec<_>, _>>()?;

        let entry = reader.next()?;

        let config = CellConfig {
            name,
            cpus,
            regions,
            irqs,
            entry,
        };
        config.validate()?;
        Ok(config)
    }
}

/// Little-endian word cursor over a byte blob.
struct WordReader<'a> {
    blob: &'a [u8],
    pos: usize,
}

impl<'a> WordReader<'a> {
    fn new(blob: &'a [u8]) -> Self {
        WordReader { blob, pos: 0 }
    }

    fn next(&mut self) -> Result<u32, HvError> {
        let bytes = self
            .blob
            .get(self.pos..self.pos + 4)
            .ok_or(HvError::InvalidArguments)?;
        self.pos += 4;
        Ok(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    /// All words from the current position to the end (for checksums).
    fn remaining_words(&self) -> Result<Vec<u32>, HvError> {
        let rest = &self.blob[self.pos..];
        if !rest.len().is_multiple_of(4) {
            return Err(HvError::InvalidArguments);
        }
        Ok(rest
            .chunks(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }
}

/// The whole-system configuration: the root cell plus the hypervisor
/// carve-out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemConfig {
    /// Root-cell description (owns everything initially).
    pub root: CellConfig,
    /// Memory reserved for the hypervisor itself.
    pub hv_region: MemRegion,
}

impl SystemConfig {
    /// The paper's deployment: root cell owning both CPUs, its RAM
    /// slice, the UART (direct), the GIC distributor window (emulated)
    /// and the GPIO block (emulated), with the hypervisor carve-out at
    /// the top of DRAM.
    pub fn banana_pi_demo() -> SystemConfig {
        SystemConfig {
            root: CellConfig {
                name: "banana-pi".into(),
                cpus: vec![CpuId(0), CpuId(1)],
                regions: vec![
                    MemRegion::new(
                        memmap::ROOT_RAM_BASE,
                        memmap::ROOT_RAM_SIZE,
                        MemFlags::rwx(),
                    ),
                    MemRegion::new(
                        memmap::IVSHMEM_BASE,
                        memmap::IVSHMEM_SIZE,
                        MemFlags::shared_rw(),
                    ),
                    MemRegion::new(memmap::UART_BASE, memmap::UART_SIZE, MemFlags::rw()),
                    MemRegion::new(memmap::WDT_BASE, memmap::WDT_SIZE, MemFlags::rw()),
                    MemRegion::new(memmap::GPIO_BASE, memmap::GPIO_SIZE, MemFlags::io()),
                ],
                irqs: vec![IrqId(memmap::UART_IRQ), IrqId(memmap::IVSHMEM_IRQ)],
                entry: memmap::ROOT_RAM_BASE + 0x8000,
            },
            hv_region: MemRegion::new(memmap::HV_RAM_BASE, memmap::HV_RAM_SIZE, MemFlags::rw()),
        }
    }

    /// The paper's FreeRTOS non-root cell: CPU 1, its RAM slice, the
    /// shared ivshmem page and the (emulated) GPIO block for the LED.
    pub fn freertos_cell() -> CellConfig {
        CellConfig {
            name: "freertos-demo".into(),
            cpus: vec![CpuId(1)],
            regions: vec![
                MemRegion::new(
                    memmap::RTOS_RAM_BASE,
                    memmap::RTOS_RAM_SIZE,
                    MemFlags::rwx(),
                ),
                MemRegion::new(
                    memmap::IVSHMEM_BASE,
                    memmap::IVSHMEM_SIZE,
                    MemFlags::shared_rw(),
                ),
                MemRegion::new(memmap::GPIO_BASE, memmap::GPIO_SIZE, MemFlags::io()),
            ],
            irqs: vec![IrqId(memmap::IVSHMEM_IRQ)],
            entry: memmap::RTOS_RAM_BASE + 0x8000,
        }
    }

    /// Serializes the system configuration (same framing as a cell
    /// blob; the root config is the payload, followed by the
    /// hypervisor region).
    pub fn serialize(&self) -> Vec<u8> {
        let mut blob = self.root.serialize();
        // Append the hv region and refresh the checksum over the whole
        // payload.
        blob.extend(self.hv_region.base.to_le_bytes());
        blob.extend(self.hv_region.size.to_le_bytes());
        blob.extend(self.hv_region.flags.0.to_le_bytes());
        let payload: Vec<u32> = blob[8..]
            .chunks(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        let checksum = payload.iter().fold(0u32, |acc, w| acc.wrapping_add(*w));
        blob[4..8].copy_from_slice(&checksum.to_le_bytes());
        blob
    }

    /// Parses a blob produced by [`SystemConfig::serialize`].
    ///
    /// # Errors
    ///
    /// Returns [`HvError::InvalidArguments`] on magic/checksum/layout
    /// errors.
    pub fn deserialize(blob: &[u8]) -> Result<SystemConfig, HvError> {
        if blob.len() < 12 + 8 {
            return Err(HvError::InvalidArguments);
        }
        let split = blob.len() - 12;
        // Validate the overall checksum first.
        let mut reader = WordReader::new(blob);
        let magic = reader.next()?;
        if magic != CONFIG_MAGIC {
            return Err(HvError::InvalidArguments);
        }
        let checksum = reader.next()?;
        let payload_sum = reader
            .remaining_words()?
            .iter()
            .fold(0u32, |acc, w| acc.wrapping_add(*w));
        if payload_sum != checksum {
            return Err(HvError::InvalidArguments);
        }

        // Re-serialize the cell part with its own checksum to reuse the
        // cell parser.
        let mut cell_blob = blob[..split].to_vec();
        let cell_payload: Vec<u32> = cell_blob[8..]
            .chunks(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        let cell_sum = cell_payload
            .iter()
            .fold(0u32, |acc, w| acc.wrapping_add(*w));
        cell_blob[4..8].copy_from_slice(&cell_sum.to_le_bytes());
        let root = CellConfig::deserialize(&cell_blob)?;

        let mut tail = WordReader::new(&blob[split..]);
        let hv_region = MemRegion {
            base: tail.next()?,
            size: tail.next()?,
            flags: MemFlags(tail.next()?),
        };
        if hv_region.size == 0 {
            return Err(HvError::InvalidArguments);
        }
        Ok(SystemConfig { root, hv_region })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_configs_validate() {
        SystemConfig::banana_pi_demo().root.validate().unwrap();
        SystemConfig::freertos_cell().validate().unwrap();
    }

    #[test]
    fn cell_blob_round_trips() {
        let config = SystemConfig::freertos_cell();
        let blob = config.serialize();
        assert_eq!(CellConfig::deserialize(&blob).unwrap(), config);
    }

    #[test]
    fn system_blob_round_trips() {
        let config = SystemConfig::banana_pi_demo();
        let blob = config.serialize();
        assert_eq!(SystemConfig::deserialize(&blob).unwrap(), config);
    }

    #[test]
    fn corrupted_magic_rejected() {
        let mut blob = SystemConfig::freertos_cell().serialize();
        blob[0] ^= 0x01;
        assert_eq!(
            CellConfig::deserialize(&blob),
            Err(HvError::InvalidArguments)
        );
    }

    #[test]
    fn any_single_bit_flip_in_blob_is_rejected() {
        // The E1 guarantee: a corrupted configuration never parses.
        let blob = SystemConfig::freertos_cell().serialize();
        for byte in 0..blob.len() {
            for bit in 0..8 {
                let mut corrupted = blob.clone();
                corrupted[byte] ^= 1 << bit;
                assert!(
                    CellConfig::deserialize(&corrupted).is_err(),
                    "flip at byte {byte} bit {bit} was accepted"
                );
            }
        }
    }

    #[test]
    fn truncated_blob_rejected() {
        let blob = SystemConfig::freertos_cell().serialize();
        for len in 0..blob.len() {
            assert!(CellConfig::deserialize(&blob[..len]).is_err());
        }
    }

    #[test]
    fn overlapping_regions_rejected() {
        let mut config = SystemConfig::freertos_cell();
        config.regions.push(MemRegion::new(
            memmap::RTOS_RAM_BASE + 0x1000,
            0x1000,
            MemFlags::rw(),
        ));
        assert_eq!(config.validate(), Err(HvError::InvalidArguments));
    }

    #[test]
    fn entry_outside_executable_region_rejected() {
        let mut config = SystemConfig::freertos_cell();
        config.entry = memmap::UART_BASE;
        assert_eq!(config.validate(), Err(HvError::InvalidArguments));
    }

    #[test]
    fn empty_cpu_list_rejected() {
        let mut config = SystemConfig::freertos_cell();
        config.cpus.clear();
        assert_eq!(config.validate(), Err(HvError::InvalidArguments));
    }

    #[test]
    fn name_length_limits() {
        let mut config = SystemConfig::freertos_cell();
        config.name = String::new();
        assert!(config.validate().is_err());
        config.name = "x".repeat(MAX_NAME_LEN + 1);
        assert!(config.validate().is_err());
        config.name = "x".repeat(MAX_NAME_LEN);
        assert!(config.validate().is_ok());
    }

    #[test]
    fn region_overlap_detection() {
        let a = MemRegion::new(0x1000, 0x1000, MemFlags::rw());
        let b = MemRegion::new(0x1fff, 0x1, MemFlags::rw());
        let c = MemRegion::new(0x2000, 0x1000, MemFlags::rw());
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(b.overlaps(&a));
    }

    #[test]
    fn flags_display() {
        assert_eq!(MemFlags::rwx().to_string(), "rwx--");
        assert_eq!(MemFlags::io().to_string(), "rw-i-");
        assert_eq!(MemFlags::shared_rw().to_string(), "rw--s");
    }
}
