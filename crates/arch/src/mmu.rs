//! Second-stage (stage-2) translation tables.
//!
//! The ARMv7 virtualization extensions give the hypervisor a second
//! translation stage: guest *intermediate physical addresses* (IPAs)
//! are mapped to machine physical addresses with their own permission
//! bits, and any access outside the mapping traps to HYP mode. This is
//! the hardware mechanism behind Jailhouse's memory partitioning —
//! and, therefore, behind every isolation claim the paper tests.
//!
//! The model is a faithful two-level table: a first-level table of
//! 4 MiB entries, each either a *block* mapping, a pointer to a
//! second-level table of 4 KiB page entries, or invalid. Identity
//! mapping is used (IPA = PA), like Jailhouse's flat cell mappings,
//! but the structure supports arbitrary mappings.

use std::fmt;

/// Page size (4 KiB).
pub const PAGE_SIZE: u32 = 1 << PAGE_SHIFT;
/// Page shift.
pub const PAGE_SHIFT: u32 = 12;
/// First-level block size (4 MiB).
pub const BLOCK_SIZE: u32 = 1 << BLOCK_SHIFT;
/// First-level shift.
pub const BLOCK_SHIFT: u32 = 22;

/// Stage-2 access permissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct S2Perms {
    /// Reads permitted.
    pub read: bool,
    /// Writes permitted.
    pub write: bool,
    /// Instruction fetch permitted.
    pub execute: bool,
}

impl S2Perms {
    /// Whether an access of the given kind is allowed.
    pub fn allows(self, access: AccessKind) -> bool {
        match access {
            AccessKind::Read => self.read,
            AccessKind::Write => self.write,
            AccessKind::Fetch => self.execute,
        }
    }
}

impl fmt::Display for S2Perms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.read { 'r' } else { '-' },
            if self.write { 'w' } else { '-' },
            if self.execute { 'x' } else { '-' }
        )
    }
}

/// The kind of memory access being translated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Fetch,
}

/// A stage-2 translation fault, as delivered to the hypervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum S2Fault {
    /// No mapping covers the address.
    Translation {
        /// Faulting IPA.
        ipa: u32,
    },
    /// A mapping exists but forbids this access kind.
    Permission {
        /// Faulting IPA.
        ipa: u32,
        /// The offending access kind.
        access: AccessKind,
    },
}

impl fmt::Display for S2Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            S2Fault::Translation { ipa } => write!(f, "stage-2 translation fault at {ipa:#010x}"),
            S2Fault::Permission { ipa, access } => {
                write!(f, "stage-2 permission fault at {ipa:#010x} ({access:?})")
            }
        }
    }
}

/// Entries in a first-level table (4 GiB of IPA space / 4 MiB blocks).
const L1_ENTRIES: usize = 1 << (32 - BLOCK_SHIFT);
/// Entries in a second-level table (4 MiB block / 4 KiB pages).
const L2_ENTRIES: usize = 1 << (BLOCK_SHIFT - PAGE_SHIFT);

#[derive(Debug, Clone, PartialEq, Eq)]
enum L1Entry {
    /// No mapping: every access through this entry faults.
    Invalid,
    /// 4 MiB identity-style block.
    Block { frame: u32, perms: S2Perms },
    /// Second-level page table: one raw descriptor word per 4 KiB page
    /// in the [`desc`] encoding (`0` = unmapped) — the same flat-array
    /// shape the hardware walks, which also makes building a cell's
    /// table a plain array fill instead of per-page map insertions.
    Table(Box<[u32; L2_ENTRIES]>),
}

/// A per-cell stage-2 translation table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stage2Table {
    /// First-level table, allocated on first mapping.
    l1: Vec<L1Entry>,
}

/// Encodes a raw page descriptor word.
fn encode_desc(frame: u32, perms: S2Perms) -> u32 {
    let mut word = (frame << PAGE_SHIFT) | desc::VALID;
    if perms.read {
        word |= desc::READ;
    }
    if perms.write {
        word |= desc::WRITE;
    }
    if perms.execute {
        word |= desc::EXECUTE;
    }
    word
}

/// Decodes the permission bits of a raw descriptor word.
fn decode_perms(word: u32) -> S2Perms {
    S2Perms {
        read: word & desc::READ != 0,
        write: word & desc::WRITE != 0,
        execute: word & desc::EXECUTE != 0,
    }
}

impl Stage2Table {
    /// Creates an empty (all-faulting) table.
    pub fn new() -> Stage2Table {
        Stage2Table::default()
    }

    /// Mutable first-level entry for `ipa`, growing the table on first
    /// use.
    fn l1_entry_mut(&mut self, ipa: u32) -> &mut L1Entry {
        if self.l1.is_empty() {
            self.l1.resize(L1_ENTRIES, L1Entry::Invalid);
        }
        &mut self.l1[(ipa >> BLOCK_SHIFT) as usize]
    }

    /// Splits a block entry into an equivalent second-level table.
    fn split_block(entry: &mut L1Entry) {
        if let L1Entry::Block { frame, perms } = *entry {
            let mut pages = Box::new([0u32; L2_ENTRIES]);
            for (i, word) in pages.iter_mut().enumerate() {
                *word = encode_desc(frame + i as u32, perms);
            }
            *entry = L1Entry::Table(pages);
        }
    }

    /// Maps `[ipa, ipa + size)` to the identical physical range with
    /// the given permissions, coalescing whole 4 MiB-aligned spans
    /// into block entries.
    ///
    /// # Panics
    ///
    /// Panics if `ipa` or `size` is not page-aligned, or the range
    /// wraps the address space.
    pub fn map_identity(&mut self, ipa: u32, size: u32, perms: S2Perms) {
        assert_eq!(ipa % PAGE_SIZE, 0, "ipa must be page-aligned");
        assert_eq!(size % PAGE_SIZE, 0, "size must be page-aligned");
        assert!(
            size == 0 || ipa.checked_add(size - 1).is_some(),
            "range wraps the address space"
        );
        let mut addr = ipa;
        let end = ipa.wrapping_add(size);
        while addr != end {
            let remaining = end.wrapping_sub(addr);
            if addr.is_multiple_of(BLOCK_SIZE) && remaining >= BLOCK_SIZE {
                let entry = self.l1_entry_mut(addr);
                *entry = L1Entry::Block {
                    frame: addr >> PAGE_SHIFT,
                    perms,
                };
                addr = addr.wrapping_add(BLOCK_SIZE);
            } else {
                // Fill the whole page run within this 4 MiB window in
                // one pass over the second-level array (building a
                // cell's table is a hot part of per-trial setup).
                let window_end = (addr & !(BLOCK_SIZE - 1)).wrapping_add(BLOCK_SIZE);
                let run_end = if remaining < window_end.wrapping_sub(addr) {
                    end
                } else {
                    window_end
                };
                let entry = self.l1_entry_mut(addr);
                if matches!(entry, L1Entry::Invalid) {
                    *entry = L1Entry::Table(Box::new([0u32; L2_ENTRIES]));
                }
                Self::split_block(entry);
                let L1Entry::Table(pages) = entry else {
                    unreachable!("entry was just converted to a table");
                };
                let mut page = addr;
                while page != run_end {
                    pages[((page >> PAGE_SHIFT) & 0x3ff) as usize] =
                        encode_desc(page >> PAGE_SHIFT, perms);
                    page = page.wrapping_add(PAGE_SIZE);
                }
                addr = run_end;
            }
        }
    }

    /// Maps one 4 KiB page `ipa -> pa`.
    ///
    /// # Panics
    ///
    /// Panics if either address is not page-aligned.
    pub fn map_page(&mut self, ipa: u32, pa: u32, perms: S2Perms) {
        assert_eq!(ipa % PAGE_SIZE, 0, "ipa must be page-aligned");
        assert_eq!(pa % PAGE_SIZE, 0, "pa must be page-aligned");
        let entry = self.l1_entry_mut(ipa);
        if matches!(entry, L1Entry::Invalid) {
            *entry = L1Entry::Table(Box::new([0u32; L2_ENTRIES]));
        }
        Self::split_block(entry);
        let L1Entry::Table(pages) = entry else {
            unreachable!("entry was just converted to a table");
        };
        pages[((ipa >> PAGE_SHIFT) & 0x3ff) as usize] = encode_desc(pa >> PAGE_SHIFT, perms);
    }

    /// Removes the mapping of `[ipa, ipa + size)`.
    ///
    /// # Panics
    ///
    /// Panics if `ipa` or `size` is not page-aligned.
    pub fn unmap(&mut self, ipa: u32, size: u32) {
        assert_eq!(ipa % PAGE_SIZE, 0, "ipa must be page-aligned");
        assert_eq!(size % PAGE_SIZE, 0, "size must be page-aligned");
        if self.l1.is_empty() {
            return;
        }
        let mut addr = ipa;
        let end = ipa.wrapping_add(size);
        while addr != end {
            let entry = &mut self.l1[(addr >> BLOCK_SHIFT) as usize];
            if addr.is_multiple_of(BLOCK_SIZE)
                && end.wrapping_sub(addr) >= BLOCK_SIZE
                && matches!(entry, L1Entry::Block { .. })
            {
                *entry = L1Entry::Invalid;
                addr = addr.wrapping_add(BLOCK_SIZE);
                continue;
            }
            // Partial unmap of a block: split first.
            Self::split_block(entry);
            if let L1Entry::Table(pages) = entry {
                let slot = &mut pages[((addr >> PAGE_SHIFT) & 0x3ff) as usize];
                if *slot & desc::VALID != 0 {
                    *slot = 0;
                }
                if pages.iter().all(|&w| w & desc::VALID == 0) {
                    *entry = L1Entry::Invalid;
                }
            }
            addr = addr.wrapping_add(PAGE_SIZE);
        }
    }

    /// Translates an access: returns the physical address or the
    /// stage-2 fault the hardware would report.
    ///
    /// # Errors
    ///
    /// Returns [`S2Fault::Translation`] for unmapped addresses and
    /// [`S2Fault::Permission`] for mapped-but-forbidden accesses.
    pub fn translate(&self, ipa: u32, access: AccessKind) -> Result<u32, S2Fault> {
        let entry = self
            .l1
            .get((ipa >> BLOCK_SHIFT) as usize)
            .ok_or(S2Fault::Translation { ipa })?;
        let (frame, perms, offset) = match entry {
            L1Entry::Invalid => return Err(S2Fault::Translation { ipa }),
            L1Entry::Block { frame, perms } => (*frame, *perms, ipa & (BLOCK_SIZE - 1)),
            L1Entry::Table(pages) => {
                let word = pages[((ipa >> PAGE_SHIFT) & 0x3ff) as usize];
                if word & desc::VALID == 0 {
                    return Err(S2Fault::Translation { ipa });
                }
                (
                    word >> PAGE_SHIFT,
                    decode_perms(word),
                    ipa & (PAGE_SIZE - 1),
                )
            }
        };
        if !perms.allows(access) {
            return Err(S2Fault::Permission { ipa, access });
        }
        Ok((frame << PAGE_SHIFT) | offset)
    }

    /// The raw descriptor word describing the page containing `ipa`,
    /// in the simplified encoding of [`desc`]: `0` when the page is
    /// unmapped. This is the word a memory-fault campaign corrupts to
    /// model MMU-table faults.
    pub fn descriptor_word(&self, ipa: u32) -> u32 {
        let Some(entry) = self.l1.get((ipa >> BLOCK_SHIFT) as usize) else {
            return 0;
        };
        match entry {
            L1Entry::Invalid => 0,
            L1Entry::Block { frame, perms } => {
                // The page's output frame within the 4 MiB block.
                encode_desc(frame + ((ipa >> PAGE_SHIFT) & 0x3ff), *perms)
            }
            L1Entry::Table(pages) => {
                let word = pages[((ipa >> PAGE_SHIFT) & 0x3ff) as usize];
                if word & desc::VALID == 0 {
                    0
                } else {
                    word
                }
            }
        }
    }

    /// Replaces the descriptor of the page containing `ipa` with the
    /// raw `word` ([`desc`] encoding). A cleared [`desc::VALID`] bit
    /// unmaps the page; a set one (re)maps it to the encoded output
    /// frame and permissions. This is how injected table corruption is
    /// written back — including corruptions that conjure a mapping out
    /// of a previously invalid descriptor.
    pub fn set_descriptor_word(&mut self, ipa: u32, word: u32) {
        let page_base = ipa & !(PAGE_SIZE - 1);
        if word & desc::VALID == 0 {
            self.unmap(page_base, PAGE_SIZE);
            return;
        }
        let perms = S2Perms {
            read: word & desc::READ != 0,
            write: word & desc::WRITE != 0,
            execute: word & desc::EXECUTE != 0,
        };
        self.map_page(page_base, word & !(PAGE_SIZE - 1), perms);
    }
}

/// Bit layout of the simplified raw stage-2 descriptor word used by
/// [`Stage2Table::descriptor_word`] / [`Stage2Table::set_descriptor_word`]:
/// the output frame lives in bits 12 and up (like a real short-descriptor
/// small page entry), the low bits carry validity and permissions.
pub mod desc {
    /// Descriptor is valid (a cleared bit means "translation fault").
    pub const VALID: u32 = 1 << 0;
    /// Reads permitted.
    pub const READ: u32 = 1 << 1;
    /// Writes permitted.
    pub const WRITE: u32 = 1 << 2;
    /// Instruction fetch permitted.
    pub const EXECUTE: u32 = 1 << 3;
}

#[cfg(test)]
mod tests {
    use super::*;

    const RWX: S2Perms = S2Perms {
        read: true,
        write: true,
        execute: true,
    };
    const RW: S2Perms = S2Perms {
        read: true,
        write: true,
        execute: false,
    };
    const RO: S2Perms = S2Perms {
        read: true,
        write: false,
        execute: false,
    };

    /// Pages in the 4 MiB window at `ipa` whose descriptor is valid.
    fn valid_pages(table: &Stage2Table, ipa: u32) -> usize {
        (ipa..ipa + BLOCK_SIZE)
            .step_by(PAGE_SIZE as usize)
            .filter(|&page| table.descriptor_word(page) & desc::VALID != 0)
            .count()
    }

    #[test]
    fn unmapped_address_faults() {
        let table = Stage2Table::new();
        assert_eq!(
            table.translate(0x4000_0000, AccessKind::Read),
            Err(S2Fault::Translation { ipa: 0x4000_0000 })
        );
    }

    #[test]
    fn identity_block_mapping_translates() {
        let mut table = Stage2Table::new();
        table.map_identity(0x4000_0000, 0x0080_0000, RWX);
        assert_eq!(
            table.translate(0x4040_1234, AccessKind::Read),
            Ok(0x4040_1234)
        );
        assert_eq!(
            table.translate(0x4000_0000, AccessKind::Fetch),
            Ok(0x4000_0000)
        );
        // One byte past the end faults.
        assert!(table.translate(0x4080_0000, AccessKind::Read).is_err());
    }

    #[test]
    fn sub_block_ranges_use_page_entries() {
        let mut table = Stage2Table::new();
        table.map_identity(0x4000_1000, 0x3000, RW);
        assert_eq!(valid_pages(&table, 0x4000_0000), 3);
        assert_eq!(
            table.translate(0x4000_2abc, AccessKind::Write),
            Ok(0x4000_2abc)
        );
        assert!(table.translate(0x4000_0000, AccessKind::Read).is_err());
        assert!(table.translate(0x4000_4000, AccessKind::Read).is_err());
    }

    #[test]
    fn permissions_are_enforced() {
        let mut table = Stage2Table::new();
        table.map_identity(0x4000_0000, 0x1000, RO);
        assert!(table.translate(0x4000_0000, AccessKind::Read).is_ok());
        assert_eq!(
            table.translate(0x4000_0000, AccessKind::Write),
            Err(S2Fault::Permission {
                ipa: 0x4000_0000,
                access: AccessKind::Write
            })
        );
        assert!(table.translate(0x4000_0000, AccessKind::Fetch).is_err());
    }

    #[test]
    fn non_identity_page_mapping() {
        let mut table = Stage2Table::new();
        table.map_page(0x0000_1000, 0x4567_8000, RW);
        assert_eq!(
            table.translate(0x0000_1040, AccessKind::Read),
            Ok(0x4567_8040)
        );
    }

    #[test]
    fn mapping_a_page_splits_a_block() {
        let mut table = Stage2Table::new();
        table.map_identity(0x4000_0000, BLOCK_SIZE, RWX);
        // Remap one page read-only.
        table.map_page(0x4010_0000, 0x4010_0000, RO);
        assert!(table.translate(0x4010_0000, AccessKind::Write).is_err());
        // Neighbouring pages keep the block permissions.
        assert!(table.translate(0x4010_1000, AccessKind::Write).is_ok());
    }

    #[test]
    fn unmap_whole_block() {
        let mut table = Stage2Table::new();
        table.map_identity(0x4000_0000, BLOCK_SIZE, RWX);
        table.unmap(0x4000_0000, BLOCK_SIZE);
        assert!(table.translate(0x4000_0000, AccessKind::Read).is_err());
        assert_eq!(valid_pages(&table, 0x4000_0000), 0);
    }

    #[test]
    fn partial_unmap_splits_block() {
        let mut table = Stage2Table::new();
        table.map_identity(0x4000_0000, BLOCK_SIZE, RW);
        table.unmap(0x4000_0000, PAGE_SIZE);
        assert!(table.translate(0x4000_0000, AccessKind::Read).is_err());
        assert!(table.translate(0x4000_1000, AccessKind::Read).is_ok());
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    fn unaligned_map_rejected() {
        let mut table = Stage2Table::new();
        table.map_identity(0x4000_0800, 0x1000, RW);
    }

    #[test]
    fn perms_display() {
        assert_eq!(RWX.to_string(), "rwx");
        assert_eq!(RO.to_string(), "r--");
    }

    #[test]
    fn descriptor_word_round_trips_page_mappings() {
        let mut table = Stage2Table::new();
        table.map_page(0x0000_1000, 0x4567_8000, RW);
        let word = table.descriptor_word(0x0000_1abc);
        assert_eq!(word & !0xfff, 0x4567_8000);
        assert_eq!(word & 0xf, desc::VALID | desc::READ | desc::WRITE);
        assert_eq!(table.descriptor_word(0x0000_2000), 0, "unmapped page");

        // Writing the same word back is a no-op for translation.
        table.set_descriptor_word(0x0000_1abc, word);
        assert_eq!(
            table.translate(0x0000_1040, AccessKind::Read),
            Ok(0x4567_8040)
        );
    }

    #[test]
    fn descriptor_word_reads_through_blocks() {
        let mut table = Stage2Table::new();
        table.map_identity(0x4000_0000, BLOCK_SIZE, RWX);
        let word = table.descriptor_word(0x4010_1234);
        assert_eq!(word & !0xfff, 0x4010_1000, "block entry resolves per page");
        assert_eq!(
            word & 0xf,
            desc::VALID | desc::READ | desc::WRITE | desc::EXECUTE
        );
    }

    #[test]
    fn clearing_the_valid_bit_unmaps_the_page() {
        let mut table = Stage2Table::new();
        table.map_identity(0x4000_0000, 0x3000, RW);
        let word = table.descriptor_word(0x4000_1000);
        table.set_descriptor_word(0x4000_1000, word & !desc::VALID);
        assert!(table.translate(0x4000_1800, AccessKind::Read).is_err());
        // The neighbours keep translating.
        assert!(table.translate(0x4000_0000, AccessKind::Read).is_ok());
        assert!(table.translate(0x4000_2000, AccessKind::Read).is_ok());
        assert_eq!(valid_pages(&table, 0x4000_0000), 2);
    }

    #[test]
    fn corrupted_frame_bits_redirect_the_translation() {
        let mut table = Stage2Table::new();
        table.map_identity(0x4000_0000, PAGE_SIZE, RW);
        let word = table.descriptor_word(0x4000_0000);
        // Flip one output-frame bit: the page now aliases other memory.
        table.set_descriptor_word(0x4000_0000, word ^ (1 << 20));
        assert_eq!(
            table.translate(0x4000_0040, AccessKind::Read),
            Ok(0x4010_0040)
        );
    }

    #[test]
    fn valid_word_on_an_unmapped_page_conjures_a_mapping() {
        let mut table = Stage2Table::new();
        table.set_descriptor_word(0x4000_0000, 0x4567_8000 | desc::VALID | desc::READ);
        assert_eq!(
            table.translate(0x4000_0010, AccessKind::Read),
            Ok(0x4567_8010)
        );
        assert!(table.translate(0x4000_0010, AccessKind::Write).is_err());
    }
}
