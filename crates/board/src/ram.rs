//! Byte-addressable RAM with sparse page-granular backing.
//!
//! The board has 1 GiB of DRAM but the simulation touches only a tiny
//! fraction of it, so storage is allocated lazily in 4 KiB pages. Reads
//! from untouched pages return zero, like freshly initialised DRAM in
//! the model's idealisation.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: u32 = 1 << PAGE_SHIFT;

/// A multiply-shift hasher for page indices. Page numbers are small
/// dense integers; the default SipHash costs more than the page access
/// it guards, and every 32-bit bus access goes through this map.
#[derive(Debug, Clone, Copy, Default)]
pub struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused by the u32 keys below).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u32(&mut self, value: u32) {
        // Fibonacci multiply-shift: mixes the low bits into the high
        // ones the hash table actually uses.
        self.0 = u64::from(value).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Sparse RAM covering `[base, base + size)`.
#[derive(Debug, Clone)]
pub struct Ram {
    base: u32,
    size: u32,
    pages: HashMap<u32, Vec<u8>, BuildHasherDefault<PageHasher>>,
}

/// One word-granular corruption applied through the fault helpers
/// ([`Ram::flip_bits32`], [`Ram::force32`], [`Ram::splat_range`]):
/// the address plus the before/after bytes, for the injection log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RamFault {
    /// Address of the corrupted word.
    pub addr: u32,
    /// Word value before the corruption.
    pub before: u32,
    /// Word value after the corruption.
    pub after: u32,
}

/// Error returned for accesses outside the RAM window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfRange {
    /// The faulting address.
    pub addr: u32,
}

impl std::fmt::Display for OutOfRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "address 0x{:08x} outside RAM window", self.addr)
    }
}

impl std::error::Error for OutOfRange {}

impl Ram {
    /// Creates a RAM window.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or the window wraps the address space.
    pub fn new(base: u32, size: u32) -> Ram {
        assert!(size > 0, "RAM size must be non-zero");
        assert!(
            base.checked_add(size - 1).is_some(),
            "RAM window must not wrap the 32-bit address space"
        );
        Ram {
            base,
            size,
            pages: HashMap::default(),
        }
    }

    /// Base address of the window.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Window size in bytes.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Whether `addr` falls inside the window.
    pub fn contains(&self, addr: u32) -> bool {
        addr >= self.base && (addr - self.base) < self.size
    }

    fn check(&self, addr: u32, len: u32) -> Result<(), OutOfRange> {
        let end = addr.checked_add(len - 1).ok_or(OutOfRange { addr })?;
        if !self.contains(addr) || !self.contains(end) {
            return Err(OutOfRange { addr });
        }
        Ok(())
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfRange`] if `addr` is outside the window.
    pub fn read8(&self, addr: u32) -> Result<u8, OutOfRange> {
        self.check(addr, 1)?;
        let offset = addr - self.base;
        let page = offset >> PAGE_SHIFT;
        Ok(self
            .pages
            .get(&page)
            .map(|p| p[(offset & (PAGE_SIZE - 1)) as usize])
            .unwrap_or(0))
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfRange`] if `addr` is outside the window.
    pub fn write8(&mut self, addr: u32, value: u8) -> Result<(), OutOfRange> {
        self.check(addr, 1)?;
        let offset = addr - self.base;
        let page = offset >> PAGE_SHIFT;
        let entry = self
            .pages
            .entry(page)
            .or_insert_with(|| vec![0; PAGE_SIZE as usize]);
        entry[(offset & (PAGE_SIZE - 1)) as usize] = value;
        Ok(())
    }

    /// Reads a little-endian 32-bit word (no alignment requirement; the
    /// Cortex-A7 supports unaligned accesses to normal memory).
    ///
    /// # Errors
    ///
    /// Returns [`OutOfRange`] if any byte falls outside the window.
    pub fn read32(&self, addr: u32) -> Result<u32, OutOfRange> {
        self.check(addr, 4)?;
        let offset = addr - self.base;
        let idx = (offset & (PAGE_SIZE - 1)) as usize;
        if idx + 4 <= PAGE_SIZE as usize {
            // All four bytes in one page: a single lookup.
            return Ok(match self.pages.get(&(offset >> PAGE_SHIFT)) {
                Some(page) => u32::from_le_bytes(page[idx..idx + 4].try_into().unwrap()),
                None => 0,
            });
        }
        let mut value = 0u32;
        for i in 0..4 {
            value |= u32::from(self.read8(addr + i)?) << (8 * i);
        }
        Ok(value)
    }

    /// Writes a little-endian 32-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfRange`] if any byte falls outside the window.
    pub fn write32(&mut self, addr: u32, value: u32) -> Result<(), OutOfRange> {
        self.check(addr, 4)?;
        let offset = addr - self.base;
        let idx = (offset & (PAGE_SIZE - 1)) as usize;
        if idx + 4 <= PAGE_SIZE as usize {
            // All four bytes in one page: a single lookup.
            let page = self
                .pages
                .entry(offset >> PAGE_SHIFT)
                .or_insert_with(|| vec![0; PAGE_SIZE as usize]);
            page[idx..idx + 4].copy_from_slice(&value.to_le_bytes());
            return Ok(());
        }
        for i in 0..4 {
            self.write8(addr + i, (value >> (8 * i)) as u8)?;
        }
        Ok(())
    }

    /// Number of 4 KiB pages actually materialised.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Whether the page containing `addr` has been materialised —
    /// i.e. something has been written near it. Fault-injection uses
    /// this to distinguish corruption of memory the workload actually
    /// touched from corruption of pristine DRAM.
    pub fn is_resident(&self, addr: u32) -> bool {
        self.contains(addr) && self.pages.contains_key(&((addr - self.base) >> PAGE_SHIFT))
    }

    /// Base addresses of all materialised pages, sorted ascending —
    /// the workload's memory working set. Sorting makes the list
    /// deterministic (the backing map is hash-ordered), which seeded
    /// fault-injection campaigns rely on.
    pub fn resident_page_addrs(&self) -> Vec<u32> {
        let mut addrs: Vec<u32> = self
            .pages
            .keys()
            .map(|&page| self.base + (page << PAGE_SHIFT))
            .collect();
        addrs.sort_unstable();
        addrs
    }

    /// Flips the bits of `mask` in the 32-bit word at `addr`,
    /// returning the recorded before/after values.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfRange`] if any byte falls outside the window.
    pub fn flip_bits32(&mut self, addr: u32, mask: u32) -> Result<RamFault, OutOfRange> {
        let before = self.read32(addr)?;
        let after = before ^ mask;
        self.write32(addr, after)?;
        Ok(RamFault {
            addr,
            before,
            after,
        })
    }

    /// Forces the 32-bit word at `addr` to `value` (stuck-at fault),
    /// returning the recorded before/after values.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfRange`] if any byte falls outside the window.
    pub fn force32(&mut self, addr: u32, value: u32) -> Result<RamFault, OutOfRange> {
        let before = self.read32(addr)?;
        self.write32(addr, value)?;
        Ok(RamFault {
            addr,
            before,
            after: value,
        })
    }

    /// Overwrites `words` consecutive 32-bit words starting at `addr`
    /// with `pattern` (a burst fault). Returns the fault record of the
    /// first word plus the number of words whose value actually
    /// changed.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfRange`] if any byte of the burst falls outside
    /// the window; no partial burst is applied.
    pub fn splat_range(
        &mut self,
        addr: u32,
        words: u32,
        pattern: u32,
    ) -> Result<(RamFault, u32), OutOfRange> {
        if words == 0 {
            return Err(OutOfRange { addr });
        }
        let len = words.checked_mul(4).ok_or(OutOfRange { addr })?;
        self.check(addr, len)?;
        let mut changed = 0;
        let mut first = None;
        for i in 0..words {
            let fault = self.force32(addr + 4 * i, pattern)?;
            if fault.before != fault.after {
                changed += 1;
            }
            if first.is_none() {
                first = Some(fault);
            }
        }
        Ok((first.expect("words > 0"), changed))
    }

    /// Zeroes a sub-range (page contents only where resident). Used to
    /// scrub cell memory on destruction.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfRange`] if the range leaves the window.
    pub fn zero_range(&mut self, addr: u32, len: u32) -> Result<(), OutOfRange> {
        if len == 0 {
            return Ok(());
        }
        self.check(addr, len)?;
        let start = u64::from(addr - self.base);
        let end = start + u64::from(len);
        for (&page, data) in self.pages.iter_mut() {
            let page_start = u64::from(page) << PAGE_SHIFT;
            let page_end = page_start + u64::from(PAGE_SIZE);
            let lo = start.max(page_start);
            let hi = end.min(page_end);
            if lo < hi {
                let a = (lo - page_start) as usize;
                let b = (hi - page_start) as usize;
                data[a..b].fill(0);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Ram {
        Ram::new(0x4000_0000, 0x1_0000)
    }

    #[test]
    fn fresh_ram_reads_zero() {
        let ram = small();
        assert_eq!(ram.read32(0x4000_0000).unwrap(), 0);
        assert_eq!(ram.read8(0x4000_ffff).unwrap(), 0);
        assert_eq!(ram.resident_pages(), 0);
    }

    #[test]
    fn word_round_trip_little_endian() {
        let mut ram = small();
        ram.write32(0x4000_0100, 0x0102_0304).unwrap();
        assert_eq!(ram.read32(0x4000_0100).unwrap(), 0x0102_0304);
        assert_eq!(ram.read8(0x4000_0100).unwrap(), 0x04);
        assert_eq!(ram.read8(0x4000_0103).unwrap(), 0x01);
    }

    #[test]
    fn unaligned_word_across_page_boundary() {
        let mut ram = small();
        let addr = 0x4000_0000 + 0x1000 - 2;
        ram.write32(addr, 0xaabb_ccdd).unwrap();
        assert_eq!(ram.read32(addr).unwrap(), 0xaabb_ccdd);
        assert_eq!(ram.resident_pages(), 2);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut ram = small();
        assert!(ram.read8(0x3fff_ffff).is_err());
        assert!(ram.write8(0x4001_0000, 1).is_err());
        // Word straddling the end of the window.
        assert!(ram.read32(0x4000_fffe).is_err());
    }

    #[test]
    fn zero_range_scrubs_resident_pages_only() {
        let mut ram = small();
        ram.write32(0x4000_2000, 0xffff_ffff).unwrap();
        ram.zero_range(0x4000_2000, 0x100).unwrap();
        assert_eq!(ram.read32(0x4000_2000).unwrap(), 0);
        // Non-resident pages stay non-resident.
        assert_eq!(ram.resident_pages(), 1);
    }

    #[test]
    fn zero_len_zero_range_is_noop() {
        let mut ram = small();
        ram.zero_range(0x4000_0000, 0).unwrap();
    }

    #[test]
    #[should_panic(expected = "must not wrap")]
    fn wrapping_window_rejected() {
        let _ = Ram::new(0xffff_f000, 0x2000);
    }

    #[test]
    fn flip_bits32_records_before_and_after_and_is_self_inverse() {
        let mut ram = small();
        ram.write32(0x4000_0200, 0x1234_5678).unwrap();
        let fault = ram.flip_bits32(0x4000_0200, 0x0000_0011).unwrap();
        assert_eq!(fault.before, 0x1234_5678);
        assert_eq!(fault.after, 0x1234_5669);
        assert_eq!(ram.read32(0x4000_0200).unwrap(), 0x1234_5669);
        // Same mask again restores the original value.
        let fault = ram.flip_bits32(0x4000_0200, 0x0000_0011).unwrap();
        assert_eq!(fault.after, 0x1234_5678);
    }

    #[test]
    fn force32_is_a_stuck_at_fault() {
        let mut ram = small();
        ram.write32(0x4000_0300, 0xffff_ffff).unwrap();
        let fault = ram.force32(0x4000_0300, 0).unwrap();
        assert_eq!((fault.before, fault.after), (0xffff_ffff, 0));
        assert_eq!(ram.read32(0x4000_0300).unwrap(), 0);
    }

    #[test]
    fn splat_range_counts_changed_words() {
        let mut ram = small();
        ram.write32(0x4000_0400, 0xaaaa_aaaa).unwrap();
        ram.write32(0x4000_0408, 0xaaaa_aaaa).unwrap();
        let (first, changed) = ram.splat_range(0x4000_0400, 4, 0xaaaa_aaaa).unwrap();
        assert_eq!(first.before, 0xaaaa_aaaa);
        assert_eq!(changed, 2, "two of four words were zero before");
        // A burst straddling the window end is rejected whole.
        assert!(ram.splat_range(0x4000_fffc, 2, 0).is_err());
        assert!(ram.splat_range(0x4000_0000, 0, 0).is_err());
        // A length whose byte count overflows u32 is rejected, not
        // partially applied.
        assert!(ram.splat_range(0x4000_0000, u32::MAX / 2, 0).is_err());
        assert_eq!(ram.read32(0x4000_0000).unwrap(), 0, "no partial write");
    }

    #[test]
    fn residency_tracks_materialised_pages() {
        let mut ram = small();
        assert!(!ram.is_resident(0x4000_2000));
        ram.write8(0x4000_2abc, 1).unwrap();
        assert!(ram.is_resident(0x4000_2000));
        assert!(ram.is_resident(0x4000_2fff));
        assert!(!ram.is_resident(0x4000_3000));
        assert!(!ram.is_resident(0x3fff_ffff));
    }

    #[test]
    fn resident_page_addrs_are_sorted_page_bases() {
        let mut ram = small();
        ram.write8(0x4000_f123, 1).unwrap();
        ram.write8(0x4000_2abc, 1).unwrap();
        ram.write8(0x4000_0001, 1).unwrap();
        assert_eq!(
            ram.resident_page_addrs(),
            vec![0x4000_0000, 0x4000_2000, 0x4000_f000]
        );
    }
}
