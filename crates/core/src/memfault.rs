//! Memory fault models and the address-space sampler.
//!
//! The paper's future-work section asks for "a wider and customizable
//! set of fault models" beyond register bit-flips. This module is that
//! wider set for *memory*: transient corruption of physical RAM words,
//! bursts across a page, corruption of the hypervisor's stage-2
//! translation descriptors (via [`certify_arch::mmu`]) and of the
//! per-cell communication region it publishes cell state through (via
//! [`certify_hypervisor::commregion`]).
//!
//! The pieces parallel the register machinery in [`crate::fault`]:
//! a [`MemFaultModel`] says *how* to corrupt, a [`MemTarget`] samples
//! *where* from configurable regions with the campaign's seeded RNG,
//! and [`AppliedMemFault`] records exactly what changed (before/after
//! bytes) for the post-run analytics.

use certify_arch::mmu::{desc, PAGE_SIZE};
use certify_board::ram::OutOfRange;
use certify_board::{memmap, Machine};
use certify_hypervisor::cell::ROOT_CELL;
use certify_hypervisor::{commregion, CellId, Hypervisor};
use rand::Rng;
use std::fmt;

/// A sampled address-space region a memory fault can land in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemRegionKind {
    /// The root (Linux) cell's RAM slice.
    RootRam,
    /// The non-root (FreeRTOS) cell's RAM slice.
    NonRootRam,
    /// The inter-cell shared-memory page.
    Ivshmem,
    /// The non-root cell's communication region (the four words the
    /// hypervisor publishes cell state through).
    CommRegion,
    /// The non-root cell's stage-2 translation descriptors, addressed
    /// by the IPA they translate.
    Stage2Tables,
    /// An arbitrary physical window (may deliberately cover unmapped
    /// space to exercise the skipped-injection path).
    Custom {
        /// Window base address.
        base: u32,
        /// Window size in bytes.
        size: u32,
    },
}

impl MemRegionKind {
    /// The named (non-custom) regions, in report order.
    pub const ALL: [MemRegionKind; 5] = [
        MemRegionKind::RootRam,
        MemRegionKind::NonRootRam,
        MemRegionKind::Ivshmem,
        MemRegionKind::CommRegion,
        MemRegionKind::Stage2Tables,
    ];

    /// A short identifier for reports.
    pub fn name(self) -> &'static str {
        match self {
            MemRegionKind::RootRam => "root-ram",
            MemRegionKind::NonRootRam => "nonroot-ram",
            MemRegionKind::Ivshmem => "ivshmem",
            MemRegionKind::CommRegion => "comm-region",
            MemRegionKind::Stage2Tables => "stage2-tables",
            MemRegionKind::Custom { .. } => "custom",
        }
    }

    /// The `[base, base + size)` address span sampled for this region.
    /// For [`MemRegionKind::Stage2Tables`] the span is the IPA space
    /// whose descriptors are under attack.
    pub fn span(self) -> (u32, u32) {
        match self {
            MemRegionKind::RootRam => (memmap::ROOT_RAM_BASE, memmap::ROOT_RAM_SIZE),
            MemRegionKind::NonRootRam => (memmap::RTOS_RAM_BASE, memmap::RTOS_RAM_SIZE),
            MemRegionKind::Ivshmem => (memmap::IVSHMEM_BASE, memmap::IVSHMEM_SIZE),
            MemRegionKind::CommRegion => (memmap::RTOS_RAM_BASE, 0x10),
            MemRegionKind::Stage2Tables => (memmap::RTOS_RAM_BASE, memmap::RTOS_RAM_SIZE),
            MemRegionKind::Custom { base, size } => (base, size),
        }
    }

    /// The cell whose guest is the natural victim of corruption in
    /// this region.
    fn victim(self, hv: &Hypervisor) -> Option<CellId> {
        match self {
            MemRegionKind::RootRam => Some(ROOT_CELL),
            MemRegionKind::Custom { base, size } => {
                if memmap::in_region(base, memmap::ROOT_RAM_BASE, memmap::ROOT_RAM_SIZE) {
                    Some(ROOT_CELL)
                } else {
                    let _ = size;
                    hv.first_nonroot_cell()
                }
            }
            _ => hv.first_nonroot_cell(),
        }
    }
}

impl fmt::Display for MemRegionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Address-space sampler: draws a `(region, word-aligned address)`
/// pair uniformly — first a region, then an offset inside it — using
/// the campaign's seeded RNG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemTarget {
    regions: Vec<MemRegionKind>,
}

impl MemTarget {
    /// A sampler over the given regions.
    ///
    /// # Panics
    ///
    /// Panics if `regions` is empty, any region spans fewer than four
    /// bytes, or a (custom) region wraps the 32-bit address space.
    pub fn new(regions: impl IntoIterator<Item = MemRegionKind>) -> MemTarget {
        let regions: Vec<MemRegionKind> = regions.into_iter().collect();
        assert!(!regions.is_empty(), "mem target needs at least one region");
        for region in &regions {
            let (base, size) = region.span();
            assert!(size >= 4, "region {region} is too small");
            assert!(
                base.checked_add(size - 1).is_some(),
                "region {region} wraps the 32-bit address space"
            );
        }
        MemTarget { regions }
    }

    /// All five named regions.
    pub fn all() -> MemTarget {
        MemTarget::new(MemRegionKind::ALL)
    }

    /// The E6 sweep's victim set: non-root RAM, stage-2 tables and the
    /// communication region.
    pub fn e6() -> MemTarget {
        MemTarget::new([
            MemRegionKind::NonRootRam,
            MemRegionKind::Stage2Tables,
            MemRegionKind::CommRegion,
        ])
    }

    /// A sampler pinned to one region.
    pub fn only(region: MemRegionKind) -> MemTarget {
        MemTarget::new([region])
    }

    /// The configured regions.
    pub fn regions(&self) -> &[MemRegionKind] {
        &self.regions
    }

    /// Draws one `(region, word-aligned address)` sample.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> (MemRegionKind, u32) {
        let region = self.regions[rng.gen_range(0..self.regions.len())];
        let (base, size) = region.span();
        let words = (size / 4).max(1);
        let addr = base + 4 * rng.gen_range(0..words);
        (region, addr)
    }
}

/// Where a memory fault was physically applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemLocus {
    /// A 32-bit word of physical RAM.
    RamWord,
    /// A stage-2 translation descriptor (raw [`desc`] encoding).
    Stage2Descriptor,
    /// A word of a cell's communication region.
    CommWord,
}

impl fmt::Display for MemLocus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MemLocus::RamWord => "ram",
            MemLocus::Stage2Descriptor => "s2-desc",
            MemLocus::CommWord => "comm",
        })
    }
}

/// One concrete memory corruption that was applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppliedMemFault {
    /// The sampled target region.
    pub region: MemRegionKind,
    /// What kind of word was corrupted.
    pub locus: MemLocus,
    /// The corrupted address (an IPA for descriptor faults).
    pub addr: u32,
    /// First affected word before corruption.
    pub before: u32,
    /// First affected word after corruption.
    pub after: u32,
    /// Bytes affected (4 for word faults, larger for bursts).
    pub len: u32,
    /// Whether the fault hit *live* state — resident RAM, a valid
    /// descriptor, or the comm region — and is therefore behaviourally
    /// visible rather than latent in pristine DRAM.
    pub live: bool,
}

impl fmt::Display for AppliedMemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@{:#010x} {}: {:08x} -> {:08x}",
            self.region, self.addr, self.locus, self.before, self.after
        )?;
        if self.len > 4 {
            write!(f, " ({}B)", self.len)?;
        }
        if self.live {
            f.write_str(" live")?;
        }
        Ok(())
    }
}

/// Why an injection attempt was skipped instead of applied. Skips are
/// recorded in the trial report — they must never panic a campaign
/// worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemFaultSkip {
    /// The sampled address fell outside the RAM window.
    OutOfRange {
        /// The faulting address.
        addr: u32,
    },
    /// The fault needed a non-root victim cell but none exists yet.
    NoVictimCell,
}

impl fmt::Display for MemFaultSkip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemFaultSkip::OutOfRange { addr } => {
                write!(f, "address {addr:#010x} outside RAM window")
            }
            MemFaultSkip::NoVictimCell => f.write_str("no non-root victim cell exists"),
        }
    }
}

impl From<OutOfRange> for MemFaultSkip {
    fn from(e: OutOfRange) -> MemFaultSkip {
        MemFaultSkip::OutOfRange { addr: e.addr }
    }
}

/// How a region's `[base, base + size)` span relates to the DRAM
/// window — the static version of the runtime
/// [`MemFaultSkip::OutOfRange`] check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RamCoverage {
    /// Every address of the span is DRAM: RAM-word faults here can
    /// never skip.
    Inside,
    /// Part of the span is DRAM, part is not: a sample may skip.
    Straddles,
    /// No address of the span is DRAM: every RAM-word fault sampled
    /// here skips.
    Outside,
}

impl RamCoverage {
    /// Classifies a region span against the DRAM window.
    pub fn of(region: MemRegionKind) -> RamCoverage {
        let (base, size) = region.span();
        // u64 arithmetic: spans may legally end exactly at 2^32.
        let (start, end) = (base as u64, base as u64 + size as u64);
        let (ram_start, ram_end) = (
            memmap::RAM_BASE as u64,
            memmap::RAM_BASE as u64 + memmap::RAM_SIZE as u64,
        );
        if start >= ram_start && end <= ram_end {
            RamCoverage::Inside
        } else if end <= ram_start || start >= ram_end {
            RamCoverage::Outside
        } else {
            RamCoverage::Straddles
        }
    }
}

/// What kinds of [`MemFaultSkip`] a `(model, target)` pair can
/// statically produce. Computed by
/// [`crate::spec::MemorySpec::skip_prediction`]; the linter warns when
/// skips are *guaranteed*, and the campaign engine debug-asserts that
/// every runtime skip was predicted as *possible*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SkipPrediction {
    /// Some sampled address may fall outside the RAM window
    /// ([`MemFaultSkip::OutOfRange`]).
    pub out_of_range_possible: bool,
    /// Some configured region lies entirely outside the RAM window —
    /// every sample landing in it skips.
    pub out_of_range_guaranteed: bool,
    /// The model/target needs a non-root victim cell, so
    /// [`MemFaultSkip::NoVictimCell`] can occur while none exists.
    pub no_victim_possible: bool,
}

impl SkipPrediction {
    /// Predicts the skips `model` over `target` can produce.
    ///
    /// The mapping mirrors [`MemFaultModel::apply`]'s dispatch:
    /// [`MemFaultModel::CommStateCorrupt`] always writes the comm
    /// region inside RTOS RAM (no skips); descriptor attacks
    /// ([`MemFaultModel::DescriptorInvalidate`], or any word model on
    /// [`MemRegionKind::Stage2Tables`]) need a victim cell but never
    /// touch physical RAM; word models on the remaining regions write
    /// RAM and can go out of range there.
    pub fn of(model: &MemFaultModel, target: &MemTarget) -> SkipPrediction {
        let mut prediction = SkipPrediction::default();
        if matches!(model, MemFaultModel::CommStateCorrupt) {
            return prediction;
        }
        for &region in target.regions() {
            let descriptor_path = matches!(model, MemFaultModel::DescriptorInvalidate)
                || region == MemRegionKind::Stage2Tables;
            if descriptor_path {
                prediction.no_victim_possible = true;
            } else {
                match RamCoverage::of(region) {
                    RamCoverage::Inside => {}
                    RamCoverage::Straddles => prediction.out_of_range_possible = true,
                    RamCoverage::Outside => {
                        prediction.out_of_range_possible = true;
                        prediction.out_of_range_guaranteed = true;
                    }
                }
            }
        }
        prediction
    }

    /// Whether a recorded skip reason (the [`MemFaultSkip`] display
    /// string) was predicted as possible. Unknown reason strings are
    /// accepted — a future skip kind must not fail old assertions.
    pub fn predicts(&self, reason: &str) -> bool {
        if reason.contains("outside RAM window") {
            self.out_of_range_possible
        } else if reason.contains("victim cell") {
            self.no_victim_possible
        } else {
            true
        }
    }
}

/// A memory fault model: how to corrupt the sampled location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemFaultModel {
    /// One random bit of the sampled 32-bit word.
    SingleBitFlip,
    /// Two distinct random bits of the sampled word.
    DoubleBitFlip,
    /// The sampled word forced to a fixed value (stuck-at).
    WordStuckAt {
        /// The stuck value (0 models stuck-at-0, `0xffff_ffff`
        /// stuck-at-1).
        value: u32,
    },
    /// A burst overwriting `words` consecutive words from the start of
    /// the sampled page with one random pattern.
    PageBurst {
        /// Burst length in 32-bit words.
        words: u32,
    },
    /// The stage-2 descriptor covering the sampled address is
    /// invalidated in the owning cell's translation table — every
    /// later guest access through it takes a translation fault.
    DescriptorInvalidate,
    /// The victim cell's published communication-region state word is
    /// replaced with an undecodable value (what `jailhouse cell list`
    /// would choke on).
    CommStateCorrupt,
}

impl MemFaultModel {
    /// Stuck-at-0 on the sampled word.
    pub fn stuck_at_zero() -> MemFaultModel {
        MemFaultModel::WordStuckAt { value: 0 }
    }

    /// A default 16-word (64-byte cache-line-burst-sized) page burst.
    pub fn page_burst() -> MemFaultModel {
        MemFaultModel::PageBurst { words: 16 }
    }

    /// The E6 sweep's model set.
    pub fn e6_models() -> Vec<MemFaultModel> {
        vec![
            MemFaultModel::SingleBitFlip,
            MemFaultModel::DoubleBitFlip,
            MemFaultModel::stuck_at_zero(),
            MemFaultModel::page_burst(),
            MemFaultModel::DescriptorInvalidate,
            MemFaultModel::CommStateCorrupt,
        ]
    }

    /// A short identifier for reports.
    pub fn name(&self) -> &'static str {
        match self {
            MemFaultModel::SingleBitFlip => "mem-single-bit-flip",
            MemFaultModel::DoubleBitFlip => "mem-double-bit-flip",
            MemFaultModel::WordStuckAt { .. } => "word-stuck-at",
            MemFaultModel::PageBurst { .. } => "page-burst",
            MemFaultModel::DescriptorInvalidate => "descriptor-invalidate",
            MemFaultModel::CommStateCorrupt => "comm-state-corrupt",
        }
    }

    /// Applies the model at the sampled `(region, addr)` pair, drawing
    /// any further randomness (bit positions, burst patterns) from
    /// `rng`. Returns the recorded corruptions, or the reason the
    /// injection was skipped.
    ///
    /// Faults that hit *live* guest RAM additionally raise a
    /// corruption notice for the owning cell through
    /// [`Hypervisor::notify_corruption`], mirroring the wild-store
    /// propagation path; descriptor and comm-region faults propagate
    /// naturally (translation faults, corrupted published state).
    ///
    /// # Errors
    ///
    /// Returns [`MemFaultSkip`] when the sampled address is outside the
    /// RAM window or no victim cell exists — never panics.
    pub fn apply<R: Rng>(
        &self,
        region: MemRegionKind,
        addr: u32,
        machine: &mut Machine,
        hv: &mut Hypervisor,
        rng: &mut R,
    ) -> Result<Vec<AppliedMemFault>, MemFaultSkip> {
        match self {
            MemFaultModel::CommStateCorrupt => comm_state_corrupt(machine, hv, rng),
            MemFaultModel::DescriptorInvalidate => {
                let victim = region.victim(hv).ok_or(MemFaultSkip::NoVictimCell)?;
                let resident = machine.ram().resident_page_addrs();
                let table = hv
                    .cell_stage2_mut(victim)
                    .ok_or(MemFaultSkip::NoVictimCell)?;
                let addr = if region == MemRegionKind::Stage2Tables {
                    live_table_ipa(&resident, table, addr, rng)
                } else {
                    addr
                };
                let before = table.descriptor_word(addr);
                table.set_descriptor_word(addr, 0);
                Ok(vec![AppliedMemFault {
                    region,
                    locus: MemLocus::Stage2Descriptor,
                    addr,
                    before,
                    after: 0,
                    len: 4,
                    live: before & desc::VALID != 0,
                }])
            }
            word_model if region == MemRegionKind::Stage2Tables => {
                let victim = region.victim(hv).ok_or(MemFaultSkip::NoVictimCell)?;
                let resident = machine.ram().resident_page_addrs();
                let table = hv
                    .cell_stage2_mut(victim)
                    .ok_or(MemFaultSkip::NoVictimCell)?;
                // Like a TLB, only descriptors the victim actually
                // translates matter: retarget the sampled IPA onto the
                // resident working set covered by the table (keeping
                // the uniform draw as the fallback).
                let addr = live_table_ipa(&resident, table, addr, rng);
                match word_model {
                    MemFaultModel::PageBurst { words } => {
                        // Garble `words` consecutive descriptors with
                        // one pattern.
                        let words = burst_words(*words);
                        let pattern = rng.gen::<u32>();
                        let first_page = addr & !(PAGE_SIZE - 1);
                        let mut first_before = 0;
                        let mut live = false;
                        for i in 0..words {
                            let Some(page) = first_page.checked_add(i * PAGE_SIZE) else {
                                break;
                            };
                            let before = table.descriptor_word(page);
                            table.set_descriptor_word(page, pattern);
                            live |= before != pattern;
                            if i == 0 {
                                first_before = before;
                            }
                        }
                        Ok(vec![AppliedMemFault {
                            region,
                            locus: MemLocus::Stage2Descriptor,
                            addr: first_page,
                            before: first_before,
                            after: pattern,
                            len: words * 4,
                            live,
                        }])
                    }
                    _ => {
                        let before = table.descriptor_word(addr);
                        let after = word_model.mutate_word(before, rng);
                        table.set_descriptor_word(addr, after);
                        Ok(vec![AppliedMemFault {
                            region,
                            locus: MemLocus::Stage2Descriptor,
                            addr,
                            before,
                            after,
                            len: 4,
                            live: before != after,
                        }])
                    }
                }
            }
            word_model => {
                let locus = if region == MemRegionKind::CommRegion {
                    MemLocus::CommWord
                } else {
                    MemLocus::RamWord
                };
                let resident = machine.ram().is_resident(addr);
                let (fault, len, changed) = match word_model {
                    MemFaultModel::PageBurst { words } => {
                        let words = burst_words(*words);
                        let page = addr & !(PAGE_SIZE - 1);
                        let pattern = rng.gen::<u32>();
                        let (first, changed) =
                            machine.ram_mut().splat_range(page, words, pattern)?;
                        (first, words * 4, changed > 0)
                    }
                    MemFaultModel::SingleBitFlip | MemFaultModel::DoubleBitFlip => {
                        let mask = word_model.flip_mask(rng);
                        let fault = machine.ram_mut().flip_bits32(addr, mask)?;
                        (fault, 4, fault.before != fault.after)
                    }
                    MemFaultModel::WordStuckAt { value } => {
                        let fault = machine.ram_mut().force32(addr, *value)?;
                        (fault, 4, fault.before != fault.after)
                    }
                    // CommStateCorrupt / DescriptorInvalidate are
                    // dispatched by the earlier match arms.
                    _ => unreachable!("non-word model reached the RAM path"),
                };
                let live = resident && changed;
                if live {
                    if let Some(victim) = region.victim(hv) {
                        hv.notify_corruption(victim);
                    }
                }
                Ok(vec![AppliedMemFault {
                    region,
                    locus,
                    addr: fault.addr,
                    before: fault.before,
                    after: fault.after,
                    len,
                    live,
                }])
            }
        }
    }

    /// The XOR mask of the bit-flip models (zero for the others).
    /// Flips are self-inverse: the same RNG draws applied twice
    /// restore the original value.
    fn flip_mask<R: Rng>(&self, rng: &mut R) -> u32 {
        match self {
            MemFaultModel::SingleBitFlip => 1 << rng.gen_range(0..32u8),
            MemFaultModel::DoubleBitFlip => {
                let first = rng.gen_range(0..32u8);
                let mut second = rng.gen_range(0..32u8);
                while second == first {
                    second = rng.gen_range(0..32u8);
                }
                (1 << first) | (1 << second)
            }
            _ => 0,
        }
    }

    /// The word-transformation at the heart of the non-burst models.
    fn mutate_word<R: Rng>(&self, before: u32, rng: &mut R) -> u32 {
        match self {
            MemFaultModel::SingleBitFlip | MemFaultModel::DoubleBitFlip => {
                before ^ self.flip_mask(rng)
            }
            MemFaultModel::WordStuckAt { value } => *value,
            _ => before,
        }
    }
}

impl fmt::Display for MemFaultModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Clamps a burst length to `[1, one page]` of 32-bit words — the
/// model is a *page-sized* burst, and an unbounded count would
/// overflow the byte-length bookkeeping.
fn burst_words(words: u32) -> u32 {
    words.clamp(1, PAGE_SIZE / 4)
}

/// Retargets a stage-2 descriptor attack onto the victim's *live*
/// translation working set: the materialised (resident) RAM pages the
/// table actually maps — on real hardware, the TLB-hot descriptors.
/// Falls back to the uniformly sampled `fallback` IPA when the working
/// set is empty (early boot).
fn live_table_ipa<R: Rng>(
    resident: &[u32],
    table: &certify_arch::Stage2Table,
    fallback: u32,
    rng: &mut R,
) -> u32 {
    let candidates: Vec<u32> = resident
        .iter()
        .copied()
        .filter(|&page| table.descriptor_word(page) & desc::VALID != 0)
        .collect();
    if candidates.is_empty() {
        fallback
    } else {
        candidates[rng.gen_range(0..candidates.len())]
    }
}

/// [`MemFaultModel::CommStateCorrupt`]: replace the victim's published
/// state word with an undecodable value.
fn comm_state_corrupt<R: Rng>(
    machine: &mut Machine,
    hv: &mut Hypervisor,
    rng: &mut R,
) -> Result<Vec<AppliedMemFault>, MemFaultSkip> {
    let base = hv
        .first_nonroot_cell()
        .and_then(|id| hv.cell(id))
        .and_then(|cell| cell.comm_region())
        .map(|region| region.base())
        .unwrap_or(memmap::RTOS_RAM_BASE);
    let addr = base + commregion::STATE_OFFSET;
    // Bit 8 set guarantees `commregion::decode_state` rejects the word.
    let garbage = rng.gen::<u32>() | 0x100;
    let fault = machine.ram_mut().force32(addr, garbage)?;
    Ok(vec![AppliedMemFault {
        region: MemRegionKind::CommRegion,
        locus: MemLocus::CommWord,
        addr,
        before: fault.before,
        after: fault.after,
        len: 4,
        live: true,
    }])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn bare_system() -> (Machine, Hypervisor) {
        (
            Machine::new_banana_pi(),
            Hypervisor::new(certify_hypervisor::SystemConfig::banana_pi_demo()),
        )
    }

    #[test]
    fn sampler_stays_inside_the_region_and_word_aligned() {
        let target = MemTarget::e6();
        let mut r = rng(1);
        for _ in 0..500 {
            let (region, addr) = target.sample(&mut r);
            let (base, size) = region.span();
            assert!(memmap::in_region(addr, base, size), "{region} {addr:#x}");
            assert_eq!(addr % 4, 0);
        }
    }

    #[test]
    fn sampler_covers_every_configured_region() {
        let target = MemTarget::all();
        let mut r = rng(2);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..400 {
            seen.insert(target.sample(&mut r).0.name());
        }
        assert_eq!(seen.len(), MemRegionKind::ALL.len());
    }

    #[test]
    #[should_panic(expected = "at least one region")]
    fn empty_target_rejected() {
        let _ = MemTarget::new([]);
    }

    #[test]
    #[should_panic(expected = "wraps the 32-bit address space")]
    fn wrapping_custom_region_rejected() {
        let _ = MemTarget::only(MemRegionKind::Custom {
            base: 0xffff_f000,
            size: 0x2000,
        });
    }

    #[test]
    fn oversized_bursts_are_clamped_to_one_page() {
        let (mut machine, mut hv) = bare_system();
        let addr = memmap::RTOS_RAM_BASE + 0x5000;
        let faults = MemFaultModel::PageBurst { words: u32::MAX }
            .apply(
                MemRegionKind::NonRootRam,
                addr,
                &mut machine,
                &mut hv,
                &mut rng(20),
            )
            .unwrap();
        assert_eq!(faults[0].len, PAGE_SIZE, "burst capped at one page");
    }

    #[test]
    fn single_bit_flip_corrupts_exactly_one_bit_of_ram() {
        let (mut machine, mut hv) = bare_system();
        let addr = memmap::RTOS_RAM_BASE + 0x100;
        machine.ram_mut().write32(addr, 0x5555_5555).unwrap();
        let faults = MemFaultModel::SingleBitFlip
            .apply(
                MemRegionKind::NonRootRam,
                addr,
                &mut machine,
                &mut hv,
                &mut rng(3),
            )
            .unwrap();
        assert_eq!(faults.len(), 1);
        assert_eq!((faults[0].before ^ faults[0].after).count_ones(), 1);
        assert_eq!(machine.ram().read32(addr).unwrap(), faults[0].after);
        assert!(faults[0].live, "resident page hit is live");
    }

    #[test]
    fn flips_of_pristine_dram_are_latent() {
        let (mut machine, mut hv) = bare_system();
        let addr = memmap::ROOT_RAM_BASE + 0x2000_0000;
        let faults = MemFaultModel::SingleBitFlip
            .apply(
                MemRegionKind::RootRam,
                addr,
                &mut machine,
                &mut hv,
                &mut rng(4),
            )
            .unwrap();
        assert!(!faults[0].live, "non-resident page is latent");
        assert!(hv.take_corruption_notices().is_empty());
    }

    #[test]
    fn live_ram_hit_raises_a_corruption_notice() {
        let (mut machine, mut hv) = bare_system();
        let addr = memmap::ROOT_RAM_BASE + 0x1000;
        machine.ram_mut().write32(addr, 7).unwrap();
        MemFaultModel::stuck_at_zero()
            .apply(
                MemRegionKind::RootRam,
                addr,
                &mut machine,
                &mut hv,
                &mut rng(5),
            )
            .unwrap();
        assert_eq!(hv.take_corruption_notices(), vec![ROOT_CELL]);
    }

    #[test]
    fn page_burst_overwrites_the_page_start() {
        let (mut machine, mut hv) = bare_system();
        let addr = memmap::RTOS_RAM_BASE + 0x3008;
        let faults = MemFaultModel::PageBurst { words: 8 }
            .apply(
                MemRegionKind::NonRootRam,
                addr,
                &mut machine,
                &mut hv,
                &mut rng(6),
            )
            .unwrap();
        assert_eq!(faults[0].len, 32);
        assert_eq!(faults[0].addr, memmap::RTOS_RAM_BASE + 0x3000);
        let pattern = machine.ram().read32(faults[0].addr).unwrap();
        assert_eq!(machine.ram().read32(faults[0].addr + 28).unwrap(), pattern);
    }

    #[test]
    fn out_of_range_sample_is_skipped_not_panicking() {
        let (mut machine, mut hv) = bare_system();
        let hole = 0x1000_0000; // between devices and DRAM: unmapped
        let err = MemFaultModel::SingleBitFlip
            .apply(
                MemRegionKind::Custom {
                    base: hole,
                    size: 0x1000,
                },
                hole,
                &mut machine,
                &mut hv,
                &mut rng(7),
            )
            .unwrap_err();
        assert_eq!(err, MemFaultSkip::OutOfRange { addr: hole });
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn descriptor_faults_without_a_victim_cell_are_skipped() {
        let (mut machine, mut hv) = bare_system();
        let err = MemFaultModel::DescriptorInvalidate
            .apply(
                MemRegionKind::Stage2Tables,
                memmap::RTOS_RAM_BASE,
                &mut machine,
                &mut hv,
                &mut rng(8),
            )
            .unwrap_err();
        assert_eq!(err, MemFaultSkip::NoVictimCell);
    }

    #[test]
    fn comm_state_corrupt_writes_an_undecodable_state() {
        let (mut machine, mut hv) = bare_system();
        let faults = MemFaultModel::CommStateCorrupt
            .apply(
                MemRegionKind::CommRegion,
                memmap::RTOS_RAM_BASE,
                &mut machine,
                &mut hv,
                &mut rng(9),
            )
            .unwrap();
        assert_eq!(faults[0].locus, MemLocus::CommWord);
        let word = machine.ram().read32(faults[0].addr).unwrap();
        assert!(commregion::decode_state(word).is_none());
    }

    #[test]
    fn bit_flip_models_are_self_inverse() {
        for model in [MemFaultModel::SingleBitFlip, MemFaultModel::DoubleBitFlip] {
            let once = model.mutate_word(0xdead_beef, &mut rng(10));
            let twice = model.mutate_word(once, &mut rng(10));
            assert_ne!(once, 0xdead_beef);
            assert_eq!(twice, 0xdead_beef, "{model} not self-inverse");
        }
    }

    #[test]
    fn same_seed_same_faults() {
        let model = MemFaultModel::DoubleBitFlip;
        let (mut ma, mut hva) = bare_system();
        let (mut mb, mut hvb) = bare_system();
        let addr = memmap::IVSHMEM_BASE + 0x40;
        let fa = model
            .apply(
                MemRegionKind::Ivshmem,
                addr,
                &mut ma,
                &mut hva,
                &mut rng(11),
            )
            .unwrap();
        let fb = model
            .apply(
                MemRegionKind::Ivshmem,
                addr,
                &mut mb,
                &mut hvb,
                &mut rng(11),
            )
            .unwrap();
        assert_eq!(fa, fb);
    }

    #[test]
    fn ram_coverage_classifies_spans() {
        for region in MemRegionKind::ALL {
            assert_eq!(RamCoverage::of(region), RamCoverage::Inside, "{region}");
        }
        let hole = MemRegionKind::Custom {
            base: 0x1000_0000,
            size: 0x1000,
        };
        assert_eq!(RamCoverage::of(hole), RamCoverage::Outside);
        let straddle = MemRegionKind::Custom {
            base: memmap::RAM_BASE - 0x100,
            size: 0x200,
        };
        assert_eq!(RamCoverage::of(straddle), RamCoverage::Straddles);
        // A span ending exactly at 2^32 must not wrap the arithmetic.
        let top = MemRegionKind::Custom {
            base: 0xffff_f000,
            size: 0x1000,
        };
        assert_eq!(RamCoverage::of(top), RamCoverage::Outside);
    }

    #[test]
    fn skip_prediction_mirrors_apply_dispatch() {
        // In-RAM word faults: no skips possible.
        let clean = SkipPrediction::of(
            &MemFaultModel::SingleBitFlip,
            &MemTarget::only(MemRegionKind::NonRootRam),
        );
        assert_eq!(clean, SkipPrediction::default());

        // Comm-state corruption never skips, whatever the target says.
        let comm = SkipPrediction::of(
            &MemFaultModel::CommStateCorrupt,
            &MemTarget::only(MemRegionKind::Custom {
                base: 0x1000_0000,
                size: 0x1000,
            }),
        );
        assert_eq!(comm, SkipPrediction::default());

        // Descriptor attacks need a victim cell but never touch RAM.
        let desc = SkipPrediction::of(&MemFaultModel::DescriptorInvalidate, &MemTarget::all());
        assert!(desc.no_victim_possible && !desc.out_of_range_possible);
        let stage2 = SkipPrediction::of(
            &MemFaultModel::SingleBitFlip,
            &MemTarget::only(MemRegionKind::Stage2Tables),
        );
        assert!(stage2.no_victim_possible && !stage2.out_of_range_possible);

        // Word faults into a hole are guaranteed to skip.
        let hole = SkipPrediction::of(
            &MemFaultModel::SingleBitFlip,
            &MemTarget::only(MemRegionKind::Custom {
                base: 0x1000_0000,
                size: 0x1000,
            }),
        );
        assert!(hole.out_of_range_possible && hole.out_of_range_guaranteed);
        assert!(hole.predicts("address 0x10000000 outside RAM window"));
        assert!(!hole.predicts("no non-root victim cell exists"));
        assert!(hole.predicts("some future skip reason"), "unknown accepted");
    }

    #[test]
    fn display_renders_region_and_bytes() {
        let fault = AppliedMemFault {
            region: MemRegionKind::NonRootRam,
            locus: MemLocus::RamWord,
            addr: 0x4310_0000,
            before: 0,
            after: 0x100,
            len: 4,
            live: true,
        };
        let text = fault.to_string();
        assert!(text.contains("nonroot-ram@0x43100000"));
        assert!(text.contains("00000000 -> 00000100"));
        assert!(text.ends_with("live"));
    }
}
