//! Fault models.
//!
//! The paper uses "the classical bit-flip fault model \[12\]" to emulate
//! transient hardware faults: the *medium* intensity level flips one
//! random bit of one random architecture register; the *high* level
//! flips bits in "multiple registers at the time" (modelled as one
//! random bit in each of the three handler argument registers
//! `r0`–`r2`). The future-work section asks for "a wider and
//! customizable set of fault models", which the extension variants
//! provide.

use certify_arch::{Reg, RegisterFile};
use rand::Rng;
use std::fmt;

/// One concrete register corruption that was applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AppliedFault {
    /// The corrupted register.
    pub reg: Reg,
    /// The flipped/affected bit (for whole-register models, bit 0 is
    /// recorded).
    pub bit: u8,
    /// Register value before corruption.
    pub before: u32,
    /// Register value after corruption.
    pub after: u32,
}

impl fmt::Display for AppliedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} bit{}: {:08x} -> {:08x}",
            self.reg, self.bit, self.before, self.after
        )
    }
}

/// A fault model: how to corrupt a register file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultModel {
    /// One random bit of one register drawn uniformly from `pool`
    /// (the paper's medium intensity; `pool` defaults to all sixteen
    /// registers).
    SingleBitFlip {
        /// Candidate registers.
        pool: Vec<Reg>,
    },
    /// One random bit in each listed register (the paper's high
    /// intensity, with the handler argument registers as the default
    /// list).
    MultiRegisterFlip {
        /// Registers to corrupt.
        regs: Vec<Reg>,
    },
    /// Two random bits of one random register (extension).
    DoubleBitFlip {
        /// Candidate registers.
        pool: Vec<Reg>,
    },
    /// One register forced to zero (stuck-at-0 on the whole register,
    /// extension).
    RegisterZero {
        /// Candidate registers.
        pool: Vec<Reg>,
    },
    /// One register replaced with a uniformly random value
    /// (extension).
    RegisterRandom {
        /// Candidate registers.
        pool: Vec<Reg>,
    },
}

impl FaultModel {
    /// The paper's medium-intensity model over all registers.
    pub fn single_bit_flip() -> FaultModel {
        FaultModel::SingleBitFlip {
            pool: Reg::ALL.to_vec(),
        }
    }

    /// The paper's high-intensity model over the handler argument
    /// registers.
    pub fn multi_register_flip() -> FaultModel {
        FaultModel::MultiRegisterFlip {
            regs: vec![Reg::R0, Reg::R1, Reg::R2],
        }
    }

    /// A short identifier for reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultModel::SingleBitFlip { .. } => "single-bit-flip",
            FaultModel::MultiRegisterFlip { .. } => "multi-register-flip",
            FaultModel::DoubleBitFlip { .. } => "double-bit-flip",
            FaultModel::RegisterZero { .. } => "register-zero",
            FaultModel::RegisterRandom { .. } => "register-random",
        }
    }

    /// Applies the model to `regs`, drawing randomness from `rng`.
    /// Returns the list of concrete corruptions performed.
    pub fn apply<R: Rng>(&self, regs: &mut RegisterFile, rng: &mut R) -> Vec<AppliedFault> {
        match self {
            FaultModel::SingleBitFlip { pool } => {
                let Some(&reg) = pick(pool, rng) else {
                    return Vec::new();
                };
                let bit = rng.gen_range(0..32u8);
                vec![flip(regs, reg, bit)]
            }
            FaultModel::MultiRegisterFlip { regs: targets } => targets
                .iter()
                .map(|&reg| {
                    let bit = rng.gen_range(0..32u8);
                    flip(regs, reg, bit)
                })
                .collect(),
            FaultModel::DoubleBitFlip { pool } => {
                let Some(&reg) = pick(pool, rng) else {
                    return Vec::new();
                };
                let first = rng.gen_range(0..32u8);
                let mut second = rng.gen_range(0..32u8);
                while second == first {
                    second = rng.gen_range(0..32u8);
                }
                vec![flip(regs, reg, first), flip(regs, reg, second)]
            }
            FaultModel::RegisterZero { pool } => {
                let Some(&reg) = pick(pool, rng) else {
                    return Vec::new();
                };
                let before = regs.read(reg);
                regs.write(reg, 0);
                vec![AppliedFault {
                    reg,
                    bit: 0,
                    before,
                    after: 0,
                }]
            }
            FaultModel::RegisterRandom { pool } => {
                let Some(&reg) = pick(pool, rng) else {
                    return Vec::new();
                };
                let before = regs.read(reg);
                let after = rng.gen::<u32>();
                regs.write(reg, after);
                vec![AppliedFault {
                    reg,
                    bit: 0,
                    before,
                    after,
                }]
            }
        }
    }
}

fn pick<'a, R: Rng>(pool: &'a [Reg], rng: &mut R) -> Option<&'a Reg> {
    if pool.is_empty() {
        None
    } else {
        pool.get(rng.gen_range(0..pool.len()))
    }
}

fn flip(regs: &mut RegisterFile, reg: Reg, bit: u8) -> AppliedFault {
    let before = regs.read(reg);
    let after = regs.flip_bit(reg, bit);
    AppliedFault {
        reg,
        bit,
        before,
        after,
    }
}

impl fmt::Display for FaultModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn single_bit_flip_corrupts_exactly_one_register() {
        let mut regs = RegisterFile::new();
        for r in Reg::ALL {
            regs.write(r, 0x5555_5555);
        }
        let faults = FaultModel::single_bit_flip().apply(&mut regs, &mut rng(1));
        assert_eq!(faults.len(), 1);
        let changed: Vec<Reg> = Reg::ALL
            .into_iter()
            .filter(|&r| regs.read(r) != 0x5555_5555)
            .collect();
        assert_eq!(changed, vec![faults[0].reg]);
        assert_eq!(
            (faults[0].before ^ faults[0].after).count_ones(),
            1,
            "exactly one bit flipped"
        );
    }

    #[test]
    fn multi_register_flip_hits_r0_r1_r2() {
        let mut regs = RegisterFile::new();
        let faults = FaultModel::multi_register_flip().apply(&mut regs, &mut rng(2));
        let regs_hit: Vec<Reg> = faults.iter().map(|f| f.reg).collect();
        assert_eq!(regs_hit, vec![Reg::R0, Reg::R1, Reg::R2]);
        for f in &faults {
            assert_eq!((f.before ^ f.after).count_ones(), 1);
        }
    }

    #[test]
    fn double_bit_flip_flips_two_distinct_bits() {
        let mut regs = RegisterFile::new();
        let model = FaultModel::DoubleBitFlip {
            pool: vec![Reg::R4],
        };
        let faults = model.apply(&mut regs, &mut rng(3));
        assert_eq!(faults.len(), 2);
        assert_eq!(faults[0].reg, Reg::R4);
        assert_ne!(faults[0].bit, faults[1].bit);
        assert_eq!(regs.read(Reg::R4).count_ones(), 2);
    }

    #[test]
    fn register_zero_clears_the_register() {
        let mut regs = RegisterFile::new();
        regs.write(Reg::R7, 0xffff_ffff);
        let model = FaultModel::RegisterZero {
            pool: vec![Reg::R7],
        };
        let faults = model.apply(&mut regs, &mut rng(4));
        assert_eq!(regs.read(Reg::R7), 0);
        assert_eq!(faults[0].before, 0xffff_ffff);
    }

    #[test]
    fn empty_pool_applies_nothing() {
        let mut regs = RegisterFile::new();
        let model = FaultModel::SingleBitFlip { pool: vec![] };
        assert!(model.apply(&mut regs, &mut rng(5)).is_empty());
    }

    #[test]
    fn same_seed_same_faults() {
        let model = FaultModel::single_bit_flip();
        let mut a = RegisterFile::new();
        let mut b = RegisterFile::new();
        let fa = model.apply(&mut a, &mut rng(42));
        let fb = model.apply(&mut b, &mut rng(42));
        assert_eq!(fa, fb);
        assert_eq!(a, b);
    }

    #[test]
    fn register_choice_is_roughly_uniform() {
        // Over many draws every register of the pool appears — the
        // "random architecture register" of the paper really ranges
        // over the whole file.
        let model = FaultModel::single_bit_flip();
        let mut seen = std::collections::HashSet::new();
        let mut r = rng(7);
        for _ in 0..600 {
            let mut regs = RegisterFile::new();
            for f in model.apply(&mut regs, &mut r) {
                seen.insert(f.reg);
            }
        }
        assert_eq!(seen.len(), 16);
    }
}
