//! Compact binary wire codec for campaign configuration and stats.
//!
//! The multi-process sharding tier (`certify-shard`) ships a campaign
//! to worker processes and streams aggregates back; both directions
//! need a serialized form, and the workspace builds offline without a
//! serialization framework. This module is that form: a small
//! hand-rolled, dependency-free binary codec — length-prefixed
//! strings and sequences, little-endian fixed-width integers, one tag
//! byte per enum variant — with a [`Wire`] impl for every type a
//! shard handshake or stats frame carries: the full [`Scenario`]
//! (management script, register and memory injection specs) and
//! [`CampaignStats`].
//!
//! Decoding is total: malformed input yields a [`DecodeError`], never
//! a panic, so a corrupted or malicious peer cannot take down a
//! coordinator. Round-trip identity (`decode(encode(x)) == x`) is
//! pinned by unit tests here and by proptests in the shard crate.

use crate::certificate::{PhaseBound, ScenarioCertificate};
use crate::classify::Outcome;
use crate::fault::FaultModel;
use crate::memfault::{MemFaultModel, MemRegionKind, MemTarget};
use crate::spec::{Cadence, InjectionSpec, InjectionWindow, MemorySpec};
use crate::stats::{CampaignStats, CountSummary};
use crate::trace::{DumpPolicy, TraceConfig, TraceDump};
use crate::Scenario;
use certify_arch::{CpuId, Reg};
use certify_guest_linux::{MgmtOp, MgmtScript};
use certify_hypervisor::HandlerKind;
use certify_obs::trace::{TraceEvent, TraceKind};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Why a byte stream failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the value was complete.
    Truncated {
        /// What was being decoded.
        what: &'static str,
    },
    /// An enum tag byte had no matching variant.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A structurally valid value violated a type invariant (empty
    /// target set, zero rate, inverted window, …).
    Invalid {
        /// What invariant failed.
        what: &'static str,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { what } => write!(f, "input truncated decoding {what}"),
            DecodeError::BadTag { what, tag } => write!(f, "unknown tag {tag} decoding {what}"),
            DecodeError::Invalid { what } => write!(f, "invalid value: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A cursor over the bytes being decoded.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over the whole of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` bytes.
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated { what });
        }
        let bytes = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(bytes)
    }

    /// Errors unless every byte was consumed — a frame payload must
    /// not carry trailing garbage.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::Invalid {
                what: "trailing bytes after value",
            })
        }
    }
}

/// Decodes one `T` from the whole of `buf` (no trailing bytes).
pub fn decode_exact<T: Wire>(buf: &[u8]) -> Result<T, DecodeError> {
    let mut reader = Reader::new(buf);
    let value = T::decode(&mut reader)?;
    reader.finish()?;
    Ok(value)
}

/// Encodes `value` into a fresh buffer.
pub fn encode_to_vec<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// A type with a self-contained binary wire form.
pub trait Wire: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one value, advancing the reader past it.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

macro_rules! int_wire {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut Reader<'_>) -> Result<$t, DecodeError> {
                let bytes = r.take(std::mem::size_of::<$t>(), stringify!($t))?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("sized take")))
            }
        }
    )*};
}

int_wire!(u8, u16, u32, u64, i64);

impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<usize, DecodeError> {
        usize::try_from(u64::decode(r)?).map_err(|_| DecodeError::Invalid {
            what: "usize out of range",
        })
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(r: &mut Reader<'_>) -> Result<bool, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::BadTag { what: "bool", tag }),
        }
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<String, DecodeError> {
        let len = usize::decode(r)?;
        let bytes = r.take(len, "string body")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::Invalid {
            what: "string is not UTF-8",
        })
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(value) => {
                out.push(1);
                value.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Option<T>, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(DecodeError::BadTag {
                what: "option",
                tag,
            }),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Vec<T>, DecodeError> {
        let len = usize::decode(r)?;
        let mut items = Vec::with_capacity(bounded_capacity::<T>(len, r.remaining()));
        for _ in 0..len {
            items.push(T::decode(r)?);
        }
        Ok(items)
    }
}

/// How many `T`s to reserve for a sequence claiming `len` items with
/// `remaining` input bytes left. An attacker-supplied length must not
/// pre-allocate unboundedly: every item takes at least one input
/// byte, so the reservation is capped at `remaining` bytes of memory.
fn bounded_capacity<T>(len: usize, remaining: usize) -> usize {
    len.min(remaining / std::mem::size_of::<T>().max(1))
}

impl<T: Wire + Ord> Wire for BTreeSet<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<BTreeSet<T>, DecodeError> {
        let len = usize::decode(r)?;
        let mut set = BTreeSet::new();
        for _ in 0..len {
            set.insert(T::decode(r)?);
        }
        Ok(set)
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for (key, value) in self {
            key.encode(out);
            value.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<BTreeMap<K, V>, DecodeError> {
        let len = usize::decode(r)?;
        let mut map = BTreeMap::new();
        for _ in 0..len {
            let key = K::decode(r)?;
            let value = V::decode(r)?;
            map.insert(key, value);
        }
        Ok(map)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<(A, B), DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

// ---- foreign scalar types ------------------------------------------------

impl Wire for CpuId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<CpuId, DecodeError> {
        Ok(CpuId(u32::decode(r)?))
    }
}

impl Wire for Reg {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.index() as u8);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Reg, DecodeError> {
        let tag = u8::decode(r)?;
        Reg::ALL
            .get(tag as usize)
            .copied()
            .ok_or(DecodeError::BadTag { what: "Reg", tag })
    }
}

impl Wire for HandlerKind {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.index() as u8);
    }
    fn decode(r: &mut Reader<'_>) -> Result<HandlerKind, DecodeError> {
        let tag = u8::decode(r)?;
        HandlerKind::ALL
            .get(tag as usize)
            .copied()
            .ok_or(DecodeError::BadTag {
                what: "HandlerKind",
                tag,
            })
    }
}

impl Wire for Outcome {
    fn encode(&self, out: &mut Vec<u8>) {
        let tag = Outcome::ALL
            .iter()
            .position(|o| o == self)
            .expect("Outcome::ALL is exhaustive") as u8;
        out.push(tag);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Outcome, DecodeError> {
        let tag = u8::decode(r)?;
        Outcome::ALL
            .get(tag as usize)
            .copied()
            .ok_or(DecodeError::BadTag {
                what: "Outcome",
                tag,
            })
    }
}

// ---- management scripts --------------------------------------------------

impl Wire for MgmtOp {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            MgmtOp::Delay(n) => {
                out.push(0);
                n.encode(out);
            }
            MgmtOp::PollInfo => out.push(1),
            MgmtOp::StageSystemConfig => out.push(2),
            MgmtOp::Enable => out.push(3),
            MgmtOp::RequestCpuOffline(cpu) => {
                out.push(4);
                cpu.encode(out);
            }
            MgmtOp::WaitCpuParked(cpu) => {
                out.push(5);
                cpu.encode(out);
            }
            MgmtOp::StageCellConfig => out.push(6),
            MgmtOp::CreateCell => out.push(7),
            MgmtOp::LoadCell => out.push(8),
            MgmtOp::StartCell => out.push(9),
            MgmtOp::RunFor(n) => {
                out.push(10);
                n.encode(out);
            }
            MgmtOp::QueryCellState => out.push(11),
            MgmtOp::ShutdownCell => out.push(12),
            MgmtOp::DestroyCell => out.push(13),
            MgmtOp::ArmWatchdog => out.push(14),
            MgmtOp::MonitorFor { steps, window } => {
                out.push(15);
                steps.encode(out);
                window.encode(out);
            }
            MgmtOp::Restart(index) => {
                out.push(16);
                index.encode(out);
            }
            MgmtOp::Halt => out.push(17),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<MgmtOp, DecodeError> {
        Ok(match u8::decode(r)? {
            0 => MgmtOp::Delay(u64::decode(r)?),
            1 => MgmtOp::PollInfo,
            2 => MgmtOp::StageSystemConfig,
            3 => MgmtOp::Enable,
            4 => MgmtOp::RequestCpuOffline(u32::decode(r)?),
            5 => MgmtOp::WaitCpuParked(u32::decode(r)?),
            6 => MgmtOp::StageCellConfig,
            7 => MgmtOp::CreateCell,
            8 => MgmtOp::LoadCell,
            9 => MgmtOp::StartCell,
            10 => MgmtOp::RunFor(u64::decode(r)?),
            11 => MgmtOp::QueryCellState,
            12 => MgmtOp::ShutdownCell,
            13 => MgmtOp::DestroyCell,
            14 => MgmtOp::ArmWatchdog,
            15 => MgmtOp::MonitorFor {
                steps: u64::decode(r)?,
                window: u64::decode(r)?,
            },
            16 => MgmtOp::Restart(usize::decode(r)?),
            17 => MgmtOp::Halt,
            tag => {
                return Err(DecodeError::BadTag {
                    what: "MgmtOp",
                    tag,
                })
            }
        })
    }
}

impl Wire for MgmtScript {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.ops.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<MgmtScript, DecodeError> {
        Ok(MgmtScript {
            name: String::decode(r)?,
            ops: Vec::decode(r)?,
        })
    }
}

// ---- injection specifications --------------------------------------------

impl Wire for InjectionWindow {
    fn encode(&self, out: &mut Vec<u8>) {
        self.start.encode(out);
        self.end.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<InjectionWindow, DecodeError> {
        let start = u64::decode(r)?;
        let end = u64::decode(r)?;
        if start >= end {
            return Err(DecodeError::Invalid {
                what: "injection window is empty",
            });
        }
        Ok(InjectionWindow { start, end })
    }
}

impl Wire for FaultModel {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            FaultModel::SingleBitFlip { pool } => {
                out.push(0);
                pool.encode(out);
            }
            FaultModel::MultiRegisterFlip { regs } => {
                out.push(1);
                regs.encode(out);
            }
            FaultModel::DoubleBitFlip { pool } => {
                out.push(2);
                pool.encode(out);
            }
            FaultModel::RegisterZero { pool } => {
                out.push(3);
                pool.encode(out);
            }
            FaultModel::RegisterRandom { pool } => {
                out.push(4);
                pool.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<FaultModel, DecodeError> {
        Ok(match u8::decode(r)? {
            0 => FaultModel::SingleBitFlip {
                pool: Vec::decode(r)?,
            },
            1 => FaultModel::MultiRegisterFlip {
                regs: Vec::decode(r)?,
            },
            2 => FaultModel::DoubleBitFlip {
                pool: Vec::decode(r)?,
            },
            3 => FaultModel::RegisterZero {
                pool: Vec::decode(r)?,
            },
            4 => FaultModel::RegisterRandom {
                pool: Vec::decode(r)?,
            },
            tag => {
                return Err(DecodeError::BadTag {
                    what: "FaultModel",
                    tag,
                })
            }
        })
    }
}

impl Wire for InjectionSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        let cadence = &self.cadence;
        cadence.targets.encode(out);
        cadence.cpu_filter.encode(out);
        cadence.rate.encode(out);
        self.model.encode(out);
        cadence.max_injections.encode(out);
        cadence.phase_jitter.encode(out);
        self.time_trigger.encode(out);
        cadence.windows.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<InjectionSpec, DecodeError> {
        let mut cadence = decode_cadence_head(r)?;
        let model = FaultModel::decode(r)?;
        cadence.max_injections = Option::decode(r)?;
        cadence.phase_jitter = bool::decode(r)?;
        let time_trigger = Option::decode(r)?;
        cadence.windows = Vec::decode(r)?;
        if let Some(what) = cadence.invalid() {
            return Err(DecodeError::Invalid { what });
        }
        if time_trigger == Some(0) {
            return Err(DecodeError::Invalid {
                what: "injection spec time trigger is zero",
            });
        }
        Ok(InjectionSpec {
            cadence,
            model,
            time_trigger,
        })
    }
}

/// The fields both spec encodings open with — a [`Cadence`]'s targets,
/// CPU filter and rate. The caller reads the rest in its spec's wire
/// order and rejects an invalid result.
fn decode_cadence_head(r: &mut Reader<'_>) -> Result<Cadence, DecodeError> {
    Ok(Cadence {
        targets: BTreeSet::decode(r)?,
        cpu_filter: Option::decode(r)?,
        rate: u64::decode(r)?,
        max_injections: None,
        phase_jitter: false,
        windows: Vec::new(),
    })
}

// ---- memory fault specifications -----------------------------------------

impl Wire for MemRegionKind {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            MemRegionKind::RootRam => out.push(0),
            MemRegionKind::NonRootRam => out.push(1),
            MemRegionKind::Ivshmem => out.push(2),
            MemRegionKind::CommRegion => out.push(3),
            MemRegionKind::Stage2Tables => out.push(4),
            MemRegionKind::Custom { base, size } => {
                out.push(5);
                base.encode(out);
                size.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<MemRegionKind, DecodeError> {
        Ok(match u8::decode(r)? {
            0 => MemRegionKind::RootRam,
            1 => MemRegionKind::NonRootRam,
            2 => MemRegionKind::Ivshmem,
            3 => MemRegionKind::CommRegion,
            4 => MemRegionKind::Stage2Tables,
            5 => MemRegionKind::Custom {
                base: u32::decode(r)?,
                size: u32::decode(r)?,
            },
            tag => {
                return Err(DecodeError::BadTag {
                    what: "MemRegionKind",
                    tag,
                })
            }
        })
    }
}

impl Wire for MemTarget {
    fn encode(&self, out: &mut Vec<u8>) {
        self.regions().to_vec().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<MemTarget, DecodeError> {
        let regions: Vec<MemRegionKind> = Vec::decode(r)?;
        if regions.is_empty() {
            return Err(DecodeError::Invalid {
                what: "mem target has no regions",
            });
        }
        // Re-check `MemTarget::new`'s span invariants without its
        // panics: the decoder must reject, not abort the process.
        for region in &regions {
            let (base, size) = region.span();
            if size < 4 || base.checked_add(size - 1).is_none() {
                return Err(DecodeError::Invalid {
                    what: "mem target region span is unusable",
                });
            }
        }
        Ok(MemTarget::new(regions))
    }
}

impl Wire for MemFaultModel {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            MemFaultModel::SingleBitFlip => out.push(0),
            MemFaultModel::DoubleBitFlip => out.push(1),
            MemFaultModel::WordStuckAt { value } => {
                out.push(2);
                value.encode(out);
            }
            MemFaultModel::PageBurst { words } => {
                out.push(3);
                words.encode(out);
            }
            MemFaultModel::DescriptorInvalidate => out.push(4),
            MemFaultModel::CommStateCorrupt => out.push(5),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<MemFaultModel, DecodeError> {
        Ok(match u8::decode(r)? {
            0 => MemFaultModel::SingleBitFlip,
            1 => MemFaultModel::DoubleBitFlip,
            2 => MemFaultModel::WordStuckAt {
                value: u32::decode(r)?,
            },
            3 => MemFaultModel::PageBurst {
                words: u32::decode(r)?,
            },
            4 => MemFaultModel::DescriptorInvalidate,
            5 => MemFaultModel::CommStateCorrupt,
            tag => {
                return Err(DecodeError::BadTag {
                    what: "MemFaultModel",
                    tag,
                })
            }
        })
    }
}

impl Wire for MemorySpec {
    fn encode(&self, out: &mut Vec<u8>) {
        let cadence = &self.cadence;
        cadence.targets.encode(out);
        cadence.cpu_filter.encode(out);
        cadence.rate.encode(out);
        self.model.encode(out);
        self.target.encode(out);
        cadence.max_injections.encode(out);
        cadence.phase_jitter.encode(out);
        cadence.windows.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<MemorySpec, DecodeError> {
        let mut cadence = decode_cadence_head(r)?;
        let model = MemFaultModel::decode(r)?;
        let target = MemTarget::decode(r)?;
        cadence.max_injections = Option::decode(r)?;
        cadence.phase_jitter = bool::decode(r)?;
        cadence.windows = Vec::decode(r)?;
        if let Some(what) = cadence.invalid() {
            return Err(DecodeError::Invalid { what });
        }
        Ok(MemorySpec {
            cadence,
            model,
            target,
        })
    }
}

// ---- the full scenario ---------------------------------------------------

impl Wire for Scenario {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.script.encode(out);
        self.spec.encode(out);
        self.mem_spec.encode(out);
        self.steps.encode(out);
        self.rtos_heartbeat.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Scenario, DecodeError> {
        Ok(Scenario {
            name: String::decode(r)?,
            script: MgmtScript::decode(r)?,
            spec: Option::decode(r)?,
            mem_spec: Option::decode(r)?,
            steps: u64::decode(r)?,
            rtos_heartbeat: bool::decode(r)?,
        })
    }
}

// ---- campaign statistics -------------------------------------------------

impl Wire for CountSummary {
    fn encode(&self, out: &mut Vec<u8>) {
        self.min.encode(out);
        self.max.encode(out);
        self.total.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<CountSummary, DecodeError> {
        Ok(CountSummary {
            min: usize::decode(r)?,
            max: usize::decode(r)?,
            total: u64::decode(r)?,
        })
    }
}

impl Wire for CampaignStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.scenario_name.encode(out);
        self.trials.encode(out);
        self.distribution.encode(out);
        self.injected_trials.encode(out);
        self.mem_injected_trials.encode(out);
        self.mem_region_distribution.encode(out);
        self.injections.encode(out);
        self.mem_injections.encode(out);
        self.watchdog_detected.encode(out);
        self.watchdog_expiry_sum.encode(out);
        self.monitor_detected.encode(out);
        self.monitor_alarms_total.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<CampaignStats, DecodeError> {
        Ok(CampaignStats {
            scenario_name: String::decode(r)?,
            trials: usize::decode(r)?,
            distribution: BTreeMap::decode(r)?,
            injected_trials: usize::decode(r)?,
            mem_injected_trials: usize::decode(r)?,
            mem_region_distribution: BTreeMap::decode(r)?,
            injections: CountSummary::decode(r)?,
            mem_injections: CountSummary::decode(r)?,
            watchdog_detected: usize::decode(r)?,
            watchdog_expiry_sum: u64::decode(r)?,
            monitor_detected: usize::decode(r)?,
            monitor_alarms_total: usize::decode(r)?,
        })
    }
}

// ---- scenario certificates -----------------------------------------------

impl Wire for PhaseBound {
    fn encode(&self, out: &mut Vec<u8>) {
        self.start.encode(out);
        self.end.encode(out);
        self.max_handler_calls.encode(out);
        self.max_injections.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<PhaseBound, DecodeError> {
        let bound = PhaseBound {
            start: u64::decode(r)?,
            end: u64::decode(r)?,
            max_handler_calls: u64::decode(r)?,
            max_injections: u64::decode(r)?,
        };
        if bound.start >= bound.end {
            return Err(DecodeError::Invalid {
                what: "phase bound is empty",
            });
        }
        Ok(bound)
    }
}

impl Wire for ScenarioCertificate {
    fn encode(&self, out: &mut Vec<u8>) {
        self.scenario_name.encode(out);
        self.cell_reachable.encode(out);
        self.script_steps.encode(out);
        self.outcomes.encode(out);
        self.reg_budget.encode(out);
        self.mem_budget.encode(out);
        self.tracked_regions.encode(out);
        self.reg_phases.encode(out);
        self.mem_phases.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<ScenarioCertificate, DecodeError> {
        let certificate = ScenarioCertificate {
            scenario_name: String::decode(r)?,
            cell_reachable: bool::decode(r)?,
            script_steps: Option::decode(r)?,
            outcomes: BTreeSet::decode(r)?,
            reg_budget: Option::decode(r)?,
            mem_budget: Option::decode(r)?,
            tracked_regions: BTreeSet::decode(r)?,
            reg_phases: Vec::decode(r)?,
            mem_phases: Vec::decode(r)?,
        };
        if certificate.outcomes.is_empty() {
            return Err(DecodeError::Invalid {
                what: "certificate predicts no outcomes",
            });
        }
        Ok(certificate)
    }
}

// ---- trace streams -------------------------------------------------------

impl Wire for TraceKind {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.code());
    }
    fn decode(r: &mut Reader<'_>) -> Result<TraceKind, DecodeError> {
        trace_kind(u8::decode(r)?)
    }
}

fn trace_kind(tag: u8) -> Result<TraceKind, DecodeError> {
    TraceKind::from_code(tag).ok_or(DecodeError::BadTag {
        what: "TraceKind",
        tag,
    })
}

/// Bytes per encoded [`TraceEvent`]: step u64, cpu u32, kind u8,
/// arg_a u64, arg_b u64, little-endian.
const TRACE_EVENT_WIRE_LEN: usize = 29;

fn event_to_bytes(event: &TraceEvent) -> [u8; TRACE_EVENT_WIRE_LEN] {
    let mut bytes = [0u8; TRACE_EVENT_WIRE_LEN];
    bytes[0..8].copy_from_slice(&event.step.to_le_bytes());
    bytes[8..12].copy_from_slice(&event.cpu.to_le_bytes());
    bytes[12] = event.kind.code();
    bytes[13..21].copy_from_slice(&event.arg_a.to_le_bytes());
    bytes[21..29].copy_from_slice(&event.arg_b.to_le_bytes());
    bytes
}

fn event_from_bytes(bytes: &[u8; TRACE_EVENT_WIRE_LEN]) -> Result<TraceEvent, DecodeError> {
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    Ok(TraceEvent {
        step: u64_at(0),
        cpu: u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")),
        kind: trace_kind(bytes[12])?,
        arg_a: u64_at(13),
        arg_b: u64_at(21),
    })
}

impl Wire for TraceEvent {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&event_to_bytes(self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<TraceEvent, DecodeError> {
        let bytes = r.take(TRACE_EVENT_WIRE_LEN, "TraceEvent")?;
        event_from_bytes(bytes.try_into().expect("sized take"))
    }
}

impl Wire for DumpPolicy {
    fn encode(&self, out: &mut Vec<u8>) {
        self.outcomes.encode(out);
        self.on_conformance_violation.encode(out);
        self.on_panic.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<DumpPolicy, DecodeError> {
        Ok(DumpPolicy {
            outcomes: BTreeSet::decode(r)?,
            on_conformance_violation: bool::decode(r)?,
            on_panic: bool::decode(r)?,
        })
    }
}

impl Wire for TraceConfig {
    fn encode(&self, out: &mut Vec<u8>) {
        self.capacity.encode(out);
        self.policy.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<TraceConfig, DecodeError> {
        let config = TraceConfig {
            capacity: usize::decode(r)?,
            policy: DumpPolicy::decode(r)?,
        };
        if config.capacity == 0 {
            return Err(DecodeError::Invalid {
                what: "trace config capacity is zero",
            });
        }
        Ok(config)
    }
}

/// Encodes a trace event list: the count, then every event's fixed
/// 29 bytes, reserved in one go. The list layout of [`TraceDump`]
/// and of any other frame that carries a ring.
pub fn encode_trace_events(events: &[TraceEvent], out: &mut Vec<u8>) {
    out.reserve(8 + events.len() * TRACE_EVENT_WIRE_LEN);
    events.len().encode(out);
    for event in events {
        out.extend_from_slice(&event_to_bytes(event));
    }
}

/// Decodes an [`encode_trace_events`] list in one bounds check: a
/// count claiming more bytes than are left (or more than `usize` can
/// count) is a truncated list. Only once the bytes are known to exist
/// is the list allocated, at its exact length — the coordinator holds
/// every dump, and `Vec<T>::decode`'s byte-bounded reservation would
/// regrow a full ring to nearly twice its size.
pub fn decode_trace_events(r: &mut Reader<'_>) -> Result<Vec<TraceEvent>, DecodeError> {
    let len = usize::decode(r)?;
    let what = "trace events";
    let byte_len = len
        .checked_mul(TRACE_EVENT_WIRE_LEN)
        .ok_or(DecodeError::Truncated { what })?;
    let bytes = r.take(byte_len, what)?;
    let mut events = Vec::with_capacity(len);
    for chunk in bytes.chunks_exact(TRACE_EVENT_WIRE_LEN) {
        events.push(event_from_bytes(chunk.try_into().expect("exact chunk"))?);
    }
    Ok(events)
}

impl Wire for TraceDump {
    fn encode(&self, out: &mut Vec<u8>) {
        self.seed.encode(out);
        self.scenario.encode(out);
        self.outcome.encode(out);
        self.total.encode(out);
        self.dropped.encode(out);
        encode_trace_events(&self.events, out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<TraceDump, DecodeError> {
        let seed = u64::decode(r)?;
        let scenario = String::decode(r)?;
        let outcome = Outcome::decode(r)?;
        let total = u64::decode(r)?;
        let dropped = u64::decode(r)?;
        let events = decode_trace_events(r)?;
        if dropped.checked_add(events.len() as u64) != Some(total) {
            return Err(DecodeError::Invalid {
                what: "trace dump event accounting is inconsistent",
            });
        }
        Ok(TraceDump {
            seed,
            scenario,
            outcome,
            total,
            dropped,
            events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use crate::sink::NullSink;
    use crate::spec::Paced;

    fn round_trip<T: Wire + PartialEq + fmt::Debug>(value: &T) {
        let bytes = encode_to_vec(value);
        let back: T = decode_exact(&bytes).expect("decode");
        assert_eq!(&back, value);
    }

    #[test]
    fn every_scenario_preset_round_trips() {
        for scenario in [
            Scenario::golden(1500),
            Scenario::e1_root_high(),
            Scenario::e2_nonroot_high(),
            Scenario::e2_boot_window(),
            Scenario::e3_fig3(),
            Scenario::e5a_watchdog(),
            Scenario::e5b_monitor(),
            Scenario::e6_memory(MemFaultModel::page_burst(), MemTarget::all()),
            Scenario::e7_mixed(),
        ] {
            round_trip(&scenario);
        }
    }

    #[test]
    fn specs_with_every_knob_round_trip() {
        let spec = InjectionSpec::e3_nonroot_trap_medium()
            .with_rate(7)
            .with_max_injections(3)
            .with_phase_jitter()
            .with_time_trigger(19)
            .with_window(10, 20)
            .with_window(50, 60)
            .with_model(FaultModel::DoubleBitFlip {
                pool: vec![Reg::R0, Reg::PC],
            });
        round_trip(&spec);

        let mem = MemorySpec::e6_memory(
            MemFaultModel::WordStuckAt { value: 0xdead_beef },
            MemTarget::new([
                MemRegionKind::CommRegion,
                MemRegionKind::Custom {
                    base: 0x1000,
                    size: 0x100,
                },
            ]),
        )
        .with_rate(11)
        .with_phase_jitter()
        .with_max_injections(9)
        .with_window(100, 200);
        round_trip(&mem);
    }

    #[test]
    fn campaign_stats_round_trip() {
        let stats = Campaign::new(Scenario::e1_root_high(), 5, 41).run_streamed(&mut NullSink);
        round_trip(&stats);
        round_trip(&CampaignStats::new("empty"));
    }

    #[test]
    fn truncated_input_errors_cleanly() {
        let bytes = encode_to_vec(&Scenario::e3_fig3());
        for len in 0..bytes.len() {
            let err = decode_exact::<Scenario>(&bytes[..len]).expect_err("truncated must fail");
            let _ = err.to_string();
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_to_vec(&Scenario::e3_fig3());
        bytes.push(0);
        assert_eq!(
            decode_exact::<Scenario>(&bytes),
            Err(DecodeError::Invalid {
                what: "trailing bytes after value"
            })
        );
    }

    #[test]
    fn bad_tags_are_rejected() {
        assert!(matches!(
            decode_exact::<Outcome>(&[99]),
            Err(DecodeError::BadTag {
                what: "Outcome",
                tag: 99
            })
        ));
        assert!(matches!(
            decode_exact::<Reg>(&[16]),
            Err(DecodeError::BadTag { what: "Reg", .. })
        ));
        assert!(matches!(
            decode_exact::<bool>(&[7]),
            Err(DecodeError::BadTag { what: "bool", .. })
        ));
    }

    #[test]
    fn invariant_violations_are_rejected() {
        // An inverted window.
        let mut bytes = Vec::new();
        20u64.encode(&mut bytes);
        10u64.encode(&mut bytes);
        assert!(decode_exact::<InjectionWindow>(&bytes).is_err());

        // A spec whose target set is empty.
        let mut spec = InjectionSpec::e1_root_high();
        spec.cadence.targets.clear();
        let bytes = encode_to_vec(&spec);
        assert_eq!(
            decode_exact::<InjectionSpec>(&bytes),
            Err(DecodeError::Invalid {
                what: "cadence needs at least one target"
            })
        );

        // A memory target with an empty region list.
        let bytes = encode_to_vec(&Vec::<MemRegionKind>::new());
        assert!(decode_exact::<MemTarget>(&bytes).is_err());
    }

    #[test]
    fn scenario_certificates_round_trip() {
        let certificate = ScenarioCertificate {
            scenario_name: "e7-mixed".into(),
            cell_reachable: true,
            script_steps: None,
            outcomes: [Outcome::Correct, Outcome::PanicPark, Outcome::CpuPark]
                .into_iter()
                .collect(),
            reg_budget: Some(721),
            mem_budget: Some(12),
            tracked_regions: [MemRegionKind::CommRegion, MemRegionKind::Stage2Tables]
                .into_iter()
                .collect(),
            reg_phases: vec![PhaseBound {
                start: 3300,
                end: 4500,
                max_handler_calls: 9600,
                max_injections: 961,
            }],
            mem_phases: Vec::new(),
        };
        round_trip(&certificate);

        // Truncation at every prefix errors cleanly, as for scenarios.
        let bytes = encode_to_vec(&certificate);
        for len in 0..bytes.len() {
            decode_exact::<ScenarioCertificate>(&bytes[..len]).expect_err("truncated must fail");
        }
    }

    #[test]
    fn malformed_certificates_are_rejected() {
        // An empty phase bound.
        let mut bytes = Vec::new();
        5u64.encode(&mut bytes);
        5u64.encode(&mut bytes);
        1u64.encode(&mut bytes);
        1u64.encode(&mut bytes);
        assert_eq!(
            decode_exact::<PhaseBound>(&bytes),
            Err(DecodeError::Invalid {
                what: "phase bound is empty"
            })
        );

        // A certificate predicting no outcome at all.
        let mut certificate = ScenarioCertificate {
            scenario_name: "x".into(),
            cell_reachable: false,
            script_steps: Some(1),
            outcomes: [Outcome::Correct].into_iter().collect(),
            reg_budget: None,
            mem_budget: None,
            tracked_regions: BTreeSet::new(),
            reg_phases: Vec::new(),
            mem_phases: Vec::new(),
        };
        certificate.outcomes.clear();
        let bytes = encode_to_vec(&certificate);
        assert_eq!(
            decode_exact::<ScenarioCertificate>(&bytes),
            Err(DecodeError::Invalid {
                what: "certificate predicts no outcomes"
            })
        );
    }

    #[test]
    fn trace_types_round_trip() {
        round_trip(&TraceConfig::default());
        round_trip(
            &TraceConfig::default()
                .with_capacity(16)
                .with_policy(DumpPolicy::all_outcomes()),
        );
        let dump = TraceDump {
            seed: 7,
            scenario: "e7-mixed".into(),
            outcome: Outcome::SilentDataCorruption,
            total: 5,
            dropped: 3,
            events: vec![
                TraceEvent {
                    step: 3301,
                    cpu: 1,
                    kind: TraceKind::InjectionApplied,
                    arg_a: 2,
                    arg_b: 100,
                },
                TraceEvent {
                    step: 4500,
                    cpu: u32::MAX,
                    kind: TraceKind::ClassifyVerdict,
                    arg_a: 5,
                    arg_b: 0,
                },
            ],
        };
        round_trip(&dump);
        for kind in TraceKind::ALL {
            round_trip(&kind);
        }
    }

    #[test]
    fn malformed_trace_values_are_rejected() {
        assert!(matches!(
            decode_exact::<TraceKind>(&[TraceKind::ALL.len() as u8]),
            Err(DecodeError::BadTag {
                what: "TraceKind",
                ..
            })
        ));

        let config = TraceConfig::default().with_capacity(0);
        let bytes = encode_to_vec(&config);
        assert_eq!(
            decode_exact::<TraceConfig>(&bytes),
            Err(DecodeError::Invalid {
                what: "trace config capacity is zero"
            })
        );

        // A dump whose drop accounting does not add up.
        let mut dump = TraceDump {
            seed: 1,
            scenario: "x".into(),
            outcome: Outcome::Correct,
            total: 10,
            dropped: 0,
            events: Vec::new(),
        };
        dump.total = 10;
        let bytes = encode_to_vec(&dump);
        assert_eq!(
            decode_exact::<TraceDump>(&bytes),
            Err(DecodeError::Invalid {
                what: "trace dump event accounting is inconsistent"
            })
        );
    }

    #[test]
    fn trace_event_encoding_is_29_bytes() {
        // The fixed event size the README quotes for ring sizing.
        let event = TraceEvent {
            step: 0,
            cpu: 0,
            kind: TraceKind::HandlerEntry,
            arg_a: 0,
            arg_b: 0,
        };
        assert_eq!(encode_to_vec(&event).len(), 29);
    }

    #[test]
    fn outcome_tags_are_stable() {
        // The wire tag is the index in `Outcome::ALL`; reordering that
        // array is a protocol break, which this pin makes loud.
        assert_eq!(encode_to_vec(&Outcome::PanicPark), vec![0]);
        assert_eq!(encode_to_vec(&Outcome::Correct), vec![6]);
    }

    /// The first full-ring anomaly dump of an E7 campaign: the frame
    /// payload a sharded traced run ships most often.
    fn full_e7_dump() -> TraceDump {
        let config = TraceConfig::new().with_policy(DumpPolicy::anomalies());
        let runner = Scenario::e7_mixed().runner();
        (0xD5_2022..)
            .find_map(|seed| {
                let (_, dump) = runner.run_trial_traced(seed, Some(&config));
                dump.filter(|d| d.events.len() == crate::DEFAULT_TRACE_CAPACITY)
            })
            .expect("some E7 trial dumps a full ring")
    }

    /// A two-event dump's encoding, for hand-corruption.
    fn small_dump_bytes() -> Vec<u8> {
        let event = TraceEvent {
            step: 9,
            cpu: 0,
            kind: TraceKind::HandlerEntry,
            arg_a: 1,
            arg_b: 2,
        };
        encode_to_vec(&TraceDump {
            seed: 3,
            scenario: "e7-mixed".into(),
            outcome: Outcome::PanicPark,
            total: 2,
            dropped: 0,
            events: vec![event, event],
        })
    }

    #[test]
    fn real_e7_dump_re_encodes_to_the_same_bytes() {
        let dump = full_e7_dump();
        let bytes = encode_to_vec(&dump);
        let decoded: TraceDump = decode_exact(&bytes).expect("decode");
        // The bulk event decode reads what the generic per-event
        // `Vec<TraceEvent>` decode reads, into an exactly sized list.
        let mut generic =
            Reader::new(&bytes[bytes.len() - 8 - dump.events.len() * TRACE_EVENT_WIRE_LEN..]);
        assert_eq!(
            Vec::<TraceEvent>::decode(&mut generic),
            Ok(dump.events.clone())
        );
        assert_eq!(decoded.events.capacity(), dump.events.len());
        assert_eq!(decoded, dump);
        assert_eq!(encode_to_vec(&decoded), bytes);
    }

    #[test]
    fn bulk_dump_decode_rejects_a_bad_last_kind() {
        let mut bytes = small_dump_bytes();
        let last_kind = bytes.len() - TRACE_EVENT_WIRE_LEN + 12;
        bytes[last_kind] = 10;
        assert_eq!(
            decode_exact::<TraceDump>(&bytes),
            Err(DecodeError::BadTag {
                what: "TraceKind",
                tag: 10
            })
        );
    }

    #[test]
    fn bulk_dump_decode_rejects_counts_past_the_input() {
        let mut bytes = small_dump_bytes();
        bytes.truncate(bytes.len() - 1);
        assert_eq!(
            decode_exact::<TraceDump>(&bytes),
            Err(DecodeError::Truncated {
                what: "trace events"
            })
        );

        // Event counts whose byte length overflows `usize`, and counts
        // that fit but far exceed the input: none may reserve memory
        // for the claimed count before the bytes are checked.
        let count_at = small_dump_bytes().len() - 8 - 2 * TRACE_EVENT_WIRE_LEN;
        let max_fitting = (usize::MAX / TRACE_EVENT_WIRE_LEN) as u64;
        for count in [u64::MAX, max_fitting + 1, max_fitting, 1 << 40, 3] {
            let mut bytes = small_dump_bytes();
            bytes[count_at..count_at + 8].copy_from_slice(&count.to_le_bytes());
            assert_eq!(
                decode_exact::<TraceDump>(&bytes),
                Err(DecodeError::Truncated {
                    what: "trace events"
                })
            );
        }
    }

    #[test]
    fn hostile_sequence_lengths_reserve_at_most_the_input() {
        let mut bytes = Vec::new();
        u64::MAX.encode(&mut bytes);
        bytes.extend_from_slice(&[0; 40]);
        assert!(matches!(
            decode_exact::<Vec<TraceEvent>>(&bytes),
            Err(DecodeError::Truncated { .. })
        ));
        // A 16 MiB frame claiming endless 32-byte events reserves at
        // most 16 MiB, not 16 Mi events.
        let frame = 16 << 20;
        let items = bounded_capacity::<TraceEvent>(usize::MAX, frame);
        assert!(items * std::mem::size_of::<TraceEvent>() <= frame);
        assert_eq!(bounded_capacity::<u8>(3, frame), 3);
        assert_eq!(bounded_capacity::<()>(usize::MAX, 5), 5);
    }
}
