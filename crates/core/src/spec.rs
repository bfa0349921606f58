//! Injection specifications: what to target, when to fire.
//!
//! §III of the paper: *"The generated test plan consists of two
//! classes of testing, defined by the fault intensity level: the
//! medium level refers to a discontinuous bit flipping of a single
//! register, generated once every given number of calls to the target
//! functions, while the high level instead consists in a bit flip of
//! multiple registers at the time. […] The showcased tests have an
//! occurrence of once every 100 and 50 function calls for the medium
//! and hard intensity, respectively."*

use crate::fault::FaultModel;
use crate::memfault::{MemFaultModel, MemFaultSkip, MemTarget};
use certify_arch::{CpuId, NUM_CPUS};
use certify_hypervisor::{HandlerKind, Hypervisor};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeSet;
use std::fmt;

/// A half-open `[start, end)` step window an injector is armed in.
/// Outside the window matching calls are counted but never fired on —
/// the tool for campaigns that only attack e.g. the boot phase or
/// steady state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InjectionWindow {
    /// First step (inclusive) injections may fire.
    pub start: u64,
    /// First step (exclusive) injections stop firing.
    pub end: u64,
}

impl InjectionWindow {
    /// A window over `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    pub fn new(start: u64, end: u64) -> InjectionWindow {
        assert!(start < end, "injection window must be non-empty");
        InjectionWindow { start, end }
    }

    /// Whether `step` falls inside the window.
    pub fn contains(self, step: u64) -> bool {
        step >= self.start && step < self.end
    }
}

impl fmt::Display for InjectionWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// The handler-call stream an injection cadence counts: calls to the
/// target handlers, from one CPU or from any. Built once per injector
/// as a flat handler mask, so the per-call and per-step checks cost
/// neither a set lookup nor an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CallFilter {
    handlers: [bool; HandlerKind::ALL.len()],
    cpu: Option<CpuId>,
}

impl CallFilter {
    /// Whether a call to `handler` from `cpu` is in the stream.
    pub(crate) fn matches(&self, handler: HandlerKind, cpu: CpuId) -> bool {
        self.handlers[handler.index()] && self.cpu.is_none_or(|c| c == cpu)
    }

    /// Calls in the stream so far: the hypervisor's call-table cells of
    /// the filter's handlers on its CPU, or on every CPU without one.
    pub(crate) fn count(&self, hv: &Hypervisor) -> u64 {
        let cpus = match self.cpu {
            Some(cpu) => cpu.0..cpu.0 + 1,
            None => 0..NUM_CPUS as u32,
        };
        HandlerKind::ALL
            .into_iter()
            .filter(|handler| self.handlers[handler.index()])
            .flat_map(|handler| {
                cpus.clone()
                    .map(move |cpu| hv.call_count(handler, CpuId(cpu)))
            })
            .sum()
    }
}

/// The paper's two intensity presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intensity {
    /// Single-register bit flip, once every 100 target calls.
    Medium,
    /// Multi-register bit flip, once every 50 target calls.
    High,
}

impl Intensity {
    /// The occurrence rate (fire every `rate` filtered calls).
    pub fn rate(self) -> u64 {
        match self {
            Intensity::Medium => 100,
            Intensity::High => 50,
        }
    }

    /// The fault model of this intensity.
    pub fn model(self) -> FaultModel {
        match self {
            Intensity::Medium => FaultModel::single_bit_flip(),
            Intensity::High => FaultModel::multi_register_flip(),
        }
    }
}

impl fmt::Display for Intensity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Intensity::Medium => f.write_str("medium"),
            Intensity::High => f.write_str("high"),
        }
    }
}

/// When an injector fires: the paper's "once every given number of
/// calls to the target functions", shared by register and memory
/// specifications. The injector counts calls to the target handlers
/// (filtered by CPU) and attempts an injection on every `rate`-th
/// one, subject to the cap, the seed-derived phase and the step
/// windows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cadence {
    /// Handlers whose calls are counted (the paper profiles all three
    /// and injects into `arch_handle_trap` / `arch_handle_hvc`).
    pub targets: BTreeSet<HandlerKind>,
    /// Only count calls from this CPU ("we filter the injection to
    /// activate only when the CPU core 1 is calling the function").
    /// `None` = any CPU.
    pub cpu_filter: Option<CpuId>,
    /// Fire on every `rate`-th counted call.
    pub rate: u64,
    /// Stop after this many effective injections (`None` =
    /// unbounded). A register injection that corrupts nothing and a
    /// skipped memory injection do not count.
    pub max_injections: Option<u64>,
    /// Start the call counter at a seed-derived offset in
    /// `[0, rate)`. On real hardware the injection cadence and the
    /// workload are not phase-locked — the test starts at an arbitrary
    /// point of the management cycle. Without jitter the cadence is
    /// deterministic relative to the call stream.
    pub phase_jitter: bool,
    /// Only fire inside these step windows (empty = the whole run).
    /// Outside them matching calls are counted but never fired on, so
    /// one campaign can attack e.g. both the boot phase and a later
    /// steady-state stretch.
    pub windows: Vec<InjectionWindow>,
}

impl Cadence {
    /// Every `rate`-th call to `targets` from `cpu_filter`, uncapped,
    /// unjittered and armed for the whole run.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty or `rate` is zero.
    pub fn new(
        targets: impl IntoIterator<Item = HandlerKind>,
        cpu_filter: Option<CpuId>,
        rate: u64,
    ) -> Cadence {
        let cadence = Cadence {
            targets: targets.into_iter().collect(),
            cpu_filter,
            rate,
            max_injections: None,
            phase_jitter: false,
            windows: Vec::new(),
        };
        cadence.assert_valid();
        cadence
    }

    /// Why this cadence cannot drive an injector, if it cannot: no
    /// targets, or a zero rate (which would degenerate to a single
    /// injection at call 0). Constructors panic on it and decoders
    /// reject with it; the fields are public, so it is checked again
    /// where an injector is built.
    pub(crate) fn invalid(&self) -> Option<&'static str> {
        if self.targets.is_empty() {
            Some("cadence needs at least one target")
        } else if self.rate == 0 {
            Some("cadence rate must be non-zero")
        } else {
            None
        }
    }

    fn assert_valid(&self) {
        if let Some(reason) = self.invalid() {
            panic!("{reason}");
        }
    }

    /// Whether a handler call is counted (matches the target/CPU
    /// filter).
    pub fn matches(&self, handler: HandlerKind, cpu: CpuId) -> bool {
        self.calls().matches(handler, cpu)
    }

    /// The call stream this cadence counts.
    pub(crate) fn calls(&self) -> CallFilter {
        let mut handlers = [false; HandlerKind::ALL.len()];
        for handler in &self.targets {
            handlers[handler.index()] = true;
        }
        CallFilter {
            handlers,
            cpu: self.cpu_filter,
        }
    }

    /// Whether injections are armed at `step`: an empty window list
    /// arms the whole run, otherwise any containing window arms it.
    /// Windows may overlap and need not be sorted.
    pub fn armed(&self, step: u64) -> bool {
        self.windows.is_empty() || self.windows.iter().any(|w| w.contains(step))
    }

    /// The matching-call count at which the earliest seed can first
    /// attempt an injection: `rate`, or 1 when a seed-derived phase
    /// may fire on the very first matching call.
    pub(crate) fn first_attempt_call(&self) -> u64 {
        if self.phase_jitter {
            1
        } else {
            self.rate
        }
    }
}

/// A specification paced by a [`Cadence`]. The cadence builders are
/// written once, here, for [`InjectionSpec`], [`MemorySpec`] and the
/// bare [`Cadence`].
pub trait Paced: Sized {
    /// The cadence being built.
    fn cadence_mut(&mut self) -> &mut Cadence;

    /// Replaces the rate, returning the spec (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero.
    fn with_rate(mut self, rate: u64) -> Self {
        assert!(rate > 0, "rate must be non-zero");
        self.cadence_mut().rate = rate;
        self
    }

    /// Enables per-seed cadence phase, returning the spec (builder
    /// style).
    fn with_phase_jitter(mut self) -> Self {
        self.cadence_mut().phase_jitter = true;
        self
    }

    /// Caps the number of injections, returning the spec (builder
    /// style).
    fn with_max_injections(mut self, max: u64) -> Self {
        self.cadence_mut().max_injections = Some(max);
        self
    }

    /// Adds a `[start, end)` step window, returning the spec (builder
    /// style). Call repeatedly (or use [`Paced::with_windows`]) to arm
    /// several disjoint phases of the run.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    fn with_window(mut self, start: u64, end: u64) -> Self {
        self.cadence_mut()
            .windows
            .push(InjectionWindow::new(start, end));
        self
    }

    /// Replaces the window list, returning the spec (builder style).
    /// An empty list arms the injector for the whole run.
    fn with_windows(mut self, windows: impl IntoIterator<Item = InjectionWindow>) -> Self {
        self.cadence_mut().windows = windows.into_iter().collect();
        self
    }
}

impl Paced for Cadence {
    fn cadence_mut(&mut self) -> &mut Cadence {
        self
    }
}

/// A [`Cadence`] running in one seeded trial: the seed-derived phase,
/// the matching calls counted so far and the effective injections
/// against the cap. Both injectors drive one; the register injector
/// counts call by call from its hook, the memory injector catches up
/// once per step from the hypervisor's call table.
///
/// Call `n` (1-based, in the filtered stream) is *due* when
/// `n + phase` is a multiple of `rate`. Once the cap is reached the
/// counter is frozen: it counts nothing more and nothing is due.
///
/// Two counters of one cadence are equal when they are in the same
/// state, which is what a campaign's fault-class key compares.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CadenceCounter {
    calls: CallFilter,
    rate: u64,
    max_injections: Option<u64>,
    /// Seed-derived offset in `[0, rate)`; 0 without phase jitter.
    phase: u64,
    /// Matching calls counted so far.
    counted: u64,
    /// The next due call number, always above `counted`.
    next_due: u64,
    /// Effective injections so far.
    injections: u64,
}

impl CadenceCounter {
    /// A counter for `cadence`. Under phase jitter the phase is the
    /// first draw from `rng`, which the injector then goes on using.
    ///
    /// # Panics
    ///
    /// Panics if the cadence has no targets or a zero rate.
    pub fn new(cadence: &Cadence, rng: &mut StdRng) -> CadenceCounter {
        cadence.assert_valid();
        let phase = if cadence.phase_jitter {
            rng.gen_range(0..cadence.rate)
        } else {
            0
        };
        CadenceCounter {
            calls: cadence.calls(),
            rate: cadence.rate,
            max_injections: cadence.max_injections,
            phase,
            counted: 0,
            next_due: cadence.rate - phase,
            injections: 0,
        }
    }

    /// Whether a handler call is in the counted stream.
    pub fn matches(&self, handler: HandlerKind, cpu: CpuId) -> bool {
        self.calls.matches(handler, cpu)
    }

    /// Matching calls in `hv`'s per-(handler, CPU) call table.
    pub(crate) fn calls_in(&self, hv: &Hypervisor) -> u64 {
        self.calls.count(hv)
    }

    /// Counts `calls` matching calls that were made before this
    /// counter existed, as if it had watched them unarmed: a counter
    /// installed into a system forked from a fault-free prefix then
    /// continues exactly where a from-step-0 counter would be.
    pub fn prime(&mut self, calls: u64) {
        self.counted += calls;
        if self.counted >= self.next_due {
            let crossings = (self.counted - self.next_due) / self.rate + 1;
            self.next_due = self.next_due.saturating_add(crossings * self.rate);
        }
    }

    /// Whether the injection cap has been reached.
    pub fn capped(&self) -> bool {
        self.max_injections
            .is_some_and(|max| self.injections >= max)
    }

    /// Counts matching calls up to call number `total` (never below
    /// the count so far), stopping at the first due one: returns its
    /// true position in the filtered stream (what memory-injection
    /// records carry), or `None` once every call up to `total` is
    /// counted. A capped counter counts nothing and returns `None`.
    pub fn advance_to(&mut self, total: u64) -> Option<u64> {
        if self.capped() {
            return None;
        }
        if total < self.next_due {
            self.counted = total;
            return None;
        }
        let due = self.next_due;
        self.counted = due;
        self.next_due = due.saturating_add(self.rate);
        Some(due)
    }

    /// Counts one more matching call, returning its number if it is
    /// due.
    pub fn count_call(&mut self) -> Option<u64> {
        self.advance_to(self.counted + 1)
    }

    /// Whether this counter has reached no due call since it was in
    /// the `earlier` state: an injector whose counter has not draws
    /// nothing from its RNG in between.
    pub(crate) fn no_due_since(&self, earlier: &CadenceCounter) -> bool {
        self.next_due == earlier.next_due
    }

    /// Records one effective injection against the cap.
    pub fn injected(&mut self) {
        self.injections += 1;
    }

    /// The matching calls counted so far plus the seed-derived phase,
    /// which register-injection records carry: under phase jitter
    /// every due call is a multiple of `rate` in these terms, whatever
    /// its true position. Without jitter it is the plain count.
    pub fn phased(&self) -> u64 {
        self.counted + self.phase
    }
}

/// A full injection specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectionSpec {
    /// When to fire.
    pub cadence: Cadence,
    /// The fault model to apply.
    pub model: FaultModel,
}

impl Paced for InjectionSpec {
    fn cadence_mut(&mut self) -> &mut Cadence {
        &mut self.cadence
    }
}

impl InjectionSpec {
    /// A specification from an intensity preset.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty.
    pub fn new(
        intensity: Intensity,
        targets: impl IntoIterator<Item = HandlerKind>,
        cpu_filter: Option<CpuId>,
    ) -> InjectionSpec {
        InjectionSpec {
            cadence: Cadence::new(targets, cpu_filter, intensity.rate()),
            model: intensity.model(),
        }
    }

    /// E1: high intensity on `arch_handle_hvc` + `arch_handle_trap`
    /// in root-cell context (CPU 0).
    pub fn e1_root_high() -> InjectionSpec {
        InjectionSpec::new(
            Intensity::High,
            [HandlerKind::ArchHandleHvc, HandlerKind::ArchHandleTrap],
            Some(CpuId(0)),
        )
    }

    /// E2: high intensity on the same handlers, filtered to CPU 1,
    /// with per-seed cadence phase (the campaign sweeps where in the
    /// lifecycle the injections land).
    pub fn e2_nonroot_high() -> InjectionSpec {
        InjectionSpec::new(
            Intensity::High,
            [HandlerKind::ArchHandleHvc, HandlerKind::ArchHandleTrap],
            Some(CpuId(1)),
        )
        .with_phase_jitter()
    }

    /// E2, boot-window aligned: the deterministic reproduction of the
    /// paper's "pretty peculiar" observation. On CPU 1 the first two
    /// hypercalls of a run are `CPU_OFF` (hot-unplug) and `CPU_BOOT`
    /// (cell entry), so a rate-2 cadence with a single injection lands
    /// exactly on the cell-boot hypercall.
    pub fn e2_boot_window() -> InjectionSpec {
        InjectionSpec::new(
            Intensity::High,
            [HandlerKind::ArchHandleHvc],
            Some(CpuId(1)),
        )
        .with_rate(2)
        .with_max_injections(1)
    }

    /// E3 (Figure 3): medium intensity on the non-root cell's
    /// `arch_handle_trap`.
    pub fn e3_nonroot_trap_medium() -> InjectionSpec {
        InjectionSpec::new(
            Intensity::Medium,
            [HandlerKind::ArchHandleTrap],
            Some(CpuId(1)),
        )
    }

    /// Replaces the fault model, returning the spec (builder style).
    pub fn with_model(mut self, model: FaultModel) -> InjectionSpec {
        self.model = model;
        self
    }
}

/// A memory-fault injection specification — the memory-domain sibling
/// of [`InjectionSpec`] on the same [`Cadence`]: a memory fault fires
/// on every `rate`-th counted call, optionally only inside
/// [`InjectionWindow`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemorySpec {
    /// When to fire.
    pub cadence: Cadence,
    /// The memory fault model to apply.
    pub model: MemFaultModel,
    /// The address-space sampler drawing the corruption target.
    pub target: MemTarget,
}

impl Paced for MemorySpec {
    fn cadence_mut(&mut self) -> &mut Cadence {
        &mut self.cadence
    }
}

impl MemorySpec {
    /// A specification firing `model` at addresses drawn by `target`,
    /// paced by the given handlers' call stream at the high-intensity
    /// rate.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty.
    pub fn new(
        model: MemFaultModel,
        target: MemTarget,
        targets: impl IntoIterator<Item = HandlerKind>,
        cpu_filter: Option<CpuId>,
    ) -> MemorySpec {
        MemorySpec {
            cadence: Cadence::new(targets, cpu_filter, Intensity::High.rate()),
            model,
            target,
        }
    }

    /// E6: `model` against `target`, paced like E3 by the non-root
    /// cell's trap/hypercall stream (CPU 1, once every 50 calls).
    pub fn e6_memory(model: MemFaultModel, target: MemTarget) -> MemorySpec {
        MemorySpec::new(
            model,
            target,
            [HandlerKind::ArchHandleTrap, HandlerKind::ArchHandleHvc],
            Some(CpuId(1)),
        )
    }

    /// Whether an attempt of this spec can end in `skip`: whether
    /// [`MemFaultModel::may_skip`] allows it for any target region.
    /// The campaign engine debug-asserts runtime skips against this;
    /// `certify-lint` warns when a no-victim skip is guaranteed.
    pub fn may_skip(&self, skip: MemFaultSkip) -> bool {
        self.target
            .regions()
            .iter()
            .any(|&region| self.model.may_skip(region, skip))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memfault::{MemFaultModel, MemTarget};
    use rand::SeedableRng;

    #[test]
    fn intensity_presets_match_the_paper() {
        assert_eq!(Intensity::Medium.rate(), 100);
        assert_eq!(Intensity::High.rate(), 50);
        assert_eq!(Intensity::Medium.model().name(), "single-bit-flip");
        assert_eq!(Intensity::High.model().name(), "multi-register-flip");
    }

    #[test]
    fn e3_spec_targets_only_nonroot_trap() {
        let cadence = InjectionSpec::e3_nonroot_trap_medium().cadence;
        assert!(cadence.matches(HandlerKind::ArchHandleTrap, CpuId(1)));
        assert!(!cadence.matches(HandlerKind::ArchHandleTrap, CpuId(0)));
        assert!(!cadence.matches(HandlerKind::ArchHandleHvc, CpuId(1)));
        assert!(!cadence.matches(HandlerKind::IrqchipHandleIrq, CpuId(1)));
    }

    #[test]
    #[should_panic(expected = "at least one target")]
    fn empty_targets_rejected() {
        let _ = InjectionSpec::new(Intensity::Medium, [], None);
    }

    #[test]
    #[should_panic(expected = "at least one target")]
    fn empty_memory_targets_rejected() {
        let _ = MemorySpec::new(MemFaultModel::SingleBitFlip, MemTarget::all(), [], None);
    }

    #[test]
    fn invalid_names_the_first_problem() {
        let mut cadence = Cadence::new([HandlerKind::ArchHandleHvc], None, 5);
        assert_eq!(cadence.invalid(), None);
        cadence.rate = 0;
        assert_eq!(cadence.invalid(), Some("cadence rate must be non-zero"));
        cadence.targets.clear();
        assert_eq!(cadence.invalid(), Some("cadence needs at least one target"));
    }

    #[test]
    fn builders_apply_to_every_paced_type() {
        let spec = InjectionSpec::e3_nonroot_trap_medium()
            .with_rate(10)
            .with_max_injections(2)
            .with_window(100, 900);
        assert_eq!(spec.cadence.rate, 10);
        assert_eq!(spec.cadence.max_injections, Some(2));
        assert_eq!(spec.cadence.windows, vec![InjectionWindow::new(100, 900)]);

        let mem = MemorySpec::e6_memory(MemFaultModel::SingleBitFlip, MemTarget::e6())
            .with_rate(10)
            .with_max_injections(2)
            .with_window(100, 900);
        assert_eq!(mem.cadence.rate, 10);
        assert_eq!(mem.cadence.max_injections, Some(2));
        assert_eq!(mem.cadence.windows, spec.cadence.windows);
    }

    #[test]
    fn window_lists_arm_any_containing_window() {
        let cadence = Cadence::new([HandlerKind::ArchHandleTrap], None, 100)
            .with_window(10, 20)
            .with_window(50, 60);
        assert_eq!(cadence.windows.len(), 2);
        assert!(cadence.armed(15));
        assert!(!cadence.armed(30), "between the two windows");
        assert!(cadence.armed(55));
        assert!(!cadence.armed(60), "half-open upper bound");

        // An empty list arms the whole run; with_windows replaces.
        let always = InjectionSpec::e3_nonroot_trap_medium().cadence;
        assert!(always.armed(0) && always.armed(u64::MAX));
        let replaced = cadence.with_windows([InjectionWindow::new(0, 5)]);
        assert_eq!(replaced.windows, vec![InjectionWindow::new(0, 5)]);
        assert!(!replaced.armed(15));
    }

    #[test]
    fn window_is_half_open() {
        let window = InjectionWindow::new(10, 20);
        assert!(!window.contains(9));
        assert!(window.contains(10));
        assert!(window.contains(19));
        assert!(!window.contains(20));
        assert_eq!(window.to_string(), "[10, 20)");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_window_rejected() {
        let _ = InjectionWindow::new(5, 5);
    }

    #[test]
    fn memory_spec_paces_like_the_register_spec() {
        let spec = MemorySpec::e6_memory(MemFaultModel::SingleBitFlip, MemTarget::e6());
        assert!(spec.cadence.matches(HandlerKind::ArchHandleTrap, CpuId(1)));
        assert!(!spec.cadence.matches(HandlerKind::ArchHandleTrap, CpuId(0)));
        assert!(!spec
            .cadence
            .matches(HandlerKind::IrqchipHandleIrq, CpuId(1)));
        assert_eq!(spec.cadence.rate, Intensity::High.rate());
    }

    #[test]
    fn call_filter_counts_its_own_cells() {
        let mut system = crate::System::new(certify_guest_linux::MgmtScript::bring_up_and_run(400));
        system.run(600);
        let hv = &system.hv;
        for mask in 1u8..8 {
            let handlers = HandlerKind::ALL
                .into_iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, handler)| handler);
            for cpu in [None, Some(CpuId(0)), Some(CpuId(1))] {
                let calls = Cadence::new(handlers.clone(), cpu, 1).calls();
                let scanned: u64 = hv
                    .call_counts()
                    .filter(|&(handler, cpu, _)| calls.matches(handler, cpu))
                    .map(|(_, _, count)| count)
                    .sum();
                assert!(scanned > 0 || cpu.is_some(), "mask {mask:#b} saw no calls");
                assert_eq!(calls.count(hv), scanned, "mask {mask:#b}, cpu {cpu:?}");
            }
        }
    }

    fn counter(cadence: &Cadence, seed: u64) -> CadenceCounter {
        CadenceCounter::new(cadence, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn jittered_counter_records_phase_shifted_multiples() {
        let cadence = Cadence::new([HandlerKind::ArchHandleTrap], None, 10).with_phase_jitter();
        for seed in 0..20 {
            let mut counter = counter(&cadence, seed);
            let first = (1..=10).find_map(|_| counter.count_call()).unwrap();
            assert!(
                counter.phased() - first < 10,
                "seed {seed}: phase below rate"
            );
            assert_eq!(counter.phased() % 10, 0, "seed {seed}");
        }
    }

    #[test]
    fn a_capped_counter_stops_counting() {
        let cadence = Cadence::new([HandlerKind::ArchHandleTrap], None, 2).with_max_injections(1);
        let mut counter = counter(&cadence, 3);
        assert_eq!(counter.count_call(), None);
        assert_eq!(counter.count_call(), Some(2));
        assert!(!counter.capped(), "only effective injections count");
        assert_eq!(counter.count_call(), None);
        assert_eq!(counter.count_call(), Some(4));
        counter.injected();
        assert!(counter.capped());
        assert_eq!(counter.count_call(), None);
        assert_eq!(counter.advance_to(100), None);
        assert_eq!(counter.phased(), 4, "frozen at the cap");
    }
}
