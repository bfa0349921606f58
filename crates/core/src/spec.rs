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
use crate::memfault::{MemFaultModel, MemTarget};
use certify_arch::CpuId;
use certify_hypervisor::{HandlerKind, Hypervisor};
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

/// Whether `step` is armed under a window list: an empty list means
/// the injector is armed for the whole run, otherwise any containing
/// window arms it. Windows may overlap and need not be sorted.
pub fn windows_arm(windows: &[InjectionWindow], step: u64) -> bool {
    windows.is_empty() || windows.iter().any(|w| w.contains(step))
}

/// The handler-call stream an injection cadence counts: calls to the
/// target handlers, from one CPU or from any. Built once per injector
/// as a flat handler mask, so the per-call and per-step checks cost
/// neither a set lookup nor an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CallFilter {
    handlers: [bool; HandlerKind::ALL.len()],
    cpu: Option<CpuId>,
}

impl CallFilter {
    /// The stream of calls to `targets` from `cpu` (`None` = any CPU).
    pub(crate) fn new(targets: &BTreeSet<HandlerKind>, cpu: Option<CpuId>) -> CallFilter {
        let mut handlers = [false; HandlerKind::ALL.len()];
        for handler in targets {
            handlers[handler.index()] = true;
        }
        CallFilter { handlers, cpu }
    }

    /// Whether a call to `handler` from `cpu` is in the stream.
    pub(crate) fn matches(&self, handler: HandlerKind, cpu: CpuId) -> bool {
        self.handlers[handler.index()] && self.cpu.is_none_or(|c| c == cpu)
    }

    /// Calls in the stream so far, summed over the hypervisor's
    /// per-(handler, CPU) call table.
    pub(crate) fn count(&self, hv: &Hypervisor) -> u64 {
        hv.call_counts()
            .filter(|&(handler, cpu, _)| self.matches(handler, cpu))
            .map(|(_, _, calls)| calls)
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

/// A full injection specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectionSpec {
    /// Handlers to instrument (the paper profiles all three and
    /// injects into `arch_handle_trap` / `arch_handle_hvc`).
    pub targets: BTreeSet<HandlerKind>,
    /// Only inject when this CPU calls the handler ("we filter the
    /// injection to activate only when the CPU core 1 is calling the
    /// function"). `None` = any CPU.
    pub cpu_filter: Option<CpuId>,
    /// Fire on every `rate`-th filtered call.
    pub rate: u64,
    /// The fault model to apply.
    pub model: FaultModel,
    /// Stop after this many injections (`None` = unbounded).
    pub max_injections: Option<u64>,
    /// Start the call counter at a seed-derived offset in
    /// `[0, rate)`. On real hardware the injection cadence and the
    /// workload are not phase-locked — the test starts at an arbitrary
    /// point of the management cycle. Without jitter the cadence is
    /// deterministic relative to the call stream.
    pub phase_jitter: bool,
    /// Time-triggered mode (ablation D1): instead of firing every
    /// `rate`-th call, fire at the first matching handler entry after
    /// every `period` simulator steps. `None` = the paper's
    /// call-count trigger.
    pub time_trigger: Option<u64>,
    /// Only fire inside these step windows (empty = the whole run).
    /// Multiple windows let one campaign attack e.g. both the boot
    /// phase and a later steady-state stretch.
    pub windows: Vec<InjectionWindow>,
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
        let targets: BTreeSet<HandlerKind> = targets.into_iter().collect();
        assert!(
            !targets.is_empty(),
            "injection spec needs at least one target"
        );
        InjectionSpec {
            targets,
            cpu_filter,
            rate: intensity.rate(),
            model: intensity.model(),
            max_injections: None,
            phase_jitter: false,
            time_trigger: None,
            windows: Vec::new(),
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
        let mut spec = InjectionSpec::new(
            Intensity::High,
            [HandlerKind::ArchHandleHvc, HandlerKind::ArchHandleTrap],
            Some(CpuId(1)),
        );
        spec.phase_jitter = true;
        spec
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

    /// Whether a handler call matches the target/CPU filter.
    pub fn matches(&self, handler: HandlerKind, cpu: CpuId) -> bool {
        self.calls().matches(handler, cpu)
    }

    /// The call stream this spec's cadence counts.
    pub(crate) fn calls(&self) -> CallFilter {
        CallFilter::new(&self.targets, self.cpu_filter)
    }

    /// The matching-call count at which the earliest seed can first
    /// attempt an injection: `rate`, or 1 when a seed-derived phase or
    /// the time trigger may fire on the very first matching call.
    pub(crate) fn first_attempt_call(&self) -> u64 {
        if self.phase_jitter || self.time_trigger.is_some() {
            1
        } else {
            self.rate
        }
    }

    /// Replaces the rate, returning the spec (builder style).
    pub fn with_rate(mut self, rate: u64) -> InjectionSpec {
        assert!(rate > 0, "rate must be non-zero");
        self.rate = rate;
        self
    }

    /// Enables per-seed cadence phase, returning the spec (builder
    /// style).
    pub fn with_phase_jitter(mut self) -> InjectionSpec {
        self.phase_jitter = true;
        self
    }

    /// Switches to the time-triggered mode (ablation D1), returning
    /// the spec (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn with_time_trigger(mut self, period: u64) -> InjectionSpec {
        assert!(period > 0, "trigger period must be non-zero");
        self.time_trigger = Some(period);
        self
    }

    /// Replaces the fault model, returning the spec (builder style).
    pub fn with_model(mut self, model: FaultModel) -> InjectionSpec {
        self.model = model;
        self
    }

    /// Caps the number of injections, returning the spec (builder
    /// style).
    pub fn with_max_injections(mut self, max: u64) -> InjectionSpec {
        self.max_injections = Some(max);
        self
    }

    /// Adds a `[start, end)` step window, returning the spec (builder
    /// style). The one-window call keeps its historical meaning; call
    /// it again (or use [`InjectionSpec::with_windows`]) to arm
    /// several disjoint phases of the run.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    pub fn with_window(mut self, start: u64, end: u64) -> InjectionSpec {
        self.windows.push(InjectionWindow::new(start, end));
        self
    }

    /// Replaces the window list, returning the spec (builder style).
    /// An empty list arms the injector for the whole run.
    pub fn with_windows(
        mut self,
        windows: impl IntoIterator<Item = InjectionWindow>,
    ) -> InjectionSpec {
        self.windows = windows.into_iter().collect();
        self
    }

    /// Whether injections are armed at `step` under the window list.
    pub fn armed(&self, step: u64) -> bool {
        windows_arm(&self.windows, step)
    }
}

/// A memory-fault injection specification — the memory-domain sibling
/// of [`InjectionSpec`]. The cadence triggers are shared: the injector
/// counts calls to the target handlers (filtered by CPU) and fires a
/// memory fault on every `rate`-th call, optionally only inside an
/// [`InjectionWindow`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemorySpec {
    /// Handlers whose (filtered) call stream drives the cadence.
    pub targets: BTreeSet<HandlerKind>,
    /// Only count calls from this CPU (`None` = any CPU).
    pub cpu_filter: Option<CpuId>,
    /// Fire on every `rate`-th filtered call.
    pub rate: u64,
    /// The memory fault model to apply.
    pub model: MemFaultModel,
    /// The address-space sampler drawing the corruption target.
    pub target: MemTarget,
    /// Stop after this many applied injections (`None` = unbounded).
    pub max_injections: Option<u64>,
    /// Start the cadence at a seed-derived phase in `[0, rate)`.
    pub phase_jitter: bool,
    /// Only fire inside these step windows (empty = the whole run).
    pub windows: Vec<InjectionWindow>,
}

impl MemorySpec {
    /// A specification firing `model` at addresses drawn by `target`,
    /// paced by the given handlers' call stream.
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
        let targets: BTreeSet<HandlerKind> = targets.into_iter().collect();
        assert!(!targets.is_empty(), "memory spec needs at least one target");
        MemorySpec {
            targets,
            cpu_filter,
            rate: Intensity::High.rate(),
            model,
            target,
            max_injections: None,
            phase_jitter: false,
            windows: Vec::new(),
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

    /// Whether a handler call matches the target/CPU filter.
    pub fn matches(&self, handler: HandlerKind, cpu: CpuId) -> bool {
        self.calls().matches(handler, cpu)
    }

    /// The call stream this spec's cadence counts.
    pub(crate) fn calls(&self) -> CallFilter {
        CallFilter::new(&self.targets, self.cpu_filter)
    }

    /// The matching-call count at which the earliest seed can first
    /// attempt an injection: `rate`, or 1 with a seed-derived phase.
    pub(crate) fn first_attempt_call(&self) -> u64 {
        if self.phase_jitter {
            1
        } else {
            self.rate
        }
    }

    /// Replaces the rate, returning the spec (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero.
    pub fn with_rate(mut self, rate: u64) -> MemorySpec {
        assert!(rate > 0, "rate must be non-zero");
        self.rate = rate;
        self
    }

    /// Enables per-seed cadence phase, returning the spec (builder
    /// style).
    pub fn with_phase_jitter(mut self) -> MemorySpec {
        self.phase_jitter = true;
        self
    }

    /// Caps the number of injections, returning the spec (builder
    /// style).
    pub fn with_max_injections(mut self, max: u64) -> MemorySpec {
        self.max_injections = Some(max);
        self
    }

    /// Adds a `[start, end)` step window, returning the spec (builder
    /// style). Call repeatedly (or use [`MemorySpec::with_windows`])
    /// to arm several disjoint phases of the run.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    pub fn with_window(mut self, start: u64, end: u64) -> MemorySpec {
        self.windows.push(InjectionWindow::new(start, end));
        self
    }

    /// Replaces the window list, returning the spec (builder style).
    /// An empty list arms the injector for the whole run.
    pub fn with_windows(
        mut self,
        windows: impl IntoIterator<Item = InjectionWindow>,
    ) -> MemorySpec {
        self.windows = windows.into_iter().collect();
        self
    }

    /// Whether injections are armed at `step` under the window list.
    pub fn armed(&self, step: u64) -> bool {
        windows_arm(&self.windows, step)
    }

    /// What kinds of skipped injection this spec can statically
    /// produce (see [`crate::memfault::SkipPrediction`]). The campaign
    /// engine debug-asserts runtime skips against this; `certify-lint`
    /// warns when skips are guaranteed.
    pub fn skip_prediction(&self) -> crate::memfault::SkipPrediction {
        crate::memfault::SkipPrediction::of(&self.model, &self.target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intensity_presets_match_the_paper() {
        assert_eq!(Intensity::Medium.rate(), 100);
        assert_eq!(Intensity::High.rate(), 50);
        assert_eq!(Intensity::Medium.model().name(), "single-bit-flip");
        assert_eq!(Intensity::High.model().name(), "multi-register-flip");
    }

    #[test]
    fn e3_spec_targets_only_nonroot_trap() {
        let spec = InjectionSpec::e3_nonroot_trap_medium();
        assert!(spec.matches(HandlerKind::ArchHandleTrap, CpuId(1)));
        assert!(!spec.matches(HandlerKind::ArchHandleTrap, CpuId(0)));
        assert!(!spec.matches(HandlerKind::ArchHandleHvc, CpuId(1)));
        assert!(!spec.matches(HandlerKind::IrqchipHandleIrq, CpuId(1)));
    }

    #[test]
    fn no_cpu_filter_matches_any_cpu() {
        let spec = InjectionSpec::new(Intensity::Medium, [HandlerKind::ArchHandleTrap], None);
        assert!(spec.matches(HandlerKind::ArchHandleTrap, CpuId(0)));
        assert!(spec.matches(HandlerKind::ArchHandleTrap, CpuId(1)));
    }

    #[test]
    #[should_panic(expected = "at least one target")]
    fn empty_targets_rejected() {
        let _ = InjectionSpec::new(Intensity::Medium, [], None);
    }

    #[test]
    fn builders_apply() {
        let spec = InjectionSpec::e3_nonroot_trap_medium()
            .with_rate(10)
            .with_max_injections(2)
            .with_window(100, 900);
        assert_eq!(spec.rate, 10);
        assert_eq!(spec.max_injections, Some(2));
        assert_eq!(spec.windows, vec![InjectionWindow::new(100, 900)]);
    }

    #[test]
    fn window_lists_arm_any_containing_window() {
        let spec = InjectionSpec::e3_nonroot_trap_medium()
            .with_window(10, 20)
            .with_window(50, 60);
        assert_eq!(spec.windows.len(), 2);
        assert!(spec.armed(15));
        assert!(!spec.armed(30), "between the two windows");
        assert!(spec.armed(55));
        assert!(!spec.armed(60), "half-open upper bound");

        // An empty list arms the whole run; with_windows replaces.
        let always = InjectionSpec::e3_nonroot_trap_medium();
        assert!(always.armed(0) && always.armed(u64::MAX));
        let replaced = spec.with_windows([InjectionWindow::new(0, 5)]);
        assert_eq!(replaced.windows, vec![InjectionWindow::new(0, 5)]);
        assert!(!replaced.armed(15));

        let mem = MemorySpec::e6_memory(
            crate::memfault::MemFaultModel::SingleBitFlip,
            crate::memfault::MemTarget::e6(),
        )
        .with_window(10, 20)
        .with_window(50, 60);
        assert!(mem.armed(15) && mem.armed(55) && !mem.armed(30));
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
    fn memory_spec_matches_like_the_register_spec() {
        use crate::memfault::{MemFaultModel, MemTarget};
        let spec = MemorySpec::e6_memory(MemFaultModel::SingleBitFlip, MemTarget::e6());
        assert!(spec.matches(HandlerKind::ArchHandleTrap, CpuId(1)));
        assert!(!spec.matches(HandlerKind::ArchHandleTrap, CpuId(0)));
        assert!(!spec.matches(HandlerKind::IrqchipHandleIrq, CpuId(1)));
        assert_eq!(spec.rate, Intensity::High.rate());
    }

    #[test]
    #[should_panic(expected = "at least one target")]
    fn empty_memory_targets_rejected() {
        use crate::memfault::{MemFaultModel, MemTarget};
        let _ = MemorySpec::new(MemFaultModel::SingleBitFlip, MemTarget::all(), [], None);
    }
}
