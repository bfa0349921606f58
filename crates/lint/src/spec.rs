//! Pass 1 — the campaign-spec analyzer.
//!
//! [`lint_scenario`] resolves everything a [`Scenario`] will meet at
//! run time — the platform memory map and CPU count, the management
//! script, the trial horizon — and statically diagnoses the ways a
//! spec can be silently meaningless: dead or overlapping injection
//! windows, out-of-range or zero-probability memory target regions,
//! unsatisfiable rates, CPU filters no call can match, mixed-spec
//! phase locks. [`lint_partition`] is the same discipline for shard
//! partitions: `run_sharded` refuses a partition that over- or
//! under-covers the seed space before a single worker is spawned.
//!
//! Everything here is *advice about reachable behaviour*, not type
//! checking: every diagnosed spec is constructible (and most are
//! encodable over the wire), it just cannot do what its author meant.

use crate::diagnostic::{Code, Diagnostic};
use certify_arch::CpuId;
use certify_board::Machine;
use certify_core::campaign::Scenario;
use certify_core::memfault::{MemFaultModel, MemRegionKind, RamCoverage};
use certify_core::spec::{Cadence, InjectionSpec, InjectionWindow, MemorySpec};
use certify_guest_linux::{MgmtOp, MgmtScript};

/// Conservative upper bound on filtered handler calls per CPU per
/// simulator step. A CPU triggers at most one trap/hypercall handler
/// per step plus a bounded burst of IRQ deliveries; eight is far above
/// anything the platform model produces, so a rate above
/// `steps * cpus * 8` provably never fires.
pub const MAX_HANDLER_CALLS_PER_STEP: u64 = 8;

/// The platform facts a spec is resolved against.
#[derive(Debug, Clone, Copy)]
struct LintContext {
    /// Trial horizon in simulator steps.
    steps: u64,
    /// Platform CPU count (CPU filters must name one of these).
    cpus: u32,
}

impl LintContext {
    fn for_scenario(scenario: &Scenario) -> LintContext {
        LintContext {
            steps: scenario.steps,
            cpus: Machine::new_banana_pi().num_cpus() as u32,
        }
    }

    /// The largest filtered-call count any spec can plausibly see.
    fn call_capacity(&self, cpu_filtered: bool) -> u64 {
        let cpus = if cpu_filtered {
            1
        } else {
            u64::from(self.cpus)
        };
        self.steps
            .saturating_mul(cpus)
            .saturating_mul(MAX_HANDLER_CALLS_PER_STEP)
    }
}

/// Lints a full scenario: horizon, script, both injection specs and
/// their interaction. Returns every finding; gate on
/// [`crate::has_errors`] to decide whether to refuse it.
pub fn lint_scenario(scenario: &Scenario) -> Vec<Diagnostic> {
    let ctx = LintContext::for_scenario(scenario);
    let mut out = Vec::new();

    if scenario.steps == 0 {
        out.push(Diagnostic::new(
            Code::SpecZeroSteps,
            "steps",
            "the trial horizon is zero steps",
        ));
    }
    lint_script(&scenario.script, &mut out);
    if let Some(spec) = &scenario.spec {
        lint_injection_spec(spec, ctx, &mut out);
    }
    if let Some(mem_spec) = &scenario.mem_spec {
        lint_memory_spec(mem_spec, ctx, &scenario.script, &mut out);
    }
    if let (Some(spec), Some(mem_spec)) = (&scenario.spec, &scenario.mem_spec) {
        lint_mixed(spec, mem_spec, &mut out);
    }
    out
}

/// Lints the management script: an empty workload, restart jumps past
/// the end of the op list.
fn lint_script(script: &MgmtScript, out: &mut Vec<Diagnostic>) {
    if script.ops.is_empty() {
        out.push(Diagnostic::new(
            Code::ScriptEmpty,
            "script.ops",
            format!("script `{}` has no operations", script.name),
        ));
    }
    for (i, op) in script.ops.iter().enumerate() {
        if let MgmtOp::Restart(target) = op {
            if *target >= script.ops.len() {
                out.push(Diagnostic::new(
                    Code::ScriptRestartOutOfBounds,
                    format!("script.ops[{i}]"),
                    format!(
                        "restart target {target} is past the end of the {}-op script \
                         and silently ends it",
                        script.ops.len()
                    ),
                ));
            }
        }
    }
}

/// Cadence checks of both spec kinds: target set, rate satisfiability
/// (when the rate paces the injector), CPU filter, injection cap,
/// windows.
fn lint_cadence(
    prefix: &str,
    cadence: &Cadence,
    rate_in_use: bool,
    ctx: LintContext,
    out: &mut Vec<Diagnostic>,
) {
    let rate = cadence.rate;
    if cadence.targets.is_empty() {
        out.push(Diagnostic::new(
            Code::SpecEmptyTargets,
            format!("{prefix}.targets"),
            "no handlers are targeted, so the cadence never advances",
        ));
    }
    if rate == 0 {
        out.push(Diagnostic::new(
            Code::SpecZeroRate,
            format!("{prefix}.rate"),
            "a rate of zero can never fire",
        ));
    } else if rate_in_use {
        let capacity = ctx.call_capacity(cadence.cpu_filter.is_some());
        if rate > capacity {
            out.push(Diagnostic::new(
                Code::SpecUnsatisfiableRate,
                format!("{prefix}.rate"),
                format!(
                    "rate {rate} exceeds the {capacity} filtered calls \
                     {} steps can plausibly produce",
                    ctx.steps
                ),
            ));
        }
    }
    if let Some(CpuId(cpu)) = cadence.cpu_filter {
        if cpu >= ctx.cpus {
            out.push(Diagnostic::new(
                Code::SpecCpuOutOfRange,
                format!("{prefix}.cpu_filter"),
                format!("CPU {cpu} does not exist (platform has {} CPUs)", ctx.cpus),
            ));
        }
    }
    if cadence.max_injections == Some(0) {
        out.push(Diagnostic::new(
            Code::SpecZeroInjectionCap,
            format!("{prefix}.max_injections"),
            "an injection cap of zero disables the spec",
        ));
    }
    lint_windows(prefix, &cadence.windows, ctx.steps, out);
}

/// Window-list checks: inverted or dead windows, a list that never
/// arms, redundant overlaps.
fn lint_windows(prefix: &str, windows: &[InjectionWindow], steps: u64, out: &mut Vec<Diagnostic>) {
    if windows.is_empty() {
        return; // an empty list arms the whole run
    }
    let mut live = Vec::new();
    let mut dead = Vec::new();
    for (i, window) in windows.iter().enumerate() {
        if window.start >= window.end {
            out.push(Diagnostic::new(
                Code::WindowInverted,
                format!("{prefix}.windows[{i}]"),
                format!(
                    "window [{}, {}) is empty or inverted",
                    window.start, window.end
                ),
            ));
            dead.push(i);
        } else if window.start >= steps {
            dead.push(i);
        } else {
            live.push((window.start, window.end.min(steps), i));
        }
    }
    if live.is_empty() {
        out.push(Diagnostic::new(
            Code::WindowAllDead,
            format!("{prefix}.windows"),
            format!(
                "none of the {} windows opens before the {steps}-step horizon: \
                 the spec never arms",
                windows.len()
            ),
        ));
    } else {
        // Individual dead windows are only worth flagging when the
        // spec still does something.
        for &i in &dead {
            let window = &windows[i];
            if window.start < window.end {
                out.push(Diagnostic::new(
                    Code::WindowDead,
                    format!("{prefix}.windows[{i}]"),
                    format!(
                        "window [{}, {}) opens at or after the {steps}-step horizon",
                        window.start, window.end
                    ),
                ));
            }
        }
    }
    // Overlaps among the live windows (sorted by start, adjacent
    // comparison suffices for pairwise overlap detection).
    live.sort_unstable();
    for pair in live.windows(2) {
        let (a_start, a_end, a_idx) = pair[0];
        let (b_start, _, b_idx) = pair[1];
        if b_start < a_end {
            let _ = a_start;
            out.push(Diagnostic::new(
                Code::WindowOverlap,
                format!("{prefix}.windows[{b_idx}]"),
                format!("overlaps window at {prefix}.windows[{a_idx}]"),
            ));
        }
    }
}

/// Lints a register-injection spec.
fn lint_injection_spec(spec: &InjectionSpec, ctx: LintContext, out: &mut Vec<Diagnostic>) {
    lint_cadence("spec", &spec.cadence, spec.time_trigger.is_none(), ctx, out);
    match spec.time_trigger {
        Some(0) => out.push(Diagnostic::new(
            Code::SpecZeroTimeTrigger,
            "spec.time_trigger",
            "a time-trigger period of zero is rejected by the engine",
        )),
        Some(period) if period >= ctx.steps => out.push(Diagnostic::new(
            Code::SpecLateTimeTrigger,
            "spec.time_trigger",
            format!(
                "period {period} is not below the {}-step horizon: the trigger never fires",
                ctx.steps
            ),
        )),
        _ => {}
    }
}

/// Lints a memory-injection spec, including the skip guarantees the
/// campaign engine will debug-assert against.
fn lint_memory_spec(
    spec: &MemorySpec,
    ctx: LintContext,
    script: &MgmtScript,
    out: &mut Vec<Diagnostic>,
) {
    lint_cadence("mem_spec", &spec.cadence, true, ctx, out);
    out.extend(lint_mem_regions(
        &spec.model,
        spec.target.regions(),
        "mem_spec.target",
    ));
    let prediction = spec.skip_prediction();
    let creates_cell = script.ops.iter().any(|op| matches!(op, MgmtOp::CreateCell));
    if prediction.no_victim_possible && !creates_cell {
        out.push(Diagnostic::new(
            Code::MemNoVictimCell,
            "mem_spec.model",
            format!(
                "model {} needs a non-root victim cell but script `{}` never creates \
                 one: every such injection is a guaranteed skip",
                spec.model.name(),
                script.name
            ),
        ));
    }
}

/// Lints a memory target's region list under `model`: structural span
/// problems (too small, wrapping) and — for models that write physical
/// RAM — regions that guarantee or risk [`skipped
/// injections`](certify_core::memfault::MemFaultSkip::OutOfRange).
///
/// Public (rather than folded into [`lint_scenario`]) because
/// [`certify_core::memfault::MemTarget::new`] panics on structurally
/// bad regions: tests and tools can feed *arbitrary* region lists here
/// without being able to construct the target.
pub fn lint_mem_regions(
    model: &MemFaultModel,
    regions: &[MemRegionKind],
    span_prefix: &str,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if regions.is_empty() {
        out.push(Diagnostic::new(
            Code::MemEmptyRegions,
            format!("{span_prefix}.regions"),
            "the target samples from no regions",
        ));
        return out;
    }
    for (i, &region) in regions.iter().enumerate() {
        let span = format!("{span_prefix}.regions[{i}]");
        let (base, size) = region.span();
        if size < 4 {
            out.push(Diagnostic::new(
                Code::MemRegionTooSmall,
                span,
                format!("region {region} spans {size} bytes; a 32-bit word needs 4"),
            ));
            continue;
        }
        if base.checked_add(size - 1).is_none() {
            out.push(Diagnostic::new(
                Code::MemRegionWraps,
                span,
                format!("region {region} wraps the 32-bit address space"),
            ));
            continue;
        }
        // Out-of-range skips only exist on the RAM-word path:
        // comm-state corruption writes the comm region regardless of
        // the sample, and descriptor attacks treat the sample as an
        // IPA (mirrors `MemFaultModel::apply`).
        let ram_word_path = !matches!(
            model,
            MemFaultModel::CommStateCorrupt | MemFaultModel::DescriptorInvalidate
        ) && region != MemRegionKind::Stage2Tables;
        if ram_word_path {
            match RamCoverage::of(region) {
                RamCoverage::Inside => {}
                RamCoverage::Outside => out.push(Diagnostic::new(
                    Code::MemRegionOutsideRam,
                    span,
                    format!(
                        "region {region} ({base:#010x}+{size:#x}) lies entirely outside \
                         DRAM: every sample is a guaranteed skipped injection"
                    ),
                )),
                RamCoverage::Straddles => out.push(Diagnostic::new(
                    Code::MemRegionStraddlesRam,
                    span,
                    format!(
                        "region {region} ({base:#010x}+{size:#x}) partly leaves DRAM: \
                         samples outside it are skipped injections"
                    ),
                )),
            }
        }
    }
    out
}

/// Mixed-spec conflict: both injectors on exactly the same calls.
fn lint_mixed(spec: &InjectionSpec, mem_spec: &MemorySpec, out: &mut Vec<Diagnostic>) {
    let (reg, mem) = (&spec.cadence, &mem_spec.cadence);
    if reg.targets == mem.targets
        && reg.cpu_filter == mem.cpu_filter
        && reg.rate == mem.rate
        && !reg.phase_jitter
        && !mem.phase_jitter
        && spec.time_trigger.is_none()
    {
        out.push(Diagnostic::new(
            Code::MixedPhaseLock,
            "mem_spec",
            "register and memory specs share targets, CPU filter and rate with no \
             phase jitter: both injectors fire on exactly the same calls",
        ));
    }
}

/// Validates that `ranges` is a contiguous, non-overlapping, exact
/// cover of the trial space `[start, start + len)` — the shard
/// partition contract `run_sharded` enforces before spawning workers.
///
/// Ranges must be given in ascending order (as
/// [`certify-shard`'s `partition`](https://docs.rs) produces them);
/// an out-of-order range reads as an overlap or gap.
pub fn lint_partition(start: usize, len: usize, ranges: &[(usize, usize)]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // u128 so `start + len` and range ends can never overflow.
    let limit = start as u128 + len as u128;
    let mut cursor = start as u128;
    for (i, &(range_start, range_len)) in ranges.iter().enumerate() {
        let span = format!("partition[{i}]");
        if range_len == 0 {
            out.push(Diagnostic::new(
                Code::PartitionEmptyRange,
                span.clone(),
                format!("shard range {i} covers zero trials"),
            ));
        }
        let range_start = range_start as u128;
        let range_end = range_start + range_len as u128;
        if range_start < cursor {
            out.push(Diagnostic::new(
                Code::PartitionOverlap,
                span.clone(),
                format!(
                    "range starts at trial {range_start} but trials below {cursor} \
                     are already covered"
                ),
            ));
        } else if range_start > cursor {
            out.push(Diagnostic::new(
                Code::PartitionGap,
                span.clone(),
                format!("trials [{cursor}, {range_start}) are covered by no shard"),
            ));
        }
        if range_end > limit {
            out.push(Diagnostic::new(
                Code::PartitionOutOfBounds,
                span,
                format!(
                    "range ends at trial {range_end}, past the campaign's \
                     trial space end {limit}"
                ),
            ));
        }
        cursor = cursor.max(range_end);
    }
    if cursor < limit {
        out.push(Diagnostic::new(
            Code::PartitionGap,
            "partition",
            format!("trials [{cursor}, {limit}) are covered by no shard"),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::has_errors;
    use certify_core::memfault::MemTarget;
    use certify_core::spec::InjectionWindow;

    fn codes(diags: &[Diagnostic]) -> Vec<Code> {
        diags.iter().map(|d| d.code).collect()
    }

    // ---- partition: one unit test per violation class -------------

    #[test]
    fn partition_exact_cover_is_clean() {
        assert!(lint_partition(0, 10, &[(0, 3), (3, 3), (6, 4)]).is_empty());
        assert!(lint_partition(5, 5, &[(5, 5)]).is_empty());
        assert!(lint_partition(0, 0, &[]).is_empty());
    }

    #[test]
    fn partition_gap_in_the_middle() {
        let diags = lint_partition(0, 10, &[(0, 3), (5, 5)]);
        assert_eq!(codes(&diags), vec![Code::PartitionGap]);
        assert!(diags[0].span.contains("partition[1]"));
    }

    #[test]
    fn partition_gap_at_the_tail() {
        let diags = lint_partition(0, 10, &[(0, 3), (3, 3)]);
        assert_eq!(codes(&diags), vec![Code::PartitionGap]);
        assert!(diags[0].message.contains("[6, 10)"));
    }

    #[test]
    fn partition_overlap() {
        let diags = lint_partition(0, 10, &[(0, 6), (4, 6)]);
        assert_eq!(codes(&diags), vec![Code::PartitionOverlap]);
    }

    #[test]
    fn partition_out_of_bounds() {
        let diags = lint_partition(0, 10, &[(0, 12)]);
        assert_eq!(codes(&diags), vec![Code::PartitionOutOfBounds]);
    }

    #[test]
    fn partition_empty_range_is_a_warning() {
        let diags = lint_partition(0, 4, &[(0, 2), (2, 0), (2, 2)]);
        assert_eq!(codes(&diags), vec![Code::PartitionEmptyRange]);
        assert!(!has_errors(&diags));
    }

    #[test]
    fn partition_huge_ranges_do_not_overflow() {
        let diags = lint_partition(usize::MAX - 4, 4, &[(usize::MAX - 4, 4)]);
        assert!(diags.is_empty());
        let diags = lint_partition(0, usize::MAX, &[(0, usize::MAX)]);
        assert!(diags.is_empty());
    }

    // ---- window analysis ------------------------------------------

    #[test]
    fn live_and_dead_windows_mix_warns_per_window() {
        let mut scenario = Scenario::e3_fig3();
        scenario.spec.as_mut().unwrap().cadence.windows = vec![
            InjectionWindow::new(0, 100),
            InjectionWindow::new(9000, 9100), // beyond the 4500-step horizon
        ];
        let diags = lint_scenario(&scenario);
        assert_eq!(codes(&diags), vec![Code::WindowDead]);
        assert_eq!(diags[0].span, "spec.windows[1]");
    }

    #[test]
    fn all_dead_windows_is_an_error() {
        let mut scenario = Scenario::e3_fig3();
        scenario.spec.as_mut().unwrap().cadence.windows = vec![InjectionWindow::new(5000, 6000)];
        let diags = lint_scenario(&scenario);
        assert_eq!(codes(&diags), vec![Code::WindowAllDead]);
        assert!(has_errors(&diags));
    }

    #[test]
    fn inverted_window_is_an_error() {
        let mut scenario = Scenario::e3_fig3();
        scenario.spec.as_mut().unwrap().cadence.windows = vec![
            InjectionWindow { start: 20, end: 20 },
            InjectionWindow::new(0, 50),
        ];
        let diags = lint_scenario(&scenario);
        assert_eq!(codes(&diags), vec![Code::WindowInverted]);
    }

    #[test]
    fn overlapping_windows_warn_once_per_pair() {
        let mut scenario = Scenario::e3_fig3();
        scenario.spec.as_mut().unwrap().cadence.windows = vec![
            InjectionWindow::new(100, 300),
            InjectionWindow::new(200, 400),
            InjectionWindow::new(600, 700),
        ];
        let diags = lint_scenario(&scenario);
        assert_eq!(codes(&diags), vec![Code::WindowOverlap]);
        assert!(diags[0].message.contains("windows[0]"));
    }

    // ---- region analysis ------------------------------------------

    #[test]
    fn region_lint_rejects_structurally_bad_spans() {
        let tiny = MemRegionKind::Custom { base: 0, size: 2 };
        let wraps = MemRegionKind::Custom {
            base: 0xffff_fff0,
            size: 0x100,
        };
        let diags = lint_mem_regions(&MemFaultModel::SingleBitFlip, &[tiny, wraps], "t");
        assert_eq!(
            codes(&diags),
            vec![Code::MemRegionTooSmall, Code::MemRegionWraps]
        );
        assert!(has_errors(&diags));
    }

    #[test]
    fn region_lint_flags_out_of_ram_word_targets_only() {
        let hole = MemRegionKind::Custom {
            base: 0x1000_0000,
            size: 0x1000,
        };
        // Word model: guaranteed skips.
        let diags = lint_mem_regions(&MemFaultModel::SingleBitFlip, &[hole], "t");
        assert_eq!(codes(&diags), vec![Code::MemRegionOutsideRam]);
        // Descriptor / comm models never take the RAM-word path.
        assert!(lint_mem_regions(&MemFaultModel::DescriptorInvalidate, &[hole], "t").is_empty());
        assert!(lint_mem_regions(&MemFaultModel::CommStateCorrupt, &[hole], "t").is_empty());
    }

    #[test]
    fn region_lint_flags_straddles_and_empty_lists() {
        let straddle = MemRegionKind::Custom {
            base: certify_board::memmap::RAM_BASE - 0x100,
            size: 0x200,
        };
        let diags = lint_mem_regions(&MemFaultModel::DoubleBitFlip, &[straddle], "t");
        assert_eq!(codes(&diags), vec![Code::MemRegionStraddlesRam]);
        let diags = lint_mem_regions(&MemFaultModel::SingleBitFlip, &[], "t");
        assert_eq!(codes(&diags), vec![Code::MemEmptyRegions]);
    }

    #[test]
    fn victim_cell_warning_needs_a_cell_less_script() {
        let mut scenario = Scenario::e6_memory(
            MemFaultModel::DescriptorInvalidate,
            MemTarget::only(MemRegionKind::Stage2Tables),
        );
        assert!(lint_scenario(&scenario).is_empty(), "script creates a cell");
        scenario.script = MgmtScript::enable_attempt(3); // no CreateCell
        let diags = lint_scenario(&scenario);
        assert_eq!(codes(&diags), vec![Code::MemNoVictimCell]);
    }
}
