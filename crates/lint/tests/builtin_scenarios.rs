//! Table-driven coverage of the spec analyzer.
//!
//! Two directions: every built-in scenario constructor must lint
//! *clean* (zero diagnostics — the presets are the documentation of
//! what a good spec looks like), and a table of targeted mutations
//! must each trigger exactly the documented diagnostic code. Together
//! the two tables give every spec-analyzer code at least one
//! triggering test and pin the analyzer against false positives on
//! real scenarios. Proptests then sweep window/region parameter
//! spaces for the reachability-analysis codes.

use certify_core::campaign::Scenario;
use certify_core::memfault::{MemFaultModel, MemRegionKind, MemTarget};
use certify_core::spec::InjectionWindow;
use certify_lint::{
    builtin_scenarios, certify_scenario, lint_mem_regions, lint_partition, lint_scenario, Code,
};
use proptest::prelude::*;

#[test]
fn every_builtin_scenario_lints_clean() {
    let scenarios = builtin_scenarios();
    assert!(scenarios.len() >= 14, "the sweep must cover E1–E7");
    for scenario in scenarios {
        let diags = lint_scenario(&scenario);
        assert!(
            diags.is_empty(),
            "built-in scenario `{}` must lint clean, got:\n{}",
            scenario.name,
            diags
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// One mutation: break an E3 scenario in a known way and name the
/// diagnostic code that must fire.
struct Mutation {
    name: &'static str,
    mutate: fn(&mut Scenario),
    expect: Code,
}

#[test]
fn every_spec_diagnostic_code_has_a_triggering_mutation() {
    let mutations: &[Mutation] = &[
        Mutation {
            name: "zero steps",
            mutate: |s| s.steps = 0,
            expect: Code::SpecZeroSteps,
        },
        Mutation {
            name: "empty targets",
            mutate: |s| s.spec.as_mut().unwrap().cadence.targets.clear(),
            expect: Code::SpecEmptyTargets,
        },
        Mutation {
            name: "zero rate",
            mutate: |s| s.spec.as_mut().unwrap().cadence.rate = 0,
            expect: Code::SpecZeroRate,
        },
        Mutation {
            name: "unsatisfiable rate",
            mutate: |s| s.spec.as_mut().unwrap().cadence.rate = u64::MAX,
            expect: Code::SpecUnsatisfiableRate,
        },
        Mutation {
            name: "cpu filter out of range",
            mutate: |s| {
                let past_last = certify_arch::CpuId(certify_arch::NUM_CPUS as u32);
                s.spec.as_mut().unwrap().cadence.cpu_filter = Some(past_last);
            },
            expect: Code::SpecCpuOutOfRange,
        },
        Mutation {
            name: "zero injection cap",
            mutate: |s| s.spec.as_mut().unwrap().cadence.max_injections = Some(0),
            expect: Code::SpecZeroInjectionCap,
        },
        Mutation {
            name: "inverted window",
            mutate: |s| {
                s.spec.as_mut().unwrap().cadence.windows = vec![
                    InjectionWindow { start: 9, end: 9 },
                    InjectionWindow::new(0, 50),
                ]
            },
            expect: Code::WindowInverted,
        },
        Mutation {
            name: "dead window beside a live one",
            mutate: |s| {
                let steps = s.steps;
                s.spec.as_mut().unwrap().cadence.windows = vec![
                    InjectionWindow::new(0, 50),
                    InjectionWindow::new(steps, steps + 10),
                ]
            },
            expect: Code::WindowDead,
        },
        Mutation {
            name: "all windows dead",
            mutate: |s| {
                let steps = s.steps;
                s.spec.as_mut().unwrap().cadence.windows =
                    vec![InjectionWindow::new(steps, steps + 10)]
            },
            expect: Code::WindowAllDead,
        },
        Mutation {
            name: "overlapping windows",
            mutate: |s| {
                s.spec.as_mut().unwrap().cadence.windows =
                    vec![InjectionWindow::new(0, 100), InjectionWindow::new(50, 150)]
            },
            expect: Code::WindowOverlap,
        },
        Mutation {
            name: "empty script",
            mutate: |s| s.script.ops.clear(),
            expect: Code::ScriptEmpty,
        },
        Mutation {
            name: "restart past script end",
            mutate: |s| {
                let end = s.script.ops.len();
                s.script
                    .ops
                    .push(certify_guest_linux::MgmtOp::Restart(end + 5));
            },
            expect: Code::ScriptRestartOutOfBounds,
        },
    ];
    for mutation in mutations {
        let mut scenario = Scenario::e3_fig3();
        (mutation.mutate)(&mut scenario);
        let codes: Vec<Code> = lint_scenario(&scenario).iter().map(|d| d.code).collect();
        assert!(
            codes.contains(&mutation.expect),
            "mutation `{}` must trigger {:?}, got {codes:?}",
            mutation.name,
            mutation.expect
        );
    }
}

/// Every certificate-interpreter code fires on a known mutation of a
/// clean scenario, mirroring the spec-analyzer table above. The codes
/// come out of `certify_scenario` (the abstract interpreter), not
/// `lint_scenario`.
#[test]
fn every_certificate_code_has_a_triggering_mutation() {
    use certify_guest_linux::{MgmtOp, MgmtScript};
    let mutations: &[Mutation] = &[
        Mutation {
            name: "cell op before enable",
            mutate: |s| s.script.ops = vec![MgmtOp::CreateCell],
            expect: Code::CertCellOpWithoutEnable,
        },
        Mutation {
            name: "cell op without create",
            mutate: |s| s.script.ops = vec![MgmtOp::Enable, MgmtOp::LoadCell],
            expect: Code::CertCellOpWithoutCreate,
        },
        Mutation {
            name: "double create",
            mutate: |s| s.script.ops = vec![MgmtOp::Enable, MgmtOp::CreateCell, MgmtOp::CreateCell],
            expect: Code::CertDoubleCreate,
        },
        Mutation {
            name: "start without load",
            mutate: |s| s.script.ops = vec![MgmtOp::Enable, MgmtOp::CreateCell, MgmtOp::StartCell],
            expect: Code::CertStartWithoutLoad,
        },
        Mutation {
            name: "wait without offline request",
            mutate: |s| s.script.ops = vec![MgmtOp::WaitCpuParked(1)],
            expect: Code::CertWaitWithoutOffline,
        },
        Mutation {
            name: "op shadowed by halt",
            mutate: |s| s.script.ops = vec![MgmtOp::Halt, MgmtOp::Delay(1)],
            expect: Code::CertUnreachableOp,
        },
        Mutation {
            name: "monitor without heartbeat",
            mutate: |s| {
                s.script = MgmtScript::bring_up_with_monitor(100, 10);
                s.rtos_heartbeat = false;
            },
            expect: Code::CertMonitorWithoutHeartbeat,
        },
        Mutation {
            name: "cell-backed region never mapped",
            mutate: |s| {
                s.script = MgmtScript::enable_attempt(3);
                s.mem_spec = Some(certify_core::spec::MemorySpec::e6_memory(
                    MemFaultModel::SingleBitFlip,
                    MemTarget::only(MemRegionKind::NonRootRam),
                ));
            },
            expect: Code::CertRegionUnmapped,
        },
        Mutation {
            name: "window too narrow for one fire",
            mutate: |s| s.spec.as_mut().unwrap().cadence.windows = vec![InjectionWindow::new(0, 2)],
            expect: Code::CertZeroBudget,
        },
        Mutation {
            name: "script halts before the window opens",
            mutate: |s| {
                s.script = MgmtScript::bring_up_and_run(100);
                s.spec.as_mut().unwrap().cadence.windows = vec![InjectionWindow::new(3000, 4000)];
            },
            expect: Code::CertScriptEndsBeforeWindow,
        },
    ];
    for mutation in mutations {
        let mut scenario = Scenario::e3_fig3();
        (mutation.mutate)(&mut scenario);
        let codes: Vec<Code> = certify_scenario(&scenario)
            .1
            .iter()
            .map(|d| d.code)
            .collect();
        assert!(
            codes.contains(&mutation.expect),
            "mutation `{}` must trigger {:?}, got {codes:?}",
            mutation.name,
            mutation.expect
        );
    }
}

#[test]
fn memory_mutations_trigger_their_codes() {
    // Region codes go through `lint_mem_regions` (the constructors
    // panic on structurally bad targets, so the lint API takes raw
    // region lists).
    let cases: &[(&str, MemFaultModel, Vec<MemRegionKind>, Code)] = &[
        (
            "no regions",
            MemFaultModel::SingleBitFlip,
            vec![],
            Code::MemEmptyRegions,
        ),
        (
            "sub-word region",
            MemFaultModel::SingleBitFlip,
            vec![MemRegionKind::Custom { base: 64, size: 3 }],
            Code::MemRegionTooSmall,
        ),
        (
            "wrapping region",
            MemFaultModel::SingleBitFlip,
            vec![MemRegionKind::Custom {
                base: 0xffff_fffc,
                size: 8,
            }],
            Code::MemRegionWraps,
        ),
        (
            "region outside DRAM",
            MemFaultModel::PageBurst { words: 8 },
            vec![MemRegionKind::Custom {
                base: 0x1000_0000,
                size: 0x1000,
            }],
            Code::MemRegionOutsideRam,
        ),
        (
            "region straddling the DRAM edge",
            MemFaultModel::WordStuckAt { value: 0 },
            vec![MemRegionKind::Custom {
                base: certify_board::memmap::RAM_BASE - 0x800,
                size: 0x1000,
            }],
            Code::MemRegionStraddlesRam,
        ),
    ];
    for (name, model, regions, expect) in cases {
        let codes: Vec<Code> = lint_mem_regions(model, regions, "t")
            .iter()
            .map(|d| d.code)
            .collect();
        assert_eq!(codes, vec![*expect], "case `{name}`");
    }

    // The victim-cell and mixed-spec codes need whole scenarios.
    let mut scenario = Scenario::e6_memory(
        MemFaultModel::DescriptorInvalidate,
        MemTarget::only(MemRegionKind::Stage2Tables),
    );
    scenario.script = certify_guest_linux::MgmtScript::enable_attempt(3);
    let codes: Vec<Code> = lint_scenario(&scenario).iter().map(|d| d.code).collect();
    assert!(codes.contains(&Code::MemNoVictimCell), "{codes:?}");

    let mut scenario = Scenario::e7_mixed();
    scenario.spec.as_mut().unwrap().cadence.phase_jitter = false;
    let (targets, cpu_filter, rate) = {
        let spec = scenario.spec.as_ref().unwrap();
        (
            spec.cadence.targets.clone(),
            spec.cadence.cpu_filter,
            spec.cadence.rate,
        )
    };
    {
        let mem = scenario.mem_spec.as_mut().unwrap();
        mem.cadence.targets = targets;
        mem.cadence.cpu_filter = cpu_filter;
        mem.cadence.rate = rate;
        mem.cadence.phase_jitter = false;
        mem.cadence.windows.clear();
    }
    let codes: Vec<Code> = lint_scenario(&scenario).iter().map(|d| d.code).collect();
    assert!(codes.contains(&Code::MixedPhaseLock), "{codes:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any window shrunk/shifted entirely past the horizon must fire
    /// window-all-dead; any window that still opens before the horizon
    /// must not.
    #[test]
    fn shrunk_windows_classify_by_horizon(start in 0u64..9000, len in 1u64..2000) {
        let mut scenario = Scenario::e3_fig3();
        let steps = scenario.steps;
        scenario.spec.as_mut().unwrap().cadence.windows =
            vec![InjectionWindow::new(start, start + len)];
        let codes: Vec<Code> = lint_scenario(&scenario).iter().map(|d| d.code).collect();
        if start >= steps {
            prop_assert_eq!(codes, vec![Code::WindowAllDead]);
        } else {
            prop_assert!(codes.is_empty(), "live window flagged: {:?}", codes);
        }
    }

    /// Custom regions classify against the DRAM window exactly as the
    /// runtime skip dispatch would: fully inside → clean, fully
    /// outside → guaranteed-skip warning, straddling → may-skip
    /// warning.
    #[test]
    fn shifted_regions_classify_by_ram_coverage(
        base in (0x3fff_0000u32..0x8001_0000).prop_map(|b| b & !3),
        size in (4u32..0x2_0000).prop_map(|s| s & !3),
    ) {
        prop_assume!(base.checked_add(size - 1).is_some());
        let region = MemRegionKind::Custom { base, size };
        let codes: Vec<Code> =
            lint_mem_regions(&MemFaultModel::SingleBitFlip, &[region], "t")
                .iter()
                .map(|d| d.code)
                .collect();
        let (ram_start, ram_end) = (
            certify_board::memmap::RAM_BASE as u64,
            certify_board::memmap::RAM_BASE as u64 + certify_board::memmap::RAM_SIZE as u64,
        );
        let (start, end) = (base as u64, base as u64 + size as u64);
        let expect = if start >= ram_start && end <= ram_end {
            vec![]
        } else if end <= ram_start || start >= ram_end {
            vec![Code::MemRegionOutsideRam]
        } else {
            vec![Code::MemRegionStraddlesRam]
        };
        prop_assert_eq!(codes, expect);
    }

    /// Whatever `partition` produces for any (trials, shards) lints
    /// clean — the coordinator's own partitions can never be refused.
    #[test]
    fn generated_partitions_always_lint_clean(trials in 0usize..10_000, shards in 0usize..64) {
        let ranges = certify_shard_partition(trials, shards);
        let diags = lint_partition(0, trials, &ranges);
        prop_assert!(diags.is_empty(), "partition({}, {}) flagged: {:?}", trials, shards, diags);
    }
}

/// Local re-implementation mirror of `certify_shard::partition` —
/// lint cannot depend on shard (shard depends on lint), so the
/// proptest pins the *contract* both sides implement.
fn certify_shard_partition(trials: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.clamp(1, trials.max(1));
    (0..shards)
        .map(|i| {
            (
                i * trials / shards,
                (i + 1) * trials / shards - i * trials / shards,
            )
        })
        .collect()
}
