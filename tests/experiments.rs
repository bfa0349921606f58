//! Integration: the paper's experiments hold, shape-wise, across
//! seeds. E1–E4 run here at smaller trial counts than
//! `examples/full_report`, which CI runs at full size and which fails
//! unless every experiment reports `reproduced`. E5, the E6/E7 memory
//! campaigns and the A4 ablation run at full size from seed
//! `0xD52022`; `detection_demo`, `memory_faults` and `ablations` print
//! the same studies.

use certify_analysis::{ExperimentReport, Figure3};
use certify_core::campaign::{Campaign, Scenario};
use certify_core::memfault::{MemFaultModel, MemRegionKind, MemTarget};
use certify_core::profiler::profile_golden_run;
use certify_core::{CampaignStats, NullSink, Outcome};

/// The seed of the full-size campaigns (`full_report`, `ablations`).
const SEED: u64 = 0xD5_2022;

/// Streams `trials` trials of `scenario` from [`SEED`] into stats.
/// Results do not depend on the worker count.
fn stats(scenario: Scenario, trials: usize) -> CampaignStats {
    Campaign::new(scenario, trials, SEED)
        .execute(.., 4, &mut NullSink, None)
        .0
}

#[test]
fn e1_high_intensity_root_context_always_invalid_arguments() {
    let result = Campaign::new(Scenario::e1_root_high(), 12, 0xAA).run();
    for trial in &result.trials {
        assert_eq!(
            trial.outcome,
            Outcome::InvalidArguments,
            "seed {} diverged:\n{}",
            trial.seed,
            trial.report
        );
        assert!(trial.injection_count >= 1);
        // The evidence trail names the paper's message.
        assert!(trial
            .report
            .notes
            .iter()
            .any(|n| n.contains("not allocated")));
    }
    assert!(ExperimentReport::e1(&result.stats()).reproduced);
}

#[test]
fn e2_boot_window_yields_inconsistent_state_across_seeds() {
    let result = Campaign::new(Scenario::e2_boot_window(), 12, 0xBB).run();
    for trial in &result.trials {
        assert_eq!(
            trial.outcome,
            Outcome::InconsistentState,
            "seed {} diverged:\n{}",
            trial.seed,
            trial.report
        );
    }
}

#[test]
fn e2_comm_region_still_advertises_running_for_a_dead_cell() {
    // The deepest form of the paper's inconsistency: even the
    // communication region — what `jailhouse cell list` reads — says
    // RUNNING while the cell never executed an instruction.
    use certify_core::{InjectionSpec, System};
    use certify_guest_linux::MgmtScript;
    use certify_hypervisor::{CellState, GuestHealth};

    let mut system = System::new(MgmtScript::bring_up_and_run(1500));
    system.install_injector(InjectionSpec::e2_boot_window(), 0xB007);
    system.run(2500);

    let cell_id = system.rtos_cell().expect("cell created");
    let cell = system.hv.cell(cell_id).expect("cell exists");
    assert_eq!(cell.state(), CellState::Running);
    let published = cell
        .comm_region()
        .expect("cell has a comm region")
        .read_state(&system.machine);
    assert_eq!(published, Some(CellState::Running));
    // …and yet the guest never ran (either the boot hypercall was
    // rejected and it never entered, or it entered broken). `booted` is
    // read from the guest's `Debug`, as the cpu tests read `online=`.
    assert!(
        format!("{:?}", system.rtos).contains("booted: false")
            || system.rtos.health() != GuestHealth::Healthy,
        "guest unexpectedly healthy"
    );
    let start = system.cell_start_step().unwrap();
    assert_eq!(system.rtos_output_since(start), 0, "USART not blank");
}

#[test]
fn e2_free_running_campaign_shows_the_peculiar_state_in_the_field() {
    let result = Campaign::new(Scenario::e2_nonroot_high(), 30, 0xCC).run_parallel(4);
    let inconsistent = result
        .trials
        .iter()
        .filter(|t| t.outcome == Outcome::InconsistentState)
        .count();
    assert!(
        inconsistent > 0,
        "no inconsistent-state trials in the free-running campaign:\n{result}"
    );
    // High intensity never propagates to a system panic: the argument
    // registers don't hold hypervisor pointers.
    assert_eq!(result.stats().fraction(Outcome::PanicPark), 0.0, "{result}");
}

#[test]
fn e3_distribution_matches_figure3_shape() {
    let result = Campaign::new(Scenario::e3_fig3(), 60, 0xDD).run_parallel(4);
    let figure = Figure3::from_stats(&result.stats());
    assert!(
        figure.matches_paper_shape(),
        "distribution diverged from the paper's shape:\n{}",
        figure.render_chart()
    );
    // Every trial was actually injected.
    assert_eq!(result.stats().injected_trials, result.trials.len());
}

#[test]
fn e3_cpu_park_trials_carry_the_0x24_signature() {
    let result = Campaign::new(Scenario::e3_fig3(), 60, 0xEE).run_parallel(4);
    let park_trials: Vec<_> = result
        .trials
        .iter()
        .filter(|t| t.outcome == Outcome::CpuPark)
        .collect();
    assert!(!park_trials.is_empty(), "no cpu-park trials: {result}");
    for trial in park_trials {
        let has_code = trial
            .report
            .notes
            .iter()
            .any(|n| n.contains("0x24") || n.contains("0x20") || n.contains("0x2"));
        assert!(has_code, "park without trap code: {:?}", trial.report.notes);
    }
}

#[test]
fn e3_panic_trials_show_kernel_panic_on_serial() {
    let result = Campaign::new(Scenario::e3_fig3(), 60, 0xFF).run_parallel(4);
    let panic_trials: Vec<_> = result
        .trials
        .iter()
        .filter(|t| t.outcome == Outcome::PanicPark)
        .collect();
    assert!(!panic_trials.is_empty(), "no panic trials: {result}");
    for trial in panic_trials {
        assert!(
            trial.report.notes.iter().any(|n| n.contains("panic")),
            "panic trial without panic evidence: {:?}",
            trial.report.notes
        );
    }
}

#[test]
fn e4_profiling_finds_the_three_candidates() {
    let profile = profile_golden_run(2500);
    let report = ExperimentReport::e4(&profile);
    assert!(report.reproduced, "{report}");
}

#[test]
fn campaigns_are_reproducible_bit_for_bit() {
    let a = Campaign::new(Scenario::e3_fig3(), 8, 0x5EED).run();
    let b = Campaign::new(Scenario::e3_fig3(), 8, 0x5EED).run_parallel(4);
    for (ta, tb) in a.trials.iter().zip(&b.trials) {
        assert_eq!(ta.outcome, tb.outcome);
        assert_eq!(ta.report.injections, tb.report.injections);
    }
}

#[test]
fn e5_watchdog_and_monitor_detect_what_the_paper_missed() {
    let e5a = ExperimentReport::e5a(&stats(Scenario::e5a_watchdog(), 150));
    assert!(e5a.reproduced, "E5a did not reproduce:\n{e5a}");
    let e5b = ExperimentReport::e5b(&stats(Scenario::e5b_monitor(), 40));
    assert!(e5b.reproduced, "E5b did not reproduce:\n{e5b}");

    // Control: the monitor raises no alarm on a fault-free run.
    let mut golden = Scenario::e5b_monitor();
    golden.name = "e5b-golden-control".into();
    golden.spec = None;
    let control = stats(golden, 10);
    assert_eq!(control.monitor_alarms_total, 0, "false alarms:\n{control}");
}

#[test]
fn e6_every_memory_model_reaches_every_region() {
    let mut storms = 0;
    let mut silent = 0;
    for model in MemFaultModel::e6_models() {
        for region in [
            MemRegionKind::NonRootRam,
            MemRegionKind::Stage2Tables,
            MemRegionKind::CommRegion,
        ] {
            let scenario = Scenario::e6_memory(model.clone(), MemTarget::only(region));
            let cell = stats(scenario, 40);
            assert!(
                cell.mem_injected_trials > 0,
                "{model} x {region}: no trial applied a memory fault"
            );
            storms += cell.count(Outcome::TranslationFaultStorm);
            silent += cell.count(Outcome::SilentDataCorruption);
        }
    }
    assert!(storms > 0, "no stage-2 corruption escalated to a storm");
    assert!(silent > 0, "no memory fault stayed silent");

    let mixed = stats(Scenario::e7_mixed(), 40);
    assert!(mixed.injected_trials > 0, "{mixed}");
    assert!(mixed.mem_injected_trials > 0, "{mixed}");
}

#[test]
fn a4_irqchip_injections_are_benign() {
    // The paper excluded irqchip_handle_irq: corrupting its vector
    // number is "completely predictable", an IRQ error and never an
    // escalation. Same campaign as examples/ablations.rs's A4.
    use certify_arch::CpuId;
    use certify_core::{InjectionSpec, Intensity, Paced};
    use certify_guest_linux::MgmtScript;
    use certify_hypervisor::HandlerKind;

    let spec = InjectionSpec::new(
        Intensity::Medium,
        [HandlerKind::IrqchipHandleIrq],
        Some(CpuId(1)),
    )
    .with_rate(20);
    let a4 = stats(
        Scenario {
            name: "a4-irqchip".into(),
            script: MgmtScript::bring_up_and_run(u64::MAX / 2),
            spec: Some(spec),
            mem_spec: None,
            steps: 4500,
            rtos_heartbeat: false,
        },
        60,
    );
    assert!(
        a4.fraction(Outcome::Correct) > 0.9,
        "irqchip injections escalated:\n{a4}"
    );
}
