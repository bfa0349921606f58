//! Integration: the paper's experiments hold, shape-wise, across
//! seeds. These are the same campaigns the benches regenerate, at
//! smaller trial counts suitable for the test suite.

use certify_analysis::{ExperimentReport, Figure3};
use certify_core::campaign::{Campaign, Scenario};
use certify_core::profiler::profile_golden_run;
use certify_core::Outcome;

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
    use certify_hypervisor::{CellState, Guest, GuestHealth};

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
