//! Integration: the whole stack, fault-free.

use certify_arch::CpuId;
use certify_board::memmap;
use certify_core::campaign::Scenario;
use certify_core::{classify, Outcome, System};
use certify_guest_linux::MgmtScript;
use certify_hypervisor::{CellState, GuestHealth, HandlerKind};

#[test]
fn golden_bring_up_reaches_the_running_state() {
    let mut system = System::new(MgmtScript::bring_up_and_run(2500));
    system.run(3500);

    // Hypervisor installed, cell running, both guests healthy.
    assert!(system.hv.is_enabled());
    let cell = system.rtos_cell().expect("cell created");
    assert_eq!(system.hv.cell(cell).unwrap().state(), CellState::Running);
    assert_eq!(system.linux.health(), GuestHealth::Healthy);
    assert_eq!(system.rtos.health(), GuestHealth::Healthy);
    assert!(system.hv.panicked().is_none());

    // CPU assignment matches the paper: core 0 root, core 1 FreeRTOS.
    assert_eq!(
        system.hv.cpu_owner(CpuId(0)),
        Some(certify_hypervisor::cell::ROOT_CELL)
    );
    assert_eq!(system.hv.cpu_owner(CpuId(1)), Some(cell));
}

#[test]
fn golden_run_workload_makes_progress_on_every_task_class() {
    let mut system = System::new(MgmtScript::bring_up_and_run(6000));
    system.run(7000);

    // LED blink progress.
    assert!(system.rtos_led_toggles() > 20);

    // Queue traffic (sender/receiver pair).
    let kernel = system.rtos.kernel();
    let queue = certify_rtos::QueueId(0);
    assert!(kernel.queues().sent_total(queue) > 10, "sender starved");
    assert!(
        kernel.queues().received_total(queue) > 10,
        "receiver starved"
    );

    // Serial heartbeats from compute tasks.
    let lines = system.serial_lines();
    let rtos_lines: Vec<&String> = lines
        .iter()
        .map(|(_, l)| l)
        .filter(|l| l.starts_with("[rtos]"))
        .collect();
    assert!(
        rtos_lines.iter().any(|l| l.contains("float")),
        "no float-task output: {rtos_lines:?}"
    );
    assert!(
        rtos_lines.iter().any(|l| l.contains("int")),
        "no integer-task output"
    );
    assert!(rtos_lines.iter().any(|l| l.contains("blink")));
}

#[test]
fn golden_run_classifies_correct_across_seeds() {
    for seed in 0..3 {
        let trial = Scenario::golden(2000).runner().run_trial(seed);
        assert_eq!(trial.outcome, Outcome::Correct, "seed {seed}");
    }
}

#[test]
fn handler_traffic_matches_the_papers_profiling() {
    let mut system = System::new(MgmtScript::bring_up_and_run(3000));
    system.run(4000);

    // The three candidates all fire; the non-root cell produces hvc
    // (console) and trap (GPIO) streams; the root cell produces hvc
    // (management) and trap (heartbeat) streams; irqs flow on both.
    for handler in HandlerKind::ALL {
        for cpu in [CpuId(0), CpuId(1)] {
            assert!(
                system.hv.call_count(handler, cpu) > 0,
                "{handler} silent on {cpu}"
            );
        }
    }
}

#[test]
fn serial_log_interleaves_all_sources() {
    let mut system = System::new(MgmtScript::bring_up_and_run(2500));
    system.run(3500);
    let lines = system.serial_lines();
    let seen = |prefix: &str| lines.iter().any(|(_, line)| line.starts_with(prefix));
    assert!(seen("[linux] ") && seen("[rtos] "));
}

#[test]
fn rtos_availability_is_high_in_golden_runs() {
    let mut system = System::new(MgmtScript::bring_up_and_run(5000));
    system.run(6000);
    let start = system.cell_start_step().expect("cell started");
    let end = system.machine.now();
    // RTOS lines per 256-step window over [start, end).
    let window = 256;
    let mut per_window = vec![0u64; (end - start).div_ceil(window) as usize];
    for line in system.machine.uart.lines_since(start) {
        if line.step < end && line.starts_with("[rtos] ") {
            per_window[((line.step - start) / window) as usize] += 1;
        }
    }
    assert!(
        per_window.iter().any(|&count| count > 0),
        "RTOS output blank"
    );
    let availability =
        per_window.iter().filter(|&&count| count > 0).count() as f64 / per_window.len() as f64;
    assert!(availability > 0.5, "availability only {availability:.2}");
}

#[test]
fn root_cell_keeps_uart_and_gpio_shared_fairly() {
    let mut system = System::new(MgmtScript::bring_up_and_run(2500));
    system.run(3500);
    // Both LEDs toggle: partitioned pins of the shared GPIO block.
    assert!(system.machine.gpio.toggle_count(memmap::LED_PIN) > 0);
    assert!(system.machine.gpio.toggle_count(memmap::ROOT_LED_PIN) > 0);
}

#[test]
fn classify_report_is_self_describing() {
    let mut system = System::new(MgmtScript::bring_up_and_run(1500));
    system.run(2000);
    let report = classify(&system);
    assert_eq!(report.outcome, Outcome::Correct);
    assert!(!report.notes.is_empty());
    assert!(report.serial_line_count > 0);
    assert_eq!(report.cell_state, Some(CellState::Running));
}
