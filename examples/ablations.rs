//! Ablations — the design-choice studies on the Figure-3 experiment
//! plus the paper's irqchip-exclusion rationale. Prints each
//! campaign's outcome distribution; asserts nothing (the A4 claim is
//! checked by `tests/experiments.rs`).
//!
//! * **A0 — trigger mode**: the paper's call-count trigger against a
//!   time trigger.
//! * **A1 — occurrence rate**: sweep the injection cadence around the
//!   paper's 1/100; the outcome distribution shifts with exposure.
//! * **A2 — register subset**: restrict the flip target pool to the
//!   argument registers vs. the pointer-live registers vs. all
//!   sixteen; pointer-live flips drive fault propagation.
//! * **A3 — fault models**: the future-work model family (double-bit,
//!   register-zero, register-random) against the paper's single-bit
//!   flip.
//! * **A4 — irqchip inclusion**: the paper excluded
//!   `irqchip_handle_irq()` because corrupting its only live parameter
//!   (the vector number) "default[s] to an IRQ error, which is
//!   completely predictable"; injecting into it confirms the claim.
//!
//! ```sh
//! cargo run --release --example ablations
//! ```

use certify_arch::{CpuId, Reg};
use certify_core::campaign::{Campaign, Scenario};
use certify_core::{CampaignStats, FaultModel, InjectionSpec, Intensity, NullSink, Outcome, Paced};
use certify_guest_linux::MgmtScript;
use certify_hypervisor::HandlerKind;

const TRIALS: usize = 60;
const SEED: u64 = 0xD5_2022;

fn banner(title: &str) {
    println!("\n==== {title} ====");
}

fn run_and_print(scenario: Scenario) -> CampaignStats {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let (stats, _) =
        Campaign::new(scenario, TRIALS, SEED).execute(.., workers, &mut NullSink, None);
    println!("{stats}");
    stats
}

fn scenario_with_spec(name: &str, spec: InjectionSpec) -> Scenario {
    let mut scenario = Scenario::e3_fig3();
    scenario.name = name.to_string();
    scenario.spec = Some(spec);
    scenario
}

fn a0_trigger_mode() {
    banner("A0: call-count trigger (the paper's) vs time trigger");
    run_and_print(scenario_with_spec(
        "e3-trigger-calls",
        InjectionSpec::e3_nonroot_trap_medium(),
    ));
    run_and_print(scenario_with_spec(
        "e3-trigger-time",
        InjectionSpec::e3_nonroot_trap_medium().with_time_trigger(3200),
    ));
}

fn a1_rate_sweep() {
    banner("A1: occurrence-rate sweep on the Figure-3 experiment");
    for rate in [25u64, 50, 100, 200] {
        let spec = InjectionSpec::e3_nonroot_trap_medium().with_rate(rate);
        let mut scenario = scenario_with_spec(&format!("e3-rate-1/{rate}"), spec);
        // Scale the test duration with the cadence so every trial sees
        // at least one injection (the trap stream runs at roughly one
        // call per 16 steps).
        scenario.steps = rate * 32 + 1600;
        run_and_print(scenario);
    }
}

fn a2_register_subsets() {
    banner("A2: register-subset sweep (medium intensity)");
    let subsets: [(&str, Vec<Reg>); 3] = [
        ("argument r0-r3", Reg::ARGUMENT.to_vec()),
        (
            "pointer-live r3,r5,r7,r11,r13",
            certify_hypervisor::regconv::POINTER_LIVE.to_vec(),
        ),
        ("all sixteen", Reg::ALL.to_vec()),
    ];
    for (label, pool) in subsets {
        let spec =
            InjectionSpec::e3_nonroot_trap_medium().with_model(FaultModel::SingleBitFlip { pool });
        println!("-- pool: {label}");
        run_and_print(scenario_with_spec(&format!("e3-regs-{label}"), spec));
    }
}

fn a3_fault_models() {
    banner("A3: fault-model family (future-work models)");
    let models = [
        FaultModel::single_bit_flip(),
        FaultModel::DoubleBitFlip {
            pool: Reg::ALL.to_vec(),
        },
        FaultModel::RegisterZero {
            pool: Reg::ALL.to_vec(),
        },
        FaultModel::RegisterRandom {
            pool: Reg::ALL.to_vec(),
        },
    ];
    for model in models {
        let name = format!("e3-model-{}", model.name());
        let spec = InjectionSpec::e3_nonroot_trap_medium().with_model(model);
        run_and_print(scenario_with_spec(&name, spec));
    }
}

fn a4_irqchip_inclusion() {
    banner("A4: injecting into irqchip_handle_irq (the excluded handler)");
    let spec = InjectionSpec::new(
        Intensity::Medium,
        [HandlerKind::IrqchipHandleIrq],
        Some(CpuId(1)),
    )
    .with_rate(20);
    let stats = run_and_print(Scenario {
        name: "a4-irqchip".into(),
        script: MgmtScript::bring_up_and_run(u64::MAX / 2),
        spec: Some(spec),
        mem_spec: None,
        steps: 4500,
        rtos_heartbeat: false,
    });
    println!(
        "irqchip injections benign in {:.1}% of trials (paper: 'completely predictable')",
        stats.fraction(Outcome::Correct) * 100.0
    );
}

fn main() {
    a0_trigger_mode();
    a1_rate_sweep();
    a2_register_subsets();
    a3_fault_models();
    a4_irqchip_inclusion();
}
