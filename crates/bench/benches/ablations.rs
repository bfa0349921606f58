//! Ablations — the design-choice studies DESIGN.md calls out (D1–D4)
//! plus the paper's irqchip-exclusion rationale.
//!
//! * **A1 / D3 — occurrence rate**: sweep the injection cadence around
//!   the paper's 1/100; the outcome distribution shifts with exposure.
//! * **A2 / D2 — register subset**: restrict the flip target pool to
//!   the argument registers vs. the pointer-live registers vs. all
//!   sixteen; pointer-live flips drive fault propagation.
//! * **A3 / D4 — fault models**: the future-work model family
//!   (double-bit, register-zero, register-random) against the paper's
//!   single-bit flip.
//! * **A4 — irqchip inclusion**: the paper excluded
//!   `irqchip_handle_irq()` because corrupting its only live parameter
//!   (the vector number) "default[s] to an IRQ error, which is
//!   completely predictable"; injecting into it confirms the claim.
//!
//! Regenerate with `cargo bench -p certify_bench --bench ablations`.

use certify_arch::{CpuId, Reg};
use certify_bench::{banner, run_and_print, BASE_SEED};
use certify_core::campaign::{Campaign, Scenario};
use certify_core::{FaultModel, InjectionSpec, Intensity, Outcome, Paced};
use certify_guest_linux::MgmtScript;
use certify_hypervisor::HandlerKind;
use criterion::{black_box, Criterion};

const TRIALS: usize = 60;

fn scenario_with_spec(name: &str, spec: InjectionSpec) -> Scenario {
    let mut scenario = Scenario::e3_fig3();
    scenario.name = name.to_string();
    scenario.spec = Some(spec);
    scenario
}

fn a0_trigger_mode() {
    banner("A0 (D1): call-count trigger (the paper's) vs time trigger");
    let call_based =
        scenario_with_spec("e3-trigger-calls", InjectionSpec::e3_nonroot_trap_medium());
    run_and_print(call_based, TRIALS);
    let time_based = scenario_with_spec(
        "e3-trigger-time",
        InjectionSpec::e3_nonroot_trap_medium().with_time_trigger(3200),
    );
    run_and_print(time_based, TRIALS);
}

fn a1_rate_sweep() {
    banner("A1 (D3): occurrence-rate sweep on the Figure-3 experiment");
    for rate in [25u64, 50, 100, 200] {
        let spec = InjectionSpec::e3_nonroot_trap_medium().with_rate(rate);
        let mut scenario = scenario_with_spec(&format!("e3-rate-1/{rate}"), spec);
        // Scale the test duration with the cadence so every trial sees
        // at least one injection (the trap stream runs at roughly one
        // call per 16 steps).
        scenario.steps = rate * 32 + 1600;
        run_and_print(scenario, TRIALS);
    }
}

fn a2_register_subsets() {
    banner("A2 (D2): register-subset sweep (medium intensity)");
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
        let scenario = scenario_with_spec(&format!("e3-regs-{label}"), spec);
        println!("-- pool: {label}");
        run_and_print(scenario, TRIALS);
    }
}

fn a3_fault_models() {
    banner("A3 (D4): fault-model family (future-work models)");
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
        let name = model.name().to_string();
        let spec = InjectionSpec::e3_nonroot_trap_medium().with_model(model);
        let scenario = scenario_with_spec(&format!("e3-model-{name}"), spec);
        run_and_print(scenario, TRIALS);
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
    let scenario = Scenario {
        name: "a4-irqchip".into(),
        script: MgmtScript::bring_up_and_run(u64::MAX / 2),
        spec: Some(spec),
        mem_spec: None,
        steps: 4500,
        rtos_heartbeat: false,
    };
    let result = Campaign::new(scenario, TRIALS, BASE_SEED).run_parallel(8);
    println!("{result}");
    // The paper's rationale: corrupting the vector number is
    // completely predictable — an IRQ error, never an escalation.
    let benign = result.stats().fraction(Outcome::Correct);
    println!(
        "irqchip injections benign in {:.1}% of trials (paper: 'completely predictable')\n",
        benign * 100.0
    );
    assert!(
        benign > 0.9,
        "irqchip injections unexpectedly escalated: {result}"
    );
}

fn main() {
    a0_trigger_mode();
    a1_rate_sweep();
    a2_register_subsets();
    a3_fault_models();
    a4_irqchip_inclusion();

    let mut criterion = Criterion::default().configure_from_args().sample_size(10);
    let runner = scenario_with_spec(
        "bench-register-random",
        InjectionSpec::e3_nonroot_trap_medium().with_model(FaultModel::RegisterRandom {
            pool: Reg::ALL.to_vec(),
        }),
    )
    .runner();
    criterion.bench_function("ablation_trial_register_random", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(runner.run_trial(seed))
        });
    });
    criterion.final_summary();
}
