//! Property-based integration tests over the full stack.

use certify_arch::CpuId;
use certify_board::memmap;
use certify_core::campaign::Scenario;
use certify_core::{classify, InjectionSpec, Intensity, Outcome, System};
use certify_guest_linux::MgmtScript;
use certify_hypervisor::hypercall as hc;
use certify_hypervisor::{HandlerKind, Hypervisor, SystemConfig};
use proptest::prelude::*;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any single-bit corruption of the staged system configuration
    /// makes `HYPERVISOR_ENABLE` fail cleanly: the hypervisor stays
    /// disabled and a retry with the pristine blob succeeds (no
    /// residual state).
    #[test]
    fn corrupted_config_blob_never_enables(byte_frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut machine = certify_board::Machine::new_banana_pi();
        machine.cpu_mut(CpuId(0)).power_on();
        let platform = SystemConfig::banana_pi_demo();
        let mut hv = Hypervisor::new(platform.clone());
        let addr = memmap::ROOT_RAM_BASE + 0x0100_0000;
        let blob = platform.serialize();
        hv.stage_blob(&mut machine, addr, &blob);

        let byte = ((blob.len() as f64 - 1.0) * byte_frac) as u32;
        let original = machine.ram().read8(addr + 4 + byte).unwrap();
        machine.ram_mut().write8(addr + 4 + byte, original ^ (1 << bit)).unwrap();

        let ret = hv.handle_hvc(&mut machine, CpuId(0), hc::HVC_HYPERVISOR_ENABLE, addr, 0);
        prop_assert!(ret < 0, "corrupted blob accepted");
        prop_assert!(!hv.is_enabled());

        machine.ram_mut().write8(addr + 4 + byte, original).unwrap();
        let ret = hv.handle_hvc(&mut machine, CpuId(0), hc::HVC_HYPERVISOR_ENABLE, addr, 0);
        prop_assert_eq!(ret, 0);
    }

    /// The classifier is total and deterministic: any seeded E3 trial
    /// produces exactly one outcome, and re-running the same seed
    /// produces the same outcome.
    #[test]
    fn classification_is_deterministic(seed in 0u64..5000) {
        let a = Scenario::e3_fig3().run_trial(seed);
        let b = Scenario::e3_fig3().run_trial(seed);
        prop_assert_eq!(a.outcome, b.outcome);
        prop_assert_eq!(a.report.injections, b.report.injections);
    }

    /// Whatever the injection spec, the system never wedges: a run
    /// always completes its step budget and classification always
    /// returns.
    #[test]
    fn system_never_wedges_under_random_specs(
        seed in 0u64..1000,
        rate in 1u64..40,
        target_trap in any::<bool>(),
        cpu in 0u32..2,
    ) {
        let handler = if target_trap {
            HandlerKind::ArchHandleTrap
        } else {
            HandlerKind::ArchHandleHvc
        };
        let spec = InjectionSpec::new(
            Intensity::Medium,
            [handler],
            Some(CpuId(cpu)),
        ).with_rate(rate);
        let mut system = System::new(MgmtScript::bring_up_and_run(800));
        system.install_injector(spec, seed);
        system.run(1500);
        prop_assert_eq!(system.steps_run(), 1500);
        let _ = classify(&system);
    }

    /// Fault isolation invariant: injections filtered to CPU 1 at
    /// *high* intensity (argument registers only) never take down the
    /// root cell — every outcome is one of {Correct, CpuPark,
    /// InconsistentState, InvalidArguments}.
    #[test]
    fn high_intensity_cpu1_never_panics_the_system(seed in 0u64..300) {
        let trial = Scenario::e2_nonroot_high().run_trial(seed);
        prop_assert_ne!(trial.outcome, Outcome::PanicPark);
    }

    /// Golden runs are injection-free and always classified Correct,
    /// independent of run length.
    #[test]
    fn golden_runs_always_correct(extra in 0u64..1500) {
        let mut system = System::new(MgmtScript::bring_up_and_run(1200 + extra));
        system.run(1800 + extra);
        let report = classify(&system);
        prop_assert_eq!(report.outcome, Outcome::Correct);
        prop_assert!(report.injections.is_empty());
    }

    /// Register single/double bit-flip models are self-inverse:
    /// replaying the model with the same RNG state flips the same
    /// bits, restoring every register.
    #[test]
    fn register_bit_flips_are_self_inverse(seed in 0u64..5000, double in any::<bool>(), fill in any::<u32>()) {
        use certify_arch::{Reg, RegisterFile};
        use certify_core::FaultModel;
        let model = if double {
            FaultModel::DoubleBitFlip { pool: Reg::ALL.to_vec() }
        } else {
            FaultModel::single_bit_flip()
        };
        let mut regs = RegisterFile::new();
        for r in Reg::ALL {
            regs.write(r, fill);
        }
        let pristine = regs.clone();
        let first = model.apply(&mut regs, &mut rand::rngs::StdRng::seed_from_u64(seed));
        prop_assert!(!first.is_empty());
        prop_assert_ne!(&regs, &pristine, "flip changed nothing");
        let second = model.apply(&mut regs, &mut rand::rngs::StdRng::seed_from_u64(seed));
        prop_assert_eq!(regs, pristine, "second flip did not restore");
        prop_assert_eq!(
            first.iter().map(|f| (f.reg, f.bit)).collect::<Vec<_>>(),
            second.iter().map(|f| (f.reg, f.bit)).collect::<Vec<_>>()
        );
    }

    /// Memory single/double bit-flip models are self-inverse on the
    /// corrupted word, for RAM words and stage-2 descriptors alike.
    #[test]
    fn memory_bit_flips_are_self_inverse(seed in 0u64..5000, double in any::<bool>(), fill in any::<u32>(), word_frac in 0.0f64..1.0) {
        use certify_core::memfault::{MemFaultModel, MemRegionKind};
        let model = if double {
            MemFaultModel::DoubleBitFlip
        } else {
            MemFaultModel::SingleBitFlip
        };
        let mut machine = certify_board::Machine::new_banana_pi();
        let mut hv = Hypervisor::new(SystemConfig::banana_pi_demo());
        let (base, size) = MemRegionKind::NonRootRam.span();
        let addr = base + 4 * ((f64::from(size / 4 - 1) * word_frac) as u32);
        machine.ram_mut().write32(addr, fill).unwrap();

        let first = model
            .apply(MemRegionKind::NonRootRam, addr, &mut machine, &mut hv,
                   &mut rand::rngs::StdRng::seed_from_u64(seed))
            .unwrap();
        prop_assert_ne!(machine.ram().read32(addr).unwrap(), fill);
        let second = model
            .apply(MemRegionKind::NonRootRam, addr, &mut machine, &mut hv,
                   &mut rand::rngs::StdRng::seed_from_u64(seed))
            .unwrap();
        prop_assert_eq!(machine.ram().read32(addr).unwrap(), fill, "second flip did not restore");
        prop_assert_eq!(first[0].after, second[0].before);
        prop_assert_eq!(first[0].before, second[0].after);
    }

    /// Memory injection never panics a run, whatever the sampled
    /// region — including windows deliberately covering unmapped
    /// space (those record skips instead).
    #[test]
    fn memory_injection_never_wedges(seed in 0u64..500, rate in 5u64..60, hole in any::<bool>()) {
        use certify_core::memfault::{MemFaultModel, MemRegionKind, MemTarget};
        use certify_core::MemorySpec;
        let target = if hole {
            MemTarget::new([
                MemRegionKind::NonRootRam,
                MemRegionKind::Custom { base: 0x1000_0000, size: 0x1000 },
            ])
        } else {
            MemTarget::all()
        };
        let spec = MemorySpec::new(
            MemFaultModel::SingleBitFlip,
            target,
            [HandlerKind::ArchHandleTrap, HandlerKind::ArchHandleHvc],
            None,
        ).with_rate(rate);
        let mut system = System::new(MgmtScript::bring_up_and_run(800));
        system.install_mem_injector(spec, seed);
        system.run(1500);
        prop_assert_eq!(system.steps_run(), 1500);
        let _ = classify(&system);
    }
}

/// One generated injection cadence: rate, phase jitter, up to two
/// step windows, an optional time trigger (register specs only) and a
/// cap of none, zero or one injection.
#[derive(Debug, Clone, Copy)]
struct Cadence {
    rate: u64,
    jitter: bool,
    windows: [Option<(u64, u64)>; 2],
    time_trigger: Option<u64>,
    max_injections: Option<u64>,
}

fn window() -> impl Strategy<Value = Option<(u64, u64)>> {
    (0u64..1600, 1u64..700, any::<bool>())
        .prop_map(|(start, len, on)| on.then_some((start, start + len)))
}

fn cadence() -> impl Strategy<Value = Cadence> {
    (
        1u64..201,
        any::<bool>(),
        (window(), window()),
        (any::<bool>(), 1u64..400),
        0u8..3,
    )
        .prop_map(|(rate, jitter, (w0, w1), (timed, period), cap)| Cadence {
            rate,
            jitter,
            windows: [w0, w1],
            time_trigger: timed.then_some(period),
            max_injections: [None, Some(0), Some(1)][cap as usize],
        })
}

fn windows(cadence: &Cadence) -> Vec<certify_core::InjectionWindow> {
    cadence
        .windows
        .iter()
        .flatten()
        .map(|&(start, end)| certify_core::InjectionWindow::new(start, end))
        .collect()
}

/// Calls to `mask`'s handlers (bit i = `HandlerKind::ALL[i]`, at least
/// one set) from `cpu` (2 = any CPU).
fn call_stream(mask: u8, cpu: u32) -> (Vec<HandlerKind>, Option<CpuId>) {
    let handlers = HandlerKind::ALL
        .into_iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, h)| h)
        .collect();
    (handlers, (cpu < 2).then_some(CpuId(cpu)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Soundness of the fork-step rule. For random cadences of either
    /// injector kind (or both) on a short bring-up, every seed's
    /// trial forked from the shared prefix equals the same trial run
    /// from step 0 — untraced and traced — and no seed's first
    /// injection or memory attempt lands at or before the fork step.
    #[test]
    fn forked_trials_match_scratch_for_random_cadences(
        (reg, mem) in (cadence(), cadence()),
        (kind, reg_mask, mem_mask, reg_cpu, mem_cpu) in (0u8..3, 1u8..8, 1u8..8, 0u32..3, 0u32..3),
        (steps, base_seed, model) in (300u64..1800, 0u64..1_000_000, 0usize..6),
    ) {
        use certify_core::memfault::{MemFaultModel, MemTarget};
        use certify_core::{Campaign, CollectSink, DumpPolicy, MemorySpec, TraceConfig};

        let spec = (kind != 1).then(|| {
            let (handlers, cpu) = call_stream(reg_mask, reg_cpu);
            let mut spec = InjectionSpec::new(Intensity::Medium, handlers, cpu)
                .with_rate(reg.rate)
                .with_windows(windows(&reg));
            spec.phase_jitter = reg.jitter;
            spec.time_trigger = reg.time_trigger;
            spec.max_injections = reg.max_injections;
            spec
        });
        let mem_spec = (kind != 0).then(|| {
            let (handlers, cpu) = call_stream(mem_mask, mem_cpu);
            let mut spec = MemorySpec::new(MemFaultModel::e6_models()[model].clone(), MemTarget::e6(), handlers, cpu)
                .with_rate(mem.rate)
                .with_windows(windows(&mem));
            spec.phase_jitter = mem.jitter;
            spec.max_injections = mem.max_injections;
            spec
        });
        let scenario = Scenario {
            name: "fork-soundness".into(),
            script: MgmtScript::bring_up_and_run(steps),
            spec,
            mem_spec,
            steps,
            rtos_heartbeat: model % 2 == 0,
        };
        let runner = scenario.runner();
        let fork_step = runner.fork_step();
        prop_assert!(fork_step <= steps);

        let campaign = Campaign::new(scenario, 3, base_seed);
        let forked = campaign.run().trials;
        let traced = campaign.with_trace(TraceConfig::new().with_capacity(512).with_policy(DumpPolicy::all_outcomes()));
        let mut sink = CollectSink::new();
        traced.run_streamed(&mut sink);
        let (traced_trials, dumps) = sink.into_parts();
        prop_assert_eq!(&traced_trials, &forked);
        for (trial, (_, dump)) in forked.iter().zip(&dumps) {
            prop_assert_eq!(trial, &runner.run_trial(trial.seed), "seed {}", trial.seed);
            let (_, scratch_dump) = runner.run_trial_traced(trial.seed, Some(traced.trace().unwrap()));
            prop_assert_eq!(Some(dump), scratch_dump.as_ref(), "seed {} dump", trial.seed);
            let report = &trial.report;
            let first = report
                .injections
                .iter()
                .map(|r| r.step)
                .chain(report.mem_injections.iter().map(|r| r.step))
                .min();
            if let Some(step) = first {
                prop_assert!(step > fork_step, "seed {}: injection at step {step}, fork step {fork_step}", trial.seed);
            }
        }
    }
}
