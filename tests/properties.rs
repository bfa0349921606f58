//! Property-based integration tests over the full stack.

use certify_arch::CpuId;
use certify_board::memmap;
use certify_core::campaign::Scenario;
use certify_core::{
    classify, Cadence, InjectionSpec, InjectionWindow, Intensity, Outcome, Paced, System,
};
use certify_guest_linux::MgmtScript;
use certify_hypervisor::hypercall as hc;
use certify_hypervisor::{HandlerKind, Hypervisor, SystemConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
        let a = Scenario::e3_fig3().runner().run_trial(seed);
        let b = Scenario::e3_fig3().runner().run_trial(seed);
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
        let trial = Scenario::e2_nonroot_high().runner().run_trial(seed);
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
struct CadenceKnobs {
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

fn cadence_knobs() -> impl Strategy<Value = CadenceKnobs> {
    (
        1u64..201,
        any::<bool>(),
        (window(), window()),
        (any::<bool>(), 1u64..400),
        0u8..3,
    )
        .prop_map(
            |(rate, jitter, (w0, w1), (timed, period), cap)| CadenceKnobs {
                rate,
                jitter,
                windows: [w0, w1],
                time_trigger: timed.then_some(period),
                max_injections: [None, Some(0), Some(1)][cap as usize],
            },
        )
}

/// Calls to `mask`'s handlers (bit i = `HandlerKind::ALL[i]`, at least
/// one set) from `cpu` (2 = any CPU), paced by `knobs`.
fn cadence(knobs: &CadenceKnobs, mask: u8, cpu: u32) -> Cadence {
    let handlers = HandlerKind::ALL
        .into_iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, h)| h);
    let windows = knobs
        .windows
        .iter()
        .flatten()
        .map(|&(start, end)| InjectionWindow::new(start, end));
    let mut cadence =
        Cadence::new(handlers, (cpu < 2).then_some(CpuId(cpu)), knobs.rate).with_windows(windows);
    cadence.phase_jitter = knobs.jitter;
    cadence.max_injections = knobs.max_injections;
    cadence
}

/// The seeded phase draw both injectors made before `CadenceCounter`,
/// shared by the two reference counters.
fn reference_phase(cadence: &Cadence, rng: &mut StdRng) -> u64 {
    if cadence.phase_jitter {
        rng.gen_range(0..cadence.rate)
    } else {
        0
    }
}

/// Reference model: the register injector's counter before the shared
/// `CadenceCounter`, copied from its hook. It counts a phase-shifted
/// call number, stops counting at the cap and records that number.
struct RegisterReference {
    cadence: Cadence,
    time_trigger: Option<u64>,
    filtered_calls: u64,
    injections_done: u64,
    next_deadline: u64,
}

impl RegisterReference {
    fn new(cadence: &Cadence, time_trigger: Option<u64>, rng: &mut StdRng) -> RegisterReference {
        RegisterReference {
            cadence: cadence.clone(),
            time_trigger,
            filtered_calls: reference_phase(cadence, rng),
            injections_done: 0,
            next_deadline: 0,
        }
    }

    fn prime(&mut self, calls: u64) {
        self.filtered_calls += calls;
    }

    /// One matching call at `step`; `applies` says whether the fault
    /// model corrupted anything. Returns the recorded call number.
    fn on_call(&mut self, step: u64, applies: &mut dyn FnMut() -> bool) -> Option<u64> {
        if let Some(max) = self.cadence.max_injections {
            if self.injections_done >= max {
                return None;
            }
        }
        self.filtered_calls += 1;
        let windows = &self.cadence.windows;
        if !(windows.is_empty() || windows.iter().any(|w| w.contains(step))) {
            return None;
        }
        match self.time_trigger {
            Some(period) => {
                if step < self.next_deadline {
                    return None;
                }
                self.next_deadline = step + period;
            }
            None => {
                if !self.filtered_calls.is_multiple_of(self.cadence.rate) {
                    return None;
                }
            }
        }
        if !applies() {
            return None;
        }
        self.injections_done += 1;
        Some(self.filtered_calls)
    }
}

/// Reference model: the memory injector's `next_fire` loop before the
/// shared `CadenceCounter`, copied from its per-step poll. Only
/// applied injections count toward the cap.
struct MemoryReference {
    cadence: Cadence,
    next_fire: u64,
    injections_done: u64,
}

impl MemoryReference {
    fn new(cadence: &Cadence, rng: &mut StdRng) -> MemoryReference {
        MemoryReference {
            cadence: cadence.clone(),
            next_fire: cadence.rate - reference_phase(cadence, rng),
            injections_done: 0,
        }
    }

    fn prime(&mut self, total: u64) {
        if total >= self.next_fire {
            let crossings = (total - self.next_fire) / self.cadence.rate + 1;
            self.next_fire += crossings * self.cadence.rate;
        }
    }

    /// The poll at `step`, with `total` matching calls made so far.
    /// Pushes `(step, call, applied)` per attempt.
    fn on_step(
        &mut self,
        step: u64,
        total: u64,
        applies: &mut dyn FnMut() -> bool,
        out: &mut Vec<(u64, u64, bool)>,
    ) {
        while total >= self.next_fire {
            let trigger = self.next_fire;
            self.next_fire += self.cadence.rate;
            if let Some(max) = self.cadence.max_injections {
                if self.injections_done >= max {
                    return;
                }
            }
            let windows = &self.cadence.windows;
            if !(windows.is_empty() || windows.iter().any(|w| w.contains(step))) {
                continue;
            }
            let applied = applies();
            if applied {
                self.injections_done += 1;
            }
            out.push((step, trigger, applied));
        }
    }
}

/// A generated handler-call stream: `(step, handler, cpu)` with
/// non-decreasing steps, several calls per step allowed.
fn call_stream() -> impl Strategy<Value = Vec<(u64, HandlerKind, CpuId)>> {
    proptest::collection::vec((0u64..3, 0usize..3, 0u32..2), 0..2500).prop_map(|raw| {
        let mut step = 0;
        raw.into_iter()
            .map(|(gap, handler, cpu)| {
                step += gap;
                (step, HandlerKind::ALL[handler], CpuId(cpu))
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The shared `CadenceCounter`, driven as each injector drives it,
    /// fires on exactly the calls the two reference counting loops
    /// fired on, and records the same call numbers: random cadences,
    /// random call streams, random apply failures (a register fault
    /// that corrupts nothing, a skipped memory injection), and a
    /// random prefix primed instead of watched.
    #[test]
    fn cadence_counter_matches_the_reference_counting_loops(
        knobs in cadence_knobs(),
        (mask, cpu, seed) in (1u8..8, 0u32..3, any::<u64>()),
        calls in call_stream(),
        (pattern, fork_step) in (proptest::collection::vec(any::<bool>(), 1..8), 0u64..1200),
    ) {
        use certify_core::CadenceCounter;

        let cadence = cadence(&knobs, mask, cpu);
        let time_trigger = knobs.time_trigger;
        let rngs = || (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let (mut reference_rng, mut rng) = rngs();
        let mut reference = RegisterReference::new(&cadence, time_trigger, &mut reference_rng);
        let mut counter = CadenceCounter::new(&cadence, &mut rng);
        prop_assert_eq!(reference_rng.gen::<u64>(), rng.gen::<u64>(), "phase draws");
        let (mut reference_rng, mut rng) = rngs();
        let mut mem_reference = MemoryReference::new(&cadence, &mut reference_rng);
        let mut mem_counter = CadenceCounter::new(&cadence, &mut rng);

        // The calls before the fork step are primed, not watched.
        let matching = |&(_, handler, cpu): &(u64, HandlerKind, CpuId)| {
            cadence.targets.contains(&handler) && cadence.cpu_filter.is_none_or(|c| c == cpu)
        };
        let (prefix, watched): (Vec<_>, Vec<_>) = calls.iter().partition(|c| c.0 < fork_step);
        let primed = prefix.into_iter().filter(|c| matching(c)).count() as u64;
        reference.prime(primed);
        counter.prime(primed);
        mem_reference.prime(primed);
        mem_counter.prime(primed);

        // Register: call by call, as `Injector`'s hook drives it.
        let (mut fired, mut reference_fired) = (Vec::new(), Vec::new());
        let (mut applies, mut reference_applies) = (outcomes(&pattern), outcomes(&pattern));
        let mut next_deadline = 0;
        for &(step, handler, cpu) in &watched {
            prop_assert_eq!(counter.matches(handler, cpu), matching(&(step, handler, cpu)));
            if !matching(&(step, handler, cpu)) {
                continue;
            }
            if let Some(call) = reference.on_call(step, &mut reference_applies) {
                reference_fired.push((step, call));
            }
            if counter.capped() {
                continue;
            }
            let due = counter.count_call();
            if !cadence.armed(step) {
                continue;
            }
            match time_trigger {
                Some(_) if step < next_deadline => continue,
                Some(period) => next_deadline = step + period,
                None if due.is_none() => continue,
                None => {}
            }
            if applies() {
                counter.injected();
                fired.push((step, counter.phased()));
            }
        }
        prop_assert_eq!(&fired, &reference_fired);
        prop_assert_eq!(counter.phased(), reference.filtered_calls, "the count stops at the cap");

        // Memory: once per step, as `System` polls `MemInjector`, over
        // the running total of matching calls.
        let (mut fired, mut reference_fired) = (Vec::new(), Vec::new());
        let (mut applies, mut reference_applies) = (outcomes(&pattern), outcomes(&pattern));
        let mut stream = watched.into_iter().filter(|c| matching(c)).peekable();
        let mut total = primed;
        for step in fork_step..=calls.last().map_or(0, |c| c.0) {
            while stream.next_if(|c| c.0 == step).is_some() {
                total += 1;
            }
            mem_reference.on_step(step, total, &mut reference_applies, &mut reference_fired);
            while let Some(call) = mem_counter.advance_to(total) {
                if !cadence.armed(step) {
                    continue;
                }
                let applied = applies();
                if applied {
                    mem_counter.injected();
                }
                fired.push((step, call, applied));
            }
        }
        prop_assert_eq!(&fired, &reference_fired);
        let reference_capped = knobs
            .max_injections
            .is_some_and(|max| mem_reference.injections_done >= max);
        prop_assert_eq!(mem_counter.capped(), reference_capped, "only applied injections count");
    }
}

/// Apply outcomes for successive injection attempts, cycling through
/// `pattern` (`false` = the register fault corrupted nothing, or the
/// memory injection was skipped).
fn outcomes(pattern: &[bool]) -> impl FnMut() -> bool + '_ {
    let mut attempt = 0;
    move || {
        attempt += 1;
        pattern[(attempt - 1) % pattern.len()]
    }
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
        (reg, mem) in (cadence_knobs(), cadence_knobs()),
        (kind, reg_mask, mem_mask, reg_cpu, mem_cpu) in (0u8..3, 1u8..8, 1u8..8, 0u32..3, 0u32..3),
        (steps, base_seed, model) in (300u64..1800, 0u64..1_000_000, 0usize..6),
    ) {
        use certify_core::memfault::{MemFaultModel, MemTarget};
        use certify_core::{Campaign, CollectSink, DumpPolicy, MemorySpec, TraceConfig};

        let spec = (kind != 1).then(|| InjectionSpec {
            cadence: cadence(&reg, reg_mask, reg_cpu),
            model: Intensity::Medium.model(),
            time_trigger: reg.time_trigger,
        });
        let mem_spec = (kind != 0).then(|| MemorySpec {
            cadence: cadence(&mem, mem_mask, mem_cpu),
            model: MemFaultModel::e6_models()[model].clone(),
            target: MemTarget::e6(),
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
        let mut sink = CollectSink::new();
        campaign.execute(.., 1, &mut sink, None);
        let forked = sink.into_trials();
        let traced = campaign.with_trace(TraceConfig::new().with_capacity(512).with_policy(DumpPolicy::all_outcomes()));
        let mut sink = CollectSink::new();
        traced.execute(.., 1, &mut sink, None);
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

/// The standing harsh-spec robustness sweep: every register fault
/// model at rates 1, 3 and 10, and every E6 memory model against every
/// region at rate 1, each counting calls to all three handlers from
/// any CPU over the 4500-step E3 run. No seed may panic the simulator:
/// every trial completes its step budget and classifies. Release-only
/// (`cargo test --release --test properties -- --ignored`).
#[test]
#[ignore = "release-depth sweep; run with --release -- --ignored"]
fn harsh_specs_never_wedge_the_system() {
    use certify_arch::Reg;
    use certify_core::memfault::{MemFaultModel, MemRegionKind, MemTarget};
    use certify_core::{FaultModel, MemorySpec};

    const STEPS: u64 = 4500;
    const SEEDS: u64 = 12;
    let every_call = |rate| Cadence::new(HandlerKind::ALL, None, rate);
    let pool = Reg::ALL.to_vec();
    let register_models = [
        FaultModel::SingleBitFlip { pool: pool.clone() },
        FaultModel::multi_register_flip(),
        FaultModel::DoubleBitFlip { pool: pool.clone() },
        FaultModel::RegisterZero { pool: pool.clone() },
        FaultModel::RegisterRandom { pool },
    ];
    let mut trials: Vec<(Option<InjectionSpec>, Option<MemorySpec>)> = Vec::new();
    for model in &register_models {
        for rate in [1, 3, 10] {
            let spec = InjectionSpec {
                cadence: every_call(rate),
                model: model.clone(),
                time_trigger: None,
            };
            trials.push((Some(spec), None));
        }
    }
    for model in MemFaultModel::e6_models() {
        for region in MemRegionKind::ALL {
            let spec = MemorySpec {
                cadence: every_call(1),
                model: model.clone(),
                target: MemTarget::only(region),
            };
            trials.push((None, Some(spec)));
        }
    }

    let script = std::sync::Arc::new(Scenario::e3_fig3().script);
    for (spec, mem_spec) in &trials {
        for seed in 0..SEEDS {
            let mut system = System::new(std::sync::Arc::clone(&script));
            if let Some(spec) = spec {
                system.install_injector(spec.clone(), seed);
            }
            if let Some(mem_spec) = mem_spec {
                system.install_mem_injector(mem_spec.clone(), seed);
            }
            system.run(STEPS);
            assert_eq!(
                system.steps_run(),
                STEPS,
                "{spec:?} {mem_spec:?} seed {seed}"
            );
            let _ = classify(&system);
        }
    }
}
