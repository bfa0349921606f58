//! The memory-fault injector: fires [`crate::memfault::MemFaultModel`]s
//! on the same [`crate::Cadence`] as the register [`crate::Injector`].
//!
//! The register injector corrupts the live register context from
//! inside the handler hook; memory faults instead need the whole
//! machine (RAM, the victim cell's stage-2 table, the comm region), so
//! the memory injector is driven by the orchestrator once per
//! simulator step: it watches the hypervisor's per-handler call
//! counters for the spec's filtered call stream and applies one fault
//! every `rate`-th call — exactly the "once every given number of
//! calls to the target functions" trigger of the paper, retargeted at
//! memory.

use crate::memfault::{AppliedMemFault, MemFaultSkip};
use crate::spec::{CadenceCounter, MemorySpec};
use certify_board::Machine;
use certify_hypervisor::Hypervisor;
use certify_obs::trace::{TraceEvent, TraceKind, NO_CPU};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::sync::Arc;

/// One memory-injection attempt: the one corruption it applied or the
/// reason it was skipped (skips never panic a worker).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MemInjectionRecord {
    /// Simulator step of the attempt.
    pub step: u64,
    /// The due call's true position in the filtered stream, as
    /// [`CadenceCounter::advance_to`] returns it: the number of
    /// matching calls made up to and including it, phase jitter or
    /// not.
    pub filtered_call: u64,
    /// What [`crate::memfault::MemFaultModel::apply`] returned: the
    /// applied corruption, or why the attempt was skipped.
    pub outcome: Result<AppliedMemFault, MemFaultSkip>,
}

impl MemInjectionRecord {
    /// Whether the attempt actually corrupted something.
    pub fn applied(&self) -> bool {
        self.outcome.is_ok()
    }
}

impl fmt::Display for MemInjectionRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] mem call#{}:", self.step, self.filtered_call)?;
        match &self.outcome {
            Ok(fault) => write!(f, " {fault}"),
            Err(skip) => write!(f, " skipped ({skip})"),
        }
    }
}

/// The memory-fault injector. Owned by the [`crate::System`] it runs
/// in, records and all.
#[derive(Debug, Clone)]
pub struct MemInjector {
    spec: Arc<MemorySpec>,
    counter: CadenceCounter,
    rng: StdRng,
    records: Vec<MemInjectionRecord>,
}

impl MemInjector {
    /// Creates a memory injector for `spec`, seeded deterministically.
    /// The spec is taken via `Into<Arc<_>>` so campaign workers can
    /// share one allocation across thousands of trials.
    ///
    /// # Panics
    ///
    /// Panics if the spec's cadence has no targets or a zero rate.
    pub fn new(spec: impl Into<Arc<MemorySpec>>, seed: u64) -> MemInjector {
        let spec = spec.into();
        let mut rng = StdRng::seed_from_u64(seed);
        MemInjector {
            counter: CadenceCounter::new(&spec.cadence, &mut rng),
            spec,
            rng,
            records: Vec::new(),
        }
    }

    /// Every attempt so far, applied or skipped.
    pub fn records(&self) -> &[MemInjectionRecord] {
        &self.records
    }

    /// The cadence state.
    pub(crate) fn counter(&self) -> &CadenceCounter {
        &self.counter
    }

    /// Skips the cadence past the matching calls `hv` has already
    /// made, exactly as [`MemInjector::on_step`] passes unarmed due
    /// calls: installing into a system forked from a fault-free
    /// prefix then continues the cadence where a from-step-0 injector
    /// would be. A no-op on a fresh hypervisor.
    pub(crate) fn prime(&mut self, hv: &Hypervisor) {
        self.counter.prime(self.counter.calls_in(hv));
    }

    /// Called by the orchestrator once per simulator step, after the
    /// stack has advanced: fires (possibly several) pending memory
    /// injections against the machine and hypervisor state, recording
    /// every attempt (applied or skipped) into the hypervisor's flight
    /// recorder, if one is attached.
    pub fn on_step(&mut self, machine: &mut Machine, hv: &mut Hypervisor) {
        let total = self.counter.calls_in(hv);
        while let Some(call) = self.counter.advance_to(total) {
            if self.spec.cadence.armed(machine.now()) {
                self.attempt(call, machine, hv);
            }
        }
    }

    /// One injection attempt on due call number `call`, applied or
    /// recorded as skipped.
    fn attempt(&mut self, call: u64, machine: &mut Machine, hv: &mut Hypervisor) {
        let step = machine.now();
        let (region, addr) = self.spec.target.sample(&mut self.rng);
        // Unmapped addresses (or a missing victim cell) come back as a
        // recorded skip, never a panic.
        let outcome = self
            .spec
            .model
            .apply(region, addr, machine, hv, &mut self.rng);
        if outcome.is_ok() {
            self.counter.injected();
        }
        if hv.recorder().is_some() {
            // An applied record's argument is its fault count: one.
            let (kind, arg_a) = match outcome {
                Ok(_) => (TraceKind::MemInjectionApplied, 1),
                Err(_) => (TraceKind::MemInjectionSkipped, call),
            };
            hv.trace(TraceEvent {
                step,
                cpu: NO_CPU,
                kind,
                arg_a,
                arg_b: 0,
            });
        }
        self.records.push(MemInjectionRecord {
            step,
            filtered_call: call,
            outcome,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memfault::{MemFaultModel, MemRegionKind, MemTarget};
    use crate::spec::Paced;
    use certify_arch::CpuId;
    use certify_board::memmap;
    use certify_hypervisor::{HandlerKind, SystemConfig};

    fn bare() -> (Machine, Hypervisor) {
        let mut machine = Machine::new_banana_pi();
        machine.cpu_mut(CpuId(0)).power_on();
        (machine, Hypervisor::new(SystemConfig::banana_pi_demo()))
    }

    /// Drives `n` info hypercalls from CPU 0 (each bumps the
    /// `arch_handle_hvc` call counter).
    fn pump_calls(machine: &mut Machine, hv: &mut Hypervisor, n: u64) {
        for _ in 0..n {
            let _ = hv.handle_hvc(
                machine,
                CpuId(0),
                certify_hypervisor::hypercall::HVC_HYPERVISOR_GET_INFO,
                0,
                0,
            );
        }
    }

    fn spec_on_hvc(model: MemFaultModel, target: MemTarget) -> MemorySpec {
        MemorySpec::new(model, target, [HandlerKind::ArchHandleHvc], Some(CpuId(0)))
    }

    #[test]
    fn fires_every_rate_calls() {
        let (mut machine, mut hv) = bare();
        let spec = spec_on_hvc(
            MemFaultModel::SingleBitFlip,
            MemTarget::only(MemRegionKind::NonRootRam),
        )
        .with_rate(10);
        let mut injector = MemInjector::new(spec, 1);
        pump_calls(&mut machine, &mut hv, 35);
        injector.on_step(&mut machine, &mut hv);
        let records = injector.records();
        assert_eq!(records.len(), 3, "calls 10, 20, 30");
        assert!(records.iter().all(MemInjectionRecord::applied));
        assert_eq!(records[0].filtered_call, 10);
        assert_eq!(records[2].filtered_call, 30);
    }

    #[test]
    fn cadence_survives_sparse_observation() {
        // The injector only observes the counters once per step; a
        // burst of calls between steps still yields one injection per
        // rate crossing.
        let (mut machine, mut hv) = bare();
        let spec = spec_on_hvc(
            MemFaultModel::SingleBitFlip,
            MemTarget::only(MemRegionKind::Ivshmem),
        )
        .with_rate(5);
        let mut injector = MemInjector::new(spec, 2);
        pump_calls(&mut machine, &mut hv, 23);
        injector.on_step(&mut machine, &mut hv);
        assert_eq!(injector.records().len(), 4, "due at 5, 10, 15, 20");
    }

    #[test]
    fn max_injections_caps_applied_faults() {
        let (mut machine, mut hv) = bare();
        let spec = spec_on_hvc(
            MemFaultModel::stuck_at_zero(),
            MemTarget::only(MemRegionKind::NonRootRam),
        )
        .with_rate(2)
        .with_max_injections(3);
        let mut injector = MemInjector::new(spec, 3);
        pump_calls(&mut machine, &mut hv, 100);
        injector.on_step(&mut machine, &mut hv);
        let applied = injector.records().iter().filter(|r| r.applied());
        assert_eq!(applied.count(), 3);
    }

    #[test]
    fn out_of_range_addresses_are_recorded_as_skips() {
        let (mut machine, mut hv) = bare();
        let spec = spec_on_hvc(
            MemFaultModel::SingleBitFlip,
            MemTarget::only(MemRegionKind::Custom {
                base: 0x1000_0000, // unmapped hole below DRAM
                size: 0x1000,
            }),
        )
        .with_rate(1);
        let mut injector = MemInjector::new(spec, 4);
        pump_calls(&mut machine, &mut hv, 3);
        injector.on_step(&mut machine, &mut hv);
        let records = injector.records();
        assert_eq!(records.len(), 3);
        for record in records {
            assert!(!record.applied());
            let Err(skip) = record.outcome else {
                panic!("applied: {record}");
            };
            assert!(matches!(skip, MemFaultSkip::OutOfRange { .. }), "{skip}");
            assert!(record.to_string().contains("skipped"));
        }
    }

    #[test]
    fn window_gates_firing() {
        let (mut machine, mut hv) = bare();
        // The machine is at step 0 and never advanced: a window that
        // starts later never fires, whatever the call count.
        let spec = spec_on_hvc(
            MemFaultModel::SingleBitFlip,
            MemTarget::only(MemRegionKind::NonRootRam),
        )
        .with_rate(1)
        .with_window(100, 200);
        let mut injector = MemInjector::new(spec, 5);
        pump_calls(&mut machine, &mut hv, 10);
        injector.on_step(&mut machine, &mut hv);
        assert!(injector.records().is_empty());
    }

    #[test]
    fn deterministic_across_identical_seeds() {
        let run = || {
            let (mut machine, mut hv) = bare();
            let spec = spec_on_hvc(MemFaultModel::DoubleBitFlip, MemTarget::e6()).with_rate(3);
            let mut injector = MemInjector::new(spec, 1234);
            pump_calls(&mut machine, &mut hv, 30);
            injector.on_step(&mut machine, &mut hv);
            injector.records().to_vec()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn comm_region_faults_land_in_the_comm_page() {
        let (mut machine, mut hv) = bare();
        let spec = spec_on_hvc(
            MemFaultModel::CommStateCorrupt,
            MemTarget::only(MemRegionKind::CommRegion),
        )
        .with_rate(1);
        let mut injector = MemInjector::new(spec, 6);
        pump_calls(&mut machine, &mut hv, 1);
        injector.on_step(&mut machine, &mut hv);
        let records = injector.records();
        let fault = records[0].outcome.unwrap();
        assert!(memmap::in_region(fault.addr, memmap::RTOS_RAM_BASE, 0x10));
    }
}
