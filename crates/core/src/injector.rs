//! The injector: an [`InjectionHook`] that fires on cadence.
//!
//! This is the runtime half of the paper's "dozen of lines of code
//! added to Jailhouse that allows us to orchestrate the fault
//! injection tests by controlling test duration and target": it
//! counts handler calls that match the specification's target/CPU
//! filter and, on every `rate`-th call, applies the fault model to the
//! live register context — recording exactly what was corrupted for
//! the post-run analytics.

use crate::fault::AppliedFault;
use crate::spec::{CadenceCounter, InjectionSpec};
use certify_arch::CpuId;
use certify_hypervisor::{HandlerKind, HookCtx, Hypervisor, InjectionHook};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::sync::Arc;

/// One injection that happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectionRecord {
    /// Simulator step of the injection.
    pub step: u64,
    /// The handler that was entered.
    pub handler: HandlerKind,
    /// The CPU that called it.
    pub cpu: CpuId,
    /// The cadence counter's phase-shifted value at the injection
    /// ([`CadenceCounter::phased`]): the matching-call count plus the
    /// seed-derived phase. Under phase jitter it is a multiple of
    /// `rate` whatever the call's true position in the filtered
    /// stream; without jitter it is that position.
    pub filtered_call: u64,
    /// The concrete corruptions applied.
    pub faults: Vec<AppliedFault>,
}

impl fmt::Display for InjectionRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} {} call#{}:",
            self.step, self.cpu, self.handler, self.filtered_call
        )?;
        for fault in &self.faults {
            write!(f, " {fault}")?;
        }
        Ok(())
    }
}

/// The fault injector. Installed into the hypervisor as its hook; the
/// records are read back through [`Hypervisor::hook`].
#[derive(Debug)]
pub struct Injector {
    spec: Arc<InjectionSpec>,
    counter: CadenceCounter,
    rng: StdRng,
    /// Next firing deadline (time-triggered mode only).
    next_deadline: u64,
    records: Vec<InjectionRecord>,
}

impl Injector {
    /// Creates an injector for `spec`, seeded deterministically. The
    /// spec is taken via `Into<Arc<_>>` so campaign workers can share
    /// one allocation across thousands of trials.
    ///
    /// # Panics
    ///
    /// Panics if the spec's cadence has no targets or a zero rate (its
    /// fields are public, so a caller can bypass the builders'
    /// validation).
    pub fn new(spec: impl Into<Arc<InjectionSpec>>, seed: u64) -> Injector {
        let spec = spec.into();
        let mut rng = StdRng::seed_from_u64(seed);
        Injector {
            counter: CadenceCounter::new(&spec.cadence, &mut rng),
            spec,
            rng,
            next_deadline: 0,
            records: Vec::new(),
        }
    }

    /// The injections so far.
    pub fn records(&self) -> &[InjectionRecord] {
        &self.records
    }

    /// Counts the matching calls `hv` has already made, as if this
    /// injector had watched them unarmed: installing into a system
    /// forked from a fault-free prefix then continues the cadence
    /// exactly where a from-step-0 injector would be. A no-op on a
    /// fresh hypervisor.
    pub(crate) fn prime(&mut self, hv: &Hypervisor) {
        self.counter.prime(self.counter.calls_in(hv));
    }
}

impl InjectionHook for Injector {
    fn on_handler_entry(&mut self, ctx: &mut HookCtx<'_>) {
        if !self.counter.matches(ctx.handler, ctx.cpu) || self.counter.capped() {
            return;
        }
        let due = self.counter.count_call();
        if !self.spec.cadence.armed(ctx.step) {
            return;
        }
        match self.spec.time_trigger {
            // Ablation D1: fire at the first matching entry past each
            // period boundary.
            Some(period) => {
                if ctx.step < self.next_deadline {
                    return;
                }
                self.next_deadline = ctx.step + period;
            }
            // The paper's trigger: once every `rate` calls.
            None => {
                if due.is_none() {
                    return;
                }
            }
        }
        let faults = self.spec.model.apply(ctx.regs, &mut self.rng);
        if faults.is_empty() {
            return;
        }
        ctx.mark_touched();
        self.counter.injected();
        self.records.push(InjectionRecord {
            step: ctx.step,
            handler: ctx.handler,
            cpu: ctx.cpu,
            filtered_call: self.counter.phased(),
            faults,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Intensity, Paced};
    use certify_arch::RegisterFile;

    fn call(injector: &mut Injector, handler: HandlerKind, cpu: CpuId, n: u64) {
        let mut regs = RegisterFile::new();
        for i in 0..n {
            let mut ctx = HookCtx {
                handler,
                cpu,
                call_index: i + 1,
                step: i,
                regs: &mut regs,
                touched: false,
            };
            injector.on_handler_entry(&mut ctx);
        }
    }

    #[test]
    fn fires_every_rate_calls() {
        let spec = InjectionSpec::new(
            Intensity::Medium,
            [HandlerKind::ArchHandleTrap],
            Some(CpuId(1)),
        )
        .with_rate(10);
        let mut injector = Injector::new(spec, 1);
        call(&mut injector, HandlerKind::ArchHandleTrap, CpuId(1), 35);
        assert_eq!(injector.records().len(), 3); // calls 10, 20, 30
        let records = injector.records();
        assert_eq!(records[0].filtered_call, 10);
        assert_eq!(records[2].filtered_call, 30);
    }

    #[test]
    fn filter_excludes_other_cpu_and_handler() {
        let spec = InjectionSpec::e3_nonroot_trap_medium().with_rate(5);
        let mut injector = Injector::new(spec, 1);
        call(&mut injector, HandlerKind::ArchHandleTrap, CpuId(0), 50);
        call(&mut injector, HandlerKind::ArchHandleHvc, CpuId(1), 50);
        assert!(injector.records().is_empty());
        call(&mut injector, HandlerKind::ArchHandleTrap, CpuId(1), 5);
        assert_eq!(injector.records().len(), 1);
    }

    #[test]
    fn max_injections_caps_firing() {
        let spec = InjectionSpec::e3_nonroot_trap_medium()
            .with_rate(2)
            .with_max_injections(3);
        let mut injector = Injector::new(spec, 9);
        call(&mut injector, HandlerKind::ArchHandleTrap, CpuId(1), 100);
        assert_eq!(injector.records().len(), 3);
    }

    #[test]
    fn deterministic_across_seeds() {
        let spec = InjectionSpec::e3_nonroot_trap_medium().with_rate(7);
        let mut a = Injector::new(spec.clone(), 1234);
        let mut b = Injector::new(spec, 1234);
        call(&mut a, HandlerKind::ArchHandleTrap, CpuId(1), 70);
        call(&mut b, HandlerKind::ArchHandleTrap, CpuId(1), 70);
        assert_eq!(a.records(), b.records());
        assert!(!a.records().is_empty());
    }

    #[test]
    fn time_trigger_fires_on_period_boundaries() {
        let spec = InjectionSpec::e3_nonroot_trap_medium().with_time_trigger(100);
        let mut injector = Injector::new(spec, 3);
        let mut regs = RegisterFile::new();
        // Handler entries at steps 0, 50, 100, …, 450: deadlines at
        // 100 (fires at step 100), 200, 300, 400.
        for step in (0..500).step_by(50) {
            let mut ctx = HookCtx {
                handler: HandlerKind::ArchHandleTrap,
                cpu: CpuId(1),
                call_index: step / 50 + 1,
                step,
                regs: &mut regs,
                touched: false,
            };
            injector.on_handler_entry(&mut ctx);
        }
        let steps: Vec<u64> = injector.records().iter().map(|r| r.step).collect();
        assert_eq!(steps, vec![0, 100, 200, 300, 400]);
    }

    #[test]
    fn time_trigger_waits_for_a_matching_entry() {
        // Entries arrive sparsely: the injection lands on the first
        // entry after each deadline, not on the deadline itself.
        let spec = InjectionSpec::e3_nonroot_trap_medium().with_time_trigger(100);
        let mut injector = Injector::new(spec, 3);
        let mut regs = RegisterFile::new();
        for step in [30u64, 170, 180, 390] {
            let mut ctx = HookCtx {
                handler: HandlerKind::ArchHandleTrap,
                cpu: CpuId(1),
                call_index: 1,
                step,
                regs: &mut regs,
                touched: false,
            };
            injector.on_handler_entry(&mut ctx);
        }
        let steps: Vec<u64> = injector.records().iter().map(|r| r.step).collect();
        assert_eq!(steps, vec![30, 170, 390]);
    }

    #[test]
    fn window_gates_firing_without_stopping_the_count() {
        let spec = InjectionSpec::e3_nonroot_trap_medium()
            .with_rate(10)
            .with_window(25, 60);
        let mut injector = Injector::new(spec, 1);
        let mut regs = RegisterFile::new();
        // One call per step: the rate-10 cadence would fire at calls
        // 10..=100, but only steps 25..60 are armed.
        for step in 0..100u64 {
            let mut ctx = HookCtx {
                handler: HandlerKind::ArchHandleTrap,
                cpu: CpuId(1),
                call_index: step + 1,
                step,
                regs: &mut regs,
                touched: false,
            };
            injector.on_handler_entry(&mut ctx);
        }
        let fired: Vec<(u64, u64)> = injector
            .records()
            .iter()
            .map(|r| (r.step, r.filtered_call))
            .collect();
        // Calls before the window were counted too.
        assert_eq!(fired, vec![(29, 30), (39, 40), (49, 50), (59, 60)]);
    }

    #[test]
    fn record_captures_faults() {
        let spec = InjectionSpec::e2_nonroot_high().with_rate(1);
        let mut injector = Injector::new(spec, 5);
        call(&mut injector, HandlerKind::ArchHandleHvc, CpuId(1), 1);
        let records = injector.records();
        assert_eq!(records.len(), 1);
        // High intensity: three corrupted registers.
        assert_eq!(records[0].faults.len(), 3);
        assert!(!records[0].to_string().is_empty());
    }
}
