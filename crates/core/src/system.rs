//! The assembled testbed: board + hypervisor + root Linux guest +
//! FreeRTOS guest, driven step by step.
//!
//! One [`System`] is one test run of Figure 2: it wires the hardware
//! setup of the paper (dual-core board, serial console), installs the
//! management script into the root guest, optionally installs a fault
//! injector into the hypervisor, and advances the whole stack one
//! simulator step at a time — delivering interrupts through
//! `irqchip_handle_irq`, running the CPU-hot-plug cell-boot protocol,
//! forwarding corruption notices, and stepping each cell's guest on
//! its own CPU.

use crate::injector::{InjectionRecord, Injector};
use crate::meminjector::{MemInjectionRecord, MemInjector};
use crate::spec::{InjectionSpec, MemorySpec};
use certify_arch::CpuId;
use certify_board::{memmap, Machine};
use certify_guest_linux::{LinuxGuest, MgmtScript};
use certify_hypervisor::hv::IrqDelivery;
use certify_hypervisor::hypercall as hc;
use certify_hypervisor::{CellId, Guest, GuestCtx, Hypervisor, SystemConfig};
use certify_obs::trace::{TraceEvent, TraceKind, NO_CPU};
use certify_rtos::RtosGuest;
use std::sync::Arc;

/// Maximum interrupts drained per CPU per step (loop guard).
const MAX_IRQS_PER_STEP: usize = 8;

/// A complete, steppable testbed.
///
/// `Clone` is for snapshotting fault-free systems: cloning one with a
/// register injector installed panics (see [`Hypervisor`]'s `Clone`).
/// A clone shares nothing with the original: it copies the memory
/// injector with its records and the flight recorder, so trials forked
/// from one snapshot never share a log or a ring and each dumps exactly
/// what a trial traced from step 0 would.
#[derive(Clone)]
pub struct System {
    /// The board.
    pub machine: Machine,
    /// The hypervisor under test.
    pub hv: Hypervisor,
    /// The root-cell guest.
    pub linux: LinuxGuest,
    /// The non-root-cell guest.
    pub rtos: RtosGuest,
    /// Step at which the cell most recently entered the Running state
    /// from the root's perspective (for blank-output analysis).
    cell_start_step: Option<u64>,
    mem_injector: Option<MemInjector>,
    steps_run: u64,
    rtos_broken_observed: bool,
    boot_failures: u64,
    /// Cached per-CPU cell ownership, refreshed only when the
    /// hypervisor's ownership epoch changes (ownership changes a
    /// handful of times per run; the step loop asks every step).
    owner_cache: Vec<Option<CellId>>,
    owner_epoch: u64,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("steps_run", &self.steps_run)
            .field("hv", &self.hv)
            .finish()
    }
}

impl System {
    /// Builds the paper's testbed with the given management script
    /// (owned, or shared via `Arc` so campaigns reuse one program
    /// across thousands of trials).
    pub fn new(script: impl Into<Arc<MgmtScript>>) -> System {
        Self::build(script.into(), false)
    }

    /// Like [`System::new`], with the E5b safety-heartbeat task added
    /// to the RTOS workload.
    pub fn new_with_heartbeat(script: impl Into<Arc<MgmtScript>>) -> System {
        Self::build(script.into(), true)
    }

    fn build(script: Arc<MgmtScript>, rtos_heartbeat: bool) -> System {
        // The testbed configuration is fixed (the paper's board), so
        // build it — and its serialized blobs — once per process
        // instead of once per campaign trial.
        struct Testbed {
            platform: SystemConfig,
            cell_entry: u32,
            system_blob: Vec<u8>,
            cell_blob: Vec<u8>,
        }
        static TESTBED: std::sync::OnceLock<Testbed> = std::sync::OnceLock::new();
        let testbed = TESTBED.get_or_init(|| {
            let platform = SystemConfig::banana_pi_demo();
            let cell_config = SystemConfig::freertos_cell();
            Testbed {
                system_blob: platform.serialize(),
                cell_blob: cell_config.serialize(),
                cell_entry: cell_config.entry,
                platform,
            }
        });
        let mut machine = Machine::new_banana_pi();
        machine.cpu_mut(CpuId(0)).power_on();
        machine.cpu_mut(CpuId(1)).power_on();
        machine.timer_mut(CpuId(0)).start();
        let hv = Hypervisor::new(testbed.platform.clone());
        let linux = LinuxGuest::with_blobs(
            script,
            testbed.system_blob.clone(),
            testbed.cell_blob.clone(),
        );
        let rtos = if rtos_heartbeat {
            RtosGuest::with_heartbeat(testbed.cell_entry)
        } else {
            RtosGuest::new(testbed.cell_entry)
        };
        let num_cpus = machine.num_cpus();
        let owner_epoch = hv.ownership_epoch();
        System {
            machine,
            hv,
            linux,
            rtos,
            cell_start_step: None,
            mem_injector: None,
            steps_run: 0,
            rtos_broken_observed: false,
            boot_failures: 0,
            owner_cache: vec![None; num_cpus],
            owner_epoch,
        }
    }

    /// Installs a fault injector built from `spec` (owned or shared
    /// via `Arc`), seeded with `seed`, as the hypervisor's hook; read
    /// its records with [`System::injections`].
    ///
    /// The injector counts the matching handler calls already made as
    /// if it had watched them unarmed, so
    /// installing into a fault-free system forked before the
    /// injector's first possible attempt runs the same trial as
    /// installing at step 0.
    pub fn install_injector(&mut self, spec: impl Into<Arc<InjectionSpec>>, seed: u64) {
        let mut injector = Injector::new(spec, seed);
        injector.prime(&self.hv);
        self.hv.set_hook(Box::new(injector));
    }

    /// The register injections so far (none without an installed
    /// injector).
    pub fn injections(&self) -> &[InjectionRecord] {
        self.hv.hook::<Injector>().map_or(&[], Injector::records)
    }

    /// Installs a memory-fault injector built from `spec` (owned or
    /// shared via `Arc`), seeded with `seed`; read its records with
    /// [`System::mem_injections`]. Can coexist with a register
    /// injector for mixed campaigns. Primed like
    /// [`System::install_injector`]: its cadence skips the matching
    /// calls already made.
    pub fn install_mem_injector(&mut self, spec: impl Into<Arc<MemorySpec>>, seed: u64) {
        let mut injector = MemInjector::new(spec, seed);
        injector.prime(&self.hv);
        self.mem_injector = Some(injector);
    }

    /// The memory-injection attempts so far, applied or skipped (none
    /// without an installed memory injector).
    pub fn mem_injections(&self) -> &[MemInjectionRecord] {
        self.mem_injector.as_ref().map_or(&[], MemInjector::records)
    }

    /// Steps run so far.
    pub fn steps_run(&self) -> u64 {
        self.steps_run
    }

    /// The step at which the non-root cell last started, if any.
    pub fn cell_start_step(&self) -> Option<u64> {
        self.cell_start_step
    }

    /// The non-root cell's id as created by the script, if any.
    pub fn rtos_cell(&self) -> Option<CellId> {
        self.linux.created_cell().map(CellId)
    }

    /// The serial log as owned `(step, line)` pairs. Allocates one
    /// `String` per line — hot paths should iterate
    /// `machine.uart.indexed_lines()` instead.
    pub fn serial_lines(&self) -> Vec<(u64, String)> {
        self.machine.uart.lines()
    }

    /// Runs the system for `steps` simulator steps.
    pub fn run(&mut self, steps: u64) {
        for _ in 0..steps {
            self.step();
        }
    }

    /// Advances the whole stack by one simulator step.
    pub fn step(&mut self) {
        self.steps_run += 1;
        let watchdog_bit = self.machine.advance();
        if watchdog_bit && self.hv.recorder().is_some() {
            self.hv.trace(TraceEvent {
                step: self.machine.now(),
                cpu: NO_CPU,
                kind: TraceKind::WatchdogBite,
                arg_a: self.machine.wdt.expiries().len() as u64,
                arg_b: 0,
            });
        }

        // Wake and drain only when some CPU actually has a pending
        // interrupt — the GIC keeps an O(1) count, and most steps have
        // nothing queued. (With nothing pending, the historical
        // per-CPU wake and drain loops were no-ops.) A panicked
        // hypervisor delivers nothing (every CPU is parked and the
        // handler answers spurious), so the whole pass is skipped.
        if self.machine.gic.any_pending() && self.hv.panicked().is_none() {
            // Wake WFI'd CPUs with pending interrupts.
            for i in 0..self.machine.num_cpus() {
                let cpu = CpuId(i as u32);
                if self.machine.cpu(cpu).in_wfi() && self.machine.gic.has_pending(cpu) {
                    self.machine.cpu_mut(cpu).wake();
                }
            }

            // Interrupt delivery.
            for i in 0..self.machine.num_cpus() {
                self.drain_irqs(CpuId(i as u32));
            }
        }

        // CPU hot-unplug handshake: the idle thread on the target CPU
        // issues CPU_OFF.
        if let Some(cpu) = self.linux.take_offline_request() {
            if self.hv.is_enabled() {
                self.hv
                    .handle_hvc(&mut self.machine, cpu, hc::HVC_CPU_OFF, 0, 0);
            }
        }

        // Forward wild-store corruption notices to the victim guests —
        // drained only when the hypervisor flagged one (dirty check).
        if self.hv.has_corruption_notices() {
            for cell in self.hv.take_corruption_notices() {
                // Observed at the drain, one step after the wild store
                // or memory injection posted the notice — the delivery
                // is the causally interesting moment (the victim guest
                // faults on its next slice).
                self.hv.trace(TraceEvent {
                    step: self.machine.now(),
                    cpu: NO_CPU,
                    kind: TraceKind::CorruptionNotice,
                    arg_a: cell.0 as u64,
                    arg_b: 0,
                });
                if cell == certify_hypervisor::cell::ROOT_CELL {
                    self.linux.on_memory_corrupted();
                } else {
                    self.rtos.on_memory_corrupted();
                }
            }
        }

        // Track the cell lifecycle for blank-output analysis.
        if self.cell_start_step.is_none() {
            if let Some(cell) = self.rtos_cell().and_then(|id| self.hv.cell(id)) {
                if cell.state() == certify_hypervisor::CellState::Running {
                    self.cell_start_step = Some(self.machine.now());
                }
            }
        }

        // Step the guests on their CPUs.
        self.step_guest(CpuId(0));
        self.step_guest(CpuId(1));

        // Fire pending memory-fault injections against the advanced
        // state (their corruption notices drain next step, like wild
        // stores).
        if let Some(injector) = self.mem_injector.as_mut() {
            injector.on_step(&mut self.machine, &mut self.hv);
        }

        if self.rtos.health() == certify_hypervisor::GuestHealth::Broken {
            self.rtos_broken_observed = true;
        }
    }

    /// Whether the RTOS guest was ever observed in the E2
    /// "non-executable" state.
    pub fn rtos_broken_observed(&self) -> bool {
        self.rtos_broken_observed
    }

    /// How many cell-boot hypercalls were rejected, leaving the CPU
    /// parked while the cell was reported running.
    pub fn boot_failures(&self) -> u64 {
        self.boot_failures
    }

    fn drain_irqs(&mut self, cpu: CpuId) {
        for _ in 0..MAX_IRQS_PER_STEP {
            if !self.machine.gic.has_pending(cpu) {
                break;
            }
            if !self.hv.is_enabled() {
                // Bare-metal interrupt handling: the root kernel acks
                // directly, no hypervisor involvement.
                let irq = self.machine.gic.acknowledge(cpu);
                self.machine.gic.complete(cpu, irq);
                continue;
            }
            match self.hv.handle_irq(&mut self.machine, cpu) {
                IrqDelivery::Spurious => break,
                IrqDelivery::Error => continue,
                IrqDelivery::MgmtWake => self.boot_protocol(cpu),
                IrqDelivery::Tick => {
                    let owner = self.hv.cpu_owner(cpu);
                    if owner == Some(certify_hypervisor::cell::ROOT_CELL) {
                        let mut ctx = GuestCtx::new(cpu, &mut self.machine, &mut self.hv);
                        self.linux.on_tick(&mut ctx);
                    } else if owner.is_some() {
                        let mut ctx = GuestCtx::new(cpu, &mut self.machine, &mut self.hv);
                        self.rtos.on_tick(&mut ctx);
                    }
                }
                IrqDelivery::Guest(irq) => {
                    let owner = self.hv.cpu_owner(cpu);
                    if owner == Some(certify_hypervisor::cell::ROOT_CELL) {
                        let mut ctx = GuestCtx::new(cpu, &mut self.machine, &mut self.hv);
                        self.linux.on_irq(irq, &mut ctx);
                    } else if owner.is_some() {
                        let mut ctx = GuestCtx::new(cpu, &mut self.machine, &mut self.hv);
                        self.rtos.on_irq(irq, &mut ctx);
                    }
                }
            }
        }
    }

    /// The park-loop wake path: a management SGI arrived on a parked
    /// CPU with a pending boot request. The CPU reads its mailbox and
    /// issues `CPU_BOOT` — the hypercall experiment E2's injections
    /// corrupt. On failure the CPU simply stays parked; the cell's
    /// state is untouched (the root already believes it Running).
    fn boot_protocol(&mut self, cpu: CpuId) {
        let Some(entry) = self.hv.boot_pending(cpu) else {
            return;
        };
        let ret = self
            .hv
            .handle_hvc(&mut self.machine, cpu, hc::HVC_CPU_BOOT, entry, 0);
        if ret >= 0 {
            self.rtos.on_reset(ret as u32);
        } else {
            // The boot hypercall was rejected (e.g. its corrupted code
            // or entry failed validation): the CPU silently stays
            // parked while the cell is already reported running.
            self.boot_failures += 1;
        }
    }

    /// Per-CPU cell ownership, served from a cache that refreshes only
    /// when the hypervisor reports an ownership change.
    fn cpu_owner_cached(&mut self, cpu: CpuId) -> Option<CellId> {
        let epoch = self.hv.ownership_epoch();
        if self.owner_epoch != epoch {
            for (i, slot) in self.owner_cache.iter_mut().enumerate() {
                *slot = self.hv.cpu_owner(CpuId(i as u32));
            }
            self.owner_epoch = epoch;
        }
        self.owner_cache.get(cpu.0 as usize).copied().flatten()
    }

    fn step_guest(&mut self, cpu: CpuId) {
        if !self.machine.cpu(cpu).can_run_guest() {
            return;
        }
        let owner = self.cpu_owner_cached(cpu);
        let is_root = owner == Some(certify_hypervisor::cell::ROOT_CELL)
            || (!self.hv.is_enabled() && cpu == CpuId(0));
        if is_root {
            if cpu == CpuId(0) {
                let mut ctx = GuestCtx::new(cpu, &mut self.machine, &mut self.hv);
                self.linux.step(&mut ctx);
            }
            // Root-owned secondary CPUs run the idle thread.
        } else if owner.is_some() {
            let mut ctx = GuestCtx::new(cpu, &mut self.machine, &mut self.hv);
            self.rtos.step(&mut ctx);
        }
    }

    /// Count of `[rtos]`-prefixed serial lines whose final byte arrived
    /// at or after `step` — the "USART output" liveness signal of the
    /// non-root cell.
    ///
    /// Served from the UART's incremental line index: a binary search
    /// locates the first qualifying line and only the tail is
    /// examined, so polling this mid-run (examples/availability) costs
    /// O(log lines + tail) instead of reassembling and cloning the
    /// whole capture on every call.
    pub fn rtos_output_since(&self, step: u64) -> usize {
        self.machine
            .uart
            .lines_since(step)
            .filter(|line| line.starts_with("[rtos]"))
            .count()
    }

    /// The non-root cell's LED toggle count.
    pub fn rtos_led_toggles(&self) -> u64 {
        self.machine.gpio.toggle_count(memmap::LED_PIN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Paced;
    use certify_hypervisor::{CellState, GuestHealth};

    #[test]
    fn golden_run_brings_up_mixed_criticality_system() {
        let mut system = System::new(MgmtScript::bring_up_and_run(2000));
        system.run(3000);

        assert!(system.hv.is_enabled());
        assert!(system.hv.panicked().is_none());
        assert_eq!(system.linux.health(), GuestHealth::Healthy);
        assert_eq!(system.rtos.health(), GuestHealth::Healthy);

        let cell = system.hv.cell(system.rtos_cell().unwrap()).unwrap();
        assert_eq!(cell.state(), CellState::Running);

        // Both observation channels show life.
        assert!(system.rtos_led_toggles() > 5, "LED did not blink");
        let start = system.cell_start_step().unwrap();
        assert!(system.rtos_output_since(start) > 0, "no RTOS serial output");

        // All three profiled handlers saw traffic (the E4 result).
        use certify_hypervisor::HandlerKind;
        for handler in HandlerKind::ALL {
            let total: u64 = (0..2)
                .map(|c| system.hv.call_count(handler, CpuId(c)))
                .sum();
            assert!(total > 0, "{handler} saw no traffic");
        }
    }

    #[test]
    fn golden_run_is_deterministic() {
        let mut a = System::new(MgmtScript::bring_up_and_run(500));
        let mut b = System::new(MgmtScript::bring_up_and_run(500));
        a.run(1200);
        b.run(1200);
        assert_eq!(a.serial_lines(), b.serial_lines());
        assert_eq!(a.rtos_led_toggles(), b.rtos_led_toggles());
    }

    #[test]
    fn injector_fires_during_a_run() {
        let mut system = System::new(MgmtScript::bring_up_and_run(4000));
        system.install_injector(InjectionSpec::e3_nonroot_trap_medium().with_rate(10), 7);
        system.run(3000);
        assert!(!system.injections().is_empty(), "no injections fired");
    }

    #[test]
    fn mem_injector_fires_during_a_run() {
        use crate::memfault::{MemFaultModel, MemTarget};
        let mut system = System::new(MgmtScript::bring_up_and_run(4000));
        system.install_mem_injector(
            MemorySpec::e6_memory(MemFaultModel::SingleBitFlip, MemTarget::e6()).with_rate(10),
            7,
        );
        system.run(3000);
        assert!(
            system.mem_injections().iter().any(|r| r.applied()),
            "no memory injections applied"
        );
    }

    #[test]
    fn register_and_memory_injectors_coexist() {
        use crate::memfault::{MemFaultModel, MemTarget};
        let mut system = System::new(MgmtScript::bring_up_and_run(4000));
        system.install_injector(InjectionSpec::e3_nonroot_trap_medium().with_rate(25), 11);
        system.install_mem_injector(
            MemorySpec::e6_memory(MemFaultModel::stuck_at_zero(), MemTarget::e6()).with_rate(25),
            12,
        );
        system.run(3000);
        assert!(!system.injections().is_empty() || !system.mem_injections().is_empty());
        assert_eq!(system.steps_run(), 3000, "mixed run completed its budget");
    }
}
