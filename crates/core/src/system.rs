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
use certify_arch::{CpuId, NUM_CPUS};
use certify_board::{memmap, Machine};
use certify_guest_linux::{LinuxGuest, MgmtScript};
use certify_hypervisor::hv::IrqDelivery;
use certify_hypervisor::hypercall as hc;
use certify_hypervisor::{CellId, CellState, GuestCtx, GuestHealth, Hypervisor, SystemConfig};
use certify_obs::trace::{TraceEvent, TraceKind, NO_CPU};
use certify_rtos::RtosGuest;
use std::sync::Arc;

/// Maximum interrupts drained per CPU per step (loop guard).
const MAX_IRQS_PER_STEP: usize = 8;

/// The guest that gets a CPU's slice in a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Guest {
    Linux,
    Rtos,
}

/// A complete, steppable testbed.
///
/// `Clone` is for snapshotting fault-free systems: cloning one with a
/// register injector installed panics (see [`Hypervisor`]'s `Clone`).
/// A clone is copy-on-write for the state a trial only reads:
///
/// - *Shared until written:* each cell's stage-2 table (copied by the
///   first memory fault that writes it) and every resident RAM page
///   (copied by the first write to it).
/// - *Shared, never written:* the platform and cell configs and the
///   Linux guest's config blobs and management script.
/// - *Copied:* everything else — CPU, GIC, timer and device state, the
///   UART capture, the page map, the hypervisor's per-run vectors, the
///   RTOS task bodies and queues, the memory injector with its records
///   and the flight recorder.
///
/// So trials forked from one snapshot never see each other's writes,
/// never share a log or a ring, and each dumps exactly what a trial
/// traced from step 0 would.
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
    /// Step at which the cell first entered the Running state from the
    /// root's perspective (for blank-output analysis). Set once: later
    /// restarts leave it alone.
    cell_start_step: Option<u64>,
    mem_injector: Option<MemInjector>,
    rtos_broken_observed: bool,
    boot_failures: u64,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("steps_run", &self.steps_run())
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
        // build it — and its serialized blobs — once per process and
        // share it with every system and every clone.
        struct Testbed {
            platform: Arc<SystemConfig>,
            cell_entry: u32,
            system_blob: Arc<[u8]>,
            cell_blob: Arc<[u8]>,
        }
        static TESTBED: std::sync::OnceLock<Testbed> = std::sync::OnceLock::new();
        let testbed = TESTBED.get_or_init(|| {
            let platform = SystemConfig::banana_pi_demo();
            let cell_config = SystemConfig::freertos_cell();
            Testbed {
                system_blob: platform.serialize().into(),
                cell_blob: cell_config.serialize().into(),
                cell_entry: cell_config.entry,
                platform: Arc::new(platform),
            }
        });
        let mut machine = Machine::new_banana_pi();
        machine.cpu_mut(CpuId(0)).power_on();
        machine.cpu_mut(CpuId(1)).power_on();
        machine.timer_mut(CpuId(0)).start();
        let hv = Hypervisor::new(Arc::clone(&testbed.platform));
        let linux = LinuxGuest::with_blobs(
            script,
            Arc::clone(&testbed.system_blob),
            Arc::clone(&testbed.cell_blob),
        );
        let rtos = if rtos_heartbeat {
            RtosGuest::with_heartbeat(testbed.cell_entry)
        } else {
            RtosGuest::new(testbed.cell_entry)
        };
        System {
            machine,
            hv,
            linux,
            rtos,
            cell_start_step: None,
            mem_injector: None,
            rtos_broken_observed: false,
            boot_failures: 0,
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

    /// The installed memory injector, if any.
    pub(crate) fn mem_injector(&self) -> Option<&MemInjector> {
        self.mem_injector.as_ref()
    }

    /// Steps run so far: the machine's clock, which each
    /// [`System::step`] advances by one.
    pub fn steps_run(&self) -> u64 {
        self.machine.now()
    }

    /// The step at which the non-root cell first started, if any.
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

    /// Runs the system for `steps` simulator steps: the same state, in
    /// every observable and in every counter, as `steps` calls of
    /// [`System::step`].
    ///
    /// It gets there faster by jumping over *quiet* spans: runs of
    /// steps that would change nothing but the machine clock, the tick
    /// timers' and watchdog's countdowns and the root guest's step and
    /// wait counters, all of which it advances in one closed-form
    /// update (the idle-loop skipping of full-system simulators). A
    /// span ends before the first step that would fire a timer, bite
    /// with the watchdog, reach a heartbeat or a script operation of
    /// the root guest, run a live RTOS slice, deliver an interrupt, or
    /// take an offline request, a corruption notice, the E2 broken
    /// latch or the cell-start record (`quiet_steps` mirrors each
    /// branch of the step).
    ///
    /// The span is only asked for after a step in which no live RTOS
    /// slice ran. While the RTOS runs (most of every fault-free step)
    /// no span is possible, and asking on every step would cost more
    /// than it saves.
    pub fn run(&mut self, steps: u64) {
        let mut left = steps;
        while left > 0 {
            left -= 1;
            if self.step_once() {
                let span = self.quiet_steps().min(left);
                self.skip(span);
                left -= span;
            }
        }
    }

    /// Advances the whole stack by one simulator step. [`System::run`]
    /// is equivalent to calling this once per step.
    pub fn step(&mut self) {
        self.step_once();
    }

    /// One step of [`System::step`]; returns whether no live RTOS
    /// slice ran in it, the gate [`System::run`] asks for a quiet span
    /// behind.
    fn step_once(&mut self) -> bool {
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
        // interrupt — most steps have nothing queued, and with nothing
        // pending the per-CPU wake and drain loops are no-ops. A panicked
        // hypervisor delivers nothing (every CPU is parked and the
        // handler answers spurious), so the whole pass is skipped.
        if self.machine.gic.any_pending() && self.hv.panicked().is_none() {
            // Wake WFI'd CPUs with pending interrupts.
            for i in 0..NUM_CPUS {
                let cpu = CpuId(i as u32);
                if self.machine.cpu(cpu).in_wfi() && self.machine.gic.has_pending(cpu) {
                    self.machine.cpu_mut(cpu).wake();
                }
            }

            // Interrupt delivery.
            for i in 0..NUM_CPUS {
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
        if self.cell_start_pending() {
            self.cell_start_step = Some(self.machine.now());
        }

        // Step the guests on their CPUs (`|`, not `||`: both step).
        let rtos_ran = self.step_guest(CpuId(0)) | self.step_guest(CpuId(1));

        // Fire pending memory-fault injections against the advanced
        // state (their corruption notices drain next step, like wild
        // stores).
        if let Some(injector) = self.mem_injector.as_mut() {
            injector.on_step(&mut self.machine, &mut self.hv);
        }

        if self.rtos.health() == GuestHealth::Broken {
            self.rtos_broken_observed = true;
        }
        !rtos_ran || self.rtos.idle()
    }

    /// How many steps from now [`System::step`] would change nothing
    /// but the clocks and countdowns [`System::skip`] advances. Each
    /// guard mirrors a branch of `step_once` that does work; the span
    /// is the smallest of the machine's (no timer fires, no watchdog
    /// bite) and, when it runs on CPU 0, the root guest's (no boot
    /// line, panic, heartbeat or script operation).
    ///
    /// The memory injector needs no guard: it acts only on handler
    /// calls, and a quiet step makes none.
    fn quiet_steps(&self) -> u64 {
        let delivers = self.machine.gic.any_pending() && self.hv.panicked().is_none();
        let unlatched = self.rtos.health() == GuestHealth::Broken && !self.rtos_broken_observed;
        if delivers
            || self.linux.offline_request().is_some()
            || self.hv.has_corruption_notices()
            || unlatched
            || self.cell_start_pending()
        {
            return 0;
        }
        let mut span = self.machine.quiet_steps();
        for i in 0..NUM_CPUS {
            match self.guest_on(CpuId(i as u32)) {
                Some(Guest::Linux) => span = span.min(self.linux.quiet_steps()),
                Some(Guest::Rtos) if !self.rtos.idle() => return 0,
                _ => {}
            }
        }
        span
    }

    /// Runs `k` quiet steps at once, exactly as `k` calls of
    /// [`System::step`] would.
    fn skip(&mut self, k: u64) {
        debug_assert!(
            k <= self.quiet_steps(),
            "skip({k}) crosses a step that works"
        );
        if k == 0 {
            return;
        }
        self.machine.skip(k);
        if self.guest_on(CpuId(0)) == Some(Guest::Linux) {
            self.linux.skip(k);
        }
    }

    /// Whether the cell has entered the Running state but its first
    /// start step is not yet recorded.
    fn cell_start_pending(&self) -> bool {
        self.cell_start_step.is_none()
            && self
                .rtos_cell()
                .and_then(|id| self.hv.cell(id))
                .is_some_and(|cell| cell.state() == CellState::Running)
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
                    // The root guest schedules from its step; only the
                    // RTOS kernel counts ticks.
                    let owner = self.hv.cpu_owner(cpu);
                    if owner.is_some_and(|id| id != certify_hypervisor::cell::ROOT_CELL) {
                        self.rtos.on_tick();
                    }
                }
                // Neither guest handles a shared peripheral interrupt:
                // the workload uses none, and ivshmem doorbells are
                // absorbed.
                IrqDelivery::Guest => {}
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

    /// Which guest gets a slice on `cpu` this step, if any: the root
    /// guest runs on CPU 0 only (root-owned secondary CPUs run the idle
    /// thread), and the RTOS on any CPU a non-root cell owns.
    fn guest_on(&self, cpu: CpuId) -> Option<Guest> {
        if !self.machine.cpu(cpu).can_run_guest() {
            return None;
        }
        let owner = self.hv.cpu_owner(cpu);
        let is_root = owner == Some(certify_hypervisor::cell::ROOT_CELL)
            || (!self.hv.is_enabled() && cpu == CpuId(0));
        if is_root {
            (cpu == CpuId(0)).then_some(Guest::Linux)
        } else {
            owner.map(|_| Guest::Rtos)
        }
    }

    /// Runs the slice of the guest on `cpu`; returns whether it was an
    /// RTOS slice.
    fn step_guest(&mut self, cpu: CpuId) -> bool {
        let Some(guest) = self.guest_on(cpu) else {
            return false;
        };
        let mut ctx = GuestCtx::new(cpu, &mut self.machine, &mut self.hv);
        match guest {
            Guest::Linux => self.linux.step(&mut ctx),
            Guest::Rtos => self.rtos.step(&mut ctx),
        }
        guest == Guest::Rtos
    }

    /// Count of `[rtos]`-prefixed serial lines whose final byte arrived
    /// at or after `step` — the "USART output" liveness signal of the
    /// non-root cell.
    ///
    /// Served from the UART's incremental line index: a binary search
    /// locates the first qualifying line and only the tail is
    /// examined, so polling this mid-run costs
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
            let total: u64 = (0..NUM_CPUS as u32)
                .map(|c| system.hv.call_count(handler, CpuId(c)))
                .sum();
            assert!(total > 0, "{handler} saw no traffic");
        }
    }

    /// A golden system mid-`RunFor`, the cell up and the RTOS running
    /// on CPU 1.
    fn running_system() -> System {
        let mut system = System::new(MgmtScript::bring_up_and_run(4000));
        system.run(1000);
        assert!(!system.rtos.idle());
        system
    }

    /// [`running_system`] with its RTOS broken (re-entered at a wrong
    /// entry point) and the breakage latched, stepped on to a state
    /// whose quiet span is at least 2 steps.
    fn quiet_system() -> System {
        let mut system = running_system();
        system.rtos.on_reset(0);
        assert!(system.rtos.idle());
        system.step();
        while system.quiet_steps() < 2 {
            assert!(system.steps_run() < 1100, "no quiet span found");
            system.step();
        }
        system
    }

    /// The state a skip could get wrong, with the whole board.
    fn fingerprint(system: &System) -> String {
        format!(
            "{:?} {:?} {:?} {:?} {} {:?} {:?} {:?}",
            system.machine,
            system.hv,
            system.hv.call_counts().collect::<Vec<_>>(),
            system.hv.events(),
            system.linux.quiet_steps(),
            system.linux.records(),
            system.rtos,
            (
                system.cell_start_step,
                system.rtos_broken_observed,
                system.boot_failures
            ),
        )
    }

    #[test]
    fn a_quiet_span_skips_exactly_what_single_steps_do() {
        let system = quiet_system();
        let span = system.quiet_steps();
        let (mut skipped, mut stepped) = (system.clone(), system.clone());
        skipped.skip(span);
        for _ in 0..span {
            stepped.step();
        }
        assert_eq!(fingerprint(&skipped), fingerprint(&stepped));
        assert_eq!(skipped.quiet_steps(), 0, "the span ends at work");
        skipped.step();
        stepped.step();
        assert_eq!(fingerprint(&skipped), fingerprint(&stepped));

        // And `run` over many spans and the work between them.
        let (mut ran, mut stepped) = (system.clone(), system);
        ran.run(700);
        for _ in 0..700 {
            stepped.step();
        }
        assert_eq!(fingerprint(&ran), fingerprint(&stepped));
    }

    /// Each guard of `quiet_steps`, reached alone: in a state whose
    /// span would otherwise be at least 2, the pending work makes it 0,
    /// and the next step does that work.
    #[test]
    fn pending_work_ends_a_quiet_span() {
        use certify_arch::IrqId;
        use certify_hypervisor::HandlerKind;

        // A live RTOS slice.
        let mut system = running_system();
        while system.machine.quiet_steps() < 2 || system.linux.quiet_steps() < 2 {
            system.step();
        }
        assert_eq!(system.quiet_steps(), 0, "live RTOS");
        let slices = system.rtos.kernel().total_slices();
        system.step();
        assert!(system.rtos.kernel().total_slices() > slices);

        // An interrupt to deliver.
        let mut system = quiet_system();
        system.machine.gic.send_sgi(CpuId(0), IrqId(1));
        assert_eq!(system.quiet_steps(), 0, "pending interrupt");
        let irqs = system
            .hv
            .call_count(HandlerKind::IrqchipHandleIrq, CpuId(0));
        system.step();
        assert_eq!(
            system
                .hv
                .call_count(HandlerKind::IrqchipHandleIrq, CpuId(0)),
            irqs + 1
        );

        // A corruption notice to forward.
        let mut system = quiet_system();
        system
            .hv
            .notify_corruption(certify_hypervisor::cell::ROOT_CELL);
        assert_eq!(system.quiet_steps(), 0, "corruption notice");
        system.step();
        assert_eq!(system.linux.health(), GuestHealth::Panicked);

        // The E2 broken latch to set.
        let mut system = quiet_system();
        system.rtos_broken_observed = false;
        assert_eq!(system.quiet_steps(), 0, "unlatched broken RTOS");
        system.step();
        assert!(system.rtos_broken_observed());

        // The cell start to record.
        let mut system = quiet_system();
        system.cell_start_step = None;
        assert_eq!(system.quiet_steps(), 0, "unrecorded cell start");
        system.step();
        assert_eq!(system.cell_start_step(), Some(system.steps_run()));

        // An offline request to take, its CPU 0 parked right after the
        // script posted it so no root-guest work bounds the span.
        use certify_guest_linux::MgmtOp;
        let script = MgmtScript {
            name: "offline-then-wait".into(),
            ops: vec![
                MgmtOp::StageSystemConfig,
                MgmtOp::Enable,
                MgmtOp::RequestCpuOffline(1),
                MgmtOp::RunFor(1000),
            ],
        };
        let mut system = System::new(script);
        while system.linux.offline_request().is_none() {
            system.step();
        }
        system
            .machine
            .cpu_mut(CpuId(0))
            .park(certify_arch::cpu::ParkReason::Idle);
        assert!(system.machine.quiet_steps() >= 2);
        assert_eq!(system.quiet_steps(), 0, "offline request");
        let hvcs = system.hv.call_count(HandlerKind::ArchHandleHvc, CpuId(1));
        system.step();
        assert_eq!(
            system.hv.call_count(HandlerKind::ArchHandleHvc, CpuId(1)),
            hvcs + 1
        );
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
