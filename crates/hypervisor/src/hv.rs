//! The hypervisor core: handler dispatch, cell management, isolation
//! enforcement, parking and fault propagation.
//!
//! All guest/hypervisor interaction funnels through three entry points
//! — [`Hypervisor::handle_hvc`], the trapped-access path behind
//! [`Hypervisor::guest_mmio_write`]/[`Hypervisor::guest_mmio_read`]/
//! [`Hypervisor::guest_ram_write`]/[`Hypervisor::guest_ram_read`], and
//! [`Hypervisor::handle_irq`] — which model `arch_handle_hvc()`,
//! `arch_handle_trap()` and `irqchip_handle_irq()` from the paper.
//! Each invokes the installed [`InjectionHook`] on a live register
//! context *before* reading any register, so every campaign sees the
//! handler stream exactly as the instrumented Jailhouse did.

use crate::cell::{Cell, CellId, CellState, ROOT_CELL};
use crate::config::{CellConfig, MemFlags, SystemConfig};
use crate::error::HvError;
use crate::event::{CorruptionTarget, HvEvent};
use crate::hooks::{HandlerKind, HookCtx, InjectionHook};
use crate::hypercall as hc;
use crate::regconv;
use certify_arch::cpu::ParkReason;
use certify_arch::syndrome::{ExceptionClass, Syndrome};
use certify_arch::{CpuId, IrqId, Reg, RegisterFile, NUM_CPUS, SPURIOUS_IRQ};
use certify_board::{memmap, Machine};
use certify_obs::trace::{FlightRecorder, TraceEvent, TraceKind};
use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// Maximum size of a staged configuration blob.
const MAX_BLOB_LEN: u32 = 4096;
/// Size of the executable "code segment" at the start of a cell's
/// first executable region. A corrupted guest resume address inside
/// this window re-enters valid code; outside it, the guest fetches
/// garbage and aborts.
const CODE_SEGMENT_SIZE: u32 = 0x1_0000;

/// What the interrupt handler decided, for the orchestrator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IrqDelivery {
    /// Nothing was pending (spurious acknowledge).
    Spurious,
    /// The handler observed an id mismatch — the predictable "IRQ
    /// error" the paper describes.
    Error,
    /// A management SGI woke a parked CPU (cell boot protocol).
    MgmtWake,
    /// A timer tick for the owning guest.
    Tick,
    /// A shared peripheral interrupt for the owning guest. Neither
    /// guest handles one, so the id is not passed on.
    Guest,
}

/// Number of profiled handler kinds (flat call-count table stride).
const NUM_HANDLERS: usize = HandlerKind::ALL.len();

/// The partitioning hypervisor.
pub struct Hypervisor {
    /// The static platform description (immutable, so clones share it).
    platform: Arc<SystemConfig>,
    enabled: bool,
    cells: Vec<Option<Cell>>,
    cpu_owner: [Option<CellId>; NUM_CPUS],
    boot_entry: [Option<u32>; NUM_CPUS],
    /// Flat per-(CPU, handler) call counters, `cpu * NUM_HANDLERS +
    /// handler` — indexed on every handler entry, so no map lookups on
    /// the hot path.
    call_counts: [u64; NUM_CPUS * NUM_HANDLERS],
    hook: Option<Box<dyn InjectionHook>>,
    events: Vec<HvEvent>,
    /// The trial's flight recorder, if tracing. Every event site in the
    /// stack records through [`Hypervisor::trace`]; `None` is the hot
    /// path: one branch per site, nothing else.
    recorder: Option<FlightRecorder>,
    corruption_notices: Vec<CellId>,
    latent_hv_corruption: bool,
    panic: Option<String>,
}

impl fmt::Debug for Hypervisor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Hypervisor")
            .field("enabled", &self.enabled)
            .field("cells", &self.cells.iter().flatten().count())
            .field("panic", &self.panic)
            .finish()
    }
}

/// Clones the hypervisor's state for snapshotting a fault-free system.
///
/// The static parts are shared, not copied: the platform config, and
/// in each [`Cell`] its config and stage-2 table. Only a clone whose
/// memory fault writes a stage-2 table through
/// [`Hypervisor::cell_stage2_mut`] copies that one table. Everything a
/// trial changes as it runs is copied, and nothing derived from it is
/// cached beside it: cell states, CPU ownership, boot mailboxes, call
/// counts, the event trace and pending corruption notices. The flight
/// recorder is copied too: each clone records into a ring of its own
/// that starts with the original's events and counters.
///
/// # Panics
///
/// Panics if an injection hook is installed: hooks carry per-trial
/// state (RNG, log) that a snapshot must not share, so they are
/// installed into each copy after the clone instead.
impl Clone for Hypervisor {
    fn clone(&self) -> Hypervisor {
        assert!(
            self.hook.is_none(),
            "a hypervisor with an injection hook installed cannot be cloned"
        );
        Hypervisor {
            platform: self.platform.clone(),
            enabled: self.enabled,
            cells: self.cells.clone(),
            cpu_owner: self.cpu_owner,
            boot_entry: self.boot_entry,
            call_counts: self.call_counts,
            hook: None,
            events: self.events.clone(),
            recorder: self.recorder.clone(),
            corruption_notices: self.corruption_notices.clone(),
            latent_hv_corruption: self.latent_hv_corruption,
            panic: self.panic.clone(),
        }
    }
}

impl Hypervisor {
    /// Creates a (disabled) hypervisor for the given platform (owned,
    /// or shared via `Arc` so every system built from one testbed
    /// shares one copy).
    pub fn new(platform: impl Into<Arc<SystemConfig>>) -> Hypervisor {
        Hypervisor {
            platform: platform.into(),
            enabled: false,
            cells: Vec::new(),
            cpu_owner: [None; NUM_CPUS],
            boot_entry: [None; NUM_CPUS],
            call_counts: [0; NUM_CPUS * NUM_HANDLERS],
            hook: None,
            events: Vec::new(),
            recorder: None,
            corruption_notices: Vec::new(),
            latent_hv_corruption: false,
            panic: None,
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Whether the hypervisor has been installed.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The hypervisor panic message, if the hypervisor died.
    pub fn panicked(&self) -> Option<&str> {
        self.panic.as_deref()
    }

    /// The cell with the given id, if it exists.
    pub fn cell(&self, id: CellId) -> Option<&Cell> {
        self.cells.get(id.0 as usize).and_then(|c| c.as_ref())
    }

    /// All live cells.
    pub fn cells(&self) -> impl Iterator<Item = &Cell> {
        self.cells.iter().flatten()
    }

    /// The cell that owns `cpu`, if managed.
    pub fn cpu_owner(&self, cpu: CpuId) -> Option<CellId> {
        self.cpu_owner.get(cpu.0 as usize).copied().flatten()
    }

    /// Pending boot entry for a woken CPU (the per-CPU mailbox the
    /// park loop reads).
    pub fn boot_pending(&self, cpu: CpuId) -> Option<u32> {
        self.boot_entry.get(cpu.0 as usize).copied().flatten()
    }

    /// Calls observed for `handler` on `cpu` (the golden-run profile).
    pub fn call_count(&self, handler: HandlerKind, cpu: CpuId) -> u64 {
        self.call_counts
            .get(cpu.0 as usize * NUM_HANDLERS + handler.index())
            .copied()
            .unwrap_or(0)
    }

    /// All `(handler, cpu, count)` profile rows with a non-zero count,
    /// ordered by handler then CPU.
    pub fn call_counts(&self) -> impl Iterator<Item = (HandlerKind, CpuId, u64)> + '_ {
        HandlerKind::ALL.into_iter().flat_map(move |handler| {
            (0..NUM_CPUS).filter_map(move |cpu| {
                let count = self.call_counts[cpu * NUM_HANDLERS + handler.index()];
                (count > 0).then_some((handler, CpuId(cpu as u32), count))
            })
        })
    }

    /// The structured event trace.
    ///
    /// Console-putc hypercalls are not traced: at one hypercall per
    /// serial byte they would dominate the trace without carrying
    /// classification signal (the bytes themselves are in the UART
    /// capture).
    pub fn events(&self) -> &[HvEvent] {
        &self.events
    }

    /// Attaches a flight recorder for the whole stack: the hypervisor
    /// records handler entries, applied injections, guest traps and CPU
    /// parks; the guests, injectors and orchestrator record their own
    /// events through [`Hypervisor::trace`].
    pub fn set_recorder(&mut self, recorder: FlightRecorder) {
        self.recorder = Some(recorder);
    }

    /// Removes the flight recorder, returning it.
    pub fn take_recorder(&mut self) -> Option<FlightRecorder> {
        self.recorder.take()
    }

    /// The attached flight recorder, if any.
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.recorder.as_ref()
    }

    /// Records `event` into the flight recorder; a no-op without one.
    /// Sites whose event costs anything to build check
    /// [`Hypervisor::recorder`] first.
    pub fn trace(&mut self, event: TraceEvent) {
        if let Some(recorder) = self.recorder.as_mut() {
            recorder.record(event);
        }
    }

    /// Installs a fault-injection hook.
    pub fn set_hook(&mut self, hook: Box<dyn InjectionHook>) {
        self.hook = Some(hook);
    }

    /// The installed hook, if it is an `H`.
    pub fn hook<H: InjectionHook>(&self) -> Option<&H> {
        let hook: &dyn Any = self.hook.as_deref()?;
        hook.downcast_ref()
    }

    /// Whether any corruption notice is queued — an O(1) gate so the
    /// orchestrator only pays for the drain when something happened.
    pub fn has_corruption_notices(&self) -> bool {
        !self.corruption_notices.is_empty()
    }

    /// Drains pending memory-corruption notices (cells whose RAM a
    /// wild store hit). The orchestrator forwards these to the guest
    /// models.
    pub fn take_corruption_notices(&mut self) -> Vec<CellId> {
        std::mem::take(&mut self.corruption_notices)
    }

    /// Registers an externally observed corruption of `cell`'s memory
    /// (a memory-fault injection that hit live data). Delivered to the
    /// guest model through the same [`Self::take_corruption_notices`]
    /// channel as wild hypervisor stores.
    pub fn notify_corruption(&mut self, cell: CellId) {
        self.corruption_notices.push(cell);
    }

    /// The first live non-root cell, if any — the victim of the
    /// non-root-targeting memory-fault campaigns.
    pub fn first_nonroot_cell(&self) -> Option<CellId> {
        self.cells
            .iter()
            .flatten()
            .map(|c| c.id)
            .find(|&id| id != ROOT_CELL)
    }

    /// Mutable access to a cell's stage-2 translation table (memory
    /// fault injection into the MMU tables). Copies the table first if
    /// a clone of this hypervisor still shares it (see
    /// [`Cell::stage2_mut`]).
    pub fn cell_stage2_mut(&mut self, id: CellId) -> Option<&mut certify_arch::Stage2Table> {
        self.cells
            .get_mut(id.0 as usize)
            .and_then(|c| c.as_mut())
            .map(|c| c.stage2_mut())
    }

    // ------------------------------------------------------------------
    // Blob staging helpers (the root-cell driver side)
    // ------------------------------------------------------------------

    /// Writes `[len][bytes…]` into RAM at `addr` — how the root-cell
    /// driver stages a configuration for `HYPERVISOR_ENABLE` /
    /// `CELL_CREATE`.
    pub fn stage_blob(&self, machine: &mut Machine, addr: u32, blob: &[u8]) {
        let ram = machine.ram_mut();
        let _ = ram.write32(addr, blob.len() as u32);
        for (i, byte) in blob.iter().enumerate() {
            let _ = ram.write8(addr + 4 + i as u32, *byte);
        }
    }

    fn read_staged_blob(&self, machine: &Machine, addr: u32) -> Result<Vec<u8>, HvError> {
        if !addr.is_multiple_of(4) {
            return Err(HvError::InvalidArguments);
        }
        let len = machine
            .ram()
            .read32(addr)
            .map_err(|_| HvError::InvalidArguments)?;
        if len == 0 || len > MAX_BLOB_LEN {
            return Err(HvError::InvalidArguments);
        }
        let mut blob = Vec::with_capacity(len as usize);
        // Word-wise copy for the aligned body, byte-wise for the tail
        // (reads exactly the `len` bytes the byte-at-a-time copy did).
        let mut offset = 0;
        while offset + 4 <= len {
            let word = machine
                .ram()
                .read32(addr + 4 + offset)
                .map_err(|_| HvError::InvalidArguments)?;
            blob.extend_from_slice(&word.to_le_bytes());
            offset += 4;
        }
        while offset < len {
            blob.push(
                machine
                    .ram()
                    .read8(addr + 4 + offset)
                    .map_err(|_| HvError::InvalidArguments)?,
            );
            offset += 1;
        }
        Ok(blob)
    }

    // ------------------------------------------------------------------
    // Handler-entry plumbing
    // ------------------------------------------------------------------

    /// Counts the handler entry, emits the optional trace event and
    /// runs the injection hook. Returns whether the hook touched the
    /// register context — `false` means the context is exactly what
    /// the caller set up, so corruption-dependent work can be skipped.
    fn enter_handler(
        &mut self,
        handler: HandlerKind,
        cpu: CpuId,
        step: u64,
        regs: &mut RegisterFile,
    ) -> bool {
        let slot = cpu.0 as usize * NUM_HANDLERS + handler.index();
        self.call_counts[slot] += 1;
        let call_index = self.call_counts[slot];
        self.trace(TraceEvent {
            step,
            cpu: cpu.0,
            kind: TraceKind::HandlerEntry,
            arg_a: handler.index() as u64,
            arg_b: call_index,
        });
        if let Some(hook) = self.hook.as_mut() {
            // Debug builds police the touched contract: a hook that
            // mutates the context without `mark_touched` would have
            // its corruption silently ignored by the fast paths.
            #[cfg(debug_assertions)]
            let snapshot = regs.clone();
            let mut ctx = HookCtx {
                handler,
                cpu,
                step,
                regs,
                touched: false,
            };
            hook.on_handler_entry(&mut ctx);
            let touched = ctx.touched;
            #[cfg(debug_assertions)]
            debug_assert!(
                touched || *regs == snapshot,
                "injection hook mutated the register context without \
                 calling HookCtx::mark_touched"
            );
            if touched {
                self.trace(TraceEvent {
                    step,
                    cpu: cpu.0,
                    kind: TraceKind::InjectionApplied,
                    arg_a: handler.index() as u64,
                    arg_b: call_index,
                });
            }
            touched
        } else {
            false
        }
    }

    /// Verifies the pointer-live registers against their expected
    /// values (precomputed once per handler entry); every mismatch
    /// makes the handler store through the corrupted pointer. Returns
    /// `true` if any pointer was corrupt.
    fn check_pointers(
        &mut self,
        machine: &mut Machine,
        cpu: CpuId,
        regs: &RegisterFile,
        expected_pointers: &[(Reg, u32); 5],
    ) -> bool {
        let mut corrupted = false;
        for &(reg, expected) in expected_pointers {
            let seen = regs.read(reg);
            if seen != expected {
                corrupted = true;
                self.wild_store(machine, cpu, seen);
                if self.panic.is_some() {
                    break;
                }
            }
        }
        corrupted
    }

    /// A store through a corrupted pointer, performed with hypervisor
    /// privileges. Where it lands decides whether the fault stays
    /// latent, corrupts a guest, or kills the hypervisor outright.
    fn wild_store(&mut self, machine: &mut Machine, cpu: CpuId, addr: u32) {
        let step = machine.now();
        let aligned = addr & !3;
        let target = if memmap::in_region(addr, memmap::HV_RAM_BASE, memmap::HV_RAM_SIZE) {
            self.latent_hv_corruption = true;
            let _ = machine.ram_mut().write32(aligned, 0xdead_beef);
            Some(CorruptionTarget::HypervisorState)
        } else if let Some(victim) = self.ram_owner(addr) {
            self.corruption_notices.push(victim);
            let _ = machine.ram_mut().write32(aligned, 0xdead_beef);
            Some(CorruptionTarget::Cell(victim))
        } else if Machine::is_ram(addr) {
            // RAM that currently belongs to no cell: damage without a
            // victim.
            let _ = machine.ram_mut().write32(aligned, 0xdead_beef);
            None
        } else if Machine::decode_device(addr).is_some() {
            // A garbage store to a real device register: absorbed by
            // the device (e.g. a junk character on the UART).
            let _ = machine.write32(aligned, 0xdead_beef);
            None
        } else {
            // An unmapped hole: the hypervisor itself takes a data
            // abort in HYP mode — unrecoverable.
            self.events.push(HvEvent::WildStore {
                cpu,
                addr,
                target: None,
                step,
            });
            self.hyp_panic(machine, format!("HYP data abort at 0x{addr:08x}"));
            return;
        };
        self.events.push(HvEvent::WildStore {
            cpu,
            addr,
            target,
            step,
        });
    }

    /// The cell whose (non-IO) memory contains `addr`, if any.
    fn ram_owner(&self, addr: u32) -> Option<CellId> {
        if !Machine::is_ram(addr) {
            return None;
        }
        for cell in self.cells.iter().flatten() {
            for region in &cell.config.regions {
                if region.contains_addr(addr) && !region.flags.contains(MemFlags::IO) {
                    return Some(cell.id);
                }
            }
        }
        None
    }

    /// Kills the hypervisor: prints a panic banner, parks every CPU.
    fn hyp_panic(&mut self, machine: &mut Machine, message: String) {
        if self.panic.is_some() {
            return;
        }
        let step = machine.now();
        let banner = format!("[hyp] PANIC: {message}\n");
        machine.uart.write_str(&banner, step);
        for i in 0..NUM_CPUS {
            machine
                .cpu_mut(CpuId(i as u32))
                .park(ParkReason::HypervisorPanic);
            self.trace(TraceEvent {
                step,
                cpu: i as u32,
                kind: TraceKind::CpuParked,
                arg_a: ParkReason::HypervisorPanic.code() as u64,
                arg_b: 0,
            });
        }
        self.events.push(HvEvent::HypervisorPanic {
            message: message.clone(),
            step,
        });
        self.panic = Some(message);
    }

    /// Parks a CPU on a fault (Jailhouse's `cpu_park()`) and records
    /// it: a `[hyp] parking` serial line, an [`HvEvent::CpuParked`] and
    /// a trace record. An unhandled trap also marks the owning non-root
    /// cell failed. Only unhandled traps and failed onlines park here;
    /// `hvc_cpu_off`, `reclaim_cell_resources` and `hyp_panic` park on
    /// the machine directly, without the event or the serial line (see
    /// [`HvEvent::CpuParked`]).
    fn park_cpu(&mut self, machine: &mut Machine, cpu: CpuId, reason: ParkReason) {
        let step = machine.now();
        machine.cpu_mut(cpu).park(reason);
        let detail = format!("[hyp] parking {cpu}: {reason}\n");
        machine.uart.write_str(&detail, step);
        self.events.push(HvEvent::CpuParked { cpu, reason, step });
        self.trace(TraceEvent {
            step,
            cpu: cpu.0,
            kind: TraceKind::CpuParked,
            arg_a: reason.code() as u64,
            arg_b: reason.trap_code() as u64,
        });
        if let Some(owner) = self.cpu_owner(cpu) {
            if owner != ROOT_CELL {
                let comm = if let Some(cell) = self
                    .cells
                    .get_mut(owner.0 as usize)
                    .and_then(|c| c.as_mut())
                {
                    if matches!(reason, ParkReason::UnhandledTrap(_)) {
                        cell.mark_failed();
                        self.events.push(HvEvent::CellStateChanged {
                            cell: owner,
                            state: CellState::Failed,
                            step,
                        });
                        cell.comm_region()
                    } else {
                        None
                    }
                } else {
                    None
                };
                if let Some(region) = comm {
                    region.publish_state(machine, CellState::Failed);
                }
            }
        }
    }

    /// If a latent hypervisor-state corruption is pending and a root
    /// CPU just entered the hypervisor, the corruption manifests: the
    /// hypervisor mangles root-cell state.
    fn manifest_latent(&mut self, cpu: CpuId) {
        if self.latent_hv_corruption && self.cpu_owner(cpu) == Some(ROOT_CELL) {
            self.latent_hv_corruption = false;
            self.corruption_notices.push(ROOT_CELL);
        }
    }

    // ------------------------------------------------------------------
    // arch_handle_hvc
    // ------------------------------------------------------------------

    /// The hypervisor-call handler (`arch_handle_hvc()` in the paper).
    ///
    /// Sets up the architectural entry context (arguments in `r0`–`r2`,
    /// live hypervisor pointers per [`regconv`]), fires the injection
    /// hook, then dispatches on the — possibly corrupted — register
    /// values. Returns the errno-style result the guest sees in `r0`.
    pub fn handle_hvc(
        &mut self,
        machine: &mut Machine,
        cpu: CpuId,
        code: u32,
        arg1: u32,
        arg2: u32,
    ) -> i64 {
        if self.panic.is_some() {
            return HvError::NotPermitted.code();
        }
        let step = machine.now();

        let mut regs = machine.cpu(cpu).regs.clone();
        regs.write(Reg::R0, code);
        regs.write(Reg::R1, arg1);
        regs.write(Reg::R2, arg2);
        let owner = self.cpu_owner(cpu);
        let expected = regconv::expected_pointers(cpu, owner.unwrap_or(ROOT_CELL));
        if self.enabled {
            for (reg, value) in expected {
                regs.write(reg, value);
            }
        }

        let touched = self.enter_handler(HandlerKind::ArchHandleHvc, cpu, step, &mut regs);

        // Pointer-integrity: only the installed hypervisor has live
        // pointer state; the pre-enable loader path is minimal. An
        // untouched context still holds the exact values written
        // above, so the check is provably clean and skipped.
        let result =
            if touched && self.enabled && self.check_pointers(machine, cpu, &regs, &expected) {
                // The handler crashed through a wild pointer; the call
                // fails without completing.
                Err(HvError::InvalidArguments)
            } else if self.panic.is_some() {
                Err(HvError::NotPermitted)
            } else {
                let seen_code = regs.read(Reg::R0);
                let seen_arg1 = regs.read(Reg::R1);
                let seen_arg2 = regs.read(Reg::R2);
                self.dispatch_hypercall(machine, cpu, seen_code, seen_arg1, seen_arg2)
            };

        let ret = match result {
            Ok(value) => value,
            Err(e) => e.code(),
        };
        // Console-putc traffic is one hypercall per serial byte; its
        // trace entries carry no classification signal (the bytes land
        // in the UART capture), so they are not recorded.
        let seen_code = regs.read(Reg::R0);
        if seen_code != hc::HVC_DEBUG_CONSOLE_PUTC {
            self.events.push(HvEvent::Hypercall {
                cpu,
                code: seen_code,
                result: ret,
                step,
            });
        }

        // Write back (possibly corrupted) guest-saved registers — an
        // untouched context holds the guest's own values already.
        if touched {
            let guest_regs = &mut machine.cpu_mut(cpu).regs;
            for reg in regconv::GUEST_SAVED {
                guest_regs.write(reg, regs.read(reg));
            }
        }

        self.manifest_latent(cpu);
        ret
    }

    fn dispatch_hypercall(
        &mut self,
        machine: &mut Machine,
        cpu: CpuId,
        code: u32,
        arg1: u32,
        arg2: u32,
    ) -> Result<i64, HvError> {
        match code {
            hc::HVC_HYPERVISOR_GET_INFO => {
                if arg1 != 0 || arg2 != 0 {
                    return Err(HvError::InvalidArguments);
                }
                Ok(self.cells.iter().flatten().count() as i64)
            }
            hc::HVC_HYPERVISOR_ENABLE => self.hvc_enable(machine, cpu, arg1, arg2),
            hc::HVC_HYPERVISOR_DISABLE => self.hvc_disable(cpu, arg1, arg2),
            hc::HVC_CELL_CREATE => self.hvc_cell_create(machine, cpu, arg1, arg2),
            hc::HVC_CELL_SET_LOADABLE => self.hvc_cell_set_loadable(cpu, arg1, arg2),
            hc::HVC_CELL_START => self.hvc_cell_start(machine, cpu, arg1, arg2),
            hc::HVC_CELL_SHUTDOWN => self.hvc_cell_shutdown(machine, cpu, arg1, arg2),
            hc::HVC_CELL_DESTROY => self.hvc_cell_destroy(machine, cpu, arg1, arg2),
            hc::HVC_CELL_GET_STATE => self.hvc_cell_get_state(cpu, arg1, arg2),
            hc::HVC_CPU_GET_INFO => self.hvc_cpu_get_info(machine, arg1, arg2),
            hc::HVC_DEBUG_CONSOLE_PUTC => self.hvc_console_putc(machine, arg1, arg2),
            hc::HVC_CPU_OFF => self.hvc_cpu_off(machine, cpu, arg1, arg2),
            hc::HVC_CPU_BOOT => self.hvc_cpu_boot(machine, cpu, arg1, arg2),
            _ => Err(HvError::UnknownHypercall),
        }
    }

    fn require_enabled(&self) -> Result<(), HvError> {
        if self.enabled {
            Ok(())
        } else {
            Err(HvError::NotPermitted)
        }
    }

    fn require_root_caller(&self, cpu: CpuId) -> Result<(), HvError> {
        if self.cpu_owner(cpu) == Some(ROOT_CELL) {
            Ok(())
        } else {
            Err(HvError::NotPermitted)
        }
    }

    fn hvc_enable(
        &mut self,
        machine: &mut Machine,
        _cpu: CpuId,
        arg1: u32,
        arg2: u32,
    ) -> Result<i64, HvError> {
        if self.enabled {
            return Err(HvError::Busy);
        }
        if arg2 != 0 {
            return Err(HvError::InvalidArguments);
        }
        let blob = self.read_staged_blob(machine, arg1)?;
        let config = SystemConfig::deserialize(&blob)?;
        config.root.validate()?;
        // The staged configuration must describe this platform.
        if config.hv_region != self.platform.hv_region {
            return Err(HvError::InvalidArguments);
        }
        for cpu in &config.root.cpus {
            if cpu.0 as usize >= NUM_CPUS {
                return Err(HvError::InvalidArguments);
            }
        }
        let mut root = Cell::new(ROOT_CELL, config.root.clone());
        root.mark_loaded().expect("fresh cell is loadable");
        root.start().expect("fresh loaded cell starts");
        self.cells = vec![Some(root)];
        for cpu in &config.root.cpus {
            self.cpu_owner[cpu.0 as usize] = Some(ROOT_CELL);
        }
        for irq in &config.root.irqs {
            machine.gic.enable(*irq);
            machine.gic.set_target(*irq, config.root.cpus[0]);
        }
        self.enabled = true;
        let step = machine.now();
        machine.uart.write_str("[hyp] hypervisor enabled\n", step);
        self.events.push(HvEvent::CellStateChanged {
            cell: ROOT_CELL,
            state: CellState::Running,
            step,
        });
        Ok(0)
    }

    fn hvc_disable(&mut self, cpu: CpuId, arg1: u32, arg2: u32) -> Result<i64, HvError> {
        self.require_enabled()?;
        self.require_root_caller(cpu)?;
        if arg1 != 0 || arg2 != 0 {
            return Err(HvError::InvalidArguments);
        }
        if self.cells.iter().flatten().count() > 1 {
            return Err(HvError::Busy);
        }
        self.enabled = false;
        self.cells.clear();
        self.cpu_owner = [None; NUM_CPUS];
        self.boot_entry = [None; NUM_CPUS];
        Ok(0)
    }

    fn hvc_cell_create(
        &mut self,
        machine: &mut Machine,
        cpu: CpuId,
        arg1: u32,
        arg2: u32,
    ) -> Result<i64, HvError> {
        self.require_enabled()?;
        self.require_root_caller(cpu)?;
        if arg2 != 0 {
            return Err(HvError::InvalidArguments);
        }
        // The blob must be staged inside root-cell memory.
        let root_config = &self.cell(ROOT_CELL).expect("root exists").config;
        let in_root_ram = root_config
            .regions
            .iter()
            .any(|r| !r.flags.contains(MemFlags::IO) && r.contains_addr(arg1));
        if !in_root_ram {
            return Err(HvError::InvalidArguments);
        }
        let blob = self.read_staged_blob(machine, arg1)?;
        let config = CellConfig::deserialize(&blob)?;
        self.validate_new_cell(machine, &config)?;

        let id = self.allocate_cell_id();
        for cell_cpu in &config.cpus {
            self.cpu_owner[cell_cpu.0 as usize] = Some(id);
        }
        let step = machine.now();
        let cell = Cell::new(id, config);
        if let Some(region) = cell.comm_region() {
            region.init(machine, CellState::Stopped);
        }
        self.cells[id.0 as usize] = Some(cell);
        self.events.push(HvEvent::CellStateChanged {
            cell: id,
            state: CellState::Stopped,
            step,
        });
        Ok(i64::from(id.0))
    }

    fn validate_new_cell(&self, machine: &Machine, config: &CellConfig) -> Result<(), HvError> {
        config.validate()?;
        if self
            .cells
            .iter()
            .flatten()
            .any(|c| c.config.name == config.name)
        {
            return Err(HvError::AlreadyExists);
        }
        for cell_cpu in &config.cpus {
            let idx = cell_cpu.0 as usize;
            if idx >= NUM_CPUS {
                return Err(HvError::InvalidArguments);
            }
            // CPU 0 must stay with the root cell.
            if cell_cpu.0 == 0 {
                return Err(HvError::InvalidArguments);
            }
            // The CPU must have been offlined (parked) by the root cell
            // first — the hot-plug handover.
            if self.cpu_owner(*cell_cpu) != Some(ROOT_CELL) {
                return Err(HvError::Busy);
            }
            if !machine.cpu(*cell_cpu).is_parked() {
                return Err(HvError::Busy);
            }
        }
        for region in &config.regions {
            if region.overlaps(&self.platform.hv_region) {
                return Err(HvError::InvalidArguments);
            }
            for cell in self.cells.iter().flatten() {
                for existing in &cell.config.regions {
                    if region.overlaps(existing) {
                        // Overlap is only tolerable for emulated
                        // devices and explicitly shared memory.
                        let both_io = region.flags.contains(MemFlags::IO)
                            && existing.flags.contains(MemFlags::IO);
                        let both_shared = region.flags.contains(MemFlags::SHARED)
                            && existing.flags.contains(MemFlags::SHARED);
                        if !(both_io || both_shared) {
                            return Err(HvError::InvalidArguments);
                        }
                    }
                }
            }
        }
        for irq in &config.irqs {
            for cell in self.cells.iter().flatten() {
                if cell.id != ROOT_CELL && cell.config.irqs.contains(irq) {
                    return Err(HvError::Busy);
                }
            }
        }
        Ok(())
    }

    fn allocate_cell_id(&mut self) -> CellId {
        for (i, slot) in self.cells.iter().enumerate().skip(1) {
            if slot.is_none() {
                return CellId(i as u32);
            }
        }
        self.cells.push(None);
        CellId((self.cells.len() - 1) as u32)
    }

    fn cell_mut(&mut self, id: CellId) -> Result<&mut Cell, HvError> {
        self.cells
            .get_mut(id.0 as usize)
            .and_then(|c| c.as_mut())
            .ok_or(HvError::NoSuchCell)
    }

    fn hvc_cell_set_loadable(&mut self, cpu: CpuId, arg1: u32, arg2: u32) -> Result<i64, HvError> {
        self.require_enabled()?;
        self.require_root_caller(cpu)?;
        if arg2 != 0 {
            return Err(HvError::InvalidArguments);
        }
        let id = CellId(arg1);
        if id == ROOT_CELL {
            return Err(HvError::InvalidArguments);
        }
        self.cell_mut(id)?.mark_loaded()?;
        Ok(0)
    }

    fn hvc_cell_start(
        &mut self,
        machine: &mut Machine,
        cpu: CpuId,
        arg1: u32,
        arg2: u32,
    ) -> Result<i64, HvError> {
        self.require_enabled()?;
        self.require_root_caller(cpu)?;
        if arg2 != 0 {
            return Err(HvError::InvalidArguments);
        }
        let id = CellId(arg1);
        if id == ROOT_CELL {
            return Err(HvError::InvalidArguments);
        }
        let step = machine.now();
        let (cpus, irqs, entry, comm) = {
            let cell = self.cell_mut(id)?;
            cell.start()?;
            (
                cell.config.cpus.clone(),
                cell.config.irqs.clone(),
                cell.config.entry,
                cell.comm_region(),
            )
        };
        if let Some(region) = comm {
            region.publish_state(machine, CellState::Running);
        }
        for irq in &irqs {
            machine.gic.enable(*irq);
            machine.gic.set_target(*irq, cpus[0]);
        }
        for cell_cpu in &cpus {
            self.boot_entry[cell_cpu.0 as usize] = Some(entry);
            machine.gic.send_sgi(*cell_cpu, IrqId(memmap::MGMT_SGI));
        }
        self.events.push(HvEvent::CellStateChanged {
            cell: id,
            state: CellState::Running,
            step,
        });
        Ok(0)
    }

    /// Returns a cell's CPUs and interrupt lines to the root cell —
    /// the resource handover the paper verifies after `cell shutdown`.
    fn reclaim_cell_resources(&mut self, machine: &mut Machine, id: CellId) {
        let (cpus, irqs) = match self.cell(id) {
            Some(cell) => (cell.config.cpus.clone(), cell.config.irqs.clone()),
            None => return,
        };
        for cell_cpu in &cpus {
            machine.cpu_mut(*cell_cpu).park(ParkReason::CellShutdown);
            machine.gic.reset_cpu_interface(*cell_cpu);
            self.cpu_owner[cell_cpu.0 as usize] = Some(ROOT_CELL);
            self.boot_entry[cell_cpu.0 as usize] = None;
        }
        for irq in &irqs {
            machine.gic.clear_target(*irq);
            machine.gic.disable(*irq);
        }
    }

    fn hvc_cell_shutdown(
        &mut self,
        machine: &mut Machine,
        cpu: CpuId,
        arg1: u32,
        arg2: u32,
    ) -> Result<i64, HvError> {
        self.require_enabled()?;
        self.require_root_caller(cpu)?;
        if arg2 != 0 {
            return Err(HvError::InvalidArguments);
        }
        let id = CellId(arg1);
        let step = machine.now();
        let comm = {
            let cell = self.cell_mut(id)?;
            cell.shut_down()?;
            cell.comm_region()
        };
        if let Some(region) = comm {
            region.publish_state(machine, CellState::ShutDown);
        }
        self.reclaim_cell_resources(machine, id);
        self.events.push(HvEvent::CellStateChanged {
            cell: id,
            state: CellState::ShutDown,
            step,
        });
        Ok(0)
    }

    fn hvc_cell_destroy(
        &mut self,
        machine: &mut Machine,
        cpu: CpuId,
        arg1: u32,
        arg2: u32,
    ) -> Result<i64, HvError> {
        self.require_enabled()?;
        self.require_root_caller(cpu)?;
        if arg2 != 0 {
            return Err(HvError::InvalidArguments);
        }
        let id = CellId(arg1);
        if id == ROOT_CELL {
            return Err(HvError::InvalidArguments);
        }
        // Existence check before any side effect.
        let regions = self
            .cell(id)
            .ok_or(HvError::NoSuchCell)?
            .config
            .regions
            .clone();
        self.reclaim_cell_resources(machine, id);
        // Scrub the cell's private memory.
        for region in &regions {
            if !region.flags.contains(MemFlags::IO) && !region.flags.contains(MemFlags::SHARED) {
                let _ = machine.ram_mut().zero_range(region.base, region.size);
            }
        }
        let step = machine.now();
        self.cells[id.0 as usize] = None;
        self.events.push(HvEvent::CellStateChanged {
            cell: id,
            state: CellState::ShutDown,
            step,
        });
        Ok(0)
    }

    fn hvc_cell_get_state(&mut self, cpu: CpuId, arg1: u32, arg2: u32) -> Result<i64, HvError> {
        self.require_enabled()?;
        self.require_root_caller(cpu)?;
        if arg2 != 0 {
            return Err(HvError::InvalidArguments);
        }
        let cell = self.cell(CellId(arg1)).ok_or(HvError::NoSuchCell)?;
        Ok(match cell.state() {
            CellState::Stopped => 0,
            CellState::Running => 1,
            CellState::ShutDown => 2,
            CellState::Failed => 3,
        })
    }

    fn hvc_cpu_get_info(
        &mut self,
        machine: &Machine,
        arg1: u32,
        arg2: u32,
    ) -> Result<i64, HvError> {
        self.require_enabled()?;
        if arg2 != 0 || arg1 as usize >= NUM_CPUS {
            return Err(HvError::InvalidArguments);
        }
        Ok(i64::from(machine.cpu(CpuId(arg1)).is_parked()))
    }

    fn hvc_console_putc(
        &mut self,
        machine: &mut Machine,
        arg1: u32,
        arg2: u32,
    ) -> Result<i64, HvError> {
        self.require_enabled()?;
        if arg1 > 0xff || arg2 != 0 {
            return Err(HvError::InvalidArguments);
        }
        let step = machine.now();
        machine.uart.write_reg(memmap::UART_THR_OFFSET, arg1, step);
        Ok(0)
    }

    fn hvc_cpu_off(
        &mut self,
        machine: &mut Machine,
        cpu: CpuId,
        arg1: u32,
        arg2: u32,
    ) -> Result<i64, HvError> {
        self.require_enabled()?;
        self.require_root_caller(cpu)?;
        if arg1 != 0 || arg2 != 0 {
            return Err(HvError::InvalidArguments);
        }
        machine.cpu_mut(cpu).park(ParkReason::Idle);
        Ok(0)
    }

    fn hvc_cpu_boot(
        &mut self,
        machine: &mut Machine,
        cpu: CpuId,
        arg1: u32,
        arg2: u32,
    ) -> Result<i64, HvError> {
        self.require_enabled()?;
        if arg2 != 0 {
            return Err(HvError::InvalidArguments);
        }
        let pending = self.boot_pending(cpu).ok_or(HvError::NotPermitted)?;
        let owner = self.cpu_owner(cpu).ok_or(HvError::NotPermitted)?;
        let cell = self.cell(owner).ok_or(HvError::NoSuchCell)?;
        let entry_ok = cell
            .config
            .regions
            .iter()
            .any(|r| r.contains_addr(arg1) && r.flags.contains(MemFlags::EXECUTE));
        self.boot_entry[cpu.0 as usize] = None;
        if !entry_ok {
            // The CPU fails to come online: the E2 "swap feature of the
            // CPU hot plug" failure. Note the cell stays Running.
            self.park_cpu(machine, cpu, ParkReason::FailedOnline);
            return Err(HvError::InvalidArguments);
        }
        let _ = pending; // The handler trusts its (possibly corrupted) argument.
        machine.cpu_mut(cpu).power_on();
        machine.cpu_mut(cpu).reset_to(arg1);
        machine.timer_mut(cpu).start();
        Ok(i64::from(arg1))
    }

    // ------------------------------------------------------------------
    // arch_handle_trap
    // ------------------------------------------------------------------

    /// A trapped guest MMIO write (`arch_handle_trap()` with a data
    /// abort from a lower exception level).
    pub fn guest_mmio_write(&mut self, machine: &mut Machine, cpu: CpuId, addr: u32, value: u32) {
        let syndrome = Syndrome::mmio_data_abort(true, 2);
        let _ = self.handle_trap(machine, cpu, addr, syndrome, value);
    }

    /// A trapped guest MMIO read. Returns the value read (0 when the
    /// access was denied and the CPU parked).
    pub fn guest_mmio_read(&mut self, machine: &mut Machine, cpu: CpuId, addr: u32) -> u32 {
        let syndrome = Syndrome::mmio_data_abort(false, 2);
        self.handle_trap(machine, cpu, addr, syndrome, 0)
    }

    /// A stage-2-checked direct write: every access is checked by
    /// [`Hypervisor::stage2_allows`] against the cell's live stage-2
    /// table and regions. Permitted accesses go straight to the bus
    /// (RAM or a direct-mapped device such as the root cell's UART);
    /// violations escalate through the trap path.
    pub fn guest_ram_write(&mut self, machine: &mut Machine, cpu: CpuId, addr: u32, value: u32) {
        if self.stage2_allows(cpu, addr, true) {
            let _ = machine.write32(addr, value);
        } else {
            self.guest_mmio_write(machine, cpu, addr, value);
        }
    }

    /// A stage-2-checked direct read, checked like
    /// [`Hypervisor::guest_ram_write`].
    pub fn guest_ram_read(&mut self, machine: &mut Machine, cpu: CpuId, addr: u32) -> u32 {
        if self.stage2_allows(cpu, addr, false) {
            machine.read32(addr).unwrap_or(0)
        } else {
            self.guest_mmio_read(machine, cpu, addr)
        }
    }

    /// Whether the stage-2 translation of `cpu`'s cell maps `addr`
    /// directly (normal memory, correct permission).
    ///
    /// Page-aligned regions are resolved through the cell's stage-2
    /// [`certify_arch::Stage2Table`]; sub-page direct-mapped device
    /// windows fall back to the region list.
    pub fn stage2_allows(&self, cpu: CpuId, addr: u32, write: bool) -> bool {
        let Some(owner) = self.cpu_owner(cpu) else {
            // Unmanaged CPU (hypervisor disabled): no second stage.
            return !self.enabled;
        };
        let Some(cell) = self.cell(owner) else {
            return false;
        };
        let kind = if write {
            certify_arch::AccessKind::Write
        } else {
            certify_arch::AccessKind::Read
        };
        if cell.stage2().translate(addr, kind).is_ok() {
            return true;
        }
        cell.config.regions.iter().any(|r| {
            r.contains_addr(addr)
                && !r.flags.contains(MemFlags::IO)
                && (r.base % certify_arch::mmu::PAGE_SIZE != 0
                    || r.size % certify_arch::mmu::PAGE_SIZE != 0)
                && r.flags.contains(if write {
                    MemFlags::WRITE
                } else {
                    MemFlags::READ
                })
        })
    }

    fn handle_trap(
        &mut self,
        machine: &mut Machine,
        cpu: CpuId,
        far: u32,
        syndrome: Syndrome,
        data: u32,
    ) -> u32 {
        if self.panic.is_some() {
            return 0;
        }
        if !self.enabled {
            // No hypervisor installed: the access hits the bus
            // directly (the root guest runs bare).
            return if syndrome.is_write() {
                let _ = machine.write32(far, data);
                0
            } else {
                machine.read32(far).unwrap_or(0)
            };
        }
        let step = machine.now();
        let owner = self.cpu_owner(cpu).unwrap_or(ROOT_CELL);
        self.trace(TraceEvent {
            step,
            cpu: cpu.0,
            kind: TraceKind::TrapTaken,
            arg_a: syndrome.encode() as u64,
            arg_b: far as u64,
        });

        let mut regs = machine.cpu(cpu).regs.clone();
        let entry_elr = regs.read(Reg::PC);
        regs.write(Reg::R0, far);
        regs.write(Reg::R1, syndrome.encode());
        regs.write(Reg::R2, data);
        let expected = regconv::expected_pointers(cpu, owner);
        for (reg, value) in expected {
            regs.write(reg, value);
        }

        let touched = self.enter_handler(HandlerKind::ArchHandleTrap, cpu, step, &mut regs);

        let mut value = 0;
        if touched && self.check_pointers(machine, cpu, &regs, &expected) {
            // Handler crashed through a wild pointer; the emulation is
            // abandoned and the guest resumed. The damage is latent.
        } else if self.panic.is_none() {
            value = self.dispatch_trap(machine, cpu, &regs);
        }

        if self.panic.is_some() || machine.cpu(cpu).is_parked() {
            return value;
        }

        // Exception return: restore (possibly corrupted) guest-saved
        // registers and check the resume address. An untouched context
        // still holds the guest's own registers and the entry PC, so
        // both steps are no-ops.
        if touched {
            {
                let guest_regs = &mut machine.cpu_mut(cpu).regs;
                for reg in regconv::GUEST_SAVED {
                    guest_regs.write(reg, regs.read(reg));
                }
            }
            let resume = regs.read(Reg::PC);
            if resume != entry_elr {
                self.resume_at_corrupted_pc(machine, cpu, resume);
            }
        }
        value
    }

    /// The guest is resumed at a corrupted address. Inside the owning
    /// cell's code segment execution re-synchronises; anywhere else
    /// the guest immediately faults and the abort is unhandled.
    fn resume_at_corrupted_pc(&mut self, machine: &mut Machine, cpu: CpuId, resume: u32) {
        let owner = self.cpu_owner(cpu).unwrap_or(ROOT_CELL);
        let in_code_segment = self
            .cell(owner)
            .map(|cell| {
                cell.config.regions.iter().any(|r| {
                    r.flags.contains(MemFlags::EXECUTE)
                        && r.contains_addr(resume)
                        && resume - r.base < CODE_SEGMENT_SIZE
                })
            })
            .unwrap_or(false);
        if !in_code_segment {
            self.park_cpu(
                machine,
                cpu,
                ParkReason::UnhandledTrap(ExceptionClass::PrefetchAbortLower.code()),
            );
        }
    }

    fn dispatch_trap(&mut self, machine: &mut Machine, cpu: CpuId, regs: &RegisterFile) -> u32 {
        let step = machine.now();
        let syndrome = Syndrome::decode(regs.read(Reg::R1));
        match syndrome.class {
            ExceptionClass::WfiWfe => {
                machine.cpu_mut(cpu).enter_wfi();
                0
            }
            ExceptionClass::Cp15Trap => 0,
            ExceptionClass::Hvc => {
                // Only reachable through syndrome corruption: dispatch
                // whatever garbage is in the argument registers; the
                // validation layers reject it.
                let result = self.dispatch_hypercall(
                    machine,
                    cpu,
                    regs.read(Reg::R0),
                    regs.read(Reg::R1),
                    regs.read(Reg::R2),
                );
                let ret = match result {
                    Ok(v) => v,
                    Err(e) => e.code(),
                };
                self.events.push(HvEvent::Hypercall {
                    cpu,
                    code: regs.read(Reg::R0),
                    result: ret,
                    step,
                });
                0
            }
            ExceptionClass::DataAbortLower => {
                if !syndrome.isv() || syndrome.access_size().is_none() {
                    self.park_cpu(
                        machine,
                        cpu,
                        ParkReason::UnhandledTrap(ExceptionClass::DataAbortLower.code()),
                    );
                    return 0;
                }
                let addr = regs.read(Reg::R0);
                let owner = self.cpu_owner(cpu).unwrap_or(ROOT_CELL);
                let emulatable = self
                    .cell(owner)
                    .and_then(|cell| cell.config.region_for(addr))
                    .map(|r| r.flags.contains(MemFlags::IO))
                    .unwrap_or(false);
                if !emulatable {
                    self.events
                        .push(HvEvent::AccessViolation { cpu, addr, step });
                    self.park_cpu(
                        machine,
                        cpu,
                        ParkReason::UnhandledTrap(ExceptionClass::DataAbortLower.code()),
                    );
                    return 0;
                }
                if syndrome.is_write() {
                    if machine.write32(addr, regs.read(Reg::R2)).is_err() {
                        // Inside an assigned IO window but no device
                        // decodes there: unhandled.
                        self.park_cpu(
                            machine,
                            cpu,
                            ParkReason::UnhandledTrap(ExceptionClass::DataAbortLower.code()),
                        );
                    }
                    0
                } else {
                    match machine.read32(addr) {
                        Ok(v) => v,
                        Err(_) => {
                            self.park_cpu(
                                machine,
                                cpu,
                                ParkReason::UnhandledTrap(ExceptionClass::DataAbortLower.code()),
                            );
                            0
                        }
                    }
                }
            }
            other => {
                // The paper's signature outcome: an exception class the
                // hypervisor has no handler for — `cpu_park()`.
                self.park_cpu(machine, cpu, ParkReason::UnhandledTrap(other.code()));
                0
            }
        }
    }

    // ------------------------------------------------------------------
    // irqchip_handle_irq
    // ------------------------------------------------------------------

    /// The interrupt handler (`irqchip_handle_irq()` in the paper).
    ///
    /// Acknowledges the highest-priority pending interrupt and routes
    /// it. As the paper notes, the only live parameter is the vector
    /// number in `r0` — corrupting it yields a predictable IRQ error.
    pub fn handle_irq(&mut self, machine: &mut Machine, cpu: CpuId) -> IrqDelivery {
        if self.panic.is_some() {
            return IrqDelivery::Spurious;
        }
        let step = machine.now();
        let actual = machine.gic.acknowledge(cpu);
        if actual == SPURIOUS_IRQ {
            return IrqDelivery::Spurious;
        }

        let mut regs = machine.cpu(cpu).regs.clone();
        regs.write(Reg::R0, u32::from(actual.0));
        self.enter_handler(HandlerKind::IrqchipHandleIrq, cpu, step, &mut regs);
        let seen = IrqId(regs.read(Reg::R0) as u16);

        machine.gic.complete(cpu, actual);
        self.manifest_latent(cpu);

        if seen != actual {
            self.events.push(HvEvent::IrqError {
                cpu,
                seen,
                actual,
                step,
            });
            return IrqDelivery::Error;
        }
        if actual.is_sgi() && actual.0 == memmap::MGMT_SGI {
            IrqDelivery::MgmtWake
        } else if actual.0 == memmap::TIMER_IRQ {
            IrqDelivery::Tick
        } else {
            IrqDelivery::Guest
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled_system() -> (Machine, Hypervisor) {
        let mut machine = Machine::new_banana_pi();
        machine.cpu_mut(CpuId(0)).power_on();
        machine.cpu_mut(CpuId(1)).power_on();
        let platform = SystemConfig::banana_pi_demo();
        let mut hv = Hypervisor::new(platform.clone());
        let addr = memmap::ROOT_RAM_BASE + 0x0100_0000;
        hv.stage_blob(&mut machine, addr, &platform.serialize());
        let ret = hv.handle_hvc(&mut machine, CpuId(0), hc::HVC_HYPERVISOR_ENABLE, addr, 0);
        assert_eq!(ret, 0);
        (machine, hv)
    }

    /// Offline CPU 1, create, load and start the FreeRTOS cell.
    fn with_rtos_cell() -> (Machine, Hypervisor, CellId) {
        let (mut machine, mut hv) = enabled_system();
        assert_eq!(
            hv.handle_hvc(&mut machine, CpuId(1), hc::HVC_CPU_OFF, 0, 0),
            0
        );
        let blob_addr = memmap::ROOT_RAM_BASE + 0x0200_0000;
        hv.stage_blob(
            &mut machine,
            blob_addr,
            &SystemConfig::freertos_cell().serialize(),
        );
        let id = hv.handle_hvc(&mut machine, CpuId(0), hc::HVC_CELL_CREATE, blob_addr, 0);
        assert!(id > 0, "cell_create failed: {id}");
        let id = CellId(id as u32);
        assert_eq!(
            hv.handle_hvc(&mut machine, CpuId(0), hc::HVC_CELL_SET_LOADABLE, id.0, 0),
            0
        );
        assert_eq!(
            hv.handle_hvc(&mut machine, CpuId(0), hc::HVC_CELL_START, id.0, 0),
            0
        );
        (machine, hv, id)
    }

    /// Like [`with_rtos_cell`], but also boots CPU 1 into the cell so
    /// guest accesses can be exercised.
    fn with_running_rtos_cell() -> (Machine, Hypervisor, CellId) {
        let (mut machine, mut hv, id) = with_rtos_cell();
        assert_eq!(hv.handle_irq(&mut machine, CpuId(1)), IrqDelivery::MgmtWake);
        let entry = hv.boot_pending(CpuId(1)).unwrap();
        let ret = hv.handle_hvc(&mut machine, CpuId(1), hc::HVC_CPU_BOOT, entry, 0);
        assert_eq!(ret, i64::from(entry));
        assert!(machine.cpu(CpuId(1)).can_run_guest());
        (machine, hv, id)
    }

    #[test]
    fn enable_requires_valid_blob() {
        let mut machine = Machine::new_banana_pi();
        let platform = SystemConfig::banana_pi_demo();
        let mut hv = Hypervisor::new(platform.clone());
        // Nothing staged: garbage at the address.
        let ret = hv.handle_hvc(
            &mut machine,
            CpuId(0),
            hc::HVC_HYPERVISOR_ENABLE,
            memmap::ROOT_RAM_BASE,
            0,
        );
        assert_eq!(ret, HvError::InvalidArguments.code());
        assert!(!hv.is_enabled());
    }

    #[test]
    fn enable_with_corrupted_address_is_einval_and_side_effect_free() {
        // The E1 mechanism: any bit flip of the blob address makes the
        // enable fail cleanly.
        let mut machine = Machine::new_banana_pi();
        let platform = SystemConfig::banana_pi_demo();
        let mut hv = Hypervisor::new(platform.clone());
        let addr = memmap::ROOT_RAM_BASE + 0x0100_0000;
        hv.stage_blob(&mut machine, addr, &platform.serialize());
        for bit in 0..32 {
            let corrupted = addr ^ (1 << bit);
            let ret = hv.handle_hvc(
                &mut machine,
                CpuId(0),
                hc::HVC_HYPERVISOR_ENABLE,
                corrupted,
                0,
            );
            assert!(ret < 0, "bit {bit}: corrupted enable succeeded");
            assert!(!hv.is_enabled());
        }
        // The pristine address still works afterwards.
        assert_eq!(
            hv.handle_hvc(&mut machine, CpuId(0), hc::HVC_HYPERVISOR_ENABLE, addr, 0),
            0
        );
    }

    #[test]
    fn enable_creates_running_root_cell() {
        let (_machine, hv) = enabled_system();
        let root = hv.cell(ROOT_CELL).unwrap();
        assert_eq!(root.state(), CellState::Running);
        assert_eq!(hv.cpu_owner(CpuId(0)), Some(ROOT_CELL));
        assert_eq!(hv.cpu_owner(CpuId(1)), Some(ROOT_CELL));
    }

    #[test]
    fn cell_create_requires_offline_cpu() {
        let (mut machine, mut hv) = enabled_system();
        let blob_addr = memmap::ROOT_RAM_BASE + 0x0200_0000;
        hv.stage_blob(
            &mut machine,
            blob_addr,
            &SystemConfig::freertos_cell().serialize(),
        );
        // CPU 1 still online and owned by root → busy.
        let ret = hv.handle_hvc(&mut machine, CpuId(0), hc::HVC_CELL_CREATE, blob_addr, 0);
        assert_eq!(ret, HvError::Busy.code());
    }

    #[test]
    fn full_cell_lifecycle() {
        let (mut machine, mut hv, id) = with_rtos_cell();
        assert_eq!(hv.cell(id).unwrap().state(), CellState::Running);
        assert_eq!(hv.cpu_owner(CpuId(1)), Some(id));
        // The start SGI is pending on CPU 1.
        assert!(machine.gic.has_pending(CpuId(1)));
        assert_eq!(
            hv.boot_pending(CpuId(1)),
            Some(SystemConfig::freertos_cell().entry)
        );

        // Boot the CPU into the cell.
        assert_eq!(hv.handle_irq(&mut machine, CpuId(1)), IrqDelivery::MgmtWake);
        let entry = hv.boot_pending(CpuId(1)).unwrap();
        let ret = hv.handle_hvc(&mut machine, CpuId(1), hc::HVC_CPU_BOOT, entry, 0);
        assert_eq!(ret, i64::from(entry));
        assert!(machine.cpu(CpuId(1)).can_run_guest());

        // Shut down: resources return to root.
        assert_eq!(
            hv.handle_hvc(&mut machine, CpuId(0), hc::HVC_CELL_SHUTDOWN, id.0, 0),
            0
        );
        assert_eq!(hv.cell(id).unwrap().state(), CellState::ShutDown);
        assert_eq!(hv.cpu_owner(CpuId(1)), Some(ROOT_CELL));
        assert!(machine.cpu(CpuId(1)).is_parked());

        // Destroy: the slot frees and memory is scrubbed.
        assert_eq!(
            hv.handle_hvc(&mut machine, CpuId(0), hc::HVC_CELL_DESTROY, id.0, 0),
            0
        );
        assert!(hv.cell(id).is_none());
    }

    #[test]
    fn cpu_off_and_cell_shutdown_parks_are_not_recorded() {
        fn recorded_parks(machine: &Machine, hv: &Hypervisor) -> (usize, bool) {
            let events = hv
                .events()
                .iter()
                .filter(|e| matches!(e, HvEvent::CpuParked { .. }))
                .count();
            let logged = machine
                .uart
                .indexed_lines()
                .any(|line| line.contains("[hyp] parking"));
            (events, logged)
        }

        let (mut machine, mut hv) = enabled_system();
        assert_eq!(
            hv.handle_hvc(&mut machine, CpuId(1), hc::HVC_CPU_OFF, 0, 0),
            0
        );
        assert_eq!(machine.cpu(CpuId(1)).park_reason(), Some(ParkReason::Idle));
        assert_eq!(recorded_parks(&machine, &hv), (0, false));

        let (mut machine, mut hv, id) = with_running_rtos_cell();
        assert_eq!(
            hv.handle_hvc(&mut machine, CpuId(0), hc::HVC_CELL_SHUTDOWN, id.0, 0),
            0
        );
        assert_eq!(
            machine.cpu(CpuId(1)).park_reason(),
            Some(ParkReason::CellShutdown)
        );
        assert_eq!(recorded_parks(&machine, &hv), (0, false));
    }

    #[test]
    fn corrupted_boot_entry_fails_online_but_cell_stays_running() {
        // The E2 mechanism.
        let (mut machine, mut hv, id) = with_rtos_cell();
        hv.handle_irq(&mut machine, CpuId(1));
        let entry = hv.boot_pending(CpuId(1)).unwrap();
        // Flip a high bit: the entry leaves the cell's RAM.
        let corrupted = entry ^ (1 << 29);
        let ret = hv.handle_hvc(&mut machine, CpuId(1), hc::HVC_CPU_BOOT, corrupted, 0);
        assert_eq!(ret, HvError::InvalidArguments.code());
        assert_eq!(
            machine.cpu(CpuId(1)).park_reason(),
            Some(ParkReason::FailedOnline)
        );
        // Jailhouse still believes the cell is running — the
        // inconsistent state of E2.
        assert_eq!(hv.cell(id).unwrap().state(), CellState::Running);
        // And shutdown still reclaims everything.
        assert_eq!(
            hv.handle_hvc(&mut machine, CpuId(0), hc::HVC_CELL_SHUTDOWN, id.0, 0),
            0
        );
        assert_eq!(hv.cpu_owner(CpuId(1)), Some(ROOT_CELL));
    }

    #[test]
    fn boot_entry_within_ram_but_wrong_is_trusted() {
        // The other E2 leg: a corrupted-but-plausible entry is accepted
        // (the hypervisor cannot know better) and the guest ends up
        // non-executable.
        let (mut machine, mut hv, _id) = with_rtos_cell();
        hv.handle_irq(&mut machine, CpuId(1));
        let entry = hv.boot_pending(CpuId(1)).unwrap();
        let corrupted = entry ^ (1 << 4); // still in the exec region
        let ret = hv.handle_hvc(&mut machine, CpuId(1), hc::HVC_CPU_BOOT, corrupted, 0);
        assert_eq!(ret, i64::from(corrupted));
    }

    #[test]
    fn mmio_write_to_owned_emulated_device_succeeds() {
        let (mut machine, mut hv, _id) = with_running_rtos_cell();
        // GPIO is IO-flagged for the rtos cell.
        hv.guest_mmio_write(
            &mut machine,
            CpuId(1),
            memmap::GPIO_BASE + memmap::GPIO_DATA_OFFSET,
            1 << memmap::LED_PIN,
        );
        assert!(!machine.cpu(CpuId(1)).is_parked());
        assert_eq!(machine.gpio.toggle_count(memmap::LED_PIN), 1);
    }

    #[test]
    fn mmio_to_unassigned_address_parks_cpu_with_0x24() {
        let (mut machine, mut hv, id) = with_running_rtos_cell();
        // The UART belongs to the root cell only.
        hv.guest_mmio_write(&mut machine, CpuId(1), memmap::UART_BASE, 0x41);
        assert_eq!(
            machine.cpu(CpuId(1)).park_reason(),
            Some(ParkReason::UnhandledTrap(0x24))
        );
        assert_eq!(hv.cell(id).unwrap().state(), CellState::Failed);
        // The park banner went to the serial log.
        let log: String = machine
            .uart
            .lines()
            .into_iter()
            .map(|(_, l)| l)
            .collect::<Vec<_>>()
            .join("\n");
        assert!(log.contains("unhandled trap 0x24"), "log was: {log}");
    }

    #[test]
    fn ram_access_inside_cell_is_direct() {
        let (mut machine, mut hv, _id) = with_running_rtos_cell();
        let addr = memmap::RTOS_RAM_BASE + 0x100;
        hv.guest_ram_write(&mut machine, CpuId(1), addr, 77);
        assert_eq!(hv.guest_ram_read(&mut machine, CpuId(1), addr), 77);
        assert!(!machine.cpu(CpuId(1)).is_parked());
    }

    #[test]
    fn ram_access_across_cells_is_denied_and_parks() {
        let (mut machine, mut hv, _id) = with_running_rtos_cell();
        // The rtos cell reaching into root RAM: isolation violation.
        hv.guest_ram_write(&mut machine, CpuId(1), memmap::ROOT_RAM_BASE + 0x1000, 1);
        assert_eq!(
            machine.cpu(CpuId(1)).park_reason(),
            Some(ParkReason::UnhandledTrap(0x24))
        );
    }

    #[test]
    fn shared_ivshmem_is_accessible_from_both_cells() {
        let (mut machine, mut hv, _id) = with_running_rtos_cell();
        let addr = memmap::IVSHMEM_BASE + 8;
        hv.guest_ram_write(&mut machine, CpuId(1), addr, 0xabcd);
        assert_eq!(hv.guest_ram_read(&mut machine, CpuId(0), addr), 0xabcd);
        assert!(!machine.cpu(CpuId(0)).is_parked());
        assert!(!machine.cpu(CpuId(1)).is_parked());
    }

    #[test]
    fn console_putc_reaches_the_uart() {
        let (mut machine, mut hv, _id) = with_running_rtos_cell();
        let before = machine.uart.byte_count();
        let ret = hv.handle_hvc(
            &mut machine,
            CpuId(1),
            hc::HVC_DEBUG_CONSOLE_PUTC,
            u32::from(b'X'),
            0,
        );
        assert_eq!(ret, 0);
        assert_eq!(machine.uart.byte_count(), before + 1);
    }

    #[test]
    fn console_putc_rejects_out_of_range_char() {
        let (mut machine, mut hv) = enabled_system();
        let ret = hv.handle_hvc(&mut machine, CpuId(0), hc::HVC_DEBUG_CONSOLE_PUTC, 0x1ff, 0);
        assert_eq!(ret, HvError::InvalidArguments.code());
    }

    #[test]
    fn management_calls_from_non_root_cell_are_denied() {
        let (mut machine, mut hv, id) = with_running_rtos_cell();
        // The rtos cell tries to destroy itself / the root.
        let ret = hv.handle_hvc(&mut machine, CpuId(1), hc::HVC_CELL_DESTROY, id.0, 0);
        assert_eq!(ret, HvError::NotPermitted.code());
        let ret = hv.handle_hvc(&mut machine, CpuId(1), hc::HVC_CELL_SHUTDOWN, 0, 0);
        assert_eq!(ret, HvError::NotPermitted.code());
    }

    #[test]
    fn unknown_hypercall_is_rejected() {
        let (mut machine, mut hv) = enabled_system();
        let ret = hv.handle_hvc(&mut machine, CpuId(0), 77, 0, 0);
        assert_eq!(ret, HvError::UnknownHypercall.code());
    }

    /// The first CPU id the board does not have.
    const PAST_LAST_CPU: CpuId = CpuId(NUM_CPUS as u32);

    #[test]
    fn a_cpu_past_the_last_core_is_einval_and_has_no_state() {
        let (mut machine, mut hv) = enabled_system();
        let mut info = |cpu| hv.handle_hvc(&mut machine, CpuId(0), hc::HVC_CPU_GET_INFO, cpu, 0);
        assert_eq!(info(NUM_CPUS as u32 - 1), 0, "the last core is online");
        assert_eq!(info(PAST_LAST_CPU.0), HvError::InvalidArguments.code());
        assert_eq!(hv.call_count(HandlerKind::ArchHandleHvc, CpuId(0)), 3);
        for handler in HandlerKind::ALL {
            assert_eq!(hv.call_count(handler, PAST_LAST_CPU), 0);
        }
        assert_eq!(hv.cpu_owner(PAST_LAST_CPU), None);
        assert_eq!(hv.boot_pending(PAST_LAST_CPU), None);
    }

    #[test]
    fn cell_create_naming_a_cpu_past_the_last_core_is_einval() {
        let (mut machine, mut hv) = enabled_system();
        assert_eq!(
            hv.handle_hvc(&mut machine, CpuId(1), hc::HVC_CPU_OFF, 0, 0),
            0
        );
        let before = hv.cpu_owner;
        let mut config = SystemConfig::freertos_cell();
        config.cpus = vec![PAST_LAST_CPU];
        let blob_addr = memmap::ROOT_RAM_BASE + 0x0200_0000;
        hv.stage_blob(&mut machine, blob_addr, &config.serialize());
        let ret = hv.handle_hvc(&mut machine, CpuId(0), hc::HVC_CELL_CREATE, blob_addr, 0);
        assert_eq!(ret, HvError::InvalidArguments.code());
        assert_eq!(hv.cells().count(), 1, "only the root cell exists");
        assert_eq!(hv.cpu_owner, before);
    }

    #[test]
    fn enable_with_a_root_cpu_past_the_last_core_fails() {
        let mut machine = Machine::new_banana_pi();
        let platform = SystemConfig::banana_pi_demo();
        let mut hv = Hypervisor::new(platform.clone());
        let mut staged = platform;
        staged.root.cpus.push(PAST_LAST_CPU);
        let addr = memmap::ROOT_RAM_BASE + 0x0100_0000;
        hv.stage_blob(&mut machine, addr, &staged.serialize());
        let ret = hv.handle_hvc(&mut machine, CpuId(0), hc::HVC_HYPERVISOR_ENABLE, addr, 0);
        assert_eq!(ret, HvError::InvalidArguments.code());
        assert!(!hv.is_enabled());
        assert_eq!(hv.cpu_owner, [None; NUM_CPUS]);
    }

    #[test]
    fn get_info_works_before_enable() {
        let mut machine = Machine::new_banana_pi();
        let mut hv = Hypervisor::new(SystemConfig::banana_pi_demo());
        assert_eq!(
            hv.handle_hvc(&mut machine, CpuId(0), hc::HVC_HYPERVISOR_GET_INFO, 0, 0),
            0
        );
    }

    #[test]
    fn corrupted_pointer_register_causes_wild_store_and_einval() {
        // Install a hook that corrupts the cell-structure pointer r5 at
        // the next hvc entry, once — the medium-intensity panic-park
        // path.
        #[derive(Debug)]
        struct FlipR5Once {
            fired: bool,
        }
        impl InjectionHook for FlipR5Once {
            fn on_handler_entry(&mut self, ctx: &mut HookCtx<'_>) {
                if ctx.handler == HandlerKind::ArchHandleHvc && !self.fired {
                    self.fired = true;
                    ctx.regs.flip_bit(Reg::R5, 3);
                    ctx.mark_touched();
                }
            }
        }
        let (mut machine, mut hv) = enabled_system();
        hv.set_hook(Box::new(FlipR5Once { fired: false }));
        let ret = hv.handle_hvc(&mut machine, CpuId(0), hc::HVC_HYPERVISOR_GET_INFO, 0, 0);
        assert_eq!(ret, HvError::InvalidArguments.code());
        let wild_stores = hv
            .events()
            .iter()
            .filter(|e| matches!(e, HvEvent::WildStore { .. }))
            .count();
        assert_eq!(wild_stores, 1);
        // The flipped low bit keeps the pointer inside hypervisor
        // memory → latent corruption → root notice at the next root
        // hypervisor entry, which the spent hook leaves untouched.
        hv.handle_hvc(&mut machine, CpuId(0), hc::HVC_HYPERVISOR_GET_INFO, 0, 0);
        assert_eq!(hv.take_corruption_notices(), vec![ROOT_CELL]);
    }

    #[test]
    fn wild_store_to_device_space_panics_the_hypervisor() {
        #[derive(Debug)]
        struct ZeroR13;
        impl InjectionHook for ZeroR13 {
            fn on_handler_entry(&mut self, ctx: &mut HookCtx<'_>) {
                // Stack pointer replaced with an address in an
                // unmapped hole of the physical map.
                ctx.regs.write(Reg::R13, 0x0900_0000);
                ctx.mark_touched();
            }
        }
        let (mut machine, mut hv) = enabled_system();
        hv.set_hook(Box::new(ZeroR13));
        hv.handle_hvc(&mut machine, CpuId(0), hc::HVC_HYPERVISOR_GET_INFO, 0, 0);
        assert!(hv.panicked().is_some());
        assert!(machine.cpu(CpuId(0)).is_parked());
        assert!(machine.cpu(CpuId(1)).is_parked());
    }

    #[test]
    fn corrupted_syndrome_class_parks_with_the_corrupted_code() {
        #[derive(Debug)]
        struct FlipEcBit;
        impl InjectionHook for FlipEcBit {
            fn on_handler_entry(&mut self, ctx: &mut HookCtx<'_>) {
                if ctx.handler == HandlerKind::ArchHandleTrap {
                    // Flip an EC bit of the syndrome in r1: 0x24 -> 0x25.
                    ctx.regs.flip_bit(Reg::R1, 26);
                    ctx.mark_touched();
                }
            }
        }
        let (mut machine, mut hv, _id) = with_rtos_cell();
        hv.set_hook(Box::new(FlipEcBit));
        hv.guest_mmio_write(
            &mut machine,
            CpuId(1),
            memmap::GPIO_BASE + memmap::GPIO_DATA_OFFSET,
            1,
        );
        assert_eq!(
            machine.cpu(CpuId(1)).park_reason(),
            Some(ParkReason::UnhandledTrap(0x25))
        );
    }

    #[test]
    fn irq_vector_corruption_yields_predictable_irq_error() {
        #[derive(Debug)]
        struct FlipR0;
        impl InjectionHook for FlipR0 {
            fn on_handler_entry(&mut self, ctx: &mut HookCtx<'_>) {
                if ctx.handler == HandlerKind::IrqchipHandleIrq {
                    ctx.regs.flip_bit(Reg::R0, 2);
                    ctx.mark_touched();
                }
            }
        }
        let (mut machine, mut hv) = enabled_system();
        machine.timer_mut(CpuId(0)).start();
        for _ in 0..certify_board::machine::DEFAULT_TIMER_PERIOD {
            machine.advance();
        }
        hv.set_hook(Box::new(FlipR0));
        let delivery = hv.handle_irq(&mut machine, CpuId(0));
        assert_eq!(delivery, IrqDelivery::Error);
        assert!(hv
            .events()
            .iter()
            .any(|e| matches!(e, HvEvent::IrqError { .. })));
        // Nothing else went wrong — the predictable behaviour the
        // paper used to justify excluding this handler.
        assert!(!machine.cpu(CpuId(0)).is_parked());
        assert!(hv.panicked().is_none());
    }

    #[test]
    fn profiling_counts_handler_calls() {
        let (mut machine, mut hv) = enabled_system();
        for _ in 0..5 {
            hv.handle_hvc(&mut machine, CpuId(0), hc::HVC_HYPERVISOR_GET_INFO, 0, 0);
        }
        // 5 get_info calls plus the enable call itself.
        assert_eq!(hv.call_count(HandlerKind::ArchHandleHvc, CpuId(0)), 6);
        assert_eq!(hv.call_count(HandlerKind::ArchHandleHvc, CpuId(1)), 0);
        assert_eq!(hv.call_count(HandlerKind::ArchHandleTrap, CpuId(0)), 0);
    }

    #[test]
    fn destroy_scrubs_private_memory() {
        let (mut machine, mut hv, id) = with_rtos_cell();
        let addr = memmap::RTOS_RAM_BASE + 0x40;
        hv.guest_ram_write(&mut machine, CpuId(1), addr, 0x5ec2_e701);
        hv.handle_hvc(&mut machine, CpuId(0), hc::HVC_CELL_DESTROY, id.0, 0);
        assert_eq!(machine.ram().read32(addr).unwrap(), 0);
    }
}
