//! The Linux-like root guest.

use crate::script::{MgmtOp, MgmtRecord, MgmtScript};
use certify_arch::{CpuId, IrqId};
use certify_board::memmap;
use certify_hypervisor::hypercall as hc;
use certify_hypervisor::{CellConfig, Guest, GuestCtx, GuestHealth, SystemConfig};
use std::fmt;
use std::sync::Arc;

/// Root-RAM address where the system configuration blob is staged.
pub const SYS_BLOB_ADDR: u32 = memmap::ROOT_RAM_BASE + 0x0100_0000;
/// Root-RAM address where the cell configuration blob is staged.
pub const CELL_BLOB_ADDR: u32 = memmap::ROOT_RAM_BASE + 0x0200_0000;
/// Steps between heartbeat LED toggles.
pub const HEARTBEAT_PERIOD: u64 = 16;

/// The root-cell guest.
#[derive(Clone)]
pub struct LinuxGuest {
    /// The script program is immutable (only the `pc` cursor below
    /// advances), so campaigns share one `Arc` across all trials.
    script: Arc<MgmtScript>,
    pc: usize,
    wait: u64,
    health: GuestHealth,
    pending_panic: bool,
    boot_line: usize,
    steps: u64,
    heartbeat_level: bool,
    records: Vec<MgmtRecord>,
    pending_offline: Option<CpuId>,
    created_cell: Option<u32>,
    system_blob: Vec<u8>,
    cell_blob: Vec<u8>,
    watchdog_armed: bool,
    monitor: Option<MonitorState>,
    monitor_alarms: Vec<u64>,
}

/// Live state of the E5b heartbeat safety monitor.
#[derive(Debug, Clone, Copy)]
struct MonitorState {
    remaining: u64,
    window: u64,
    last_seq: u32,
    last_change: u64,
}

const BOOT_LINES: [&str; 4] = [
    "[linux] Booting Linux on physical CPU 0x0",
    "[linux] Linux version 5.10.0-jailhouse",
    "[linux] smp: Brought up 1 node, 2 CPUs",
    "[linux] jailhouse: driver registered",
];

impl LinuxGuest {
    /// Creates the root guest with the given management script (owned
    /// or shared via `Arc`). The configuration blobs are serialized
    /// from `platform` / `cell_config` (the driver owns the `.cell`
    /// files).
    pub fn new(
        script: impl Into<Arc<MgmtScript>>,
        platform: &SystemConfig,
        cell_config: &CellConfig,
    ) -> Self {
        Self::with_blobs(script, platform.serialize(), cell_config.serialize())
    }

    /// Like [`LinuxGuest::new`], with the configuration blobs already
    /// serialized — campaigns serialize the fixed platform configs
    /// once and hand each trial a byte copy.
    pub fn with_blobs(
        script: impl Into<Arc<MgmtScript>>,
        system_blob: Vec<u8>,
        cell_blob: Vec<u8>,
    ) -> Self {
        LinuxGuest {
            script: script.into(),
            pc: 0,
            wait: 0,
            health: GuestHealth::Healthy,
            pending_panic: false,
            boot_line: 0,
            steps: 0,
            heartbeat_level: false,
            records: Vec::new(),
            pending_offline: None,
            created_cell: None,
            system_blob,
            cell_blob,
            watchdog_armed: false,
            monitor: None,
            monitor_alarms: Vec::new(),
        }
    }

    /// Steps at which the heartbeat safety monitor raised an alarm.
    pub fn monitor_alarms(&self) -> &[u64] {
        &self.monitor_alarms
    }

    /// Whether the kernel armed the hardware watchdog.
    pub fn watchdog_armed(&self) -> bool {
        self.watchdog_armed
    }

    /// Recorded operation results (the root-side log of the run).
    pub fn records(&self) -> &[MgmtRecord] {
        &self.records
    }

    /// The id of the cell the script created, if any.
    pub fn created_cell(&self) -> Option<u32> {
        self.created_cell
    }

    /// Pops a pending CPU-offline request for the orchestrator: the
    /// idle thread on that CPU must issue `CPU_OFF`.
    pub fn take_offline_request(&mut self) -> Option<CpuId> {
        self.pending_offline.take()
    }

    /// Whether the script has halted.
    pub fn script_done(&self) -> bool {
        self.pc >= self.script.ops.len()
            || matches!(self.script.ops.get(self.pc), Some(MgmtOp::Halt))
    }

    fn uart_print(ctx: &mut GuestCtx<'_>, line: &str) {
        // The root cell owns the UART directly: every byte is a plain
        // (stage-2 mapped) store, no hypervisor involvement.
        for byte in line.bytes() {
            ctx.ram_write32(memmap::UART_BASE + memmap::UART_THR_OFFSET, u32::from(byte));
        }
        ctx.ram_write32(
            memmap::UART_BASE + memmap::UART_THR_OFFSET,
            u32::from(b'\n'),
        );
    }

    fn stage(ctx: &mut GuestCtx<'_>, addr: u32, blob: &[u8]) {
        ctx.ram_write32(addr, blob.len() as u32);
        for (i, chunk) in blob.chunks(4).enumerate() {
            let mut word = [0u8; 4];
            word[..chunk.len()].copy_from_slice(chunk);
            ctx.ram_write32(addr + 4 + 4 * i as u32, u32::from_le_bytes(word));
        }
    }

    /// One heartbeat period's hardware work (the caller gates on
    /// `HEARTBEAT_PERIOD`).
    fn heartbeat(&mut self, ctx: &mut GuestCtx<'_>) {
        if self.watchdog_armed {
            // The kernel's heartbeat path feeds the hardware watchdog:
            // a panicked kernel stops feeding and the dog barks.
            ctx.ram_write32(
                memmap::WDT_BASE + memmap::WDT_CTRL_OFFSET,
                memmap::WDT_RESTART_KEY,
            );
        }
        self.heartbeat_level = !self.heartbeat_level;
        let data_reg = memmap::GPIO_BASE + memmap::GPIO_DATA_OFFSET;
        // Trapped GPIO MMIO: the root cell's arch_handle_trap stream.
        let current = ctx.mmio_read32(data_reg);
        if ctx.parked() {
            return;
        }
        let mask = 1u32 << memmap::ROOT_LED_PIN;
        let next = if self.heartbeat_level {
            current | mask
        } else {
            current & !mask
        };
        ctx.mmio_write32(data_reg, next);
    }

    fn record(&mut self, step: u64, op: MgmtOp, result: i64) {
        self.records.push(MgmtRecord { step, op, result });
    }

    fn execute_op(&mut self, ctx: &mut GuestCtx<'_>) {
        let Some(op) = self.script.ops.get(self.pc).copied() else {
            return;
        };
        let step = ctx.now();
        match op {
            MgmtOp::Delay(n) | MgmtOp::RunFor(n) => {
                self.wait = n;
                self.pc += 1;
            }
            MgmtOp::PollInfo => {
                let ret = ctx.hvc(hc::HVC_HYPERVISOR_GET_INFO, 0, 0);
                self.record(step, op, ret);
                self.pc += 1;
            }
            MgmtOp::StageSystemConfig => {
                let blob = self.system_blob.clone();
                Self::stage(ctx, SYS_BLOB_ADDR, &blob);
                self.record(step, op, 0);
                self.pc += 1;
            }
            MgmtOp::Enable => {
                let ret = ctx.hvc(hc::HVC_HYPERVISOR_ENABLE, SYS_BLOB_ADDR, 0);
                if ret == 0 {
                    Self::uart_print(ctx, "[linux] jailhouse: hypervisor enabled");
                } else {
                    Self::uart_print(
                        ctx,
                        &format!("[linux] jailhouse: enable failed: invalid arguments ({ret})"),
                    );
                }
                self.record(step, op, ret);
                self.pc += 1;
            }
            MgmtOp::RequestCpuOffline(cpu) => {
                self.pending_offline = Some(CpuId(cpu));
                Self::uart_print(ctx, &format!("[linux] smp: CPU{cpu} offlined"));
                self.record(step, op, 0);
                self.pc += 1;
            }
            MgmtOp::WaitCpuParked(cpu) => {
                let ret = ctx.hvc(hc::HVC_CPU_GET_INFO, cpu, 0);
                self.record(step, op, ret);
                if ret == 1 {
                    self.pc += 1;
                }
                // Otherwise retry next step.
            }
            MgmtOp::StageCellConfig => {
                let blob = self.cell_blob.clone();
                Self::stage(ctx, CELL_BLOB_ADDR, &blob);
                self.record(step, op, 0);
                self.pc += 1;
            }
            MgmtOp::CreateCell => {
                let ret = ctx.hvc(hc::HVC_CELL_CREATE, CELL_BLOB_ADDR, 0);
                if ret >= 0 {
                    self.created_cell = Some(ret as u32);
                    Self::uart_print(ctx, &format!("[linux] jailhouse: cell {ret} created"));
                } else {
                    Self::uart_print(
                        ctx,
                        &format!("[linux] jailhouse: cell create failed ({ret})"),
                    );
                }
                self.record(step, op, ret);
                self.pc += 1;
            }
            MgmtOp::LoadCell => {
                let id = self.created_cell.unwrap_or(u32::MAX);
                let ret = ctx.hvc(hc::HVC_CELL_SET_LOADABLE, id, 0);
                self.record(step, op, ret);
                self.pc += 1;
            }
            MgmtOp::StartCell => {
                let id = self.created_cell.unwrap_or(u32::MAX);
                let ret = ctx.hvc(hc::HVC_CELL_START, id, 0);
                if ret == 0 {
                    Self::uart_print(ctx, &format!("[linux] jailhouse: cell {id} started"));
                }
                self.record(step, op, ret);
                self.pc += 1;
            }
            MgmtOp::QueryCellState => {
                let id = self.created_cell.unwrap_or(u32::MAX);
                let ret = ctx.hvc(hc::HVC_CELL_GET_STATE, id, 0);
                let name = match ret {
                    0 => "stopped",
                    1 => "running",
                    2 => "shut down",
                    3 => "failed",
                    _ => "error",
                };
                Self::uart_print(ctx, &format!("[linux] jailhouse: cell {id} is {name}"));
                self.record(step, op, ret);
                self.pc += 1;
            }
            MgmtOp::ShutdownCell => {
                let id = self.created_cell.unwrap_or(u32::MAX);
                let ret = ctx.hvc(hc::HVC_CELL_SHUTDOWN, id, 0);
                if ret == 0 {
                    Self::uart_print(ctx, &format!("[linux] jailhouse: cell {id} shut down"));
                }
                self.record(step, op, ret);
                self.pc += 1;
            }
            MgmtOp::DestroyCell => {
                let id = self.created_cell.unwrap_or(u32::MAX);
                let ret = ctx.hvc(hc::HVC_CELL_DESTROY, id, 0);
                if ret == 0 {
                    self.created_cell = None;
                    Self::uart_print(ctx, &format!("[linux] jailhouse: cell {id} destroyed"));
                }
                self.record(step, op, ret);
                self.pc += 1;
            }
            MgmtOp::ArmWatchdog => {
                ctx.ram_write32(memmap::WDT_BASE + memmap::WDT_MODE_OFFSET, 1);
                ctx.ram_write32(
                    memmap::WDT_BASE + memmap::WDT_CTRL_OFFSET,
                    memmap::WDT_RESTART_KEY,
                );
                Self::uart_print(ctx, "[linux] watchdog: armed");
                self.watchdog_armed = true;
                self.record(step, op, 0);
                self.pc += 1;
            }
            MgmtOp::MonitorFor { steps, window } => {
                let seq = ctx.ram_read32(memmap::IVSHMEM_BASE);
                match &mut self.monitor {
                    None => {
                        self.monitor = Some(MonitorState {
                            remaining: steps,
                            window,
                            last_seq: seq,
                            last_change: step,
                        });
                    }
                    Some(state) => {
                        if seq != state.last_seq {
                            state.last_seq = seq;
                            state.last_change = step;
                        } else if step.saturating_sub(state.last_change) == state.window {
                            // Exactly at the window edge: one alarm per
                            // stall.
                            self.monitor_alarms.push(step);
                            Self::uart_print(ctx, "[linux] safety-monitor: cell heartbeat lost");
                        }
                        if state.remaining == 0 {
                            self.monitor = None;
                            self.record(step, op, 0);
                            self.pc += 1;
                        } else {
                            state.remaining -= 1;
                        }
                    }
                }
            }
            MgmtOp::Restart(target) => {
                self.pc = target.min(self.script.ops.len());
            }
            MgmtOp::Halt => {
                // Stay here.
            }
        }
    }
}

impl fmt::Debug for LinuxGuest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LinuxGuest")
            .field("script", &self.script.name)
            .field("pc", &self.pc)
            .field("health", &self.health)
            .finish()
    }
}

impl Guest for LinuxGuest {
    fn name(&self) -> &str {
        "linux-root"
    }

    fn step(&mut self, ctx: &mut GuestCtx<'_>) {
        if !self.health.is_alive() {
            return;
        }
        if self.pending_panic {
            // A propagated fault corrupted kernel memory: Linux oopses
            // and brings the whole system down — the paper's *panic
            // park*.
            self.pending_panic = false;
            self.health = GuestHealth::Panicked;
            Self::uart_print(ctx, "[linux] Unable to handle kernel paging request");
            Self::uart_print(ctx, "[linux] Kernel panic - not syncing: Fatal exception");
            return;
        }
        self.steps += 1;

        if self.boot_line < BOOT_LINES.len() {
            let line = BOOT_LINES[self.boot_line];
            self.boot_line += 1;
            Self::uart_print(ctx, line);
            return;
        }

        // The heartbeat only touches hardware every HEARTBEAT_PERIOD
        // steps, and a park can only arise from those accesses (an
        // externally parked CPU never enters step() at all) — so the
        // park check is gated to the steps that did I/O.
        if self.steps.is_multiple_of(HEARTBEAT_PERIOD) {
            self.heartbeat(ctx);
            if ctx.parked() {
                self.health = GuestHealth::HardFault;
                return;
            }
        }

        if self.wait > 0 {
            self.wait -= 1;
            return;
        }
        self.execute_op(ctx);
        if ctx.parked() {
            self.health = GuestHealth::HardFault;
        }
    }

    fn on_tick(&mut self, _ctx: &mut GuestCtx<'_>) {
        // The root guest's scheduling is driven by step(); ticks keep
        // the timer stream (and thus irqchip profiling traffic) alive.
    }

    fn on_irq(&mut self, _irq: IrqId, _ctx: &mut GuestCtx<'_>) {}

    fn on_reset(&mut self, _entry: u32) {
        // The root guest boots with the machine; nothing to do.
    }

    fn on_memory_corrupted(&mut self) {
        if self.health.is_alive() {
            self.pending_panic = true;
        }
    }

    fn health(&self) -> GuestHealth {
        self.health
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certify_board::Machine;
    use certify_hypervisor::Hypervisor;

    fn new_system() -> (Machine, Hypervisor, LinuxGuest) {
        let mut machine = Machine::new_banana_pi();
        machine.cpu_mut(CpuId(0)).power_on();
        machine.cpu_mut(CpuId(1)).power_on();
        let platform = SystemConfig::banana_pi_demo();
        let hv = Hypervisor::new(platform.clone());
        let guest = LinuxGuest::new(
            MgmtScript::bring_up_and_run(100),
            &platform,
            &SystemConfig::freertos_cell(),
        );
        (machine, hv, guest)
    }

    /// Drives only the root guest (plus the CPU_OFF handshake) until
    /// the script reaches `Halt` or `max_steps` elapse.
    fn drive(machine: &mut Machine, hv: &mut Hypervisor, guest: &mut LinuxGuest, max_steps: u64) {
        for _ in 0..max_steps {
            machine.advance();
            {
                let mut ctx = GuestCtx::new(CpuId(0), machine, hv);
                guest.step(&mut ctx);
            }
            if let Some(cpu) = guest.take_offline_request() {
                hv.handle_hvc(machine, cpu, hc::HVC_CPU_OFF, 0, 0);
            }
            if guest.script_done() {
                break;
            }
        }
    }

    #[test]
    fn boot_banner_appears_on_uart() {
        let (mut machine, mut hv, mut guest) = new_system();
        drive(&mut machine, &mut hv, &mut guest, 6);
        assert!(machine
            .uart
            .indexed_lines()
            .any(|l| l.contains("Booting Linux")));
    }

    #[test]
    fn script_brings_up_the_cell() {
        let (mut machine, mut hv, mut guest) = new_system();
        drive(&mut machine, &mut hv, &mut guest, 400);
        assert!(hv.is_enabled());
        assert_eq!(guest.created_cell(), Some(1));
        let cell = hv.cell(certify_hypervisor::CellId(1)).unwrap();
        assert_eq!(cell.state(), certify_hypervisor::CellState::Running);
        // Every management hypercall succeeded.
        for record in guest.records() {
            assert!(
                record.result >= 0,
                "op {} failed with {}",
                record.op,
                record.result
            );
        }
    }

    #[test]
    fn corruption_notice_causes_kernel_panic_on_next_step() {
        let (mut machine, mut hv, mut guest) = new_system();
        drive(&mut machine, &mut hv, &mut guest, 10);
        guest.on_memory_corrupted();
        {
            let mut ctx = GuestCtx::new(CpuId(0), &mut machine, &mut hv);
            guest.step(&mut ctx);
        }
        assert_eq!(guest.health(), GuestHealth::Panicked);
        assert!(machine
            .uart
            .indexed_lines()
            .any(|l| l.contains("Kernel panic - not syncing")));
        // A panicked kernel makes no further progress.
        let bytes = machine.uart.byte_count();
        {
            let mut ctx = GuestCtx::new(CpuId(0), &mut machine, &mut hv);
            guest.step(&mut ctx);
        }
        assert_eq!(machine.uart.byte_count(), bytes);
    }

    #[test]
    fn heartbeat_led_toggles() {
        let (mut machine, mut hv, mut guest) = new_system();
        drive(&mut machine, &mut hv, &mut guest, 200);
        assert!(machine.gpio.toggle_count(memmap::ROOT_LED_PIN) > 2);
    }

    #[test]
    fn enable_attempt_script_records_einval_on_corrupted_blob() {
        // Stage, then corrupt the staged blob before the enable: the
        // enable records -22 and the hypervisor stays disabled.
        let mut machine = Machine::new_banana_pi();
        machine.cpu_mut(CpuId(0)).power_on();
        let platform = SystemConfig::banana_pi_demo();
        let mut hv = Hypervisor::new(platform.clone());
        let mut guest = LinuxGuest::new(
            MgmtScript::enable_attempt(0),
            &platform,
            &SystemConfig::freertos_cell(),
        );
        // Run past boot + delay + staging.
        for _ in 0..14 {
            machine.advance();
            let mut ctx = GuestCtx::new(CpuId(0), &mut machine, &mut hv);
            guest.step(&mut ctx);
        }
        // Corrupt one staged byte.
        let b = machine.ram().read8(SYS_BLOB_ADDR + 4).unwrap();
        machine.ram_mut().write8(SYS_BLOB_ADDR + 4, b ^ 1).unwrap();
        for _ in 0..200 {
            machine.advance();
            let mut ctx = GuestCtx::new(CpuId(0), &mut machine, &mut hv);
            guest.step(&mut ctx);
            if guest.script_done() {
                break;
            }
        }
        let enable = guest
            .records()
            .iter()
            .find(|r| matches!(r.op, MgmtOp::Enable))
            .expect("enable attempted");
        assert_eq!(
            enable.result,
            certify_hypervisor::HvError::InvalidArguments.code()
        );
        assert!(!hv.is_enabled());
        assert!(machine
            .uart
            .indexed_lines()
            .any(|l| l.contains("invalid arguments")));
    }
}
