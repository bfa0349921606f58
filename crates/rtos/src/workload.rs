//! The paper's FreeRTOS workload.
//!
//! §III of the paper: *"within FreeRTOS we spawned several tasks to be
//! managed, including a task to blink an onboard led, a couple of
//! send/receive tasks, two floating-point arithmetic tasks, and
//! fifteen integer ones."*
//!
//! Each task also produces periodic console output (through the
//! hypervisor debug console, i.e. `arch_handle_hvc`) so that the
//! serial log carries a liveness signal per task class — the raw
//! material of the Figure 3 availability classification. The blink
//! task drives the LED through trapped GPIO MMIO, generating the
//! `arch_handle_trap` stream the E3 campaign injects into.

use crate::kernel::Rtos;
use crate::queue::{QueueId, RecvOutcome, SendOutcome};
use crate::task::{Priority, SliceResult, TaskCode, TaskEnv};
use certify_board::memmap;

/// How many integer tasks the paper spawns.
pub const NUM_INTEGER_TASKS: usize = 15;
/// How many floating-point tasks the paper spawns.
pub const NUM_FLOAT_TASKS: usize = 2;
/// Ticks between LED toggles.
pub const BLINK_PERIOD_TICKS: u64 = 1;
/// Console heartbeat period (in slices) for compute tasks.
pub const HEARTBEAT_SLICES: u64 = 64;

/// The LED-blink task: toggles the board LED through (trapped) GPIO
/// MMIO and reports progress on the console.
#[derive(Debug, Clone)]
pub struct BlinkTask {
    toggles: u64,
    level: bool,
}

impl BlinkTask {
    /// Creates the blink task.
    pub fn new() -> BlinkTask {
        BlinkTask {
            toggles: 0,
            level: false,
        }
    }
}

impl Default for BlinkTask {
    fn default() -> Self {
        BlinkTask::new()
    }
}

impl TaskCode for BlinkTask {
    fn execute_slice(&mut self, env: &mut TaskEnv<'_, '_>) -> SliceResult {
        self.level = !self.level;
        self.toggles += 1;
        // Read-modify-write of the GPIO data register: two traps.
        let data_reg = memmap::GPIO_BASE + memmap::GPIO_DATA_OFFSET;
        let current = env.ctx.mmio_read32(data_reg);
        if env.ctx.parked() {
            return SliceResult::Done;
        }
        let mask = 1u32 << memmap::LED_PIN;
        let next = if self.level {
            current | mask
        } else {
            current & !mask
        };
        env.ctx.mmio_write32(data_reg, next);
        if env.ctx.parked() {
            return SliceResult::Done;
        }
        if self.toggles.is_multiple_of(32) {
            env.print_line(&format!("[rtos] blink #{}", self.toggles));
        }
        SliceResult::Delay(BLINK_PERIOD_TICKS)
    }
}

/// The sender half of the paper's send/receive pair.
#[derive(Debug, Clone)]
pub struct SenderTask {
    queue: QueueId,
    next: u32,
}

impl SenderTask {
    /// Creates a sender feeding `queue`.
    pub fn new(queue: QueueId) -> SenderTask {
        SenderTask { queue, next: 0 }
    }
}

impl TaskCode for SenderTask {
    fn execute_slice(&mut self, env: &mut TaskEnv<'_, '_>) -> SliceResult {
        match env.try_send(self.queue, self.next) {
            SendOutcome::Sent => {
                if self.next.is_multiple_of(64) {
                    env.print_line(&format!("[rtos] sent {}", self.next));
                }
                self.next = self.next.wrapping_add(1);
                SliceResult::Delay(1)
            }
            SendOutcome::Full => SliceResult::BlockOnSend(self.queue, self.next),
            SendOutcome::NoSuchQueue => SliceResult::Done,
        }
    }
}

/// The receiver half of the paper's send/receive pair.
#[derive(Debug, Clone)]
pub struct ReceiverTask {
    queue: QueueId,
    received: u64,
    checksum: u32,
}

impl ReceiverTask {
    /// Creates a receiver draining `queue`.
    pub fn new(queue: QueueId) -> ReceiverTask {
        ReceiverTask {
            queue,
            received: 0,
            checksum: 0,
        }
    }
}

impl TaskCode for ReceiverTask {
    fn execute_slice(&mut self, env: &mut TaskEnv<'_, '_>) -> SliceResult {
        match env.try_recv(self.queue) {
            RecvOutcome::Received(v) => {
                self.received += 1;
                self.checksum = self.checksum.wrapping_mul(31).wrapping_add(v);
                if self.received.is_multiple_of(64) {
                    env.print_line(&format!(
                        "[rtos] recv {} sum {:08x}",
                        self.received, self.checksum
                    ));
                }
                SliceResult::Yield
            }
            RecvOutcome::Empty => SliceResult::BlockOnRecv(self.queue),
            RecvOutcome::NoSuchQueue => SliceResult::Done,
        }
    }
}

/// A floating-point arithmetic task: accumulates a Leibniz series and
/// periodically reports the running value.
#[derive(Debug, Clone)]
pub struct FloatTask {
    id: usize,
    term: u64,
    acc: f64,
    slices: u64,
}

impl FloatTask {
    /// Creates the `id`-th float task.
    pub fn new(id: usize) -> FloatTask {
        FloatTask {
            id,
            term: 0,
            acc: 0.0,
            slices: 0,
        }
    }
}

impl TaskCode for FloatTask {
    fn execute_slice(&mut self, env: &mut TaskEnv<'_, '_>) -> SliceResult {
        for _ in 0..16 {
            let sign = if self.term.is_multiple_of(2) {
                1.0
            } else {
                -1.0
            };
            self.acc += sign / (2.0 * self.term as f64 + 1.0);
            self.term += 1;
        }
        self.slices += 1;
        // Heartbeats are staggered per task id so the serial log shows
        // steady liveness instead of lockstep bursts.
        if (self.slices + 29 * self.id as u64).is_multiple_of(HEARTBEAT_SLICES) {
            env.print_line(&format!("[rtos] float{} pi~{:.6}", self.id, self.acc * 4.0));
        }
        SliceResult::Yield
    }
}

/// xorshift iterations one [`IntegerTask`] slice represents.
const PRNG_STEPS_PER_SLICE: u64 = 32;

/// The xorshift32 transition is linear over GF(2), so advancing the
/// stream N steps is a 32×32 bit-matrix application. `JUMP[k]` is the
/// transition matrix raised to the `2^k`-th power (row `i` = the state
/// reached from the unit state `1 << i`), letting [`IntegerTask`]
/// advance its state by any step count in O(32·popcount) instead of
/// looping — the checksum bytes it prints are bit-identical to the
/// step-at-a-time stream.
fn xorshift_jump_table() -> &'static [[u32; 32]; 64] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<Box<[[u32; 32]; 64]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = Box::new([[0u32; 32]; 64]);
        // M^1: column images of the single-step transition.
        for (i, row) in table[0].iter_mut().enumerate() {
            let mut x = 1u32 << i;
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            *row = x;
        }
        for k in 1..64 {
            let prev = table[k - 1];
            let mut next = [0u32; 32];
            for (i, slot) in next.iter_mut().enumerate() {
                *slot = apply_matrix(&prev, prev[i]);
            }
            table[k] = next;
        }
        table
    })
}

/// Applies a xorshift jump matrix to `state`.
fn apply_matrix(matrix: &[u32; 32], state: u32) -> u32 {
    let mut out = 0;
    let mut bits = state;
    while bits != 0 {
        let i = bits.trailing_zeros();
        out ^= matrix[i as usize];
        bits &= bits - 1;
    }
    out
}

/// An integer arithmetic task: runs a xorshift stream and periodically
/// reports a checksum. The stream advances `PRNG_STEPS_PER_SLICE`
/// iterations per slice, applied lazily (via the jump table) only when
/// the checksum is actually observed, so a quiet slice costs a counter
/// increment instead of a 32-iteration dependency chain — the printed
/// bytes are unchanged.
#[derive(Debug, Clone)]
pub struct IntegerTask {
    id: usize,
    state: u32,
    /// Slices whose PRNG steps have not been applied to `state` yet.
    lazy_slices: u64,
    slices: u64,
}

impl IntegerTask {
    /// Creates the `id`-th integer task (seeded distinctly).
    pub fn new(id: usize) -> IntegerTask {
        IntegerTask {
            id,
            state: 0x9e37_79b9 ^ (id as u32).wrapping_mul(0x85eb_ca6b) | 1,
            lazy_slices: 0,
            slices: 0,
        }
    }

    /// Materialises the pending PRNG steps into `state`.
    fn settle_prng(&mut self) {
        let mut steps = self.lazy_slices * PRNG_STEPS_PER_SLICE;
        self.lazy_slices = 0;
        let table = xorshift_jump_table();
        while steps != 0 {
            let k = steps.trailing_zeros();
            self.state = apply_matrix(&table[k as usize], self.state);
            steps &= steps - 1;
        }
    }
}

impl TaskCode for IntegerTask {
    fn execute_slice(&mut self, env: &mut TaskEnv<'_, '_>) -> SliceResult {
        self.lazy_slices += 1;
        self.slices += 1;
        // Staggered like the float tasks: see the comment there.
        if (self.slices + 4 * self.id as u64).is_multiple_of(HEARTBEAT_SLICES) {
            self.settle_prng();
            env.print_line(&format!("[rtos] int{:02} {:08x}", self.id, self.state));
        }
        SliceResult::Yield
    }
}

/// A safety-heartbeat task: posts a monotonically increasing counter
/// into the inter-cell shared memory so the root cell's safety
/// monitor can tell a live cell from a silently dead one (extension
/// experiment E5b — the detection mechanism the paper's outlook asks
/// for).
#[derive(Debug, Clone)]
pub struct HeartbeatTask {
    channel: certify_hypervisor::IvshmemChannel,
    count: u32,
}

impl HeartbeatTask {
    /// Creates the heartbeat task over the board's ivshmem region.
    pub fn new() -> HeartbeatTask {
        HeartbeatTask {
            channel: certify_hypervisor::IvshmemChannel::new(),
            count: 0,
        }
    }
}

impl Default for HeartbeatTask {
    fn default() -> Self {
        HeartbeatTask::new()
    }
}

impl TaskCode for HeartbeatTask {
    fn execute_slice(&mut self, env: &mut TaskEnv<'_, '_>) -> SliceResult {
        self.count = self.count.wrapping_add(1);
        let count = self.count;
        self.channel.post(env.ctx, &[count]);
        if env.ctx.parked() {
            return SliceResult::Done;
        }
        SliceResult::Delay(1)
    }
}

/// The idle task FreeRTOS always runs at the lowest priority.
#[derive(Debug, Clone, Default)]
pub struct IdleTask;

impl TaskCode for IdleTask {
    fn execute_slice(&mut self, _env: &mut TaskEnv<'_, '_>) -> SliceResult {
        SliceResult::Yield
    }
}

/// Spawns the paper's exact task set into `rtos`: one blink task, a
/// send/receive pair over a fresh queue, two floating-point tasks,
/// fifteen integer tasks, plus the idle task.
pub fn spawn_paper_workload(rtos: &mut Rtos) {
    let queue = rtos.create_queue(8);
    rtos.spawn("blink", Priority::HIGH, Box::new(BlinkTask::new()));
    rtos.spawn("sender", Priority::NORMAL, Box::new(SenderTask::new(queue)));
    rtos.spawn(
        "receiver",
        Priority::NORMAL,
        Box::new(ReceiverTask::new(queue)),
    );
    for i in 0..NUM_FLOAT_TASKS {
        rtos.spawn(
            format!("float{i}"),
            Priority::LOW,
            Box::new(FloatTask::new(i)),
        );
    }
    for i in 0..NUM_INTEGER_TASKS {
        rtos.spawn(
            format!("int{i:02}"),
            Priority::LOW,
            Box::new(IntegerTask::new(i)),
        );
    }
    rtos.spawn("idle", Priority::IDLE, Box::new(IdleTask));
}

/// The paper workload plus the E5b safety-heartbeat task (22 tasks).
pub fn spawn_paper_workload_with_heartbeat(rtos: &mut Rtos) {
    spawn_paper_workload(rtos);
    rtos.spawn("heartbeat", Priority::HIGH, Box::new(HeartbeatTask::new()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use certify_arch::CpuId;
    use certify_board::Machine;
    use certify_hypervisor::{GuestCtx, Hypervisor, SystemConfig};

    fn with_ctx<R>(f: impl FnOnce(&mut GuestCtx<'_>) -> R) -> R {
        let mut machine = Machine::new_banana_pi();
        let mut hv = Hypervisor::new(SystemConfig::banana_pi_demo());
        let mut ctx = GuestCtx::new(CpuId(1), &mut machine, &mut hv);
        f(&mut ctx)
    }

    #[test]
    fn paper_workload_has_the_papers_task_mix() {
        let mut rtos = Rtos::new("t");
        spawn_paper_workload(&mut rtos);
        // 1 blink + 2 queue + 2 float + 15 int + idle = 21.
        assert_eq!(rtos.task_count(), 21);
        assert_eq!(rtos.tasks_at_priority(Priority::IDLE), 1);
        assert_eq!(rtos.tasks_at_priority(Priority::HIGH), 1);
        assert_eq!(
            rtos.tasks_at_priority(Priority::LOW),
            NUM_FLOAT_TASKS + NUM_INTEGER_TASKS
        );
    }

    #[test]
    fn integer_tasks_have_distinct_seeds() {
        let states: Vec<u32> = (0..NUM_INTEGER_TASKS)
            .map(|i| IntegerTask::new(i).state)
            .collect();
        let unique: std::collections::HashSet<_> = states.iter().collect();
        assert_eq!(unique.len(), NUM_INTEGER_TASKS);
    }

    /// One step-at-a-time xorshift32 iteration — the reference the
    /// jump table must reproduce exactly.
    fn xorshift_step(mut x: u32) -> u32 {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        x
    }

    #[test]
    fn xorshift_jump_matches_step_at_a_time() {
        let table = xorshift_jump_table();
        for seed in [1u32, 0x9e37_79b9, 0xdead_beef, u32::MAX] {
            // Single-step matrix is exact.
            assert_eq!(apply_matrix(&table[0], seed), xorshift_step(seed));
            // Arbitrary jumps decompose into power-of-two matrices.
            for steps in [1u64, 2, 3, 32, 63, 64, 2048, 4097] {
                let mut looped = seed;
                for _ in 0..steps {
                    looped = xorshift_step(looped);
                }
                let mut jumped = seed;
                let mut remaining = steps;
                while remaining != 0 {
                    let k = remaining.trailing_zeros();
                    jumped = apply_matrix(&table[k as usize], jumped);
                    remaining &= remaining - 1;
                }
                assert_eq!(jumped, looped, "seed {seed:#x} steps {steps}");
            }
        }
    }

    #[test]
    fn integer_task_lazy_stream_matches_eager_stream() {
        // The lazily-advanced task must print exactly the checksum a
        // slice-by-slice PRNG would have reached.
        let mut task = IntegerTask::new(3);
        let seed = task.state;
        for _ in 0..150 {
            task.lazy_slices += 1;
            task.slices += 1;
        }
        task.settle_prng();
        let mut reference = seed;
        for _ in 0..150 * PRNG_STEPS_PER_SLICE {
            reference = xorshift_step(reference);
        }
        assert_eq!(task.state, reference);
        assert_eq!(task.lazy_slices, 0);
    }

    #[test]
    fn float_task_converges_towards_pi() {
        with_ctx(|ctx| {
            let mut task = FloatTask::new(0);
            let mut queues = crate::queue::QueueSet::new();
            let mut sync = crate::sync::SyncSet::new();
            for _ in 0..1000 {
                let mut env = TaskEnv {
                    ctx,
                    tick: 0,
                    current: crate::task::TaskId(0),
                    queue_ops: &mut queues,
                    sync_ops: &mut sync,
                };
                task.execute_slice(&mut env);
            }
            assert!((task.acc * 4.0 - std::f64::consts::PI).abs() < 1e-3);
        });
    }

    #[test]
    fn workload_runs_and_blinks_under_a_real_cell() {
        // Full stack: enabled hypervisor, rtos cell, booted CPU 1.
        use certify_hypervisor::hypercall as hc;
        let mut machine = Machine::new_banana_pi();
        machine.cpu_mut(CpuId(0)).power_on();
        machine.cpu_mut(CpuId(1)).power_on();
        let platform = SystemConfig::banana_pi_demo();
        let mut hv = Hypervisor::new(platform.clone());
        let addr = memmap::ROOT_RAM_BASE + 0x0100_0000;
        hv.stage_blob(&mut machine, addr, &platform.serialize());
        assert_eq!(
            hv.handle_hvc(&mut machine, CpuId(0), hc::HVC_HYPERVISOR_ENABLE, addr, 0),
            0
        );
        assert_eq!(
            hv.handle_hvc(&mut machine, CpuId(1), hc::HVC_CPU_OFF, 0, 0),
            0
        );
        let cell_addr = memmap::ROOT_RAM_BASE + 0x0200_0000;
        hv.stage_blob(
            &mut machine,
            cell_addr,
            &SystemConfig::freertos_cell().serialize(),
        );
        let id = hv.handle_hvc(&mut machine, CpuId(0), hc::HVC_CELL_CREATE, cell_addr, 0);
        assert!(id > 0);
        hv.handle_hvc(
            &mut machine,
            CpuId(0),
            hc::HVC_CELL_SET_LOADABLE,
            id as u32,
            0,
        );
        hv.handle_hvc(&mut machine, CpuId(0), hc::HVC_CELL_START, id as u32, 0);
        hv.handle_irq(&mut machine, CpuId(1));
        let entry = hv.boot_pending(CpuId(1)).unwrap();
        hv.handle_hvc(&mut machine, CpuId(1), hc::HVC_CPU_BOOT, entry, 0);

        let mut rtos = Rtos::new("freertos-demo");
        spawn_paper_workload(&mut rtos);
        for _ in 0..500 {
            machine.advance();
            let mut ctx = GuestCtx::new(CpuId(1), &mut machine, &mut hv);
            rtos.run_slice(&mut ctx);
            rtos.tick();
        }
        assert!(machine.gpio.toggle_count(memmap::LED_PIN) > 10);
        assert!(machine.uart.byte_count() > 0);
        assert!(!machine.cpu(CpuId(1)).is_parked());
        // Handler traffic profile: both trap (GPIO) and hvc (console)
        // streams exist on CPU 1, as the paper's profiling found.
        use certify_hypervisor::HandlerKind;
        assert!(hv.call_count(HandlerKind::ArchHandleTrap, CpuId(1)) > 10);
        assert!(hv.call_count(HandlerKind::ArchHandleHvc, CpuId(1)) > 10);
    }
}
