//! The kernel: ready lists, blocking, delays and the scheduler.
//!
//! Scheduling follows FreeRTOS: fixed priorities, the highest-priority
//! ready task runs, equal-priority tasks round-robin per slice, and
//! the idle hook runs only when nothing else can. The kernel is
//! re-scheduled every slice, so a task made ready by a tick or a queue
//! operation preempts at the next quantum boundary — the same
//! granularity the simulator steps guests at.

use crate::queue::{QueueId, QueueSet, SendOutcome};
use crate::sync::{MutexId, SemaphoreId, SyncSet};
use crate::task::{BlockReason, Priority, SliceResult, TaskCode, TaskEnv, TaskId, TaskState, Tcb};
use certify_hypervisor::GuestCtx;
use std::fmt;

/// A FreeRTOS-like kernel instance.
///
/// Scheduling state is maintained incrementally: per-priority ready
/// lists (ordered least-recently-scheduled first) plus a list of
/// blocked tasks, so each [`Rtos::run_slice`] touches only the blocked
/// tasks and the head of the highest non-empty ready list instead of
/// scanning every TCB twice. This is the kernel's contribution to the
/// sub-millisecond campaign trial budget; the ordering it produces is
/// bit-identical to the historical full-scan scheduler (asserted by
/// the determinism suites).
#[derive(Clone)]
pub struct Rtos {
    name: String,
    tasks: Vec<Tcb>,
    queues: QueueSet,
    sync: SyncSet,
    tick: u64,
    /// Monotonic schedule counter used for round-robin tie-breaking.
    schedule_seq: u64,
    /// Per-task last-scheduled stamp (parallel to `tasks`).
    last_scheduled: Vec<u64>,
    /// Ready lists indexed by priority, each sorted by ascending
    /// last-scheduled stamp (front = next to run at that priority).
    ready: Vec<std::collections::VecDeque<TaskId>>,
    /// Blocked tasks, sorted by task id — wake checks preserve the
    /// historical whole-table scan order without visiting ready TCBs.
    blocked: Vec<TaskId>,
    /// Highest priority index that may hold a ready task (no list
    /// above it is non-empty); lets the picker start its downward scan
    /// at the action instead of the top.
    top_ready: usize,
    /// `(tick, queue version, sync version)` at the end of the last
    /// wake scan; while unchanged, no blocked task's wait condition
    /// can have become true and the scan is skipped.
    wake_stamp: Option<(u64, u64, u64)>,
}

impl fmt::Debug for Rtos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rtos")
            .field("name", &self.name)
            .field("tasks", &self.tasks.len())
            .field("tick", &self.tick)
            .finish()
    }
}

impl Rtos {
    /// Creates an empty kernel.
    pub fn new(name: impl Into<String>) -> Rtos {
        Rtos {
            name: name.into(),
            tasks: Vec::new(),
            queues: QueueSet::new(),
            sync: SyncSet::new(),
            tick: 0,
            schedule_seq: 0,
            last_scheduled: Vec::new(),
            ready: Vec::new(),
            blocked: Vec::new(),
            top_ready: 0,
            wake_stamp: None,
        }
    }

    /// The kernel instance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Spawns a task at the given priority.
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        priority: Priority,
        code: Box<dyn TaskCode>,
    ) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(Tcb {
            id,
            name: name.into(),
            priority,
            boosted: None,
            state: TaskState::Ready,
            block: None,
            slices_run: 0,
            code: Some(code),
        });
        self.last_scheduled.push(0);
        self.enqueue_ready(id, priority);
        id
    }

    /// Creates a queue with the given capacity.
    pub fn create_queue(&mut self, capacity: usize) -> QueueId {
        self.queues.create(capacity)
    }

    /// Creates a mutex (with priority inheritance).
    pub fn create_mutex(&mut self) -> MutexId {
        self.sync.create_mutex()
    }

    /// Creates a counting semaphore.
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero or `initial > max`.
    pub fn create_semaphore(&mut self, initial: u32, max: u32) -> SemaphoreId {
        self.sync.create_semaphore(initial, max)
    }

    /// The synchronisation primitives (statistics).
    pub fn sync(&self) -> &SyncSet {
        &self.sync
    }

    /// Number of spawned tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of tasks at exactly the given priority.
    pub fn tasks_at_priority(&self, priority: Priority) -> usize {
        self.tasks.iter().filter(|t| t.priority == priority).count()
    }

    /// The task record for `id`.
    pub fn task(&self, id: TaskId) -> Option<&Tcb> {
        self.tasks.get(id.0 as usize)
    }

    /// Slices executed by `id`.
    pub fn slices_run(&self, id: TaskId) -> u64 {
        self.task(id).map(|t| t.slices_run).unwrap_or(0)
    }

    /// Total slices executed across all tasks.
    pub fn total_slices(&self) -> u64 {
        self.tasks.iter().map(|t| t.slices_run).sum()
    }

    /// Current kernel tick.
    pub fn tick_count(&self) -> u64 {
        self.tick
    }

    /// The queue set (throughput statistics).
    pub fn queues(&self) -> &QueueSet {
        &self.queues
    }

    /// Advances the kernel tick (called from the cell's timer
    /// interrupt).
    pub fn tick(&mut self) {
        self.tick += 1;
    }

    /// Inserts `id` into the ready list for `priority`, keeping the
    /// list sorted by ascending last-scheduled stamp. Equal stamps only
    /// occur for never-run tasks (stamp 0); inserting *before* equals
    /// reproduces the historical scan's "last of equal candidates
    /// wins" tie-break exactly.
    fn enqueue_ready(&mut self, id: TaskId, priority: Priority) {
        let slot = priority.0 as usize;
        if self.ready.len() <= slot {
            self.ready
                .resize_with(slot + 1, std::collections::VecDeque::new);
        }
        self.top_ready = self.top_ready.max(slot);
        let (ready, stamps) = (&mut self.ready, &self.last_scheduled);
        let stamp = stamps[id.0 as usize];
        let list = &mut ready[slot];
        let pos = list.partition_point(|t| stamps[t.0 as usize] < stamp);
        list.insert(pos, id);
    }

    /// Removes `id` from the ready list for `priority` (present by
    /// invariant when the task's state is `Ready`).
    fn dequeue_ready(&mut self, id: TaskId, priority: Priority) {
        let list = &mut self.ready[priority.0 as usize];
        if let Some(pos) = list.iter().position(|&t| t == id) {
            list.remove(pos);
        }
    }

    /// Pops the next task to run: the least-recently-scheduled head of
    /// the highest non-empty ready list. Scans downward from the
    /// `top_ready` hint.
    fn pop_next(&mut self) -> Option<TaskId> {
        let mut p = self.top_ready.min(self.ready.len().wrapping_sub(1));
        loop {
            if let Some(id) = self.ready.get_mut(p).and_then(|list| list.pop_front()) {
                self.top_ready = p;
                return Some(id);
            }
            if p == 0 {
                return None;
            }
            p -= 1;
        }
    }

    /// Wakes blocked tasks whose wait condition now holds, moving them
    /// to the ready lists. Pending blocked sends are completed by the
    /// kernel (FreeRTOS copies the item on wake). The blocked list is
    /// kept in task-id order, so deferred sends complete in the same
    /// order the historical whole-table scan processed them.
    ///
    /// Wait conditions depend only on the kernel tick and the queue /
    /// sync state, all of which carry change counters — while those
    /// are unchanged since the last scan, the scan is skipped.
    fn wake_eligible(&mut self) {
        let stamp = (self.tick, self.queues.version(), self.sync.version());
        if self.wake_stamp == Some(stamp) {
            return;
        }
        // Record the *pre-scan* stamp: a deferred send completed during
        // the scan bumps the queue version, so the next call re-scans —
        // exactly like the historical one-pass-per-slice behaviour.
        self.wake_stamp = Some(stamp);
        let mut i = 0;
        while i < self.blocked.len() {
            let id = self.blocked[i];
            let block = self.tasks[id.0 as usize].block;
            let wake = match block {
                Some(BlockReason::Delay(until)) => self.tick >= until,
                Some(BlockReason::QueueRecv(q)) => self.queues.has_items(q),
                Some(BlockReason::QueueSend(q, value)) => {
                    if self.queues.has_space(q) {
                        // Complete the deferred send on wake.
                        matches!(self.queues.try_send(q, value), SendOutcome::Sent)
                    } else {
                        false
                    }
                }
                Some(BlockReason::MutexLock(m)) => self.sync.is_free(m),
                Some(BlockReason::SemTake(s)) => self.sync.sem_count(s) > 0,
                None => true,
            };
            if wake {
                self.blocked.remove(i);
                let task = &mut self.tasks[id.0 as usize];
                task.state = TaskState::Ready;
                task.block = None;
                self.enqueue_ready(id, self.tasks[id.0 as usize].effective_priority());
            } else {
                i += 1;
            }
        }
    }

    /// Runs one scheduling quantum: wakes eligible tasks, picks the
    /// next one (the least-recently-scheduled head of the highest
    /// non-empty ready list — identical to the historical full scan
    /// over (effective priority, last-scheduled stamp)) and executes
    /// one slice of it. Returns the task that ran, or `None` if
    /// everything was blocked (the CPU would `WFI`).
    pub fn run_slice(&mut self, ctx: &mut GuestCtx<'_>) -> Option<TaskId> {
        self.wake_eligible();
        let id = self.pop_next()?;
        let idx = id.0 as usize;
        self.schedule_seq += 1;
        self.last_scheduled[idx] = self.schedule_seq;

        let result = {
            // Split borrows: the task body runs against the queue/sync
            // sets while its TCB stays in place (no Box take/put per
            // slice on the campaign hot path).
            let (tasks, queues, sync) = (&mut self.tasks, &mut self.queues, &mut self.sync);
            let task = &mut tasks[idx];
            task.state = TaskState::Running;
            let mut env = TaskEnv {
                ctx,
                tick: self.tick,
                current: id,
                queue_ops: queues,
                sync_ops: sync,
            };
            task.code
                .as_mut()
                .expect("picked task has code")
                .execute_slice(&mut env)
        };

        let task = &mut self.tasks[idx];
        task.slices_run += 1;
        // Fast path: an unboosted task that just yields goes straight
        // to the back of its base-priority list — the overwhelmingly
        // common slice (compute tasks round-robining).
        if matches!(result, SliceResult::Yield) && task.boosted.is_none() {
            task.state = TaskState::Ready;
            let slot = task.priority.0 as usize;
            self.ready[slot].push_back(id);
            return Some(id);
        }
        match result {
            SliceResult::Yield => task.state = TaskState::Ready,
            SliceResult::Delay(ticks) => {
                task.state = TaskState::Blocked;
                task.block = Some(BlockReason::Delay(self.tick + ticks.max(1)));
            }
            SliceResult::BlockOnRecv(q) => {
                task.state = TaskState::Blocked;
                task.block = Some(BlockReason::QueueRecv(q));
            }
            SliceResult::BlockOnSend(q, value) => {
                task.state = TaskState::Blocked;
                task.block = Some(BlockReason::QueueSend(q, value));
            }
            SliceResult::BlockOnMutex(m) => {
                task.state = TaskState::Blocked;
                task.block = Some(BlockReason::MutexLock(m));
                // Priority inheritance: boost the holder to at least
                // the blocked task's effective priority.
                let blocker_priority = task.effective_priority();
                if let Some(holder) = self.sync.holder(m) {
                    let holder_tcb = &mut self.tasks[holder.0 as usize];
                    let old_priority = holder_tcb.effective_priority();
                    if old_priority < blocker_priority {
                        holder_tcb.boosted = Some(blocker_priority);
                        // A boosted *ready* holder moves lists so the
                        // scheduler sees the inherited priority.
                        if self.tasks[holder.0 as usize].state == TaskState::Ready {
                            self.dequeue_ready(holder, old_priority);
                            self.enqueue_ready(holder, blocker_priority);
                        }
                    }
                }
            }
            SliceResult::BlockOnSem(s) => {
                task.state = TaskState::Blocked;
                task.block = Some(BlockReason::SemTake(s));
            }
            SliceResult::Done => {
                task.state = TaskState::Done;
            }
        }

        // Disinheritance: drop the boost once the task holds no mutex.
        if self.tasks[idx].boosted.is_some() && !self.sync.holds_any(id) {
            self.tasks[idx].boosted = None;
        }

        // Re-file the task under its post-slice (and post-disinherit)
        // effective priority. Its fresh stamp is the global maximum, so
        // a ready re-file is a plain push to the back of the list.
        match self.tasks[idx].state {
            TaskState::Ready => {
                let slot = self.tasks[idx].effective_priority().0 as usize;
                if self.ready.len() <= slot {
                    self.ready
                        .resize_with(slot + 1, std::collections::VecDeque::new);
                }
                self.top_ready = self.top_ready.max(slot);
                self.ready[slot].push_back(id);
            }
            TaskState::Blocked => {
                let pos = self.blocked.partition_point(|&t| t < id);
                self.blocked.insert(pos, id);
            }
            TaskState::Running | TaskState::Done => {}
        }
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certify_board::Machine;
    use certify_hypervisor::{Hypervisor, SystemConfig};

    /// A task that yields forever, recording nothing.
    #[derive(Debug, Clone)]
    struct Spin;
    impl TaskCode for Spin {
        fn execute_slice(&mut self, _env: &mut TaskEnv<'_, '_>) -> SliceResult {
            SliceResult::Yield
        }
    }

    /// A task that finishes after `n` slices.
    #[derive(Debug, Clone)]
    struct Finite(u32);
    impl TaskCode for Finite {
        fn execute_slice(&mut self, _env: &mut TaskEnv<'_, '_>) -> SliceResult {
            if self.0 == 0 {
                SliceResult::Done
            } else {
                self.0 -= 1;
                SliceResult::Yield
            }
        }
    }

    /// A task that sleeps `n` ticks every slice.
    #[derive(Debug, Clone)]
    struct Sleeper(u64);
    impl TaskCode for Sleeper {
        fn execute_slice(&mut self, _env: &mut TaskEnv<'_, '_>) -> SliceResult {
            SliceResult::Delay(self.0)
        }
    }

    fn with_ctx<R>(f: impl FnOnce(&mut GuestCtx<'_>) -> R) -> R {
        let mut machine = Machine::new_banana_pi();
        let mut hv = Hypervisor::new(SystemConfig::banana_pi_demo());
        let mut ctx = GuestCtx::new(certify_arch::CpuId(1), &mut machine, &mut hv);
        f(&mut ctx)
    }

    #[test]
    fn highest_priority_runs_first() {
        with_ctx(|ctx| {
            let mut rtos = Rtos::new("t");
            let low = rtos.spawn("low", Priority::LOW, Box::new(Spin));
            let high = rtos.spawn("high", Priority::HIGH, Box::new(Spin));
            for _ in 0..4 {
                assert_eq!(rtos.run_slice(ctx), Some(high));
            }
            assert_eq!(rtos.slices_run(low), 0);
        });
    }

    #[test]
    fn equal_priority_round_robins() {
        with_ctx(|ctx| {
            let mut rtos = Rtos::new("t");
            let a = rtos.spawn("a", Priority::NORMAL, Box::new(Spin));
            let b = rtos.spawn("b", Priority::NORMAL, Box::new(Spin));
            let c = rtos.spawn("c", Priority::NORMAL, Box::new(Spin));
            let mut order = Vec::new();
            for _ in 0..6 {
                order.push(rtos.run_slice(ctx).unwrap());
            }
            // Each task ran exactly twice in two full rotations.
            for id in [a, b, c] {
                assert_eq!(order.iter().filter(|&&x| x == id).count(), 2);
            }
        });
    }

    #[test]
    fn done_tasks_never_run_again() {
        with_ctx(|ctx| {
            let mut rtos = Rtos::new("t");
            let f = rtos.spawn("finite", Priority::NORMAL, Box::new(Finite(2)));
            for _ in 0..3 {
                assert_eq!(rtos.run_slice(ctx), Some(f));
            }
            assert_eq!(rtos.task(f).unwrap().state, TaskState::Done);
            assert_eq!(rtos.run_slice(ctx), None);
        });
    }

    #[test]
    fn delayed_task_wakes_after_ticks() {
        with_ctx(|ctx| {
            let mut rtos = Rtos::new("t");
            let s = rtos.spawn("sleeper", Priority::NORMAL, Box::new(Sleeper(3)));
            assert_eq!(rtos.run_slice(ctx), Some(s));
            // Blocked now.
            assert_eq!(rtos.run_slice(ctx), None);
            rtos.tick();
            rtos.tick();
            assert_eq!(rtos.run_slice(ctx), None);
            rtos.tick();
            assert_eq!(rtos.run_slice(ctx), Some(s));
        });
    }

    #[test]
    fn lower_priority_runs_when_higher_blocks() {
        with_ctx(|ctx| {
            let mut rtos = Rtos::new("t");
            let low = rtos.spawn("low", Priority::LOW, Box::new(Spin));
            let high = rtos.spawn("high", Priority::HIGH, Box::new(Sleeper(10)));
            assert_eq!(rtos.run_slice(ctx), Some(high));
            assert_eq!(rtos.run_slice(ctx), Some(low));
            assert_eq!(rtos.run_slice(ctx), Some(low));
        });
    }

    /// Producer/consumer through a kernel queue, including a blocked
    /// receive that wakes when data arrives.
    #[derive(Debug, Clone)]
    struct Producer {
        q: QueueId,
        next: u32,
    }
    impl TaskCode for Producer {
        fn execute_slice(&mut self, env: &mut TaskEnv<'_, '_>) -> SliceResult {
            match env.try_send(self.q, self.next) {
                SendOutcome::Sent => {
                    self.next += 1;
                    SliceResult::Delay(2)
                }
                SendOutcome::Full => SliceResult::BlockOnSend(self.q, self.next),
                SendOutcome::NoSuchQueue => SliceResult::Done,
            }
        }
    }

    #[derive(Debug, Clone)]
    struct Consumer {
        q: QueueId,
        got: Vec<u32>,
    }
    impl TaskCode for Consumer {
        fn execute_slice(&mut self, env: &mut TaskEnv<'_, '_>) -> SliceResult {
            match env.try_recv(self.q) {
                crate::queue::RecvOutcome::Received(v) => {
                    self.got.push(v);
                    SliceResult::Yield
                }
                crate::queue::RecvOutcome::Empty => SliceResult::BlockOnRecv(self.q),
                crate::queue::RecvOutcome::NoSuchQueue => SliceResult::Done,
            }
        }
    }

    #[test]
    fn queue_blocking_and_waking_end_to_end() {
        with_ctx(|ctx| {
            let mut rtos = Rtos::new("t");
            let q = rtos.create_queue(2);
            rtos.spawn("prod", Priority::NORMAL, Box::new(Producer { q, next: 0 }));
            rtos.spawn(
                "cons",
                Priority::NORMAL,
                Box::new(Consumer { q, got: Vec::new() }),
            );
            for _ in 0..50 {
                rtos.run_slice(ctx);
                rtos.tick();
            }
            assert!(rtos.queues().received_total(q) >= 5);
            // Conservation: nothing received that was not sent.
            assert!(rtos.queues().received_total(q) <= rtos.queues().sent_total(q));
        });
    }

    #[test]
    fn blocked_sender_completes_send_on_wake() {
        with_ctx(|ctx| {
            let mut rtos = Rtos::new("t");
            let q = rtos.create_queue(1);
            // Fill the queue so the producer must block.
            rtos.create_queue(1); // unrelated queue for index separation
            assert_eq!(rtos.queues.try_send(q, 99), SendOutcome::Sent);
            let p = rtos.spawn("prod", Priority::NORMAL, Box::new(Producer { q, next: 7 }));
            assert_eq!(rtos.run_slice(ctx), Some(p));
            assert_eq!(rtos.task(p).unwrap().state, TaskState::Blocked);
            // Drain one item: the kernel completes the pending send on
            // the next scheduling point.
            assert_eq!(
                rtos.queues.try_recv(q),
                crate::queue::RecvOutcome::Received(99)
            );
            rtos.run_slice(ctx);
            assert!(rtos.queues.has_items(q));
            assert_eq!(
                rtos.queues.try_recv(q),
                crate::queue::RecvOutcome::Received(7)
            );
        });
    }

    #[test]
    fn empty_kernel_idles() {
        with_ctx(|ctx| {
            let mut rtos = Rtos::new("t");
            assert_eq!(rtos.run_slice(ctx), None);
        });
    }

    /// A task that locks a mutex, holds it for `hold` slices, then
    /// unlocks and finishes.
    #[derive(Debug, Clone)]
    struct LockHold {
        mutex: MutexId,
        hold: u32,
        locked: bool,
    }
    impl TaskCode for LockHold {
        fn execute_slice(&mut self, env: &mut TaskEnv<'_, '_>) -> SliceResult {
            use crate::sync::LockOutcome;
            if !self.locked {
                match env.try_lock(self.mutex) {
                    LockOutcome::Acquired => {
                        self.locked = true;
                        SliceResult::Yield
                    }
                    LockOutcome::HeldBy(_) => SliceResult::BlockOnMutex(self.mutex),
                    _ => SliceResult::Done,
                }
            } else if self.hold > 0 {
                self.hold -= 1;
                SliceResult::Yield
            } else {
                env.unlock(self.mutex);
                SliceResult::Done
            }
        }
    }

    #[test]
    fn priority_inheritance_prevents_inversion() {
        with_ctx(|ctx| {
            let mut rtos = Rtos::new("t");
            let m = rtos.create_mutex();
            // Low-priority holder takes the lock first.
            let low = rtos.spawn(
                "low",
                Priority::LOW,
                Box::new(LockHold {
                    mutex: m,
                    hold: 3,
                    locked: false,
                }),
            );
            assert_eq!(rtos.run_slice(ctx), Some(low)); // acquires
                                                        // A medium spinner that would normally starve `low`.
            let medium = rtos.spawn("medium", Priority::NORMAL, Box::new(Spin));
            // A high-priority task that needs the same mutex.
            let high = rtos.spawn(
                "high",
                Priority::HIGH,
                Box::new(LockHold {
                    mutex: m,
                    hold: 0,
                    locked: false,
                }),
            );
            assert_eq!(rtos.run_slice(ctx), Some(high)); // blocks on m
            assert_eq!(rtos.task(high).unwrap().state, TaskState::Blocked);
            // `low` must now outrank `medium` thanks to inheritance —
            // without it, `medium` would run here (priority inversion).
            assert_eq!(rtos.task(low).unwrap().effective_priority(), Priority::HIGH);
            for _ in 0..4 {
                assert_eq!(rtos.run_slice(ctx), Some(low), "inversion: medium ran");
            }
            // `low` released the mutex: boost dropped, high wakes and
            // acquires.
            assert_eq!(rtos.task(low).unwrap().effective_priority(), Priority::LOW);
            assert_eq!(rtos.run_slice(ctx), Some(high));
            assert_eq!(rtos.sync().holder(m), Some(high));
            let _ = medium;
        });
    }

    /// Semaphore-based producer/consumer.
    #[derive(Debug, Clone)]
    struct SemTaker {
        sem: crate::sync::SemaphoreId,
        taken: u32,
    }
    impl TaskCode for SemTaker {
        fn execute_slice(&mut self, env: &mut TaskEnv<'_, '_>) -> SliceResult {
            use crate::sync::TakeOutcome;
            match env.sem_take(self.sem) {
                TakeOutcome::Taken => {
                    self.taken += 1;
                    SliceResult::Yield
                }
                TakeOutcome::WouldBlock => SliceResult::BlockOnSem(self.sem),
                TakeOutcome::NoSuchSemaphore => SliceResult::Done,
            }
        }
    }

    #[test]
    fn semaphore_blocks_and_wakes_takers() {
        with_ctx(|ctx| {
            let mut rtos = Rtos::new("t");
            let s = rtos.create_semaphore(1, 4);
            let taker = rtos.spawn(
                "taker",
                Priority::NORMAL,
                Box::new(SemTaker { sem: s, taken: 0 }),
            );
            assert_eq!(rtos.run_slice(ctx), Some(taker)); // takes the token
            assert_eq!(rtos.run_slice(ctx), Some(taker)); // blocks
            assert_eq!(rtos.task(taker).unwrap().state, TaskState::Blocked);
            assert_eq!(rtos.run_slice(ctx), None);
            // Give a token from "ISR context".
            assert!(rtos.sync.sem_give(s));
            assert_eq!(rtos.run_slice(ctx), Some(taker));
        });
    }
}
