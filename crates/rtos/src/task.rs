//! Tasks: control blocks, priorities, states and the slice-execution
//! contract.

use crate::queue::QueueId;
use certify_hypervisor::GuestCtx;
use std::fmt;

/// A task identifier, unique within one kernel instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u32);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// A fixed task priority; higher values preempt lower ones
/// (FreeRTOS convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Priority(pub u8);

impl Priority {
    /// The idle task's priority (lowest).
    pub const IDLE: Priority = Priority(0);
    /// Default priority for background compute tasks.
    pub const LOW: Priority = Priority(1);
    /// Default priority for periodic I/O tasks.
    pub const NORMAL: Priority = Priority(2);
    /// Default priority for latency-sensitive tasks.
    pub const HIGH: Priority = Priority(3);
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prio{}", self.0)
    }
}

/// Lifecycle state of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskState {
    /// Runnable, waiting in a ready list.
    Ready,
    /// Currently executing.
    Running,
    /// Blocked (delay or queue), with the reason held by the kernel.
    Blocked,
    /// Finished; will not run again.
    Done,
}

/// Why a task is blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// Sleeping until the given kernel tick.
    Delay(u64),
    /// Waiting for an item on a queue.
    QueueRecv(QueueId),
    /// Waiting for space on a queue, holding the value to deliver.
    QueueSend(QueueId, u32),
}

/// What a task slice decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceResult {
    /// Keep the task ready; run again when scheduled.
    Yield,
    /// Sleep for the given number of ticks.
    Delay(u64),
    /// Block until an item can be received from the queue.
    BlockOnRecv(QueueId),
    /// Block until the value can be sent to the queue.
    BlockOnSend(QueueId, u32),
    /// The task has finished.
    Done,
}

/// Services available to a task during one slice: the guest context
/// (hypercalls, MMIO, shared memory) plus kernel-mediated queue
/// operations.
pub struct TaskEnv<'a, 'b> {
    /// The cell's execution context.
    pub ctx: &'a mut GuestCtx<'b>,
    pub(crate) queue_ops: &'a mut crate::queue::QueueSet,
}

impl TaskEnv<'_, '_> {
    /// Attempts a non-blocking send.
    pub fn try_send(&mut self, queue: QueueId, value: u32) -> crate::queue::SendOutcome {
        self.queue_ops.try_send(queue, value)
    }

    /// Attempts a non-blocking receive.
    pub fn try_recv(&mut self, queue: QueueId) -> crate::queue::RecvOutcome {
        self.queue_ops.try_recv(queue)
    }

    /// Prints a line through the hypervisor debug console.
    pub fn print_line(&mut self, line: &str) {
        self.ctx.console_print(line);
        self.ctx.console_print("\n");
    }
}

impl fmt::Debug for TaskEnv<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskEnv").finish_non_exhaustive()
    }
}

/// A task body: called one slice at a time by the scheduler.
///
/// Task bodies are plain `Clone` data, so a whole kernel — and with it
/// a running system — can be snapshotted and forked.
pub trait TaskCode: fmt::Debug + CloneTask + Send + Sync {
    /// Executes one scheduling quantum and reports what to do next.
    fn execute_slice(&mut self, env: &mut TaskEnv<'_, '_>) -> SliceResult;
}

/// Clones a boxed [`TaskCode`]; implemented for every `Clone` task.
pub trait CloneTask {
    /// A boxed copy of this task body.
    fn clone_box(&self) -> Box<dyn TaskCode>;
}

impl<T: TaskCode + Clone + 'static> CloneTask for T {
    fn clone_box(&self) -> Box<dyn TaskCode> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn TaskCode> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The kernel-side task record.
#[derive(Debug, Clone)]
pub struct Tcb {
    /// Task id.
    pub id: TaskId,
    /// Fixed priority; the task is always filed under it.
    pub priority: Priority,
    /// Current state.
    pub state: TaskState,
    /// Block reason when [`TaskState::Blocked`].
    pub block: Option<BlockReason>,
    /// Completed slices (a progress measure for the analysis crate).
    pub slices_run: u64,
    /// The task body.
    pub code: Box<dyn TaskCode>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_ordering_is_numeric() {
        assert!(Priority::HIGH > Priority::NORMAL);
        assert!(Priority::NORMAL > Priority::LOW);
        assert!(Priority::LOW > Priority::IDLE);
    }

    #[test]
    fn display_forms() {
        assert_eq!(TaskId(3).to_string(), "task3");
        assert_eq!(Priority::HIGH.to_string(), "prio3");
    }
}
