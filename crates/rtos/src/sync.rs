//! Mutexes (with priority inheritance) and counting semaphores.
//!
//! FreeRTOS ships both primitives and the paper's "market-leading
//! real-time OS" claim rests on exactly this kind of machinery; the
//! model implements them with FreeRTOS semantics:
//!
//! * a **mutex** has an owner; when a higher-priority task blocks on
//!   an owned mutex, the owner *inherits* the blocked task's priority
//!   until it releases the lock (priority inheritance, FreeRTOS's
//!   anti-priority-inversion mechanism);
//! * a **counting semaphore** is a token pool with no ownership, used
//!   for event counting and resource pools.

use crate::task::TaskId;
use std::fmt;

/// A mutex identifier, unique within one kernel instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MutexId(pub u32);

impl fmt::Display for MutexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mutex{}", self.0)
    }
}

/// A semaphore identifier, unique within one kernel instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SemaphoreId(pub u32);

impl fmt::Display for SemaphoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sem{}", self.0)
    }
}

/// Result of a non-blocking mutex acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockOutcome {
    /// The caller now owns the mutex.
    Acquired,
    /// Someone else owns it; the holder is reported so the kernel can
    /// apply priority inheritance.
    HeldBy(TaskId),
    /// The caller already owns it (recursive acquisition is refused).
    AlreadyOwned,
    /// No such mutex.
    NoSuchMutex,
}

/// Result of a non-blocking semaphore take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TakeOutcome {
    /// A token was taken.
    Taken,
    /// No tokens available.
    WouldBlock,
    /// No such semaphore.
    NoSuchSemaphore,
}

#[derive(Debug, Clone, Default)]
struct Mutex {
    holder: Option<TaskId>,
    /// Total successful acquisitions (contention statistics).
    acquisitions: u64,
    /// Times a task found the mutex held.
    contentions: u64,
}

#[derive(Debug, Clone)]
struct Semaphore {
    count: u32,
    max: u32,
}

/// All mutexes and semaphores of one kernel instance.
#[derive(Debug, Clone, Default)]
pub struct SyncSet {
    mutexes: Vec<Mutex>,
    semaphores: Vec<Semaphore>,
    /// Bumped on every state change; the scheduler skips its blocked
    /// wake scan while tick and the queue/sync versions are unchanged
    /// (a blocked task's wait condition cannot have become true).
    version: u64,
}

impl SyncSet {
    /// Creates an empty set.
    pub fn new() -> SyncSet {
        SyncSet::default()
    }

    /// Creates a mutex.
    pub fn create_mutex(&mut self) -> MutexId {
        self.mutexes.push(Mutex::default());
        MutexId((self.mutexes.len() - 1) as u32)
    }

    /// Creates a counting semaphore with `initial` of `max` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero or `initial > max`.
    pub fn create_semaphore(&mut self, initial: u32, max: u32) -> SemaphoreId {
        assert!(max > 0, "semaphore max must be non-zero");
        assert!(initial <= max, "initial tokens exceed max");
        self.semaphores.push(Semaphore {
            count: initial,
            max,
        });
        SemaphoreId((self.semaphores.len() - 1) as u32)
    }

    /// Attempts to acquire `mutex` for `task`.
    pub fn try_lock(&mut self, mutex: MutexId, task: TaskId) -> LockOutcome {
        match self.mutexes.get_mut(mutex.0 as usize) {
            None => LockOutcome::NoSuchMutex,
            Some(m) => match m.holder {
                None => {
                    m.holder = Some(task);
                    m.acquisitions += 1;
                    self.version += 1;
                    LockOutcome::Acquired
                }
                Some(holder) if holder == task => LockOutcome::AlreadyOwned,
                Some(holder) => {
                    m.contentions += 1;
                    LockOutcome::HeldBy(holder)
                }
            },
        }
    }

    /// Releases `mutex` if `task` owns it. Returns `true` on success.
    pub fn unlock(&mut self, mutex: MutexId, task: TaskId) -> bool {
        match self.mutexes.get_mut(mutex.0 as usize) {
            Some(m) if m.holder == Some(task) => {
                m.holder = None;
                self.version += 1;
                true
            }
            _ => false,
        }
    }

    /// State-change counter (see the field doc).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The current holder of `mutex`.
    pub fn holder(&self, mutex: MutexId) -> Option<TaskId> {
        self.mutexes.get(mutex.0 as usize).and_then(|m| m.holder)
    }

    /// Whether `task` currently holds any mutex (used for
    /// disinheritance).
    pub fn holds_any(&self, task: TaskId) -> bool {
        self.mutexes.iter().any(|m| m.holder == Some(task))
    }

    /// Whether `mutex` is free (a blocked locker can wake and retry).
    pub fn is_free(&self, mutex: MutexId) -> bool {
        self.mutexes
            .get(mutex.0 as usize)
            .map(|m| m.holder.is_none())
            .unwrap_or(false)
    }

    /// Contention count of `mutex`.
    pub fn contentions(&self, mutex: MutexId) -> u64 {
        self.mutexes
            .get(mutex.0 as usize)
            .map(|m| m.contentions)
            .unwrap_or(0)
    }

    /// Attempts to take one token from `sem`.
    pub fn sem_take(&mut self, sem: SemaphoreId) -> TakeOutcome {
        match self.semaphores.get_mut(sem.0 as usize) {
            None => TakeOutcome::NoSuchSemaphore,
            Some(s) if s.count == 0 => TakeOutcome::WouldBlock,
            Some(s) => {
                s.count -= 1;
                self.version += 1;
                TakeOutcome::Taken
            }
        }
    }

    /// Returns one token to `sem`; saturates at the maximum (matching
    /// FreeRTOS's `xSemaphoreGive` failure on a full semaphore).
    /// Returns `true` if the token was accepted.
    pub fn sem_give(&mut self, sem: SemaphoreId) -> bool {
        match self.semaphores.get_mut(sem.0 as usize) {
            Some(s) if s.count < s.max => {
                s.count += 1;
                self.version += 1;
                true
            }
            _ => false,
        }
    }

    /// Tokens currently available in `sem`.
    pub fn sem_count(&self, sem: SemaphoreId) -> u32 {
        self.semaphores
            .get(sem.0 as usize)
            .map(|s| s.count)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_exclusion() {
        let mut sync = SyncSet::new();
        let m = sync.create_mutex();
        assert_eq!(sync.try_lock(m, TaskId(1)), LockOutcome::Acquired);
        assert_eq!(sync.try_lock(m, TaskId(2)), LockOutcome::HeldBy(TaskId(1)));
        assert_eq!(sync.try_lock(m, TaskId(1)), LockOutcome::AlreadyOwned);
        assert!(!sync.unlock(m, TaskId(2)), "non-owner unlocked");
        assert!(sync.unlock(m, TaskId(1)));
        assert_eq!(sync.try_lock(m, TaskId(2)), LockOutcome::Acquired);
    }

    #[test]
    fn contention_statistics() {
        let mut sync = SyncSet::new();
        let m = sync.create_mutex();
        sync.try_lock(m, TaskId(1));
        sync.try_lock(m, TaskId(2));
        sync.try_lock(m, TaskId(3));
        assert_eq!(sync.contentions(m), 2);
    }

    #[test]
    fn semaphore_counts_tokens() {
        let mut sync = SyncSet::new();
        let s = sync.create_semaphore(2, 3);
        assert_eq!(sync.sem_take(s), TakeOutcome::Taken);
        assert_eq!(sync.sem_take(s), TakeOutcome::Taken);
        assert_eq!(sync.sem_take(s), TakeOutcome::WouldBlock);
        assert!(sync.sem_give(s));
        assert_eq!(sync.sem_count(s), 1);
    }

    #[test]
    fn semaphore_give_saturates_at_max() {
        let mut sync = SyncSet::new();
        let s = sync.create_semaphore(3, 3);
        assert!(!sync.sem_give(s));
        assert_eq!(sync.sem_count(s), 3);
    }

    #[test]
    fn missing_primitives_reported() {
        let mut sync = SyncSet::new();
        assert_eq!(
            sync.try_lock(MutexId(0), TaskId(0)),
            LockOutcome::NoSuchMutex
        );
        assert_eq!(sync.sem_take(SemaphoreId(0)), TakeOutcome::NoSuchSemaphore);
        assert!(!sync.sem_give(SemaphoreId(0)));
        assert!(!sync.is_free(MutexId(0)));
    }

    #[test]
    #[should_panic(expected = "initial tokens exceed max")]
    fn bad_semaphore_rejected() {
        let mut sync = SyncSet::new();
        sync.create_semaphore(4, 3);
    }
}
