//! Bounded FIFO queues with FreeRTOS-style blocking semantics.
//!
//! Queues carry `u32` items (the paper's send/receive tasks exchange
//! counters). Tasks interact through [`QueueSet::try_send`] /
//! [`QueueSet::try_recv`]; when an operation would block, the task
//! returns the corresponding [`crate::task::SliceResult`] and the
//! kernel moves it to the blocked set until the queue can make
//! progress.

use std::collections::VecDeque;
use std::fmt;

/// A queue identifier, unique within one kernel instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueueId(pub u32);

impl fmt::Display for QueueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "queue{}", self.0)
    }
}

/// Result of a non-blocking send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The item was enqueued.
    Sent,
    /// The queue is full.
    Full,
    /// No such queue.
    NoSuchQueue,
}

/// Result of a non-blocking receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvOutcome {
    /// An item was dequeued.
    Received(u32),
    /// The queue is empty.
    Empty,
    /// No such queue.
    NoSuchQueue,
}

#[derive(Debug, Clone, Default)]
struct Queue {
    capacity: usize,
    items: VecDeque<u32>,
    /// Total items ever enqueued (progress metric).
    sent_total: u64,
    /// Total items ever dequeued.
    received_total: u64,
}

/// All queues of one kernel instance.
#[derive(Debug, Clone, Default)]
pub struct QueueSet {
    queues: Vec<Queue>,
    /// Bumped on every state change; the scheduler skips its blocked
    /// wake scan while tick and the queue/sync versions are unchanged
    /// (a blocked task's wait condition cannot have become true).
    version: u64,
}

impl QueueSet {
    /// Creates an empty queue set.
    pub fn new() -> QueueSet {
        QueueSet::default()
    }

    /// Creates a queue with the given capacity and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn create(&mut self, capacity: usize) -> QueueId {
        assert!(capacity > 0, "queue capacity must be non-zero");
        self.queues.push(Queue {
            capacity,
            ..Queue::default()
        });
        QueueId((self.queues.len() - 1) as u32)
    }

    /// Attempts to enqueue without blocking.
    pub fn try_send(&mut self, id: QueueId, value: u32) -> SendOutcome {
        match self.queues.get_mut(id.0 as usize) {
            None => SendOutcome::NoSuchQueue,
            Some(q) if q.items.len() >= q.capacity => SendOutcome::Full,
            Some(q) => {
                q.items.push_back(value);
                q.sent_total += 1;
                self.version += 1;
                SendOutcome::Sent
            }
        }
    }

    /// Attempts to dequeue without blocking.
    pub fn try_recv(&mut self, id: QueueId) -> RecvOutcome {
        match self.queues.get_mut(id.0 as usize) {
            None => RecvOutcome::NoSuchQueue,
            Some(q) => match q.items.pop_front() {
                Some(v) => {
                    q.received_total += 1;
                    self.version += 1;
                    RecvOutcome::Received(v)
                }
                None => RecvOutcome::Empty,
            },
        }
    }

    /// State-change counter (see the field doc).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Whether the queue has at least one item (a blocked receiver can
    /// wake).
    pub fn has_items(&self, id: QueueId) -> bool {
        self.queues
            .get(id.0 as usize)
            .map(|q| !q.items.is_empty())
            .unwrap_or(false)
    }

    /// Whether the queue has free space (a blocked sender can wake).
    pub fn has_space(&self, id: QueueId) -> bool {
        self.queues
            .get(id.0 as usize)
            .map(|q| q.items.len() < q.capacity)
            .unwrap_or(false)
    }

    /// Total items ever enqueued on `id`.
    pub fn sent_total(&self, id: QueueId) -> u64 {
        self.queues
            .get(id.0 as usize)
            .map(|q| q.sent_total)
            .unwrap_or(0)
    }

    /// Total items ever dequeued from `id`.
    pub fn received_total(&self, id: QueueId) -> u64 {
        self.queues
            .get(id.0 as usize)
            .map(|q| q.received_total)
            .unwrap_or(0)
    }

    /// Number of queues.
    pub fn len(&self) -> usize {
        self.queues.len()
    }

    /// Whether no queues exist.
    pub fn is_empty(&self) -> bool {
        self.queues.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut qs = QueueSet::new();
        let q = qs.create(4);
        qs.try_send(q, 1);
        qs.try_send(q, 2);
        qs.try_send(q, 3);
        assert_eq!(qs.try_recv(q), RecvOutcome::Received(1));
        assert_eq!(qs.try_recv(q), RecvOutcome::Received(2));
        assert_eq!(qs.try_recv(q), RecvOutcome::Received(3));
        assert_eq!(qs.try_recv(q), RecvOutcome::Empty);
    }

    #[test]
    fn capacity_enforced() {
        let mut qs = QueueSet::new();
        let q = qs.create(2);
        assert_eq!(qs.try_send(q, 1), SendOutcome::Sent);
        assert_eq!(qs.try_send(q, 2), SendOutcome::Sent);
        assert_eq!(qs.try_send(q, 3), SendOutcome::Full);
        assert!(!qs.has_space(q));
        qs.try_recv(q);
        assert!(qs.has_space(q));
    }

    #[test]
    fn missing_queue_reported() {
        let mut qs = QueueSet::new();
        assert_eq!(qs.try_send(QueueId(9), 1), SendOutcome::NoSuchQueue);
        assert_eq!(qs.try_recv(QueueId(9)), RecvOutcome::NoSuchQueue);
        assert!(!qs.has_items(QueueId(9)));
        assert!(!qs.has_space(QueueId(9)));
    }

    #[test]
    fn totals_track_throughput() {
        let mut qs = QueueSet::new();
        let q = qs.create(8);
        for i in 0..5 {
            qs.try_send(q, i);
        }
        for _ in 0..3 {
            qs.try_recv(q);
        }
        assert_eq!(qs.sent_total(q), 5);
        assert_eq!(qs.received_total(q), 3);
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_rejected() {
        let mut qs = QueueSet::new();
        qs.create(0);
    }

    #[test]
    fn multiple_queues_are_independent() {
        let mut qs = QueueSet::new();
        let a = qs.create(1);
        let b = qs.create(1);
        qs.try_send(a, 10);
        assert!(qs.has_items(a));
        assert!(!qs.has_items(b));
        assert_eq!(qs.try_recv(b), RecvOutcome::Empty);
        assert_eq!(qs.try_recv(a), RecvOutcome::Received(10));
    }
}
