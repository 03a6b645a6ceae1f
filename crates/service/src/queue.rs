//! A bounded, blocking priority queue with backpressure.
//!
//! Submissions beyond the configured capacity are *rejected immediately*
//! (the caller gets its item back) instead of blocking the submitting
//! connection — the service turns that into a structured `queue_full`
//! error, which is the backpressure signal clients act on. Workers block
//! on [`BoundedPriorityQueue::pop`] until an item arrives or the queue is
//! abandoned.
//!
//! Ordering: higher priority first; equal priorities are FIFO (by
//! submission sequence number), so a stream of same-priority jobs is
//! served in arrival order.

use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex};

/// Internal heap entry: ordering key + payload.
struct Entry<T> {
    priority: u8,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher priority wins; within a priority, earlier seq
        // (smaller) wins, hence the reversed comparison.
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct Inner<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
    /// Abandoned queues refuse pushes *and* hand out nothing: `pop`
    /// returns `None` immediately even with items still queued.
    abandoned: bool,
}

/// A bounded blocking priority queue (see module docs).
pub struct BoundedPriorityQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> std::fmt::Debug for BoundedPriorityQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedPriorityQueue")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl<T> BoundedPriorityQueue<T> {
    /// Locks the queue state, recovering from poison. The queue's
    /// invariants hold whenever the lock is released, and a panic in one
    /// worker (contained by `catch_unwind`) must not wedge submissions or
    /// the rest of the pool behind a poisoned mutex.
    fn lock_inner(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// An empty queue holding at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                heap: BinaryHeap::new(),
                next_seq: 0,
                abandoned: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Maximum number of queued items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of queued items.
    pub fn len(&self) -> usize {
        self.lock_inner().heap.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues `item` at `priority` (higher runs first).
    ///
    /// # Errors
    ///
    /// Returns the item back when the queue is full (backpressure) or
    /// abandoned, without blocking.
    pub fn try_push(&self, item: T, priority: u8) -> Result<(), T> {
        let mut inner = self.lock_inner();
        if inner.abandoned || inner.heap.len() >= self.capacity {
            return Err(item);
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.heap.push(Entry {
            priority,
            seq,
            item,
        });
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until an item is available (returning the highest-priority
    /// one) or the queue is abandoned (returning `None`).
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.lock_inner();
        loop {
            if inner.abandoned {
                return None;
            }
            if let Some(entry) = inner.heap.pop() {
                return Some(entry.item);
            }
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Closes the queue for good: further pushes fail and every `pop` —
    /// blocked or future — returns `None` immediately, leaving queued
    /// items unserved. The service's stop: its owner either leaves them
    /// to journal replay or cancels them.
    pub fn abandon(&self) {
        self.lock_inner().abandoned = true;
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn orders_by_priority_then_fifo() {
        let q = BoundedPriorityQueue::new(8);
        q.try_push("low-1", 1).unwrap();
        q.try_push("high", 5).unwrap();
        q.try_push("low-2", 1).unwrap();
        assert_eq!(q.pop(), Some("high"));
        assert_eq!(q.pop(), Some("low-1"));
        assert_eq!(q.pop(), Some("low-2"));
        assert!(q.is_empty());
    }

    #[test]
    fn rejects_when_full_and_when_closed() {
        let q = BoundedPriorityQueue::new(2);
        q.try_push(1, 0).unwrap();
        q.try_push(2, 0).unwrap();
        assert_eq!(q.try_push(3, 9), Err(3));
        assert_eq!(q.pop(), Some(1));
        q.try_push(3, 0).unwrap();
        q.abandon();
        assert_eq!(q.try_push(4, 0), Err(4));
    }

    #[test]
    fn abandon_unblocks_pops_without_serving_queued_items() {
        let q = BoundedPriorityQueue::new(4);
        q.try_push(1, 0).unwrap();
        q.try_push(2, 5).unwrap();
        q.abandon();
        // Items remain queued (journaled elsewhere) but are never served.
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), None);
        assert_eq!(q.try_push(3, 0), Err(3));
    }

    #[test]
    fn pop_blocks_until_push_or_close() {
        let q = Arc::new(BoundedPriorityQueue::new(4));
        let q2 = Arc::clone(&q);
        let handle = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.try_push(42, 0).unwrap();
        assert_eq!(handle.join().unwrap(), Some(42));

        let q3 = Arc::clone(&q);
        let handle = std::thread::spawn(move || q3.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.abandon();
        assert_eq!(handle.join().unwrap(), None);
    }
}
