//! A simple FIFO queue with O(1) operations, used for waiting-request lines
//! and per-resource backlogs.

use std::collections::VecDeque;

/// First-in-first-out queue wrapper.
///
/// Exists mostly to give call sites intention-revealing names (`enqueue`,
/// `dequeue`, `requeue_front`) and to centralize invariants (e.g. the
/// re-queue-at-front operation used when a preempted request must retain its
/// position).
#[derive(Debug, Clone)]
pub struct FifoQueue<T> {
    items: VecDeque<T>,
}

impl<T> FifoQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        FifoQueue {
            items: VecDeque::new(),
        }
    }

    /// Appends an item at the back.
    pub fn enqueue(&mut self, item: T) {
        self.items.push_back(item);
    }

    /// Removes and returns the front item.
    pub fn dequeue(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Puts an item back at the *front* (e.g. a preempted request that must
    /// be retried before anything newer).
    pub fn requeue_front(&mut self, item: T) {
        self.items.push_front(item);
    }

    /// Front item without removing it.
    pub fn peek(&self) -> Option<&T> {
        self.items.front()
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the queue holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates items front to back.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }
}

impl<T> Default for FifoQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FromIterator<T> for FifoQueue<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        FifoQueue {
            items: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = FifoQueue::new();
        q.enqueue(1);
        q.enqueue(2);
        q.enqueue(3);
        assert_eq!(q.dequeue(), Some(1));
        q.requeue_front(1);
        assert_eq!(q.dequeue(), Some(1));
        assert_eq!(q.dequeue(), Some(2));
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek(), Some(&3));
    }
}
