//! Fixed-capacity event ring: the bus's pre-sized spine.
//!
//! The ring is allocated once at construction and never grows; publishing
//! into a full ring overwrites the oldest event and counts a drop instead
//! of allocating. That makes `push` allocation-free and O(1), the
//! hot-path contract the engine's tap points rely on.

use crate::event::FlowEvent;

/// A bounded ring buffer of [`FlowEvent`]s with drop accounting.
#[derive(Debug, Clone)]
pub struct EventRing {
    buf: Vec<FlowEvent>,
    /// Index of the oldest element once the ring is full (0 before).
    head: usize,
    capacity: usize,
    pushed: u64,
    dropped: u64,
}

impl EventRing {
    /// A ring holding at most `capacity` events (≥ 1). The backing store
    /// is reserved up front.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "event ring needs capacity >= 1");
        EventRing {
            buf: Vec::with_capacity(capacity),
            head: 0,
            capacity,
            pushed: 0,
            dropped: 0,
        }
    }

    /// Appends an event; overwrites the oldest (and counts a drop) when
    /// full. Never reallocates.
    pub fn push(&mut self, ev: FlowEvent) {
        self.pushed += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True before the first push.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever pushed.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Events overwritten before anyone read them (ring wraps).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Buffered events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &FlowEvent> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }

    /// The most recently pushed event.
    pub fn latest(&self) -> Option<&FlowEvent> {
        if self.buf.is_empty() {
            None
        } else if self.buf.len() < self.capacity {
            self.buf.last()
        } else {
            // The element just before `head` (the oldest) is the newest.
            Some(&self.buf[(self.head + self.capacity - 1) % self.capacity])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FlowEventKind;

    fn ev(t: f64, waiting: u32) -> FlowEvent {
        FlowEvent {
            time: t,
            kind: FlowEventKind::QueueDepth {
                instance: 0,
                waiting,
                running: 0,
            },
        }
    }

    #[test]
    fn fills_then_wraps() {
        let mut r = EventRing::new(3);
        assert!(r.is_empty());
        for i in 0..3 {
            r.push(ev(i as f64, i));
        }
        assert_eq!((r.len(), r.dropped()), (3, 0));
        r.push(ev(3.0, 3));
        r.push(ev(4.0, 4));
        assert_eq!((r.len(), r.pushed(), r.dropped()), (3, 5, 2));
        let times: Vec<f64> = r.iter().map(|e| e.time).collect();
        assert_eq!(times, vec![2.0, 3.0, 4.0]);
        assert_eq!(r.latest().unwrap().time, 4.0);
    }

    #[test]
    fn no_realloc_after_construction() {
        let mut r = EventRing::new(8);
        let cap = r.buf.capacity();
        for i in 0..100 {
            r.push(ev(i as f64, 0));
        }
        assert_eq!(r.buf.capacity(), cap, "ring must never reallocate");
    }
}
