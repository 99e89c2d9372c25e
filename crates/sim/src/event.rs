//! A deterministic, typed event queue.
//!
//! [`EventQueue`] orders events by timestamp; events scheduled for the same
//! instant pop in insertion order (FIFO), which keeps simulations
//! deterministic regardless of heap internals.
//!
//! ```
//! use saav_sim::event::EventQueue;
//! use saav_sim::time::Time;
//!
//! let mut q = EventQueue::new();
//! q.schedule(Time::from_micros(2), "late");
//! q.schedule(Time::from_micros(1), "early");
//! assert_eq!(q.pop(), Some((Time::from_micros(1), "early")));
//! assert_eq!(q.pop(), Some((Time::from_micros(2), "late")));
//! assert_eq!(q.pop(), None);
//! ```

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Time;

#[derive(Debug)]
struct Scheduled<E> {
    at: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so the BinaryHeap (a max-heap) yields the earliest
        // (time, seq) first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered queue of typed events with FIFO tie-breaking.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at the absolute instant `at`.
    pub fn schedule(&mut self, at: Time, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|s| s.at)
    }

    /// Removes and returns the earliest event together with its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|s| (s.at, s.event))
    }

    /// Removes and returns the earliest event if it is due at or before
    /// `deadline`.
    pub fn pop_due(&mut self, deadline: Time) -> Option<(Time, E)> {
        match self.peek_time() {
            Some(t) if t <= deadline => self.pop(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_nanos(30), 3);
        q.schedule(Time::from_nanos(10), 1);
        q.schedule(Time::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = Time::from_micros(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_micros(10), "a");
        q.schedule(Time::from_micros(20), "b");
        assert_eq!(q.pop_due(Time::from_micros(5)), None);
        assert_eq!(
            q.pop_due(Time::from_micros(10)),
            Some((Time::from_micros(10), "a"))
        );
        assert_eq!(q.pop_due(Time::from_micros(15)), None);
        assert_eq!(
            q.peek_time(),
            Some(Time::from_micros(20)),
            "b still pending"
        );
    }
}
