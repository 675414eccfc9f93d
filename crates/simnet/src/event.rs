//! The internal event queue.

use crate::node::NodeId;
use crate::time::SimTime;
use bytes::Bytes;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Debug)]
pub(crate) enum EventKind {
    Start,
    Deliver { from: NodeId, msg: Bytes },
    Timer { id: u64 },
}

#[derive(Debug)]
pub(crate) struct Event {
    pub at: SimTime,
    pub seq: u64,
    pub to: NodeId,
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. The seq tiebreak makes runs reproducible.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic priority queue of pending events.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl EventQueue {
    pub(crate) fn push(&mut self, at: SimTime, to: NodeId, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { at, seq, to, kind });
    }

    pub(crate) fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(q: &mut EventQueue, at: u64, to: u32) {
        q.push(SimTime::from_micros(at), NodeId(to), EventKind::Start);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::default();
        ev(&mut q, 30, 0);
        ev(&mut q, 10, 1);
        ev(&mut q, 20, 2);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().to, NodeId(1));
        assert_eq!(q.pop().unwrap().to, NodeId(2));
        assert_eq!(q.pop().unwrap().to, NodeId(0));
        assert!(q.pop().is_none());
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut q = EventQueue::default();
        for i in 0..100u32 {
            ev(&mut q, 5, i);
        }
        for i in 0..100u32 {
            assert_eq!(q.pop().unwrap().to, NodeId(i));
        }
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::default();
        assert!(q.peek_time().is_none());
        assert!(q.is_empty());
        ev(&mut q, 42, 0);
        ev(&mut q, 7, 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(7)));
    }
}
