//! The internal event queue.

use crate::node::NodeId;
use crate::time::SimTime;
use bytes::Bytes;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

#[derive(Debug)]
pub(crate) enum EventKind {
    Start,
    Deliver { from: NodeId, msg: Bytes },
    Timer { id: u64 },
}

#[derive(Debug)]
pub(crate) struct Event {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) to: NodeId,
    pub(crate) kind: EventKind,
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

/// A deterministic priority queue of pending events, popped in `(time,
/// seq)` order.
///
/// Newly scheduled events go into a binary heap. An event the serial-CPU
/// model defers to its node's busy-until instant goes into a *deferral
/// lane* instead: one FIFO per instant. A deferred event takes the next
/// seq, as a re-push into the heap would, so every lane is in seq order
/// and the front of the earliest lane is the least deferred event. `pop`
/// returns the lesser of that front and the heap's top, which is the event
/// a single heap holding both would return. A deferral therefore costs a
/// FIFO append instead of a heap push and pop, and the order — with it the
/// trace digest and every simulated number — is unchanged.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Event>,
    lanes: BTreeMap<SimTime, VecDeque<Event>>,
    next_seq: u64,
    /// Binary-heap pushes and pops made so far.
    heap_ops: u64,
}

impl EventQueue {
    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    pub(crate) fn push(&mut self, at: SimTime, to: NodeId, kind: EventKind) {
        let seq = self.take_seq();
        self.heap_ops += 1;
        self.heap.push(Event { at, seq, to, kind });
    }

    /// Re-schedules a popped event at `at` (its node's busy-until instant)
    /// with a fresh seq, exactly where a re-push would put it.
    fn defer(&mut self, mut ev: Event, at: SimTime) {
        ev.at = at;
        ev.seq = self.take_seq();
        self.lanes.entry(at).or_default().push_back(ev);
    }

    /// Pops the next event in `(time, seq)` order that is due by
    /// `deadline` and whose node is free. `busy` says until when an
    /// event's node is busy; such an event is deferred to that instant on
    /// the way, as the serial-CPU model requires. A run of lane fronts that
    /// are next in order and whose nodes are busy moves in one pass: no
    /// handler runs between them, so nothing else takes a seq in between.
    pub(crate) fn pop_due(
        &mut self,
        deadline: SimTime,
        busy: impl Fn(&Event) -> Option<SimTime>,
    ) -> Option<Event> {
        loop {
            let top = self.heap.peek().map(|e| (e.at, e.seq));
            let lane = self.lanes.first_key_value().map(|(&at, lane)| {
                let front = lane.front().expect("lanes are never empty");
                (at, front.seq)
            });
            let Some(lane_at) = lane.filter(|&l| top.is_none_or(|t| l < t)).map(|l| l.0) else {
                // The heap's top is next.
                if top?.0 > deadline {
                    return None;
                }
                let ev = self.heap.pop().expect("peeked");
                self.heap_ops += 1;
                match busy(&ev) {
                    Some(until) => self.defer(ev, until),
                    None => return Some(ev),
                }
                continue;
            };
            if lane_at > deadline {
                return None;
            }
            // The earliest lane's front is next, and stays next until its
            // seq passes the heap's top: deferrals only add later lanes.
            let (_, mut run) = self.lanes.pop_first().expect("a lane is first");
            let mut ready = None;
            while let Some(front) = run.front() {
                if top.is_some_and(|t| t < (front.at, front.seq)) {
                    break;
                }
                let ev = run.pop_front().expect("front above");
                match busy(&ev) {
                    Some(until) => self.defer(ev, until),
                    None => {
                        ready = Some(ev);
                        break;
                    }
                }
            }
            if !run.is_empty() {
                self.lanes.insert(lane_at, run);
            }
            if ready.is_some() {
                return ready;
            }
        }
    }

    #[cfg(test)]
    fn pop(&mut self) -> Option<Event> {
        self.pop_due(SimTime::MAX, |_| None)
    }

    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        let heap = self.heap.peek().map(|e| e.at);
        let lane = self.lanes.first_key_value().map(|(&at, _)| at);
        match (heap, lane) {
            (Some(h), Some(l)) => Some(h.min(l)),
            (h, l) => h.or(l),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.heap.len() + self.lanes.values().map(VecDeque::len).sum::<usize>()
    }

    pub(crate) fn heap_ops(&self) -> u64 {
        self.heap_ops
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;
    use rand::RngCore;
    use std::collections::HashSet;

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

    #[test]
    fn deferred_events_interleave_with_the_heap_by_time_then_seq() {
        let mut q = EventQueue::default();
        ev(&mut q, 1, 0);
        ev(&mut q, 2, 1);
        let first = q.pop().unwrap();
        q.defer(first, SimTime::from_micros(2)); // seq 2: after node 1's
        ev(&mut q, 2, 2); // seq 3
        ev(&mut q, 1, 3);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(1)));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.to.0).collect();
        assert_eq!(order, [3, 1, 0, 2]);
        assert_eq!(
            q.heap_ops(),
            8,
            "four pushes and four pops; the deferral is neither"
        );
        assert!(q.is_empty());
    }

    /// The scheduler this queue replaced: one heap, and a deferral is a
    /// re-push with a fresh seq.
    #[derive(Default)]
    struct HeapOnly {
        heap: BinaryHeap<Event>,
        next_seq: u64,
    }

    trait Sched {
        fn push(&mut self, at: SimTime, to: NodeId, kind: EventKind);
        fn pop_due(
            &mut self,
            deadline: SimTime,
            busy: impl Fn(&Event) -> Option<SimTime>,
        ) -> Option<Event>;
    }

    impl Sched for HeapOnly {
        fn push(&mut self, at: SimTime, to: NodeId, kind: EventKind) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Event { at, seq, to, kind });
        }
        fn pop_due(
            &mut self,
            deadline: SimTime,
            busy: impl Fn(&Event) -> Option<SimTime>,
        ) -> Option<Event> {
            while self.heap.peek()?.at <= deadline {
                let ev = self.heap.pop().expect("peeked");
                match busy(&ev) {
                    Some(until) => self.push(until, ev.to, ev.kind),
                    None => return Some(ev),
                }
            }
            None
        }
    }

    impl Sched for EventQueue {
        fn push(&mut self, at: SimTime, to: NodeId, kind: EventKind) {
            EventQueue::push(self, at, to, kind);
        }
        fn pop_due(
            &mut self,
            deadline: SimTime,
            busy: impl Fn(&Event) -> Option<SimTime>,
        ) -> Option<Event> {
            EventQueue::pop_due(self, deadline, busy)
        }
    }

    const NODES: u32 = 6;
    const CRASHED: NodeId = NodeId(NODES - 1);

    /// Drives `q` the way `Simulation::run_until` does — drop events for
    /// a crashed or unknown node, defer those of a busy node, drop
    /// cancelled timers, dispatch the rest — with handlers that spend,
    /// send and set or cancel timers at random, and with events injected
    /// between bounded runs. Returns every dispatch as `(time, seq, node,
    /// kind)`, and how many events were deferred.
    fn drive(q: &mut impl Sched, seed: u64) -> (Vec<(u64, u64, u32, u64)>, u64) {
        let mut rng = DetRng::derive(seed, 0);
        let mut busy = [SimTime::ZERO; NODES as usize];
        let mut cancelled = HashSet::new();
        let mut live_timers: Vec<u64> = Vec::new();
        let mut next_timer = 0u64;
        let mut now = SimTime::ZERO;
        let mut log = Vec::new();
        let deferred = std::cell::Cell::new(0);
        for n in 0..NODES {
            q.push(now, NodeId(n), EventKind::Start);
        }
        for round in 0..40u64 {
            // Injected from outside any handler, at the current instant.
            for _ in 0..rng.below(4) {
                let to = NodeId(rng.below(u64::from(NODES) + 1) as u32);
                let msg = Bytes::from(rng.next_u64().to_be_bytes().to_vec());
                q.push(
                    now,
                    to,
                    EventKind::Deliver {
                        from: NodeId(99),
                        msg,
                    },
                );
            }
            let deadline = SimTime::from_micros((round + 1) * 50);
            loop {
                let until = |ev: &Event| {
                    let b = *busy.get(ev.to.0 as usize)?;
                    let at = (b > ev.at && ev.to != CRASHED).then_some(b);
                    deferred.set(deferred.get() + u64::from(at.is_some()));
                    at
                };
                let Some(ev) = q.pop_due(deadline, until) else {
                    break;
                };
                let idx = ev.to.0 as usize;
                if idx >= NODES as usize || ev.to == CRASHED {
                    continue;
                }
                let kind = match ev.kind {
                    EventKind::Start => u64::MAX,
                    EventKind::Deliver { ref msg, .. } => msg.len() as u64,
                    EventKind::Timer { id } => {
                        if cancelled.remove(&id) {
                            continue;
                        }
                        1 << 32 | id
                    }
                };
                log.push((ev.at.as_micros(), ev.seq, ev.to.0, kind));
                // The handler: spend 0–3 µs (zero keeps ties), send to
                // 0–2 nodes over 0–2 µs links, maybe set or cancel a timer.
                let spent = rng.below(4);
                let depart = ev.at + crate::time::SimDuration::from_micros(spent);
                for _ in 0..rng.below(3) {
                    let to = NodeId(rng.below(u64::from(NODES)) as u32);
                    let lat = crate::time::SimDuration::from_micros(rng.below(3));
                    let msg = Bytes::from(vec![0u8; rng.below(8) as usize]);
                    q.push(depart + lat, to, EventKind::Deliver { from: ev.to, msg });
                }
                match rng.below(4) {
                    0 => {
                        let id = next_timer;
                        next_timer += 1;
                        let delay = crate::time::SimDuration::from_micros(rng.below(6));
                        q.push(depart + delay, ev.to, EventKind::Timer { id });
                        live_timers.push(id);
                    }
                    1 if !live_timers.is_empty() => {
                        let i = rng.below(live_timers.len() as u64) as usize;
                        cancelled.insert(live_timers.swap_remove(i));
                    }
                    _ => {}
                }
                if spent > 0 {
                    busy[idx] = depart;
                }
            }
            now = deadline;
        }
        (log, deferred.get())
    }

    #[test]
    fn lanes_dispatch_exactly_as_heap_only_re_push() {
        for seed in 0..64 {
            let (reference, deferred) = drive(&mut HeapOnly::default(), seed);
            let mut q = EventQueue::default();
            let (lanes, _) = drive(&mut q, seed);
            assert!(reference.len() > 200, "seed {seed}: schedule too small");
            assert!(deferred > 50, "seed {seed}: too few deferrals ({deferred})");
            assert_eq!(lanes, reference, "seed {seed}");
            assert!(
                q.heap_ops() <= 2 * (q.next_seq - deferred),
                "seed {seed}: deferrals stayed out of the heap"
            );
        }
    }
}
