//! Event queue for the continuous tensor model.
//!
//! Algorithm 1 schedules, for each tuple, its next unit-boundary crossing.
//! Pop order is the total order on `(due time, sequence)`; the sequence
//! number makes the order deterministic among simultaneous events (FIFO),
//! which in turn makes whole experiment runs reproducible.
//!
//! The queue is a FIFO, not a heap. Every crossing is scheduled at
//! `tuple.time + w·T`, and the window only accepts arrivals at or after
//! its clock. An arrival at `t` schedules `t + T`, and a crossing popped
//! at `d` schedules `d + T`; either way every pending event is due in
//! `(now, now + T]`, so the new event's `(due, seq)` is at or above every
//! pending one and lands at the back. Popping is `pop_front`, and the
//! pop-order listing a state capture needs is a plain copy. An event that
//! would break the order (a restored state can hold any valid listing)
//! takes a sorted insert instead, so pop order is `(due, seq)` in every
//! case.

use crate::tuple::StreamTuple;
use std::collections::VecDeque;

/// A scheduled `w`-th boundary update for a tuple (fires at
/// `tuple.time + w·T`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledEvent {
    /// Absolute time at which the event fires.
    pub due: u64,
    /// FIFO tie-breaker among events with equal `due`.
    pub seq: u64,
    /// Which boundary this crossing is (`1 ..= W`).
    pub w: u32,
    /// The originating tuple.
    pub tuple: StreamTuple,
}

/// Pending events kept sorted by `(due, seq)`, earliest first.
///
/// Sequence numbers only grow, so an event whose `due` is at or above the
/// last pending one is appended in O(1) — the only case the live window
/// produces (see the module docs). Any other `due` is placed by binary
/// search. `Clone` performs a deep copy; because pop order is the total
/// order on `(due, seq)`, a clone replays exactly the same event sequence
/// as the original — the property engine snapshots rely on.
#[derive(Debug, Default, Clone)]
pub struct EventQueue {
    events: VecDeque<ScheduledEvent>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pending events (one per active tuple, Theorem 2).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Schedules the `w`-th update for `tuple` at absolute time `due`.
    pub fn schedule(&mut self, due: u64, w: u32, tuple: StreamTuple) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let event = ScheduledEvent { due, seq, w, tuple };
        if self.events.back().is_none_or(|last| last.due <= due) {
            self.events.push_back(event);
        } else {
            // `seq` exceeds every pending one, so the event goes after all
            // events due at or before it.
            let at = self.events.partition_point(|e| e.due <= due);
            self.events.insert(at, event);
        }
    }

    /// Pops the next event if it is due at or before `now`.
    pub fn pop_due(&mut self, now: u64) -> Option<ScheduledEvent> {
        if self.events.front().is_some_and(|e| e.due <= now) {
            self.events.pop_front()
        } else {
            None
        }
    }

    /// Earliest pending due time, if any.
    pub fn peek_due(&self) -> Option<u64> {
        self.events.front().map(|e| e.due)
    }

    /// All pending events, sorted by `(due, seq)` — the exact pop order.
    /// This listing plus [`EventQueue::from_events`] reproduces the
    /// queue's behaviour bitwise (engine state capture).
    pub fn events_in_order(&self) -> Vec<ScheduledEvent> {
        let (front, back) = self.events.as_slices();
        let mut events = Vec::with_capacity(self.events.len());
        events.extend_from_slice(front);
        events.extend_from_slice(back);
        events
    }

    /// Sequence number the next [`EventQueue::schedule`] call will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Rebuilds a queue from captured events and the sequence counter.
    /// A listing in `(due, seq)` order (what [`EventQueue::events_in_order`]
    /// returns) is moved in as is; any other order is sorted first, so
    /// the pop order is `(due, seq)` either way.
    pub fn from_events(mut events: Vec<ScheduledEvent>, next_seq: u64) -> Self {
        if !events.is_sorted_by_key(|e| (e.due, e.seq)) {
            events.sort_unstable_by_key(|e| (e.due, e.seq));
        }
        EventQueue { events: events.into(), next_seq }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn tup(t: u64) -> StreamTuple {
        StreamTuple::new([0u32], 1.0, t)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, 1, tup(0));
        q.schedule(10, 1, tup(0));
        q.schedule(20, 1, tup(0));
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_due(), Some(10));
        assert_eq!(q.pop_due(100).unwrap().due, 10);
        assert_eq!(q.pop_due(100).unwrap().due, 20);
        assert_eq!(q.pop_due(100).unwrap().due, 30);
        assert!(q.pop_due(100).is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn respects_now_cutoff() {
        let mut q = EventQueue::new();
        q.schedule(10, 1, tup(0));
        q.schedule(20, 1, tup(0));
        assert!(q.pop_due(5).is_none());
        assert!(q.pop_due(10).is_some()); // due == now fires
        assert!(q.pop_due(19).is_none());
        assert!(q.pop_due(20).is_some());
    }

    #[test]
    fn fifo_among_ties() {
        let mut q = EventQueue::new();
        let a = StreamTuple::new([1u32], 1.0, 0);
        let b = StreamTuple::new([2u32], 1.0, 0);
        let c = StreamTuple::new([3u32], 1.0, 0);
        q.schedule(10, 1, a);
        q.schedule(10, 1, b);
        q.schedule(10, 1, c);
        assert_eq!(q.pop_due(10).unwrap().tuple, a);
        assert_eq!(q.pop_due(10).unwrap().tuple, b);
        assert_eq!(q.pop_due(10).unwrap().tuple, c);
    }

    /// The reference the FIFO queue replaced: a min-heap on `(due, seq)`.
    #[derive(Default)]
    struct HeapQueue {
        heap: BinaryHeap<Reverse<(u64, u64)>>,
        events: Vec<ScheduledEvent>,
        next_seq: u64,
    }

    impl HeapQueue {
        fn schedule(&mut self, due: u64, w: u32, tuple: StreamTuple) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Reverse((due, seq)));
            self.events.push(ScheduledEvent { due, seq, w, tuple });
        }

        fn pop_due(&mut self, now: u64) -> Option<ScheduledEvent> {
            let Reverse((due, seq)) = *self.heap.peek().filter(|Reverse((due, _))| *due <= now)?;
            self.heap.pop();
            let at = self.events.iter().position(|e| e.due == due && e.seq == seq)?;
            Some(self.events.swap_remove(at))
        }

        fn events_in_order(&self) -> Vec<ScheduledEvent> {
            let mut events = self.events.clone();
            events.sort_unstable_by_key(|e| (e.due, e.seq));
            events
        }
    }

    /// One step of a random schedule/pop script. `Schedule` carries an
    /// offset from the clock that may be negative, so some dues land
    /// before pending ones and exercise the sorted-insert path.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Schedule { ahead: i64, w: u32 },
        Pop { advance: u64 },
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u32..3, -20i64..40, 1u32..5, 0u64..15).prop_map(|(kind, ahead, w, advance)| {
            if kind == 0 {
                Op::Pop { advance }
            } else {
                Op::Schedule { ahead, w }
            }
        })
    }

    fn drain(q: &mut EventQueue) -> Vec<ScheduledEvent> {
        std::iter::from_fn(|| q.pop_due(u64::MAX)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn fifo_queue_pops_exactly_like_the_heap_it_replaced(
            ops in proptest::collection::vec(op(), 0..120),
            shuffle_seed in 0u64..u64::MAX,
        ) {
            let mut fifo = EventQueue::new();
            let mut heap = HeapQueue::default();
            let mut now = 100u64;
            for (i, op) in ops.iter().enumerate() {
                match *op {
                    Op::Schedule { ahead, w } => {
                        let due = now.saturating_add_signed(ahead);
                        let tuple = StreamTuple::new([i as u32], i as f64, now);
                        fifo.schedule(due, w, tuple);
                        heap.schedule(due, w, tuple);
                    }
                    Op::Pop { advance } => {
                        now += advance;
                        loop {
                            let (a, b) = (fifo.pop_due(now), heap.pop_due(now));
                            prop_assert_eq!(a, b, "pop at now={}", now);
                            if a.is_none() {
                                break;
                            }
                        }
                    }
                }
                prop_assert_eq!(fifo.len(), heap.events.len());
                prop_assert_eq!(fifo.peek_due(), heap.heap.peek().map(|Reverse((d, _))| *d));
            }

            let listing = fifo.events_in_order();
            prop_assert_eq!(&listing, &heap.events_in_order());

            // A shuffled listing rebuilds the same queue.
            let mut shuffled = listing.clone();
            let mut state = shuffle_seed | 1;
            for i in (1..shuffled.len()).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                shuffled.swap(i, (state % (i as u64 + 1)) as usize);
            }
            let mut rebuilt = EventQueue::from_events(shuffled, fifo.next_seq());
            prop_assert_eq!(rebuilt.events_in_order(), listing.clone());
            let expected: Vec<ScheduledEvent> =
                std::iter::from_fn(|| heap.pop_due(u64::MAX)).collect();
            prop_assert_eq!(drain(&mut rebuilt), expected.clone());
            prop_assert_eq!(drain(&mut fifo), expected);
        }
    }
}
