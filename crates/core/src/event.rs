//! The runtime's scheduler: a deterministic discrete-event queue and
//! the delay policy that feeds it.
//!
//! Events fire in timestamp order; ties break by insertion sequence,
//! so two runs that push the same events pop the same order — the
//! property every simulation in this workspace leans on.
//!
//! Events due at the current tick bypass the heap: they append to a
//! FIFO lane. The lane is exact, not an approximation: an event pushed
//! at `now` carries a larger sequence number than every heap entry
//! already due at `now` (those were pushed before the clock got here),
//! so "heap entries at `now`, then the lane, then later ticks" is
//! precisely `(at, seq)` order. A zero-delay workload therefore never
//! touches the heap and pops in plain FIFO order.
//!
//! Heap payloads live in a slot vector with a free list; the heap
//! orders bare `{at, seq, slot}` records. Sifting therefore moves
//! 24-byte entries instead of full payloads (an `Envelope` is ~200
//! bytes), and slot reuse keeps the steady state allocation-free.

use rand::rngs::StdRng;
use rand::Rng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Simulated time in abstract ticks.
pub type SimTime = u64;

/// How long a message takes from send to delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyModel {
    /// Every message takes exactly this many ticks. `Constant(0)` (the
    /// default) is the synchronous FIFO pump.
    Constant(u64),
    /// Uniformly sampled delay (inclusive bounds).
    Uniform(u64, u64),
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::Constant(0)
    }
}

impl LatencyModel {
    /// Draws one delay. Only `Uniform` consumes randomness.
    #[inline]
    pub(crate) fn sample(&self, rng: &mut StdRng) -> SimTime {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform(lo, hi) => uniform(lo, hi, rng),
        }
    }

    /// True for the zero-delay policy: every message is due the tick it
    /// is sent, so delivery is plain FIFO.
    pub(crate) fn is_zero(&self) -> bool {
        matches!(self, LatencyModel::Constant(0))
    }
}

/// Kept out of line so the zero-delay path of every send stays small.
#[inline(never)]
fn uniform(lo: SimTime, hi: SimTime, rng: &mut StdRng) -> SimTime {
    rng.gen_range(lo..=hi.max(lo))
}

#[derive(Debug)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Min-heap of timestamped events with deterministic tie-breaking and
/// a same-tick FIFO lane (see the module docs).
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Scheduled>>,
    items: Vec<Option<T>>,
    free: Vec<u32>,
    /// Events due at `now`, in push order.
    lane: VecDeque<T>,
    seq: u64,
    now: SimTime,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            items: Vec::new(),
            free: Vec::new(),
            lane: VecDeque::new(),
            seq: 0,
            now: 0,
        }
    }
}

impl<T> EventQueue<T> {
    /// An empty queue at time 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time (time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    /// True iff nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lane.is_empty()
    }

    /// Schedules `item` at absolute time `at` (clamped to now).
    #[inline]
    pub fn push_at(&mut self, at: SimTime, item: T) {
        if at <= self.now {
            self.lane.push_back(item);
        } else {
            self.schedule(at, item);
        }
    }

    /// The heap half of [`EventQueue::push_at`], out of line so the
    /// same-tick lane stays a plain `push_back` where it is inlined.
    #[inline(never)]
    fn schedule(&mut self, at: SimTime, item: T) {
        let seq = self.seq;
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                self.items[s as usize] = Some(item);
                s
            }
            None => {
                let s = u32::try_from(self.items.len()).expect("event queue slot overflow");
                self.items.push(Some(item));
                s
            }
        };
        self.heap.push(Reverse(Scheduled { at, seq, slot }));
    }

    /// Schedules `item` `delay` ticks from now.
    #[inline]
    pub fn push_after(&mut self, delay: SimTime, item: T) {
        self.push_at(self.now.saturating_add(delay), item);
    }

    /// Pops the next event, advancing the clock to its timestamp
    /// ([`EventQueue::now`]).
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        if self.heap.is_empty() {
            return self.lane.pop_front();
        }
        self.pop_scheduled()
    }

    /// [`EventQueue::pop`] with heap entries pending: those due now
    /// precede the lane, later ones follow it.
    #[inline(never)]
    fn pop_scheduled(&mut self) -> Option<T> {
        match self.heap.peek() {
            Some(Reverse(s)) if s.at == self.now || self.lane.is_empty() => {}
            _ => return self.lane.pop_front(),
        }
        let Reverse(s) = self.heap.pop().expect("peeked above");
        self.now = s.at;
        let item = self.items[s.slot as usize]
            .take()
            .expect("scheduled slot holds its payload until popped");
        self.free.push(s.slot);
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push_at(30, "c");
        q.push_at(10, "a");
        q.push_at(20, "b");
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.now(), 20);
        assert_eq!(q.pop(), Some("c"));
        assert_eq!(q.now(), 30);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push_at(5, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn push_after_is_relative() {
        let mut q = EventQueue::new();
        q.push_at(100, "x");
        q.pop();
        q.push_after(5, "y");
        assert_eq!(q.pop(), Some("y"));
        assert_eq!(q.now(), 105);
    }

    #[test]
    fn past_schedules_clamp_to_now() {
        let mut q = EventQueue::new();
        q.push_at(50, "x");
        q.pop();
        q.push_at(10, "late");
        assert_eq!(q.pop(), Some("late"));
        assert_eq!(q.now(), 50, "no time travel");
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.push_at(1, 1);
        q.push_at(2, 2);
        q.push_at(0, 0);
        assert_eq!(q.len(), 3);
        q.pop();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn slots_are_reused_after_pop() {
        let mut q = EventQueue::new();
        for round in 1..100 {
            q.push_at(round, round);
            q.push_at(round, round + 1);
            q.pop();
            q.pop();
        }
        assert!(q.items.len() <= 2, "steady state reuses payload slots");
    }

    #[test]
    fn zero_delay_never_touches_the_heap() {
        let mut q = EventQueue::new();
        for i in 0..8 {
            q.push_after(0, i);
        }
        assert!(q.heap.is_empty() && q.items.is_empty());
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, (0..8).collect::<Vec<_>>());
        assert_eq!(q.now(), 0);
    }

    /// The lane is exact: random interleavings of pushes (delays 0..4)
    /// and pops come out in the `(at, seq)` order of a plain sorted
    /// reference queue.
    #[test]
    fn lane_matches_a_pure_time_sequence_order() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let mut q = EventQueue::new();
            let mut reference: Vec<(SimTime, u64, u32)> = Vec::new();
            let (mut now, mut seq) = (0u64, 0u64);
            for id in 0..400u32 {
                if rng.gen_bool(0.55) {
                    let delay = rng.gen_range(0..4u64);
                    q.push_after(delay, id);
                    reference.push((now + delay, seq, id));
                    seq += 1;
                } else {
                    reference.sort_unstable();
                    let want = (!reference.is_empty()).then(|| reference.remove(0));
                    let got = q.pop().map(|id| (q.now(), id));
                    assert_eq!(got, want.map(|(at, _, id)| (at, id)));
                    if let Some((at, _, _)) = want {
                        now = at;
                    }
                }
            }
        }
    }
}
