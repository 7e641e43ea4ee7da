//! The discrete-event core: a deterministic event queue and the trace digest.
//!
//! Everything in `smt_sim::net` advances on simulated time only.  The queue is
//! a binary heap ordered by `(time, sequence)` — the sequence number breaks
//! ties in insertion order, so two runs of the same scenario pop events in
//! exactly the same order and the whole simulation is bit-reproducible.

use crate::time::Nanos;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Debug)]
struct Scheduled<T> {
    at: Nanos,
    seq: u64,
    event: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Scheduled<T> {}
impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Scheduled<T> {
    /// Reversed so the `BinaryHeap` (a max-heap) pops the *earliest* entry.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A deterministic future-event list.
///
/// Events scheduled for the same instant pop in the order they were pushed.
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Scheduled<T>>,
    seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` to fire at absolute time `at`.
    pub fn push(&mut self, at: Nanos, event: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Time of the earliest pending event.
    pub fn next_at(&self) -> Option<Nanos> {
        self.heap.peek().map(|s| s.at)
    }

    /// Pops the earliest pending event as `(time, event)`.
    pub fn pop(&mut self) -> Option<(Nanos, T)> {
        self.heap.pop().map(|s| (s.at, s.event))
    }

    /// Every pending event, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.heap.iter().map(|s| &s.event)
    }
}

/// An order-sensitive FNV-1a trace hasher.
///
/// Scenario runs fold every processed event into one of these; two runs of
/// the same seed must produce the same digest ([`ScenarioReport::trace_hash`]
/// in the determinism tests).
///
/// [`ScenarioReport::trace_hash`]: crate::net::ScenarioReport::trace_hash
#[derive(Debug, Clone, Copy)]
pub struct TraceHash {
    state: u64,
}

impl Default for TraceHash {
    fn default() -> Self {
        Self {
            state: 0xcbf2_9ce4_8422_2325, // FNV-1a offset basis
        }
    }
}

impl TraceHash {
    /// A fresh hasher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one 64-bit word into the digest.
    pub fn note(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.state ^= u64::from(byte);
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The current digest.
    pub fn digest(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_insertion_order() {
        let mut q = EventQueue::new();
        q.push(50, "b");
        q.push(10, "a");
        q.push(50, "c");
        q.push(5, "z");
        assert_eq!(q.next_at(), Some(5));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(5, "z"), (10, "a"), (50, "b"), (50, "c")]);
        assert_eq!(q.next_at(), None);
    }

    #[test]
    fn trace_hash_is_order_sensitive() {
        let mut a = TraceHash::new();
        a.note(1);
        a.note(2);
        let mut b = TraceHash::new();
        b.note(2);
        b.note(1);
        assert_ne!(a.digest(), b.digest());
        let mut c = TraceHash::new();
        c.note(1);
        c.note(2);
        assert_eq!(a.digest(), c.digest());
    }
}
