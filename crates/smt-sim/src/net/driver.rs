//! The one event loop: a resumable [`Driver`] that steps the endpoints a
//! harness hosts ([`Hosts`], numbered in slots) over a [`Fabric`].  The
//! scenario runner, `smt-transport`'s `drive_pair` and its listener fabric
//! each own one.
//!
//! * **Events.**  An event is a delivery, a timer instant (every due slot
//!   fires, in slot order), or a cause the caller counts with
//!   [`Driver::event`].  A fabric step that only moves a packet between hops
//!   is not one: it counts nothing, moves no clock and polls no endpoint.
//! * **Clock.**  The clock reads the time of the last event and never moves
//!   back.  Arrivals win ties against timers, so a timer sees fresh state.
//! * **Polling.**  After an event only the slots it reached are flushed and
//!   have their deadlines re-read: an endpoint changes only when called.

use super::fabric::{Fabric, PortId};
use crate::time::Nanos;
use smt_wire::Packet;

/// The endpoints a [`Driver`] steps, each in a numbered slot.
pub trait Hosts {
    /// Hands `packet`, delivered at `port`, to the endpoint attached there;
    /// returns its slot, or `None` when no endpoint is attached.
    fn deliver(&mut self, port: PortId, packet: &Packet, now: Nanos) -> Option<usize>;
    /// Fires the retransmission timer of the endpoint in `slot`.
    fn fire(&mut self, slot: usize, now: Nanos);
    /// Puts what the endpoint in `slot` sends at `t` into `fabric`, through
    /// `buf`, a buffer every flush reuses and leaves empty.
    fn flush(&mut self, slot: usize, t: Nanos, fabric: &mut Fabric, buf: &mut Vec<Packet>);
    /// The retransmission deadline of the endpoint in `slot`.
    fn deadline(&self, slot: usize) -> Option<Nanos>;
}

/// A harness's fabric, clock, deadline index and event count.
#[derive(Debug)]
pub struct Driver {
    /// The network, for its owner to wire ports into and read counters from.
    pub fabric: Fabric,
    buf: Vec<Packet>,
    now: Nanos,
    events: u64,
    deadlines: DeadlineIndex,
    /// The slots due at a timer instant.
    due: Vec<usize>,
}

impl Driver {
    /// A driver at time zero over `fabric`, watching no slot.
    pub fn new(fabric: Fabric) -> Self {
        Self {
            fabric,
            buf: Vec::new(),
            now: 0,
            events: 0,
            deadlines: DeadlineIndex::default(),
            due: Vec::new(),
        }
    }

    /// The time of the last event.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Events counted so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The earliest deadline of any watched slot.
    pub fn next_deadline(&self) -> Option<Nanos> {
        self.deadlines.earliest()
    }

    /// Watches slots `0..slots` and reads every one's deadline.
    pub fn watch<H: Hosts + ?Sized>(&mut self, hosts: &H, slots: usize) {
        self.deadlines.reset(slots);
        for slot in 0..slots {
            self.deadlines.set(slot, hosts.deadline(slot));
        }
    }

    /// Counts one event at `t` and moves the clock there.
    pub fn event(&mut self, t: Nanos) {
        self.events += 1;
        self.now = self.now.max(t);
    }

    /// Flushes `slot` at `t` and re-reads its deadline.  `t` may be later
    /// than [`now`](Self::now): the scenario runner holds a sealed burst
    /// until its host's CPU frees up, without warping the shared clock.
    pub fn flush<H: Hosts + ?Sized>(&mut self, hosts: &mut H, slot: usize, t: Nanos) {
        hosts.flush(slot, t, &mut self.fabric, &mut self.buf);
        self.deadlines.set(slot, hosts.deadline(slot));
    }

    /// Takes the fabric's next step if it comes no later than the earliest
    /// deadline, else that timer instant, firing and flushing each due slot
    /// in turn.  Returns `false` once nothing is in flight or armed.
    pub fn step<H: Hosts + ?Sized>(&mut self, hosts: &mut H) -> bool {
        let t_net = self.fabric.next_arrival();
        let Some(t) = earlier(t_net, self.deadlines.earliest()) else {
            return false;
        };
        if t_net == Some(t) {
            if let Some((at, port, packet)) = self.fabric.pop_arrival() {
                self.event(at);
                if let Some(slot) = hosts.deliver(port, &packet, self.now()) {
                    self.flush(hosts, slot, self.now());
                }
            }
            return true;
        }
        self.event(t);
        self.deadlines.due(1, self.now(), &mut self.due);
        for i in 0..self.due.len() {
            hosts.fire(self.due[i], self.now());
            self.flush(hosts, self.due[i], self.now());
        }
        self.due.clear();
        true
    }

    /// Resumes after the caller called into its endpoints (callers send,
    /// close and swap endpoints between calls): flushes slots `0..slots` in
    /// order and watches exactly those, then steps until traffic quiesces or
    /// `max_events` events are counted.  Returns the events counted.
    pub fn drive<H: Hosts + ?Sized>(&mut self, hosts: &mut H, slots: usize, max: u64) -> u64 {
        self.deadlines.reset(slots);
        for slot in 0..slots {
            self.flush(hosts, slot, self.now());
        }
        let start = self.events;
        while self.events - start < max && self.step(hosts) {}
        self.events - start
    }
}

/// Endpoint deadlines with the earliest at hand: a tournament tree over
/// endpoint slots.  Leaves hold each slot's deadline and every inner node the
/// earlier of its two children, so setting a slot costs O(log n) and the
/// earliest deadline O(1).
#[derive(Debug, Default)]
struct DeadlineIndex {
    /// Node `i`'s children are `2i` and `2i + 1`; slot `s` is leaf
    /// `leaves + s`.
    nodes: Vec<Option<Nanos>>,
    leaves: usize,
}

/// The earlier of two deadlines, `None` being no deadline at all.
fn earlier(a: Option<Nanos>, b: Option<Nanos>) -> Option<Nanos> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, None) => a,
        (None, b) => b,
    }
}

impl DeadlineIndex {
    /// Forgets every deadline and resizes to `slots`, keeping the storage.
    fn reset(&mut self, slots: usize) {
        self.leaves = slots.next_power_of_two();
        self.nodes.clear();
        self.nodes.resize(2 * self.leaves, None);
    }

    fn set(&mut self, slot: usize, deadline: Option<Nanos>) {
        let mut i = self.leaves + slot;
        if self.nodes[i] == deadline {
            return;
        }
        self.nodes[i] = deadline;
        while i > 1 {
            i /= 2;
            let min = earlier(self.nodes[2 * i], self.nodes[2 * i + 1]);
            if self.nodes[i] == min {
                return;
            }
            self.nodes[i] = min;
        }
    }

    fn earliest(&self) -> Option<Nanos> {
        self.nodes.get(1).copied().flatten()
    }

    /// Appends every slot under `node` (the root is 1) whose deadline is at
    /// or before `now`, in slot order, visiting only subtrees that hold one.
    fn due(&self, node: usize, now: Nanos, out: &mut Vec<usize>) {
        if self.nodes[node].is_none_or(|d| d > now) {
            return;
        }
        if node >= self.leaves {
            out.push(node - self.leaves);
        } else {
            self.due(2 * node, now, out);
            self.due(2 * node + 1, now, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let mut driver = Driver::new(Fabric::new(Default::default(), Default::default()));
        driver.event(100);
        driver.event(40);
        assert_eq!((driver.now(), driver.events()), (100, 2));
    }

    #[test]
    fn deadline_index_agrees_with_a_linear_scan() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(25);
        for slots in [1, 2, 3, 7, 64, 65] {
            let mut index = DeadlineIndex::default();
            index.reset(slots);
            let mut linear: Vec<Option<Nanos>> = vec![None; slots];
            for _ in 0..2_000 {
                // A narrow range makes equal deadlines common; a quarter of
                // the updates clear the slot.
                let slot = rng.gen_range(0..slots);
                let deadline = rng.gen_bool(0.75).then(|| rng.gen_range(0..16));
                index.set(slot, deadline);
                linear[slot] = deadline;
                assert_eq!(index.earliest(), linear.iter().flatten().min().copied());
                let now = rng.gen_range(0..18);
                let mut due = Vec::new();
                index.due(1, now, &mut due);
                let want: Vec<usize> = (0..slots)
                    .filter(|&i| linear[i].is_some_and(|d| d <= now))
                    .collect();
                assert_eq!(due, want, "{slots} slots, now {now}");
            }
        }
    }
}
