//! The multi-host fabric: queued links, finite buffers and fault injection.
//!
//! Two topologies are modeled behind one interface ([`Topology`]):
//!
//! * **Big switch** (the default): every host connects to one switch core
//!   through an **egress** link and an **ingress** link, each a serial
//!   resource with the configured bandwidth and a finite tail-drop buffer.
//!   A packet sent from host A to host B serializes onto A's egress link,
//!   crosses the core (pure propagation delay), then serializes onto B's
//!   ingress link — which is where N→1 incast congestion queues up and
//!   overflows, exactly the scenario the paper's load experiments (and
//!   Ousterhout's TCP critique) are about.
//!
//! * **Leaf–spine** ([`Topology::LeafSpine`]): hosts attach to leaves in
//!   groups of [`LeafSpineConfig::hosts_per_leaf`]; every leaf connects to
//!   every spine.  Cross-leaf packets take host-egress → leaf→spine uplink →
//!   spine→leaf downlink → host-ingress, each hop a queued serial resource
//!   plus one propagation delay, with the spine chosen per flow by a
//!   deterministic ECMP hash of the 4-tuple.  Uplink bandwidth is the host
//!   rate times `hosts_per_leaf / spines`, divided by the configured
//!   [`oversubscription`](LeafSpineConfig::oversubscription) — the knob that
//!   makes the fabric core, not just the receiver edge, a contended
//!   resource.
//!
//! Either topology can run **ECN marking** ([`EcnConfig`]): a queue whose
//! instantaneous backlog exceeds the threshold CE-marks ECN-capable packets
//! (DCTCP's switch half; the endpoints' DCTCP window reacts to the echoed
//! marks).
//!
//! On top of the queueing model, a seeded [`FaultyLink`] injects loss,
//! reordering (extra per-packet delay) and duplication.  The same fault model
//! backs both the fabric and the batch [`FaultyLink::scramble_flight`] helper
//! the conformance tests use, so tests and scenarios agree on what "a bad
//! network" means.
//!
//! The fabric itself never touches an endpoint: it moves [`Packet`]s between
//! *ports* (one endpoint attachment point each) in virtual time.  A packet is
//! moved into a slab slot once at [`Fabric::send`], marked there in place at
//! each queue, and moved out at delivery; the event queue carries only the
//! slot, the destination port and the next hop.  The scenario runner
//! ([`crate::net::run_scenario`]) couples ports to protocol engines.

use super::event::EventQueue;
use crate::time::Nanos;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use smt_wire::Packet;

/// Identifies a host in the fabric.
pub type HostId = usize;

/// Identifies a port (one endpoint attachment) in the fabric.
pub type PortId = usize;

/// Per-direction link parameters of every host's fabric attachment.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Link bandwidth in Gb/s (the paper's testbed runs 100 Gb/s CX-7s).
    pub gbps: f64,
    /// One-way propagation delay through the switch core.
    pub propagation_ns: Nanos,
    /// Buffer capacity per link direction, in MTU-sized packets; beyond this
    /// backlog the link tail-drops.
    pub buffer_packets: usize,
    /// MTU used to convert `buffer_packets` into a time backlog bound.
    pub mtu: usize,
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self {
            gbps: 100.0,
            propagation_ns: 1_000,
            buffer_packets: 256,
            mtu: smt_wire::DEFAULT_MTU,
        }
    }
}

/// Serialization time of `bytes` at `gbps`, rounded to the nanosecond.
fn serialization_ns(bytes: usize, gbps: f64) -> Nanos {
    ((bytes as f64 * 8.0) / gbps).round() as Nanos
}

impl LinkConfig {
    /// Serialization time of `bytes` at the link rate.
    pub fn serialization_ns(&self, bytes: usize) -> Nanos {
        serialization_ns(bytes, self.gbps)
    }
}

/// ECN marking at fabric queues — the switch half of DCTCP.  A packet that
/// arrives at a queue whose instantaneous backlog exceeds the threshold is
/// CE-marked if its IP header declares ECN capability; the transport echoes
/// the mark fraction back to the sender, whose DCTCP window reacts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EcnConfig {
    /// Instantaneous-queue marking threshold in MTU-sized packets (DCTCP's
    /// K; the paper's testbed discipline marks early, well before
    /// tail-drop).
    pub marking_threshold_packets: usize,
}

impl Default for EcnConfig {
    fn default() -> Self {
        Self {
            marking_threshold_packets: 32,
        }
    }
}

/// Shape of a two-tier leaf–spine (Clos) fabric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LeafSpineConfig {
    /// Hosts attached to each leaf switch (host `h` sits on leaf
    /// `h / hosts_per_leaf`).
    pub hosts_per_leaf: usize,
    /// Spine switches; every leaf uplinks to every spine and flows are
    /// ECMP-hashed across them.
    pub spines: usize,
    /// Uplink oversubscription factor: 1.0 is a non-blocking Clos (aggregate
    /// uplink bandwidth equals aggregate host bandwidth per leaf); 4.0 gives
    /// the classic 4:1 oversubscribed datacenter pod.
    pub oversubscription: f64,
}

impl Default for LeafSpineConfig {
    fn default() -> Self {
        Self {
            hosts_per_leaf: 16,
            spines: 4,
            oversubscription: 1.0,
        }
    }
}

impl LeafSpineConfig {
    /// Bandwidth of one leaf↔spine link in Gb/s.
    pub fn uplink_gbps(&self, host_gbps: f64) -> f64 {
        let fair = host_gbps * self.hosts_per_leaf as f64 / self.spines.max(1) as f64;
        fair / self.oversubscription.max(1e-6)
    }
}

/// The fabric's switching topology.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum Topology {
    /// One big switch: egress → core propagation → ingress (the original
    /// model, and what older scenario JSON deserializes to).
    #[default]
    BigSwitch,
    /// Two-tier leaf–spine Clos with ECMP flow hashing and configurable
    /// oversubscription.
    LeafSpine(LeafSpineConfig),
}

/// Seeded fault-injection parameters shared by tests and scenarios.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability a packet is dropped on the wire.
    pub loss: f64,
    /// Probability a packet is duplicated (the copy arrives slightly later).
    pub duplicate: f64,
    /// Probability a packet is delayed past its successors (reordering).
    pub reorder: f64,
    /// Maximum extra delay applied to a reordered packet.
    pub reorder_delay_ns: Nanos,
    /// RNG seed; the same seed reproduces the same fault pattern.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            loss: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_delay_ns: 20_000,
            seed: 0,
        }
    }
}

impl FaultConfig {
    /// No faults at all.
    pub fn none() -> Self {
        Self::default()
    }

    /// Uniform random loss with probability `loss`.
    pub fn lossy(loss: f64, seed: u64) -> Self {
        Self {
            loss,
            seed,
            ..Self::default()
        }
    }

    /// Heavy reordering plus one duplicate of (almost) every packet — the
    /// chaos profile the endpoint conformance matrix drives.
    pub fn chaotic(seed: u64) -> Self {
        Self {
            duplicate: 1.0,
            reorder: 1.0,
            seed,
            ..Self::default()
        }
    }
}

/// Counters of what a [`FaultyLink`] did to the traffic.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Packets passed through unmodified.
    pub passed: u64,
    /// Packets dropped.
    pub dropped: u64,
    /// Extra copies injected.
    pub duplicated: u64,
    /// Packets given extra (reordering) delay.
    pub reordered: u64,
}

/// What the fault model decided for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The packet is lost.
    Drop,
    /// The packet is delivered with `extra_delay_ns` of reorder jitter; if
    /// `duplicate_delay_ns` is set, a second copy arrives that much later
    /// than the original.
    Deliver {
        /// Reordering delay added to the propagation time.
        extra_delay_ns: Nanos,
        /// Extra delay of the duplicated copy, when one is injected.
        duplicate_delay_ns: Option<Nanos>,
    },
}

/// A seeded fault model for one traffic direction or one whole fabric.
///
/// This is the *single* fault model in the repository: the fabric consults it
/// per packet ([`admit`](Self::admit)), and flight-oriented tests apply it per
/// batch ([`scramble_flight`](Self::scramble_flight)).
#[derive(Debug)]
pub struct FaultyLink {
    config: FaultConfig,
    rng: StdRng,
    /// What happened to the traffic so far.
    pub stats: FaultStats,
}

impl FaultyLink {
    /// Creates a fault model from its configuration (seeded RNG).
    pub fn new(config: FaultConfig) -> Self {
        Self {
            config,
            rng: StdRng::seed_from_u64(config.seed ^ 0x5eed_11ac_0ffe_e000),
            stats: FaultStats::default(),
        }
    }

    /// A link that never misbehaves.
    pub fn reliable() -> Self {
        Self::new(FaultConfig::none())
    }

    /// Decides the fate of one packet.
    pub fn admit(&mut self) -> Admission {
        let c = self.config;
        if c.loss > 0.0 && self.rng.gen::<f64>() < c.loss {
            self.stats.dropped += 1;
            return Admission::Drop;
        }
        let extra_delay_ns = if c.reorder > 0.0 && self.rng.gen::<f64>() < c.reorder {
            self.stats.reordered += 1;
            1 + self.rng.gen_range(0..c.reorder_delay_ns.max(1))
        } else {
            0
        };
        let duplicate_delay_ns = if c.duplicate > 0.0 && self.rng.gen::<f64>() < c.duplicate {
            self.stats.duplicated += 1;
            Some(1 + self.rng.gen_range(0..c.reorder_delay_ns.max(1)))
        } else {
            None
        };
        self.stats.passed += 1;
        Admission::Deliver {
            extra_delay_ns,
            duplicate_delay_ns,
        }
    }

    /// Applies the fault model to one flight of packets in place: drops each
    /// packet with the loss probability, appends a duplicate of surviving
    /// packets with the duplication probability, then (when reordering is
    /// enabled) Fisher–Yates-shuffles the whole flight.
    ///
    /// This is the batch form of [`admit`](Self::admit) for drivers that move
    /// whole flights instead of timed packets (the endpoint conformance
    /// matrix).
    pub fn scramble_flight(&mut self, packets: &mut Vec<Packet>) {
        let c = self.config;
        if c.loss > 0.0 {
            let before = packets.len();
            packets.retain(|_| self.rng.gen::<f64>() >= c.loss);
            self.stats.dropped += (before - packets.len()) as u64;
        }
        if c.duplicate > 0.0 {
            let mut dups = Vec::new();
            for p in packets.iter() {
                if self.rng.gen::<f64>() < c.duplicate {
                    dups.push(p.clone());
                }
            }
            self.stats.duplicated += dups.len() as u64;
            packets.extend(dups);
        }
        if c.reorder > 0.0 && packets.len() > 1 {
            for i in (1..packets.len()).rev() {
                let j = self.rng.gen_range(0usize..=i);
                if i != j {
                    self.stats.reordered += 1;
                }
                packets.swap(i, j);
            }
        }
        self.stats.passed += packets.len() as u64;
    }
}

/// Aggregate counters for one fabric.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct FabricStats {
    /// Packets offered by endpoints.
    pub offered: u64,
    /// Packet arrivals delivered to destination ports (duplicates included).
    pub delivered: u64,
    /// Packets dropped by the fault model.
    pub dropped_faults: u64,
    /// Packets tail-dropped at a full egress buffer.
    pub dropped_egress: u64,
    /// Packets tail-dropped at a full ingress buffer (incast overflow).
    pub dropped_ingress: u64,
    /// Duplicate copies injected by the fault model.
    pub duplicated: u64,
    /// Wire bytes carried end to end.
    pub wire_bytes: u64,
    /// Packets tail-dropped at a full leaf–spine uplink or downlink buffer
    /// (zero on the big-switch topology).
    pub dropped_spine: u64,
    /// Packets CE-marked by an over-threshold queue (zero without
    /// [`EcnConfig`]).
    pub ecn_marked: u64,
    /// High-water mark of any single host-ingress queue, in MTU-sized
    /// packets — the receiver-queue-occupancy gauge the incast bench bounds.
    pub peak_ingress_backlog_packets: u64,
}

impl FabricStats {
    /// Every packet lost inside the fabric, for any reason.
    pub fn dropped(&self) -> u64 {
        self.dropped_faults + self.dropped_egress + self.dropped_ingress + self.dropped_spine
    }
}

/// A serial link queue: a packet arriving at `t` with serialization time `s`
/// starts at `max(t, free_at)` and finishes `s` later.
#[derive(Debug, Default, Clone, Copy)]
struct Resource {
    free_at: Nanos,
}

impl Resource {
    fn new() -> Self {
        Self::default()
    }

    /// Queues work ready at `ready` taking `service`; returns its completion.
    fn schedule(&mut self, ready: Nanos, service: Nanos) -> Nanos {
        self.free_at = ready.max(self.free_at) + service;
        self.free_at
    }

    /// When the queue next drains.
    fn free_at(&self) -> Nanos {
        self.free_at
    }
}

#[derive(Debug)]
struct HostLinks {
    egress: Resource,
    ingress: Resource,
}

#[derive(Debug)]
struct PortInfo {
    host: HostId,
    peer: Option<PortId>,
}

/// The hop a packet takes next, with the switch coordinates it needs.
#[derive(Debug, Clone, Copy)]
enum Hop {
    /// Reached its source leaf; contend for the ECMP-chosen leaf→spine
    /// uplink (leaf–spine topology only).
    Uplink { leaf: u32, spine: u32 },
    /// Crossed the spine; contend for the spine→leaf downlink toward the
    /// destination leaf (leaf–spine topology only).
    Downlink { leaf: u32, spine: u32 },
    /// Reached the far edge of the core; contend for the destination host's
    /// ingress link.
    Ingress,
    /// Fully received at the destination port.
    Deliver,
}

/// A scheduled step of one in-flight packet: where it is headed, which slab
/// slot holds it, and the hop it takes next.
#[derive(Debug, Clone, Copy)]
struct NetEvent {
    dst: u32,
    slot: u32,
    hop: Hop,
}

/// In-flight packets, each parked in one slot from `send` until it is
/// delivered or dropped; events refer to them by slot.
#[derive(Debug, Default)]
struct Slab {
    packets: Vec<Option<Packet>>,
    free: Vec<u32>,
}

impl Slab {
    fn insert(&mut self, packet: Packet) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.packets[slot as usize] = Some(packet);
                slot
            }
            None => {
                self.packets.push(Some(packet));
                (self.packets.len() - 1) as u32
            }
        }
    }

    fn get_mut(&mut self, slot: u32) -> &mut Packet {
        self.packets[slot as usize]
            .as_mut()
            .expect("event refers to a live slot")
    }

    fn remove(&mut self, slot: u32) -> Packet {
        self.free.push(slot);
        self.packets[slot as usize]
            .take()
            .expect("event refers to a live slot")
    }
}

/// One link class's timing, fixed when the fabric is built: serialization
/// memoised per wire length, and the per-packet bounds derived from the MTU.
#[derive(Debug)]
struct LinkTiming {
    gbps: f64,
    /// Serialization time by wire length; `Nanos::MAX` marks an entry not
    /// computed yet.
    ser_ns: Vec<Nanos>,
    /// The deepest backlog the link holds before tail-dropping.
    buffer_ns: Nanos,
    /// One MTU's serialization time, at least 1 ns.
    per_packet_ns: Nanos,
    /// Backlog beyond which ECN-capable packets are CE-marked (`None`
    /// without ECN).
    mark_ns: Option<Nanos>,
}

impl LinkTiming {
    fn new(gbps: f64, link: &LinkConfig, ecn: Option<EcnConfig>) -> Self {
        let mtu_ns = serialization_ns(link.mtu, gbps);
        Self {
            gbps,
            ser_ns: Vec::new(),
            buffer_ns: mtu_ns * link.buffer_packets as Nanos,
            per_packet_ns: mtu_ns.max(1),
            mark_ns: ecn.map(|e| mtu_ns.max(1) * e.marking_threshold_packets as Nanos),
        }
    }

    fn serialization_ns(&mut self, bytes: usize) -> Nanos {
        match self.ser_ns.get(bytes) {
            Some(&ns) if ns != Nanos::MAX => return ns,
            Some(_) => {}
            None => self.ser_ns.resize(bytes + 1, Nanos::MAX),
        }
        let ns = serialization_ns(bytes, self.gbps);
        self.ser_ns[bytes] = ns;
        ns
    }

    /// CE-marks `packet` if it is ECN-capable and the backlog it joined is
    /// over the marking threshold.
    fn maybe_mark(&self, stats: &mut FabricStats, packet: &mut Packet, backlog_ns: Nanos) {
        if self.mark_ns.is_some_and(|t| backlog_ns > t) && packet.ip.is_ecn_capable() {
            packet.ip.mark_ce();
            stats.ecn_marked += 1;
        }
    }
}

/// The multi-host fabric: per-host queued links around a big-switch core,
/// with seeded fault injection, advancing on a deterministic event queue.
#[derive(Debug)]
pub struct Fabric {
    link: LinkConfig,
    topology: Topology,
    faults: FaultyLink,
    hosts: Vec<HostLinks>,
    ports: Vec<PortInfo>,
    /// Host egress and ingress links.
    host_timing: LinkTiming,
    /// Leaf↔spine links (leaf–spine topology only).
    spine_timing: LinkTiming,
    /// Leaf→spine uplink queues, indexed `leaf * spines + spine`
    /// (leaf–spine topology only; grown on demand).
    uplinks: Vec<Resource>,
    /// Spine→leaf downlink queues, same indexing.
    downlinks: Vec<Resource>,
    slab: Slab,
    queue: EventQueue<NetEvent>,
    /// Aggregate traffic counters.
    pub stats: FabricStats,
}

impl Fabric {
    /// Creates an empty fabric with uniform link parameters and one shared
    /// fault model.
    pub fn new(link: LinkConfig, faults: FaultConfig) -> Self {
        Self::with_topology(link, faults, Topology::BigSwitch, None)
    }

    /// Creates an empty fabric with an explicit topology and optional ECN
    /// marking.
    pub fn with_topology(
        link: LinkConfig,
        faults: FaultConfig,
        topology: Topology,
        ecn: Option<EcnConfig>,
    ) -> Self {
        let spine_gbps = match topology {
            Topology::LeafSpine(ls) => ls.uplink_gbps(link.gbps),
            Topology::BigSwitch => link.gbps,
        };
        Self {
            link,
            topology,
            faults: FaultyLink::new(faults),
            hosts: Vec::new(),
            ports: Vec::new(),
            host_timing: LinkTiming::new(link.gbps, &link, ecn),
            spine_timing: LinkTiming::new(spine_gbps, &link, ecn),
            uplinks: Vec::new(),
            downlinks: Vec::new(),
            slab: Slab::default(),
            queue: EventQueue::new(),
            stats: FabricStats::default(),
        }
    }

    /// Queue index of a leaf↔spine link.
    fn spine_link_index(&mut self, ls: &LeafSpineConfig, leaf: u32, spine: u32) -> usize {
        let idx = leaf as usize * ls.spines + spine as usize;
        if self.uplinks.len() <= idx {
            self.uplinks.resize_with(idx + 1, Resource::new);
            self.downlinks.resize_with(idx + 1, Resource::new);
        }
        idx
    }

    /// Deterministic ECMP spine choice: an FNV-1a fold of the packet's
    /// 4-tuple, so every packet of one flow takes one path (no intra-flow
    /// reordering from the fabric itself) while flows spread across spines.
    fn ecmp_spine(ls: &LeafSpineConfig, packet: &Packet) -> usize {
        let (src, dst) = match &packet.ip {
            smt_wire::IpHeader::V4(h) => (u64::from(u32::from_be_bytes(h.src)), {
                u64::from(u32::from_be_bytes(h.dst))
            }),
            smt_wire::IpHeader::V6(h) => {
                let fold = |a: &[u8; 16]| a.iter().fold(0u64, |acc, &b| acc << 1 ^ u64::from(b));
                (fold(&h.src), fold(&h.dst))
            }
        };
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for word in [
            src,
            dst,
            u64::from(packet.overlay.tcp.src_port),
            u64::from(packet.overlay.tcp.dst_port),
        ] {
            hash ^= word;
            hash = hash.wrapping_mul(0x1_0000_01b3);
        }
        (hash % ls.spines.max(1) as u64) as usize
    }

    /// Fault-model counters.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.stats
    }

    /// Adds a host (an egress/ingress link pair); returns its ID.
    pub fn add_host(&mut self) -> HostId {
        self.hosts.push(HostLinks {
            egress: Resource::new(),
            ingress: Resource::new(),
        });
        self.hosts.len() - 1
    }

    /// Adds a port on `host`; returns its ID.  Ports carry endpoints; a port
    /// must be [`connect`](Self::connect)ed to its peer before sending.
    pub fn add_port(&mut self, host: HostId) -> PortId {
        assert!(host < self.hosts.len(), "unknown host {host}");
        self.ports.push(PortInfo { host, peer: None });
        self.ports.len() - 1
    }

    /// Connects two ports as the ends of one bidirectional flow.
    pub fn connect(&mut self, a: PortId, b: PortId) {
        self.ports[a].peer = Some(b);
        self.ports[b].peer = Some(a);
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// True while a packet headed for `port` is still inside the fabric.
    pub fn in_flight_to(&self, port: PortId) -> bool {
        self.queue.iter().any(|e| e.dst as usize == port)
    }

    /// Injects `packets` from `src` at time `now`: egress queueing (tail-drop
    /// at a full buffer), fault injection, core propagation, then a scheduled
    /// ingress arrival at the peer's host.  Each surviving packet is moved
    /// into the fabric once and stays put until it is delivered or dropped;
    /// pass a `Vec`, or `drain(..)` a reused buffer.
    pub fn send(&mut self, now: Nanos, src: PortId, packets: impl IntoIterator<Item = Packet>) {
        let dst = self.ports[src]
            .peer
            .expect("port used before connect() wired its peer");
        let src_host = self.ports[src].host;
        // Same-leaf traffic (and the whole big-switch topology) goes straight
        // to the destination's ingress; cross-leaf traffic climbs to an
        // ECMP-chosen spine first.
        let uplink_from = match self.topology {
            Topology::LeafSpine(ls) => {
                let src_leaf = src_host / ls.hosts_per_leaf.max(1);
                let dst_leaf = self.ports[dst].host / ls.hosts_per_leaf.max(1);
                (src_leaf != dst_leaf).then_some((ls, src_leaf as u32))
            }
            Topology::BigSwitch => None,
        };
        for packet in packets {
            self.stats.offered += 1;
            let egress = &mut self.hosts[src_host].egress;
            if egress.free_at().saturating_sub(now) > self.host_timing.buffer_ns {
                self.stats.dropped_egress += 1;
                continue;
            }
            let tx_done =
                egress.schedule(now, self.host_timing.serialization_ns(packet.wire_len()));
            let Admission::Deliver {
                extra_delay_ns,
                duplicate_delay_ns,
            } = self.faults.admit()
            else {
                self.stats.dropped_faults += 1;
                continue;
            };
            let hop = match uplink_from {
                Some((ls, leaf)) => Hop::Uplink {
                    leaf,
                    spine: Self::ecmp_spine(&ls, &packet) as u32,
                },
                None => Hop::Ingress,
            };
            let dst = dst as u32;
            let base = tx_done + self.link.propagation_ns + extra_delay_ns;
            if let Some(extra) = duplicate_delay_ns {
                self.stats.duplicated += 1;
                let slot = self.slab.insert(packet.clone());
                self.queue.push(base + extra, NetEvent { dst, slot, hop });
            }
            let slot = self.slab.insert(packet);
            self.queue.push(base, NetEvent { dst, slot, hop });
        }
    }

    /// Time of the fabric's next internal event (an ingress-edge arrival or a
    /// completed delivery), if traffic is in flight.  This is a lower bound
    /// on the next delivery time: schedulers must re-poll after every
    /// [`pop_arrival`](Self::pop_arrival) call, bookkeeping steps included.
    pub fn next_arrival(&self) -> Option<Nanos> {
        self.queue.next_at()
    }

    /// Advances the fabric by exactly one internal event and returns the
    /// delivery as `(time, port, packet)` if that event completed one.
    ///
    /// Ingress-contention bookkeeping (a packet reaching the far edge of the
    /// core and queueing on the destination host's ingress link, possibly
    /// tail-dropping) returns `None`; the caller re-polls
    /// [`next_arrival`](Self::next_arrival) — which may now be later than
    /// other scheduler causes (workload sends, timers), so processing only
    /// one event per call keeps the global event order correct.
    pub fn pop_arrival(&mut self) -> Option<(Nanos, PortId, Packet)> {
        let (at, NetEvent { dst, slot, hop }) = self.queue.pop()?;
        let (next_at, hop) = match hop {
            Hop::Uplink { leaf, spine } => {
                let ls = self.leaf_spine();
                let up_done = self.cross_spine_link(&ls, at, slot, true, leaf, spine)?;
                let dst_leaf = self.ports[dst as usize].host / ls.hosts_per_leaf.max(1);
                let hop = Hop::Downlink {
                    leaf: dst_leaf as u32,
                    spine,
                };
                (up_done + self.link.propagation_ns, hop)
            }
            Hop::Downlink { leaf, spine } => {
                let ls = self.leaf_spine();
                let down_done = self.cross_spine_link(&ls, at, slot, false, leaf, spine)?;
                (down_done + self.link.propagation_ns, Hop::Ingress)
            }
            Hop::Ingress => {
                let timing = &mut self.host_timing;
                let ingress = &mut self.hosts[self.ports[dst as usize].host].ingress;
                let backlog_ns = ingress.free_at().saturating_sub(at);
                if backlog_ns > timing.buffer_ns {
                    self.stats.dropped_ingress += 1;
                    self.slab.remove(slot);
                    return None;
                }
                self.stats.peak_ingress_backlog_packets = self
                    .stats
                    .peak_ingress_backlog_packets
                    .max(backlog_ns / timing.per_packet_ns);
                let packet = self.slab.get_mut(slot);
                timing.maybe_mark(&mut self.stats, packet, backlog_ns);
                let rx_done = ingress.schedule(at, timing.serialization_ns(packet.wire_len()));
                (rx_done, Hop::Deliver)
            }
            Hop::Deliver => {
                let packet = self.slab.remove(slot);
                self.stats.delivered += 1;
                self.stats.wire_bytes += packet.wire_len() as u64;
                return Some((at, dst as usize, packet));
            }
        };
        self.queue.push(next_at, NetEvent { dst, slot, hop });
        None
    }

    /// The leaf–spine shape; only spine hops ask, and only a leaf–spine
    /// fabric schedules them.
    fn leaf_spine(&self) -> LeafSpineConfig {
        match self.topology {
            Topology::LeafSpine(ls) => ls,
            Topology::BigSwitch => unreachable!("spine hop on a big-switch fabric"),
        }
    }

    /// Queues the packet in `slot` on one leaf↔spine link (the uplink when
    /// `up`, else the downlink) at `at`.  Past the buffer it is tail-dropped
    /// and its slot freed (`None`); otherwise it is marked if the backlog
    /// calls for it and serialized, and the time it leaves the link is
    /// returned.
    fn cross_spine_link(
        &mut self,
        ls: &LeafSpineConfig,
        at: Nanos,
        slot: u32,
        up: bool,
        leaf: u32,
        spine: u32,
    ) -> Option<Nanos> {
        let idx = self.spine_link_index(ls, leaf, spine);
        let link = if up {
            &mut self.uplinks[idx]
        } else {
            &mut self.downlinks[idx]
        };
        let timing = &mut self.spine_timing;
        let backlog_ns = link.free_at().saturating_sub(at);
        if backlog_ns > timing.buffer_ns {
            self.stats.dropped_spine += 1;
            self.slab.remove(slot);
            return None;
        }
        let packet = self.slab.get_mut(slot);
        timing.maybe_mark(&mut self.stats, packet, backlog_ns);
        Some(link.schedule(at, timing.serialization_ns(packet.wire_len())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_wire::{OverlayTcpHeader, PacketPayload, PacketType, SmtOptionArea, SmtOverlayHeader};

    /// Payload length that puts exactly 1250 B on the wire (= 100 ns of
    /// serialization at the default 100 Gb/s), whatever the header overhead.
    const LEN_1250B: usize = 1250 - smt_wire::IPV4_HEADER_LEN - smt_wire::SMT_OVERLAY_LEN;

    fn packet(len: usize) -> Packet {
        Packet {
            ip: smt_wire::IpHeader::V4(smt_wire::Ipv4Header::new(
                [10, 0, 0, 1],
                [10, 0, 0, 2],
                smt_wire::IPPROTO_SMT,
                (smt_wire::IPV4_HEADER_LEN + smt_wire::SMT_OVERLAY_LEN + len) as u16,
            )),
            overlay: SmtOverlayHeader {
                tcp: OverlayTcpHeader::new(1, 2, PacketType::Data),
                options: SmtOptionArea::new(0, len as u32),
            },
            payload: PacketPayload::Data(vec![0xaa; len].into()),
            corrupted: false,
        }
    }

    #[test]
    fn serial_resource_queues_work() {
        let mut r = Resource::new();
        assert_eq!(r.schedule(0, 10), 10);
        // Arrives while busy: waits.
        assert_eq!(r.schedule(5, 10), 20);
        // Arrives after an idle period: starts immediately.
        assert_eq!(r.schedule(100, 5), 105);
        assert_eq!(r.free_at(), 105);
    }

    /// Drains fabric bookkeeping until the next delivery (test convenience
    /// for the one-event-per-call `pop_arrival` contract).
    fn next_delivery(f: &mut Fabric) -> Option<(Nanos, PortId, Packet)> {
        while f.next_arrival().is_some() {
            if let Some(d) = f.pop_arrival() {
                return Some(d);
            }
        }
        None
    }

    fn two_port_fabric(link: LinkConfig, faults: FaultConfig) -> (Fabric, PortId, PortId) {
        let mut f = Fabric::new(link, faults);
        let h0 = f.add_host();
        let h1 = f.add_host();
        let a = f.add_port(h0);
        let b = f.add_port(h1);
        f.connect(a, b);
        (f, a, b)
    }

    #[test]
    fn packets_arrive_after_serialization_and_propagation() {
        let (mut f, a, b) = two_port_fabric(LinkConfig::default(), FaultConfig::none());
        f.send(0, a, vec![packet(LEN_1250B)]); // 100 ns at 100 Gb/s
        let (at, port, _) = next_delivery(&mut f).unwrap();
        assert_eq!(port, b);
        // 100 ns egress + 1000 ns core + 100 ns ingress.
        assert_eq!(at, 1200);
        assert!(next_delivery(&mut f).is_none());
        assert_eq!(f.stats.delivered, 1);
    }

    #[test]
    fn egress_serialization_queues_back_to_back_packets() {
        let (mut f, a, _) = two_port_fabric(LinkConfig::default(), FaultConfig::none());
        f.send(0, a, vec![packet(LEN_1250B), packet(LEN_1250B)]);
        let (t1, _, _) = next_delivery(&mut f).unwrap();
        let (t2, _, _) = next_delivery(&mut f).unwrap();
        assert_eq!(t2 - t1, 100, "second packet serialized behind the first");
    }

    #[test]
    fn incast_contends_on_the_receiver_ingress_link() {
        let mut f = Fabric::new(LinkConfig::default(), FaultConfig::none());
        let sinks = f.add_host();
        let sink_a = f.add_port(sinks);
        let sink_b = f.add_port(sinks);
        let ha = f.add_host();
        let hb = f.add_host();
        let pa = f.add_port(ha);
        let pb = f.add_port(hb);
        f.connect(pa, sink_a);
        f.connect(pb, sink_b);
        // Two senders transmit simultaneously; their packets serialize in
        // parallel on their own egress links but share the sink's ingress.
        f.send(0, pa, vec![packet(LEN_1250B)]);
        f.send(0, pb, vec![packet(LEN_1250B)]);
        let (t1, _, _) = next_delivery(&mut f).unwrap();
        let (t2, _, _) = next_delivery(&mut f).unwrap();
        assert_eq!(t1, 1200);
        assert_eq!(t2, 1300, "second sender queued behind the first at ingress");
    }

    #[test]
    fn finite_buffers_tail_drop() {
        let link = LinkConfig {
            buffer_packets: 2,
            ..LinkConfig::default()
        };
        let (mut f, a, _) = two_port_fabric(link, FaultConfig::none());
        let burst: Vec<Packet> = (0..64).map(|_| packet(1400)).collect();
        f.send(0, a, burst);
        assert!(f.stats.dropped_egress > 0, "egress buffer overflowed");
        let mut arrivals = 0;
        while next_delivery(&mut f).is_some() {
            arrivals += 1;
        }
        assert_eq!(arrivals + f.stats.dropped_egress, 64);
    }

    #[test]
    fn seeded_faults_reproduce_exactly() {
        let run = |seed: u64| {
            let cfg = FaultConfig {
                loss: 0.2,
                duplicate: 0.3,
                reorder: 0.5,
                seed,
                ..FaultConfig::default()
            };
            let (mut f, a, _) = two_port_fabric(LinkConfig::default(), cfg);
            for _ in 0..50 {
                f.send(0, a, vec![packet(500)]);
            }
            let mut order = Vec::new();
            while let Some((at, _, _)) = next_delivery(&mut f) {
                order.push(at);
            }
            (order, f.fault_stats())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).1, run(8).1);
    }

    #[test]
    fn scramble_flight_duplicates_and_shuffles() {
        let mut link = FaultyLink::new(FaultConfig::chaotic(3));
        let mut flight: Vec<Packet> = (1..=20).map(|i| packet(i * 10)).collect();
        let original = flight.clone();
        link.scramble_flight(&mut flight);
        assert_eq!(flight.len(), 40, "every packet duplicated");
        assert!(
            flight
                .iter()
                .zip(&original)
                .any(|(shuffled, orig)| shuffled != orig),
            "flight order changed"
        );
        assert_eq!(link.stats.dropped, 0);
        assert_eq!(link.stats.duplicated, 20);
    }

    /// Leaf–spine fabric: `n_hosts` hosts, one port each, port `i` connected
    /// to port `i ^ 1` (so pair (0,1), (2,3), ... are flow endpoints is NOT
    /// assumed — callers connect explicitly).
    fn leaf_spine_fabric(
        n_hosts: usize,
        ls: LeafSpineConfig,
        link: LinkConfig,
        ecn: Option<EcnConfig>,
    ) -> (Fabric, Vec<PortId>) {
        let mut f = Fabric::with_topology(link, FaultConfig::none(), Topology::LeafSpine(ls), ecn);
        let ports: Vec<PortId> = (0..n_hosts)
            .map(|_| {
                let h = f.add_host();
                f.add_port(h)
            })
            .collect();
        (f, ports)
    }

    #[test]
    fn leaf_spine_cross_leaf_pays_two_switch_hops() {
        let ls = LeafSpineConfig {
            hosts_per_leaf: 2,
            spines: 2,
            oversubscription: 1.0,
        };
        // Hosts 0,1 on leaf 0; hosts 2,3 on leaf 1.  Uplinks run at
        // 100 Gb/s * 2 hosts / 2 spines = the host rate, so serialization is
        // 100 ns per 1250 B everywhere.
        let (mut f, p) = leaf_spine_fabric(4, ls, LinkConfig::default(), None);
        f.connect(p[0], p[2]);
        f.send(0, p[0], vec![packet(LEN_1250B)]);
        let (at, port, _) = next_delivery(&mut f).unwrap();
        assert_eq!(port, p[2]);
        // egress 100 + prop 1000 + uplink 100 + prop 1000 + downlink 100 +
        // prop 1000 + ingress 100.
        assert_eq!(at, 3400);
    }

    #[test]
    fn leaf_spine_same_leaf_matches_big_switch_timing() {
        let ls = LeafSpineConfig {
            hosts_per_leaf: 2,
            spines: 2,
            oversubscription: 1.0,
        };
        let (mut f, p) = leaf_spine_fabric(4, ls, LinkConfig::default(), None);
        f.connect(p[0], p[1]); // both on leaf 0
        f.send(0, p[0], vec![packet(LEN_1250B)]);
        let (at, _, _) = next_delivery(&mut f).unwrap();
        assert_eq!(at, 1200, "intra-leaf traffic never climbs to a spine");
        assert_eq!(f.stats.dropped_spine, 0);
    }

    #[test]
    fn ecmp_is_deterministic_per_flow_and_spreads_across_spines() {
        let ls = LeafSpineConfig {
            hosts_per_leaf: 2,
            spines: 4,
            oversubscription: 1.0,
        };
        let mut seen = [false; 4];
        for port in 0..64u16 {
            let mut pk = packet(100);
            pk.overlay.tcp.src_port = port;
            assert_eq!(
                Fabric::ecmp_spine(&ls, &pk),
                Fabric::ecmp_spine(&ls, &pk),
                "same 4-tuple, same spine"
            );
            seen[Fabric::ecmp_spine(&ls, &pk)] = true;
        }
        assert!(seen.iter().all(|&s| s), "64 flows cover all 4 spines");
    }

    #[test]
    fn oversubscribed_uplink_is_the_bottleneck() {
        let ls = LeafSpineConfig {
            hosts_per_leaf: 2,
            spines: 1,
            oversubscription: 4.0,
        };
        // Uplink: 100 Gb/s * 2/1 / 4.0 = 50 Gb/s -> 200 ns per 1250 B.
        let (mut f, p) = leaf_spine_fabric(4, ls, LinkConfig::default(), None);
        f.connect(p[0], p[2]);
        f.send(0, p[0], vec![packet(LEN_1250B); 3]);
        let mut arrivals = Vec::new();
        while let Some((at, _, _)) = next_delivery(&mut f) {
            arrivals.push(at);
        }
        assert_eq!(arrivals.len(), 3);
        assert_eq!(
            arrivals[1] - arrivals[0],
            200,
            "deliveries paced by the slow uplink, not the 100 ns host link"
        );
        assert_eq!(arrivals[2] - arrivals[1], 200);
    }

    #[test]
    fn full_spine_buffer_tail_drops() {
        let ls = LeafSpineConfig {
            hosts_per_leaf: 2,
            spines: 1,
            oversubscription: 16.0,
        };
        let link = LinkConfig {
            buffer_packets: 2,
            ..LinkConfig::default()
        };
        let (mut f, p) = leaf_spine_fabric(4, ls, link, None);
        f.connect(p[0], p[2]);
        // Pace sends at the 100 ns host-egress rate so the egress queue
        // stays empty and the 800 ns/packet uplink is the overflow point.
        for i in 0..32 {
            f.send(i * 100, p[0], vec![packet(LEN_1250B)]);
        }
        while next_delivery(&mut f).is_some() {}
        assert!(f.stats.dropped_spine > 0, "overflow lands in dropped_spine");
        assert_eq!(
            f.stats.delivered + f.stats.dropped_spine,
            32,
            "every packet either arrives or is accounted as a spine drop"
        );
    }

    #[test]
    fn ecn_marks_over_threshold_queues_and_tracks_peak_backlog() {
        // Big-switch incast: four senders flood one receiver so its ingress
        // backlog crosses the 2-packet ECN threshold.
        let ecn = EcnConfig {
            marking_threshold_packets: 2,
        };
        let mut f = Fabric::with_topology(
            LinkConfig::default(),
            FaultConfig::none(),
            Topology::BigSwitch,
            Some(ecn),
        );
        let sink = f.add_host();
        let mut sender_ports = Vec::new();
        let mut sink_ports = Vec::new();
        for _ in 0..4 {
            let h = f.add_host();
            let sp = f.add_port(h);
            let rp = f.add_port(sink);
            f.connect(sp, rp);
            sender_ports.push(sp);
            sink_ports.push(rp);
        }
        for &sp in &sender_ports {
            let mut pk = packet(LEN_1250B);
            pk.ip.set_ecn_capable();
            f.send(0, sp, vec![pk.clone(), pk.clone(), pk]);
        }
        let mut ce = 0;
        while let Some((_, _, pk)) = next_delivery(&mut f) {
            if pk.ip.is_ce_marked() {
                ce += 1;
            }
        }
        assert!(ce > 0, "deep ingress queue CE-marks ECN-capable packets");
        assert_eq!(f.stats.ecn_marked, ce);
        assert!(
            f.stats.peak_ingress_backlog_packets >= 2,
            "peak backlog gauge saw the incast queue (got {})",
            f.stats.peak_ingress_backlog_packets
        );
    }

    #[test]
    fn ecn_never_marks_non_capable_packets() {
        let ecn = EcnConfig {
            marking_threshold_packets: 0,
        };
        let (mut f, a, _) = {
            let mut f = Fabric::with_topology(
                LinkConfig::default(),
                FaultConfig::none(),
                Topology::BigSwitch,
                Some(ecn),
            );
            let h0 = f.add_host();
            let h1 = f.add_host();
            let a = f.add_port(h0);
            let b = f.add_port(h1);
            f.connect(a, b);
            (f, a, b)
        };
        f.send(0, a, vec![packet(LEN_1250B); 4]);
        while let Some((_, _, pk)) = next_delivery(&mut f) {
            assert!(!pk.ip.is_ce_marked());
        }
        assert_eq!(f.stats.ecn_marked, 0, "not-ECT packets pass unmarked");
    }

    #[test]
    fn every_drop_frees_its_slab_slot() {
        // Leaf 0 holds hosts 0-3, leaf 1 hosts 4-7, one spine at 16:1.  The
        // two cross-leaf flows share leaf 0's 800 ns/packet uplink (spine
        // drops); the two same-leaf flows into host 7 share its ingress
        // (ingress drops); every burst overruns its sender's 2-packet egress
        // buffer.
        let ls = LeafSpineConfig {
            hosts_per_leaf: 4,
            spines: 1,
            oversubscription: 16.0,
        };
        let link = LinkConfig {
            buffer_packets: 2,
            ..LinkConfig::default()
        };
        let mut f = Fabric::with_topology(link, FaultConfig::none(), Topology::LeafSpine(ls), None);
        let hosts: Vec<HostId> = (0..8).map(|_| f.add_host()).collect();
        let mut senders = Vec::new();
        for (from, to) in [(0, 4), (1, 5), (5, 7), (6, 7)] {
            let (a, b) = (f.add_port(hosts[from]), f.add_port(hosts[to]));
            f.connect(a, b);
            senders.push(a);
        }
        let mut first_peak = None;
        for round in 0..10 {
            let now = round * 1_000_000;
            for &p in &senders {
                f.send(now, p, vec![packet(LEN_1250B); 16]);
            }
            while next_delivery(&mut f).is_some() {}
            let peak = f.slab.packets.len();
            assert_eq!(f.slab.free.len(), peak, "round {round}: every slot free");
            assert!(peak <= *first_peak.get_or_insert(peak), "round {round}");
        }
        assert!(f.stats.dropped_egress > 0);
        assert!(f.stats.dropped_spine > 0);
        assert!(f.stats.dropped_ingress > 0);
        assert_eq!(
            f.stats.delivered + f.stats.dropped(),
            f.stats.offered,
            "every packet delivered or counted as dropped"
        );
    }

    #[test]
    fn a_duplicate_is_an_independent_copy() {
        // The copy trails the original by at most 50 ns, so it reaches the
        // sink's ingress while the original still occupies it: the copy is
        // CE-marked, the original is not.
        let faults = FaultConfig {
            duplicate: 1.0,
            reorder_delay_ns: 50,
            seed: 3,
            ..FaultConfig::default()
        };
        let ecn = EcnConfig {
            marking_threshold_packets: 0,
        };
        let mut f = Fabric::with_topology(
            LinkConfig::default(),
            faults,
            Topology::BigSwitch,
            Some(ecn),
        );
        let (h0, h1) = (f.add_host(), f.add_host());
        let (a, b) = (f.add_port(h0), f.add_port(h1));
        f.connect(a, b);
        let mut pk = packet(LEN_1250B);
        pk.ip.set_ecn_capable();
        f.send(0, a, vec![pk]);
        let (_, _, original) = next_delivery(&mut f).unwrap();
        let (_, _, copy) = next_delivery(&mut f).unwrap();
        assert!(next_delivery(&mut f).is_none());
        assert!(!original.ip.is_ce_marked());
        assert!(copy.ip.is_ce_marked());
        assert_eq!((f.stats.duplicated, f.stats.ecn_marked), (1, 1));
    }

    #[test]
    fn draining_a_buffer_sends_what_a_vec_sends() {
        let faults = FaultConfig {
            loss: 0.1,
            duplicate: 0.2,
            reorder: 0.3,
            seed: 11,
            ..FaultConfig::default()
        };
        let ls = LeafSpineConfig {
            hosts_per_leaf: 2,
            spines: 2,
            oversubscription: 4.0,
        };
        let ecn = Some(EcnConfig {
            marking_threshold_packets: 2,
        });
        let build = || {
            let mut f = Fabric::with_topology(
                LinkConfig {
                    buffer_packets: 8,
                    ..LinkConfig::default()
                },
                faults,
                Topology::LeafSpine(ls),
                ecn,
            );
            let ports: Vec<PortId> = (0..4)
                .map(|_| {
                    let h = f.add_host();
                    f.add_port(h)
                })
                .collect();
            f.connect(ports[0], ports[2]);
            f.connect(ports[1], ports[3]);
            f
        };
        let flight = |i: usize| -> Vec<Packet> {
            (0..12)
                .map(|j| {
                    let mut pk = packet(200 + 100 * ((i + j) % 12));
                    if j % 2 == 0 {
                        pk.ip.set_ecn_capable();
                    }
                    pk
                })
                .collect()
        };
        let run = |drain: bool| {
            let mut f = build();
            let mut scratch = Vec::new();
            let mut deliveries = Vec::new();
            for i in 0..20 {
                let (now, src) = (i as Nanos * 500, i % 4);
                if drain {
                    scratch.extend(flight(i));
                    f.send(now, src, scratch.drain(..));
                } else {
                    f.send(now, src, flight(i));
                }
                while f.next_arrival().is_some_and(|t| t <= now + 500) {
                    deliveries.extend(f.pop_arrival());
                }
            }
            while let Some(d) = next_delivery(&mut f) {
                deliveries.push(d);
            }
            (deliveries, f.stats)
        };
        let (by_vec, by_drain) = (run(false), run(true));
        assert!(by_vec.1.dropped() > 0 && by_vec.1.ecn_marked > 0 && by_vec.1.duplicated > 0);
        assert_eq!(by_vec, by_drain);
    }
}
