//! Many-connection demultiplexing over one socket: the [`Listener`].
//!
//! A datacenter service endpoint accepts thousands of concurrent connections
//! on one well-known port.  The [`Listener`] models that: every ingress
//! packet carries a **connection ID** in the SMT option area
//! (`SmtOptionArea::connection_id`, stamped by the dialing side via
//! [`super::EndpointBuilder::connection_id`]), and the listener routes it to
//! the per-connection [`Endpoint`] it belongs to — spawning a fresh accepting
//! endpoint when the first CONTROL packet of an unknown ID arrives, exactly
//! like a SYN hitting a listening socket.
//!
//! All accepted connections share the listener-wide security state:
//!
//! * one [`ZeroRttAcceptor`] — the SMT-ticket issuer plus the ClientHello
//!   anti-replay cache, so a replayed 0-RTT flight fails no matter which
//!   accepted endpoint it reaches;
//! * one [`SharedPathSecrets`] — the bounded per-peer path-secret map minted
//!   by full handshakes and consumed by derived handshakes, plus the
//!   derived-hello anti-replay cache.
//!
//! The connection table is **bounded** with the same discipline as every
//! other attacker-influenceable buffer in the repository (DESIGN.md §8): at
//! `capacity` connections the oldest-accepted one is evicted and counted in
//! [`Listener::state_evictions`], so a SYN-flood of fresh connection IDs
//! cannot grow memory without bound.  Legitimate evicted peers recover by
//! reconnecting — cheaply, via the derived handshake, when the path secret
//! survived.

use super::handshake::{AcceptConfig, SharedPathSecrets, ZeroRttAcceptor};
use super::{take_delivered, Endpoint, EndpointBuilder, EndpointResult, EndpointStats, Event};
use crate::SecureEndpoint;
use smt_crypto::cert::{Identity, VerifyingKey};
use smt_sim::net::{Driver, Fabric, FabricStats, FaultConfig, Hosts, LinkConfig, PortId};
use smt_sim::Nanos;
use smt_wire::{Packet, PacketType};
use std::collections::{HashMap, VecDeque};

/// A multi-connection accepting endpoint: demuxes every evaluated stack's
/// packets over one socket by connection ID, spawning and evicting
/// per-connection [`Endpoint`]s (bounded table, oldest-first eviction).
///
/// Build one with [`Listener::new`], then drive it like an endpoint:
/// [`handle_datagram`](Self::handle_datagram) ingress,
/// [`poll_transmit`](Self::poll_transmit) egress,
/// [`poll_event`](Self::poll_event) for `(connection_id, Event)` pairs, and
/// the [`next_timeout`](Self::next_timeout) /
/// [`on_timeout`](Self::on_timeout) timer contract.
#[derive(Debug)]
pub struct Listener {
    builder: EndpointBuilder,
    identity: Identity,
    ca_key: VerifyingKey,
    acceptor: Option<ZeroRttAcceptor>,
    secrets: Option<SharedPathSecrets>,
    ticket_now: u64,
    capacity: usize,
    conns: HashMap<u32, Endpoint>,
    /// Acceptance order, oldest first — the eviction queue and the
    /// deterministic iteration order for egress and events.
    order: VecDeque<u32>,
    evictions: u64,
    dropped: u64,
}

impl Listener {
    /// A listener accepting up to `capacity` concurrent connections, each a
    /// server endpoint presenting `identity` on the stack (MTU, TSO, timers,
    /// path) configured in `builder`.
    ///
    /// `capacity` is a hard bound: the connection admitted past it evicts the
    /// oldest live connection (counted in
    /// [`state_evictions`](Self::state_evictions)).
    pub fn new(
        builder: EndpointBuilder,
        identity: Identity,
        ca_key: VerifyingKey,
        capacity: usize,
    ) -> Self {
        let mut builder = builder;
        if builder.path.is_none() {
            // Default to the canonical evaluation path's server end; the
            // fabric routes by port attachment, not by address, so one shared
            // path template serves every accepted connection.
            builder.path = Some(smt_core::segment::PathInfo::pair(4000, 5201).1);
        }
        Self {
            builder,
            identity,
            ca_key,
            acceptor: None,
            secrets: None,
            ticket_now: 0,
            capacity: capacity.max(1),
            conns: HashMap::new(),
            order: VecDeque::new(),
            evictions: 0,
            dropped: 0,
        }
    }

    /// Shares `acceptor` (ticket issuer + 0-RTT anti-replay cache) across
    /// every accepted connection; see [`AcceptConfig::zero_rtt`].
    pub fn zero_rtt(mut self, acceptor: ZeroRttAcceptor) -> Self {
        self.acceptor = Some(acceptor);
        self
    }

    /// Shares `secrets` (path-secret map + derived-hello anti-replay cache)
    /// across every accepted connection; see [`AcceptConfig::path_secrets`].
    pub fn path_secrets(mut self, secrets: SharedPathSecrets) -> Self {
        self.secrets = Some(secrets);
        self
    }

    /// Server clock for ticket age validation; see
    /// [`AcceptConfig::ticket_time`].
    pub fn ticket_time(mut self, now: u64) -> Self {
        self.ticket_now = now;
        self
    }

    /// The per-connection accept configuration, assembled from the shared
    /// listener state.
    fn accept_config(&self) -> AcceptConfig {
        let mut config = AcceptConfig::new(self.identity.clone(), self.ca_key.clone())
            .ticket_time(self.ticket_now);
        if let Some(acceptor) = &self.acceptor {
            config = config.zero_rtt(acceptor.clone());
        }
        if let Some(secrets) = &self.secrets {
            config = config.path_secrets(secrets.clone());
        }
        config
    }

    /// Routes one ingress packet to its connection by ID.  A CONTROL packet
    /// with an unknown nonzero ID accepts a new connection (evicting the
    /// oldest at capacity); anything else unknown — data for a dead or
    /// evicted connection, or an unstamped packet — is counted in
    /// [`dropped`](Self::dropped) and discarded.
    pub fn handle_datagram(&mut self, packet: &Packet, now: Nanos) -> EndpointResult<()> {
        let cid = packet.overlay.options.connection_id;
        if cid == 0 {
            self.dropped += 1;
            return Ok(());
        }
        if !self.conns.contains_key(&cid) {
            if packet.overlay.tcp.packet_type != PacketType::Control {
                self.dropped += 1;
                return Ok(());
            }
            while self.conns.len() >= self.capacity {
                if let Some(oldest) = self.order.pop_front() {
                    self.conns.remove(&oldest);
                    self.evictions += 1;
                } else {
                    break;
                }
            }
            let ep = self
                .builder
                .clone()
                .connection_id(cid)
                .accept(self.accept_config())?;
            self.conns.insert(cid, ep);
            self.order.push_back(cid);
        }
        let ep = self.conns.get_mut(&cid).expect("just routed or inserted");
        // Fatal per-connection errors surface as that connection's
        // Event::Error; the listener itself keeps serving the others.
        let _ = ep.handle_datagram(packet, now);
        Ok(())
    }

    /// Appends every packet any live connection wants on the wire to `out`
    /// (each already stamped with its connection ID), in acceptance order.
    pub fn poll_transmit(&mut self, now: Nanos, out: &mut Vec<Packet>) -> usize {
        let before = out.len();
        for cid in &self.order {
            if let Some(ep) = self.conns.get_mut(cid) {
                ep.poll_transmit(now, out);
            }
        }
        out.len() - before
    }

    /// The next pending `(connection_id, Event)` across all connections, in
    /// acceptance order.
    pub fn poll_event(&mut self) -> Option<(u32, Event)> {
        for cid in &self.order {
            if let Some(ep) = self.conns.get_mut(cid) {
                if let Some(ev) = ep.poll_event() {
                    return Some((*cid, ev));
                }
            }
        }
        None
    }

    /// Drains every pending delivery across all connections as
    /// `(connection_id, message_id, payload)` triples.
    pub fn take_delivered(&mut self) -> Vec<(u32, super::MessageId, Vec<u8>)> {
        let mut all = Vec::new();
        for cid in &self.order {
            if let Some(ep) = self.conns.get_mut(cid) {
                for (id, data) in take_delivered(ep) {
                    all.push((*cid, id, data));
                }
            }
        }
        all
    }

    /// Queues `data` on connection `cid`.
    pub fn send(&mut self, cid: u32, data: &[u8], now: Nanos) -> EndpointResult<super::MessageId> {
        match self.conns.get_mut(&cid) {
            Some(ep) => ep.send(data, now),
            None => Err(super::EndpointError::Config(format!(
                "no live connection {cid}"
            ))),
        }
    }

    /// The earliest retransmission deadline across all live connections.
    pub fn next_timeout(&self) -> Option<Nanos> {
        self.conns.values().filter_map(|ep| ep.next_timeout()).min()
    }

    /// Fires the timer of every connection whose deadline has passed.
    pub fn on_timeout(&mut self, now: Nanos) {
        for ep in self.conns.values_mut() {
            if ep.next_timeout().is_some_and(|d| d <= now) {
                ep.on_timeout(now);
            }
        }
    }

    /// Closes connection `cid`, returning its endpoint (does not count as an
    /// eviction — this is the orderly release churn workloads use).
    pub fn close(&mut self, cid: u32) -> Option<Endpoint> {
        let ep = self.conns.remove(&cid)?;
        self.order.retain(|c| *c != cid);
        Some(ep)
    }

    /// Live connection IDs, oldest-accepted first.
    pub fn connection_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.order.iter().copied()
    }

    /// Number of live connections.
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// True when no connections are live.
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// The connection-table bound this listener enforces.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Connections evicted oldest-first to keep the table within
    /// [`capacity`](Self::capacity).
    pub fn state_evictions(&self) -> u64 {
        self.evictions
    }

    /// Ingress packets discarded undemuxable: unstamped (ID zero), or a
    /// non-CONTROL packet for an unknown/evicted connection.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Aggregate statistics over all live connections, with the listener's
    /// own table evictions and undemuxable drops folded into
    /// `state_evictions` / `datagrams_dropped`.
    pub fn stats(&self) -> EndpointStats {
        let mut total = EndpointStats::default();
        for ep in self.conns.values() {
            total.absorb(&ep.stats());
        }
        total.state_evictions += self.evictions;
        total.datagrams_dropped += self.dropped;
        total
    }
}

/// A many-host fabric for driving N dialing clients against one [`Listener`]:
/// the listener host owns one port per client (all sharing its NIC's
/// ingress/egress links, so incast congestion is modeled), each client its
/// own host.  This is the multi-connection analogue of
/// [`PairFabric`](super::PairFabric), and the substrate of the churn
/// benchmarks.
#[derive(Debug)]
pub struct ListenerFabric {
    driver: Driver,
    listener_host: usize,
    /// Connection ID → (listener-side port, client-side port).
    ports: HashMap<u32, (PortId, PortId)>,
    /// Reverse map: port → (is_listener_side, connection ID).
    owner: HashMap<PortId, (bool, u32)>,
    /// Port pairs of detached connections, reused by the next
    /// [`attach`](Self::attach).
    free: Vec<(PortId, PortId)>,
    /// `(connection ID, slot)` of every client of a [`drive`](Self::drive)
    /// call, sorted; rebuilt by each call.
    slots: Vec<(u32, usize)>,
}

impl ListenerFabric {
    /// A fabric with the given uniform link parameters and fault model,
    /// holding just the listener host; [`attach`](Self::attach) clients to it.
    pub fn new(link: LinkConfig, faults: FaultConfig) -> Self {
        let mut fabric = Fabric::new(link, faults);
        let listener_host = fabric.add_host();
        Self {
            driver: Driver::new(fabric),
            listener_host,
            ports: HashMap::new(),
            owner: HashMap::new(),
            free: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// A lossless fabric with default datacenter parameters.
    pub fn reliable() -> Self {
        Self::new(LinkConfig::default(), FaultConfig::none())
    }

    /// Wires a client host for connection `cid` to the listener, reusing a
    /// [`detach`](Self::detach)ed connection's ports and host when there is
    /// one.  Call once per connection ID before driving that client.
    pub fn attach(&mut self, cid: u32) {
        assert!(cid != 0, "connection ID zero means unmultiplexed");
        assert!(
            !self.ports.contains_key(&cid),
            "connection {cid} already attached"
        );
        let fabric = &mut self.driver.fabric;
        let (lp, cp) = match self.free.pop() {
            Some((lp, cp)) => {
                debug_assert!(
                    !fabric.in_flight_to(lp) && !fabric.in_flight_to(cp),
                    "reused ports still have packets in flight"
                );
                (lp, cp)
            }
            None => {
                let lp = fabric.add_port(self.listener_host);
                let ch = fabric.add_host();
                let cp = fabric.add_port(ch);
                fabric.connect(lp, cp);
                (lp, cp)
            }
        };
        self.ports.insert(cid, (lp, cp));
        self.owner.insert(lp, (true, cid));
        self.owner.insert(cp, (false, cid));
    }

    /// Unwires connection `cid` and keeps its ports and client host for the
    /// next [`attach`](Self::attach); call it once the connection is closed
    /// and its traffic has quiesced.  Unknown IDs are ignored.
    pub fn detach(&mut self, cid: u32) {
        if let Some((lp, cp)) = self.ports.remove(&cid) {
            self.owner.remove(&lp);
            self.owner.remove(&cp);
            self.free.push((lp, cp));
        }
    }

    /// The fabric's current virtual time.
    pub fn now(&self) -> Nanos {
        self.driver.now()
    }

    /// Full fabric counters.
    pub fn stats(&self) -> FabricStats {
        self.driver.fabric.stats
    }

    /// Drives `clients` (each dialing with its attached connection ID)
    /// against `listener` until traffic quiesces or `max_events` fabric
    /// events have been processed; returns the number processed.
    ///
    /// One call into the fabric's [`Driver`], under
    /// [`drive_pair`](super::drive_pair)'s rules: every client, then the
    /// listener, is flushed on entry, and after that only the endpoints an
    /// event reached are polled.  A packet for a connection goes to the
    /// first client dialing with its ID; listener egress is routed per packet
    /// by its stamped connection ID, and packets for unattached IDs are
    /// discarded.
    pub fn drive(
        &mut self,
        clients: &mut [(u32, Endpoint)],
        listener: &mut Listener,
        max_events: usize,
    ) -> usize {
        let slots = clients.len() + 1;
        let (driver, mut conns) = self.split(clients, listener);
        driver.drive(&mut conns, slots, max_events as u64) as usize
    }

    /// The driver, and the endpoints of one [`drive`](Self::drive) call.
    fn split<'a>(
        &'a mut self,
        clients: &'a mut [(u32, Endpoint)],
        listener: &'a mut Listener,
    ) -> (&'a mut Driver, Conns<'a>) {
        self.slots.clear();
        for (slot, (cid, _)) in clients.iter().enumerate() {
            self.slots.push((*cid, slot));
        }
        self.slots.sort_unstable();
        let conns = Conns {
            clients,
            listener,
            ports: &self.ports,
            owner: &self.owner,
            slots: &self.slots,
        };
        (&mut self.driver, conns)
    }
}

/// The endpoints of one [`ListenerFabric::drive`] call: client `i` in slot
/// `i`, the listener in the slot after the last client.
struct Conns<'a> {
    clients: &'a mut [(u32, Endpoint)],
    listener: &'a mut Listener,
    ports: &'a HashMap<u32, (PortId, PortId)>,
    owner: &'a HashMap<PortId, (bool, u32)>,
    slots: &'a [(u32, usize)],
}

impl Hosts for Conns<'_> {
    fn deliver(&mut self, port: PortId, packet: &Packet, now: Nanos) -> Option<usize> {
        match *self.owner.get(&port)? {
            (true, _) => {
                let _ = self.listener.handle_datagram(packet, now);
                Some(self.clients.len())
            }
            (false, cid) => {
                let first = self.slots.partition_point(|&(c, _)| c < cid);
                let &(c, slot) = self.slots.get(first)?;
                (c == cid).then(|| {
                    let _ = self.clients[slot].1.handle_datagram(packet, now);
                    slot
                })
            }
        }
    }

    fn fire(&mut self, slot: usize, now: Nanos) {
        match self.clients.get_mut(slot) {
            Some((_, client)) => client.on_timeout(now),
            None => self.listener.on_timeout(now),
        }
    }

    fn flush(&mut self, slot: usize, t: Nanos, fabric: &mut Fabric, buf: &mut Vec<Packet>) {
        let Some((cid, client)) = self.clients.get_mut(slot) else {
            self.listener.poll_transmit(t, buf);
            for packet in buf.drain(..) {
                let cid = packet.overlay.options.connection_id;
                if let Some(&(lp, _)) = self.ports.get(&cid) {
                    fabric.send(t, lp, std::iter::once(packet));
                }
            }
            return;
        };
        if client.poll_transmit(t, buf) > 0 {
            match self.ports.get(cid) {
                Some(&(_, cp)) => fabric.send(t, cp, buf.drain(..)),
                None => buf.clear(),
            }
        }
    }

    fn deadline(&self, slot: usize) -> Option<Nanos> {
        match self.clients.get(slot) {
            Some((_, client)) => client.next_timeout(),
            None => self.listener.next_timeout(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::ConnectConfig;
    use crate::stack::StackKind;
    use smt_crypto::cert::CertificateAuthority;

    fn dial(
        stack: StackKind,
        cid: u32,
        ca: &CertificateAuthority,
        secrets: Option<&SharedPathSecrets>,
    ) -> Endpoint {
        let mut config = ConnectConfig::new(ca.verifying_key(), "server.dc.local");
        if let Some(s) = secrets {
            config = config.path_secrets(s.clone());
        }
        Endpoint::builder()
            .stack(stack)
            .connection_id(cid)
            .path(smt_core::segment::PathInfo::pair(4000, 5201).0)
            .connect(config)
            .unwrap()
    }

    fn listener(stack: StackKind, ca: &CertificateAuthority, capacity: usize) -> Listener {
        let id = ca.issue_identity("server.dc.local");
        Listener::new(
            Endpoint::builder().stack(stack),
            id,
            ca.verifying_key(),
            capacity,
        )
    }

    #[test]
    fn demuxes_many_concurrent_connections_per_stack() {
        for stack in [StackKind::SmtSw, StackKind::KtlsSw] {
            let ca = CertificateAuthority::new("listen-ca");
            let mut lst = listener(stack, &ca, 64);
            let mut fabric = ListenerFabric::reliable();
            let mut clients: Vec<(u32, Endpoint)> = (1..=8u32)
                .map(|cid| {
                    fabric.attach(cid);
                    let mut c = dial(stack, cid, &ca, None);
                    c.send(format!("payload for {cid}").as_bytes(), 0).unwrap();
                    (cid, c)
                })
                .collect();
            fabric.drive(&mut clients, &mut lst, 1_000_000);
            assert_eq!(lst.len(), 8, "stack {}", stack.label());
            // Every connection completed its own handshake and delivered its
            // own payload, demuxed to the right per-connection endpoint.
            let mut completions = 0;
            let mut got = Vec::new();
            while let Some((cid, ev)) = lst.poll_event() {
                match ev {
                    Event::HandshakeComplete { .. } => completions += 1,
                    Event::MessageDelivered { id, data } => got.push((cid, id, data)),
                    Event::Error(e) => panic!("stack {} conn {cid}: {e}", stack.label()),
                    _ => {}
                }
            }
            assert_eq!(completions, 8, "stack {}", stack.label());
            got.sort_by_key(|(cid, _, _)| *cid);
            assert_eq!(got.len(), 8, "stack {}", stack.label());
            for (i, (cid, id, data)) in got.iter().enumerate() {
                assert_eq!(*cid, i as u32 + 1);
                assert_eq!(*id, super::super::MessageId(0));
                assert_eq!(data, format!("payload for {cid}").as_bytes());
            }
            for (cid, c) in &mut clients {
                let mut acked = false;
                while let Some(ev) = c.poll_event() {
                    match ev {
                        Event::MessageAcked(_) => acked = true,
                        Event::Error(e) => panic!("stack {} conn {cid}: {e}", stack.label()),
                        _ => {}
                    }
                }
                assert!(acked, "stack {} conn {cid}: unacked", stack.label());
            }
            assert_eq!(lst.state_evictions(), 0);
        }
    }

    #[test]
    fn bounded_table_evicts_oldest_and_drops_their_data() {
        let ca = CertificateAuthority::new("bound-ca");
        let mut lst = listener(StackKind::SmtSw, &ca, 4);
        let mut fabric = ListenerFabric::reliable();
        // Six sequential connections against a table of four: settle each
        // before the next dials, so eviction hits quiescent victims.
        let mut clients: Vec<(u32, Endpoint)> = Vec::new();
        for cid in 1..=6u32 {
            fabric.attach(cid);
            let mut c = dial(StackKind::SmtSw, cid, &ca, None);
            c.send(b"hello", 0).unwrap();
            clients.push((cid, c));
            fabric.drive(&mut clients, &mut lst, 1_000_000);
        }
        assert_eq!(lst.len(), 4);
        assert_eq!(lst.state_evictions(), 2);
        assert_eq!(
            lst.connection_ids().collect::<Vec<_>>(),
            vec![3, 4, 5, 6],
            "oldest-first eviction"
        );
        // Drain the surviving connections' deliveries ("hello" from each
        // still-live connection; evicted endpoints took theirs with them).
        assert_eq!(lst.take_delivered().len(), 4);
        // Data from an evicted connection is undemuxable and dropped.
        let dropped_before = lst.dropped();
        let evicted = &mut clients[0].1;
        evicted.send(b"from the grave", fabric.now()).unwrap();
        let mut pkts = Vec::new();
        evicted.poll_transmit(fabric.now(), &mut pkts);
        assert!(!pkts.is_empty());
        for p in &pkts {
            assert_eq!(p.overlay.options.connection_id, 1);
            lst.handle_datagram(p, fabric.now()).unwrap();
        }
        assert!(lst.dropped() > dropped_before);
        assert!(lst.take_delivered().is_empty());
        // The aggregate stats fold listener-level counters in.
        let stats = lst.stats();
        assert!(stats.state_evictions >= 2);
        assert!(stats.datagrams_dropped >= lst.dropped());
    }

    #[test]
    fn shares_path_secrets_across_accepted_connections() {
        let ca = CertificateAuthority::new("amortize-ca");
        let server_secrets = SharedPathSecrets::new(64, 1024);
        let client_secrets = SharedPathSecrets::new(64, 1024);
        let mut lst = listener(StackKind::SmtSw, &ca, 64).path_secrets(server_secrets.clone());
        let mut fabric = ListenerFabric::reliable();

        // Connection 1: full handshake, mints the path secret listener-wide.
        fabric.attach(1);
        let mut clients = vec![(1u32, dial(StackKind::SmtSw, 1, &ca, Some(&client_secrets)))];
        clients[0].1.send(b"first", 0).unwrap();
        fabric.drive(&mut clients, &mut lst, 1_000_000);
        assert_eq!(server_secrets.len(), 1);
        assert_eq!(client_secrets.len(), 1);
        let first_resumed = resumed_flag(&mut clients[0].1);
        assert_eq!(first_resumed, Some(false));

        // Connection 2 (fresh ID, same host pair): derives from the minted
        // secret through a *different* accepted endpoint.
        fabric.attach(2);
        clients.push((2u32, dial(StackKind::SmtSw, 2, &ca, Some(&client_secrets))));
        clients[1].1.send(b"second", fabric.now()).unwrap();
        fabric.drive(&mut clients, &mut lst, 1_000_000);
        assert_eq!(resumed_flag(&mut clients[1].1), Some(true));
        let mut got = lst.take_delivered();
        got.sort_by_key(|(cid, _, _)| *cid);
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].2, b"second");
        assert_eq!(
            server_secrets.len(),
            1,
            "derived completion re-mints nothing"
        );
    }

    /// Runs `cycles` connect → drive → close cycles through one SMT-sw
    /// listener, each on a fresh connection ID: the first runs the full
    /// handshake and mints the path secret, the rest derive from it (the
    /// cheapest in-band connect).  With `detach`, each closed connection's
    /// ports go back to the fabric.  Returns the fabric's size after every
    /// cycle's close: ports, hosts, attached IDs and owned ports.
    fn connect_close_cycles(cycles: u32, detach: bool) -> Vec<[usize; 4]> {
        let ca = CertificateAuthority::new("soak-ca");
        let client_secrets = SharedPathSecrets::new(4, 64);
        let mut lst =
            listener(StackKind::SmtSw, &ca, 4).path_secrets(SharedPathSecrets::new(4, 64));
        let mut fabric = ListenerFabric::reliable();
        let mut sizes = Vec::new();
        for cid in 1..=cycles {
            fabric.attach(cid);
            let client = dial(StackKind::SmtSw, cid, &ca, Some(&client_secrets));
            let mut clients = vec![(cid, client)];
            fabric.drive(&mut clients, &mut lst, 1_000);
            assert!(
                matches!(lst.poll_event(), Some((c, Event::HandshakeComplete { .. })) if c == cid),
                "connection {cid}"
            );
            assert!(lst.close(cid).is_some(), "connection {cid}");
            if detach {
                fabric.detach(cid);
            }
            sizes.push([
                fabric.driver.fabric.port_count(),
                fabric.driver.fabric.host_count(),
                fabric.ports.len(),
                fabric.owner.len(),
            ]);
        }
        sizes
    }

    #[test]
    fn detach_keeps_a_connect_close_soak_at_one_connection_of_fabric() {
        // Listener port + client port, listener host + client host, and
        // empty maps: the same after every one of 10 000 cycles.
        let soak = connect_close_cycles(10_000, true);
        assert!(soak.iter().all(|&s| s == [2, 2, 0, 0]), "{:?}", soak.last());
        // Without detach every connect keeps two ports, a host and both
        // map entries for good: the leak the soak guards against.
        let leak = connect_close_cycles(200, false);
        for (i, &s) in leak.iter().enumerate() {
            let n = i + 1;
            assert_eq!(s, [2 * n, 1 + n, n, 2 * n], "after {n} connects");
        }
    }

    /// What reached each port, in order: `(time, packet type, wire length)`.
    type PortLog = std::collections::BTreeMap<PortId, Vec<(Nanos, PacketType, usize)>>;

    /// The listener loop that polls every client and the listener after
    /// every event and every fabric pop, and asks all of them for their
    /// deadlines: what [`ListenerFabric::drive`] must emit the same packets
    /// as.  Logs every delivery into `log`.
    fn drive_polling_all(
        fabric: &mut ListenerFabric,
        clients: &mut [(u32, Endpoint)],
        listener: &mut Listener,
        max_events: usize,
        log: &mut PortLog,
    ) -> usize {
        let driver = &mut fabric.driver;
        let mut scratch: Vec<Packet> = Vec::new();
        let mut events = 0usize;
        loop {
            let now = driver.now();
            for (cid, client) in clients.iter_mut() {
                scratch.clear();
                if client.poll_transmit(now, &mut scratch) > 0 {
                    let Some((_, cp)) = fabric.ports.get(cid) else {
                        continue;
                    };
                    driver.fabric.send(now, *cp, scratch.drain(..));
                }
            }
            scratch.clear();
            listener.poll_transmit(now, &mut scratch);
            for packet in scratch.drain(..) {
                let cid = packet.overlay.options.connection_id;
                if let Some((lp, _)) = fabric.ports.get(&cid) {
                    driver.fabric.send(now, *lp, std::iter::once(packet));
                }
            }
            if events >= max_events {
                return events;
            }
            let t_net = driver.fabric.next_arrival();
            let t_timer = clients
                .iter()
                .filter_map(|(_, c)| c.next_timeout())
                .chain(listener.next_timeout())
                .min();
            match (t_net, t_timer) {
                (None, None) => return events,
                (Some(tn), tt) if tt.is_none_or(|tt| tn <= tt) => {
                    let Some((at, port, packet)) = driver.fabric.pop_arrival() else {
                        continue;
                    };
                    driver.event(at);
                    events += 1;
                    let now = driver.now();
                    log.entry(port).or_default().push((
                        now,
                        packet.overlay.tcp.packet_type,
                        packet.wire_len(),
                    ));
                    match fabric.owner.get(&port) {
                        Some((true, _)) => {
                            let _ = listener.handle_datagram(&packet, now);
                        }
                        Some((false, cid)) => {
                            if let Some((_, client)) = clients.iter_mut().find(|(c, _)| c == cid) {
                                let _ = client.handle_datagram(&packet, now);
                            }
                        }
                        None => {}
                    }
                }
                (_, Some(tt)) => {
                    driver.event(tt);
                    events += 1;
                    let now = driver.now();
                    for (_, client) in clients.iter_mut() {
                        if client.next_timeout().is_some_and(|d| d <= now) {
                            client.on_timeout(now);
                        }
                    }
                    if listener.next_timeout().is_some_and(|d| d <= now) {
                        listener.on_timeout(now);
                    }
                }
                (Some(_), None) => unreachable!(),
            }
        }
    }

    /// [`Conns`] with every delivery logged before it is handed on.
    struct LoggedConns<'a> {
        conns: Conns<'a>,
        log: &'a mut PortLog,
    }

    impl Hosts for LoggedConns<'_> {
        fn deliver(&mut self, port: PortId, packet: &Packet, now: Nanos) -> Option<usize> {
            let entry = (now, packet.overlay.tcp.packet_type, packet.wire_len());
            self.log.entry(port).or_default().push(entry);
            self.conns.deliver(port, packet, now)
        }
        fn fire(&mut self, slot: usize, now: Nanos) {
            self.conns.fire(slot, now)
        }
        fn flush(&mut self, slot: usize, t: Nanos, fabric: &mut Fabric, buf: &mut Vec<Packet>) {
            self.conns.flush(slot, t, fabric, buf)
        }
        fn deadline(&self, slot: usize) -> Option<Nanos> {
            self.conns.deadline(slot)
        }
    }

    /// The body of [`ListenerFabric::drive`], with every delivery logged.
    fn drive_logged(
        fabric: &mut ListenerFabric,
        clients: &mut [(u32, Endpoint)],
        listener: &mut Listener,
        max_events: usize,
        log: &mut PortLog,
    ) -> usize {
        let slots = clients.len() + 1;
        let (driver, conns) = fabric.split(clients, listener);
        driver.drive(&mut LoggedConns { conns, log }, slots, max_events as u64) as usize
    }

    type DriveFn = fn(
        &mut ListenerFabric,
        &mut [(u32, Endpoint)],
        &mut Listener,
        usize,
        &mut PortLog,
    ) -> usize;

    /// One event of a churn run, up to signature length: the endpoint (0 for
    /// the listener, else the client's connection ID), the connection, the
    /// event's kind and flags, and its time (a handshake's `rtt_ns`, or the
    /// delivery's instant).
    type Seen = (u32, u32, String, Nanos);

    /// A mint wave (one cold connect, which mints the path secret and the
    /// first ticket), then three waves of six connects, cold, ticket-resumed
    /// and path-secret derived in turn, each sending one request, driven in
    /// slices of `slice` events (the churn bench drives one-event slices),
    /// and closed once the wave quiesces.  Returns every port's delivery log,
    /// every event, the events each slice counted, the fabric's counters and
    /// the clock.
    fn churn_run(
        drive: DriveFn,
        ca: &CertificateAuthority,
        identity: &Identity,
        faults: FaultConfig,
        slice: usize,
    ) -> (PortLog, Vec<Seen>, Vec<usize>, FabricStats, Nanos) {
        use smt_crypto::handshake::{SmtTicket, SmtTicketIssuer};
        let acceptor = ZeroRttAcceptor::new(SmtTicketIssuer::new(identity.clone(), 3600), 1 << 10);
        let mut lst = Listener::new(
            Endpoint::builder().stack(StackKind::SmtSw),
            identity.clone(),
            ca.verifying_key(),
            64,
        )
        .zero_rtt(acceptor)
        .ticket_time(100)
        .path_secrets(SharedPathSecrets::new(64, 1024));
        let client_secrets = SharedPathSecrets::new(64, 1024);
        let mut fabric = ListenerFabric::new(LinkConfig::default(), faults);
        let (mut log, mut seen, mut slices) = (PortLog::new(), Vec::new(), Vec::new());
        let mut tickets: Vec<SmtTicket> = Vec::new();
        let mut next_cid = 1u32;
        for wave in 0..4 {
            let start = fabric.now();
            let connects = if wave == 0 { 1 } else { 6 };
            let mut clients: Vec<(u32, Endpoint)> = (0..connects)
                .map(|i| {
                    let cid = next_cid;
                    next_cid += 1;
                    fabric.attach(cid);
                    let mut config = ConnectConfig::new(ca.verifying_key(), "server.dc.local");
                    match (wave, i % 3) {
                        (0, _) => config = config.path_secrets(client_secrets.clone()),
                        (_, 1) => {
                            let t = tickets[i % tickets.len()].clone();
                            let at = t.issued_at;
                            config = config.resume(t, at);
                        }
                        (_, 2) => config = config.path_secrets(client_secrets.clone()),
                        _ => {}
                    }
                    let mut client = Endpoint::builder()
                        .stack(StackKind::SmtSw)
                        .connection_id(cid)
                        .path(smt_core::segment::PathInfo::pair(4000, 5201).0)
                        .connect(config)
                        .unwrap();
                    client.send(&[cid as u8; 256], start).unwrap();
                    (cid, client)
                })
                .collect();
            for _ in 0..100_000 {
                let n = drive(&mut fabric, &mut clients, &mut lst, slice, &mut log);
                slices.push(n);
                while let Some((cid, event)) = lst.poll_event() {
                    seen.push(seen_event(0, cid, event, fabric.now()));
                }
                if n == 0 {
                    break;
                }
            }
            for (cid, client) in &mut clients {
                while let Some(event) = client.poll_event() {
                    if let Event::TicketReceived(t) = &event {
                        tickets.push((**t).clone());
                    }
                    seen.push(seen_event(*cid, *cid, event, fabric.now()));
                }
                assert!(lst.close(*cid).is_some(), "connection {cid}");
            }
        }
        (log, seen, slices, fabric.stats(), fabric.now())
    }

    fn seen_event(end: u32, cid: u32, event: Event, now: Nanos) -> Seen {
        let (kind, at) = match event {
            Event::HandshakeComplete {
                forward_secret,
                resumed,
                rtt_ns,
                ..
            } => (
                format!("complete fs={forward_secret} resumed={resumed}"),
                rtt_ns,
            ),
            Event::TicketReceived(_) => ("ticket".into(), now),
            Event::MessageDelivered { id, data } => (
                format!("delivered {id}: {} x {:?}", data.len(), data.first()),
                now,
            ),
            Event::MessageAcked(id) => (format!("acked {id}"), now),
            Event::Error(e) => (format!("error {e}"), now),
        };
        (end, cid, kind, at)
    }

    /// `a` and `b` apart by at most `slack`.
    fn near(a: u64, b: u64, slack: u64) -> bool {
        a.abs_diff(b) <= slack
    }

    #[test]
    fn polling_only_what_an_event_reached_emits_what_polling_every_connection_did() {
        // Every cold handshake signs with a fresh ECDSA signature whose DER
        // length varies by a few bytes between runs, so wire lengths and the
        // times downstream of them agree up to that; the order of packets
        // and events, their types and their counts agree exactly.
        const LEN_SLACK: usize = 8;
        const TIME_SLACK: Nanos = 64;
        let ca = CertificateAuthority::new("reference-ca");
        let identity = ca.issue_identity("server.dc.local");
        // One-event slices re-enter after every event, as the churn bench
        // does; long slices rely on the polls after each event.
        for (profile, faults, slice) in [
            ("lossless, one-event slices", FaultConfig::none(), 1),
            ("lossy, one-event slices", FaultConfig::lossy(0.05, 3), 1),
            ("lossy, long slices", FaultConfig::lossy(0.05, 3), 1_000),
        ] {
            let got = churn_run(drive_logged, &ca, &identity, faults, slice);
            let want = churn_run(drive_polling_all, &ca, &identity, faults, slice);
            let delivered = got.1.iter().filter(|e| e.2.starts_with("delivered"));
            assert_eq!(delivered.count(), 19, "{profile}: one request per connect");
            if faults.loss > 0.0 {
                assert!(got.3.dropped() > 0, "{profile}: the fabric dropped");
            }
            assert_eq!(
                got.0.keys().collect::<Vec<_>>(),
                want.0.keys().collect::<Vec<_>>()
            );
            for (port, got_log) in &got.0 {
                let want_log = &want.0[port];
                assert_eq!(got_log.len(), want_log.len(), "{profile}: port {port}");
                for (i, (g, w)) in got_log.iter().zip(want_log).enumerate() {
                    assert!(
                        g.1 == w.1 && near(g.0, w.0, TIME_SLACK) && g.2.abs_diff(w.2) <= LEN_SLACK,
                        "{profile}: port {port}, delivery {i}: {g:?} vs {w:?}"
                    );
                }
            }
            assert_eq!(got.1.len(), want.1.len(), "{profile}: events");
            for (g, w) in got.1.iter().zip(&want.1) {
                assert!(
                    (g.0, g.1, &g.2) == (w.0, w.1, &w.2) && near(g.3, w.3, TIME_SLACK),
                    "{profile}: {g:?} vs {w:?}"
                );
            }
            assert_eq!(got.2, want.2, "{profile}: events per slice");
            assert_eq!(got.3.delivered, want.3.delivered, "{profile}");
            assert_eq!(got.3.dropped(), want.3.dropped(), "{profile}");
            assert!(
                near(got.4, want.4, TIME_SLACK),
                "{profile}: {} vs {}",
                got.4,
                want.4
            );
        }
    }

    fn resumed_flag(client: &mut Endpoint) -> Option<bool> {
        let mut flag = None;
        while let Some(ev) = client.poll_event() {
            match ev {
                Event::HandshakeComplete { resumed, .. } => flag = Some(resumed),
                Event::Error(e) => panic!("client error: {e}"),
                _ => {}
            }
        }
        flag
    }
}
