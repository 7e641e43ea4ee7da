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
use smt_sim::net::{Fabric, FabricStats, FaultConfig, LinkConfig, PortId};
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

    /// The live connection for `cid`.
    pub fn connection(&self, cid: u32) -> Option<&Endpoint> {
        self.conns.get(&cid)
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
    fabric: Fabric,
    listener_host: usize,
    /// Connection ID → (listener-side port, client-side port).
    ports: HashMap<u32, (PortId, PortId)>,
    /// Reverse map: port → (is_listener_side, connection ID).
    owner: HashMap<PortId, (bool, u32)>,
    /// Port pairs of detached connections, reused by the next
    /// [`attach`](Self::attach).
    free: Vec<(PortId, PortId)>,
    now: Nanos,
}

impl ListenerFabric {
    /// A fabric with the given uniform link parameters and fault model,
    /// holding just the listener host; [`attach`](Self::attach) clients to it.
    pub fn new(link: LinkConfig, faults: FaultConfig) -> Self {
        let mut fabric = Fabric::new(link, faults);
        let listener_host = fabric.add_host();
        Self {
            fabric,
            listener_host,
            ports: HashMap::new(),
            owner: HashMap::new(),
            free: Vec::new(),
            now: 0,
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
        let (lp, cp) = match self.free.pop() {
            Some((lp, cp)) => {
                debug_assert!(
                    !self.fabric.in_flight_to(lp) && !self.fabric.in_flight_to(cp),
                    "reused ports still have packets in flight"
                );
                (lp, cp)
            }
            None => {
                let lp = self.fabric.add_port(self.listener_host);
                let ch = self.fabric.add_host();
                let cp = self.fabric.add_port(ch);
                self.fabric.connect(lp, cp);
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
        self.now
    }

    /// Full fabric counters.
    pub fn stats(&self) -> FabricStats {
        self.fabric.stats
    }

    /// Drives `clients` (each dialing with its attached connection ID)
    /// against `listener` until traffic quiesces or `max_events` fabric
    /// events have been processed; returns the number processed.
    ///
    /// Listener egress is routed per packet by its stamped connection ID;
    /// packets for unattached IDs are discarded.
    pub fn drive(
        &mut self,
        clients: &mut [(u32, Endpoint)],
        listener: &mut Listener,
        max_events: usize,
    ) -> usize {
        let mut scratch: Vec<Packet> = Vec::new();
        let mut events = 0usize;
        loop {
            for (cid, client) in clients.iter_mut() {
                scratch.clear();
                if client.poll_transmit(self.now, &mut scratch) > 0 {
                    let Some((_, cp)) = self.ports.get(cid) else {
                        continue;
                    };
                    self.fabric.send(self.now, *cp, scratch.drain(..));
                }
            }
            scratch.clear();
            listener.poll_transmit(self.now, &mut scratch);
            for packet in scratch.drain(..) {
                let cid = packet.overlay.options.connection_id;
                if let Some((lp, _)) = self.ports.get(&cid) {
                    self.fabric.send(self.now, *lp, std::iter::once(packet));
                }
            }
            if events >= max_events {
                return events;
            }
            let t_net = self.fabric.next_arrival();
            let t_timer = clients
                .iter()
                .filter_map(|(_, c)| c.next_timeout())
                .chain(listener.next_timeout())
                .min();
            match (t_net, t_timer) {
                (None, None) => return events,
                (Some(tn), tt) if tt.is_none_or(|tt| tn <= tt) => {
                    let Some((at, port, packet)) = self.fabric.pop_arrival() else {
                        continue;
                    };
                    self.now = self.now.max(at);
                    events += 1;
                    match self.owner.get(&port) {
                        Some((true, _)) => {
                            let _ = listener.handle_datagram(&packet, self.now);
                        }
                        Some((false, cid)) => {
                            if let Some((_, client)) = clients.iter_mut().find(|(c, _)| c == cid) {
                                let _ = client.handle_datagram(&packet, self.now);
                            }
                        }
                        None => {}
                    }
                }
                (_, Some(tt)) => {
                    self.now = self.now.max(tt);
                    events += 1;
                    for (_, client) in clients.iter_mut() {
                        if client.next_timeout().is_some_and(|d| d <= self.now) {
                            client.on_timeout(self.now);
                        }
                    }
                    if listener.next_timeout().is_some_and(|d| d <= self.now) {
                        listener.on_timeout(self.now);
                    }
                }
                (Some(_), None) => unreachable!(),
            }
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
                fabric.fabric.port_count(),
                fabric.fabric.host_count(),
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
