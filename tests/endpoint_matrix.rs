//! The endpoint conformance matrix: every evaluated stack, driven through the
//! unified [`SecureEndpoint`] trait, must deliver the same message set under
//! packet reordering and duplication — and must detect the duplicates.
//!
//! This is the property the endpoint API exists to guarantee: the eight stacks
//! are interchangeable behind one interface, and chaos on the wire (within
//! what a datacenter fabric can do to packets: reorder, duplicate) never
//! changes what the application observes.
//!
//! The chaos comes from the seeded `smt_sim::net::FaultyLink` — the *same*
//! fault model the discrete-event scenarios inject — applied per flight via
//! [`FaultyLink::scramble_flight`], so tests and scenarios agree on what a
//! misbehaving network does.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smt::apps::{KvRequest, KvStore};
use smt::core::SmtError;
use smt::crypto::cert::CertificateAuthority;
use smt::crypto::handshake::{establish, ClientConfig, ServerConfig, SessionKeys, SmtTicketIssuer};
use smt::sim::net::{FaultConfig, FaultyLink};
use smt::transport::endpoint::{AcceptConfig, ConnectConfig, ZeroRttAcceptor};
use smt::transport::{take_delivered, Endpoint, EndpointError, Event, SecureEndpoint, StackKind};
use smt::wire::{
    IpHeader, Ipv4Header, Packet, PacketPayload, PacketType, SmtOverlayHeader, IPPROTO_SMT,
    IPV4_HEADER_LEN, SMT_OVERLAY_LEN,
};

fn handshake() -> (SessionKeys, SessionKeys) {
    let ca = CertificateAuthority::new("matrix-ca");
    let id = ca.issue_identity("server");
    establish(
        ClientConfig::new(ca.verifying_key(), "server"),
        ServerConfig::new(id, ca.verifying_key()),
    )
    .unwrap()
}

/// Drives the pair flight by flight, scrambling every flight through the
/// shared fault model (duplicate + shuffle, no loss), until both sides
/// quiesce (two consecutive idle rounds after timeout recovery).  Flights are
/// delivered instantaneously; virtual time advances only to run the
/// endpoints' retransmission timers when the wire goes idle.
fn pump_chaotic(client: &mut Endpoint, server: &mut Endpoint, seed: u64, max_rounds: usize) {
    pump_faulty(client, server, FaultConfig::chaotic(seed), max_rounds)
}

/// Like [`pump_chaotic`] with an arbitrary fault profile.
fn pump_faulty(
    client: &mut Endpoint,
    server: &mut Endpoint,
    faults: FaultConfig,
    max_rounds: usize,
) {
    let mut chaos = FaultyLink::new(faults);
    let mut now = 0u64;
    let mut idle = 0;
    for _ in 0..max_rounds {
        let mut to_server = Vec::new();
        client.poll_transmit(now, &mut to_server);
        let mut to_client = Vec::new();
        server.poll_transmit(now, &mut to_client);

        if to_server.is_empty() && to_client.is_empty() {
            idle += 1;
            if idle >= 2 {
                return;
            }
            // Jump the clock to the earliest armed timer and fire both ends.
            if let Some(deadline) = [client.next_timeout(), server.next_timeout()]
                .into_iter()
                .flatten()
                .min()
            {
                now = now.max(deadline);
            }
            client.on_timeout(now);
            server.on_timeout(now);
            continue;
        }
        idle = 0;
        chaos.scramble_flight(&mut to_server);
        chaos.scramble_flight(&mut to_client);
        for p in &to_server {
            let _ = server.handle_datagram(p, now);
        }
        for p in &to_client {
            let _ = client.handle_datagram(p, now);
        }
    }
    panic!("pair did not quiesce within {max_rounds} rounds");
}

/// One forged copy of an observed packet: a clone with one of six attacker
/// mutations applied.  Payload mutations keep the delivery coordinates of the
/// original (the copy must be recognized as a conflicting duplicate);
/// coordinate mutations retarget into the bogus high-ID space (`≥ 2^40`) the
/// fabric adversary also uses, so forged state lands in receiver tracking
/// instead of colliding with live transfers.
fn forge(rng: &mut StdRng, template: &Packet) -> Packet {
    let mut p = template.clone();
    match rng.gen_range(0..6u8) {
        // Bit-flip one payload byte (content forgery, same coordinates).
        0 => {
            if let Some(data) = p.payload.as_data() {
                if !data.is_empty() {
                    let mut bytes = data.to_vec();
                    let at = rng.gen_range(0..bytes.len());
                    bytes[at] ^= 1 << rng.gen_range(0..8u8);
                    p.payload = PacketPayload::Data(bytes.into());
                }
            }
        }
        // Cut the payload short (headers still declare the original lengths).
        1 => {
            if let Some(data) = p.payload.as_data() {
                if data.len() >= 2 {
                    p.payload = PacketPayload::Data(data.slice(0..data.len() / 2));
                }
            }
        }
        // Pad the payload beyond its declared length with random bytes.
        2 => {
            if let Some(data) = p.payload.as_data() {
                let mut bytes = data.to_vec();
                for _ in 0..rng.gen_range(1..=64usize) {
                    bytes.push(rng.gen());
                }
                p.payload = PacketPayload::Data(bytes.into());
            }
        }
        // Retarget to a bogus message: fresh high ID, random geometry.
        3 => {
            p.overlay.options.message_id = (1u64 << 40) | rng.gen::<u32>() as u64;
            p.overlay.options.message_length = rng.gen_range(1..=64 * 1024);
            p.overlay.options.tso_offset = rng.gen();
        }
        // Scramble the segment-geometry fields on the bogus-ID space (live
        // coordinates stay untouched, matching the fabric adversary's model).
        4 => {
            p.overlay.options.message_id = (1u64 << 40) | rng.gen::<u32>() as u64;
            p.overlay.options.record_count = rng.gen();
            p.overlay.options.first_record_index = rng.gen();
            p.overlay.options.flags = rng.gen();
            p.overlay.options.resend_packet_offset = rng.gen();
        }
        // Relabel the packet type so the payload reaches the wrong parser.
        _ => {
            let types = [
                PacketType::Data,
                PacketType::Grant,
                PacketType::Resend,
                PacketType::Ack,
                PacketType::Control,
            ];
            p.overlay.tcp.packet_type = types[rng.gen_range(0..types.len())];
        }
    }
    p
}

/// A from-scratch garbage datagram: syntactically a packet, semantically
/// noise — random type, geometry and payload bytes on a bogus high message
/// ID, aimed at the victim's port (occasionally at a random, unknown one).
fn garbage_datagram(rng: &mut StdRng, src_port: u16, dst_port: u16) -> Packet {
    let len = rng.gen_range(0..1400usize);
    let mut bytes = vec![0u8; len];
    for b in &mut bytes {
        *b = rng.gen();
    }
    let (src, dst) = if rng.gen_range(0..4u8) == 0 {
        (rng.gen(), rng.gen())
    } else {
        (src_port, dst_port)
    };
    let types = [PacketType::Data, PacketType::Control, PacketType::Grant];
    let mut overlay = SmtOverlayHeader::data(src, dst, (1u64 << 40) | rng.gen::<u32>() as u64, 0);
    overlay.tcp.packet_type = types[rng.gen_range(0..types.len())];
    overlay.options.message_length = rng.gen_range(0..=128 * 1024);
    overlay.options.tso_offset = rng.gen();
    overlay.options.record_count = rng.gen();
    overlay.options.flags = rng.gen();
    Packet {
        ip: IpHeader::V4(Ipv4Header::new(
            [10, 0, 0, 9],
            [10, 0, 0, 2],
            IPPROTO_SMT,
            (IPV4_HEADER_LEN + SMT_OVERLAY_LEN + len) as u16,
        )),
        overlay,
        payload: PacketPayload::Data(bytes.into()),
        corrupted: false,
    }
}

/// Drives the pair like [`pump_faulty`] on a clean wire, but after every
/// legitimate flight lands it feeds both endpoints forged copies of the
/// flight plus from-scratch garbage datagrams, straight into
/// `handle_datagram`.  Originals land first — the fabric adversary's
/// inject-delay model — so payload forgeries are conflicting duplicates.
/// Every forged result is allowed to be an error; what it must never be is a
/// panic or a change to what the application observes.
fn pump_hostile(client: &mut Endpoint, server: &mut Endpoint, seed: u64, max_rounds: usize) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0bad_ca57_5eed_f00d);
    let mut now = 0u64;
    let mut idle = 0;
    for _ in 0..max_rounds {
        let mut to_server = Vec::new();
        client.poll_transmit(now, &mut to_server);
        let mut to_client = Vec::new();
        server.poll_transmit(now, &mut to_client);

        if to_server.is_empty() && to_client.is_empty() {
            idle += 1;
            if idle >= 2 {
                return;
            }
            if let Some(deadline) = [client.next_timeout(), server.next_timeout()]
                .into_iter()
                .flatten()
                .min()
            {
                now = now.max(deadline);
            }
            client.on_timeout(now);
            server.on_timeout(now);
            continue;
        }
        idle = 0;
        for p in &to_server {
            let _ = server.handle_datagram(p, now);
        }
        for p in &to_client {
            let _ = client.handle_datagram(p, now);
        }
        // The attack: forged copies of what just crossed the wire, plus pure
        // garbage, at both ends.
        for p in to_server.iter().take(4) {
            let forged = forge(&mut rng, p);
            let _ = server.handle_datagram(&forged, now);
        }
        for p in to_client.iter().take(4) {
            let forged = forge(&mut rng, p);
            let _ = client.handle_datagram(&forged, now);
        }
        let g = garbage_datagram(&mut rng, 4000, 5201);
        let _ = server.handle_datagram(&g, now);
        let g = garbage_datagram(&mut rng, 5201, 4000);
        let _ = client.handle_datagram(&g, now);
    }
    panic!("pair did not quiesce within {max_rounds} rounds");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Hostile input hardening, per stack: forged copies of live flights and
    /// arbitrary garbage datagrams pushed straight into `handle_datagram`
    /// never panic any of the eight stacks and never change what the
    /// concurrent legitimate transfer delivers.
    #[test]
    fn forged_datagrams_never_panic_or_corrupt_delivery(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..4000), 1..3),
        seed in any::<u64>(),
    ) {
        for stack in StackKind::all() {
            let (ck, sk) = handshake();
            let (mut client, mut server) = Endpoint::builder()
                .stack(stack)
                .pair(&ck, &sk, 4000, 5201)
                .unwrap();
            for p in &payloads {
                client.send(p, 0).unwrap();
            }
            pump_hostile(&mut client, &mut server, seed, 20_000);

            let mut got = take_delivered(&mut server);
            got.sort_by_key(|(id, _)| *id);
            let datas: Vec<Vec<u8>> = got.into_iter().map(|(_, d)| d).collect();
            prop_assert_eq!(
                &datas, &payloads,
                "stack {} corrupted the live transfer under forged input", stack.label()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Selective retransmission under an adversarial fabric, per stack: with
    /// loss, duplication and reordering all active, SACK selective
    /// retransmit on streams and bounded RESEND windows on messages deliver
    /// the message set byte-exactly.
    #[test]
    fn selective_retransmit_delivers_byte_exactly_under_adversarial_faults(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..16_000), 1..3),
        seed in any::<u64>(),
    ) {
        let faults = FaultConfig {
            loss: 0.05,
            duplicate: 0.3,
            reorder: 0.5,
            seed,
            ..FaultConfig::default()
        };
        for stack in StackKind::all() {
            let (ck, sk) = handshake();
            let (mut client, mut server) = Endpoint::builder()
                .stack(stack)
                .pair(&ck, &sk, 4000, 5201)
                .unwrap();
            for p in &payloads {
                client.send(p, 0).unwrap();
            }
            pump_faulty(&mut client, &mut server, faults, 40_000);

            let mut got = take_delivered(&mut server);
            got.sort_by_key(|(id, _)| *id);
            let datas: Vec<Vec<u8>> = got.into_iter().map(|(_, d)| d).collect();
            prop_assert_eq!(
                &datas, &payloads,
                "stack {} corrupted delivery under adversarial faults", stack.label()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The same message set, pushed through all eight stacks via the trait
    /// under reordering + duplication, is delivered identically everywhere,
    /// and every stack's replay counter records the injected duplicates.
    #[test]
    fn all_stacks_agree_under_reordering_and_duplication(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..6000), 1..4),
        seed in any::<u64>(),
    ) {
        let mut per_stack: Vec<(StackKind, Vec<Vec<u8>>)> = Vec::new();
        for stack in StackKind::all() {
            let (ck, sk) = handshake();
            let (mut client, mut server) = Endpoint::builder()
                .stack(stack)
                .pair(&ck, &sk, 4000, 5201)
                .unwrap();
            for p in &payloads {
                client.send(p, 0).unwrap();
            }
            pump_chaotic(&mut client, &mut server, seed, 10_000);

            let mut got = take_delivered(&mut server);
            got.sort_by_key(|(id, _)| *id);
            let datas: Vec<Vec<u8>> = got.into_iter().map(|(_, d)| d).collect();
            prop_assert_eq!(
                &datas, &payloads,
                "stack {} delivered a different message set", stack.label()
            );
            prop_assert!(
                server.stats().replays_rejected > 0,
                "stack {} did not count the injected duplicates", stack.label()
            );
            per_stack.push((stack, datas));
        }
        // Identical delivered payloads across every stack.
        let (first_stack, reference) = &per_stack[0];
        for (stack, datas) in &per_stack[1..] {
            prop_assert_eq!(
                datas, reference,
                "stacks {} and {} disagree", stack.label(), first_stack.label()
            );
        }
    }

    /// The in-band handshake completes on every encrypted stack under 1 %
    /// loss plus full reordering (the shared `FaultyLink::scramble_flight`
    /// model), both cold and 0-RTT-resumed, and the piggybacked first
    /// message still arrives exactly once.
    #[test]
    fn in_band_handshake_survives_loss_and_reordering(
        seed in any::<u64>(),
        payload_len in 1usize..4000,
    ) {
        let faults = FaultConfig {
            loss: 0.01,
            reorder: 1.0,
            ..FaultConfig::lossy(0.01, seed)
        };
        let ca = CertificateAuthority::new("hs-matrix-ca");
        let id = ca.issue_identity("server");
        let payload = vec![0xa5u8; payload_len];
        for stack in StackKind::all().into_iter().filter(|s| s.is_encrypted()) {
            let acceptor = ZeroRttAcceptor::new(SmtTicketIssuer::new(id.clone(), 3600), 1 << 12);
            let mut ticket = None;
            for resumed_run in [false, true] {
                let mut connect = ConnectConfig::new(ca.verifying_key(), "server");
                if resumed_run {
                    let t: smt::crypto::handshake::SmtTicket =
                        ticket.take().expect("cold run minted a ticket");
                    connect = connect.resume(t, 100);
                }
                let accept = AcceptConfig::new(id.clone(), ca.verifying_key())
                    .zero_rtt(acceptor.clone())
                    .ticket_time(100);
                let (mut client, mut server) = Endpoint::builder()
                    .stack(stack)
                    .handshake_pair(connect, accept, 4000, 5201)
                    .unwrap();
                client.send(&payload, 0).unwrap();
                pump_faulty(&mut client, &mut server, faults, 50_000);

                let mut completed = None;
                let mut acked = 0;
                while let Some(ev) = client.poll_event() {
                    match ev {
                        Event::HandshakeComplete { rtt_ns, resumed, .. } => {
                            completed = Some((rtt_ns, resumed));
                        }
                        Event::TicketReceived(t) => ticket = Some(*t),
                        Event::MessageAcked(_) => acked += 1,
                        Event::Error(e) => panic!("{}: client error: {e}", stack.label()),
                        Event::MessageDelivered { .. } => {}
                    }
                }
                // This pump delivers flights instantaneously (virtual time
                // only advances to fire timers), so rtt_ns is only nonzero
                // when loss forced a retransmission round; the fabric-driven
                // paths assert the measured latency instead.
                let (_rtt_ns, resumed) = completed
                    .unwrap_or_else(|| panic!("{}: no handshake completion", stack.label()));
                prop_assert_eq!(resumed, resumed_run, "{}", stack.label());
                prop_assert_eq!(acked, 1, "{}: exactly one ack", stack.label());

                let got = take_delivered(&mut server);
                prop_assert_eq!(got.len(), 1, "{}: delivered once", stack.label());
                prop_assert_eq!(&got[0].1, &payload, "{}", stack.label());
                prop_assert!(
                    ticket.is_some(),
                    "{}: server mints an in-band ticket", stack.label()
                );
            }
        }
    }
}

/// §4.5.3 / RFC 8446 §8: a replayed 0-RTT first flight delivers its early
/// data exactly once.  The shared [`ZeroRttAcceptor`] replay cache rejects
/// the byte-identical flight at any other endpoint of the listener, and the
/// original endpoint treats it as a carrier-level duplicate (re-answering
/// with its server flight, not re-delivering).
#[test]
fn replayed_zero_rtt_first_flight_rejected_exactly_once() {
    let ca = CertificateAuthority::new("replay-ca");
    let id = ca.issue_identity("server");
    let acceptor = ZeroRttAcceptor::new(SmtTicketIssuer::new(id.clone(), 3600), 1 << 12);
    let ticket = acceptor.ticket(0);

    let mut client = Endpoint::builder()
        .stack(StackKind::SmtSw)
        .path(smt::core::segment::PathInfo::pair(4000, 5201).0)
        .connect(ConnectConfig::new(ca.verifying_key(), "server").resume(ticket, 0))
        .unwrap();
    client.send(b"POST /transfer?amount=100", 0).unwrap();
    let mut first_flight = Vec::new();
    client.poll_transmit(0, &mut first_flight);
    assert!(!first_flight.is_empty());

    let mk_server = || {
        Endpoint::builder()
            .stack(StackKind::SmtSw)
            .path(smt::core::segment::PathInfo::pair(4000, 5201).1)
            .accept(AcceptConfig::new(id.clone(), ca.verifying_key()).zero_rtt(acceptor.clone()))
            .unwrap()
    };

    // Original delivery: the early data arrives before the handshake is even
    // complete.
    let mut server_a = mk_server();
    for p in &first_flight {
        server_a.handle_datagram(p, 0).unwrap();
    }
    let got = take_delivered(&mut server_a);
    assert_eq!(got.len(), 1, "early data delivered once");
    assert_eq!(got[0].1, b"POST /transfer?amount=100");

    // The byte-identical flight replayed at a *different* endpoint of the
    // same listener: rejected by the shared ClientHello-random cache.
    let mut server_b = mk_server();
    for p in &first_flight {
        let _ = server_b.handle_datagram(p, 0);
    }
    let mut saw_error = false;
    let mut replay_delivered = 0;
    while let Some(ev) = server_b.poll_event() {
        match ev {
            Event::Error(_) => saw_error = true,
            Event::MessageDelivered { .. } => replay_delivered += 1,
            _ => {}
        }
    }
    assert_eq!(replay_delivered, 0, "replay must not deliver");
    assert!(saw_error, "replay surfaces an error event");

    // Replaying at the original endpoint is a carrier-level duplicate: it
    // re-answers with the server flight but never re-delivers.
    for p in &first_flight {
        let _ = server_a.handle_datagram(p, 0);
    }
    assert!(
        take_delivered(&mut server_a).is_empty(),
        "no second delivery"
    );
}

/// A message no peer could accept is refused at `send` on every stack — the
/// stream stacks' receiver would take its frame header for corrupted framing
/// and kill the connection — and the refusal consumes nothing: no counter
/// moves, and the next message gets the ID and is delivered and acknowledged.
#[test]
fn oversize_message_refused_at_send_on_all_stacks() {
    let oversize = vec![7u8; (16 << 20) + 1];
    let (ck, sk) = handshake();
    for stack in StackKind::all() {
        let (mut client, mut server) = Endpoint::builder()
            .stack(stack)
            .pair(&ck, &sk, 4000, 5201)
            .unwrap();
        let refused = client.send(&oversize, 0);
        assert!(
            matches!(
                refused,
                Err(EndpointError::Core(SmtError::MessageTooLarge { size, .. }))
                    if size == oversize.len()
            ),
            "stack {}: {refused:?}",
            stack.label()
        );
        assert_eq!(client.stats().messages_sent, 0, "stack {}", stack.label());

        let id = client.send(&[9u8; 64], 0).unwrap();
        pump_faulty(&mut client, &mut server, FaultConfig::none(), 1_000);
        assert_eq!(take_delivered(&mut server), [(id, vec![9u8; 64])]);
        let mut acked = false;
        while let Some(ev) = client.poll_event() {
            acked |= ev == Event::MessageAcked(id);
        }
        assert!(acked, "stack {}: small message acknowledged", stack.label());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// App conformance (Fig. 8's workload on the conformance matrix): the
    /// same KV get/put/delete sequence and the same RPC echo round-trips,
    /// executed through every stack's real datapath under full reordering,
    /// duplication and 1 % loss, yield byte-identical responses on all eight
    /// stacks — and identical to a direct in-memory execution of the store.
    #[test]
    fn kv_and_rpc_round_trips_identical_on_all_stacks(
        ops in proptest::collection::vec(
            (0u8..3, any::<u16>(), proptest::collection::vec(any::<u8>(), 0..400)),
            1..8,
        ),
        rpc_payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..2000),
            1..4,
        ),
        seed in any::<u64>(),
    ) {
        let faults = FaultConfig {
            duplicate: 0.2,
            reorder: 1.0,
            ..FaultConfig::lossy(0.01, seed)
        };
        let requests: Vec<Vec<u8>> = ops
            .iter()
            .map(|(kind, k, value)| {
                let key = format!("user{:08}", k % 64);
                match kind {
                    0 => KvRequest::Get { key },
                    1 => KvRequest::Put { key, value: value.clone() },
                    _ => KvRequest::Delete { key },
                }
                .encode()
            })
            .collect();

        // Reference run: the store executed directly, no network.
        let mut reference_store = KvStore::new();
        reference_store.load(64, 100);
        let reference: Vec<Vec<u8>> =
            requests.iter().map(|r| reference_store.handle_wire(r)).collect();

        for stack in StackKind::all() {
            let (ck, sk) = handshake();
            let (mut client, mut server) = Endpoint::builder()
                .stack(stack)
                .pair(&ck, &sk, 4000, 5201)
                .unwrap();

            // KV phase: requests over the faulty wire, served by a fresh
            // identically-loaded store, responses back over the same wire.
            for r in &requests {
                client.send(r, 0).unwrap();
            }
            pump_faulty(&mut client, &mut server, faults, 40_000);
            let mut got = take_delivered(&mut server);
            got.sort_by_key(|(id, _)| *id);
            prop_assert_eq!(got.len(), requests.len(), "{}: lost KV requests", stack.label());
            let mut store = KvStore::new();
            store.load(64, 100);
            for (_, req) in &got {
                let resp = store.handle_wire(req);
                server.send(&resp, 0).unwrap();
            }
            pump_faulty(&mut client, &mut server, faults, 40_000);
            let mut resp = take_delivered(&mut client);
            resp.sort_by_key(|(id, _)| *id);
            let responses: Vec<Vec<u8>> = resp.into_iter().map(|(_, d)| d).collect();
            prop_assert_eq!(
                &responses, &reference,
                "stack {}: KV responses diverge from the in-memory reference",
                stack.label()
            );

            // RPC phase: the server echoes each payload verbatim; the client
            // must observe its own bytes unchanged.
            for p in &rpc_payloads {
                client.send(p, 0).unwrap();
            }
            pump_faulty(&mut client, &mut server, faults, 40_000);
            let mut echo_in = take_delivered(&mut server);
            echo_in.sort_by_key(|(id, _)| *id);
            for (_, data) in &echo_in {
                server.send(data, 0).unwrap();
            }
            pump_faulty(&mut client, &mut server, faults, 40_000);
            let mut echoed = take_delivered(&mut client);
            echoed.sort_by_key(|(id, _)| *id);
            let echoes: Vec<Vec<u8>> = echoed.into_iter().map(|(_, d)| d).collect();
            prop_assert_eq!(
                &echoes, &rpc_payloads,
                "stack {}: RPC echo corrupted the payload bytes",
                stack.label()
            );
        }
    }
}
