//! Cross-crate integration tests: handshake -> endpoint API -> transport -> apps.
//!
//! Every stack here is constructed and driven exclusively through the unified
//! [`SecureEndpoint`] trait and [`Endpoint::builder`]; no test touches the
//! per-stack machinery (sessions, segmenters, record layers) directly.

use smt::core::{CryptoMode, SmtConfig};
use smt::crypto::cert::CertificateAuthority;
use smt::crypto::handshake::{establish, ClientConfig, ServerConfig, SessionKeys};
use smt::transport::{
    drive_pair, take_delivered, Endpoint, Event, PairFabric, SecureEndpoint, StackKind,
};

fn handshake() -> (SessionKeys, SessionKeys, CertificateAuthority) {
    let ca = CertificateAuthority::new("it-ca");
    let id = ca.issue_identity("server.it.local");
    let (ck, sk) = establish(
        ClientConfig::new(ca.verifying_key(), "server.it.local"),
        ServerConfig::new(id, ca.verifying_key()),
    )
    .unwrap();
    (ck, sk, ca)
}

#[test]
fn full_stack_roundtrip_on_every_stack() {
    let sizes = [0usize, 1, 100, 1500, 16_000, 300_000];
    for stack in StackKind::all() {
        let (ck, sk, _) = handshake();
        let (mut client, mut server) = Endpoint::builder()
            .stack(stack)
            .pair(&ck, &sk, 1000, 2000)
            .unwrap();
        let payloads: Vec<Vec<u8>> = sizes
            .iter()
            .map(|&size| (0..size).map(|i| (i % 241) as u8).collect())
            .collect();
        for data in &payloads {
            client.send(data, 0).unwrap();
        }
        let mut link = PairFabric::reliable();
        drive_pair(&mut client, &mut server, &mut link, 2_000_000);
        let mut got = take_delivered(&mut server);
        got.sort_by_key(|(id, _)| *id);
        assert_eq!(got.len(), payloads.len(), "stack {}", stack.label());
        for ((_, data), want) in got.iter().zip(&payloads) {
            assert_eq!(data, want, "stack {} size {}", stack.label(), want.len());
        }
        // Wire accounting is symmetric over a lossless link (satellite:
        // wire_bytes_received mirrors wire_bytes_sent).
        assert_eq!(
            server.stats().wire_bytes_received,
            client.stats().wire_bytes_sent,
            "stack {}",
            stack.label()
        );
    }
}

#[test]
fn lossy_transport_delivers_bidirectional_traffic() {
    let (ck, sk, _) = handshake();
    let (mut a, mut b) = Endpoint::builder()
        .stack(StackKind::SmtSw)
        .pair(&ck, &sk, 1, 2)
        .unwrap();
    let mut link = PairFabric::lossy(0.08, 99);
    let payloads: Vec<Vec<u8>> = (0..8).map(|i| vec![i as u8; 5_000 + i * 7_000]).collect();
    for p in &payloads {
        a.send(p, 0).unwrap();
    }
    for i in 0..4u8 {
        b.send(&vec![0xB0 | i; 900], 0).unwrap();
    }
    drive_pair(&mut a, &mut b, &mut link, 1_000_000);
    let to_b = take_delivered(&mut b);
    let to_a = take_delivered(&mut a);
    assert_eq!(to_b.len(), payloads.len());
    assert_eq!(to_a.len(), 4);
    for (id, data) in to_b {
        assert_eq!(data, payloads[id.0 as usize]);
    }
}

#[test]
fn mtls_identity_surfaces_in_handshake_event() {
    // mTLS session: the server requires and authenticates a client certificate.
    let ca = CertificateAuthority::new("it-ca2");
    let server_id = ca.issue_identity("server");
    let client_id = ca.issue_identity("client");
    let mut ccfg = ClientConfig::new(ca.verifying_key(), "server");
    ccfg.identity = Some(client_id);
    let mut scfg = ServerConfig::new(server_id, ca.verifying_key());
    scfg.require_client_auth = true;
    let (ck, sk) = establish(ccfg, scfg).unwrap();
    let (mut c, mut s) = Endpoint::builder()
        .stack(StackKind::SmtSw)
        .pair(&ck, &sk, 5, 6)
        .unwrap();
    match s.poll_event() {
        Some(Event::HandshakeComplete { peer_identity, .. }) => {
            assert_eq!(peer_identity.as_deref(), Some("client"));
        }
        other => panic!("expected handshake event, got {other:?}"),
    }
    c.send(b"authenticated", 0).unwrap();
    let mut link = PairFabric::reliable();
    drive_pair(&mut c, &mut s, &mut link, 1_000_000);
    assert_eq!(take_delivered(&mut s)[0].1, b"authenticated");

    // The plaintext Homa baseline coexists, built keyless from the same
    // builder surface.
    let (mut pa, mut pb) = Endpoint::builder()
        .stack(StackKind::Homa)
        .pair_plaintext(1, 2)
        .unwrap();
    pa.send(&vec![9u8; 10_000], 0).unwrap();
    let mut plain_link = PairFabric::reliable();
    drive_pair(&mut pa, &mut pb, &mut plain_link, 1_000_000);
    assert_eq!(take_delivered(&mut pb)[0].1.len(), 10_000);
    assert_eq!(SmtConfig::plaintext().crypto_mode, CryptoMode::Plaintext);
}

#[test]
fn zero_rtt_keys_drive_endpoints() {
    use smt::crypto::handshake::zero_rtt::establish_zero_rtt;
    use smt::crypto::handshake::{ReplayCache, SmtTicketIssuer};
    let ca = CertificateAuthority::new("it-ca3");
    let id = ca.issue_identity("api");
    let issuer = SmtTicketIssuer::new(id, 3600);
    let mut replay = ReplayCache::new(1024);
    let (ck, sk, early) = establish_zero_rtt(
        smt::crypto::CipherSuite::Aes128GcmSha256,
        &ca.verifying_key(),
        "api",
        &issuer,
        &mut replay,
        b"first-rtt request",
        true,
        0,
    )
    .unwrap();
    assert_eq!(early.as_deref(), Some(&b"first-rtt request"[..]));
    let (mut c, mut s) = Endpoint::builder()
        .stack(StackKind::SmtSw)
        .pair(&ck, &sk, 10, 20)
        .unwrap();
    c.send(b"post-handshake data", 0).unwrap();
    let mut link = PairFabric::reliable();
    drive_pair(&mut c, &mut s, &mut link, 1_000_000);
    assert_eq!(take_delivered(&mut s)[0].1, b"post-handshake data");
}

#[test]
fn acks_release_sender_state_on_both_backends() {
    for stack in [StackKind::SmtSw, StackKind::KtlsSw] {
        let (ck, sk, _) = handshake();
        let (mut c, mut s) = Endpoint::builder()
            .stack(stack)
            .pair(&ck, &sk, 30, 40)
            .unwrap();
        let id = c.send(&vec![1u8; 50_000], 0).unwrap();
        let mut link = PairFabric::reliable();
        drive_pair(&mut c, &mut s, &mut link, 1_000_000);
        let acked: Vec<_> = std::iter::from_fn(|| c.poll_event())
            .filter_map(|e| match e {
                Event::MessageAcked(id) => Some(id),
                _ => None,
            })
            .collect();
        assert_eq!(acked, vec![id], "stack {}", stack.label());
    }
}

#[test]
fn an_on_path_observer_sees_only_the_overlay_fields() {
    use smt::wire::{OverlayTcpHeader, Packet, PacketType, SmtOptionArea, SmtOverlayHeader};
    const CONNECTION_ID: u32 = 0x5eed_c1d0;
    let (ck, sk, _) = handshake();
    let (mut c, mut s) = Endpoint::builder()
        .stack(StackKind::SmtSw)
        .connection_id(CONNECTION_ID)
        .pair(&ck, &sk, 30, 40)
        .unwrap();
    let epoch = c.rekey(0).unwrap();
    // One TLS record's worth of distinctive bytes: no 16-byte window repeats,
    // and more packets than the unscheduled prefix, so the receiver GRANTs.
    let secret: Vec<u8> = (0..3_400u32)
        .flat_map(|i| (i.wrapping_mul(0x9e37_79b9) ^ 0x5a5a_0f0f).to_le_bytes())
        .chain(*b"on-path secret")
        .collect();
    let id = c.send(&secret, 0).unwrap();

    // Everything both ends put on the wire, encoded as an observer sees it.
    let mut wire: Vec<Packet> = Vec::new();
    let mut to_server = Vec::new();
    c.poll_transmit(0, &mut to_server);
    while !to_server.is_empty() {
        let mut to_client = Vec::new();
        for p in to_server.drain(..) {
            s.handle_datagram(&p, 0).unwrap();
            s.poll_transmit(0, &mut to_client);
            wire.push(p);
        }
        for p in to_client {
            c.handle_datagram(&p, 0).unwrap();
            c.poll_transmit(0, &mut to_server);
            wire.push(p);
        }
    }
    let windows: std::collections::HashSet<&[u8]> = secret.windows(16).collect();
    for p in &wire {
        let mut bytes = vec![0u8; p.wire_len()];
        let n = p.encode(&mut bytes).unwrap();
        bytes.truncate(n);
        // Not one 16-byte window of the application's bytes is on the wire ...
        assert!(
            !bytes.windows(16).any(|w| windows.contains(w)),
            "{:?} packet exposes payload bytes",
            p.overlay.tcp.packet_type
        );
        let (seen, _) = Packet::decode(&bytes).unwrap();
        // ... and the overlay carries exactly the type, message ID and length,
        // offsets, connection ID, epoch and priority; every other option
        // field holds its fixed value.
        let o = seen.overlay.options;
        let mut only = SmtOptionArea::new(o.message_id, o.message_length);
        only.tso_offset = o.tso_offset;
        only.resend_packet_offset = o.resend_packet_offset;
        only.connection_id = o.connection_id;
        only.epoch = o.epoch;
        only.priority = o.priority;
        let (src_port, dst_port) = (seen.overlay.tcp.src_port, seen.overlay.tcp.dst_port);
        let header = SmtOverlayHeader {
            tcp: OverlayTcpHeader::new(src_port, dst_port, seen.overlay.tcp.packet_type),
            options: only,
        };
        assert_eq!(seen.overlay, header, "{:?}", p.overlay.tcp.packet_type);
        assert_eq!(o.message_id, id.0);
        assert_eq!(o.connection_id, CONNECTION_ID);
        if o.message_length > 0 {
            assert_eq!(seen.overlay.tcp.packet_type, PacketType::Data);
            assert_eq!(o.message_length as usize, secret.len());
            assert_eq!(o.epoch, epoch);
        }
    }
    let kinds = |t: PacketType| {
        wire.iter()
            .filter(|p| p.overlay.tcp.packet_type == t)
            .count()
    };
    assert!(
        kinds(PacketType::Data) > 8,
        "DATA beyond the unscheduled prefix"
    );
    assert!(kinds(PacketType::Grant) > 0 && kinds(PacketType::Ack) == 1);
    assert_eq!(
        wire.len(),
        kinds(PacketType::Data) + kinds(PacketType::Grant) + 1
    );
    assert_eq!(take_delivered(&mut s), vec![(id, secret)]);
}
