//! Key-schedule lifetime properties: rekeying mid-stream and the derived
//! (path-secret) handshake's fallback path, across the encrypted stacks.
//!
//! Two guarantees the connection-management layer makes:
//!
//! * **Rekey is invisible to the application.** Either side may ratchet its
//!   send keys one epoch forward at any point in a transfer — with records
//!   genuinely in flight, under the shared duplicate-and-reorder fault model —
//!   and every message still arrives exactly once, intact and in order, on
//!   all six encrypted stacks.
//!
//! * **Derived connects degrade, never fail.** A client holding a path
//!   secret the server has since evicted gets its derived flight rejected
//!   in-band and transparently falls back to a full handshake on the same
//!   connection: the first message (sent before the client learns of the
//!   rejection) is still delivered exactly once, and the fallback re-mints
//!   the path secret so the next connect derives again.

use proptest::prelude::*;
use smt::crypto::cert::CertificateAuthority;
use smt::sim::net::{FaultConfig, FaultyLink};
use smt::transport::endpoint::{AcceptConfig, ConnectConfig, SharedPathSecrets};
use smt::transport::{Endpoint, Event, MessageId, SecureEndpoint, StackKind};

/// One poll/scramble/deliver exchange, shared by both pumps.  Returns true if
/// the wire was idle this round (timers were fired instead).
fn pump_once(
    client: &mut Endpoint,
    server: &mut Endpoint,
    chaos: &mut FaultyLink,
    now: &mut u64,
) -> bool {
    let mut to_server = Vec::new();
    client.poll_transmit(*now, &mut to_server);
    let mut to_client = Vec::new();
    server.poll_transmit(*now, &mut to_client);

    if to_server.is_empty() && to_client.is_empty() {
        if let Some(deadline) = [client.next_timeout(), server.next_timeout()]
            .into_iter()
            .flatten()
            .min()
        {
            *now = (*now).max(deadline);
        }
        client.on_timeout(*now);
        server.on_timeout(*now);
        return true;
    }
    chaos.scramble_flight(&mut to_server);
    chaos.scramble_flight(&mut to_client);
    for p in &to_server {
        let _ = server.handle_datagram(p, *now);
    }
    for p in &to_client {
        let _ = client.handle_datagram(p, *now);
    }
    false
}

/// Runs exactly `rounds` exchanges — used to put records on the wire *between*
/// application actions (send, rekey) without waiting for quiescence.
fn pump_rounds(
    client: &mut Endpoint,
    server: &mut Endpoint,
    chaos: &mut FaultyLink,
    now: &mut u64,
    rounds: usize,
) {
    for _ in 0..rounds {
        pump_once(client, server, chaos, now);
    }
}

/// Drives the pair until two consecutive idle rounds (timeout recovery
/// included), panicking if it never quiesces.
fn pump_to_quiesce(
    client: &mut Endpoint,
    server: &mut Endpoint,
    chaos: &mut FaultyLink,
    now: &mut u64,
    max_rounds: usize,
) {
    let mut idle = 0;
    for _ in 0..max_rounds {
        if pump_once(client, server, chaos, now) {
            idle += 1;
            if idle >= 2 {
                return;
            }
        } else {
            idle = 0;
        }
    }
    panic!("pair did not quiesce within {max_rounds} rounds");
}

/// Drains every event, returning deliveries and panicking on any
/// [`Event::Error`] — rekey and fallback must never surface one.
fn drain_deliveries(ep: &mut Endpoint, label: &str) -> Vec<(MessageId, Vec<u8>)> {
    let mut got = Vec::new();
    while let Some(ev) = ep.poll_event() {
        match ev {
            Event::MessageDelivered { id, data } => got.push((id, data)),
            Event::Error(e) => panic!("{label}: unexpected error event: {e}"),
            _ => {}
        }
    }
    got.sort_by_key(|(id, _)| *id);
    got
}

/// Drains the client side, returning the handshake completion (if any) and
/// panicking on error events.
fn drain_completion(ep: &mut Endpoint, label: &str) -> Option<bool> {
    let mut resumed_flag = None;
    while let Some(ev) = ep.poll_event() {
        match ev {
            Event::HandshakeComplete { resumed, .. } => resumed_flag = Some(resumed),
            Event::Error(e) => panic!("{label}: unexpected error event: {e}"),
            _ => {}
        }
    }
    resumed_flag
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Rekeying mid-stream — client and server sides, with earlier records
    /// still in flight and the wire duplicating and reordering — never loses
    /// or corrupts a record on any of the six encrypted stacks, and each
    /// ratchet advances the epoch monotonically.
    #[test]
    fn rekey_mid_stream_never_loses_or_corrupts_records(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..2000), 3..6),
        seed in any::<u64>(),
    ) {
        for stack in StackKind::all().into_iter().filter(|s| s.is_encrypted()) {
            let ca = CertificateAuthority::new("rekey-ca");
            let id = ca.issue_identity("server");
            let connect = ConnectConfig::new(ca.verifying_key(), "server");
            let accept = AcceptConfig::new(id, ca.verifying_key());
            let (mut client, mut server) = Endpoint::builder()
                .stack(stack)
                .handshake_pair(connect, accept, 4000, 5201)
                .unwrap();

            let mut chaos = FaultyLink::new(FaultConfig::chaotic(seed));
            let mut now = 0u64;
            let mut last_client_epoch = 0u16;
            let mut last_server_epoch = 0u16;
            for (i, p) in payloads.iter().enumerate() {
                client.send(p, now).unwrap();
                // Two rounds while the handshakes finish; after that zero
                // (the message has not even been polled when its key
                // ratchets), one or two, so its records are unsent, in flight
                // or already landing when the ratchet happens.
                let rounds = if i < 2 { 2 } else { (i - 2) % 3 };
                pump_rounds(&mut client, &mut server, &mut chaos, &mut now, rounds);
                if i % 2 == 0 {
                    let epoch = client.rekey(now).unwrap_or_else(|e| {
                        panic!("{}: client rekey failed: {e}", stack.label())
                    });
                    prop_assert!(
                        epoch > last_client_epoch,
                        "{}: client epoch did not advance", stack.label()
                    );
                    last_client_epoch = epoch;
                } else {
                    let epoch = server.rekey(now).unwrap_or_else(|e| {
                        panic!("{}: server rekey failed: {e}", stack.label())
                    });
                    prop_assert!(
                        epoch > last_server_epoch,
                        "{}: server epoch did not advance", stack.label()
                    );
                    last_server_epoch = epoch;
                }
            }
            pump_to_quiesce(&mut client, &mut server, &mut chaos, &mut now, 20_000);

            drain_completion(&mut client, stack.label());
            let got = drain_deliveries(&mut server, stack.label());
            let datas: Vec<Vec<u8>> = got.into_iter().map(|(_, d)| d).collect();
            prop_assert_eq!(
                &datas, &payloads,
                "stack {} lost or corrupted records across rekeys", stack.label()
            );
        }
    }

    /// A derived connect against a server that evicted the path secret falls
    /// back to a full handshake on the same connection: the first message is
    /// delivered exactly once anyway, the fallback re-mints the secret on
    /// both sides, and the next connect derives again — on every encrypted
    /// stack, under duplication and reordering.
    #[test]
    fn derived_connect_after_eviction_falls_back_transparently(
        payload_len in 1usize..4000,
        seed in any::<u64>(),
    ) {
        let payload = vec![0x5au8; payload_len];
        for stack in StackKind::all().into_iter().filter(|s| s.is_encrypted()) {
            let ca = CertificateAuthority::new("derived-ca");
            let id = ca.issue_identity("server");
            let client_secrets = SharedPathSecrets::new(16, 1 << 10);
            let server_secrets = SharedPathSecrets::new(16, 1 << 10);

            let run = |client_secrets: &SharedPathSecrets,
                           server_secrets: &SharedPathSecrets,
                           label: &str|
             -> bool {
                let connect = ConnectConfig::new(ca.verifying_key(), "server")
                    .path_secrets(client_secrets.clone());
                let accept = AcceptConfig::new(id.clone(), ca.verifying_key())
                    .path_secrets(server_secrets.clone());
                let (mut client, mut server) = Endpoint::builder()
                    .stack(stack)
                    .handshake_pair(connect, accept, 4000, 5201)
                    .unwrap();
                client.send(&payload, 0).unwrap();
                let mut chaos = FaultyLink::new(FaultConfig::chaotic(seed));
                let mut now = 0u64;
                pump_to_quiesce(&mut client, &mut server, &mut chaos, &mut now, 20_000);

                let resumed = drain_completion(&mut client, label)
                    .unwrap_or_else(|| panic!("{label}: no handshake completion"));
                let got = drain_deliveries(&mut server, label);
                assert_eq!(got.len(), 1, "{label}: delivered exactly once");
                assert_eq!(got[0].1, payload, "{label}: payload intact");
                resumed
            };

            // First contact: full handshake mints the path secret pair-wide.
            let l = format!("{} mint", stack.label());
            prop_assert!(!run(&client_secrets, &server_secrets, &l));
            prop_assert_eq!(client_secrets.len(), 1);
            prop_assert_eq!(server_secrets.len(), 1);

            // The server evicts its secrets (restart / table pressure): the
            // client's derived flight is rejected in-band and the connection
            // transparently completes a full handshake instead, re-minting.
            let fresh_server = SharedPathSecrets::new(16, 1 << 10);
            let l = format!("{} fallback", stack.label());
            prop_assert!(
                !run(&client_secrets, &fresh_server, &l),
                "stack {} reported the fallback as resumed", stack.label()
            );
            prop_assert_eq!(client_secrets.len(), 1);
            prop_assert_eq!(fresh_server.len(), 1);

            // With the secret re-minted, the next connect derives again.
            let l = format!("{} re-derive", stack.label());
            prop_assert!(
                run(&client_secrets, &fresh_server, &l),
                "stack {} did not derive after the re-mint", stack.label()
            );
        }
    }
}
