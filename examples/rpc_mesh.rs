//! A small "service mesh" of RPC endpoints with mutual TLS (mTLS) over SMT,
//! carried by the packet-level receiver-driven transport over a lossy link,
//! driven entirely through the unified endpoint API.
//!
//! Run with: `cargo run --example rpc_mesh`

use smt::crypto::cert::CertificateAuthority;
use smt::crypto::handshake::{establish, ClientConfig, ServerConfig};
use smt::transport::{drive_pair, Endpoint, Event, PairFabric, SecureEndpoint, StackKind};

fn main() {
    let ca = CertificateAuthority::new("mesh-ca");
    let frontend_id = ca.issue_identity("frontend.mesh.local");
    let backend_id = ca.issue_identity("backend.mesh.local");

    // Mutual authentication: the backend requires a client certificate.
    let mut client_cfg = ClientConfig::new(ca.verifying_key(), "backend.mesh.local");
    client_cfg.identity = Some(frontend_id);
    let mut server_cfg = ServerConfig::new(backend_id, ca.verifying_key());
    server_cfg.require_client_auth = true;
    let (ck, sk) = establish(client_cfg, server_cfg).expect("mTLS handshake");

    // Endpoints over a fabric dropping 5 % of all packets.
    let (mut frontend, mut backend) = Endpoint::builder()
        .stack(StackKind::SmtSw)
        .pair(&ck, &sk, 7100, 7200)
        .expect("endpoints");
    let mut link = PairFabric::lossy(0.05, 1234);

    // The backend's first event announces the authenticated peer.
    if let Some(Event::HandshakeComplete { peer_identity, .. }) = backend.poll_event() {
        println!("mTLS established: backend authenticated the frontend as {peer_identity:?}");
    }

    for i in 0..20u32 {
        let req = format!("call#{i}: GET /inventory/{}", i * 7).into_bytes();
        frontend.send(&req, link.now()).expect("send");
    }
    drive_pair(&mut frontend, &mut backend, &mut link, 1_000_000);

    let mut received = 0;
    while let Some(event) = backend.poll_event() {
        if let Event::MessageDelivered { .. } = event {
            received += 1;
        }
    }
    println!(
        "backend received {} RPCs over a lossy link ({} packets dropped, {} replays rejected)",
        received,
        link.stats().dropped(),
        backend.stats().replays_rejected,
    );
    assert_eq!(received, 20);
}
