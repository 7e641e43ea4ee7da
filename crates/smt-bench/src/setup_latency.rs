//! The setup-latency scenario family: the paper's Fig. 12 / Table 2 claim —
//! connection setup is cheap because the handshake piggybacks on the first
//! message and resumption is 0-RTT — measured **over the wire**.
//!
//! Each case runs one connection through the in-band handshake
//! (`Endpoint::builder().connect(..)/.accept(..)`) on the two-host fabric in
//! simulated time and records:
//!
//! * `hs_rtt_ns` — the client's measured handshake latency (the `rtt_ns`
//!   carried by the real `HandshakeComplete` event): first flight transmitted
//!   → keys installed.
//! * `ttfb_ns` — time to first request byte: virtual time at which the
//!   server delivers the client's first message.  Cold connections pay the
//!   full pre-data exchange (~1.5 RTT on stream stacks); resumed (0-RTT)
//!   connections deliver the request from the first flight (~0.5 RTT), the
//!   ≥ 1 RTT saving the paper claims.
//!
//! The matrix covers every stack (the plaintext stacks as no-handshake
//! baselines), cold vs. resumed, and a 10 % loss variant in which the
//! handshake flights must survive through the endpoints' RTO/retransmit
//! machinery.  Virtual time only advances with network propagation and
//! serialization, so the handshake's *compute* cost is excluded here by
//! construction — that is what the `figures` binary's wall-clock Fig. 12 and
//! Table 2 tables measure.
//!
//! The `setup_latency` binary prints the matrix and emits
//! `BENCH_setup_latency.json` in the bench-diff-compatible shape, gated in CI
//! like the scenario matrix.  Simulation output is deterministic per seed up
//! to ECDSA signature length (DER signatures vary by a byte or two, shifting
//! flight serialization time by a few ns) — far inside the CI gate.

use smt_crypto::cert::{CertificateAuthority, Identity};
use smt_crypto::handshake::{SmtTicket, SmtTicketIssuer};
use smt_sim::net::LinkConfig;
use smt_sim::Nanos;
use smt_transport::{
    drive_pair, AcceptConfig, ConnectConfig, Endpoint, Event, PairFabric, SecureEndpoint,
    StackKind, ZeroRttAcceptor,
};

/// Application bytes of the first request each connection sends.
pub const REQUEST_BYTES: usize = 512;

/// One measured connection setup.
#[derive(Debug, Clone, serde::Serialize)]
pub struct SetupRow {
    /// Stack label (paper legend).
    pub stack: String,
    /// `"cold"` (full handshake) or `"resumed"` (SMT-ticket 0-RTT).
    pub mode: &'static str,
    /// Injected uniform loss, in percent.
    pub loss_pct: f64,
    /// The client's measured handshake latency (0 for the plaintext stacks,
    /// which have nothing to negotiate).
    pub hs_rtt_ns: Nanos,
    /// Virtual time at which the server delivered the first request.
    pub ttfb_ns: Nanos,
    /// Virtual time at which the pair quiesced (request delivered and acked).
    pub done_ns: Nanos,
    /// Whether the connection resumed (0-RTT) — mirrors the event flag.
    pub resumed: bool,
    /// Packets retransmitted across both ends (handshake flights + data).
    pub retransmissions: u64,
    /// Messages the server delivered (always 1 here).
    pub delivered: u64,
}

/// One network round trip on the default evaluation link (propagation only;
/// serialization of the small setup packets adds a few hundred ns on top).
pub fn one_rtt_ns() -> Nanos {
    2 * LinkConfig::default().propagation_ns
}

/// Runs one connection setup and returns the measured row plus the in-band
/// SMT-ticket the client collected (for the subsequent resumed run).
fn run_one(
    stack: StackKind,
    ca: &CertificateAuthority,
    identity: &Identity,
    acceptor: &ZeroRttAcceptor,
    ticket: Option<&SmtTicket>,
    loss: f64,
    seed: u64,
) -> (SetupRow, Option<SmtTicket>) {
    let mut connect = ConnectConfig::new(ca.verifying_key(), "setup.dc.local");
    if let Some(t) = ticket {
        connect = connect.resume(t.clone(), t.issued_at);
    }
    let accept = AcceptConfig::new(identity.clone(), ca.verifying_key())
        .zero_rtt(acceptor.clone())
        .ticket_time(100);
    let (mut client, mut server) = Endpoint::builder()
        .stack(stack)
        .handshake_pair(connect, accept, 4000, 4443)
        .expect("setup endpoints");
    client
        .send(&[0x42u8; REQUEST_BYTES], 0)
        .expect("queue the first request");

    let mut link = if loss > 0.0 {
        PairFabric::lossy(loss, seed)
    } else {
        PairFabric::reliable()
    };
    let mut ttfb: Option<Nanos> = None;
    let mut hs_rtt: Nanos = 0;
    let mut resumed = false;
    let mut got_ticket: Option<SmtTicket> = None;
    loop {
        // One event per call, so `link.now()` at a delivery event is the
        // exact virtual delivery time.
        let processed = drive_pair(&mut client, &mut server, &mut link, 1);
        while let Some(ev) = server.poll_event() {
            if matches!(ev, Event::MessageDelivered { .. }) && ttfb.is_none() {
                ttfb = Some(link.now());
            }
        }
        while let Some(ev) = client.poll_event() {
            match ev {
                Event::HandshakeComplete {
                    rtt_ns, resumed: r, ..
                } => {
                    hs_rtt = rtt_ns;
                    resumed = r;
                }
                Event::TicketReceived(t) => got_ticket = Some(*t),
                _ => {}
            }
        }
        if processed == 0 {
            break;
        }
    }
    let row = SetupRow {
        stack: stack.label().to_string(),
        mode: if ticket.is_some() { "resumed" } else { "cold" },
        loss_pct: loss * 100.0,
        hs_rtt_ns: hs_rtt,
        ttfb_ns: ttfb.unwrap_or_else(|| {
            panic!(
                "{}/{} at {loss} loss: request never delivered",
                stack.label(),
                if ticket.is_some() { "resumed" } else { "cold" }
            )
        }),
        done_ns: link.now(),
        resumed,
        retransmissions: client.stats().retransmissions + server.stats().retransmissions,
        delivered: server.stats().messages_delivered,
    };
    (row, got_ticket)
}

/// Runs the setup-latency matrix: every stack, cold and resumed, lossless
/// and (full mode) under 10 % loss.  `smoke` restricts it to the CI subset:
/// SMT-sw and kTLS-sw, lossless only.
pub fn setup_latency_matrix(smoke: bool) -> Vec<SetupRow> {
    let ca = CertificateAuthority::new("setup-ca");
    let identity = ca.issue_identity("setup.dc.local");
    let stacks: Vec<StackKind> = if smoke {
        vec![StackKind::SmtSw, StackKind::KtlsSw]
    } else {
        StackKind::all().to_vec()
    };
    let losses: &[f64] = if smoke { &[0.0] } else { &[0.0, 0.10] };
    let mut rows = Vec::new();
    for (li, &loss) in losses.iter().enumerate() {
        for (si, &stack) in stacks.iter().enumerate() {
            // One listener (issuer + shared anti-replay cache) per case; the
            // cold connection mints the in-band ticket the resumed one uses.
            let acceptor =
                ZeroRttAcceptor::new(SmtTicketIssuer::new(identity.clone(), 3600), 1 << 16);
            let seed = 9000 + (li as u64) * 100 + (si as u64) * 2;
            let (cold, ticket) = run_one(stack, &ca, &identity, &acceptor, None, loss, seed);
            rows.push(cold);
            if stack.is_encrypted() {
                let ticket = ticket.expect("cold handshake delivers an in-band ticket");
                let (resumed, _) = run_one(
                    stack,
                    &ca,
                    &identity,
                    &acceptor,
                    Some(&ticket),
                    loss,
                    seed + 1,
                );
                rows.push(resumed);
            }
        }
    }
    rows
}

/// Asserts the acceptance criterion: on the lossless link, resumed (0-RTT)
/// setup delivers the first request at least one network RTT earlier than
/// cold setup on each of `stacks`.
pub fn assert_zero_rtt_wins(rows: &[SetupRow], stacks: &[&str]) {
    for name in stacks {
        let find = |mode: &str| {
            rows.iter()
                .find(|r| r.stack == *name && r.mode == mode && r.loss_pct == 0.0)
                .unwrap_or_else(|| panic!("missing {mode} row for {name}"))
        };
        let cold = find("cold");
        let resumed = find("resumed");
        assert!(resumed.resumed, "{name}: resumed run did not resume");
        assert!(!cold.resumed, "{name}: cold run claims resumption");
        assert!(
            resumed.ttfb_ns + one_rtt_ns() <= cold.ttfb_ns,
            "{name}: resumed setup ({} ns) is not ≥ 1 RTT ({} ns) faster than cold ({} ns)",
            resumed.ttfb_ns,
            one_rtt_ns(),
            cold.ttfb_ns,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_matrix_measures_and_zero_rtt_wins() {
        let rows = setup_latency_matrix(true);
        // SMT-sw and kTLS-sw, cold + resumed each.
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert_eq!(row.delivered, 1, "{}/{}", row.stack, row.mode);
            assert!(row.ttfb_ns > 0);
        }
        assert_zero_rtt_wins(&rows, &["SMT-sw", "kTLS-sw"]);
        // Cold setup pays the handshake before data: the client's measured
        // handshake RTT is at least one network round trip.
        let cold = rows.iter().find(|r| r.mode == "cold").unwrap();
        assert!(cold.hs_rtt_ns >= one_rtt_ns());
    }

    #[test]
    fn matrix_is_stable_across_runs() {
        // Timings are deterministic up to ECDSA signature length (DER
        // signatures vary by a byte or two, shifting flight serialization by
        // a few ns) — the same tolerance the CI bench_diff gate absorbs.
        let a = setup_latency_matrix(true);
        let b = setup_latency_matrix(true);
        for (x, y) in a.iter().zip(&b) {
            let close = |p: Nanos, q: Nanos| p.abs_diff(q) <= 64;
            assert!(close(x.ttfb_ns, y.ttfb_ns), "{}/{}", x.stack, x.mode);
            assert!(close(x.hs_rtt_ns, y.hs_rtt_ns), "{}/{}", x.stack, x.mode);
        }
    }
}
