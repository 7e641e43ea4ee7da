//! The connection-churn scenario family: many-connection setup under storm.
//!
//! A single [`Listener`] terminates every connection of a stack on one
//! simulated host while waves of concurrent clients connect, send one
//! request, and disconnect — the many-connection regime the paper's
//! connection-management design targets (§4.5): handshakes must stay cheap
//! when *thousands* of them happen, not just one at a time.
//!
//! Each wave mixes the three setup modes round-robin, so every mode fights
//! the same incast contention on the listener's NIC:
//!
//! * `cold` — full certificate handshake (1-RTT, ECDSA on both ends).
//! * `resumed` — 0-RTT SMT-ticket resumption against the listener's shared
//!   [`ZeroRttAcceptor`]; tickets come from earlier cold connects' in-band
//!   mints.
//! * `derived` — path-secret derived keys ([`SharedPathSecrets`]): the
//!   first cold connect between the host pair minted a path secret, later
//!   connects HKDF-derive fresh per-connection keys with zero extra round
//!   trips *and* no per-connection ticket to carry.
//!
//! Per connection the harness records **setup latency**: virtual time from
//! the wave start to the listener delivering that connection's first
//! request.  Per `(stack, mode)` it reports the p50/p99 of that
//! distribution; per stack it reports the aggregate handshake rate in
//! virtual time.  The paper's claim, asserted by the binary: at storm scale
//! the derived mode's median setup is at or below ticket resumption —
//! deriving from a cached path secret never costs more than carrying a
//! ticket.
//!
//! Virtual time only advances with propagation and serialization, so the
//! distributions are deterministic per seed up to ECDSA signature-length
//! variation — the same tolerance the other wire benches absorb.

use std::collections::HashMap;

use smt_crypto::cert::CertificateAuthority;
use smt_crypto::handshake::{SmtTicket, SmtTicketIssuer};
use smt_sim::Nanos;
use smt_transport::{
    ConnectConfig, Endpoint, Event, Listener, ListenerFabric, SecureEndpoint, SharedPathSecrets,
    StackKind, ZeroRttAcceptor,
};

/// Application bytes of the one request each connection sends.
pub const REQUEST_BYTES: usize = 256;

/// The server name every churn connection dials.
const SERVER_NAME: &str = "churn.dc.local";

/// The three measured setup modes, in wave round-robin order.
const MODES: [&str; 3] = ["cold", "resumed", "derived"];

/// One `(stack, mode)` cell of the churn matrix.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ChurnRow {
    /// Stack label (paper legend).
    pub stack: String,
    /// `"cold"`, `"resumed"`, `"derived"`, or the per-stack `"all"` summary.
    pub mode: &'static str,
    /// Connections measured in this cell.
    pub connects: u64,
    /// Median setup latency: wave start → first request delivered.
    pub setup_p50_ns: Nanos,
    /// 99th-percentile setup latency.
    pub setup_p99_ns: Nanos,
    /// Completed handshakes per *virtual* second across the stack's whole
    /// run (same value on every row of a stack).
    pub handshakes_per_sec: f64,
    /// Path secrets evicted server-side plus listener-table evictions.
    pub state_evictions: u64,
}

/// Nearest-rank percentile of an ascending-sorted sample set.
fn percentile(sorted: &[Nanos], p: f64) -> Nanos {
    assert!(!sorted.is_empty(), "no samples");
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs `waves` waves of `wave_size` mixed-mode connects against one
/// listener and returns the matrix rows for `stack`.
fn run_stack(stack: StackKind, waves: usize, wave_size: usize) -> Vec<ChurnRow> {
    let ca = CertificateAuthority::new("churn-ca");
    let identity = ca.issue_identity(SERVER_NAME);
    let acceptor = ZeroRttAcceptor::new(SmtTicketIssuer::new(identity.clone(), 3600), 1 << 16);
    // The client host's path-secret cache holds the one secret for this
    // host pair; the server side is sized for the whole storm (every full
    // handshake mints an entry) so the hot secret is never evicted under it.
    let client_secrets = SharedPathSecrets::new(64, 1 << 16);
    let server_secrets = SharedPathSecrets::new(1 << 13, 1 << 16);
    let mut listener = Listener::new(
        Endpoint::builder().stack(stack),
        identity,
        ca.verifying_key(),
        wave_size * 2,
    )
    .zero_rtt(acceptor)
    .ticket_time(100)
    .path_secrets(server_secrets.clone());
    let mut fabric = ListenerFabric::reliable();

    let mut tickets: Vec<SmtTicket> = Vec::new();
    let mut next_ticket = 0usize;
    let mut next_cid = 1u32;
    let mut samples: HashMap<&'static str, Vec<Nanos>> =
        MODES.iter().map(|m| (*m, Vec::new())).collect();

    // Mint wave: one cold connect carrying the client's path-secret map
    // mints the pair's path secret and the first resumption ticket.
    run_wave(
        stack,
        &ca,
        &mut listener,
        &mut fabric,
        &mut next_cid,
        &[("mint", None)],
        &client_secrets,
        &mut tickets,
        &mut samples,
    );
    assert_eq!(client_secrets.len(), 1, "mint wave stored the path secret");
    assert!(!tickets.is_empty(), "mint wave delivered a ticket");

    for _ in 0..waves {
        let plan: Vec<(&'static str, Option<SmtTicket>)> = (0..wave_size)
            .map(|i| {
                let mode = MODES[i % MODES.len()];
                let ticket = (mode == "resumed").then(|| {
                    let t = tickets[next_ticket % tickets.len()].clone();
                    next_ticket += 1;
                    t
                });
                (mode, ticket)
            })
            .collect();
        run_wave(
            stack,
            &ca,
            &mut listener,
            &mut fabric,
            &mut next_cid,
            &plan,
            &client_secrets,
            &mut tickets,
            &mut samples,
        );
    }

    let evictions = server_secrets.evictions() + listener.state_evictions();
    let virtual_secs = fabric.now() as f64 / 1e9;
    let measured: u64 = MODES.iter().map(|m| samples[m].len() as u64).sum();
    let hps = measured as f64 / virtual_secs;

    let mut rows = Vec::new();
    let mut all: Vec<Nanos> = Vec::new();
    for mode in MODES {
        let mut s = samples.remove(mode).unwrap();
        s.sort_unstable();
        rows.push(ChurnRow {
            stack: stack.label().to_string(),
            mode,
            connects: s.len() as u64,
            setup_p50_ns: percentile(&s, 0.50),
            setup_p99_ns: percentile(&s, 0.99),
            handshakes_per_sec: hps,
            state_evictions: evictions,
        });
        all.extend_from_slice(&s);
    }
    all.sort_unstable();
    rows.push(ChurnRow {
        stack: stack.label().to_string(),
        mode: "all",
        connects: all.len() as u64,
        setup_p50_ns: percentile(&all, 0.50),
        setup_p99_ns: percentile(&all, 0.99),
        handshakes_per_sec: hps,
        state_evictions: evictions,
    });
    rows
}

/// Launches one wave of concurrent connects per `plan` (`(mode, ticket)` per
/// client), drives the storm to quiescence, records per-connection setup
/// latencies into `samples` (the `"mint"` mode is not measured), harvests
/// freshly minted tickets, and closes the wave's connections, handing their
/// ports back to the fabric for the next wave.
#[allow(clippy::too_many_arguments)]
fn run_wave(
    stack: StackKind,
    ca: &CertificateAuthority,
    listener: &mut Listener,
    fabric: &mut ListenerFabric,
    next_cid: &mut u32,
    plan: &[(&'static str, Option<SmtTicket>)],
    client_secrets: &SharedPathSecrets,
    tickets: &mut Vec<SmtTicket>,
    samples: &mut HashMap<&'static str, Vec<Nanos>>,
) {
    let wave_start = fabric.now();
    let mut modes: HashMap<u32, &'static str> = HashMap::new();
    let mut clients: Vec<(u32, Endpoint)> = Vec::with_capacity(plan.len());
    for (mode, ticket) in plan {
        let cid = *next_cid;
        *next_cid += 1;
        let mut config = ConnectConfig::new(ca.verifying_key(), SERVER_NAME);
        match *mode {
            "resumed" => {
                let t = ticket.clone().expect("resumed connect needs a ticket");
                let at = t.issued_at;
                config = config.resume(t, at);
            }
            "derived" | "mint" => config = config.path_secrets(client_secrets.clone()),
            _ => {}
        }
        fabric.attach(cid);
        let mut client = Endpoint::builder()
            .stack(stack)
            .connection_id(cid)
            .path(smt_core::segment::PathInfo::pair(4000, 5201).0)
            .connect(config)
            .unwrap_or_else(|e| panic!("{}/{mode}: connect: {e}", stack.label()));
        client
            .send(&[0x42u8; REQUEST_BYTES], wave_start)
            .expect("queue the request");
        modes.insert(cid, mode);
        clients.push((cid, client));
    }

    // One fabric event per step so `fabric.now()` at a delivery event is
    // that connection's exact setup-completion time.
    let mut delivered = 0usize;
    loop {
        let processed = fabric.drive(&mut clients, listener, 1);
        while let Some((cid, ev)) = listener.poll_event() {
            match ev {
                Event::MessageDelivered { .. } => {
                    let mode = modes[&cid];
                    if mode != "mint" {
                        samples
                            .get_mut(mode)
                            .unwrap()
                            .push(fabric.now() - wave_start);
                    }
                    delivered += 1;
                }
                Event::Error(e) => panic!("{} conn {cid}: listener error: {e}", stack.label()),
                _ => {}
            }
        }
        if processed == 0 {
            break;
        }
    }
    assert_eq!(
        delivered,
        plan.len(),
        "{}: wave lost requests",
        stack.label()
    );

    for (cid, client) in &mut clients {
        let mode = modes[cid];
        let mut completed = false;
        while let Some(ev) = client.poll_event() {
            match ev {
                Event::HandshakeComplete { resumed, .. } => {
                    completed = true;
                    assert_eq!(
                        resumed,
                        mode == "resumed" || mode == "derived",
                        "{} conn {cid} ({mode}): wrong resumption flag",
                        stack.label()
                    );
                }
                Event::TicketReceived(t) if tickets.len() < 1 << 12 => tickets.push(*t),
                Event::Error(e) => panic!("{} conn {cid} ({mode}): {e}", stack.label()),
                _ => {}
            }
        }
        assert!(
            completed,
            "{} conn {cid} ({mode}): no handshake completion",
            stack.label()
        );
        listener.close(*cid);
        fabric.detach(*cid);
    }
}

/// Runs the churn matrix.  Full mode storms every encrypted stack with
/// 10k+ total connects; `smoke` restricts it to the CI subset (SMT-sw and
/// kTLS-sw, small waves) under the same benchmark names.
pub fn churn_matrix(smoke: bool) -> Vec<ChurnRow> {
    let stacks: Vec<StackKind> = if smoke {
        vec![StackKind::SmtSw, StackKind::KtlsSw]
    } else {
        StackKind::all()
            .into_iter()
            .filter(|s| s.is_encrypted())
            .collect()
    };
    let (waves, wave_size) = if smoke { (3, 24) } else { (35, 50) };
    let mut rows = Vec::new();
    for stack in stacks {
        rows.extend(run_stack(stack, waves, wave_size));
    }
    rows
}

/// Asserts the storm-scale acceptance criterion: per stack, the derived
/// mode's median setup is at or below ticket resumption's — a cached path
/// secret never costs more than carrying a ticket.
pub fn assert_derived_at_or_below_resumed(rows: &[ChurnRow]) {
    let find = |stack: &str, mode: &str| {
        rows.iter()
            .find(|r| r.stack == stack && r.mode == mode)
            .unwrap_or_else(|| panic!("missing {mode} row for {stack}"))
    };
    let stacks: Vec<&str> = rows
        .iter()
        .filter(|r| r.mode == "all")
        .map(|r| r.stack.as_str())
        .collect();
    for stack in stacks {
        let derived = find(stack, "derived");
        let resumed = find(stack, "resumed");
        assert!(
            derived.setup_p50_ns <= resumed.setup_p50_ns,
            "{stack}: derived setup p50 ({} ns) above resumed p50 ({} ns)",
            derived.setup_p50_ns,
            resumed.setup_p50_ns,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_storm_measures_all_modes_and_derived_wins() {
        let rows = run_stack(StackKind::SmtSw, 2, 12);
        // cold / resumed / derived / all.
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.connects > 0, "{}/{}: empty cell", row.stack, row.mode);
            assert!(row.setup_p50_ns > 0);
            assert!(row.setup_p99_ns >= row.setup_p50_ns);
            assert!(row.handshakes_per_sec > 0.0);
        }
        let all = rows.iter().find(|r| r.mode == "all").unwrap();
        assert_eq!(all.connects, 24);
        assert_derived_at_or_below_resumed(&rows);
    }

    #[test]
    fn storm_is_deterministic_up_to_signature_length() {
        let a = run_stack(StackKind::SmtSw, 1, 9);
        let b = run_stack(StackKind::SmtSw, 1, 9);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.connects, y.connects);
            // DER signature lengths shift flight serialization by a few ns
            // per hop; a storm compounds that across a wave, still far
            // inside the CI gate's tolerance.
            assert!(
                x.setup_p50_ns.abs_diff(y.setup_p50_ns) <= 2048,
                "{}/{}: {} vs {}",
                x.stack,
                x.mode,
                x.setup_p50_ns,
                y.setup_p50_ns
            );
        }
    }
}
