//! Hosts the unified [`Endpoint`] on the discrete-event network harness.
//!
//! `smt_sim::net` defines the [`SimEndpoint`] contract its scenario runner
//! drives; this module implements it for [`Endpoint`], so any of the eight
//! evaluated [`StackKind`]s drops into a multi-host scenario (incast,
//! all-to-all mesh, Poisson load) unchanged.  [`scenario_endpoints`] builds
//! the two-per-flow endpoint set `run_scenario` expects from one handshake's
//! keys.

use super::{
    take_delivered, AcceptConfig, ConnectConfig, Endpoint, SecureEndpoint, ZeroRttAcceptor,
};
use crate::stack::StackKind;
use smt_core::segment::PathInfo;
use smt_crypto::cert::{Identity, VerifyingKey};
use smt_crypto::handshake::{SessionKeys, SmtTicket};
use smt_sim::net::{Scenario, SimEndpoint, SimEndpointStats};
use smt_sim::Nanos;
use smt_wire::Packet;

impl SimEndpoint for Endpoint {
    fn send(&mut self, data: &[u8], now: Nanos) -> Option<u64> {
        SecureEndpoint::send(self, data, now).ok().map(|id| id.0)
    }

    fn handle_datagram(&mut self, packet: &Packet, now: Nanos) {
        // Fatal errors surface via Event::Error and the stats; the harness
        // keeps the scenario moving.
        let _ = SecureEndpoint::handle_datagram(self, packet, now);
    }

    fn poll_transmit(&mut self, now: Nanos, out: &mut Vec<Packet>) -> usize {
        SecureEndpoint::poll_transmit(self, now, out)
    }

    fn next_timeout(&self) -> Option<Nanos> {
        SecureEndpoint::next_timeout(self)
    }

    fn on_timeout(&mut self, now: Nanos) {
        SecureEndpoint::on_timeout(self, now)
    }

    fn take_delivered(&mut self) -> Vec<(u64, Vec<u8>)> {
        take_delivered(self)
            .into_iter()
            .map(|(id, data)| (id.0, data))
            .collect()
    }

    fn sim_stats(&self) -> SimEndpointStats {
        let s = self.stats();
        SimEndpointStats {
            retransmissions: s.retransmissions,
            timeouts_fired: s.timeouts_fired,
            datagrams_dropped: s.datagrams_dropped,
            messages_delivered: s.messages_delivered,
            wire_bytes_sent: s.wire_bytes_sent,
            records_sealed: s.records_sealed,
            malformed_rejected: s.malformed_rejected,
            auth_failures: s.auth_failures,
            state_evictions: s.state_evictions,
            peak_tracked_bytes: s.peak_tracked_bytes,
            op_latency_p50_ns: s.op_latency_p50_ns,
            op_latency_p99_ns: s.op_latency_p99_ns,
        }
    }

    fn records_sealed(&self) -> u64 {
        Endpoint::records_sealed(self)
    }
}

/// Builds the endpoint set for `scenario` on `stack`: one client/server pair
/// per flow (endpoint `2*f` is flow `f`'s client end, `2*f + 1` its server
/// end), each flow on its own port pair so concurrent flows never collide.
///
/// The same handshake keys drive every flow — each pair is an independent
/// session with its own counters, so sharing key material across flows is
/// sound and keeps scenario setup off the hot path.  For the unencrypted
/// stacks (TCP, Homa) the keys are ignored.
pub fn scenario_endpoints(
    scenario: &Scenario,
    stack: StackKind,
    client_keys: &SessionKeys,
    server_keys: &SessionKeys,
) -> Vec<Box<dyn SimEndpoint>> {
    let mut endpoints: Vec<Box<dyn SimEndpoint>> = Vec::with_capacity(scenario.flows.len() * 2);
    for (flow, _) in scenario.flows.iter().enumerate() {
        let base = 10_000u16.wrapping_add((flow as u16) * 2);
        let (client, server) = Endpoint::builder()
            .stack(stack)
            .pair(client_keys, server_keys, base, base + 1)
            .expect("valid scenario endpoint configuration");
        endpoints.push(Box::new(client));
        endpoints.push(Box::new(server));
    }
    endpoints
}

/// Builds the endpoint set for `scenario` on `stack` with **in-band**
/// connection setup: every flow is its own connection — the client end
/// [`ConnectConfig`]s (resuming with `resume_ticket` for 0-RTT when given),
/// the server end [`AcceptConfig`]s through the shared `acceptor`, and the
/// handshake flights run through the same fabric, faults and timers as the
/// workload itself.  The setup-latency scenario family and the handshake
/// conformance tests drive this; key-injected scenarios use
/// [`scenario_endpoints`].
pub fn handshake_scenario_endpoints(
    scenario: &Scenario,
    stack: StackKind,
    ca_key: &VerifyingKey,
    server_name: &str,
    identity: &Identity,
    acceptor: &ZeroRttAcceptor,
    resume_ticket: Option<&SmtTicket>,
) -> Vec<Box<dyn SimEndpoint>> {
    let mut endpoints: Vec<Box<dyn SimEndpoint>> = Vec::with_capacity(scenario.flows.len() * 2);
    for (flow, _) in scenario.flows.iter().enumerate() {
        let base = 10_000u16.wrapping_add((flow as u16) * 2);
        let (client_path, server_path) = PathInfo::pair(base, base + 1);
        let mut connect = ConnectConfig::new(ca_key.clone(), server_name);
        if let Some(ticket) = resume_ticket {
            connect = connect.resume(ticket.clone(), ticket.issued_at);
        }
        let accept = AcceptConfig::new(identity.clone(), ca_key.clone())
            .zero_rtt(acceptor.clone())
            .ticket_time(resume_ticket.map_or(0, |t| t.issued_at));
        let client = Endpoint::builder()
            .stack(stack)
            .path(client_path)
            .connect(connect)
            .expect("valid scenario connect configuration");
        let server = Endpoint::builder()
            .stack(stack)
            .path(server_path)
            .accept(accept)
            .expect("valid scenario accept configuration");
        endpoints.push(Box::new(client));
        endpoints.push(Box::new(server));
    }
    endpoints
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_crypto::cert::CertificateAuthority;
    use smt_crypto::handshake::{establish, ClientConfig, ServerConfig};
    use smt_sim::net::{incast_scenario, run_scenario, FaultConfig, LinkConfig};

    fn keys() -> (SessionKeys, SessionKeys) {
        let ca = CertificateAuthority::new("sim-ca");
        let id = ca.issue_identity("server");
        establish(
            ClientConfig::new(ca.verifying_key(), "server"),
            ServerConfig::new(id, ca.verifying_key()),
        )
        .unwrap()
    }

    #[test]
    fn incast_delivers_on_a_real_stack() {
        let (ck, sk) = keys();
        let scenario = incast_scenario(4, 4096, 3, LinkConfig::default(), FaultConfig::none());
        let mut eps = scenario_endpoints(&scenario, StackKind::SmtSw, &ck, &sk);
        let report = run_scenario(&scenario, &mut eps, |_, _, _, _| None);
        assert_eq!(report.messages_sent, 12);
        assert_eq!(report.messages_delivered, 12);
        assert!(!report.truncated);
        assert!(report.latency.p99_us >= report.latency.p50_us);
        assert!(report.goodput_gbps > 0.0);
    }

    #[test]
    fn adversarial_chaos_delivers_legit_traffic_on_encrypted_stacks() {
        use smt_sim::net::AdversaryConfig;
        let (ck, sk) = keys();
        for stack in [StackKind::SmtSw, StackKind::KtlsSw] {
            let mut scenario =
                incast_scenario(4, 8192, 3, LinkConfig::default(), FaultConfig::none());
            scenario.adversary = Some(AdversaryConfig::chaos(23));
            let mut eps = scenario_endpoints(&scenario, stack, &ck, &sk);
            let report = run_scenario(&scenario, &mut eps, |_, _, _, _| None);
            assert!(report.adversary.injected() > 0, "{stack:?}: attack ran");
            assert_eq!(
                report.messages_delivered, 12,
                "{stack:?}: all legitimate traffic delivered: {report:?}"
            );
            assert!(!report.truncated, "{stack:?}: scenario quiesced");
            // Exact byte accounting: a forged delivery (replayed, spliced or
            // garbage message reaching the application) would inflate this.
            assert_eq!(
                report.bytes_delivered,
                12 * 8192,
                "{stack:?}: only legitimate bytes delivered"
            );
        }
    }

    #[test]
    fn adversarial_runs_are_deterministic() {
        use smt_sim::net::AdversaryConfig;
        let (ck, sk) = keys();
        let run = |seed| {
            let mut scenario =
                incast_scenario(2, 4096, 2, LinkConfig::default(), FaultConfig::none());
            scenario.adversary = Some(AdversaryConfig::chaos(seed));
            let mut eps = scenario_endpoints(&scenario, StackKind::SmtSw, &ck, &sk);
            run_scenario(&scenario, &mut eps, |_, _, _, _| None)
        };
        let (a, b) = (run(5), run(5));
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a, b);
        assert_ne!(run(5).trace_hash, run(6).trace_hash);
    }

    #[test]
    fn records_sealed_reads_the_counter_the_full_snapshot_carries() {
        let (ck, sk) = keys();
        let scenario = incast_scenario(2, 20_000, 2, LinkConfig::default(), FaultConfig::none());
        for stack in StackKind::all() {
            let mut eps = scenario_endpoints(&scenario, stack, &ck, &sk);
            let report = run_scenario(&scenario, &mut eps, |_, _, data, _| Some(data.to_vec()));
            assert_eq!(report.messages_delivered, 4, "{stack:?}");
            for ep in &eps {
                assert_eq!(
                    ep.records_sealed(),
                    ep.sim_stats().records_sealed,
                    "{stack:?}"
                );
            }
            // A software record layer seals at least one record per message,
            // 4 requests and 4 echoes; offload and plaintext seal none.
            let sealed: u64 = eps.iter().map(|ep| ep.records_sealed()).sum();
            let software = matches!(
                stack,
                StackKind::UserTls | StackKind::KtlsSw | StackKind::Tcpls | StackKind::SmtSw
            );
            assert_eq!(sealed >= 8, software, "{stack:?} sealed {sealed}");
            assert!(software || sealed == 0, "{stack:?} sealed {sealed}");
        }
    }

    #[test]
    fn incast_under_loss_recovers_on_a_stream_stack() {
        let (ck, sk) = keys();
        let scenario = incast_scenario(
            4,
            4096,
            3,
            LinkConfig::default(),
            FaultConfig::lossy(0.05, 17),
        );
        let mut eps = scenario_endpoints(&scenario, StackKind::KtlsSw, &ck, &sk);
        let report = run_scenario(&scenario, &mut eps, |_, _, _, _| None);
        assert_eq!(report.messages_delivered, 12, "loss recovered: {report:?}");
        assert!(report.fabric.dropped_faults > 0);
        assert!(report.retransmissions > 0);
        assert!(report.timeouts_fired > 0);
    }
}
