//! The chaos (hostile-network) scenario suite: every evaluated stack driven
//! through the discrete-event harness while a seeded [`AdversaryConfig`]
//! forges traffic on the fabric — replay floods, bit-corrupted and truncated
//! copies, spliced (coalesced) payloads and synthesized garbage bursts.
//!
//! Unlike the performance matrix in [`crate::scenarios`], correctness is the
//! headline here: [`verify_row`] asserts in-process that the attack actually
//! ran (`adversary.injected() > 0`), that the scenario quiesced, and that the
//! stacks delivered every legitimate byte.  Encrypted stacks must deliver
//! *exactly* the offered bytes — a forged record reaching the application
//! would inflate the count; the plaintext baselines (TCP, Homa) have no
//! authentication, so replayed datagrams may legitimately re-deliver and only
//! the lower bound holds.  That asymmetry **is** the paper's security
//! argument, stated as an executable invariant.
//!
//! A dedicated replay-flood case runs the **in-band 0-RTT handshake** through
//! the adversary: every flow resumes with an SMT ticket while its ClientHello
//! (early data included) is replayed several copies deep at the listener.  The
//! shared anti-replay cache must reject the copies, so delivery stays exact.
//!
//! The `chaos` binary prints the matrix and emits `BENCH_adversarial.json` in
//! the bench-diff-compatible `{"benchmarks": [...]}` shape, so CI gates the
//! latency-under-attack trajectory exactly like the benign scenario matrix.
//! Attack traces are seeded and deterministic — a gate delta is a behavioural
//! change, not noise.

use smt_crypto::cert::CertificateAuthority;
use smt_crypto::handshake::{SessionKeys, SmtTicketIssuer};
use smt_sim::net::{
    incast_scenario, run_scenario, AdversaryConfig, FaultConfig, LinkConfig, Scenario,
    ScenarioReport,
};
use smt_sim::CostModel;
use smt_transport::{handshake_scenario_endpoints, scenario_endpoints, StackKind, ZeroRttAcceptor};

use crate::scenarios::scenario_keys;

/// One chaos scenario: the adversarial workload plus how endpoints are built.
#[derive(Debug, Clone)]
pub struct ChaosCase {
    /// The scenario description (topology, workload, adversary profile).
    pub scenario: Scenario,
    /// When true the case runs through [`handshake_scenario_endpoints`]:
    /// every flow is its own connection resuming with a 0-RTT SMT ticket,
    /// and the adversary's replays include the ClientHello flights
    /// (encrypted stacks only — the plaintext baselines have no handshake).
    pub zero_rtt: bool,
}

/// One row of the chaos matrix: a case run on one stack.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ChaosRow {
    /// Case name.
    pub case: String,
    /// Stack label (paper legend).
    pub stack: String,
    /// Everything measured, defensive counters included.
    pub report: ScenarioReport,
}

/// The incast workload every profile attacks: 4 senders × 3 messages of 8 KiB.
fn attacked_incast(name: &str, adversary: AdversaryConfig) -> Scenario {
    let mut s = incast_scenario(4, 8192, 3, LinkConfig::default(), FaultConfig::none());
    s.name = name.into();
    s.adversary = Some(adversary);
    s
}

/// The chaos suite.  `smoke` restricts it to the CI subset: the everything-
/// at-once profile plus the 0-RTT replay flood (run on SMT-sw and kTLS-sw by
/// [`chaos_matrix`]).  The full suite isolates each capability so a
/// regression names the attack that broke containment.
pub fn suite(smoke: bool) -> Vec<ChaosCase> {
    let mut cases = Vec::new();
    if !smoke {
        // Each capability in isolation.
        cases.push(ChaosCase {
            scenario: attacked_incast("garbage-storm", AdversaryConfig::garbage_storm(101)),
            zero_rtt: false,
        });
        cases.push(ChaosCase {
            scenario: attacked_incast("replay-flood", AdversaryConfig::replay_flood(102)),
            zero_rtt: false,
        });
        cases.push(ChaosCase {
            scenario: attacked_incast("truncation", AdversaryConfig::corruptor(103)),
            zero_rtt: false,
        });
    }
    // Everything at once: forgery, replay and garbage against live transfers.
    cases.push(ChaosCase {
        scenario: attacked_incast("corrupted-flight", AdversaryConfig::chaos(104)),
        zero_rtt: false,
    });
    // Replay flood against in-band 0-RTT resumption: the ClientHello (early
    // data included) is itself replayed at the shared listener.
    cases.push(ChaosCase {
        scenario: {
            let mut s = incast_scenario(2, 8192, 2, LinkConfig::default(), FaultConfig::none());
            s.name = "replay-0rtt".into();
            s.adversary = Some(AdversaryConfig::replay_flood(105));
            s
        },
        zero_rtt: true,
    });
    // Same calibrated CPU charge as the benign matrix, so latency-under-attack
    // rows are comparable with their benign counterparts.
    let cpu = CostModel::calibrated().cpu_charge();
    for case in &mut cases {
        case.scenario.cpu = Some(cpu);
    }
    cases
}

/// Runs one chaos case on one stack (key-injected sessions).
pub fn run_case(
    case: &ChaosCase,
    stack: StackKind,
    keys: &(SessionKeys, SessionKeys),
) -> ScenarioReport {
    let mut endpoints = if case.zero_rtt {
        let ca = CertificateAuthority::new("chaos-ca");
        let identity = ca.issue_identity("chaos.dc.local");
        let acceptor = ZeroRttAcceptor::new(SmtTicketIssuer::new(identity.clone(), 3600), 1 << 12);
        let ticket = acceptor.ticket(10);
        handshake_scenario_endpoints(
            &case.scenario,
            stack,
            &ca.verifying_key(),
            "chaos.dc.local",
            &identity,
            &acceptor,
            Some(&ticket),
        )
    } else {
        scenario_endpoints(&case.scenario, stack, &keys.0, &keys.1)
    };
    run_scenario(&case.scenario, &mut endpoints, |_, _, _, _| None)
}

/// Asserts the chaos containment invariants for one row; panics with the
/// case/stack context on violation.  Called by the matrix itself so both the
/// `chaos` binary and the tests fail loudly, not just the CI latency gate.
pub fn verify_row(row: &ChaosRow, scenario: &Scenario, stack: StackKind) {
    let r = &row.report;
    let ctx = format!("{}/{}", row.case, row.stack);
    assert!(r.adversary.injected() > 0, "{ctx}: the attack never ran");
    assert!(!r.truncated, "{ctx}: scenario did not quiesce: {r:?}");
    let offered = scenario.offered_bytes();
    let expected = scenario.sends.len() as u64;
    assert_eq!(r.messages_sent, expected, "{ctx}: send refused");
    if stack.is_encrypted() {
        // Authenticated stacks deliver exactly the legitimate traffic: a
        // forged record reaching the application would inflate these.
        assert_eq!(
            r.messages_delivered, expected,
            "{ctx}: lost or forged messages: {r:?}"
        );
        assert_eq!(
            r.bytes_delivered, offered,
            "{ctx}: only legitimate bytes delivered"
        );
    } else {
        // The plaintext baselines cannot reject replays; re-delivery is the
        // expected (and the paper's motivating) failure mode — but nothing
        // legitimate may be lost and nothing may crash.
        assert!(
            r.messages_delivered >= expected,
            "{ctx}: lost legitimate messages: {r:?}"
        );
        assert!(
            r.bytes_delivered >= offered,
            "{ctx}: lost legitimate bytes: {r:?}"
        );
    }
}

/// Runs the chaos matrix: every suite case on every stack (`smoke`: the
/// reduced suite on SMT-sw and kTLS-sw only).  0-RTT cases run on encrypted
/// stacks only.  Every row is verified before it is returned.
pub fn chaos_matrix(smoke: bool) -> Vec<ChaosRow> {
    let stacks: Vec<StackKind> = if smoke {
        vec![StackKind::SmtSw, StackKind::KtlsSw]
    } else {
        StackKind::all().to_vec()
    };
    let keys = scenario_keys();
    let mut rows = Vec::new();
    for case in suite(smoke) {
        for &stack in &stacks {
            if case.zero_rtt && !stack.is_encrypted() {
                continue;
            }
            let report = run_case(&case, stack, &keys);
            let row = ChaosRow {
                case: case.scenario.name.clone(),
                stack: stack.label().to_string(),
                report,
            };
            verify_row(&row, &case.scenario, stack);
            rows.push(row);
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_matrix_contains_every_attack() {
        let rows = chaos_matrix(true);
        // corrupted-flight on both smoke stacks + replay-0rtt on both.
        assert_eq!(rows.len(), 4);
        // Rows are verified inside chaos_matrix; on top of that, the bounded-
        // state defenses must actually engage.  They are layered: forged
        // packets with impossible geometry are rejected before any receive
        // state is allocated (and show up as malformed rejections or dropped
        // datagrams), and only forgeries that pass the shape checks occupy
        // tracking state until the eviction cap fires.  The smoke bursts are
        // small enough that rejection alone can keep the tables under the
        // cap, so what must hold is that at least one layer repelled
        // something — a run where no defense engaged means the adversary's
        // traffic was silently absorbed.
        let repelled: u64 = rows
            .iter()
            .map(|r| {
                r.report.endpoints.state_evictions
                    + r.report.endpoints.malformed_rejected
                    + r.report.endpoints.auth_failures
                    + r.report.endpoints.datagrams_dropped
            })
            .sum();
        assert!(repelled > 0, "no bounded-state defense engaged: {rows:?}");
        // And the tracked state stayed bounded despite hundreds of injected
        // garbage datagrams aimed at fresh bogus message IDs.
        for row in &rows {
            assert!(
                row.report.endpoints.peak_tracked_bytes < 1 << 20,
                "{}/{}: tracking state grew unbounded: {}",
                row.case,
                row.stack,
                row.report.endpoints.peak_tracked_bytes
            );
        }
    }

    #[test]
    fn chaos_rows_are_deterministic() {
        let keys = scenario_keys();
        let case = &suite(true)[0];
        let a = run_case(case, StackKind::SmtSw, &keys);
        let b = run_case(case, StackKind::SmtSw, &keys);
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_rtt_replays_are_rejected_not_redelivered() {
        let keys = scenario_keys();
        let case = suite(true)
            .into_iter()
            .find(|c| c.zero_rtt)
            .expect("the 0-RTT replay case is part of the smoke suite");
        let report = run_case(&case, StackKind::SmtSw, &keys);
        assert!(report.adversary.replayed > 0, "flights were replayed");
        assert_eq!(
            report.messages_delivered,
            case.scenario.sends.len() as u64,
            "replayed 0-RTT flights must not re-deliver early data: {report:?}"
        );
    }
}
