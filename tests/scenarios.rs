//! Integration tests of the discrete-event network harness: every evaluated
//! stack survives the acceptance scenarios (incast under loss, Poisson load),
//! and the whole simulation is bit-deterministic per seed.

use proptest::prelude::*;
use smt::crypto::cert::CertificateAuthority;
use smt::crypto::handshake::SmtTicketIssuer;
use smt::sim::net::{
    incast_scenario, poisson_pair_scenario, run_scenario, FaultConfig, LinkConfig, Scenario,
    ScenarioReport, SizeMix,
};
use smt::transport::{
    handshake_scenario_endpoints, scenario_endpoints, StackKind, ZeroRttAcceptor,
};
use smt_bench::scenarios::scenario_keys;

fn run_stack(scenario: &Scenario, stack: StackKind) -> ScenarioReport {
    let keys = scenario_keys();
    let mut endpoints = scenario_endpoints(scenario, stack, &keys.0, &keys.1);
    run_scenario(scenario, &mut endpoints, |_, _, _, _| None)
}

/// The acceptance criterion: under 1% injected loss, every one of the eight
/// stacks still delivers every incast message (recovering via RESENDs,
/// sender-timeout retransmissions or go-back-N).
#[test]
fn one_percent_loss_loses_no_messages_on_any_stack() {
    let scenario = incast_scenario(
        8,
        16 * 1024,
        2,
        LinkConfig::default(),
        FaultConfig::lossy(0.01, 90125),
    );
    for stack in StackKind::all() {
        let report = run_stack(&scenario, stack);
        assert_eq!(
            report.messages_sent,
            16,
            "stack {}: send refused",
            stack.label()
        );
        assert_eq!(
            report.messages_delivered,
            16,
            "stack {} lost messages: {report:?}",
            stack.label()
        );
        assert!(!report.truncated, "stack {}", stack.label());
    }
}

/// Open-loop Poisson load delivers everything and produces sane percentiles
/// on every stack.
#[test]
fn poisson_load_point_is_sane_on_every_stack() {
    let scenario = poisson_pair_scenario(
        100_000.0,
        smt::sim::time::MILLISECOND,
        &SizeMix::rpc_small(),
        31,
        LinkConfig::default(),
        FaultConfig::none(),
    );
    for stack in StackKind::all() {
        let report = run_stack(&scenario, stack);
        assert_eq!(report.messages_sent, report.messages_delivered);
        assert!(report.latency.p50_us > 0.0, "stack {}", stack.label());
        assert!(
            report.latency.p99_us >= report.latency.p50_us,
            "stack {}",
            stack.label()
        );
        assert!(report.goodput_gbps > 0.0);
        assert_eq!(
            report.endpoints.retransmissions,
            0,
            "lossless: {}",
            stack.label()
        );
    }
}

/// The in-band handshake drops into the multi-host scenario harness: a lossy
/// incast where every flow is its own connection — cold first, then resumed
/// (0-RTT) through the same listener — and no workload message is lost even
/// though the handshake flights themselves ride the same faulty fabric.
#[test]
fn incast_with_in_band_handshakes_under_loss() {
    let ca = CertificateAuthority::new("hs-scenario-ca");
    let identity = ca.issue_identity("scenario.dc.local");
    let acceptor = ZeroRttAcceptor::new(SmtTicketIssuer::new(identity.clone(), 3600), 1 << 12);
    let scenario = incast_scenario(
        4,
        16 * 1024,
        2,
        LinkConfig::default(),
        FaultConfig::lossy(0.01, 424242),
    );
    let mut dropped_total = 0;
    for stack in [StackKind::SmtSw, StackKind::KtlsSw] {
        for ticket in [None, Some(acceptor.ticket(10))] {
            let resumed = ticket.is_some();
            let mut endpoints = handshake_scenario_endpoints(
                &scenario,
                stack,
                &ca.verifying_key(),
                "scenario.dc.local",
                &identity,
                &acceptor,
                ticket.as_ref(),
            );
            let report = run_scenario(&scenario, &mut endpoints, |_, _, _, _| None);
            assert_eq!(
                report.messages_sent,
                report.messages_delivered,
                "{} resumed={resumed}: lost messages: {report:?}",
                stack.label()
            );
            assert!(!report.truncated, "{} resumed={resumed}", stack.label());
            dropped_total += report.fabric.dropped_faults;
        }
    }
    assert!(dropped_total > 0, "the fault model did inject loss");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Determinism: the same scenario seed produces a bit-identical event
    /// trace and `ScenarioReport` across two runs, for all eight stacks.
    #[test]
    fn same_seed_same_trace_for_all_stacks(seed in any::<u64>()) {
        let scenario = incast_scenario(
            3,
            2048,
            2,
            LinkConfig::default(),
            FaultConfig {
                loss: 0.05,
                duplicate: 0.05,
                reorder: 0.2,
                seed,
                ..FaultConfig::none()
            },
        );
        for stack in StackKind::all() {
            let a = run_stack(&scenario, stack);
            let b = run_stack(&scenario, stack);
            prop_assert_eq!(
                a.trace_hash, b.trace_hash,
                "stack {} produced diverging event traces", stack.label()
            );
            prop_assert_eq!(&a, &b, "stack {} reports diverge", stack.label());
            prop_assert_eq!(a.messages_delivered, 6, "stack {}", stack.label());
        }
    }
}
