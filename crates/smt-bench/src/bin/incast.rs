//! Runs the incast matrix — deep N→1 bursts, mice-vs-elephants and a loaded
//! latency point on a leaf–spine fabric, each stack under congestion
//! control — and emits `BENCH_incast.json`.
//!
//! ```text
//! incast [--smoke] [--json] [--out <path>]
//! ```
//!
//! * `--smoke` — the CI subset: SMT-sw, kTLS-sw and their plaintext
//!   counterparts at reduced fan-in, same benchmark names as the full run.
//! * `--json` — print the rows as JSON instead of a table.
//! * `--out <path>` — where to write the bench-diff-compatible report
//!   (default `BENCH_incast.json` in the current directory).
//!
//! Full mode drives a 128→1 incast (plus the mice/elephants mix and the
//! loaded point) across all eight stacks.  `mean_ns` in the JSON is the p50
//! completion, so `bench_diff BENCH_incast.json <new> --max-regress P` gates
//! loaded-tail regressions; p99, slowdown percentiles, receiver-queue peaks
//! and the encrypted-vs-plaintext p99 delta ride along uninflated.  Row names
//! keep the `/cc` suffix they had when a no-cc baseline ran beside each row.
//!
//! The binary asserts the congestion-control headline before exiting: on the
//! deep incast every stack delivers everything, within absolute bounds on
//! p99 completion and retransmissions
//! ([`smt_bench::incast::deep_incast_violation`]).

use smt_bench::incast::{assert_deep_incast_bounds, deep_incast, incast_matrix, IncastRow};
use smt_bench::output::{maybe_json, print_table};

fn bench_json(rows: &[IncastRow]) -> String {
    let mut out = String::from("{\n  \"benchmarks\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let delta = row
            .vs_plaintext_p99_pct
            .map(|d| format!("{d:.2}"))
            .unwrap_or_else(|| "null".into());
        out.push_str(&format!(
            concat!(
                "    {{\"name\": \"incast/{scenario}/{stack}/cc\", ",
                "\"mean_ns\": {p50:.0}, \"p99_ns\": {p99:.0}, ",
                "\"slowdown_p50\": {s50:.2}, \"slowdown_p99\": {s99:.2}, ",
                "\"peak_ingress_backlog_packets\": {peak}, ",
                "\"ecn_marked\": {ecn}, \"retransmissions\": {retx}, ",
                "\"vs_plaintext_p99_pct\": {delta}}}{comma}\n"
            ),
            scenario = row.scenario,
            stack = row.stack,
            p50 = row.report.latency.p50_us * 1000.0,
            p99 = row.report.latency.p99_us * 1000.0,
            s50 = row.slowdown_p50,
            s99 = row.slowdown_p99,
            peak = row.report.fabric.peak_ingress_backlog_packets,
            ecn = row.report.fabric.ecn_marked,
            retx = row.report.endpoints.retransmissions,
            delta = delta,
            comma = if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_incast.json".to_string());

    let rows = incast_matrix(smoke);

    if !maybe_json(&rows) {
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|row| {
                vec![
                    row.scenario.clone(),
                    row.stack.clone(),
                    format!("{:.1}", row.report.latency.p50_us),
                    format!("{:.1}", row.report.latency.p99_us),
                    format!("{:.1}", row.slowdown_p99),
                    row.report.fabric.peak_ingress_backlog_packets.to_string(),
                    row.report.fabric.ecn_marked.to_string(),
                    row.report.endpoints.retransmissions.to_string(),
                    row.vs_plaintext_p99_pct
                        .map(|d| format!("{d:+.1}%"))
                        .unwrap_or_else(|| "-".into()),
                ]
            })
            .collect();
        print_table(
            if smoke {
                "incast matrix (smoke subset, leaf-spine fabric)"
            } else {
                "incast matrix (8 stacks, leaf-spine fabric)"
            },
            &[
                "scenario",
                "stack",
                "p50(us)",
                "p99(us)",
                "slow p99",
                "peak rx q",
                "ecn marks",
                "retx",
                "vs plain p99",
            ],
            &table,
        );
    }

    std::fs::write(&out_path, bench_json(&rows)).expect("write incast report");
    eprintln!("wrote {out_path}");

    // The congestion-control headline, asserted on every run.
    assert_deep_incast_bounds(&deep_incast(smoke), &rows);
}
