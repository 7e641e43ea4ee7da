//! Runs the chaos (hostile-network) scenario matrix — seeded adversaries
//! forging, replaying and flooding traffic against every evaluated stack —
//! and emits `BENCH_adversarial.json`.
//!
//! ```text
//! chaos [--smoke] [--json] [--out <path>]
//! ```
//!
//! * `--smoke` — the CI subset: the everything-at-once profile plus the
//!   0-RTT replay flood on SMT-sw and kTLS-sw only.
//! * `--json` — print the rows as JSON instead of a table.
//! * `--out <path>` — where to write the bench-diff-compatible report
//!   (default `BENCH_adversarial.json` in the current directory).
//!
//! Containment invariants (attack ran, nothing legitimate lost, encrypted
//! stacks deliver *exactly* the offered bytes) are asserted inside
//! `chaos_matrix` itself, so a violation aborts the run before any report is
//! written.  The JSON uses the `{"benchmarks": [...]}` shape the criterion
//! shim writes: `mean_ns` is the p50 latency under attack, so
//! `bench_diff BENCH_adversarial.json <new> --max-regress P` gates the
//! latency-under-attack trajectory in CI.  Attack traces are seeded —
//! deterministic per seed, so a delta is behavioural, not noise.

use smt_bench::chaos::{chaos_matrix, ChaosRow};
use smt_bench::output::{maybe_json, print_table};

fn bench_json(rows: &[ChaosRow]) -> String {
    let mut out = String::from("{\n  \"benchmarks\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let r = &row.report;
        out.push_str(&format!(
            concat!(
                "    {{\"name\": \"{name}/{stack}\", \"mean_ns\": {mean:.1}, ",
                "\"p99_ns\": {p99:.1}, \"messages_delivered\": {delivered}, ",
                "\"forged_injected\": {injected}, ",
                "\"malformed_rejected\": {malformed}, ",
                "\"auth_failures\": {auth}, ",
                "\"state_evictions\": {evictions}, ",
                "\"peak_tracked_bytes\": {peak}}}{comma}\n"
            ),
            name = row.case,
            stack = row.stack,
            mean = r.latency.p50_us * 1_000.0,
            p99 = r.latency.p99_us * 1_000.0,
            delivered = r.messages_delivered,
            injected = r.adversary.injected(),
            malformed = r.endpoints.malformed_rejected,
            auth = r.endpoints.auth_failures,
            evictions = r.endpoints.state_evictions,
            peak = r.endpoints.peak_tracked_bytes,
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
        .unwrap_or_else(|| "BENCH_adversarial.json".to_string());

    // Every row is verified inside the matrix: the attack ran, the scenario
    // quiesced, and no legitimate traffic was lost or forged into delivery.
    let rows = chaos_matrix(smoke);

    if !maybe_json(&rows) {
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|row| {
                let r = &row.report;
                vec![
                    row.case.clone(),
                    row.stack.clone(),
                    r.messages_delivered.to_string(),
                    r.adversary.injected().to_string(),
                    r.endpoints.malformed_rejected.to_string(),
                    r.endpoints.auth_failures.to_string(),
                    r.endpoints.state_evictions.to_string(),
                    r.endpoints.peak_tracked_bytes.to_string(),
                    format!("{:.1}", r.latency.p50_us),
                    format!("{:.1}", r.latency.p99_us),
                ]
            })
            .collect();
        print_table(
            if smoke {
                "chaos matrix (smoke subset)"
            } else {
                "chaos matrix (all stacks)"
            },
            &[
                "case",
                "stack",
                "delivered",
                "forged",
                "malformed",
                "auth-fail",
                "evicted",
                "peak-bytes",
                "p50(us)",
                "p99(us)",
            ],
            &table,
        );
    }

    std::fs::write(&out_path, bench_json(&rows)).expect("write chaos report");
    eprintln!("wrote {out_path}");
}
