//! The suite commands: `all` runs every workload, each run in its own child
//! process (so `peak_rss_mb` is per workload), one after another, never two at
//! once; `repeat` runs the suite twice on the same code and holds the two
//! sets of numbers against the benchmark's own bounds.

use crate::report::{clock, Metric, END_TO_END, PER_LAYER};
use crate::run::OUT_DIR;
use crate::workloads::{Workload, WORKLOADS};
use serde_json::Value;
use std::process::{Command, Stdio};

/// Host seconds of the timed window in `all` and `repeat`.
pub const TIMED_SECONDS: u64 = 8;
/// Host seconds per run in `BENCHMARK.json`: longer than the suite's own
/// window, because the driver judges single runs, and more slices make it
/// likelier that some of them ran undisturbed.
const MANIFEST_SECONDS: u64 = 12;
/// Host seconds of a traced run: half reference window, half traced window.
const TRACED_SECONDS: u64 = 6;
/// Simulated-time metrics: deterministic per seed, so two runs of the same
/// code must agree exactly.
const EXACT: [&str; 5] = [
    "sim_rpc_p50_ns",
    "sim_rpc_p99_ns",
    "sim_goodput_gbps",
    "wire_amp",
    "failed_ratio",
];
/// ...except where ECDSA signature lengths (fresh random keys per process)
/// shift flight serialization by a few nanoseconds.
const CHURN_SIM_TOLERANCE: f64 = 0.01;

/// The vendored `serde_json` renders anything `Serialize`, but its `Value`
/// tree is not itself `Serialize`; this hands a tree over as it is.
struct Tree<'a>(&'a Value);

impl serde::Serialize for Tree<'_> {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

fn render(v: &Value, pretty: bool) -> String {
    let rendered = if pretty {
        serde_json::to_string_pretty(&Tree(v))
    } else {
        serde_json::to_string(&Tree(v))
    };
    rendered.expect("the vendored renderer cannot fail")
}

/// One child run's parsed result line.
struct Parsed {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

impl Parsed {
    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::Number(n) => n.parse().ok(),
        _ => None,
    }
}

fn parse_result_line(line: &str) -> Option<Parsed> {
    let v = serde_json::from_str(line).ok()?;
    let Value::Object(metrics) = v.get("metrics")? else {
        return None;
    };
    Some(Parsed {
        correct: matches!(v.get("correct")?, Value::Bool(true)),
        attempted: number(v.get("attempted"))? as u64,
        failed: number(v.get("failed"))? as u64,
        metrics: metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), number(m.get("value"))?)))
            .collect(),
    })
}

/// Runs one workload in one mode in a child process of this same binary and
/// parses the result line; the child's own report is echoed when `echo`.
fn child(
    workload: &Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    echo: bool,
) -> Result<Parsed, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", workload.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    if echo {
        println!("{report}");
    }
    if !output.status.success() {
        return Err(format!("{} exited with {}", workload.name, output.status));
    }
    parse_result_line(line).ok_or_else(|| format!("{}: no result line", workload.name))
}

/// Both runs of one workload.
struct Suite {
    timed: Vec<Parsed>,
    traced: Vec<Parsed>,
}

fn run_suite(seed: u64, seconds: u64, echo: bool) -> Result<Suite, String> {
    let traced_seconds = TRACED_SECONDS.min(seconds);
    let mut suite = Suite {
        timed: Vec::new(),
        traced: Vec::new(),
    };
    for w in &WORKLOADS {
        if echo {
            println!("\n== {} ==\n   {}", w.name, w.why);
        } else {
            eprintln!("   running {} ...", w.name);
        }
        suite.timed.push(child(w, seed, seconds, false, echo)?);
        suite
            .traced
            .push(child(w, seed, traced_seconds, true, echo)?);
    }
    Ok(suite)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn environment(seed: u64, seconds: u64) -> Vec<(String, Value)> {
    let text = |s: String| Value::String(s);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc".into(), Value::Number(nproc.to_string())),
        ("threads".into(), Value::Number("1".into())),
        ("rustc".into(), text(command_line("rustc", &["-V"]))),
        ("crypto_tier".into(), text(crate::layers::crypto_tier())),
        (
            "smt_crypto_tier_env_set".into(),
            Value::Bool(std::env::var_os("SMT_CRYPTO_TIER").is_some()),
        ),
        ("seed".into(), Value::Number(seed.to_string())),
        ("timed_window_s".into(), Value::Number(seconds.to_string())),
        (
            "traced_run_s".into(),
            Value::Number(TRACED_SECONDS.min(seconds).to_string()),
        ),
        (
            "git_commit".into(),
            text(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "link".into(),
            text("none: all traffic is in-process over smt_sim::net::Fabric".into()),
        ),
    ]
}

fn metrics_object(registry: &[Metric], parsed: &Parsed) -> Value {
    Value::Object(
        registry
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::Object(vec![
                        (
                            "value".into(),
                            Value::Number(parsed.value(m.name).to_string()),
                        ),
                        ("unit".into(), Value::String(m.unit.into())),
                        ("clock".into(), Value::String(clock(m.unit).into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// `all`: every workload, every metric by name with its unit, plus
/// `bench/out/results.json` and one trace file per workload.  Returns whether
/// every output was correct.
pub fn all(seed: u64, seconds: u64) -> Result<bool, String> {
    let env = environment(seed, seconds);
    println!("smt-perfbench: eight workloads, one thread, one at a time.");
    println!("No real link is crossed: all traffic is in-process over smt_sim::net::Fabric.");
    println!("host = wall-clock on this machine; simulated = the fabric's virtual clock.");
    for (k, v) in &env {
        println!("  {k}: {}", render(v, false));
    }
    let suite = run_suite(seed, seconds, true)?;
    let mut correct = true;
    let mut workloads = Vec::new();
    println!("\n== summary ==");
    for ((w, timed), traced) in WORKLOADS.iter().zip(&suite.timed).zip(&suite.traced) {
        let ok = timed.correct && traced.correct;
        correct &= ok;
        println!(
            "  {:<16} {:>12.1} op/s  {:>12.0} ns/op (p50)  failed {}/{}  {}",
            w.name,
            timed.value("ops_per_s"),
            timed.value("host_p50_ns"),
            timed.failed + traced.failed,
            timed.attempted + traced.attempted,
            if ok { "correct" } else { "INCORRECT" }
        );
        workloads.push(Value::Object(vec![
            ("name".into(), Value::String(w.name.into())),
            ("why".into(), Value::String(w.why.into())),
            ("correct".into(), Value::Bool(ok)),
            (
                "attempted".into(),
                Value::Number(timed.attempted.to_string()),
            ),
            ("failed".into(), Value::Number(timed.failed.to_string())),
            ("end_to_end".into(), metrics_object(&END_TO_END, timed)),
            ("per_layer".into(), metrics_object(&PER_LAYER, traced)),
        ]));
    }
    let results = Value::Object(vec![
        ("environment".into(), Value::Object(env)),
        ("workloads".into(), Value::Array(workloads)),
    ]);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/results.json");
    std::fs::write(&path, render(&results, true) + "\n")
        .map_err(|e| format!("write {path}: {e}"))?;
    println!("results written to {path}");
    Ok(correct)
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's own
/// direction (negative when `b` is better).
fn worsening(metric: &Metric, a: f64, b: f64) -> f64 {
    let change = crate::stats::per(b - a, a);
    if metric.better == "higher" {
        -change
    } else {
        change
    }
}

/// `repeat`: the suite twice on the same code.  Prints, per workload and
/// end-to-end metric, both values, their relative difference and the bound;
/// the simulated-time metrics must agree exactly.  Returns whether every
/// pair agreed (and every output was correct).
pub fn repeat(seed: u64, seconds: u64) -> Result<bool, String> {
    eprintln!("repeat: first set");
    let first = run_suite(seed, seconds, false)?;
    eprintln!("repeat: second set");
    let second = run_suite(seed, seconds, false)?;
    let mut agree = true;
    println!(
        "{:<16} {:<18} {:>16} {:>16} {:>9} {:>9}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (i, w) in WORKLOADS.iter().enumerate() {
        agree &= first.timed[i].correct && first.traced[i].correct;
        agree &= second.timed[i].correct && second.traced[i].correct;
        for m in &END_TO_END {
            let (a, b) = (first.timed[i].value(m.name), second.timed[i].value(m.name));
            // Two sets of the same code: neither side is "the change", so
            // the difference counts in both directions.
            let diff = worsening(m, a, b).abs();
            let ok = diff <= m.bound;
            agree &= ok;
            println!(
                "{:<16} {:<18} {:>16.4} {:>16.4} {:>8.2}% {:>8.0}% {}",
                w.name,
                m.name,
                a,
                b,
                diff * 100.0,
                m.bound * 100.0,
                if ok { "" } else { "OUTSIDE" }
            );
        }
        for name in EXACT {
            let (a, b) = (first.traced[i].value(name), second.traced[i].value(name));
            let tolerance = if w.name == "connect_churn" {
                CHURN_SIM_TOLERANCE
            } else {
                0.0
            };
            let diff = if a == b {
                0.0
            } else {
                crate::stats::per((b - a).abs(), a.abs())
            };
            let ok = diff <= tolerance && (a == b || a != 0.0);
            agree &= ok;
            println!(
                "{:<16} {:<18} {:>16.4} {:>16.4} {:>8.2}% {:>8.0}% {}",
                w.name,
                name,
                a,
                b,
                diff * 100.0,
                tolerance * 100.0,
                if ok { "" } else { "DIFFERS" }
            );
        }
    }
    Ok(agree)
}

/// `manifest`: the `BENCHMARK.json` that matches this binary's registry.
pub fn manifest() -> String {
    let text = |s: &str| Value::String(s.into());
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            Value::Object(vec![
                ("name".into(), text(w.name)),
                ("why".into(), text(w.why)),
            ])
        })
        .collect();
    let metric = |m: &Metric, bounded: bool| {
        let mut fields = vec![
            ("name".to_string(), text(m.name)),
            ("unit".to_string(), text(m.unit)),
            ("better".to_string(), text(m.better)),
        ];
        if bounded {
            fields.push(("bound".into(), Value::Number(m.bound.to_string())));
        }
        Value::Object(fields)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "bench/Cargo.toml",
        "--",
    ];
    let manifest = Value::Object(vec![
        (
            "command".into(),
            Value::Array(command.iter().map(|s| text(s)).collect()),
        ),
        ("paths".into(), Value::Array(vec![text("bench")])),
        (
            "run_seconds".into(),
            Value::Number(MANIFEST_SECONDS.to_string()),
        ),
        ("workloads".into(), Value::Array(workloads)),
        (
            "end_to_end".into(),
            Value::Array(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer".into(),
            Value::Array(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ]);
    render(&manifest, true) + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with: cargo run --release --offline --manifest-path bench/Cargo.toml -- manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn manifest_is_within_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(manifest().len() <= 64 * 1024);
        // 4 + 22 runs per workload and two builds within 3420 s: a run takes
        // its window plus about 1.5 s of set-up, overshoot and replays.
        assert!((1..=60).contains(&MANIFEST_SECONDS));
        let runs = 4 + 22 * WORKLOADS.len() as u64;
        assert!(runs * (2 * MANIFEST_SECONDS + 3) / 2 + 120 <= 3420);
    }

    #[test]
    fn result_line_round_trips() {
        let p = parse_result_line(
            "{\"correct\": true, \"attempted\": 12, \"failed\": 1, \"metrics\": {\"ops_per_s\": {\"value\": 2.5, \"unit\": \"op/s\"}}}",
        )
        .expect("parses");
        assert!(p.correct);
        assert_eq!((p.attempted, p.failed), (12, 1));
        assert_eq!(p.value("ops_per_s"), 2.5);
        assert_eq!(p.value("absent"), 0.0);
    }

    #[test]
    fn worsening_follows_the_direction() {
        let lower = &END_TO_END[0];
        let higher = &END_TO_END[1];
        assert!((worsening(lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worsening(higher, 100.0, 110.0) < 0.0);
    }
}
