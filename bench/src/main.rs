//! `smt-perfbench` — the repository's benchmark: eight workloads through the
//! public APIs only, host-time end-to-end metrics from an untraced window and
//! a per-layer ledger timed from outside.  See `bench/README.md`.
//!
//! ```text
//! smt-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! smt-perfbench all    [--seed <n>] [--seconds <s>]
//! smt-perfbench repeat [--seed <n>] [--seconds <s>]
//! smt-perfbench manifest
//! ```
//!
//! The first form is one run of one workload and prints one JSON object as
//! its last line (`BENCHMARK.json`'s command).  Run from the repository root.

mod alloc;
mod layers;
mod report;
mod run;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: smt-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
       smt-perfbench all|repeat [--seed <n>] [--seconds <s>]
       smt-perfbench manifest";

/// The value after `flag`, parsed; `None` when the flag is absent.
fn flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    args.get(i + 1)
        .and_then(|v| v.parse().ok())
        .map(Some)
        .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
}

fn one_run(args: &[String]) -> Result<bool, String> {
    let name: String = flag(args, "--workload")?.ok_or(USAGE)?;
    let workload = workloads::find(&name).ok_or_else(|| {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of: {}", names.join(", "))
    })?;
    let seed: u64 = flag(args, "--seed")?.unwrap_or(1);
    let seconds: f64 = flag(args, "--seconds")?.unwrap_or(suite::TIMED_SECONDS as f64);
    let traced = match flag::<u8>(args, "--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other}: 0 or 1")),
    };
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds}: more than 0, at most 60"));
    }
    println!(
        "{name} (seed {seed}): {}-run, in-process over smt_sim::net::Fabric, no real link",
        if traced { "traced" } else { "timed" }
    );
    let result = if traced {
        run::run_traced(workload, seed, seconds)?
    } else {
        run::run_timed(workload, seed, seconds)?
    };
    result.print_table();
    println!("{}", result.json_line());
    // A run that printed its result did its job; whether the outputs were
    // correct is in the result.
    Ok(true)
}

fn main() -> ExitCode {
    alloc::pin_malloc_thresholds();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = || flag::<u64>(&args, "--seed").map(|s| s.unwrap_or(1));
    let seconds = || flag::<u64>(&args, "--seconds").map(|s| s.unwrap_or(suite::TIMED_SECONDS));
    let outcome = match args.first().map(String::as_str) {
        Some("all") => seed().and_then(|seed| suite::all(seed, seconds()?)),
        Some("repeat") => seed().and_then(|seed| suite::repeat(seed, seconds()?)),
        Some("manifest") => {
            print!("{}", suite::manifest());
            Ok(true)
        }
        Some(_) => one_run(&args),
        None => Err(USAGE.into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("smt-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
