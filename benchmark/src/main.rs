//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! farm-benchmark run [--workload NAME] [--seed N] [--seconds S]
//!                    [--trace [0|1]] [--quick] [--out FILE]
//! farm-benchmark compare PARENT.jsonl CHANGE.jsonl
//! farm-benchmark ledger [--contract]
//! ```
//!
//! `run` without `--workload` runs all six and prints every metric by name
//! with its unit. With `--workload` it runs that one and ends its standard
//! output with the one-line JSON object of the benchmark contract
//! (`/BENCHMARK.json`). The exit code is non-zero if a correctness check
//! found a violation.

mod compare;
mod driver;
mod json;
mod metrics;
mod ops;
mod probes;
mod rng;
mod run;
mod stats;
mod system;
mod trace;
mod workloads;

use std::io::Write;
use std::process::ExitCode;

use ops::{Workload, WORKLOADS};
use run::RunArgs;

const DEFAULT_SECONDS: f64 = metrics::RUN_SECONDS as f64;
const QUICK_SECONDS: f64 = 1.0;

#[derive(Debug, PartialEq)]
enum TraceMode {
    Untraced,
    Traced,
    /// Bare `--trace`: every workload untraced, then traced.
    Both,
}

#[derive(Debug)]
struct RunCommand {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: TraceMode,
    out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunCommand, String> {
    let mut cmd = RunCommand {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: TraceMode::Untraced,
        out: None,
    };
    let mut seconds_given = false;
    let mut quick = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--workload" => {
                let name = value()?;
                cmd.workload = Some(
                    Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => cmd.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cmd.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cmd.seconds >= 0.1 && cmd.seconds <= 3600.0) {
                    return Err("--seconds must be between 0.1 and 3600".into());
                }
                seconds_given = true;
            }
            "--out" => cmd.out = Some(value()?),
            "--quick" => quick = true,
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    cmd.trace = TraceMode::Untraced;
                    i += 1;
                }
                Some("1") => {
                    cmd.trace = TraceMode::Traced;
                    i += 1;
                }
                _ => cmd.trace = TraceMode::Both,
            },
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if quick && !seconds_given {
        cmd.seconds = QUICK_SECONDS;
    }
    Ok(cmd)
}

fn run(cmd: RunCommand) -> Result<ExitCode, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "farm-benchmark: seed {} window {} s nproc {} client threads {}",
        cmd.seed,
        cmd.seconds,
        nproc,
        system::client_threads()
    );
    let workloads: Vec<Workload> = cmd.workload.map_or(WORKLOADS.to_vec(), |w| vec![w]);
    let modes: &[bool] = match cmd.trace {
        TraceMode::Untraced => &[false],
        TraceMode::Traced => &[true],
        TraceMode::Both => &[false, true],
    };
    let mut members = Vec::new();
    let mut all_correct = true;
    let mut last = None;
    for &traced in modes {
        for &workload in &workloads {
            let args = RunArgs {
                seed: cmd.seed,
                seconds: cmd.seconds,
                trace: traced,
            };
            let outcome = run::run_workload(workload, &args);
            outcome.print_table(workload, traced);
            all_correct &= outcome.correct();
            // A result set holds the traced run of a workload beside its
            // untraced one, under `<name>.traced`.
            let line = outcome.contract_json(traced);
            let suffix = if traced { ".traced" } else { "" };
            members.push(format!("\"{}{suffix}\": {line}", workload.name()));
            last = Some(line);
        }
    }
    if let Some(path) = &cmd.out {
        let line = format!(
            "{{\"seed\": {}, \"seconds\": {}, \"nproc\": {}, \"workloads\": {{{}}}}}\n",
            cmd.seed,
            cmd.seconds,
            nproc,
            members.join(", ")
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    // The contract: a single-workload run ends with its result object.
    if let (Some(_), Some(line)) = (cmd.workload, last) {
        println!("{line}");
    }
    Ok(exit_code(all_correct))
}

/// Non-zero when any workload's correctness check found a violation.
fn exit_code(all_correct: bool) -> ExitCode {
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("farm-benchmark: correctness check FAILED");
        ExitCode::from(2)
    }
}

fn compare_files(parent: &str, change: &str) -> Result<ExitCode, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| compare::parse_sets(&text).map_err(|e| format!("{path}: {e}")))
    };
    let rows = compare::compare(&read(parent)?, &read(change)?);
    if rows.is_empty() {
        return Err("the two files share no workload and end-to-end metric".into());
    }
    Ok(if compare::report(&rows) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(run),
        Some("compare") if args.len() == 3 => compare_files(&args[1], &args[2]),
        Some("ledger") => {
            let contract = args.get(1).is_some_and(|a| a == "--contract");
            print!("{}", if contract { metrics::benchmark_json() } else { metrics::ledger_json() });
            Ok(ExitCode::SUCCESS)
        }
        _ => Err("usage: farm-benchmark run [--workload NAME] [--seed N] [--seconds S] \
                  [--trace [0|1]] [--quick] [--out FILE] | compare PARENT CHANGE | ledger [--contract]"
            .into()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("farm-benchmark: {e}");
        ExitCode::from(64)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_contract_invocation() {
        let cmd = parse_run(&args("--workload ycsb_c --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(cmd.workload, Some(Workload::YcsbC));
        assert_eq!((cmd.seed, cmd.seconds), (7, 10.0));
        assert_eq!(cmd.trace, TraceMode::Traced);
        assert_eq!(
            parse_run(&args("--trace 0")).unwrap().trace,
            TraceMode::Untraced
        );
    }

    #[test]
    fn parses_the_issue_invocations() {
        let cmd = parse_run(&args("--seed 1")).unwrap();
        assert_eq!(cmd.workload, None);
        assert_eq!(cmd.seconds, DEFAULT_SECONDS);
        assert_eq!(parse_run(&args("--trace")).unwrap().trace, TraceMode::Both);
        assert_eq!(
            parse_run(&args("--trace --seed 2")).unwrap().trace,
            TraceMode::Both
        );
        assert_eq!(parse_run(&args("--quick")).unwrap().seconds, QUICK_SECONDS);
        assert_eq!(
            parse_run(&args("--quick --seconds 3")).unwrap().seconds,
            3.0
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seconds",
            "--frob",
        ] {
            assert!(parse_run(&args(bad)).is_err(), "{bad} accepted");
        }
    }

    #[test]
    fn a_violation_makes_the_exit_code_non_zero() {
        assert_eq!(exit_code(true), ExitCode::SUCCESS);
        assert_ne!(exit_code(false), ExitCode::SUCCESS);
    }
}
