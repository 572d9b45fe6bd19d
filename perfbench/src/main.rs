//! End-to-end and per-layer benchmark of the MaCS solver workspace.
//!
//! ```text
//! macs-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (`queens-local`, `qap-remote`, `sim-4k`, or
//! `svc-open`, which `BENCHMARK.json` leaves out as too unsteady to gate)
//! and prints, as its last line, one JSON object with the operations
//! attempted and failed and the metrics: the end-to-end set untraced, the
//! per-layer set traced. The traced run also writes its spans to
//! `.bench_spans/<workload>-<seed>.tsv`.

mod check;
mod layers;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::Workload;

const USAGE: &str = "usage: macs-perfbench --workload <queens-local|qap-remote|sim-4k|svc-open> \
                     --seed <u64> --seconds <1..=3600> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(1.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = workloads::run(args.workload, args.seed, args.seconds, args.trace);
    let set = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    if args.trace {
        let path = PathBuf::from(".bench_spans").join(format!(
            "{}-{}.tsv",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = run.tracer.write(&path) {
            eprintln!("could not write spans to {}: {e}", path.display());
        }
    }
    println!(
        "{}",
        run.values
            .result_line(set, run.correct, run.attempted, run.failed)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = args("--workload sim-4k --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Sim4k, 7, 20.0, true)
        );
        assert!(args("--workload sim-8k --seed 7 --seconds 20 --trace 1").is_err());
        assert!(args("--workload sim-4k --seed -1 --seconds 20 --trace 1").is_err());
        assert!(args("--workload sim-4k --seed 7 --seconds 0 --trace 1").is_err());
        assert!(args("--workload sim-4k --seed 7 --seconds 20 --trace 2").is_err());
        assert!(args("--workload sim-4k --seed 7 --seconds 20").is_err());
        assert!(args("--workload sim-4k --seed 7 --seconds 20 --trace").is_err());
    }
}
