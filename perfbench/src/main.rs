//! `perfbench --workload NAME|all --seed N --seconds S --trace 0|1 --harness PATH`
//!
//! Prints diagnostics, then one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` per workload; with one workload it is the last
//! line. `all` runs the four workloads in turn.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::measure::{self, Outcome};
use perfbench::workload::Workload;
use treequery_core::obs::Json;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    harness: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut harness) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workload = Some(Workload::ALL.to_vec()),
            "--workload" => {
                let w =
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?;
                workload = Some(vec![w]);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => match value.as_str() {
                "0" | "1" => trace = Some(value == "1"),
                _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
            },
            "--harness" => harness = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workloads: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(14),
        trace: trace.unwrap_or(false),
        harness: harness.ok_or("--harness is required")?,
    })
}

fn result_line(out: &Outcome) -> String {
    let metrics = out.metrics.iter().fold(Json::obj(), |acc, m| {
        acc.set(
            m.name,
            Json::obj().set("value", m.value).set("unit", m.unit),
        )
    });
    Json::obj()
        .set("correct", out.failed == 0)
        .set("attempted", out.attempted)
        .set("failed", out.failed)
        .set("metrics", metrics)
        .render()
}

fn run(args: &Args, workload: Workload) -> Result<Outcome, String> {
    let prep = measure::prepare(workload, args.seed, args.seconds)?;
    if args.trace {
        perfbench::trace::run(&args.harness, &prep, args.seconds as f64)
    } else {
        measure::run(&args.harness, &prep, args.seconds as f64)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for &w in &args.workloads {
        match run(&args, w) {
            Ok(out) => println!("{}", result_line(&out)),
            Err(e) => {
                eprintln!("perfbench: {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
