//! The repository benchmark: drives the `ParallelLtc` runtime (1 shard — a
//! router plus one worker) through the public API on three paper-shaped
//! workloads, checks every answer, and prints one JSON result line.
//!
//! ```sh
//! python3 perfbench/run.py --workload caida_ingest --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones from a separate traced run. `--tiny` shrinks the traces 20× (the
//! self-test); `--break-expected` corrupts the expected answer, which must
//! make the run fail. See `perfbench/README.md`.

mod alloc;
mod e2e;
mod host;
mod pass;
mod report;
mod stats;
mod system;
mod traced;
mod workload;

use pass::Tally;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Kind, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    break_expected: bool,
    out_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <caida_ingest|network_durable|social_queries> \
--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] [--tiny] [--break-expected]";

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut break_expected = false;
    let mut out_dir = PathBuf::from("target/perfbench-out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| e.to_string())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(value()?),
            "--tiny" => tiny = true,
            "--break-expected" => break_expected = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
        break_expected,
        out_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    alloc::pin_malloc_thresholds();
    host::print("start");
    let shrink = if args.tiny { 20 } else { 1 };
    let w = Workload::generate(args.kind, args.seed, shrink);
    println!(
        "input {} seed={} records={} periods={} buckets={} cells={}",
        args.kind.name(),
        args.seed,
        w.stream.records.len(),
        w.stream.period_sizes.len(),
        w.config.buckets,
        w.config.total_cells()
    );
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    let dir = args
        .out_dir
        .join(format!("state-{}-{}", args.kind.name(), std::process::id()));
    let mut tally = Tally::default();
    let report = if args.trace {
        traced::run(
            &w,
            args.seconds,
            &dir,
            &args.out_dir,
            args.break_expected,
            &mut tally,
        )
    } else {
        let m = e2e::run(&w, args.seconds, &dir, args.break_expected, &mut tally);
        e2e::report(&w, &m)
    };
    for message in &tally.messages {
        eprintln!("perfbench: FAILED: {message}");
    }
    let correct = tally.failed == 0;
    println!("{}", report.json(correct, tally.attempted, tally.failed));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
