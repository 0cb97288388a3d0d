//! Command-line entry point.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0`, runs the named workload for `s` seconds with tracing
//! off and reports its end-to-end metrics. With `--trace 1`, runs every
//! workload traced (a quarter of `s` each) and reports the per-layer
//! metrics; the spans are written to `$CARGO_TARGET_DIR/perfbench-spans/`
//! (default `perfbench/target/`).
//! Prints each metric by name and unit, then one JSON line with the
//! keys `correct`, `attempted`, `failed` and `metrics`.

use perfbench::bench::{self, Report};
use perfbench::WORKLOADS;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; valid: {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn spans_path(seed: u64) -> PathBuf {
    let root = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    root.join("perfbench-spans")
        .join(format!("trace-seed{seed}.jsonl"))
}

fn json(report: &Report) -> String {
    let mut metrics = String::new();
    for (i, (name, (value, unit))) in report.metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            metrics,
            r#"{sep}"{name}": {{"value": {value}, "unit": "{unit}"}}"#
        );
    }
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{metrics}}}}}"#,
        report.correct, report.attempted, report.failed
    )
}

fn run(args: &Args) -> Result<Report, String> {
    if !args.trace {
        return bench::end_to_end(&args.workload, args.seed, args.seconds);
    }
    let (report, jsonl) = bench::traced(args.seed, args.seconds)?;
    let path = spans_path(args.seed);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, jsonl));
    match written {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{} seed {}: {} of {} checked operations failed",
        args.workload, args.seed, report.failed, report.attempted
    );
    for (name, (value, unit)) in &report.metrics.0 {
        println!("  {name:<52} {value:>14.4} {unit}");
    }
    for (name, (value, unit)) in &report.info.0 {
        println!("  ({name:<50} {value:>14.4} {unit}, not gated)");
    }
    println!("{}", json(&report));
    ExitCode::SUCCESS
}
