//! `dtsnn-perfbench --workload <name> --seed <u64> --seconds <n> --trace <0|1>`
//!
//! Untraced runs (`--trace 0`) print the end-to-end metrics, traced runs
//! (`--trace 1`) the per-layer metrics; either way the last line of stdout
//! is the JSON object the driver parses. `--selfcheck` runs the untraced
//! measurement twice in one process and fails if the two disagree by more
//! than the benchmark's own bounds.

use dtsnn_perfbench::report::{
    context_line, result_line, timing_lines, Measured, Repeat, END_TO_END,
};
use dtsnn_perfbench::stats::Better;
use dtsnn_perfbench::workloads::{self, Spec, NAMES};
use dtsnn_perfbench::{fail, Result};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: String,
    spec: Spec,
    trace: bool,
    selfcheck: bool,
}

const USAGE: &str =
    "usage: dtsnn-perfbench --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--selfcheck]";

fn parse(args: &[String]) -> Result<Args> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut selfcheck) = (0u64, 10.0f64, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return fail(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--selfcheck" => selfcheck = true,
            other => return fail(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    if !NAMES.contains(&workload.as_str()) {
        return fail(format!("unknown workload {workload}; expected one of {NAMES:?}"));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return fail("--seconds must be positive");
    }
    Ok(Args { workload, spec: Spec { seed, seconds }, trace, selfcheck })
}

fn print_measured(m: &Measured) -> Vec<(&'static str, &'static str, f64)> {
    let rows: Vec<_> =
        END_TO_END.iter().zip(m.values).map(|(spec, v)| (spec.name, spec.unit, v)).collect();
    for (name, unit, value) in &rows {
        println!("{name:<18} {value:>16.6} {unit}");
    }
    println!("operations: {} attempted, {} failed", m.attempted, m.failed);
    println!("{}", timing_lines(&m.timing));
    rows
}

/// Compares two measurements of the same code in one process.
fn selfcheck(first: &Measured, second: &Measured) -> Result<()> {
    let mut broken = Vec::new();
    for ((spec, a), b) in END_TO_END.iter().zip(first.values).zip(second.values) {
        let worse = match spec.better {
            Better::Higher => (a - b) / a,
            Better::Lower => (b - a) / a,
        };
        let ok = match spec.repeat {
            Repeat::Exact => a.to_bits() == b.to_bits(),
            Repeat::WithinBound => worse.abs() <= spec.bound,
            Repeat::NotLower => b >= a,
        };
        println!(
            "selfcheck {:<18} {a:>14.6} -> {b:>14.6}  {:+.2} % {}",
            spec.name,
            worse * 100.0,
            if ok { "ok" } else { "OUT OF BOUND" }
        );
        if !ok {
            broken.push(spec.name);
        }
    }
    if broken.is_empty() {
        Ok(())
    } else {
        fail(format!("selfcheck: {broken:?} differ between two runs of the same code"))
    }
}

fn run(args: &Args) -> Result<()> {
    // Every gated number is taken on one thread: with two kernel threads on
    // a two-core shared host, best-pass throughput spread was 20 %, not 2 %.
    dtsnn_tensor::parallel::set_threads(1);
    let start = Instant::now();
    let line = if args.selfcheck {
        let first = workloads::measure(&args.workload, args.spec)?;
        print_measured(&first);
        let second = workloads::measure(&args.workload, args.spec)?;
        let rows = print_measured(&second);
        selfcheck(&first, &second)?;
        result_line(true, second.attempted, second.failed, &rows)
    } else if args.trace {
        let t = workloads::trace(&args.workload, args.spec)?;
        for (name, unit, value) in t.metrics.rows() {
            println!("{name:<34} {value:>16.6} {unit}");
        }
        println!("operations: {} attempted, {} failed", t.attempted, t.failed);
        result_line(true, t.attempted, t.failed, &t.metrics.rows())
    } else {
        let m = workloads::measure(&args.workload, args.spec)?;
        let rows = print_measured(&m);
        result_line(true, m.attempted, m.failed, &rows)
    };
    let threads = dtsnn_tensor::parallel::num_threads();
    if threads != 1 {
        return fail(format!("thread count is {threads} at exit, must be 1"));
    }
    println!(
        "{}",
        context_line(
            &args.workload,
            args.spec.seed,
            args.spec.seconds,
            args.trace,
            start.elapsed().as_secs_f64()
        )
    );
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).and_then(|a| run(&a)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dtsnn-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
