//! The benchmark command.
//!
//! ```text
//! dce-e2ebench --workload <burst|big-doc|server-durable> --seed N \
//!              --seconds S --trace <0|1> [--repeat N]
//! ```
//!
//! Prints a human-readable summary, then — as the last line of standard
//! output — one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: every end-to-end metric with `--trace 0`, every per-layer
//! metric with `--trace 1`. A traced run also writes its spans to
//! `.e2ebench-out/spans-<workload>-<seed>.tsv`. Exits 1 when an output
//! check failed, 2 on a usage error.
//!
//! `--repeat N` is the steadiness mode: it runs the workload N times as
//! child processes (seeds N, N+1, …) and prints each metric's median,
//! quartiles and spread; with `--trace 1` it also runs N traced children
//! and reports the tracing overhead on `edits_s`.

use dce_e2ebench::{measure, parse_result, result_json, run_workload, stats, trace, Config};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
}

fn usage(why: &str) -> ExitCode {
    eprintln!("dce-e2ebench: {why}");
    eprintln!(
        "usage: dce-e2ebench --workload <burst|big-doc|server-durable> --seed N --seconds S \
         --trace <0|1> [--repeat N]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut repeat = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|_| format!("bad --seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--repeat" => {
                repeat = Some(value.parse::<usize>().map_err(|_| format!("bad --repeat {value}"))?)
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        repeat: repeat.filter(|&n| n > 0),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    if !dce_e2ebench::WORKLOADS.contains(&args.workload.as_str()) {
        return usage(&format!("unknown workload {}", args.workload));
    }
    match args.repeat {
        Some(n) => steadiness(&args, n),
        None => once(&args),
    }
}

/// One measured run.
fn once(args: &Args) -> ExitCode {
    let cfg = Config::full(args.seed, args.seconds, args.trace);
    let mut run = run_workload(&args.workload, &cfg).expect("workload name checked");
    let n = run.min_series();
    if n < cfg.min_samples() && run.problems.is_empty() {
        run.problem(format!("only {n} latency samples in a series, {} needed", cfg.min_samples()));
    }
    let metrics = measure(&run);
    println!(
        "workload {} seed {} trace {}: {} edits in {:.3} s, {} operations attempted, {} failed",
        args.workload,
        args.seed,
        u8::from(args.trace),
        run.edits,
        run.active_s,
        run.attempted,
        run.failed
    );
    for (name, m) in &metrics {
        if m.samples > 0 {
            println!("  {name:<28} {:>14} {:<7} (n={})", sig(m.value), m.unit, m.samples);
        } else {
            println!("  {name:<28} {:>14} {}", sig(m.value), m.unit);
        }
    }
    for (series, unit, v) in run.series() {
        if let Some(p) = stats::tail_percentile(v.len()) {
            let tail = stats::percentile(v, p).expect("samples present");
            println!("  {series} tail: p{p} = {tail:.4} {unit} (n={}, not gated)", v.len());
        }
    }
    if let Some(trace) = &run.trace {
        let path = PathBuf::from(".e2ebench-out")
            .join(format!("spans-{}-{}.tsv", args.workload, args.seed));
        match trace::write_tsv(trace, &path) {
            Ok(()) => println!(
                "  spans: {} kept in {}, {} aggregated only",
                trace.kept.len(),
                path.display(),
                trace.dropped
            ),
            Err(e) => eprintln!("dce-e2ebench: writing {}: {e}", path.display()),
        }
    }
    for p in &run.problems {
        eprintln!("dce-e2ebench: CHECK FAILED: {p}");
    }
    println!("{}", result_json(&run, &metrics));
    if run.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `x` with at least five significant digits, for the human-readable lines.
fn sig(x: f64) -> String {
    let magnitude = if x == 0.0 { 0 } else { x.abs().log10().floor() as i32 };
    format!("{x:.*}", (4 - magnitude).clamp(1, 9) as usize)
}

/// Runs `n` child processes of this command and collects their results.
fn children(args: &Args, n: usize, trace: bool) -> Result<Vec<BTreeMap<String, f64>>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut out = Vec::new();
    for i in 0..n {
        let seed = args.seed + i as u64;
        let child = Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("spawn: {e}"))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let (correct, attempted, failed, metrics) =
            parse_result(last).ok_or_else(|| format!("seed {seed}: no result line"))?;
        if !correct || !child.status.success() {
            return Err(format!("seed {seed}: output check failed\n{stdout}"));
        }
        eprintln!(
            "  seed {seed} trace {}: attempted {attempted}, failed {failed}",
            u8::from(trace)
        );
        out.push(metrics);
    }
    Ok(out)
}

/// Steadiness mode: medians, quartiles and spreads over `n` seeds.
fn steadiness(args: &Args, n: usize) -> ExitCode {
    let report = |label: &str, runs: &[BTreeMap<String, f64>]| {
        println!("{label}: {} runs of {} s from seed {}", runs.len(), args.seconds, args.seed);
        println!("  {:<28} {:>14} {:>14} {:>14} {:>8}", "metric", "q1", "median", "q3", "spread");
        for name in runs[0].keys() {
            let v: Vec<f64> = runs.iter().filter_map(|r| r.get(name).copied()).collect();
            let each: Vec<String> = v.iter().map(|&x| sig(x)).collect();
            match stats::quartiles(&v) {
                Some((q1, q2, q3)) => {
                    let spread =
                        stats::spread(&v).map_or("-".into(), |s| format!("{:.1}%", s * 1e2));
                    println!(
                        "  {name:<28} {:>14} {:>14} {:>14} {spread:>8}   [{}]",
                        sig(q1),
                        sig(q2),
                        sig(q3),
                        each.join(" ")
                    );
                }
                None => println!("  {name:<28} {:>14}", sig(v[0])),
            }
        }
    };
    let untraced = match children(args, n, false) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dce-e2ebench: {e}");
            return ExitCode::from(1);
        }
    };
    report(&format!("{} untraced", args.workload), &untraced);
    if args.trace {
        let traced = match children(args, n, true) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("dce-e2ebench: {e}");
                return ExitCode::from(1);
            }
        };
        report(&format!("{} traced", args.workload), &traced);
        let med = |runs: &[BTreeMap<String, f64>], key: &str| {
            stats::median(&runs.iter().filter_map(|r| r.get(key).copied()).collect::<Vec<_>>())
        };
        if let (Some(plain), Some(traced)) =
            (med(&untraced, "edits_s"), med(&traced, "traced.edits_s"))
        {
            println!(
                "tracing overhead on edits_s: {:.1}% ({plain:.1} untraced, {traced:.1} traced)",
                (1.0 - traced / plain) * 1e2
            );
        }
    }
    ExitCode::SUCCESS
}
