//! Same-host A/B of the end-to-end benchmark: a base checkout against the
//! working tree, as interleaved pairs.
//!
//! Usage (`make bench-ab BASE=<rev> PAIRS=N SECONDS=s` exports the base
//! revision with `git archive` and calls this):
//!
//!   cargo run --release -p insider-bench --bin bench_ab -- \
//!       --base DIR [--pairs N] [--seconds S]
//!
//! Run from the root of the working tree. Builds each checkout's
//! `e2ebench/` into its own directory under `target/bench-ab/`, then, for
//! every workload `BENCHMARK.json` lists, runs pairs with seeds 1..=N,
//! alternating which side goes first. Prints, per end-to-end metric, both
//! medians, both IQRs, the pairs the change won and lost (the rest tied),
//! and the verdict of [`insider_bench::ab::compare`]. Exits 1 when any
//! metric is worse than its bound, missing from a run, or any run reports
//! `correct: false`; 2 on bad arguments or a failed build or run.

use insider_bench::ab::{compare, number, text, MetricSpec, Verdict};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// The benchmark's binary, as its Cargo package names it.
const E2E_BIN: &str = "insider-e2ebench";

struct Args {
    base: PathBuf,
    pairs: u64,
    seconds: f64,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        base: PathBuf::new(),
        pairs: 10,
        seconds: 10.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--base" => args.base = PathBuf::from(value),
            "--pairs" => {
                args.pairs = value
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("bad pair count {value}"))?
            }
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.base.as_os_str().is_empty() {
        return Err("--base is required".into());
    }
    Ok(args)
}

/// Builds `checkout`'s benchmark into `target_dir`; returns the binary.
fn build(checkout: &Path, target_dir: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    eprintln!("bench_ab: building {}", checkout.display());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--offline",
            "--manifest-path",
        ])
        .arg(checkout.join("e2ebench/Cargo.toml"))
        .env("CARGO_TARGET_DIR", target_dir)
        .status()
        .map_err(|e| format!("cannot start cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building {} failed", checkout.display()));
    }
    Ok(target_dir.join("release").join(E2E_BIN))
}

/// One run's verdict and metric values.
struct Run {
    correct: bool,
    metrics: Value,
}

fn run(
    bin: &Path,
    checkout: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
) -> Result<Run, String> {
    let out = Command::new(bin)
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .current_dir(checkout)
        .output()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let json: Value = serde_json::from_str(last).map_err(|e| {
        format!(
            "{} {workload} seed {seed}: no result line ({e}); stderr: {}",
            checkout.display(),
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    Ok(Run {
        correct: matches!(json.get("correct"), Some(Value::Bool(true))),
        metrics: json.get("metrics").cloned().unwrap_or(Value::Null),
    })
}

fn value(run: &Run, metric: &str) -> Option<f64> {
    number(run.metrics.get(metric)?, "value")
}

fn absolute(p: &Path) -> Result<PathBuf, String> {
    std::fs::canonicalize(p).map_err(|e| format!("{}: {e}", p.display()))
}

fn ab(args: &Args) -> Result<bool, String> {
    let head = absolute(Path::new("."))?;
    let base = absolute(&args.base)?;
    let declared = std::fs::read_to_string(head.join("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let benchmark: Value =
        serde_json::from_str(&declared).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let specs = MetricSpec::from_benchmark(&benchmark)?;
    let workloads: Vec<String> = match benchmark.get("workloads") {
        Some(Value::Seq(list)) => list
            .iter()
            .filter_map(|w| text(w, "name").map(str::to_string))
            .collect(),
        _ => return Err("BENCHMARK.json has no workloads".into()),
    };

    let out_dir = head.join("target/bench-ab");
    let base_bin = build(&base, &out_dir.join("base-target"))?;
    let head_bin = build(&head, &out_dir.join("head-target"))?;

    let mut ok = true;
    for workload in &workloads {
        let (mut base_runs, mut head_runs) = (Vec::new(), Vec::new());
        for seed in 1..=args.pairs {
            // Alternate which side runs first, so drift on the host
            // (thermal, page cache, neighbours) does not favour one side.
            let base_first = seed % 2 == 1;
            for side_is_base in [base_first, !base_first] {
                let (bin, dir, runs) = if side_is_base {
                    (&base_bin, &base, &mut base_runs)
                } else {
                    (&head_bin, &head, &mut head_runs)
                };
                let r = run(bin, dir, workload, seed, args.seconds)?;
                if !r.correct {
                    let side = if side_is_base { "base" } else { "head" };
                    eprintln!(
                        "bench_ab: {workload} seed {seed}: {side} run reports correct: false"
                    );
                    ok = false;
                }
                runs.push(r);
            }
            eprintln!("bench_ab: {workload} pair {seed}/{} done", args.pairs);
        }

        println!(
            "\n{workload}: {} pairs, seeds 1..={}, --seconds {}",
            args.pairs, args.pairs, args.seconds
        );
        println!(
            "  {:<20} {:>14} {:>12} {:>14} {:>12} {:>9} {:>10} {:>10}",
            "metric",
            "base median",
            "base IQR",
            "head median",
            "head IQR",
            "gain",
            "won/lost",
            "verdict"
        );
        for spec in &specs {
            // Every declared metric applies to every workload, so a run
            // without one is a failure, not a smaller sample.
            let pairs: Option<Vec<(f64, f64)>> = base_runs
                .iter()
                .zip(&head_runs)
                .map(|(b, h)| Some((value(b, &spec.name)?, value(h, &spec.name)?)))
                .collect();
            let Some(pairs) = pairs else {
                ok = false;
                println!("  {:<20} {:>14}", spec.name, "MISSING from a run");
                continue;
            };
            let (b, h): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
            let c = compare(spec, &b, &h);
            if c.verdict == Verdict::Worse {
                ok = false;
            }
            println!(
                "  {:<20} {:>14.4} {:>12.4} {:>14.4} {:>12.4} {:>+8.1}% {:>10} {:>10}",
                spec.name,
                c.base_median,
                c.base_iqr,
                c.head_median,
                c.head_iqr,
                c.gain * 100.0,
                format!("{}/{} of {}", c.wins, c.losses, c.pairs),
                c.verdict.name()
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_ab: {e}");
            return ExitCode::from(2);
        }
    };
    match ab(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!(
                "bench_ab: FAILED (a metric worse than its bound or missing, or an incorrect run)"
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench_ab: {e}");
            ExitCode::from(2)
        }
    }
}
