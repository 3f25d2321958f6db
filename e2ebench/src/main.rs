//! Command-line entry point of the end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <aged-churn|read-scan|fs-ransom> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a run record line, then, as the last line of standard output,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The traced run also writes its spans to
//! `$CARGO_TARGET_DIR/e2ebench-trace/` (or `e2ebench/target/…`). Exits 1
//! when any correctness check failed, 2 on bad arguments.

use std::process::ExitCode;

use insider_e2ebench::util::{json_num, json_str};
use insider_e2ebench::{run, Outcome, Scale, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn command_output(program: &str, args: &[&str]) -> String {
    // Keep git from looking above the working directory for a repository.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.as_os_str().to_owned()))
        .unwrap_or_default();
    std::process::Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The run record: host fingerprint, inputs, and sample counts.
fn record_line(args: &Args, out: &Outcome) -> String {
    let mut fields = vec![
        ("workload", args.workload.name().to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", (args.trace as u8).to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("cpu_model", cpu_model()),
        ("rustc", command_output("rustc", &["--version"])),
        ("git_commit", command_output("git", &["rev-parse", "HEAD"])),
        (
            "build_profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
    ];
    let extra: Vec<(&str, String)> = out
        .record
        .iter()
        .map(|(k, v)| (k.as_str(), v.clone()))
        .collect();
    fields.extend(extra);
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    format!("{{\"run_record\":{{{}}}}}", body.join(","))
}

fn write_trace(args: &Args, json: &str) -> Option<String> {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("e2ebench/target"))
        .join("e2ebench-trace");
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("{}-{}.json", args.workload.name(), args.seed));
    std::fs::write(&path, json).ok()?;
    Some(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Scale::Full,
    );
    if let Some(json) = out.trace_json.take() {
        match write_trace(&args, &json) {
            Some(path) => out.note("trace_file", path),
            None => out.note("trace_file", "not written"),
        }
    }
    let correct = out.failed == 0 && out.attempted > 0;
    let metrics: Vec<String> = Outcome::defs(args.trace)
        .iter()
        .map(|def| {
            let value = out.metrics.get(def.name).copied().unwrap_or(0.0);
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(def.name),
                json_num(value),
                json_str(def.unit)
            )
        })
        .collect();
    println!("{}", record_line(&args, &out));
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        correct,
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
