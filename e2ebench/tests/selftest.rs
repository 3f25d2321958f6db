//! Smoke-sized self-test of the benchmark: every named metric is emitted
//! on its workloads, every correctness check passes, simulated metrics
//! repeat exactly for one seed and move for another, and `BENCHMARK.json`
//! names exactly the metrics the code emits.
//!
//! Run in release (the simulators are slow in debug):
//! `cargo test --release --manifest-path e2ebench/Cargo.toml`

use insider_e2ebench::{run, Outcome, Scale, Workload, E2E, PER_LAYER};

/// Metrics computed only from simulated time and counts.
const SIMULATED: &[&str] = &[
    "sim_read_p50_us",
    "sim_read_p99_us",
    "sim_read_mean_us",
    "sim_write_mean_us",
    "churn_rate_at_slo",
    "waf",
    "dram_peak_bytes",
    "alarm_latency_s",
];

const SECONDS: f64 = 0.2;

fn smoke(workload: Workload, seed: u64, traced: bool) -> Outcome {
    let out = run(workload, seed, SECONDS, traced, Scale::Smoke);
    assert!(out.attempted > 0, "{}: nothing attempted", workload.name());
    assert_eq!(
        out.failed,
        0,
        "{}: correctness checks failed: {:?}",
        workload.name(),
        out.record
    );
    out
}

fn simulated(out: &Outcome) -> Vec<(&'static str, f64)> {
    SIMULATED.iter().map(|&n| (n, out.metrics[n])).collect()
}

fn check_workload(workload: Workload) {
    let name = workload.name();
    let a = smoke(workload, 11, false);
    for def in E2E {
        let v = a.metrics.get(def.name).copied();
        assert!(
            v.is_some_and(|v| v > 0.0 && v.is_finite()),
            "{name}: end-to-end metric {} missing or not positive: {v:?}",
            def.name
        );
    }
    let b = smoke(workload, 11, false);
    assert_eq!(
        simulated(&a),
        simulated(&b),
        "{name}: one seed, different simulation"
    );
    let c = smoke(workload, 12, false);
    assert_ne!(
        simulated(&a),
        simulated(&c),
        "{name}: the seed does not reach the generator"
    );

    let t = smoke(workload, 11, true);
    for def in PER_LAYER.iter().filter(|d| d.applies.contains(&workload)) {
        assert!(
            t.metrics.get(def.name).is_some_and(|v| v.is_finite()),
            "{name}: per-layer metric {} missing",
            def.name
        );
    }
    assert!(t
        .trace_json
        .as_deref()
        .is_some_and(|j| j.contains("\"parent\"")));
}

#[test]
fn aged_churn() {
    check_workload(Workload::AgedChurn);
}

#[test]
fn read_scan() {
    check_workload(Workload::ReadScan);
}

#[test]
fn fs_ransom() {
    check_workload(Workload::FsRansom);
}

#[test]
fn benchmark_json_names_every_metric_and_workload() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names: Vec<&str> = json
        .split("\"name\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').nth(1))
        .collect();
    let mut want: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    want.extend(E2E.iter().map(|d| d.name));
    want.extend(PER_LAYER.iter().map(|d| d.name));
    let (mut got, mut want) = (names.clone(), want);
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want);
    for def in E2E.iter().chain(PER_LAYER) {
        let entry = json
            .split(&format!("\"name\": \"{}\"", def.name))
            .nth(1)
            .and_then(|rest| rest.split('}').next())
            .expect("metric entry");
        assert!(
            entry.contains(&format!("\"unit\": \"{}\"", def.unit)),
            "{}: unit",
            def.name
        );
        assert!(
            entry.contains(&format!("\"better\": \"{}\"", def.better)),
            "{}: better",
            def.name
        );
    }
}
