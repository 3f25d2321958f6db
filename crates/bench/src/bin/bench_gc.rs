//! Machine-readable GC benchmark: steady-state victim-selection cost on an
//! aged drive (incremental index vs legacy full scan, with and without
//! delayed-deletion protection), plus a differential oracle replaying the
//! three standard traces and requiring identical victim sequences from both
//! selectors. Results land in `BENCH_gc.json` so CI can diff GC cost across
//! commits.
//!
//! Usage:
//!   cargo run --release -p insider-bench --bin bench_gc [-- out.json]

use insider_bench::{
    aged_conventional, aged_insider, gc_bench_geometry, measure_gc_cost, prefill_ftl, random_trace,
    ransomware_mix_trace, replay_ftl, replay_geometry, sequential_trace, GcCost,
};
use insider_ftl::{Ftl, FtlConfig, FtlStats, GcPolicy, GcVictim, InsiderFtl};
use insider_nand::SimTime;
use insider_workloads::Trace;
use serde_json::json;

/// Churn writes per measured batch on the aged drive. One block turns over
/// every 8 writes, so this is ~2.5k collections per variant.
const MEASURE_WRITES: u64 = 20_000;

fn cost_json(cost: &GcCost) -> serde_json::Value {
    json!({
        "gc_invocations": cost.invocations,
        "gc_ns": cost.gc_ns,
        "gc_page_copies": cost.page_copies,
        "ns_per_invocation": cost.ns_per_invocation(),
    })
}

/// Aged-drive steady-state churn for one FTL kind, both selectors.
/// Returns the JSON summary and the measured speedup.
fn bench_aged(insider: bool) -> (serde_json::Value, f64) {
    let g = gc_bench_geometry();
    let run = |indexed: bool| -> (GcCost, f64) {
        let (cost, utilization) = if insider {
            let (mut ftl, mut cursor) = aged_insider(g, indexed, SimTime::from_millis(2));
            (
                measure_gc_cost(&mut ftl, &mut cursor, MEASURE_WRITES),
                ftl.utilization(),
            )
        } else {
            let (mut ftl, mut cursor) = aged_conventional(g, indexed);
            (
                measure_gc_cost(&mut ftl, &mut cursor, MEASURE_WRITES),
                ftl.utilization(),
            )
        };
        assert!(
            utilization >= 0.85,
            "aged drive must stay ~90% utilized, got {utilization:.3}"
        );
        assert!(cost.invocations > 0, "steady-state churn must run GC");
        (cost, utilization)
    };
    let kind = if insider { "insider" } else { "conventional" };
    eprintln!("bench_gc: aged {kind} — {MEASURE_WRITES} churn writes per selector");
    let (indexed, utilization) = run(true);
    let (legacy, _) = run(false);
    let speedup = legacy.ns_per_invocation() / indexed.ns_per_invocation();
    println!(
        "{kind:>14}: indexed {:>9.0} ns/GC  legacy {:>9.0} ns/GC  speedup {speedup:.1}x",
        indexed.ns_per_invocation(),
        legacy.ns_per_invocation(),
    );
    let doc = json!({
        "ftl": kind,
        "utilization": utilization,
        "indexed": cost_json(&indexed),
        "legacy_scan": cost_json(&legacy),
        "speedup": speedup,
    });
    (doc, speedup)
}

/// Replays one trace on a 90 %-prefilled insider FTL under each selector
/// and compares the complete victim sequences and (timing-less) stats.
/// Also records the replay's own host pages written and NAND programs
/// (prefill excluded), whose ratio is the replay's write amplification.
fn trace_oracle(name: &str, trace: &Trace) -> serde_json::Value {
    let run = |indexed: bool| -> (Vec<GcVictim>, FtlStats, u64, u64) {
        let cfg = FtlConfig::new(replay_geometry())
            .gc_policy(GcPolicy::Greedy)
            .gc_victim_index(indexed)
            .record_gc_victims(true);
        let mut ftl = InsiderFtl::new(cfg);
        prefill_ftl(&mut ftl, 0.9);
        let host_before = ftl.stats().host_writes;
        let programs_before = ftl.nand_stats().programs;
        let outcome = replay_ftl(trace, &mut ftl);
        assert_eq!(outcome.skipped, 0, "{name} must fit the replay drive");
        let mut stats = *ftl.stats();
        stats.gc_ns = 0;
        let host_pages = stats.host_writes - host_before;
        let programs = ftl.nand_stats().programs - programs_before;
        (ftl.gc_victims().to_vec(), stats, host_pages, programs)
    };
    eprintln!("bench_gc: trace oracle — {name} ({} requests)", trace.len());
    let (victims_indexed, stats_indexed, host_pages, programs) = run(true);
    let (victims_legacy, stats_legacy, ..) = run(false);
    let identical = victims_indexed == victims_legacy && stats_indexed == stats_legacy;
    assert!(
        identical,
        "{name}: selectors diverged ({} vs {} victims)",
        victims_indexed.len(),
        victims_legacy.len()
    );
    println!(
        "{name:>16}: {} victims, sequences identical, {host_pages} host pages, \
         {programs} NAND programs",
        victims_indexed.len()
    );
    json!({
        "trace": name,
        "victims": victims_indexed.len() as u64,
        "gc_invocations": stats_indexed.gc_invocations,
        "gc_page_copies": stats_indexed.gc_page_copies,
        "host_pages_written": host_pages,
        "nand_programs": programs,
        "victims_identical": identical,
    })
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_gc.json".into());
    let g = gc_bench_geometry();

    let (conventional, greedy_speedup) = bench_aged(false);
    let (insider, _) = bench_aged(true);
    assert!(
        greedy_speedup >= 10.0,
        "indexed greedy selection must be >=10x the legacy scan, got {greedy_speedup:.1}x"
    );

    let oracle = vec![
        trace_oracle("sequential-read", &sequential_trace()),
        trace_oracle("random-mixed", &random_trace()),
        trace_oracle("ransomware-mix", &ransomware_mix_trace()),
    ];

    let doc = json!({
        "benchmark": "gc_victim_selection",
        "units": json!({ "gc_ns": "nanoseconds", "ns_per_invocation": "ns/collection" }),
        "aged_device": json!({
            "total_blocks": g.total_blocks(),
            "pages_per_block": g.pages_per_block(),
            "fill_fraction": 0.9,
            "policy": "greedy",
            "churn_writes": MEASURE_WRITES,
        }),
        "selectors": json!({
            "indexed": "incremental bucket index, O(1) greedy pop",
            "legacy_scan": "full O(total_blocks) scan per collection",
        }),
        "aged": json!({ "conventional": conventional, "insider": insider }),
        "trace_oracle": oracle,
    });
    std::fs::write(&out, serde_json::to_string(&doc).expect("serializable"))
        .expect("write benchmark JSON");
    println!("wrote {out}");
}
