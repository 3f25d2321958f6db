//! # insider-e2ebench
//!
//! One end-to-end, layer-attributed benchmark of the SSD-Insider stack:
//!
//! ```text
//! MiniExt → BlockCache → FsBridge → SsdInsider (detector, entropy stamp)
//!         → InsiderFtl (map, recovery queue, GC, mount) → NAND scheduler
//! ```
//!
//! Three workloads ([`Workload`]) each build their drives from
//! `InsiderConfig::from_parts(FtlConfig::new(geometry), DetectorConfig::default())`
//! with no mode knob set, so they measure the shipping configuration. The
//! deployed tree is the frozen `baseline_tree.json` (regenerate it with the
//! `freeze_tree` example).
//!
//! Timing model: the host side is a closed loop on one thread; the
//! simulated side is an open loop — every request carries its due time and
//! the NAND scheduler measures latency from submission, so GC stalls count
//! against the requests queued behind them.
//!
//! A run with tracing off reports the end-to-end metrics ([`E2E`]); a
//! traced run reports the per-layer metrics ([`PER_LAYER`]) from spans the
//! benchmark records around its calls into each layer ([`trace`]), plus
//! the tracing overhead against an untraced pass of the same inputs.

pub mod device;
pub mod fsrun;
pub mod shadow;
pub mod shims;
pub mod trace;
pub mod util;

use std::collections::BTreeMap;

use insider_detect::{DecisionTree, DetectorConfig};
use insider_ftl::FtlConfig;
use insider_nand::Geometry;
use ssd_insider::{InsiderConfig, SsdInsider};

/// The frozen baseline tree every drive deploys.
pub const BASELINE_TREE_JSON: &str = include_str!("../baseline_tree.json");

/// The deployed decision tree.
pub fn baseline_tree() -> DecisionTree {
    DecisionTree::from_json(BASELINE_TREE_JSON).expect("baseline_tree.json parses")
}

/// A drive in the shipping configuration.
pub fn shipping_drive(geometry: Geometry, tree: DecisionTree) -> SsdInsider {
    SsdInsider::new(
        InsiderConfig::from_parts(FtlConfig::new(geometry), DetectorConfig::default()),
        tree,
    )
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Device-level churn on an aged 8-die drive (GC in steady state).
    AgedChurn,
    /// Reads over a prefilled, unaged drive (GC idle).
    ReadScan,
    /// MiniExt on a cached bridge under attack/recovery episodes.
    FsRansom,
}

impl Workload {
    /// Every workload, in CLI order.
    pub const ALL: [Workload; 3] = [Workload::AgedChurn, Workload::ReadScan, Workload::FsRansom];

    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AgedChurn => "aged-churn",
            Workload::ReadScan => "read-scan",
            Workload::FsRansom => "fs-ransom",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the full benchmark or the smoke-sized self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark as the command runs it.
    Full,
    /// Small drives and short phases, for the self-test.
    Smoke,
}

/// One metric definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Workloads on which the metric measures work (others print 0).
    pub applies: &'static [Workload],
}

const ALL: &[Workload] = &Workload::ALL;
const DEV: &[Workload] = &[Workload::AgedChurn, Workload::ReadScan];
const FS: &[Workload] = &[Workload::FsRansom];
const AGED: &[Workload] = &[Workload::AgedChurn];

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    applies: &'static [Workload],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        applies,
    }
}

/// End-to-end metrics, printed with tracing off. Every one applies to
/// every workload and is never zero. Apart from the required `setup_s`
/// they are simulated, so they repeat exactly for a seed: host-time
/// metrics swung by up to 1.5× between runs on the host this was built on,
/// beyond any usable bound, and are per-layer metrics instead.
pub const E2E: &[MetricDef] = &[
    m("setup_s", "s", "lower", ALL),
    m("sim_read_p50_us", "us", "lower", ALL),
    m("sim_read_p99_us", "us", "lower", ALL),
    m("sim_read_mean_us", "us", "lower", ALL),
    m("sim_write_mean_us", "us", "lower", ALL),
    m("churn_rate_at_slo", "1/s", "higher", ALL),
    m("waf", "ratio", "lower", ALL),
    m("dram_peak_bytes", "B", "lower", ALL),
    m("alarm_latency_s", "s", "lower", ALL),
];

/// Per-layer metrics, printed by the traced run. The `host.*` entries are
/// the closed-loop client's view, measured on the untraced passes of the
/// traced run.
pub const PER_LAYER: &[MetricDef] = &[
    m("host.ops_per_s", "1/s", "higher", ALL),
    m("host.op_p99_us", "us", "lower", ALL),
    m("host.recover_ms", "ms", "lower", ALL),
    m("fs.self_us_per_op", "us", "lower", FS),
    m("fs.blocks_per_op", "count", "lower", FS),
    m("fs.fsck_ms", "ms", "lower", FS),
    m("cache.hit_rate", "frac", "higher", FS),
    m("cache.evictions", "count", "lower", FS),
    m("cache.writebacks", "count", "lower", FS),
    m("cache.self_us_per_call", "us", "lower", FS),
    m("bridge.self_ns_per_call", "ns", "lower", FS),
    m("device.ftl_read_ns_per_page", "ns", "lower", ALL),
    m("device.ftl_write_ns_per_page", "ns", "lower", ALL),
    m("device.ftl_trim_ns_per_page", "ns", "lower", FS),
    m("device.insider_read_ns_per_page", "ns", "lower", ALL),
    m("device.insider_write_ns_per_page", "ns", "lower", ALL),
    m("device.entropy_ns_per_write", "ns", "lower", ALL),
    m("device.glue_ns_per_req", "ns", "lower", DEV),
    m("device.alarms", "count", "lower", ALL),
    m("false_alarms", "count", "lower", ALL),
    m("files_lost", "count", "lower", ALL),
    m("failed_ops_frac", "frac", "lower", ALL),
    m("detect.ns_per_req", "ns", "lower", ALL),
    m("detect.flush_ns_per_slice", "ns", "lower", ALL),
    m("detect.table_entries_peak", "count", "lower", ALL),
    m("detect.index_nodes_peak", "count", "lower", ALL),
    m("detect.votes", "count", "lower", ALL),
    m("ftl.gc.invocations", "count", "lower", ALL),
    m("ftl.gc.page_copies", "count", "lower", ALL),
    m("ftl.gc.protected_copies", "count", "lower", ALL),
    m("ftl.gc.erases", "count", "lower", ALL),
    m("ftl.gc.host_ms", "ms", "lower", ALL),
    m("ftl.gc.steps", "count", "lower", ALL),
    m("ftl.gc.stw_fallbacks", "count", "lower", ALL),
    m("ftl.gc.migrations_max", "count", "lower", ALL),
    m("ftl.gc.pause_p99_us", "us", "lower", ALL),
    m("ftl.gc.victim_valid_frac", "frac", "lower", ALL),
    m("ftl.rq.entries_peak", "count", "lower", ALL),
    m("ftl.rollback_ms", "ms", "lower", ALL),
    m("ftl.rollback_restored", "count", "lower", ALL),
    m("ftl.mount_ms", "ms", "lower", ALL),
    m("ftl.mount_scan_entries", "count", "lower", ALL),
    m("ftl.checkpoints", "count", "lower", ALL),
    m("ftl.checkpoint_pages", "count", "lower", ALL),
    m("nand.reads", "count", "lower", ALL),
    m("nand.programs", "count", "lower", ALL),
    m("nand.erases", "count", "lower", ALL),
    m("nand.die_busy_frac_mean", "frac", "lower", ALL),
    m("nand.die_busy_frac_max", "frac", "lower", ALL),
    m("nand.bus_util_max", "frac", "lower", ALL),
    m("nand.gc_stalled_cmds", "count", "lower", ALL),
    m("nand.gc_stall_ms", "ms", "lower", ALL),
    m("nand.erases_suspended", "count", "higher", ALL),
    m("nand.reads_promoted", "count", "higher", ALL),
    m("nand.buffers_copied", "count", "lower", ALL),
    m("gen.setup_ms", "ms", "lower", ALL),
    m("age.setup_ms", "ms", "lower", AGED),
    m("trace.overhead_frac", "frac", "lower", ALL),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, or fs operations for fs-ransom).
    pub attempted: u64,
    /// Operations that errored or returned wrong content, plus pages or
    /// files not restored after recovery and remount.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts and other context for the run record.
    pub record: Vec<(String, String)>,
    /// The traced run's span records, as JSON.
    pub trace_json: Option<String>,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a run-record entry.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.record.push((key.to_string(), value.to_string()));
    }

    /// Metrics the run must print: the end-to-end set untraced, the
    /// per-layer set traced.
    pub fn defs(traced: bool) -> &'static [MetricDef] {
        if traced {
            PER_LAYER
        } else {
            E2E
        }
    }
}

/// Runs `workload` on inputs generated from `seed`, measuring for about
/// `seconds` of host time.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool, scale: Scale) -> Outcome {
    match workload {
        Workload::AgedChurn | Workload::ReadScan => {
            device::run(workload, seed, seconds, traced, scale)
        }
        Workload::FsRansom => fsrun::run(seed, seconds, traced, scale),
    }
}
