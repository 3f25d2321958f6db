//! Shared experiment harness for the SSD-Insider reproduction.
//!
//! Each table and figure of the paper has a binary in `src/bin/` (`fig1`,
//! `fig2`, `fig7`, `fig8`, `fig9`, `table1`, `table2`, `table3`); this
//! library holds the pieces they share — training the deployed decision
//! tree, replaying traces through detectors/FTLs/devices, and scoring
//! detection outcomes. Criterion micro-benchmarks live in `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ab;
pub mod crash;
pub mod gc;
pub mod harness;
pub mod multitenant;
pub mod outcome;
pub mod replay;
pub mod roc;
pub mod stats;
pub mod steady;
pub mod tablefmt;

pub use crash::{
    sweep, sweep_ftl_config, sweep_geometry, sweep_matrix, sweep_traces, CrashTarget, SweepConfig,
    SweepSummary, SWEEP_SPAN,
};
pub use gc::{
    age_to_steady_state, aged_conventional, aged_insider, churn, gc_bench_config,
    gc_bench_geometry, measure_gc_cost, ChurnCursor, GcCost,
};
pub use harness::{
    adversarial_training_samples, train_tree, train_tree_uncached, train_tree_variant,
    train_tree_variant_uncached, training_duration, training_samples, ADV_TRAIN_SEEDS, TRAIN_SEEDS,
};
pub use multitenant::{replay_multitenant, tenant_trace, tile_trace, MultiTenantRun, ShardMetrics};
pub use outcome::RunOutcome;
pub use replay::feature_series;
pub use replay::{
    prefill_ftl, random_trace, random_trace_seeded, ransomware_mix_trace,
    ransomware_mix_trace_seeded, replay_detector, replay_device, replay_device_payload,
    replay_device_scalar, replay_ftl, replay_ftl_scalar, replay_geometry, sequential_trace,
    small_space, ReplayOutcome,
};
pub use roc::{run_roc, FamilyCurve, RocParams, RocPoint, RocReport, PAPER_CLASSES};
pub use steady::{run_steady, SteadyArm, SteadyArmOutcome, SteadyParams, SteadyReport};
pub use tablefmt::render_table;
