//! FTL configuration.

use insider_nand::{Geometry, NandConfig, SchedMode, SimTime};
use serde::{Deserialize, Serialize};

/// Garbage-collection victim-selection policy.
///
/// The paper's prototype uses greedy selection ("page-level mapping with
/// greedy victim selection", §V-C footnote); the alternatives are provided
/// for the design-space ablation (`cargo run -p insider-bench --bin
/// ablation_gc`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum GcPolicy {
    /// Pick the block with the most immediately reclaimable pages.
    #[default]
    Greedy,
    /// Pick the least-recently-opened block with any reclaimable page.
    Fifo,
    /// Classic cost-benefit: maximize
    /// `reclaimable × age / (migration cost + 1)` — prefers old,
    /// mostly-dead blocks, tolerating slightly fuller victims when cold.
    CostBenefit,
}

impl GcPolicy {
    /// Display name for reports.
    pub fn name(self) -> &'static str {
        match self {
            GcPolicy::Greedy => "greedy",
            GcPolicy::Fifo => "fifo",
            GcPolicy::CostBenefit => "cost-benefit",
        }
    }
}

impl std::fmt::Display for GcPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Free blocks garbage collection keeps in reserve.
const GC_RESERVE_BLOCKS: u32 = 2;

/// Configuration shared by both FTL variants.
///
/// # Example
///
/// ```rust
/// use insider_ftl::FtlConfig;
/// use insider_nand::{Geometry, SimTime};
///
/// let cfg = FtlConfig::new(Geometry::tiny())
///     .over_provisioning(0.10)
///     .protection_window(SimTime::from_secs(10));
/// assert!(cfg.logical_pages() < Geometry::tiny().total_pages());
/// ```
#[derive(Debug, Clone)]
pub struct FtlConfig {
    nand: NandConfig,
    over_provisioning: f64,
    protection_window: SimTime,
    gc_policy: GcPolicy,
    wear_leveling_threshold: Option<u32>,
    gc_victim_index: bool,
    record_gc_victims: bool,
    copy_payloads: bool,
    incremental_gc: bool,
    gc_low_water_extra: u32,
    gc_step_pages: u32,
    write_pacing_pages_per_sec: u64,
    write_pacing_burst: u64,
}

impl FtlConfig {
    /// Configuration with default NAND timings, 7 % over-provisioning,
    /// a 2-block GC reserve and the paper's 10 s protection window.
    pub fn new(geometry: Geometry) -> Self {
        Self::with_nand(NandConfig::new(geometry))
    }

    /// Configuration over an explicit NAND configuration (custom latencies,
    /// endurance, fault plans are installed on the device afterwards).
    pub fn with_nand(nand: NandConfig) -> Self {
        FtlConfig {
            nand,
            over_provisioning: 0.07,
            protection_window: SimTime::from_secs(10),
            gc_policy: GcPolicy::Greedy,
            wear_leveling_threshold: None,
            gc_victim_index: true,
            record_gc_victims: false,
            copy_payloads: false,
            incremental_gc: false,
            gc_low_water_extra: 2,
            gc_step_pages: 4,
            write_pacing_pages_per_sec: 0,
            write_pacing_burst: 32,
        }
    }

    /// Sets the over-provisioning ratio (fraction of raw capacity hidden
    /// from the host).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= ratio < 1.0`.
    pub fn over_provisioning(mut self, ratio: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&ratio),
            "over-provisioning ratio must be in [0, 1)"
        );
        self.over_provisioning = ratio;
        self
    }

    /// Sets the delayed-deletion protection window (how long pre-overwrite
    /// versions are kept recoverable). The paper uses 10 seconds.
    pub fn protection_window(mut self, window: SimTime) -> Self {
        self.protection_window = window;
        self
    }

    /// Sets the garbage-collection victim-selection policy (default greedy,
    /// as in the paper's prototype).
    pub fn gc_policy(mut self, policy: GcPolicy) -> Self {
        self.gc_policy = policy;
        self
    }

    /// The garbage-collection policy.
    pub fn gc_policy_ref(&self) -> GcPolicy {
        self.gc_policy
    }

    /// Enables static wear leveling: after garbage collection, if the
    /// erase-count spread (max − min) exceeds `threshold`, the coldest
    /// in-service block is migrated and erased so it rejoins the hot
    /// rotation. Disabled by default (the paper's prototype has none).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero.
    pub fn wear_leveling(mut self, threshold: u32) -> Self {
        assert!(threshold >= 1, "wear-leveling threshold must be at least 1");
        self.wear_leveling_threshold = Some(threshold);
        self
    }

    /// The static wear-leveling threshold, if enabled.
    pub fn wear_leveling_threshold(&self) -> Option<u32> {
        self.wear_leveling_threshold
    }

    /// Selects between the incrementally maintained victim index (`true`,
    /// the default) and the legacy full-device scan (`false`) for GC victim
    /// selection and wear-leveling extremes. The scan is kept as the
    /// differential oracle: both paths must pick identical victims, which
    /// debug builds assert on every selection.
    pub fn gc_victim_index(mut self, enabled: bool) -> Self {
        self.gc_victim_index = enabled;
        self
    }

    /// Whether GC victim selection uses the incremental index.
    pub fn victim_index_enabled(&self) -> bool {
        self.gc_victim_index
    }

    /// Records every GC and wear-leveling victim in an in-memory log
    /// (see `gc_victims` on the FTLs). Off by default; the differential
    /// oracle tests and the GC benchmark turn it on to prove the indexed
    /// and legacy-scan selectors produce identical victim sequences.
    pub fn record_gc_victims(mut self, enabled: bool) -> Self {
        self.record_gc_victims = enabled;
        self
    }

    /// Whether GC victim recording is enabled.
    pub fn gc_victim_recording(&self) -> bool {
        self.record_gc_victims
    }

    /// Selects the NAND command-scheduling model (see
    /// [`SchedMode`]): `Legacy` keeps the original per-die makespan
    /// estimate, `InOrder` queues commands per die in submission order, and
    /// `OutOfOrder` (the default) additionally lets reads overtake queued
    /// mutations on the same die when no dependency forbids it.
    pub fn scheduler(mut self, mode: SchedMode) -> Self {
        self.nand = self.nand.scheduler(mode);
        self
    }

    /// Records every scheduled NAND command with its issue/complete
    /// timestamps (see `take_captured_commands` on the FTLs). Off by
    /// default; the scheduler-oracle tests turn it on.
    pub fn capture_commands(mut self, enabled: bool) -> Self {
        self.nand = self.nand.capture_commands(enabled);
        self
    }

    /// Forces the FTL to deep-copy every payload at each internal hop
    /// instead of passing refcounted buffer handles — the legacy data path,
    /// kept as the baseline arm of the zero-copy benchmark. Off by default.
    pub fn copy_payloads(mut self, enabled: bool) -> Self {
        self.copy_payloads = enabled;
        self
    }

    /// Whether payloads are deep-copied at internal hops (benchmark
    /// baseline) instead of moved by reference.
    pub fn copy_payloads_enabled(&self) -> bool {
        self.copy_payloads
    }

    /// Switches garbage collection from stop-the-world bursts to the
    /// incremental background engine: foreground writes pump a resumable
    /// `GcJob` in small budgeted steps once the free pool sinks below the
    /// low watermark (reserve + [`gc_low_water_extra`]), with an urgency
    /// ramp and a blocking fallback at reserve exhaustion. Off by default —
    /// the blocking path stays byte-identical to earlier behavior.
    ///
    /// [`gc_low_water_extra`]: Self::gc_low_water_extra
    pub fn incremental_gc(mut self, enabled: bool) -> Self {
        self.incremental_gc = enabled;
        self
    }

    /// Whether the incremental GC engine is enabled.
    pub fn incremental_gc_enabled(&self) -> bool {
        self.incremental_gc
    }

    /// Sets how many blocks *above* the GC reserve the incremental engine
    /// starts working in the background (the low watermark is
    /// `gc_reserve + extra`). `0` makes incremental GC trigger exactly
    /// where the blocking path does — the degenerate configuration the
    /// differential oracle pins. Default 2.
    pub fn gc_low_water_extra(mut self, extra: u32) -> Self {
        self.gc_low_water_extra = extra;
        self
    }

    /// Blocks above the GC reserve at which incremental GC engages.
    pub fn gc_low_water_extra_blocks(&self) -> u32 {
        self.gc_low_water_extra
    }

    /// Sets the base page budget of one incremental GC step (default 4).
    /// The effective budget per foreground write grows with urgency as the
    /// free pool sinks below the low watermark.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is zero.
    pub fn gc_step_pages(mut self, pages: u32) -> Self {
        assert!(pages >= 1, "gc step budget must be at least one page");
        self.gc_step_pages = pages;
        self
    }

    /// The base incremental GC step budget, in pages.
    pub fn gc_step_budget_pages(&self) -> u32 {
        self.gc_step_pages
    }

    /// Enables erase-suspend/resume in the NAND scheduler: an out-of-order
    /// read arriving while an erase is mid-pulse on its die preempts it
    /// (never an erase of the read's own block) at a 50 µs resume penalty.
    /// Timing only; off by default.
    pub fn erase_suspend(mut self, enabled: bool) -> Self {
        self.nand = self.nand.erase_suspend(enabled);
        self
    }

    /// Caps how many times one erase may be suspended (default 3).
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero.
    pub fn max_erase_suspends(mut self, max: u32) -> Self {
        self.nand = self.nand.max_erase_suspends(max);
        self
    }

    /// Enables write pacing: the device-level write path drains a token
    /// bucket refilled at `pages_per_sec` (scaled down as GC debt rises)
    /// and stalls foreground programs once the bucket runs dry, smoothing
    /// the latency tail instead of slamming into the reserve wall.
    /// `0` (the default) disables pacing.
    pub fn write_pacing(mut self, pages_per_sec: u64) -> Self {
        self.write_pacing_pages_per_sec = pages_per_sec;
        self
    }

    /// The pacing refill rate in pages per second (`0` = disabled).
    pub fn write_pacing_rate(&self) -> u64 {
        self.write_pacing_pages_per_sec
    }

    /// Sets the pacing token-bucket capacity in pages (default 32): bursts
    /// up to this size pass unthrottled even at full debt.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is zero.
    pub fn write_pacing_burst(mut self, pages: u64) -> Self {
        assert!(pages >= 1, "pacing burst must be at least one page");
        self.write_pacing_burst = pages;
        self
    }

    /// The pacing token-bucket capacity, in pages.
    pub fn write_pacing_burst_pages(&self) -> u64 {
        self.write_pacing_burst
    }

    /// The NAND configuration.
    pub fn nand(&self) -> &NandConfig {
        &self.nand
    }

    /// The device geometry.
    pub fn geometry(&self) -> &Geometry {
        self.nand.geometry()
    }

    /// The same configuration (timings, over-provisioning, GC policy,
    /// protection window, …) over a different geometry. Namespace
    /// partitioning uses this to hand each shard an equal slice of the
    /// physical drive without disturbing any other knob.
    pub fn with_geometry(mut self, geometry: Geometry) -> Self {
        self.nand = self.nand.with_geometry(geometry);
        self
    }

    /// The GC free-block reserve.
    pub fn gc_reserve(&self) -> u32 {
        GC_RESERVE_BLOCKS
    }

    /// The protection window.
    pub fn window(&self) -> SimTime {
        self.protection_window
    }

    /// Number of logical pages exported to the host.
    ///
    /// At least one block's worth of pages (plus the GC reserve) is always
    /// held back, even with zero over-provisioning, so GC can make progress.
    pub fn logical_pages(&self) -> u64 {
        let g = self.geometry();
        let total = g.total_pages();
        let op_pages = (total as f64 * self.over_provisioning).ceil() as u64;
        let reserve_pages = (GC_RESERVE_BLOCKS as u64 + 1) * g.pages_per_block() as u64;
        total.saturating_sub(op_pages.max(reserve_pages))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_pages_respects_over_provisioning() {
        let g = Geometry::builder()
            .blocks_per_chip(100)
            .pages_per_block(10)
            .build(); // 1000 pages
        let cfg = FtlConfig::new(g).over_provisioning(0.10);
        // 10% of 1000 = 100 held back > 3 blocks * 10 pages reserve.
        assert_eq!(cfg.logical_pages(), 900);
    }

    #[test]
    fn reserve_floor_applies_with_tiny_op() {
        let g = Geometry::builder()
            .blocks_per_chip(100)
            .pages_per_block(10)
            .build();
        let cfg = FtlConfig::new(g).over_provisioning(0.0);
        // (2 + 1) blocks * 10 pages held back.
        assert_eq!(cfg.logical_pages(), 970);
    }

    #[test]
    #[should_panic(expected = "over-provisioning")]
    fn invalid_op_ratio_panics() {
        FtlConfig::new(Geometry::tiny()).over_provisioning(1.0);
    }

    #[test]
    fn default_window_is_ten_seconds() {
        let cfg = FtlConfig::new(Geometry::tiny());
        assert_eq!(cfg.window(), SimTime::from_secs(10));
    }

    #[test]
    fn wear_leveling_knob() {
        let cfg = FtlConfig::new(Geometry::tiny());
        assert_eq!(cfg.wear_leveling_threshold(), None);
        let cfg = cfg.wear_leveling(8);
        assert_eq!(cfg.wear_leveling_threshold(), Some(8));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_wear_threshold_panics() {
        FtlConfig::new(Geometry::tiny()).wear_leveling(0);
    }

    #[test]
    fn victim_index_defaults_on_and_is_switchable() {
        let cfg = FtlConfig::new(Geometry::tiny());
        assert!(cfg.victim_index_enabled());
        let cfg = cfg.gc_victim_index(false);
        assert!(!cfg.victim_index_enabled());
    }

    #[test]
    fn victim_recording_defaults_off() {
        let cfg = FtlConfig::new(Geometry::tiny());
        assert!(!cfg.gc_victim_recording());
        assert!(cfg.record_gc_victims(true).gc_victim_recording());
    }

    #[test]
    fn scheduler_and_copy_knobs_pass_through() {
        let cfg = FtlConfig::new(Geometry::tiny());
        assert_eq!(cfg.nand().sched_mode(), SchedMode::OutOfOrder);
        assert!(!cfg.copy_payloads_enabled());
        let cfg = cfg
            .scheduler(SchedMode::InOrder)
            .capture_commands(true)
            .copy_payloads(true);
        assert_eq!(cfg.nand().sched_mode(), SchedMode::InOrder);
        assert!(cfg.copy_payloads_enabled());
    }

    #[test]
    fn incremental_gc_knobs_default_off_and_are_settable() {
        let cfg = FtlConfig::new(Geometry::tiny());
        assert!(!cfg.incremental_gc_enabled());
        assert_eq!(cfg.gc_low_water_extra_blocks(), 2);
        assert_eq!(cfg.gc_step_budget_pages(), 4);
        let cfg = cfg
            .incremental_gc(true)
            .gc_low_water_extra(0)
            .gc_step_pages(16);
        assert!(cfg.incremental_gc_enabled());
        assert_eq!(cfg.gc_low_water_extra_blocks(), 0);
        assert_eq!(cfg.gc_step_budget_pages(), 16);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_gc_step_budget_panics() {
        FtlConfig::new(Geometry::tiny()).gc_step_pages(0);
    }

    #[test]
    fn erase_suspend_passes_through_to_nand() {
        let cfg = FtlConfig::new(Geometry::tiny());
        assert!(!cfg.nand().erase_suspend_enabled());
        let cfg = cfg.erase_suspend(true).max_erase_suspends(2);
        assert!(cfg.nand().erase_suspend_enabled());
        assert_eq!(cfg.nand().erase_resume_latency_ns(), 50_000);
        assert_eq!(cfg.nand().max_erase_suspends_limit(), 2);
    }

    #[test]
    fn write_pacing_knobs() {
        let cfg = FtlConfig::new(Geometry::tiny());
        assert_eq!(cfg.write_pacing_rate(), 0);
        assert_eq!(cfg.write_pacing_burst_pages(), 32);
        let cfg = cfg.write_pacing(10_000).write_pacing_burst(8);
        assert_eq!(cfg.write_pacing_rate(), 10_000);
        assert_eq!(cfg.write_pacing_burst_pages(), 8);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_pacing_burst_panics() {
        FtlConfig::new(Geometry::tiny()).write_pacing_burst(0);
    }

    #[test]
    fn default_policy_is_greedy_and_settable() {
        let cfg = FtlConfig::new(Geometry::tiny());
        assert_eq!(cfg.gc_policy_ref(), GcPolicy::Greedy);
        let cfg = cfg.gc_policy(GcPolicy::CostBenefit);
        assert_eq!(cfg.gc_policy_ref(), GcPolicy::CostBenefit);
        assert_eq!(GcPolicy::Fifo.to_string(), "fifo");
    }
}
