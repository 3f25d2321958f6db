//! The baseline page-mapping FTL.

use crate::base::FtlBase;
use crate::config::FtlConfig;
use crate::traits::Ftl;
use crate::{FtlStats, GcVictim, Result};
use bytes::Bytes;
use insider_nand::{Lba, NandStats, SimTime};

/// A conventional page-level mapping FTL with greedy garbage collection.
///
/// This is the paper's comparison baseline ("Conventional SSD" in Fig. 9 and
/// "FTL code" in Fig. 8): overwritten pages are invalidated immediately and
/// reclaimed by the next garbage collection that picks their block, so no
/// old data survives and no rollback is possible.
///
/// # Example
///
/// ```rust
/// use insider_ftl::{ConventionalFtl, Ftl, FtlConfig};
/// use insider_nand::{Geometry, Lba, SimTime};
/// use bytes::Bytes;
///
/// # fn main() -> Result<(), insider_ftl::FtlError> {
/// let mut ftl = ConventionalFtl::new(FtlConfig::new(Geometry::tiny()));
/// ftl.write(Lba::new(0), Bytes::from_static(b"hello"), SimTime::ZERO)?;
/// assert_eq!(ftl.read(Lba::new(0), SimTime::ZERO)?.unwrap().as_ref(), b"hello");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ConventionalFtl {
    base: FtlBase,
}

impl ConventionalFtl {
    /// Creates an empty drive with the given configuration.
    pub fn new(config: FtlConfig) -> Self {
        ConventionalFtl {
            base: FtlBase::new(config),
        }
    }

    /// The configuration this drive was built with.
    pub fn config(&self) -> &FtlConfig {
        self.base.config()
    }

    /// Number of blocks currently in the free pool.
    pub fn free_blocks(&self) -> usize {
        self.base.free_blocks()
    }

    /// Installs a deterministic NAND fault plan; scheduled operations fail
    /// with [`NandError::InjectedFault`](insider_nand::NandError::InjectedFault).
    pub fn set_fault_plan(&mut self, plan: insider_nand::FaultPlan) {
        self.base.set_fault_plan(plan);
    }

    /// NAND busy time as `(serial sum, per-channel-parallel makespan)` —
    /// the parallel figure is the device-level time a multi-channel
    /// controller would take.
    pub fn nand_busy_ns(&self) -> (u64, u64) {
        self.base.nand_busy_ns()
    }

    /// Per-chip and per-channel-bus busy vectors, for phase-delta analyses.
    pub fn nand_busy_detail(&self) -> (Vec<u64>, Vec<u64>) {
        self.base.nand_busy_detail()
    }

    /// OOB records decoded by the most recent mount scan (zero before any
    /// power cycle).
    pub fn mount_scan_entries(&self) -> u64 {
        self.base.mount_scan_entries()
    }

    /// Reads promoted past queued mutations by the out-of-order scheduler.
    pub fn reads_promoted(&self) -> u64 {
        self.base.device.reads_promoted()
    }

    /// Drains and returns the captured command log (empty unless configured
    /// with `FtlConfig::capture_commands(true)`).
    pub fn take_captured_commands(&mut self) -> Vec<insider_nand::CmdRecord> {
        self.base.device.take_captured_commands()
    }

    /// Read-only view of the raw NAND device, for physical-state oracles
    /// (page states, OOB records, scheduler makespans).
    pub fn device(&self) -> &insider_nand::NandDevice {
        &self.base.device
    }

    /// Per-GC-entry device-work percentiles (busy-makespan growth per GC
    /// entry, blocking or incremental); the host-visible GC stall is in
    /// `NandStats::{gc_stalled_cmds, gc_stall_ns}`.
    pub fn gc_pause_latency(&self) -> insider_nand::KindLatency {
        self.base.gc_pause_latency()
    }

    /// Whether an incremental GC job is paused mid-block.
    pub fn gc_job_pending(&self) -> bool {
        self.base.gc_job_pending()
    }

    /// Runs any paused incremental GC job to completion (quiescence helper
    /// for differential oracles and benchmarks).
    ///
    /// # Errors
    ///
    /// Propagates NAND failures from the drained migrations.
    pub fn gc_quiesce(&mut self) -> Result<()> {
        self.base.gc_drain_job(None)
    }
}

impl Ftl for ConventionalFtl {
    fn write(&mut self, lba: Lba, data: Bytes, now: SimTime) -> Result<()> {
        self.base.check_lba(lba)?;
        self.base.gc_before_write(0, None, SimTime::ZERO, now)?;
        let old = self.base.program_mapped(lba, data, now)?;
        if let Some(old) = old {
            self.base.invalidate(old)?;
        }
        self.base.stats.host_writes += 1;
        Ok(())
    }

    fn read(&mut self, lba: Lba, now: SimTime) -> Result<Option<Bytes>> {
        self.base.set_clock(now);
        self.base.check_lba(lba)?;
        let data = self.base.read_mapped(lba)?;
        self.base.stats.host_reads += 1;
        Ok(data)
    }

    fn trim(&mut self, lba: Lba, now: SimTime) -> Result<()> {
        self.base.set_clock(now);
        self.base.check_lba(lba)?;
        if let Some(old) = self.base.mapping.set(lba, None) {
            self.base.invalidate(old)?;
        }
        self.base.stats.host_trims += 1;
        Ok(())
    }

    fn read_extent(&mut self, lba: Lba, len: u32, now: SimTime) -> Result<Vec<Option<Bytes>>> {
        self.base.set_clock(now);
        self.base.check_extent(lba, len)?;
        let out = self.base.read_extent_mapped(lba, len)?;
        self.base.stats.host_reads += len as u64;
        Ok(out)
    }

    fn write_extent(&mut self, lba: Lba, data: &[Bytes], now: SimTime) -> Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        self.base.check_extent(lba, data.len() as u32)?;
        self.base
            .gc_before_write(data.len() as u64, None, SimTime::ZERO, now)?;
        self.base.program_extent_mapped(lba, data, now, None)
    }

    fn power_cut(&mut self, now: SimTime) -> Result<()> {
        self.base.set_clock(now);
        self.base.remount()?;
        Ok(())
    }

    fn trim_extent(&mut self, lba: Lba, len: u32, now: SimTime) -> Result<()> {
        if len == 0 {
            return Ok(());
        }
        self.base.set_clock(now);
        self.base.check_extent(lba, len)?;
        self.base.unmap_extent(lba, len)?;
        Ok(())
    }

    fn sync(&mut self) {
        self.base.sync_device();
    }

    fn latency_snapshot(&self) -> Option<insider_nand::LatencySnapshot> {
        self.base.latency_snapshot()
    }

    fn host_latency_snapshot(&self) -> Option<insider_nand::LatencySnapshot> {
        self.base.host_latency_snapshot()
    }

    fn gc_debt(&self) -> f64 {
        self.base.gc_debt()
    }

    fn stats(&self) -> &FtlStats {
        &self.base.stats
    }

    fn nand_stats(&self) -> &NandStats {
        self.base.device.stats()
    }

    fn logical_pages(&self) -> u64 {
        self.base.logical_pages()
    }

    fn utilization(&self) -> f64 {
        self.base.mapping.utilization()
    }

    fn wear_summary(&self) -> (u32, u32, f64) {
        self.base.device.wear_summary()
    }

    fn gc_victims(&self) -> &[GcVictim] {
        self.base.gc_victims()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insider_nand::Geometry;

    fn ftl() -> ConventionalFtl {
        ConventionalFtl::new(FtlConfig::new(Geometry::tiny()))
    }

    #[test]
    fn write_read_round_trip() {
        let mut f = ftl();
        f.write(Lba::new(1), Bytes::from_static(b"data"), SimTime::ZERO)
            .unwrap();
        assert_eq!(
            f.read(Lba::new(1), SimTime::ZERO)
                .unwrap()
                .unwrap()
                .as_ref(),
            b"data"
        );
        assert_eq!(f.stats().host_writes, 1);
        assert_eq!(f.stats().host_reads, 1);
    }

    #[test]
    fn unmapped_read_is_none() {
        let mut f = ftl();
        assert_eq!(f.read(Lba::new(0), SimTime::ZERO).unwrap(), None);
    }

    #[test]
    fn overwrite_replaces_data() {
        let mut f = ftl();
        let lba = Lba::new(2);
        f.write(lba, Bytes::from_static(b"v1"), SimTime::ZERO)
            .unwrap();
        f.write(lba, Bytes::from_static(b"v2"), SimTime::ZERO)
            .unwrap();
        assert_eq!(f.read(lba, SimTime::ZERO).unwrap().unwrap().as_ref(), b"v2");
    }

    #[test]
    fn trim_unmaps() {
        let mut f = ftl();
        let lba = Lba::new(2);
        f.write(lba, Bytes::from_static(b"v1"), SimTime::ZERO)
            .unwrap();
        f.trim(lba, SimTime::ZERO).unwrap();
        assert_eq!(f.read(lba, SimTime::ZERO).unwrap(), None);
        assert_eq!(f.stats().host_trims, 1);
    }

    #[test]
    fn sustained_overwrites_trigger_gc_without_data_loss() {
        let mut f = ftl();
        // Working set of 8 pages overwritten many times; device has 256 pages.
        for round in 0..200u32 {
            for i in 0..8u64 {
                let payload = Bytes::copy_from_slice(format!("{round}:{i}").as_bytes());
                f.write(Lba::new(i), payload, SimTime::ZERO).unwrap();
            }
        }
        assert!(f.stats().gc_invocations > 0);
        assert_eq!(f.stats().gc_protected_copies, 0, "baseline never protects");
        for i in 0..8u64 {
            assert_eq!(
                f.read(Lba::new(i), SimTime::ZERO)
                    .unwrap()
                    .unwrap()
                    .as_ref(),
                format!("199:{i}").as_bytes()
            );
        }
    }

    #[test]
    fn out_of_range_lba_rejected() {
        let mut f = ftl();
        let max = f.logical_pages();
        assert!(f
            .write(Lba::new(max), Bytes::from_static(b"x"), SimTime::ZERO)
            .is_err());
        assert!(f.read(Lba::new(max), SimTime::ZERO).is_err());
        assert!(f.trim(Lba::new(max), SimTime::ZERO).is_err());
    }

    #[test]
    fn extent_ops_match_scalar_decomposition() {
        let mut scalar = ftl();
        let mut extent = ftl();
        let payloads: Vec<Bytes> = (0..6)
            .map(|i| Bytes::copy_from_slice(format!("pg{i}").as_bytes()))
            .collect();
        for (i, p) in payloads.iter().enumerate() {
            scalar
                .write(Lba::new(3 + i as u64), p.clone(), SimTime::ZERO)
                .unwrap();
        }
        extent
            .write_extent(Lba::new(3), &payloads, SimTime::ZERO)
            .unwrap();
        let scalar_read: Vec<Option<Bytes>> = (0..8)
            .map(|i| scalar.read(Lba::new(2 + i), SimTime::ZERO).unwrap())
            .collect();
        let extent_read = extent.read_extent(Lba::new(2), 8, SimTime::ZERO).unwrap();
        assert_eq!(scalar_read, extent_read);
        assert_eq!(scalar.stats(), extent.stats());
        assert_eq!(scalar.nand_stats(), extent.nand_stats());

        for i in 0..4u64 {
            scalar.trim(Lba::new(3 + i), SimTime::ZERO).unwrap();
        }
        extent.trim_extent(Lba::new(3), 4, SimTime::ZERO).unwrap();
        assert_eq!(scalar.stats(), extent.stats());
        assert_eq!(
            extent.read_extent(Lba::new(3), 4, SimTime::ZERO).unwrap(),
            vec![None; 4]
        );
    }

    #[test]
    fn extent_bounds_checked_once_up_front() {
        let mut f = ftl();
        let max = f.logical_pages();
        let err = f.write_extent(
            Lba::new(max - 1),
            &[Bytes::from_static(b"a"), Bytes::from_static(b"b")],
            SimTime::ZERO,
        );
        assert!(err.is_err());
        assert_eq!(
            f.stats().host_writes,
            0,
            "nothing applied on a straddling extent"
        );
        assert_eq!(
            f.read(Lba::new(max - 1), SimTime::ZERO).unwrap(),
            None,
            "in-range prefix not written either"
        );
        assert!(f.read_extent(Lba::new(max - 1), 2, SimTime::ZERO).is_err());
        assert!(f.trim_extent(Lba::new(max - 1), 2, SimTime::ZERO).is_err());
    }

    #[test]
    fn empty_extents_are_no_ops() {
        let mut f = ftl();
        f.write_extent(Lba::new(0), &[], SimTime::ZERO).unwrap();
        f.trim_extent(Lba::new(0), 0, SimTime::ZERO).unwrap();
        assert!(f
            .read_extent(Lba::new(0), 0, SimTime::ZERO)
            .unwrap()
            .is_empty());
        assert_eq!(
            f.stats().host_writes + f.stats().host_trims + f.stats().host_reads,
            0
        );
    }

    #[test]
    fn utilization_tracks_mapped_pages() {
        let mut f = ftl();
        assert_eq!(f.utilization(), 0.0);
        f.write(Lba::new(0), Bytes::from_static(b"x"), SimTime::ZERO)
            .unwrap();
        assert!(f.utilization() > 0.0);
    }
}
