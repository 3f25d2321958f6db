//! The SSD-Insider FTL: delayed deletion and instant rollback.

use crate::base::{FtlBase, ScanPage};
use crate::config::FtlConfig;
use crate::recovery_queue::RecoveryQueue;
use crate::traits::Ftl;
use crate::{FtlError, FtlStats, GcVictim, Result};
use bytes::Bytes;
use insider_nand::{Lba, NandStats, Ppa, SimTime};
use serde::{Deserialize, Serialize};

/// Outcome of a [`InsiderFtl::rollback`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RollbackReport {
    /// Backup entries applied (mapping-table updates performed).
    pub restored: u64,
    /// Entries older than the protection window, ignored per the paper's
    /// recovery process ("safe" data).
    pub ignored: u64,
    /// Distinct logical pages whose mapping changed.
    pub lbas_touched: u64,
    /// The instant whose state the drive was restored to (one window
    /// before the detection anchor).
    pub restored_to: SimTime,
}

/// The SSD-Insider FTL (paper §III-C).
///
/// The write path is identical to [`ConventionalFtl`](crate::ConventionalFtl)
/// except that superseding a mapping pushes a backup entry into the
/// [`RecoveryQueue`], which *protects* the old physical page: garbage
/// collection migrates protected pages instead of discarding them, and
/// [`rollback`](InsiderFtl::rollback) can restore the mapping table to its
/// state one protection window earlier by pointer updates alone.
///
/// Backup entries retire automatically once they age past the window
/// (10 s by default), bounding both the queue's DRAM footprint and the extra
/// GC cost — the paper measures ~0 % extra copies in the average case and
/// 22 % in the worst case (Fig. 9).
#[derive(Debug)]
pub struct InsiderFtl {
    base: FtlBase,
    queue: RecoveryQueue,
    read_only: bool,
    /// When set, retirement is paused and rollback anchors its window to
    /// this instant (the alarm time) rather than the call time.
    frozen_at: Option<SimTime>,
    /// The newest instant at which a backup entry's protection was
    /// released: `stamp + window` for a retired entry, the call time for a
    /// rollback, the retiring tick's own time after a thaw. A write's GC
    /// pump runs in the idle gap before the write but never before this
    /// instant, because the pump may copy less or erase sooner thanks to
    /// the release.
    released_at: SimTime,
    /// Set by [`thaw_retirement`](Self::thaw_retirement), cleared by the
    /// next [`tick`](Self::tick). The thaw carries no time, and entries
    /// the freeze held past `stamp + window` are released no earlier than
    /// that tick, so it records its own `now` instead.
    thawed: bool,
}

impl InsiderFtl {
    /// Creates an empty drive with the given configuration.
    pub fn new(config: FtlConfig) -> Self {
        let ppb = config.geometry().pages_per_block();
        InsiderFtl {
            base: FtlBase::new(config),
            queue: RecoveryQueue::with_block_size(ppb),
            read_only: false,
            frozen_at: None,
            released_at: SimTime::ZERO,
            thawed: false,
        }
    }

    /// The configuration this drive was built with.
    pub fn config(&self) -> &FtlConfig {
        self.base.config()
    }

    /// The recovery queue (inspection only).
    pub fn recovery_queue(&self) -> &RecoveryQueue {
        &self.queue
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
        self.base.gc_drain_job(Some(&mut self.queue))
    }

    /// Switches write protection on or off. The detection layer sets this
    /// before recovery and clears it after the host reboots.
    pub fn set_read_only(&mut self, read_only: bool) {
        self.read_only = read_only;
    }

    /// Retires backup entries older than the protection window as of `now`.
    /// Called implicitly by every write and trim; exposed so idle periods
    /// can also release protected space. A no-op while retirement is
    /// frozen. Records the newest retired entry's retirement instant, the
    /// floor under the next write's GC pump; the first tick after a thaw
    /// records `now`, since the freeze may have held those entries past
    /// their `stamp + window`.
    pub fn tick(&mut self, now: SimTime) {
        if self.frozen_at.is_some() {
            return;
        }
        let window = self.base.config().window();
        let retired = self.queue.retire_before(now.saturating_sub(window));
        if let Some(newest) = retired.iter().map(|e| e.stamp).max() {
            let released = if self.thawed {
                now
            } else {
                newest.saturating_add(window)
            };
            self.released_at = self.released_at.max(released);
        }
        self.thawed = false;
        self.base.note_retired(&retired);
        debug_assert_eq!(
            self.base.protected_pages(),
            self.queue.protected_count() as u64,
            "victim-index protected count diverged from the recovery queue"
        );
    }

    /// Freezes backup-entry retirement as of `at` (the alarm time). The
    /// detection layer freezes the queue the moment an alarm is raised: the
    /// paper's guarantee is that old versions are "never removed until the
    /// detection algorithm confirms the new versions are safe" — if the
    /// user takes minutes to answer the alarm dialog, the pre-attack
    /// versions must not age out, and a later [`rollback`](Self::rollback)
    /// still rewinds relative to the alarm, not the confirmation.
    pub fn freeze_retirement(&mut self, at: SimTime) {
        self.frozen_at = Some(at);
    }

    /// Thaws retirement (the alarm was dismissed).
    pub fn thaw_retirement(&mut self) {
        self.thawed |= self.frozen_at.take().is_some();
    }

    /// Whether retirement is currently frozen, and since when.
    pub fn retirement_frozen_at(&self) -> Option<SimTime> {
        self.frozen_at
    }

    /// Rolls the mapping table back to its state one protection window before
    /// `now` (paper Fig. 5).
    ///
    /// Backup entries are scanned newest-to-oldest; entries younger than the
    /// window are applied (current version invalidated, old version revived),
    /// older entries are ignored as already safe. The queue is emptied
    /// afterwards. No page data is copied — recovery cost is proportional to
    /// the number of mapping updates, which is why the paper reports < 1 s.
    ///
    /// The caller usually brackets this with
    /// [`set_read_only`](InsiderFtl::set_read_only).
    ///
    /// # Errors
    ///
    /// Propagates NAND bookkeeping failures (out-of-range addresses), which
    /// indicate an internal inconsistency rather than a user error.
    pub fn rollback(&mut self, now: SimTime) -> Result<RollbackReport> {
        // Anchor the window to the freeze (alarm) time when one is set — a
        // user who takes minutes to confirm still gets the 10 s before the
        // alarm undone, which is exactly what the freeze preserved.
        let anchor = self.frozen_at.map_or(now, |f| f.min(now));
        let cutoff = anchor.saturating_sub(self.base.config().window());
        let mut report = RollbackReport {
            restored_to: cutoff,
            ..RollbackReport::default()
        };
        let mut touched = std::collections::HashSet::new();

        // Drain the queue and release every protection *before* rewinding:
        // restore_mapping revalidates old pages (decrementing per-block
        // invalid counts), and the victim index insists protected ≤ invalid
        // at every step.
        let entries = self.queue.take_all();
        self.base.clear_protected();
        self.released_at = self.released_at.max(now);
        for entry in entries.iter().rev() {
            if entry.stamp < cutoff {
                report.ignored += 1;
                continue;
            }
            self.base.restore_mapping(entry.lba, entry.old)?;
            touched.insert(entry.lba);
            report.restored += 1;
        }
        report.lbas_touched = touched.len() as u64;
        // The incident is over: resume normal retirement for new entries.
        self.frozen_at = None;
        Ok(report)
    }

    /// OOB records decoded by the most recent mount scan (zero before any
    /// power cycle).
    pub fn mount_scan_entries(&self) -> u64 {
        self.base.mount_scan_entries()
    }

    /// Simulates a power loss followed by a power-on mount (paper §III-E:
    /// the fsck analogy). All DRAM state is rebuilt from the OOB scan —
    /// including the **recovery queue**, so rollback keeps working across a
    /// crash:
    ///
    /// Each logical page's scan chain, sorted oldest first by
    /// `(stamp, seq)`, is collapsed to one surviving copy per written
    /// version (a GC source and its relocated copy share a stamp; the
    /// fresher copy represents the version). Version `i` then corresponds
    /// to the host write that created it, and the queue entry for that
    /// write is `(lba, predecessor of version i, stamp of version i)` —
    /// `None` when version `i` is the page's first write. Entries older
    /// than the protection window (anchored at the preserved freeze time,
    /// or `now`) were already retired before the cut and are not rebuilt;
    /// for every rebuilt entry the protected predecessor is guaranteed to
    /// still be on flash, because the pre-crash queue protected it from GC.
    ///
    /// Two approximations are inherent to OOB-only reconstruction and are
    /// part of the crash-consistency contract: same-stamp overwrites of one
    /// page collapse to the newest version, and trims (which leave no flash
    /// record) are volatile — a trimmed page whose last content is still on
    /// flash comes back mapped, to an older live copy when that content
    /// survives only as a GC backup copy.
    ///
    /// The read-only latch and the retirement freeze are preserved (modeled
    /// as NVRAM-backed flags, like the alarm state), so a crash between an
    /// alarm and the user's confirmation still rolls back from the alarm
    /// anchor.
    ///
    /// # Errors
    ///
    /// Fails only on internal inconsistencies surfaced by the OOB scan.
    pub fn power_cut(&mut self, now: SimTime) -> Result<()> {
        self.base.set_clock(now);
        let chains = self.base.remount()?;
        self.queue.clear();
        let anchor = self.frozen_at.map_or(now, |f| f.min(now));
        let cutoff = anchor.saturating_sub(self.base.config().window());
        let mut rebuilt: Vec<(SimTime, u64, Lba, Option<Ppa>)> = Vec::new();
        // The scan is flat and sorted by logical page, oldest version
        // first — walk each page's adjacent run in place.
        let mut at = 0;
        while at < chains.len() {
            let lba = chains[at].0;
            let mut end = at + 1;
            while end < chains.len() && chains[end].0 == lba {
                end += 1;
            }
            let run = &chains[at..end];
            at = end;
            if lba.index() >= self.base.logical_pages() {
                continue;
            }
            // One representative (the freshest copy) per written version.
            let mut versions: Vec<ScanPage> = Vec::new();
            for &(_, page) in run {
                match versions.last_mut() {
                    Some(last) if last.stamp == page.stamp => *last = page,
                    _ => versions.push(page),
                }
            }
            // Versions newer than the mapped one survive only as backup
            // copies of content the host trimmed before the cut, so the
            // mount mapped an older live version: the history ends there,
            // which keeps the mapped page out of the protected set.
            let mapped = self.base.mapping.get(lba);
            if let Some(pos) = versions.iter().position(|v| Some(v.ppa) == mapped) {
                versions.truncate(pos + 1);
            }
            for (i, v) in versions.iter().enumerate() {
                if v.stamp >= cutoff {
                    let old = (i > 0).then(|| versions[i - 1].ppa);
                    rebuilt.push((v.stamp, v.seq, lba, old));
                }
            }
        }
        // Retirement pops the queue front in stamp order, so the rebuilt
        // entries must be pushed globally time-sorted; the device sequence
        // number breaks stamp ties deterministically.
        rebuilt.sort_unstable();
        for (stamp, _seq, lba, old) in rebuilt {
            self.queue.push(lba, old, stamp);
            if let Some(old) = old {
                self.base.note_mount_protected(old, lba);
            }
        }
        debug_assert_eq!(
            self.base.protected_pages(),
            self.queue.protected_count() as u64,
            "rebuilt protected mirror diverged from the rebuilt queue"
        );
        Ok(())
    }
}

impl Ftl for InsiderFtl {
    fn write(&mut self, lba: Lba, data: Bytes, now: SimTime) -> Result<()> {
        if self.read_only {
            return Err(FtlError::ReadOnly);
        }
        self.base.check_lba(lba)?;
        self.tick(now);
        self.base
            .gc_before_write(0, Some(&mut self.queue), self.released_at, now)?;
        let old = self.base.program_mapped(lba, data, now)?;
        if let Some(old) = old {
            self.base.invalidate(old)?;
        }
        // Record the pre-image (or its absence) so rollback can undo this
        // write even when it created the logical page.
        self.queue.push(lba, old, now);
        if let Some(old) = old {
            self.base.note_protected(old);
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
        if self.read_only {
            return Err(FtlError::ReadOnly);
        }
        self.base.set_clock(now);
        self.base.check_lba(lba)?;
        self.tick(now);
        if let Some(old) = self.base.mapping.set(lba, None) {
            self.base.invalidate(old)?;
            self.queue.push(lba, Some(old), now);
            self.base.note_protected(old);
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
        if self.read_only {
            return Err(FtlError::ReadOnly);
        }
        self.base.check_extent(lba, data.len() as u32)?;
        self.tick(now);
        self.base.gc_before_write(
            data.len() as u64,
            Some(&mut self.queue),
            self.released_at,
            now,
        )?;
        // The base layer finalizes mapping, invalidation and the vectorized
        // queue append page by page, so a mid-batch NAND failure leaves the
        // programmed prefix fully recoverable.
        self.base
            .program_extent_mapped(lba, data, now, Some(&mut self.queue))
    }

    fn power_cut(&mut self, now: SimTime) -> Result<()> {
        InsiderFtl::power_cut(self, now)
    }

    fn trim_extent(&mut self, lba: Lba, len: u32, now: SimTime) -> Result<()> {
        if len == 0 {
            return Ok(());
        }
        if self.read_only {
            return Err(FtlError::ReadOnly);
        }
        self.base.set_clock(now);
        self.base.check_extent(lba, len)?;
        self.tick(now);
        let olds = self.base.unmap_extent(lba, len)?;
        // Like scalar trim, only pages that were actually mapped leave a
        // backup entry — trimming a hole is not an undoable event.
        for (i, old) in olds.into_iter().enumerate() {
            if let Some(old) = old {
                self.queue.push(lba.offset(i as u64), Some(old), now);
                self.base.note_protected(old);
            }
        }
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
    use insider_nand::{CmdRecord, FaultKind, Geometry};

    fn ftl() -> InsiderFtl {
        InsiderFtl::new(FtlConfig::new(Geometry::tiny()))
    }

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn overwrite_pushes_backup_entry() {
        let mut f = ftl();
        f.write(Lba::new(0), Bytes::from_static(b"v1"), secs(0))
            .unwrap();
        f.write(Lba::new(0), Bytes::from_static(b"v2"), secs(1))
            .unwrap();
        assert_eq!(f.recovery_queue().len(), 2); // first write + overwrite
        assert_eq!(f.recovery_queue().protected_count(), 1);
    }

    #[test]
    fn rollback_restores_overwritten_data() {
        let mut f = ftl();
        // The file exists before the window; the attack happens inside it.
        f.write(Lba::new(0), Bytes::from_static(b"plain"), secs(0))
            .unwrap();
        f.write(Lba::new(0), Bytes::from_static(b"cipher"), secs(15))
            .unwrap();
        let report = f.rollback(secs(16)).unwrap();
        assert_eq!(report.restored, 1);
        // The creation entry was already retired by the write at t=15.
        assert_eq!(report.ignored, 0);
        assert_eq!(
            f.read(Lba::new(0), secs(16)).unwrap().unwrap().as_ref(),
            b"plain"
        );
    }

    #[test]
    fn rollback_restores_oldest_version_within_window() {
        let mut f = ftl();
        f.write(Lba::new(0), Bytes::from_static(b"v0"), secs(0))
            .unwrap();
        f.write(Lba::new(0), Bytes::from_static(b"v1"), secs(12))
            .unwrap();
        f.write(Lba::new(0), Bytes::from_static(b"v2"), secs(14))
            .unwrap();
        f.write(Lba::new(0), Bytes::from_static(b"v3"), secs(15))
            .unwrap();
        // Window is 10 s; detection at t=16 → roll back to state at t=6: "v0".
        f.rollback(secs(16)).unwrap();
        assert_eq!(
            f.read(Lba::new(0), secs(16)).unwrap().unwrap().as_ref(),
            b"v0"
        );
    }

    #[test]
    fn rollback_unmaps_pages_created_within_window() {
        let mut f = ftl();
        f.write(Lba::new(7), Bytes::from_static(b"dropped"), secs(5))
            .unwrap();
        f.rollback(secs(6)).unwrap();
        assert_eq!(f.read(Lba::new(7), secs(6)).unwrap(), None);
    }

    #[test]
    fn rollback_ignores_entries_older_than_window() {
        let mut f = ftl();
        f.write(Lba::new(0), Bytes::from_static(b"old"), secs(0))
            .unwrap();
        f.write(Lba::new(0), Bytes::from_static(b"newer"), secs(1))
            .unwrap();
        // Detection at t=20: both entries are older than t-10 and stay.
        let report = f.rollback(secs(20)).unwrap();
        assert_eq!(report.restored, 0);
        assert_eq!(report.ignored, 2);
        assert_eq!(
            f.read(Lba::new(0), secs(20)).unwrap().unwrap().as_ref(),
            b"newer"
        );
    }

    #[test]
    fn rollback_restores_trimmed_pages() {
        let mut f = ftl();
        f.write(Lba::new(3), Bytes::from_static(b"doc"), secs(0))
            .unwrap();
        f.tick(secs(20)); // retire the creation entry
        f.trim(Lba::new(3), secs(21)).unwrap();
        assert_eq!(f.read(Lba::new(3), secs(21)).unwrap(), None);
        f.rollback(secs(22)).unwrap();
        assert_eq!(
            f.read(Lba::new(3), secs(22)).unwrap().unwrap().as_ref(),
            b"doc"
        );
    }

    #[test]
    fn read_only_blocks_writes_and_trims() {
        let mut f = ftl();
        f.write(Lba::new(0), Bytes::from_static(b"x"), secs(0))
            .unwrap();
        f.set_read_only(true);
        assert_eq!(
            f.write(Lba::new(0), Bytes::from_static(b"y"), secs(1)),
            Err(FtlError::ReadOnly)
        );
        assert_eq!(f.trim(Lba::new(0), secs(1)), Err(FtlError::ReadOnly));
        // Reads still work.
        assert!(f.read(Lba::new(0), secs(1)).unwrap().is_some());
        f.set_read_only(false);
        f.write(Lba::new(0), Bytes::from_static(b"y"), secs(2))
            .unwrap();
    }

    #[test]
    fn tick_retires_expired_entries() {
        let mut f = ftl();
        f.write(Lba::new(0), Bytes::from_static(b"a"), secs(0))
            .unwrap();
        f.write(Lba::new(0), Bytes::from_static(b"b"), secs(1))
            .unwrap();
        assert_eq!(f.recovery_queue().len(), 2);
        f.tick(secs(30));
        assert_eq!(f.recovery_queue().len(), 0);
        assert_eq!(f.recovery_queue().protected_count(), 0);
    }

    #[test]
    fn gc_preserves_protected_old_versions() {
        let mut f = ftl();
        // Block 0 (16 pages) ends up as a deliberate mix:
        //   page 0        valid      "precious" (lba 0, written before window)
        //   pages 1..=6   invalid    pre-images from t=0, retired by t=50
        //   pages 7..=14  invalid    pre-images from t=50, still protected
        //   page 15       valid      current version of lba 1
        f.write(Lba::new(0), Bytes::from_static(b"precious"), secs(0))
            .unwrap();
        for i in 0..7 {
            let data = Bytes::copy_from_slice(format!("early{i}").as_bytes());
            f.write(Lba::new(1), data, secs(0)).unwrap();
        }
        for i in 0..8 {
            let data = Bytes::copy_from_slice(format!("late{i}").as_bytes());
            f.write(Lba::new(1), data, secs(50)).unwrap();
        }
        // Churn a third page at t=50 until GC fires. Churn pre-images are
        // all protected, so the only viable victim is block 0.
        let mut churn = 0;
        while f.stats().gc_invocations == 0 {
            let data = Bytes::copy_from_slice(format!("churn{churn}").as_bytes());
            f.write(Lba::new(2), data, secs(50)).unwrap();
            churn += 1;
            assert!(churn < 400, "gc never triggered");
        }
        assert!(
            f.stats().gc_protected_copies > 0,
            "protected pre-images must have been migrated, stats: {}",
            f.stats()
        );
        // The protected old versions survive GC: rollback still works.
        f.rollback(secs(51)).unwrap();
        assert_eq!(
            f.read(Lba::new(0), secs(51)).unwrap().unwrap().as_ref(),
            b"precious"
        );
        // lba 1 reverts to its newest pre-window version ("early6").
        assert_eq!(
            f.read(Lba::new(1), secs(51)).unwrap().unwrap().as_ref(),
            b"early6"
        );
    }

    #[test]
    fn insider_gc_copies_at_least_as_many_pages_as_baseline() {
        use crate::ConventionalFtl;
        let run = |insider: bool| -> u64 {
            let cfg = FtlConfig::new(Geometry::tiny());
            let mut conv;
            let mut ins;
            let f: &mut dyn Ftl = if insider {
                ins = InsiderFtl::new(cfg);
                &mut ins
            } else {
                conv = ConventionalFtl::new(cfg);
                &mut conv
            };
            // Mixed-age overwrite stream: 60 ms per write over 4 hot pages
            // plus 12 cold pages, so victims carry a mix of live, retired
            // and protected pages.
            for i in 0..12u64 {
                f.write(
                    Lba::new(100 + i),
                    Bytes::from_static(b"cold"),
                    SimTime::ZERO,
                )
                .unwrap();
            }
            for i in 0..600u64 {
                let data = Bytes::copy_from_slice(format!("{i}").as_bytes());
                f.write(Lba::new(i % 4), data, SimTime::from_millis(i * 60))
                    .unwrap();
            }
            f.stats().gc_page_copies
        };
        let conventional = run(false);
        let insider = run(true);
        assert!(
            insider >= conventional,
            "insider ({insider}) must not copy fewer pages than conventional ({conventional})"
        );
    }

    #[test]
    fn rollback_report_counts_touched_lbas() {
        let mut f = ftl();
        f.write(Lba::new(0), Bytes::from_static(b"a"), secs(0))
            .unwrap();
        f.write(Lba::new(0), Bytes::from_static(b"b"), secs(1))
            .unwrap();
        f.write(Lba::new(1), Bytes::from_static(b"c"), secs(2))
            .unwrap();
        let report = f.rollback(secs(3)).unwrap();
        assert_eq!(report.restored, 3);
        assert_eq!(report.lbas_touched, 2);
    }

    #[test]
    fn frozen_retirement_preserves_rollback_window() {
        let mut f = ftl();
        f.write(Lba::new(0), Bytes::from_static(b"plain"), secs(0))
            .unwrap();
        // Attack at t=20; alarm freezes the queue at t=21.
        f.write(Lba::new(0), Bytes::from_static(b"cipher"), secs(20))
            .unwrap();
        f.freeze_retirement(secs(21));
        // The user dithers: ticks and reads at t=300 must not retire the
        // pre-image, and rollback at t=300 anchors to the alarm.
        f.tick(secs(300));
        assert_eq!(f.recovery_queue().protected_count(), 1);
        let report = f.rollback(secs(300)).unwrap();
        assert_eq!(report.restored_to, secs(11));
        assert_eq!(
            f.read(Lba::new(0), secs(300)).unwrap().unwrap().as_ref(),
            b"plain"
        );
        // Rollback thaws: new entries retire normally again.
        assert_eq!(f.retirement_frozen_at(), None);
        f.write(Lba::new(1), Bytes::from_static(b"x"), secs(301))
            .unwrap();
        f.tick(secs(400));
        assert!(f.recovery_queue().is_empty());
    }

    #[test]
    fn thaw_resumes_retirement() {
        let mut f = ftl();
        f.write(Lba::new(0), Bytes::from_static(b"a"), secs(0))
            .unwrap();
        f.freeze_retirement(secs(1));
        f.tick(secs(100));
        assert_eq!(f.recovery_queue().len(), 1, "frozen queue must not drain");
        f.thaw_retirement();
        f.tick(secs(100));
        assert!(f.recovery_queue().is_empty());
    }

    #[test]
    fn extent_write_matches_scalar_queue_and_contents() {
        let mut scalar = ftl();
        let mut extent = ftl();
        let v1: Vec<Bytes> = (0..5)
            .map(|i| Bytes::copy_from_slice(format!("a{i}").as_bytes()))
            .collect();
        let v2: Vec<Bytes> = (0..5)
            .map(|i| Bytes::copy_from_slice(format!("b{i}").as_bytes()))
            .collect();
        for round in [&v1, &v2] {
            for (i, p) in round.iter().enumerate() {
                scalar
                    .write(Lba::new(i as u64), p.clone(), secs(1))
                    .unwrap();
            }
            extent.write_extent(Lba::new(0), round, secs(1)).unwrap();
        }
        assert_eq!(scalar.recovery_queue().len(), extent.recovery_queue().len());
        assert_eq!(
            scalar.recovery_queue().protected_count(),
            extent.recovery_queue().protected_count()
        );
        assert_eq!(scalar.stats(), extent.stats());
        assert_eq!(
            scalar.read_extent(Lba::new(0), 5, secs(1)).unwrap(),
            extent.read_extent(Lba::new(0), 5, secs(1)).unwrap()
        );
    }

    #[test]
    fn extent_write_rolls_back_like_scalar_writes() {
        let mut f = ftl();
        let plain: Vec<Bytes> = (0..4)
            .map(|i| Bytes::copy_from_slice(format!("plain{i}").as_bytes()))
            .collect();
        let cipher: Vec<Bytes> = (0..4)
            .map(|i| Bytes::copy_from_slice(format!("cipher{i}").as_bytes()))
            .collect();
        f.write_extent(Lba::new(0), &plain, secs(0)).unwrap();
        f.write_extent(Lba::new(0), &cipher, secs(15)).unwrap();
        let report = f.rollback(secs(16)).unwrap();
        assert_eq!(report.restored, 4);
        assert_eq!(report.lbas_touched, 4);
        let back = f.read_extent(Lba::new(0), 4, secs(16)).unwrap();
        for (i, page) in back.into_iter().enumerate() {
            assert_eq!(page.unwrap().as_ref(), format!("plain{i}").as_bytes());
        }
    }

    #[test]
    fn extent_trim_records_only_mapped_pages() {
        let mut f = ftl();
        f.write(Lba::new(1), Bytes::from_static(b"doc"), secs(0))
            .unwrap();
        f.tick(secs(20)); // retire the creation entry
                          // Trim lbas 0..4; only lba 1 was mapped.
        f.trim_extent(Lba::new(0), 4, secs(21)).unwrap();
        assert_eq!(f.recovery_queue().len(), 1);
        assert_eq!(f.stats().host_trims, 4);
        f.rollback(secs(22)).unwrap();
        assert_eq!(
            f.read(Lba::new(1), secs(22)).unwrap().unwrap().as_ref(),
            b"doc"
        );
        assert_eq!(f.read(Lba::new(0), secs(22)).unwrap(), None);
    }

    #[test]
    fn read_only_blocks_extent_ops() {
        let mut f = ftl();
        f.write(Lba::new(0), Bytes::from_static(b"x"), secs(0))
            .unwrap();
        f.set_read_only(true);
        assert_eq!(
            f.write_extent(Lba::new(0), &[Bytes::from_static(b"y")], secs(1)),
            Err(FtlError::ReadOnly)
        );
        assert_eq!(
            f.trim_extent(Lba::new(0), 1, secs(1)),
            Err(FtlError::ReadOnly)
        );
        // Empty extents stay no-ops even when read-only.
        assert_eq!(f.write_extent(Lba::new(0), &[], secs(1)), Ok(()));
        assert!(f.read_extent(Lba::new(0), 1, secs(1)).unwrap()[0].is_some());
    }

    /// Commands admitted while `op` runs, in issue order. The drive must be
    /// built with `capture_commands(true)`; the log is drained around `op`.
    fn commands_of(f: &mut InsiderFtl, op: impl FnOnce(&mut InsiderFtl)) -> Vec<CmdRecord> {
        f.take_captured_commands();
        op(f);
        let mut log = f.take_captured_commands();
        log.sort_by_key(|c| c.submit);
        log
    }

    fn ns(t: SimTime) -> u64 {
        t.as_micros() * 1000
    }

    fn is_host_program(c: &CmdRecord) -> bool {
        c.host && c.kind == FaultKind::Program
    }

    /// Latency of one page program on an idle, empty drive.
    fn unloaded_program_ns() -> u64 {
        let mut f = InsiderFtl::new(FtlConfig::new(Geometry::tiny()).capture_commands(true));
        let log = commands_of(&mut f, |f| {
            f.write(Lba::new(0), Bytes::from_static(b"p"), secs(1))
                .unwrap()
        });
        assert_eq!(log.len(), 1);
        log[0].complete_ns - log[0].arrival_ns
    }

    /// A one-die drive (so every GC command shares the host's die) with a
    /// 1 s protection window, filled and then overwritten once with writes
    /// spaced wider than the window. Its free pool sits below the low
    /// watermark, so every further write runs the GC pump. Returns the
    /// drive and the instant of its last write.
    fn aged_one_die() -> (InsiderFtl, SimTime) {
        let config = FtlConfig::new(Geometry::tiny())
            .protection_window(secs(1))
            .capture_commands(true);
        let mut f = InsiderFtl::new(config);
        let mut now = SimTime::ZERO;
        for pass in 0..2 {
            for lba in 0..f.logical_pages() {
                now += if pass == 0 {
                    SimTime::from_millis(1)
                } else {
                    secs(2)
                };
                f.write(Lba::new(lba), Bytes::from_static(b"age"), now)
                    .unwrap();
            }
        }
        (f, now)
    }

    #[test]
    fn write_after_an_idle_gap_sees_an_unloaded_program() {
        let unloaded = unloaded_program_ns();
        let (mut f, mut now) = aged_one_die();
        let mut pumped = 0;
        for i in 0..256 {
            now += SimTime::from_millis(500);
            let log = commands_of(&mut f, |f| {
                f.write(Lba::new(i % 16), Bytes::from_static(b"hot"), now)
                    .unwrap()
            });
            if log.iter().any(|c| !c.host) {
                pumped += 1;
            }
            let program = log.iter().find(|c| is_host_program(c)).unwrap();
            assert_eq!(program.arrival_ns, ns(now));
            assert_eq!(
                program.complete_ns - program.arrival_ns,
                unloaded,
                "write {i}: the pump's work queued ahead of the host program"
            );
        }
        assert!(pumped >= 16, "only {pumped} of 256 writes ran GC work");
    }

    #[test]
    fn zero_gap_write_pumps_no_earlier_than_the_previous_command() {
        let unloaded = unloaded_program_ns();
        let (mut f, mut now) = aged_one_die();
        let mut pumped = 0;
        for i in 0..256 {
            now += SimTime::from_millis(200);
            let lba = Lba::new(i % 16);
            commands_of(&mut f, |f| {
                f.write(lba, Bytes::from_static(b"a"), now).unwrap()
            });
            // Same instant: no idle gap to move the pump into.
            let log = commands_of(&mut f, |f| {
                f.write(lba, Bytes::from_static(b"b"), now).unwrap()
            });
            let gc: Vec<&CmdRecord> = log.iter().filter(|c| !c.host).collect();
            if gc.is_empty() {
                continue;
            }
            pumped += 1;
            assert!(gc.iter().all(|c| c.arrival_ns >= ns(now)));
            // The pump still runs ahead of the write and the write waits
            // for it on the shared die.
            let program = log.iter().find(|c| is_host_program(c)).unwrap();
            assert!(gc.iter().all(|c| c.submit < program.submit));
            assert!(program.complete_ns - program.arrival_ns > unloaded);
        }
        assert!(pumped >= 16, "only {pumped} of 256 writes ran GC work");
    }

    #[test]
    fn pump_never_precedes_the_release_it_consumed() {
        let (mut f, mut now) = aged_one_die();
        let window = f.config().window();
        let mut gc_commands = [0; 3];
        for round in 0..18 {
            // A burst of overwrites protects their pre-images for one
            // window.
            for j in 0..8 {
                now += SimTime::from_millis(1);
                f.write(Lba::new(round * 8 + j), Bytes::from_static(b"burst"), now)
                    .unwrap();
            }
            // The protection ends by retirement at the write after the
            // gap, by a rollback at its call, or by a thaw after a freeze
            // that held the burst past its window.
            let case = (round % 3) as usize;
            let released = match case {
                0 => {
                    let retires = now + window;
                    now += secs(3);
                    retires
                }
                1 => {
                    let rollback = now + SimTime::from_millis(500);
                    f.rollback(rollback).unwrap();
                    now = rollback + SimTime::from_millis(100);
                    rollback
                }
                _ => {
                    f.freeze_retirement(now);
                    let thaw = now + window + secs(2);
                    f.thaw_retirement();
                    now = thaw + SimTime::from_millis(100);
                    thaw
                }
            };
            let log = commands_of(&mut f, |f| {
                f.write(Lba::new(200), Bytes::from_static(b"late"), now)
                    .unwrap()
            });
            for c in log.iter().filter(|c| !c.host) {
                gc_commands[case] += 1;
                assert!(
                    c.arrival_ns >= ns(released),
                    "round {round}: GC command at {} ns precedes the release at {released}",
                    c.arrival_ns
                );
            }
        }
        assert!(
            gc_commands.iter().all(|&n| n > 0),
            "a release path never pumped: {gc_commands:?}"
        );
    }

    #[test]
    fn write_after_rollback_starts_fresh_history() {
        let mut f = ftl();
        f.write(Lba::new(0), Bytes::from_static(b"v1"), secs(0))
            .unwrap();
        f.rollback(secs(1)).unwrap();
        assert!(f.recovery_queue().is_empty());
        f.write(Lba::new(0), Bytes::from_static(b"v2"), secs(2))
            .unwrap();
        assert_eq!(
            f.read(Lba::new(0), secs(2)).unwrap().unwrap().as_ref(),
            b"v2"
        );
    }
}
