//! Machinery shared by the conventional and SSD-Insider FTLs: page
//! allocation, the reverse map, and greedy garbage collection.

use crate::config::{FtlConfig, GcPolicy};
use crate::mapping::MappingTable;
use crate::recovery_queue::{BackupEntry, RecoveryQueue};
use crate::stats::{FtlStats, GcVictim, GcVictimKind};
use crate::{FtlError, Result};
use bytes::Bytes;
use insider_nand::{
    KindLatency, LatencyHistogram, Lba, NandDevice, NandError, OobTag, PageState, Pba, Ppa, SimTime,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Instant;

/// Incrementally maintained GC victim candidates, bucketed by reclaimable
/// page count (`invalid − protected`).
///
/// Every closed in-service block with a non-zero reclaimable count sits in
/// `buckets[chip][reclaimable]`, ordered by a policy-dependent tie-break
/// key: the raw block index for greedy (reproducing the legacy scan's
/// first-strict-max order) and the block's open epoch for the age-based
/// policies. Candidates are bucketed *per chip* because the cross-chip
/// rule breaks exact score ties by chip dryness (see
/// [`FtlBase::select_victim`]), so selection needs each chip's best
/// candidate and its score. Within a chip, one structure serves all three
/// policies *exactly*, scoring with the legacy scan's `f64` expressions:
///
/// * **Greedy** — head of the highest non-empty bucket, O(1) amortized via
///   the lazily lowered `max_r` hint.
/// * **FIFO** — open epochs are unique, and within a bucket the head holds
///   the minimum epoch, so the oldest candidate is the minimum over the
///   ≤ pages-per-block bucket heads.
/// * **Cost-benefit** — the score `r · age / (ppb − r + 1)` is, for blocks
///   in the same bucket (same `r`), strictly decreasing in epoch, so each
///   bucket's head strictly dominates the rest of its bucket; the exact
///   argmax is found by scoring one head per bucket with the same `f64`
///   expression the legacy scan evaluates, keeping scores bit-identical.
///
/// Updates (re-filing one block) are O(log B); selection is O(C) for
/// greedy and O(C·P) for the age-based policies, where C = chips and
/// P = pages per block — versus the legacy scan's O(B) with B = total
/// blocks.
#[derive(Debug)]
struct VictimIndex {
    /// `buckets[chip][reclaimable]` → candidates on that chip.
    buckets: Vec<Vec<BTreeSet<(u64, u32)>>>,
    /// For indexed blocks, the `(reclaimable, key)` they are filed under.
    slot: Vec<Option<(u32, u64)>>,
    /// Per-chip upper bound on the highest non-empty bucket, lowered lazily.
    max_r: Vec<usize>,
    /// Age-based policies key by epoch; greedy keys by block index.
    key_by_epoch: bool,
    blocks_per_chip: u32,
}

impl VictimIndex {
    fn new(
        total_blocks: usize,
        pages_per_block: usize,
        policy: GcPolicy,
        blocks_per_chip: u32,
    ) -> Self {
        let chips = total_blocks / blocks_per_chip as usize;
        VictimIndex {
            buckets: vec![vec![BTreeSet::new(); pages_per_block + 1]; chips],
            slot: vec![None; total_blocks],
            max_r: vec![0; chips],
            key_by_epoch: !matches!(policy, GcPolicy::Greedy),
            blocks_per_chip,
        }
    }

    fn chip_of(&self, raw: u32) -> usize {
        (raw / self.blocks_per_chip) as usize
    }

    /// Files candidate `raw` under `reclaimable`, dropping it when zero.
    fn update(&mut self, raw: u32, reclaimable: u32, epoch: u64) {
        let key = if self.key_by_epoch { epoch } else { raw as u64 };
        if reclaimable > 0 && self.slot[raw as usize] == Some((reclaimable, key)) {
            return;
        }
        self.remove(raw);
        if reclaimable > 0 {
            let chip = self.chip_of(raw);
            self.buckets[chip][reclaimable as usize].insert((key, raw));
            self.slot[raw as usize] = Some((reclaimable, key));
            self.max_r[chip] = self.max_r[chip].max(reclaimable as usize);
        }
    }

    fn remove(&mut self, raw: u32) {
        if let Some((r, key)) = self.slot[raw as usize].take() {
            let chip = self.chip_of(raw);
            self.buckets[chip][r as usize].remove(&(key, raw));
        }
    }

    /// Lowers a chip's `max_r` hint onto its highest non-empty bucket.
    fn settle(&mut self, chip: usize) {
        while self.max_r[chip] > 0 && self.buckets[chip][self.max_r[chip]].is_empty() {
            self.max_r[chip] -= 1;
        }
    }

    /// Most reclaimable pages on `chip`, lowest block index on ties;
    /// scored by the reclaimable count.
    fn best_greedy(&mut self, chip: usize) -> Option<(u32, f64)> {
        self.settle(chip);
        let r = self.max_r[chip];
        self.buckets[chip][r]
            .first()
            .map(|&(_, raw)| (raw, r as f64))
    }

    /// Oldest open epoch among `chip`'s candidates (epochs are unique);
    /// scored by the negated epoch.
    fn best_fifo(&mut self, chip: usize) -> Option<(u32, f64)> {
        self.settle(chip);
        self.buckets[chip]
            .iter()
            .skip(1)
            .take(self.max_r[chip])
            .filter_map(BTreeSet::first)
            .min_by_key(|&&(epoch, _)| epoch)
            .map(|&(epoch, raw)| (raw, -(epoch as f64)))
    }

    /// Exact cost-benefit argmax over `chip`'s bucket heads, scored with
    /// the legacy scan's expression and its lowest-block tie-break.
    fn best_cost_benefit(&mut self, chip: usize, next_epoch: u64, ppb: u32) -> Option<(u32, f64)> {
        self.settle(chip);
        let mut best: Option<(u32, f64)> = None;
        for (r, bucket) in self.buckets[chip]
            .iter()
            .enumerate()
            .skip(1)
            .take(self.max_r[chip])
        {
            let Some(&(epoch, raw)) = bucket.first() else {
                continue;
            };
            let age = (next_epoch - epoch) as f64;
            let cost = (ppb - r as u32) as f64 + 1.0;
            let score = r as f64 * age / cost;
            let better = match best {
                None => true,
                Some((best_raw, s)) => score > s || (score == s && raw < best_raw),
            };
            if better {
                best = Some((raw, score));
            }
        }
        best
    }
}

/// Erase-count extremes maintained incrementally so wear leveling stops
/// rescanning the device: a histogram over every non-bad block (the hottest
/// extreme includes free and active blocks, like the legacy scan) and a
/// sorted set of closed in-service blocks (the coldest migration candidate,
/// with the scan's lowest-block-index tie-break).
#[derive(Debug)]
struct WearTracker {
    all: BTreeMap<u32, u32>,
    closed: BTreeMap<u32, BTreeSet<u32>>,
}

impl WearTracker {
    fn new(total_blocks: u32) -> Self {
        let mut all = BTreeMap::new();
        if total_blocks > 0 {
            all.insert(0, total_blocks);
        }
        WearTracker {
            all,
            closed: BTreeMap::new(),
        }
    }

    /// A full active block became a closed (coldest-eligible) block.
    fn close(&mut self, raw: u32, wear: u32) {
        let fresh = self.closed.entry(wear).or_default().insert(raw);
        debug_assert!(fresh, "block {raw} closed twice");
    }

    /// A closed block was erased back into the free pool; erase counts only
    /// advance on *successful* erases (the device checks endurance and
    /// injected faults first), so `wear_before + 1` is its new count.
    fn erase(&mut self, raw: u32, wear_before: u32) {
        self.remove_closed(raw, wear_before);
        self.shift_all(wear_before, 1);
    }

    /// A closed block hit its endurance limit and left service for good.
    fn retire(&mut self, raw: u32, wear: u32) {
        self.remove_closed(raw, wear);
        self.shift_all(wear, 0);
    }

    fn remove_closed(&mut self, raw: u32, wear: u32) {
        let set = self.closed.get_mut(&wear).expect("closed block tracked");
        let removed = set.remove(&raw);
        debug_assert!(removed, "closed block {raw} missing from wear tracker");
        if set.is_empty() {
            self.closed.remove(&wear);
        }
    }

    /// Moves one block out of histogram bin `wear`, into `wear + by` when
    /// `by > 0` (erase) or out of the histogram entirely (retirement).
    fn shift_all(&mut self, wear: u32, by: u32) {
        let slot = self.all.get_mut(&wear).expect("wear histogram entry");
        *slot -= 1;
        if *slot == 0 {
            self.all.remove(&wear);
        }
        if by > 0 {
            *self.all.entry(wear + by).or_insert(0) += 1;
        }
    }

    /// Highest erase count among non-bad blocks (0 when none remain).
    fn hottest(&self) -> u32 {
        self.all.keys().next_back().copied().unwrap_or(0)
    }

    /// Coldest closed in-service block `(raw, wear)`.
    fn coldest(&self) -> Option<(u32, u32)> {
        let (&wear, set) = self.closed.iter().next()?;
        set.first().map(|&raw| (raw, wear))
    }
}

/// Common FTL state: the device, the forward and reverse maps, the free-block
/// pool and the statistics. The two public FTLs compose this and differ only
/// in how they treat superseded pages.
#[derive(Debug)]
pub(crate) struct FtlBase {
    pub device: NandDevice,
    pub mapping: MappingTable,
    /// Reverse map PPA → LBA, standing in for the out-of-band (OOB) metadata
    /// real firmware writes next to each page. For a *protected invalid*
    /// page it names the logical page whose old version it holds.
    rmap: Vec<Option<Lba>>,
    /// Free-block pools, one per chip (die): allocation stripes pages
    /// across dies (one active block per die, round-robin), which is what
    /// lets a multi-channel/multi-way controller overlap NAND operations —
    /// the source of the paper's card's bandwidth.
    free: Vec<VecDeque<Pba>>,
    /// Mirror of `free` membership for O(1) lookups.
    free_flags: Vec<bool>,
    /// Cached sum of the per-chip free-pool lengths, so the GC thresholds
    /// on the write hot path cost O(1) instead of O(chips).
    free_count: usize,
    /// Blocks retired after hitting their endurance limit; never selected
    /// as GC victims and never returned to the free pool.
    bad_flags: Vec<bool>,
    /// Mirror of `active` membership per raw block index, replacing the
    /// O(chips) `active.contains` probes on the selection paths.
    active_flags: Vec<bool>,
    /// Invalid-page count per block, maintained incrementally.
    invalid_per_block: Vec<u32>,
    /// Per-block count of pages the recovery queue currently protects,
    /// mirrored here from the queue's push/retire/relocate deltas so victim
    /// scoring never polls the queue. Debug builds assert the mirror
    /// reconciles with the queue's own counts.
    protected_per_block: Vec<u32>,
    protected_total: u64,
    /// Monotone counter of block openings; `block_epoch[b]` is the epoch at
    /// which block `b` last became the active block (FIFO/cost-benefit age).
    block_epoch: Vec<u64>,
    next_epoch: u64,
    /// One active (partially programmed) block per chip.
    active: Vec<Option<Pba>>,
    /// Round-robin chip cursor for page allocation.
    next_chip: usize,
    /// Incremental victim index; the legacy scan behind
    /// `FtlConfig::gc_victim_index(false)` is its differential oracle.
    victims: VictimIndex,
    /// Incremental erase-count extremes for wear leveling.
    wear: WearTracker,
    /// Victim log, populated when `FtlConfig::record_gc_victims` is on.
    victim_log: Vec<GcVictim>,
    /// OOB records decoded by the most recent [`remount`](Self::remount)
    /// scan (zero before any mount) — the size of the structure an on-device
    /// implementation would stream through during power-on recovery.
    mount_scan_entries: u64,
    /// In-flight incremental GC job, `None` at quiescence (and always
    /// `None` on the blocking path). Dropped — not persisted — across a
    /// power cut; the half-migrated victim is simply re-selectable.
    gc_job: Option<GcJob>,
    /// Per-GC-entry device-work histogram: the growth of the device's
    /// parallel busy makespan across each GC entry (blocking drain or
    /// incremental pump). It measures how much die time an entry spent,
    /// not how long the host waited: the pump runs in the idle gap before
    /// a write, and the host-visible stall is what the scheduler counts in
    /// `NandStats::{gc_stalled_cmds, gc_stall_ns}`.
    gc_pause_hist: LatencyHistogram,
    pub stats: FtlStats,
    config: FtlConfig,
}

/// One OOB record surfaced by the mount-time scan, in the physical page it
/// was read from. [`FtlBase::remount`] returns these flat, sorted by
/// logical page and by `(stamp, seq)` — oldest version first — within each
/// page's adjacent run, so the SSD-Insider FTL can rebuild its recovery
/// queue without a second scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ScanPage {
    /// Physical page the record was read from.
    pub ppa: Ppa,
    /// Device-stamped monotone program sequence number.
    pub seq: u64,
    /// Host write time carried in the OOB tag (preserved across GC copies).
    pub stamp: SimTime,
    /// `true` when the page held the current version at program time;
    /// `false` for GC backup copies of superseded versions.
    pub live: bool,
}

/// A completed mount scan: the flat record set in canonical
/// `(logical page, stamp, seq)` order, plus the per-block programmed-page
/// watermarks and minimum OOB sequence numbers.
type MountScan = (Vec<(Lba, ScanPage)>, Vec<u32>, Vec<Option<u64>>);

/// A resumable garbage-collection job: one selected victim block plus a
/// cursor over its page offsets. [`FtlBase::gc_step`] migrates pages from
/// the cursor forward under a budget, persisting the cursor between pumps.
/// Page migration re-reads the physical page state at execution time, so a
/// job can be paused, resumed after arbitrary host writes, or dropped
/// mid-block (power cut) without special cases: unmigrated offsets are
/// re-examined fresh, migrated ones are already `Invalid`/`Free`.
///
/// The victim stays pinned while the job is paused — it is neither free nor
/// active, so the host can never program into it, and victim *selection*
/// only ever runs when no job is pending, so the selectors' indexes cannot
/// go stale under a half-collected block.
#[derive(Debug, Clone, Copy)]
struct GcJob {
    victim: Pba,
    /// Reclaim jobs count as `gc_invocations` on completion, wear-level
    /// jobs as `wear_level_swaps` — mirroring the blocking collector.
    kind: GcVictimKind,
    /// Next page offset to examine in the victim block.
    cursor: u32,
}

impl FtlBase {
    pub fn new(config: FtlConfig) -> Self {
        let device = NandDevice::new(config.nand().clone());
        let g = *config.geometry();
        let chips = g.total_chips() as usize;
        let mut free: Vec<VecDeque<Pba>> = vec![VecDeque::new(); chips];
        for raw in 0..g.total_blocks() {
            let pba = Pba::new(raw);
            free[(raw / g.blocks_per_chip()) as usize].push_back(pba);
        }
        FtlBase {
            device,
            mapping: MappingTable::new(config.logical_pages()),
            rmap: vec![None; g.total_pages() as usize],
            free,
            free_flags: vec![true; g.total_blocks() as usize],
            free_count: g.total_blocks() as usize,
            bad_flags: vec![false; g.total_blocks() as usize],
            active_flags: vec![false; g.total_blocks() as usize],
            invalid_per_block: vec![0; g.total_blocks() as usize],
            protected_per_block: vec![0; g.total_blocks() as usize],
            protected_total: 0,
            block_epoch: vec![0; g.total_blocks() as usize],
            next_epoch: 1,
            active: vec![None; chips],
            next_chip: 0,
            victims: VictimIndex::new(
                g.total_blocks() as usize,
                g.pages_per_block() as usize,
                config.gc_policy_ref(),
                g.blocks_per_chip(),
            ),
            wear: WearTracker::new(g.total_blocks()),
            victim_log: Vec::new(),
            mount_scan_entries: 0,
            gc_job: None,
            gc_pause_hist: LatencyHistogram::new(),
            stats: FtlStats::new(),
            config,
        }
    }

    /// OOB records decoded by the most recent mount scan (zero before any
    /// power cycle).
    pub fn mount_scan_entries(&self) -> u64 {
        self.mount_scan_entries
    }

    pub fn config(&self) -> &FtlConfig {
        &self.config
    }

    /// Installs a deterministic NAND fault plan (failure-injection tests).
    pub fn set_fault_plan(&mut self, plan: insider_nand::FaultPlan) {
        self.device.set_fault_plan(plan);
    }

    /// Device busy time as `(serial sum, parallel makespan)`.
    pub fn nand_busy_ns(&self) -> (u64, u64) {
        (self.device.stats().busy_ns, self.device.parallel_busy_ns())
    }

    /// Per-chip and per-channel-bus busy vectors (phase-delta analyses).
    pub fn nand_busy_detail(&self) -> (Vec<u64>, Vec<u64>) {
        (
            self.device.chip_busy_ns().to_vec(),
            self.device.bus_busy_ns().to_vec(),
        )
    }

    /// Advances the device command scheduler's clock to the simulated time
    /// of the host operation about to run, so queued commands from earlier
    /// operations are finalized before new ones are admitted. Reads, trims
    /// and mounts call this first; writes advance the clock through
    /// [`gc_before_write`](Self::gc_before_write), after their GC pump.
    /// Monotone: an earlier instant leaves the clock where it is.
    pub fn set_clock(&mut self, now: SimTime) {
        self.device.set_now(now);
    }

    /// Drains the device command scheduler (see [`Ftl::sync`]).
    ///
    /// [`Ftl::sync`]: crate::Ftl::sync
    pub fn sync_device(&mut self) {
        self.device.sync();
    }

    /// Scheduler latency percentiles, `None` under the legacy makespan
    /// model (see [`Ftl::latency_snapshot`]).
    ///
    /// [`Ftl::latency_snapshot`]: crate::Ftl::latency_snapshot
    pub fn latency_snapshot(&self) -> Option<insider_nand::LatencySnapshot> {
        if self.device.sched_mode() == insider_nand::SchedMode::Legacy {
            None
        } else {
            Some(self.device.latency_snapshot())
        }
    }

    /// Latency percentiles over host-issued commands only — GC-context
    /// work excluded (see [`Ftl::host_latency_snapshot`]).
    ///
    /// [`Ftl::host_latency_snapshot`]: crate::Ftl::host_latency_snapshot
    pub fn host_latency_snapshot(&self) -> Option<insider_nand::LatencySnapshot> {
        if self.device.sched_mode() == insider_nand::SchedMode::Legacy {
            None
        } else {
            Some(self.device.host_latency_snapshot())
        }
    }

    /// Passes a payload across an internal hop: a refcount bump on the
    /// zero-copy path, a deep copy when the FTL was configured with
    /// `FtlConfig::copy_payloads(true)` (the benchmark's legacy baseline).
    fn hop(&self, data: &Bytes) -> Bytes {
        if self.config.copy_payloads_enabled() {
            Bytes::copy_from_slice(data)
        } else {
            data.clone()
        }
    }

    pub fn logical_pages(&self) -> u64 {
        self.mapping.len()
    }

    /// Number of blocks in the free pools (excluding active blocks).
    pub fn free_blocks(&self) -> usize {
        debug_assert_eq!(
            self.free_count,
            self.free.iter().map(VecDeque::len).sum::<usize>(),
            "free-count cache diverged from the pools"
        );
        self.free_count
    }

    pub fn check_lba(&self, lba: Lba) -> Result<()> {
        if self.mapping.contains(lba) {
            Ok(())
        } else {
            Err(FtlError::LbaOutOfRange {
                lba,
                logical_pages: self.mapping.len(),
            })
        }
    }

    /// One bounds check for a whole extent: every page of `[lba, lba+len)`
    /// must be inside the logical range. The reported address is the first
    /// out-of-range page, matching what a scalar decomposition would hit.
    pub fn check_extent(&self, lba: Lba, len: u32) -> Result<()> {
        let logical = self.mapping.len();
        let end = lba.index().checked_add(len as u64);
        match end {
            _ if len == 0 => Ok(()),
            Some(end) if end <= logical => Ok(()),
            _ => Err(FtlError::LbaOutOfRange {
                lba: Lba::new(lba.index().max(logical)),
                logical_pages: logical,
            }),
        }
    }

    #[cfg(test)]
    pub fn rmap_of(&self, ppa: Ppa) -> Option<Lba> {
        self.rmap[ppa.index() as usize]
    }

    /// Hands out the next programmable physical page, rotating across one
    /// active block per chip so consecutive pages land on different dies;
    /// a chip whose pool is empty is skipped until GC refills it.
    fn allocate(&mut self) -> Result<Ppa> {
        let g = *self.config.geometry();
        let chips = self.active.len();
        for attempt in 0..chips {
            let chip = (self.next_chip + attempt) % chips;
            loop {
                if let Some(pba) = self.active[chip] {
                    let block = self.device.block(pba)?;
                    if let Some(offset) = block.write_ptr() {
                        self.next_chip = (chip + 1) % chips;
                        return Ok(pba.page(&g, offset));
                    }
                    let wear = block.erase_count();
                    self.close_active(chip, pba, wear);
                }
                match self.free[chip].pop_front() {
                    Some(pba) => self.open_block(chip, pba),
                    None => break, // this chip is dry; try the next
                }
            }
        }
        Err(FtlError::NoReclaimableSpace)
    }

    /// Opens a fresh free block as `chip`'s active block.
    fn open_block(&mut self, chip: usize, pba: Pba) {
        let raw = pba.index() as usize;
        self.free_flags[raw] = false;
        self.free_count -= 1;
        self.active_flags[raw] = true;
        self.block_epoch[raw] = self.next_epoch;
        self.next_epoch += 1;
        self.active[chip] = Some(pba);
    }

    /// Closes `chip`'s full active block: it becomes a GC-victim and a
    /// wear-leveling (coldest) candidate.
    fn close_active(&mut self, chip: usize, pba: Pba, wear: u32) {
        let raw = pba.index();
        self.active[chip] = None;
        self.active_flags[raw as usize] = false;
        self.wear.close(raw, wear);
        self.refresh_victim(raw);
    }

    /// Re-files a block in the victim index after any state transition
    /// touching its candidacy or reclaimable count.
    fn refresh_victim(&mut self, raw: u32) {
        let i = raw as usize;
        if self.free_flags[i] || self.bad_flags[i] || self.active_flags[i] {
            self.victims.remove(raw);
            return;
        }
        let invalid = self.invalid_per_block[i];
        let protected = self.protected_per_block[i];
        debug_assert!(
            protected <= invalid,
            "protected pages must be invalid (block {raw}: {protected} > {invalid})"
        );
        self.victims
            .update(raw, invalid - protected, self.block_epoch[i]);
    }

    /// Records that the recovery queue began protecting `ppa`. The FTL
    /// mirrors the queue's per-block protected counts so victim scoring
    /// never has to poll it; every protection change must flow through
    /// these hooks.
    pub fn note_protected(&mut self, ppa: Ppa) {
        let raw = ppa.block(self.config.geometry()).index();
        self.protected_per_block[raw as usize] += 1;
        self.protected_total += 1;
        self.refresh_victim(raw);
    }

    /// Records that the recovery queue released `ppa`.
    pub fn note_unprotected(&mut self, ppa: Ppa) {
        let raw = ppa.block(self.config.geometry()).index();
        self.protected_per_block[raw as usize] -= 1;
        self.protected_total -= 1;
        self.refresh_victim(raw);
    }

    /// Applies the per-block deltas of a retirement batch — the entries
    /// [`RecoveryQueue::retire_before`] returned.
    pub fn note_retired(&mut self, retired: &[BackupEntry]) {
        for entry in retired {
            if let Some(old) = entry.old {
                self.note_unprotected(old);
            }
        }
    }

    /// Zeroes the protected-count mirror. Rollback drains the whole queue
    /// up front (see [`RecoveryQueue::take_all`]) and must release the
    /// mirror *before* rewinding mappings: revalidating an old version
    /// decrements its block's invalid count, which may never drop below the
    /// protected count.
    pub fn clear_protected(&mut self) {
        if self.protected_total == 0 {
            return;
        }
        self.protected_total = 0;
        for raw in 0..self.protected_per_block.len() {
            if self.protected_per_block[raw] != 0 {
                self.protected_per_block[raw] = 0;
                self.refresh_victim(raw as u32);
            }
        }
    }

    /// Total protected pages mirrored from the queue (debug reconciliation).
    pub fn protected_pages(&self) -> u64 {
        self.protected_total
    }

    /// Recorded victim-selection events (empty unless
    /// `FtlConfig::record_gc_victims` is enabled).
    pub fn gc_victims(&self) -> &[GcVictim] {
        &self.victim_log
    }

    fn log_victim(&mut self, kind: GcVictimKind, pba: Pba) {
        if self.config.gc_victim_recording() {
            self.victim_log.push(GcVictim {
                kind,
                block: pba.index(),
            });
        }
    }

    /// Reserves `n` programmable physical pages with the same die-striping
    /// rotation as [`allocate`](Self::allocate), without programming them.
    ///
    /// The device's per-block write pointer only advances when a page is
    /// actually programmed, so a batch reservation must account for pages
    /// handed out earlier in the same extent: `reserved[chip]` counts the
    /// offsets claimed ahead of the active block's write pointer. The
    /// caller programs the reservation in order (one grouped submit), which
    /// preserves NAND's in-order-programming constraint per block.
    ///
    /// A block left reservation-full is closed (its chip opens a fresh
    /// block); if the subsequent batch program aborts mid-extent, the
    /// closed block's unprogrammed tail is stranded until GC erases it —
    /// the price of grouping, only paid on injected faults.
    fn allocate_extent(&mut self, n: usize) -> Result<Vec<Ppa>> {
        let g = *self.config.geometry();
        let ppb = g.pages_per_block();
        let chips = self.active.len();
        let mut reserved = vec![0u32; chips];
        let mut out = Vec::with_capacity(n);
        'pages: for _ in 0..n {
            for attempt in 0..chips {
                let chip = (self.next_chip + attempt) % chips;
                loop {
                    if let Some(pba) = self.active[chip] {
                        let block = self.device.block(pba)?;
                        let base = block.write_ptr().unwrap_or(ppb);
                        let offset = base + reserved[chip];
                        if offset < ppb {
                            reserved[chip] += 1;
                            self.next_chip = (chip + 1) % chips;
                            out.push(pba.page(&g, offset));
                            continue 'pages;
                        }
                        let wear = block.erase_count();
                        self.close_active(chip, pba, wear);
                        reserved[chip] = 0;
                    }
                    match self.free[chip].pop_front() {
                        Some(pba) => self.open_block(chip, pba),
                        None => break, // this chip is dry; try the next
                    }
                }
            }
            return Err(FtlError::NoReclaimableSpace);
        }
        Ok(out)
    }

    /// Programs `data` for `lba` at a fresh physical page, updates both maps,
    /// and returns the superseded physical page, if any. The caller decides
    /// what happens to the old page (immediate invalidation vs. protection).
    ///
    /// `stamp` is the host write time, programmed into the page's OOB spare
    /// area together with the data so a post-crash mount can rebuild the
    /// mapping table — and the recovery queue — from flash alone.
    pub fn program_mapped(&mut self, lba: Lba, data: Bytes, stamp: SimTime) -> Result<Option<Ppa>> {
        let new = self.allocate()?;
        let data = self.hop(&data);
        self.device
            .program_tagged(new, data, OobTag::live(lba, stamp))?;
        self.rmap[new.index() as usize] = Some(lba);
        let old = self.mapping.set(lba, Some(new));
        Ok(old)
    }

    /// Reads the current version of `lba`, or `None` if unmapped.
    pub fn read_mapped(&mut self, lba: Lba) -> Result<Option<Bytes>> {
        match self.mapping.get(lba) {
            Some(ppa) => Ok(Some(self.device.read(ppa)?)),
            None => Ok(None),
        }
    }

    /// Batched read of `len` consecutive logical pages: one mapping-table
    /// scan gathers the mapped physical pages, a single grouped NAND submit
    /// fetches them, and the payloads are scattered back into request order
    /// (`None` for unmapped pages).
    pub fn read_extent_mapped(&mut self, lba: Lba, len: u32) -> Result<Vec<Option<Bytes>>> {
        let mut out = vec![None; len as usize];
        let mut ppas = Vec::new();
        let mut slots = Vec::new();
        for i in 0..len as u64 {
            if let Some(ppa) = self.mapping.get(lba.offset(i)) {
                ppas.push(ppa);
                slots.push(i as usize);
            }
        }
        if !ppas.is_empty() {
            let payloads = self.device.read_pages(&ppas)?;
            for (slot, data) in slots.into_iter().zip(payloads) {
                out[slot] = Some(data);
            }
        }
        Ok(out)
    }

    /// Programs a whole extent starting at `lba` — `data[i]` lands at
    /// `lba + i` — as one batch: the physical pages are reserved across the
    /// dies up front, ONE multi-page NAND submit programs them, and the
    /// forward/reverse mapping updates, superseded-page invalidations and
    /// (when `queue` is given) recovery-queue appends are applied in a
    /// single vectorized pass. Host write stats are counted here.
    ///
    /// `stamp` is the host write time, programmed into every page's OOB
    /// spare area (and stamped on any backup entries) so a post-crash mount
    /// can rebuild the DRAM state from flash alone.
    ///
    /// Payload sizes are validated up front, so an oversized buffer fails
    /// the whole extent before anything is programmed. A mid-batch NAND
    /// fault leaves the leading pages fully applied — mapped, pre-images
    /// invalidated, backup entries pushed, exactly the state the scalar
    /// loop leaves when its k-th write fails — before the error returns.
    /// The programmed prefix is the *acknowledged* part of the extent: its
    /// length is visible to the host as the `host_writes` delta.
    pub fn program_extent_mapped(
        &mut self,
        lba: Lba,
        data: &[Bytes],
        stamp: SimTime,
        queue: Option<&mut RecoveryQueue>,
    ) -> Result<()> {
        let page_size = self.config.geometry().page_size();
        for page in data {
            if page.len() > page_size as usize {
                return Err(NandError::PayloadTooLarge {
                    len: page.len(),
                    page_size,
                }
                .into());
            }
        }
        let ppas = self.allocate_extent(data.len())?;
        let batch: Vec<(Ppa, Bytes, OobTag)> = ppas
            .iter()
            .enumerate()
            .map(|(i, &ppa)| {
                (
                    ppa,
                    self.hop(&data[i]),
                    OobTag::live(lba.offset(i as u64), stamp),
                )
            })
            .collect();
        let (done, result) = self.device.program_pages_tagged(batch);
        let mut olds = Vec::with_capacity(done);
        for (i, &new) in ppas[..done].iter().enumerate() {
            let l = lba.offset(i as u64);
            self.rmap[new.index() as usize] = Some(l);
            let old = self.mapping.set(l, Some(new));
            if let Some(old) = old {
                self.invalidate(old)?;
            }
            olds.push(old);
        }
        if let Some(queue) = queue {
            queue.push_extent(lba, &olds, stamp);
            for old in olds.iter().flatten() {
                self.note_protected(*old);
            }
        }
        self.stats.host_writes += done as u64;
        result.map_err(Into::into)
    }

    /// Unmaps `len` consecutive logical pages in one batched pass,
    /// invalidating their current versions, and returns the per-page old
    /// mappings (in extent order) for the caller's recovery bookkeeping.
    /// Host trim stats are counted here.
    pub fn unmap_extent(&mut self, lba: Lba, len: u32) -> Result<Vec<Option<Ppa>>> {
        let mut olds = Vec::with_capacity(len as usize);
        for i in 0..len as u64 {
            let old = self.mapping.set(lba.offset(i), None);
            if let Some(old) = old {
                self.invalidate(old)?;
            }
            olds.push(old);
        }
        self.stats.host_trims += len as u64;
        Ok(olds)
    }

    /// Blocking garbage collection: collects until the free pool holds the
    /// configured reserve *plus* enough whole blocks to absorb `pages`
    /// upcoming programs, so a batched extent write cannot run the
    /// allocator dry mid-submit the way a per-page GC check would have
    /// caught. Scalar writes pass `pages = 0`, keeping their historical
    /// threshold.
    ///
    /// `queue` carries the protection state for the SSD-Insider FTL:
    /// invalid pages it protects are migrated (and their backup entries
    /// redirected) rather than discarded. The conventional FTL passes
    /// `None`.
    pub fn gc_for_extent(&mut self, pages: u64, queue: Option<&mut RecoveryQueue>) -> Result<()> {
        let ppb = self.config.geometry().pages_per_block() as u64;
        let need = pages.div_ceil(ppb) as usize;
        let target = self.config.gc_reserve() as usize + need;
        if self.free_count >= target {
            // The common no-GC case returns before the timer starts, so
            // `gc_ns` stays exactly zero for workloads that never collect.
            return Ok(());
        }
        let started = Instant::now();
        let copies_before = self.stats.gc_page_copies;
        let pause_before = self.device.parallel_busy_ns();
        self.device.set_gc_context(true);
        let result = self.gc_until(target, queue);
        self.device.set_gc_context(false);
        // Blocking drains occupy the single-threaded firmware: no host
        // command is serviced until the drain's last command lands.
        let horizon = self.device.gc_horizon_ns();
        self.device.stall_host_until(horizon);
        let migrated = self.stats.gc_page_copies - copies_before;
        self.stats.gc_migrations_max = self.stats.gc_migrations_max.max(migrated);
        self.stats.gc_ns += started.elapsed().as_nanos() as u64;
        let pause = self.device.parallel_busy_ns() - pause_before;
        if pause > 0 {
            self.gc_pause_hist.record(pause);
        }
        result
    }

    /// Runs a host write's GC pump in the idle gap before the write, then
    /// advances the clock to the write's instant `now`.
    ///
    /// The pump is the incremental engine ([`gc_maintain`](Self::gc_maintain))
    /// when `FtlConfig::incremental_gc` is on, the classic blocking
    /// collector ([`gc_for_extent`](Self::gc_for_extent)) otherwise. Every
    /// host write path funnels through here, so the two engines are
    /// interchangeable.
    ///
    /// The pump's commands arrive while the device clock still stands at
    /// the previous command, raised to `floor`: the newest instant at which
    /// a recovery-queue entry the pump may rely on was released (the
    /// conventional FTL passes [`SimTime::ZERO`]). So GC work lands on dies
    /// that sat idle since the previous command instead of queuing ahead
    /// of this write's pages, and no GC command precedes the release that
    /// made it possible. Only the clock moves: the pump's decisions —
    /// victims, copies, erases, OOB records — are the ones it makes at
    /// `now`. Its one look-ahead is `pages`, the size of the write about to
    /// arrive. A stop-the-world drain still raises the firmware stall
    /// horizon, so a drain that runs past `now` delays the write.
    pub fn gc_before_write(
        &mut self,
        pages: u64,
        queue: Option<&mut RecoveryQueue>,
        floor: SimTime,
        now: SimTime,
    ) -> Result<()> {
        self.set_clock(floor.min(now));
        let result = if self.config.incremental_gc_enabled() {
            self.gc_maintain(pages, queue)
        } else {
            self.gc_for_extent(pages, queue)
        };
        self.set_clock(now);
        result
    }

    /// Incremental background GC: instead of draining the whole free-block
    /// deficit in one blocking pass, each host write pumps a bounded budget
    /// of page migrations (`FtlConfig::gc_step_pages`, scaled up by an
    /// urgency ramp as the pool sinks) through a resumable [`GcJob`].
    /// Collection starts `FtlConfig::gc_low_water_extra` blocks *early* —
    /// while the pool is still above the blocking trigger — so steady state
    /// pays many small pauses instead of rare multi-block stalls.
    ///
    /// Safety valve: if the pool still sinks below the hard floor
    /// (`need + 1` blocks: the triggering write plus one block of
    /// compaction headroom), the engine falls back to a stop-the-world
    /// [`gc_until`](Self::gc_until) drain so the triggering write cannot
    /// starve; `FtlStats::gc_stw_fallbacks` counts how often that fired.
    pub fn gc_maintain(&mut self, pages: u64, mut queue: Option<&mut RecoveryQueue>) -> Result<()> {
        let ppb = self.config.geometry().pages_per_block() as u64;
        let need = pages.div_ceil(ppb) as usize;
        let target = self.config.gc_reserve() as usize + need;
        let low = target + self.config.gc_low_water_extra_blocks() as usize;
        if self.free_count >= low && self.gc_job.is_none() {
            // Same cold-path discipline as the blocking collector: the
            // common no-GC case returns before the timer starts.
            return Ok(());
        }
        let started = Instant::now();
        let copies_before = self.stats.gc_page_copies;
        let pause_before = self.device.parallel_busy_ns();
        self.device.set_gc_context(true);
        let mut result = self.gc_pump(target, low, queue.as_deref_mut());
        if result.is_ok() && self.free_count < need + 1 {
            // Reserve exhausted despite the urgency ramp: blocking drain —
            // which, like the classic collector, stalls the firmware for
            // the host until the drain lands. Incremental steps never do.
            self.stats.gc_stw_fallbacks += 1;
            result = self
                .gc_drain_job(queue.as_deref_mut())
                .and_then(|()| self.gc_until(target, queue));
            let horizon = self.device.gc_horizon_ns();
            self.device.stall_host_until(horizon);
        }
        self.device.set_gc_context(false);
        let migrated = self.stats.gc_page_copies - copies_before;
        self.stats.gc_migrations_max = self.stats.gc_migrations_max.max(migrated);
        self.stats.gc_ns += started.elapsed().as_nanos() as u64;
        let pause = self.device.parallel_busy_ns() - pause_before;
        if pause > 0 {
            self.gc_pause_hist.record(pause);
        }
        result
    }

    /// One budgeted pump of the incremental engine. The budget scales with
    /// urgency — `gc_step_pages × (1 + deficit below the low watermark)` —
    /// so a pool sinking toward the reserve migrates ever-larger steps and
    /// the stop-the-world fallback stays cold under steady load. Order
    /// within a pump mirrors [`gc_until`](Self::gc_until) exactly (reclaim
    /// to target, wear-level once, top up), so an unbounded budget
    /// reproduces the blocking collector's victim sequence verbatim.
    fn gc_pump(
        &mut self,
        target: usize,
        low: usize,
        mut queue: Option<&mut RecoveryQueue>,
    ) -> Result<()> {
        let step = u64::from(self.config.gc_step_budget_pages());
        let urgency = 1 + low.saturating_sub(self.free_count) as u64;
        let mut budget = step.saturating_mul(urgency);
        let mut leveled = false;
        while budget > 0 {
            if self.gc_job.is_some() {
                budget = budget.saturating_sub(self.gc_step(budget, queue.as_deref_mut())?);
                continue;
            }
            if self.free_count < target {
                // Below the blocking trigger nothing reclaimable is the
                // same hard error the blocking collector reports.
                if !self.start_reclaim_job(queue.as_deref(), false) {
                    return Err(FtlError::NoReclaimableSpace);
                }
                continue;
            }
            if !leveled {
                leveled = true;
                if let Some(victim) = self.wear_level_candidate()? {
                    self.log_victim(GcVictimKind::WearLevel, victim);
                    self.gc_job = Some(GcJob {
                        victim,
                        kind: GcVictimKind::WearLevel,
                        cursor: 0,
                    });
                }
                continue;
            }
            // Above target but below the low watermark: proactive top-up,
            // stopping quietly when no victim is worth it (see
            // `start_reclaim_job`).
            if self.free_count < low && self.start_reclaim_job(queue.as_deref(), true) {
                continue;
            }
            break;
        }
        Ok(())
    }

    /// Selects a reclaim victim and opens a job for it; `false` when
    /// nothing is reclaimable. The victim is logged at selection time, so
    /// the victim log stays comparable with the blocking collector's.
    ///
    /// A `top_up` job is optional work (the pool is still above the
    /// blocking trigger), so it opens only on a victim that holds no
    /// protected pages and has at least half a block reclaimable — one
    /// that frees at least as many pages as it copies. Copying backups
    /// still inside the protection window early only burns the free space
    /// it was meant to make and feeds a GC spiral (DESIGN.md §13).
    fn start_reclaim_job(&mut self, queue: Option<&RecoveryQueue>, top_up: bool) -> bool {
        debug_assert!(
            self.gc_job.is_none(),
            "victim selection must not run with a job pending"
        );
        let Some(victim) = self.select_victim(queue) else {
            return false;
        };
        if top_up {
            let raw = victim.index() as usize;
            let half_block = self.config.geometry().pages_per_block() / 2;
            if self.protected_per_block[raw] > 0 || self.invalid_per_block[raw] < half_block {
                return false;
            }
        }
        self.log_victim(GcVictimKind::Reclaim, victim);
        self.gc_job = Some(GcJob {
            victim,
            kind: GcVictimKind::Reclaim,
            cursor: 0,
        });
        true
    }

    /// Pumps the pending [`GcJob`] by up to `budget` page migrations and
    /// returns how many it performed. Offsets needing no copy (free pages,
    /// unprotected invalid pages) are skipped for free. Reaching the end of
    /// the block finishes the job: the victim is erased and returned to the
    /// free pool, or retired if worn out — the job is simply dropped, like
    /// the blocking collector's retry-on-retirement.
    fn gc_step(&mut self, budget: u64, mut queue: Option<&mut RecoveryQueue>) -> Result<u64> {
        let mut job = self.gc_job.expect("gc_step requires a pending job");
        let ppb = self.config.geometry().pages_per_block();
        let mut migrated = 0u64;
        self.stats.gc_steps += 1;
        while job.cursor < ppb {
            if migrated >= budget {
                self.gc_job = Some(job);
                return Ok(migrated);
            }
            let copies = self.stats.gc_page_copies;
            if let Err(e) = self.migrate_page(job.victim, job.cursor, queue.as_deref_mut()) {
                // Per-page migration is atomic; parking the cursor on the
                // failed offset leaves it cleanly re-examinable.
                self.gc_job = Some(job);
                return Err(e);
            }
            migrated += self.stats.gc_page_copies - copies;
            job.cursor += 1;
        }
        // Every offset handled: erase, close out the job.
        self.gc_job = None;
        match self.finish_erase(job.victim) {
            Ok(()) => {
                match job.kind {
                    GcVictimKind::Reclaim => self.stats.gc_invocations += 1,
                    GcVictimKind::WearLevel => self.stats.wear_level_swaps += 1,
                }
                Ok(migrated)
            }
            // Retirement reclaims no block, but the job is done; the pump
            // selects another victim, mirroring `collect_once`'s retry.
            Err(FtlError::BadBlockRetired) => Ok(migrated),
            Err(e) => Err(e),
        }
    }

    /// Runs the pending job (if any) to completion, unbudgeted — the
    /// stop-the-world fallback and quiescence helpers use this to reach a
    /// clean `gc_job == None` state.
    pub fn gc_drain_job(&mut self, mut queue: Option<&mut RecoveryQueue>) -> Result<()> {
        while self.gc_job.is_some() {
            self.gc_step(u64::MAX, queue.as_deref_mut())?;
        }
        Ok(())
    }

    /// Whether an incremental GC job is currently paused mid-block.
    pub fn gc_job_pending(&self) -> bool {
        self.gc_job.is_some()
    }

    /// Normalized GC debt in `[0, 1]` (see [`Ftl::gc_debt`]): zero at or
    /// above the incremental low watermark, rising linearly to `1.0` as
    /// the free pool approaches exhaustion. Write pacing multiplies its
    /// refill rate by `1 − debt`.
    ///
    /// [`Ftl::gc_debt`]: crate::Ftl::gc_debt
    pub fn gc_debt(&self) -> f64 {
        let low =
            self.config.gc_reserve() as usize + self.config.gc_low_water_extra_blocks() as usize;
        if self.free_count >= low || low <= 1 {
            return 0.0;
        }
        (((low - self.free_count) as f64) / ((low - 1) as f64)).min(1.0)
    }

    /// Snapshot of the per-GC-entry device-work histogram (see the
    /// `gc_pause_hist` field): how much busy makespan each GC entry spent.
    /// The host-visible stall is `NandStats::{gc_stalled_cmds, gc_stall_ns}`.
    pub fn gc_pause_latency(&self) -> KindLatency {
        KindLatency::from_histogram(&self.gc_pause_hist)
    }

    /// Collects until `target` free blocks are available, then gives wear
    /// leveling its turn.
    fn gc_until(&mut self, target: usize, mut queue: Option<&mut RecoveryQueue>) -> Result<()> {
        while self.free_count < target {
            self.collect_once(queue.as_deref_mut())?;
        }
        self.maybe_wear_level(queue.as_deref_mut())?;
        // A wear-level victim hitting its endurance limit consumes
        // migration pages without returning a block; top the reserve
        // back up so the caller's write cannot starve.
        while self.free_count < target {
            self.collect_once(queue.as_deref_mut())?;
        }
        Ok(())
    }

    /// Static wear leveling: when the erase-count spread exceeds the
    /// configured threshold, migrate the coldest (least-erased) in-service
    /// block so it rejoins the hot rotation. Runs only right after GC, when
    /// the free pool has headroom for the migration.
    fn maybe_wear_level(&mut self, queue: Option<&mut RecoveryQueue>) -> Result<()> {
        let Some(victim) = self.wear_level_candidate()? else {
            return Ok(());
        };
        self.log_victim(GcVictimKind::WearLevel, victim);
        match self.migrate_and_erase(victim, queue) {
            Ok(()) => self.stats.wear_level_swaps += 1,
            // The coldest block hitting its endurance limit means
            // leveling has nothing left to do; never surface the
            // internal retirement marker to the host write path.
            Err(FtlError::BadBlockRetired) => {}
            Err(e) => return Err(e),
        }
        Ok(())
    }

    /// The coldest in-service block, when the erase-count spread exceeds
    /// the wear-leveling threshold; `None` when leveling is off, has no
    /// candidate, or the spread is within bounds. Shared by the blocking
    /// and incremental wear-leveling paths; debug builds reconcile the
    /// incremental trackers against the legacy scan on every call.
    fn wear_level_candidate(&mut self) -> Result<Option<Pba>> {
        let Some(threshold) = self.config.wear_leveling_threshold() else {
            return Ok(None);
        };
        #[cfg(debug_assertions)]
        assert_eq!(
            self.wear_extremes_indexed(),
            self.wear_extremes_scan()?,
            "wear trackers diverged from the legacy scan"
        );
        let extremes = if self.config.victim_index_enabled() {
            self.wear_extremes_indexed()
        } else {
            self.wear_extremes_scan()?
        };
        let Some((victim, wear, hottest)) = extremes else {
            return Ok(None);
        };
        Ok((hottest - wear > threshold).then_some(victim))
    }

    /// Wear-leveling extremes from the incremental erase-count trackers:
    /// the coldest closed in-service block `(pba, wear)` plus the hottest
    /// non-bad erase count, in O(log W) with W distinct wear values.
    fn wear_extremes_indexed(&self) -> Option<(Pba, u32, u32)> {
        let (raw, wear) = self.wear.coldest()?;
        Some((Pba::new(raw), wear, self.wear.hottest()))
    }

    /// Legacy wear scan — the differential oracle for the trackers.
    fn wear_extremes_scan(&self) -> Result<Option<(Pba, u32, u32)>> {
        let g = *self.config.geometry();
        let mut coldest: Option<(Pba, u32)> = None;
        let mut hottest = 0u32;
        for raw in 0..g.total_blocks() {
            let pba = Pba::new(raw);
            // Retired blocks never cycle again: counting their (maximal)
            // wear would hold the spread open forever and make leveling
            // thrash on every GC.
            if self.bad_flags[raw as usize] {
                continue;
            }
            let wear = self.device.block(pba)?.erase_count();
            hottest = hottest.max(wear);
            if self.active_flags[raw as usize] || self.free_flags[raw as usize] {
                continue;
            }
            if coldest.is_none_or(|(_, w)| wear < w) {
                coldest = Some((pba, wear));
            }
        }
        Ok(coldest.map(|(pba, wear)| (pba, wear, hottest)))
    }

    /// Picks the best victim under the configured policy (excluding free,
    /// active and retired-bad blocks), or `None` when nothing is
    /// reclaimable.
    ///
    /// The rule is **score first, balance second**: the policy's
    /// best-scoring candidate over the whole drive wins; an exact score tie
    /// goes to the chip with the fewest free blocks, then to the lowest
    /// chip index; within a chip, the policy's own tie-break (lowest block
    /// index, or oldest epoch) stands. The dryness tie-break matters because
    /// an erased victim refills only its own chip's free pool — programs
    /// cannot cross dies — and under hot overwrites many chips hold
    /// equally empty victims: taking the lowest chip index there would pile
    /// the erases onto one die and serialize the host stream behind it
    /// (DESIGN.md §13). Ordering chips by dryness *before* score collapses
    /// the other way: the driest chip's best victim is often nearly full
    /// of valid pages, so GC copies far more than it frees.
    ///
    /// Dispatches to the incremental index or the legacy scan per
    /// `FtlConfig::gc_victim_index`; debug builds run *both* selectors on
    /// every call and assert they agree — the in-process differential
    /// oracle — and reconcile the chosen block's mirrored protected count
    /// against the queue's.
    fn select_victim(&mut self, queue: Option<&RecoveryQueue>) -> Option<Pba> {
        #[cfg(debug_assertions)]
        if queue.is_none_or(RecoveryQueue::tracks_blocks) {
            let indexed = self.select_victim_indexed();
            let scanned = self.select_victim_scan(queue);
            assert_eq!(indexed, scanned, "victim selectors diverged");
            if let Some(pba) = indexed {
                assert_eq!(
                    self.protected_per_block[pba.index() as usize],
                    queue.map_or(0, |q| q.protected_in_block(pba.index())),
                    "protected-count mirror diverged for block {}",
                    pba.index()
                );
            }
        }
        if self.config.victim_index_enabled() {
            self.select_victim_indexed()
        } else {
            self.select_victim_scan(queue)
        }
    }

    /// The cross-chip rule both selectors share: given each chip's best
    /// candidate `(raw, score)`, in ascending chip order, returns the
    /// highest score, breaking exact ties by the driest chip and then by
    /// the lowest chip index (the first one seen).
    fn best_across_chips(
        free: &[VecDeque<Pba>],
        per_chip: impl IntoIterator<Item = (usize, Option<(u32, f64)>)>,
    ) -> Option<Pba> {
        let mut best: Option<(usize, u32, f64)> = None;
        for (chip, pick) in per_chip {
            let Some((raw, score)) = pick else {
                continue;
            };
            let better = best.is_none_or(|(best_chip, _, s)| {
                score > s || (score == s && free[chip].len() < free[best_chip].len())
            });
            if better {
                best = Some((chip, raw, score));
            }
        }
        best.map(|(_, raw, _)| Pba::new(raw))
    }

    /// Index-backed victim selection: each chip's best candidate comes
    /// from its buckets (O(1) for greedy, O(pages-per-block) for the
    /// age-based policies), then [`Self::best_across_chips`] picks one.
    fn select_victim_indexed(&mut self) -> Option<Pba> {
        let ppb = self.config.geometry().pages_per_block();
        let policy = self.config.gc_policy_ref();
        let next_epoch = self.next_epoch;
        let victims = &mut self.victims;
        let per_chip = (0..self.free.len()).map(|chip| {
            let pick = match policy {
                GcPolicy::Greedy => victims.best_greedy(chip),
                GcPolicy::Fifo => victims.best_fifo(chip),
                GcPolicy::CostBenefit => victims.best_cost_benefit(chip, next_epoch, ppb),
            };
            (chip, pick)
        });
        Self::best_across_chips(&self.free, per_chip)
    }

    /// Legacy O(total-blocks) scan — the differential oracle for the index.
    /// Protected counts come from the queue itself (not the FTL's mirror),
    /// so the two selectors have independent inputs.
    fn select_victim_scan(&self, queue: Option<&RecoveryQueue>) -> Option<Pba> {
        let g = self.config.geometry();
        let ppb = g.pages_per_block();
        let bpc = g.blocks_per_chip();
        let policy = self.config.gc_policy_ref();
        let mut best: Vec<Option<(u32, f64)>> = vec![None; self.free.len()];
        for raw in 0..g.total_blocks() {
            if self.active_flags[raw as usize]
                || self.free_flags[raw as usize]
                || self.bad_flags[raw as usize]
            {
                continue;
            }
            let invalid = self.invalid_per_block[raw as usize];
            if invalid == 0 {
                continue;
            }
            let protected = queue.map_or(0, |q| q.protected_in_block(raw));
            debug_assert!(protected <= invalid, "protected pages must be invalid");
            let reclaimable = invalid - protected;
            if reclaimable == 0 {
                continue;
            }
            let score = match policy {
                GcPolicy::Greedy => reclaimable as f64,
                // Older epoch = larger score; reclaimability only gates.
                GcPolicy::Fifo => -(self.block_epoch[raw as usize] as f64),
                GcPolicy::CostBenefit => {
                    let age = (self.next_epoch - self.block_epoch[raw as usize]) as f64;
                    let cost = (ppb - reclaimable) as f64 + 1.0;
                    reclaimable as f64 * age / cost
                }
            };
            let chip = (raw / bpc) as usize;
            if best[chip].is_none_or(|(_, s)| score > s) {
                best[chip] = Some((raw, score));
            }
        }
        Self::best_across_chips(&self.free, best.into_iter().enumerate())
    }

    /// Collects one victim. Each page is migrated *atomically* (copy,
    /// remap, invalidate source, clear source rmap), so an abort at any
    /// point — allocation failure, injected fault, worn-out erase — leaves
    /// the FTL fully consistent and the victim re-collectable. A block
    /// whose erase hits its endurance limit is retired as *bad* and another
    /// victim is tried.
    fn collect_once(&mut self, mut queue: Option<&mut RecoveryQueue>) -> Result<()> {
        loop {
            let victim = self
                .select_victim(queue.as_deref())
                .ok_or(FtlError::NoReclaimableSpace)?;
            self.log_victim(GcVictimKind::Reclaim, victim);
            match self.migrate_and_erase(victim, queue.as_deref_mut()) {
                Ok(()) => {
                    self.stats.gc_invocations += 1;
                    return Ok(());
                }
                Err(FtlError::BadBlockRetired) => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Migrates every live (and protected) page out of `victim`, then
    /// erases it and returns it to the free pool. Each page is migrated
    /// *atomically* (copy, remap, invalidate source, clear source rmap), so
    /// an abort at any point — allocation failure, injected fault, worn-out
    /// erase — leaves the FTL fully consistent and the victim
    /// re-collectable. A block whose erase hits its endurance limit is
    /// retired as *bad* and reported as [`FtlError::BadBlockRetired`].
    fn migrate_and_erase(
        &mut self,
        victim: Pba,
        mut queue: Option<&mut RecoveryQueue>,
    ) -> Result<()> {
        let ppb = self.config.geometry().pages_per_block();
        for off in 0..ppb {
            self.migrate_page(victim, off, queue.as_deref_mut())?;
        }
        self.finish_erase(victim)
    }

    /// Migrates (or skips) one page offset of a GC victim — the atomic unit
    /// both the blocking collector and the incremental [`GcJob`] engine are
    /// built from. Physical page state is re-read here at execution time,
    /// so re-running an offset (resume after a pause, retry after an
    /// injected fault) is always safe: an already-migrated page has become
    /// `Invalid`-unprotected or `Free` and falls through without work.
    fn migrate_page(
        &mut self,
        victim: Pba,
        off: u32,
        mut queue: Option<&mut RecoveryQueue>,
    ) -> Result<()> {
        let g = *self.config.geometry();
        let ppa = victim.page(&g, off);
        match self.device.page_state(ppa)? {
            PageState::Valid => {
                let lba = self.rmap[ppa.index() as usize]
                    .expect("valid page must have a reverse mapping");
                // Relocation moves a buffer handle, not bytes: the
                // read clones the stored `Bytes` (refcount bump) and
                // the program hands the same backing allocation to
                // the destination page.
                let data = self.device.read(ppa)?;
                let data = self.hop(&data);
                // Carry the host write stamp across the relocation;
                // the fresh sequence number marks the copy as newer
                // than its source, which is how a post-crash mount
                // resolves a crash between this program and the
                // source invalidation (newest sequence wins).
                let stamp = self.device.oob(ppa)?.map_or(SimTime::ZERO, |o| o.stamp);
                let new = self.allocate()?;
                self.device
                    .program_tagged(new, data, OobTag::live(lba, stamp))?;
                self.rmap[new.index() as usize] = Some(lba);
                self.mapping.set(lba, Some(new));
                self.invalidate(ppa)?;
                self.rmap[ppa.index() as usize] = None;
                self.stats.gc_page_copies += 1;
            }
            PageState::Invalid => {
                let protected = queue.as_ref().is_some_and(|q| q.is_protected(ppa));
                if protected {
                    // Delayed deletion: the old version must survive
                    // the erase, so copy it and redirect its backup
                    // entry.
                    let lba = self.rmap[ppa.index() as usize]
                        .expect("protected page must have a reverse mapping");
                    // Same zero-copy relocation as the valid path:
                    // the protected old version's backing buffer is
                    // shared into its new home, never duplicated.
                    let data = self.device.read(ppa)?;
                    let data = self.hop(&data);
                    // A backup tag: the copy holds a superseded
                    // version, so a post-crash mount must never pick
                    // it as the current mapping — but the preserved
                    // stamp keeps it eligible for recovery-queue
                    // reconstruction.
                    let stamp = self.device.oob(ppa)?.map_or(SimTime::ZERO, |o| o.stamp);
                    let new = self.allocate()?;
                    self.device
                        .program_tagged(new, data, OobTag::backup(lba, stamp))?;
                    // The copy holds an *old* version, not live data.
                    self.invalidate(new)?;
                    self.rmap[new.index() as usize] = Some(lba);
                    queue
                        .as_mut()
                        .expect("protection implies a queue")
                        .relocate(ppa, new);
                    self.note_unprotected(ppa);
                    self.note_protected(new);
                    self.stats.gc_page_copies += 1;
                    self.stats.gc_protected_copies += 1;
                }
                self.rmap[ppa.index() as usize] = None;
            }
            PageState::Free => {}
        }
        Ok(())
    }

    /// Erases a fully migrated victim back into the free pool, or retires
    /// it as *bad* when the erase hits its endurance limit (reported as
    /// [`FtlError::BadBlockRetired`]).
    fn finish_erase(&mut self, victim: Pba) -> Result<()> {
        // Sampled before the erase: counts only advance on success, so this
        // is the tracker's current bin either way.
        let wear_before = self.device.block(victim)?.erase_count();
        let raw = victim.index();
        debug_assert_eq!(
            self.protected_per_block[raw as usize], 0,
            "migration must have relocated every protected page"
        );
        match self.device.erase(victim) {
            Ok(()) => {
                self.invalid_per_block[raw as usize] = 0;
                self.free_flags[raw as usize] = true;
                self.free_count += 1;
                self.wear.erase(raw, wear_before);
                self.refresh_victim(raw);
                let g = self.config.geometry();
                self.free[(raw / g.blocks_per_chip()) as usize].push_back(victim);
                self.stats.gc_erases += 1;
                Ok(())
            }
            Err(insider_nand::NandError::BlockWornOut(_)) => {
                // Retire the block: its pages are all invalid and
                // unprotected (migrated above), so nothing is lost —
                // the capacity just shrinks by one block.
                self.bad_flags[raw as usize] = true;
                self.invalid_per_block[raw as usize] = 0;
                self.wear.retire(raw, wear_before);
                self.refresh_victim(raw);
                self.stats.bad_blocks += 1;
                Err(FtlError::BadBlockRetired)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Marks a superseded physical page invalid (no-op unless valid).
    pub fn invalidate(&mut self, ppa: Ppa) -> Result<()> {
        if self.device.page_state(ppa)? == PageState::Valid {
            self.device.invalidate(ppa)?;
            let raw = ppa.block(self.config.geometry()).index();
            self.invalid_per_block[raw as usize] += 1;
            self.refresh_victim(raw);
        }
        Ok(())
    }

    /// Marks an old version valid again (no-op unless invalid).
    fn revalidate(&mut self, ppa: Ppa) -> Result<()> {
        if self.device.page_state(ppa)? == PageState::Invalid {
            self.device.revalidate(ppa)?;
            let raw = ppa.block(self.config.geometry()).index();
            self.invalid_per_block[raw as usize] -= 1;
            self.refresh_victim(raw);
        }
        Ok(())
    }

    /// Restores a mapping entry to `old` (rollback step), invalidating the
    /// current version and reviving the old one.
    pub fn restore_mapping(&mut self, lba: Lba, old: Option<Ppa>) -> Result<()> {
        let current = self.mapping.set(lba, old);
        if let Some(cur) = current {
            self.invalidate(cur)?;
        }
        if let Some(ppa) = old {
            self.revalidate(ppa)?;
            debug_assert_eq!(
                self.rmap[ppa.index() as usize],
                Some(lba),
                "restored page must reverse-map to its logical page"
            );
        }
        Ok(())
    }

    /// Re-registers a protection that a post-crash mount reconstructed from
    /// the OOB scan: restores the reverse mapping of the protected old
    /// version (lost with DRAM) and bumps the per-block protected mirror.
    pub fn note_mount_protected(&mut self, ppa: Ppa, lba: Lba) {
        self.rmap[ppa.index() as usize] = Some(lba);
        self.note_protected(ppa);
    }

    /// Rebuilds the mount-scan inputs — the flat record list in canonical
    /// mount order (logical page, then `(stamp, seq)`, oldest version
    /// first), per-block programmed watermarks and per-block minimum
    /// sequence numbers — with one sharded spare-area scan of every block
    /// ([`NandDevice::scan_oob`], one worker per available core) and one
    /// global sort.
    ///
    /// The scan is charged in bulk to the device's `NandStats` only — a
    /// mount runs before the host queue exists, so no mount read reaches
    /// the command scheduler or the host latency histograms.
    fn mount_scan(&mut self) -> Result<MountScan> {
        let g = *self.config.geometry();
        let total_blocks = g.total_blocks() as usize;
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let report = self.device.scan_oob(threads)?;
        let mut programmed = vec![0u32; total_blocks];
        let mut min_seq: Vec<Option<u64>> = vec![None; total_blocks];
        let total: usize = report.blocks.iter().map(|b| b.records.len()).sum();
        let mut scanned = Vec::with_capacity(total);
        for (i, block) in report.blocks.iter().enumerate() {
            programmed[i] = block.scanned_to;
            for &(offset, rec) in &block.records {
                let slot = &mut min_seq[i];
                *slot = Some(slot.map_or(rec.seq, |m| m.min(rec.seq)));
                scanned.push((
                    rec.lba,
                    ScanPage {
                        ppa: Pba::new(i as u32).page(&g, offset),
                        seq: rec.seq,
                        stamp: rec.stamp,
                        live: rec.live,
                    },
                ));
            }
        }
        scanned.sort_unstable_by_key(|e| (e.0.index(), e.1.stamp, e.1.seq));
        Ok((scanned, programmed, min_seq))
    }

    /// Power-cycles the device and rebuilds every DRAM structure from the
    /// per-page OOB records — the SSD-Insider power-on mount path.
    ///
    /// The NAND keeps page *contents*, OOB records and erase counters across
    /// a power cut; everything else — the mapping table, the reverse map,
    /// per-block valid/invalid/protected counts, the free pools, the victim
    /// index and the wear trackers — is DRAM and is reconstructed here:
    ///
    /// 1. Every programmed page's spare area is scanned (charged as reads).
    /// 2. Per logical page, the **newest live copy wins**: the live-tagged
    ///    record with the highest device sequence number is revalidated and
    ///    mapped; every superseded or backup copy stays invalid. A crash
    ///    between a GC copy and its source invalidation leaves two live
    ///    copies of one version — the copy's fresher sequence number breaks
    ///    the tie deterministically.
    /// 3. Blocks are reclassified: unprogrammed → free pool (index order),
    ///    at-or-over the endurance limit → retired bad (conservative: a
    ///    worn block may still have had one program cycle left, but mount
    ///    cannot tell and a lost block is cheaper than a lost erase), the
    ///    most recently opened partial block per chip → active, everything
    ///    else → closed in-service. Block ages (epochs) are re-ranked by
    ///    each block's minimum sequence number, preserving the relative
    ///    order the FIFO/cost-benefit GC policies depend on.
    ///
    /// Returns the scan as a flat vector sorted by logical page, each
    /// page's run ordered oldest version first by `(stamp, seq)`, so the
    /// caller can rebuild version-history state (the recovery queue)
    /// without re-reading flash. Cumulative statistics survive (they model
    /// NVRAM-backed counters, as firmware keeps wear data); the protected
    /// mirror restarts at zero and is re-filled by the caller via
    /// [`note_mount_protected`].
    ///
    /// [`note_mount_protected`]: Self::note_mount_protected
    pub fn remount(&mut self) -> Result<Vec<(Lba, ScanPage)>> {
        self.device.power_cut();
        let g = *self.config.geometry();
        let total_blocks = g.total_blocks();
        let ppb = g.pages_per_block();
        let chips = g.total_chips() as usize;
        let endurance = self.config.nand().endurance_limit();

        // Drop every DRAM structure.
        self.mapping = MappingTable::new(self.config.logical_pages());
        self.rmap = vec![None; g.total_pages() as usize];
        self.free = vec![VecDeque::new(); chips];
        self.free_flags = vec![false; total_blocks as usize];
        self.free_count = 0;
        self.bad_flags = vec![false; total_blocks as usize];
        self.active_flags = vec![false; total_blocks as usize];
        self.invalid_per_block = vec![0; total_blocks as usize];
        self.protected_per_block = vec![0; total_blocks as usize];
        self.protected_total = 0;
        self.block_epoch = vec![0; total_blocks as usize];
        self.active = vec![None; chips];
        self.next_chip = 0;
        self.victims = VictimIndex::new(
            total_blocks as usize,
            ppb as usize,
            self.config.gc_policy_ref(),
            self.config.geometry().blocks_per_chip(),
        );
        self.wear = WearTracker {
            all: BTreeMap::new(),
            closed: BTreeMap::new(),
        };
        // A half-done incremental job does not survive power loss: its
        // victim is re-scored from physical state like every other block.
        self.gc_job = None;

        // Rebuild the scan inputs from every block's spare area.
        let (chains, programmed, min_seq) = self.mount_scan()?;
        self.mount_scan_entries = chains.len() as u64;

        // Conflict resolution: the newest live copy of each logical page is
        // the mount-time mapping; everything else stays invalid. The scan
        // is sorted by logical page, so each page is one adjacent run.
        let mut winners: Vec<Ppa> = Vec::new();
        let mut i = 0;
        while i < chains.len() {
            let lba = chains[i].0;
            let mut j = i + 1;
            while j < chains.len() && chains[j].0 == lba {
                j += 1;
            }
            let run = &chains[i..j];
            i = j;
            if lba.index() >= self.mapping.len() {
                continue; // stale record beyond the exported logical range
            }
            if let Some(winner) = run
                .iter()
                .map(|(_, p)| p)
                .filter(|p| p.live)
                .max_by_key(|p| p.seq)
            {
                winners.push(winner.ppa);
                self.rmap[winner.ppa.index() as usize] = Some(lba);
                self.mapping.set(lba, Some(winner.ppa));
            }
        }
        // Revalidate in physical order — the winners arrive in logical
        // order, and hundreds of thousands of scattered page-state writes
        // are cache-miss-bound.
        winners.sort_unstable_by_key(|p| p.index());
        self.device.revalidate_many(&winners)?;

        // Reclassify every block from its physical state.
        let mut in_service: Vec<(u64, u32)> = Vec::new();
        for raw in 0..total_blocks {
            let i = raw as usize;
            let block = self.device.block(Pba::new(raw))?;
            let wear = block.erase_count();
            let valid = block.valid_pages();
            self.invalid_per_block[i] = programmed[i] - valid;
            if wear >= endurance {
                self.bad_flags[i] = true;
                continue;
            }
            *self.wear.all.entry(wear).or_insert(0) += 1;
            if programmed[i] == 0 {
                self.free_flags[i] = true;
                self.free_count += 1;
                self.free[(raw / g.blocks_per_chip()) as usize].push_back(Pba::new(raw));
            } else {
                in_service.push((min_seq[i].unwrap_or(0), raw));
            }
        }

        // The most recently opened partial block of each chip resumes as its
        // active block; any other partial block is closed, its unprogrammed
        // tail stranded until GC erases it (same as an aborted extent).
        let mut pick: Vec<Option<(u64, u32)>> = vec![None; chips];
        for &(seq, raw) in &in_service {
            if programmed[raw as usize] < ppb {
                let chip = (raw / g.blocks_per_chip()) as usize;
                if pick[chip].is_none_or(|(s, _)| seq > s) {
                    pick[chip] = Some((seq, raw));
                }
            }
        }
        for (chip, choice) in pick.iter().enumerate() {
            if let Some((_, raw)) = *choice {
                self.active[chip] = Some(Pba::new(raw));
                self.active_flags[raw as usize] = true;
            }
        }

        // Re-rank block ages by first-program order and rebuild the victim
        // index and the closed-block wear set.
        in_service.sort_unstable();
        for (rank, &(_, raw)) in in_service.iter().enumerate() {
            self.block_epoch[raw as usize] = rank as u64 + 1;
        }
        self.next_epoch = in_service.len() as u64 + 1;
        for &(_, raw) in &in_service {
            if !self.active_flags[raw as usize] {
                let wear = self.device.block(Pba::new(raw))?.erase_count();
                self.wear.close(raw, wear);
            }
            self.refresh_victim(raw);
        }
        self.stats.mounts += 1;
        Ok(chains)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insider_nand::Geometry;

    fn base() -> FtlBase {
        // 16 blocks x 16 pages, ~1 MiB; 2-block reserve.
        FtlBase::new(FtlConfig::new(Geometry::tiny()))
    }

    #[test]
    fn allocation_is_sequential_within_block() {
        let mut b = base();
        let p0 = b.allocate().unwrap();
        b.device.program(p0, Bytes::from_static(b"a")).unwrap();
        let p1 = b.allocate().unwrap();
        assert_eq!(p1.index(), p0.index() + 1);
    }

    #[test]
    fn allocation_skips_to_new_block_when_full() {
        let mut b = base();
        for i in 0..16 {
            let p = b.allocate().unwrap();
            assert_eq!(p.index(), i);
            b.device.program(p, Bytes::from_static(b"x")).unwrap();
        }
        let p = b.allocate().unwrap();
        assert_eq!(p.index(), 16); // first page of next free block
    }

    #[test]
    fn program_mapped_tracks_both_maps() {
        let mut b = base();
        let lba = Lba::new(3);
        let old = b
            .program_mapped(lba, Bytes::from_static(b"v1"), SimTime::ZERO)
            .unwrap();
        assert_eq!(old, None);
        let ppa = b.mapping.get(lba).unwrap();
        assert_eq!(b.rmap_of(ppa), Some(lba));
        let old = b
            .program_mapped(lba, Bytes::from_static(b"v2"), SimTime::ZERO)
            .unwrap();
        assert_eq!(old, Some(ppa));
    }

    #[test]
    fn gc_reclaims_invalid_pages() {
        let mut b = base();
        // Overwrite one logical page enough times to exhaust the free pool.
        let lba = Lba::new(0);
        for i in 0..(15 * 16 + 8) {
            if let Some(old) = b
                .program_mapped(
                    lba,
                    Bytes::copy_from_slice(format!("{i}").as_bytes()),
                    SimTime::ZERO,
                )
                .unwrap()
            {
                b.invalidate(old).unwrap();
            }
            b.gc_for_extent(0, None).unwrap();
        }
        assert!(b.stats.gc_invocations > 0);
        assert!(b.free_blocks() >= 2);
        // The single live page still reads back the latest value.
        let data = b.read_mapped(lba).unwrap().unwrap();
        assert_eq!(data.as_ref(), format!("{}", 15 * 16 + 8 - 1).as_bytes());
    }

    #[test]
    fn gc_migrates_valid_pages() {
        let mut b = base();
        // Interleave one cold (never overwritten) page into every block of
        // hot overwrites, so each GC victim holds live data to migrate.
        for i in 0..(16 * 16) {
            b.gc_for_extent(0, None).unwrap();
            let (lba, data) = if i % 16 == 0 {
                (Lba::new(100 + i / 16), Bytes::from_static(b"cold"))
            } else {
                (Lba::new(0), Bytes::from_static(b"hot"))
            };
            if let Some(old) = b.program_mapped(lba, data, SimTime::ZERO).unwrap() {
                b.invalidate(old).unwrap();
            }
        }
        assert!(b.stats.gc_page_copies > 0);
        for k in 0..16u64 {
            assert_eq!(
                b.read_mapped(Lba::new(100 + k)).unwrap().unwrap().as_ref(),
                b"cold",
                "cold page {k} must survive GC"
            );
        }
    }

    #[test]
    fn extent_allocation_matches_scalar_striping() {
        // The reservation path must hand out exactly the PPAs the scalar
        // allocate-program loop would, in the same die-striped order.
        let mut scalar = base();
        let mut expected = Vec::new();
        for _ in 0..20 {
            let p = scalar.allocate().unwrap();
            scalar.device.program(p, Bytes::from_static(b"s")).unwrap();
            expected.push(p);
        }
        let mut batched = base();
        let payloads = vec![Bytes::from_static(b"s"); 20];
        batched
            .program_extent_mapped(Lba::new(0), &payloads, SimTime::ZERO, None)
            .unwrap();
        let got: Vec<Ppa> = (0..20)
            .map(|i| batched.mapping.get(Lba::new(i)).unwrap())
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn extent_program_and_read_round_trip() {
        let mut b = base();
        let payloads: Vec<Bytes> = (0..5)
            .map(|i| Bytes::copy_from_slice(format!("p{i}").as_bytes()))
            .collect();
        b.program_extent_mapped(Lba::new(10), &payloads, SimTime::ZERO, None)
            .unwrap();
        assert_eq!(b.stats.host_writes, 5);
        let out = b.read_extent_mapped(Lba::new(9), 7).unwrap();
        assert_eq!(out[0], None, "lba 9 never written");
        assert_eq!(out[6], None, "lba 15 never written");
        for (i, payload) in payloads.iter().enumerate() {
            assert_eq!(out[i + 1].as_ref(), Some(payload));
        }
    }

    #[test]
    fn extent_overwrite_returns_pre_images_to_queue() {
        let mut b = base();
        let v1 = vec![Bytes::from_static(b"v1"); 3];
        b.program_extent_mapped(Lba::new(0), &v1, SimTime::ZERO, None)
            .unwrap();
        let olds: Vec<Ppa> = (0..3)
            .map(|i| b.mapping.get(Lba::new(i)).unwrap())
            .collect();
        let mut q = RecoveryQueue::new();
        let v2 = vec![Bytes::from_static(b"v2"); 3];
        b.program_extent_mapped(Lba::new(0), &v2, SimTime::from_secs(1), Some(&mut q))
            .unwrap();
        assert_eq!(q.len(), 3);
        for old in olds {
            assert!(q.is_protected(old), "pre-image {old} must be protected");
        }
    }

    #[test]
    fn oversized_extent_payload_fails_before_programming() {
        let mut b = base();
        let page = b.config().geometry().page_size() as usize;
        let payloads = vec![Bytes::from_static(b"ok"), Bytes::from(vec![0u8; page + 1])];
        assert!(b
            .program_extent_mapped(Lba::new(0), &payloads, SimTime::ZERO, None)
            .is_err());
        assert_eq!(
            b.device.stats().programs,
            0,
            "whole extent validated up front"
        );
        assert_eq!(b.mapping.get(Lba::new(0)), None);
    }

    #[test]
    fn unmap_extent_invalidates_and_reports() {
        let mut b = base();
        b.program_extent_mapped(
            Lba::new(0),
            &vec![Bytes::from_static(b"x"); 2],
            SimTime::ZERO,
            None,
        )
        .unwrap();
        let olds = b.unmap_extent(Lba::new(0), 4).unwrap();
        assert_eq!(olds.len(), 4);
        assert!(olds[0].is_some() && olds[1].is_some());
        assert_eq!(olds[2], None);
        assert_eq!(b.stats.host_trims, 4);
        assert_eq!(
            b.read_extent_mapped(Lba::new(0), 2).unwrap(),
            vec![None, None]
        );
    }

    #[test]
    fn check_extent_bounds() {
        let b = base();
        let max = b.logical_pages();
        assert!(b.check_extent(Lba::new(0), max as u32).is_ok());
        assert!(
            b.check_extent(Lba::new(max), 0).is_ok(),
            "empty extent is a no-op"
        );
        assert!(matches!(
            b.check_extent(Lba::new(max - 2), 4),
            Err(FtlError::LbaOutOfRange { lba, .. }) if lba == Lba::new(max)
        ));
        assert!(matches!(
            b.check_extent(Lba::new(u64::MAX), 2),
            Err(FtlError::LbaOutOfRange { .. })
        ));
    }

    #[test]
    fn check_lba_bounds() {
        let b = base();
        assert!(b.check_lba(Lba::new(0)).is_ok());
        let max = b.logical_pages();
        assert!(matches!(
            b.check_lba(Lba::new(max)),
            Err(FtlError::LbaOutOfRange { .. })
        ));
    }

    /// Mixed hot/cold churn that forces GC with live pages on every victim.
    fn churn(b: &mut FtlBase, rounds: u64) {
        for i in 0..rounds {
            b.gc_for_extent(0, None).unwrap();
            let (lba, data) = if i % 16 == 0 {
                (Lba::new(100 + i / 16), Bytes::from_static(b"cold"))
            } else {
                (Lba::new(0), Bytes::from_static(b"hot"))
            };
            if let Some(old) = b.program_mapped(lba, data, SimTime::ZERO).unwrap() {
                b.invalidate(old).unwrap();
            }
        }
    }

    #[test]
    fn gc_timer_accumulates_only_when_collecting() {
        let mut b = base();
        b.program_mapped(Lba::new(0), Bytes::from_static(b"x"), SimTime::ZERO)
            .unwrap();
        b.gc_for_extent(0, None).unwrap();
        assert_eq!(b.stats.gc_ns, 0, "no collection, no timing noise");
        churn(&mut b, 16 * 16 * 2);
        assert!(b.stats.gc_invocations > 0);
        assert!(b.stats.gc_ns > 0, "collections must be timed");
        assert!(b.stats.gc_migrations_max > 0);
    }

    #[test]
    fn gc_restores_full_reserve() {
        let mut b = base();
        churn(&mut b, 16 * 16 * 2);
        b.gc_for_extent(0, None).unwrap();
        assert!(b.free_blocks() >= b.config().gc_reserve() as usize);
    }

    #[test]
    fn victim_log_records_reclaims_when_enabled() {
        let mut b = FtlBase::new(FtlConfig::new(Geometry::tiny()).record_gc_victims(true));
        churn(&mut b, 16 * 16 * 2);
        let log = b.gc_victims();
        assert!(!log.is_empty());
        assert!(log.iter().all(|v| v.kind == GcVictimKind::Reclaim));
        assert_eq!(log.len() as u64, b.stats.gc_invocations);
    }

    #[test]
    fn victim_log_stays_empty_by_default() {
        let mut b = base();
        churn(&mut b, 16 * 16 * 2);
        assert!(b.stats.gc_invocations > 0);
        assert!(b.gc_victims().is_empty());
    }

    #[test]
    fn legacy_scan_config_produces_identical_victims() {
        // Belt and braces on top of the debug-build in-process oracle: run
        // the same churn on an indexed and a scan-configured FTL and compare
        // the recorded victim sequences in any build profile.
        let run = |indexed: bool| {
            let mut b = FtlBase::new(
                FtlConfig::new(Geometry::tiny())
                    .gc_victim_index(indexed)
                    .record_gc_victims(true),
            );
            churn(&mut b, 16 * 16 * 3);
            (b.gc_victims().to_vec(), {
                let mut s = b.stats;
                s.gc_ns = 0;
                s
            })
        };
        let (v_indexed, s_indexed) = run(true);
        let (v_scan, s_scan) = run(false);
        assert_eq!(v_indexed, v_scan);
        assert_eq!(s_indexed, s_scan);
    }

    /// Four chips of four 8-page blocks, every block free: the comparator
    /// cases below close chosen blocks by hand.
    fn four_chip_base() -> FtlBase {
        let g = Geometry::builder()
            .chips_per_channel(4)
            .blocks_per_chip(4)
            .pages_per_block(8)
            .build();
        FtlBase::new(FtlConfig::new(g))
    }

    /// Takes free block `raw` out of its chip's pool as a closed block with
    /// `invalid` reclaimable pages (zero: not a candidate, just one free
    /// block fewer on that chip).
    fn close_with_invalid(b: &mut FtlBase, raw: u32, invalid: u32) {
        let chip = (raw / b.config.geometry().blocks_per_chip()) as usize;
        b.free[chip].retain(|pba| pba.index() != raw);
        b.free_flags[raw as usize] = false;
        b.free_count -= 1;
        b.invalid_per_block[raw as usize] = invalid;
        b.refresh_victim(raw);
    }

    /// Both selectors must agree on the pick, and it must be `expected`.
    fn assert_pick(b: &mut FtlBase, expected: u32) {
        let scanned = b.select_victim_scan(None);
        assert_eq!(b.select_victim_indexed(), scanned, "selectors diverged");
        assert_eq!(scanned, Some(Pba::new(expected)));
    }

    #[test]
    fn higher_score_on_a_wetter_chip_beats_a_drier_chip() {
        let mut b = four_chip_base();
        // Chip 0 keeps 1 free block and offers 3 reclaimable pages; chip 1
        // keeps 3 free blocks and offers 5.
        close_with_invalid(&mut b, 0, 3);
        close_with_invalid(&mut b, 1, 0);
        close_with_invalid(&mut b, 2, 0);
        close_with_invalid(&mut b, 4, 5);
        assert_pick(&mut b, 4);
    }

    #[test]
    fn equal_scores_go_to_the_driest_chip() {
        let mut b = four_chip_base();
        // Chip 0 keeps 3 free blocks, chip 2 keeps 2; both offer 4 pages.
        close_with_invalid(&mut b, 0, 4);
        close_with_invalid(&mut b, 8, 4);
        close_with_invalid(&mut b, 9, 0);
        assert_pick(&mut b, 8);
    }

    #[test]
    fn equal_scores_and_dryness_go_to_the_lowest_chip() {
        let mut b = four_chip_base();
        // Chips 1 and 3 both keep 3 free blocks and offer 4 pages; chip 0
        // is drier but offers less.
        close_with_invalid(&mut b, 12, 4);
        close_with_invalid(&mut b, 4, 4);
        close_with_invalid(&mut b, 0, 2);
        close_with_invalid(&mut b, 1, 0);
        assert_pick(&mut b, 4);
    }

    /// Hot/cold churn through the configured GC engine (blocking or
    /// incremental, per `gc_before_write`), with enough cold (never
    /// rewritten) pages per block that victims cost real migrations.
    /// Returns whether a pump ever left a job paused mid-block.
    fn churn_mixed(b: &mut FtlBase, rounds: u64) -> bool {
        let mut saw_pending = false;
        for i in 0..rounds {
            b.gc_before_write(0, None, SimTime::ZERO, SimTime::ZERO)
                .unwrap();
            saw_pending |= b.gc_job_pending();
            let (lba, data) = if i.is_multiple_of(2) {
                (Lba::new(100 + i / 2 % 100), Bytes::from_static(b"cold"))
            } else {
                (Lba::new(0), Bytes::from_static(b"hot"))
            };
            if let Some(old) = b.program_mapped(lba, data, SimTime::ZERO).unwrap() {
                b.invalidate(old).unwrap();
            }
        }
        saw_pending
    }

    #[test]
    fn incremental_degenerate_config_reproduces_blocking_exactly() {
        // With the low watermark collapsed onto the blocking trigger and an
        // unbounded step budget, the incremental engine must reproduce the
        // blocking collector verbatim: same victim sequence, same stats
        // (modulo the wall-clock timer and the step counters), same
        // physical mapping.
        let run = |incremental: bool| {
            let mut cfg = FtlConfig::new(Geometry::tiny())
                .incremental_gc(incremental)
                .record_gc_victims(true);
            if incremental {
                cfg = cfg.gc_low_water_extra(0).gc_step_pages(u32::MAX);
            }
            let mut b = FtlBase::new(cfg);
            churn_mixed(&mut b, 600);
            b
        };
        let a = run(false);
        let b = run(true);
        assert_eq!(a.gc_victims(), b.gc_victims());
        let scrub = |mut s: FtlStats| {
            s.gc_ns = 0;
            s.gc_steps = 0;
            s.gc_stw_fallbacks = 0;
            s
        };
        assert_eq!(scrub(a.stats), scrub(b.stats));
        for l in 0..a.logical_pages() {
            assert_eq!(
                a.mapping.get(Lba::new(l)),
                b.mapping.get(Lba::new(l)),
                "physical mapping diverged at logical page {l}"
            );
        }
    }

    #[test]
    fn incremental_gc_pauses_jobs_mid_block_and_preserves_data() {
        let mut b = FtlBase::new(
            FtlConfig::new(Geometry::tiny())
                .incremental_gc(true)
                .gc_low_water_extra(1)
                .gc_step_pages(1),
        );
        let saw_pending = churn_mixed(&mut b, 600);
        assert!(
            saw_pending,
            "a 1-page step against multi-valid-page victims must pause mid-block"
        );
        assert!(b.stats.gc_steps > 0);
        assert!(b.stats.gc_invocations > 0);
        b.gc_drain_job(None).unwrap();
        assert!(!b.gc_job_pending());
        // Every cold page survives GC pausing and resuming around it.
        for k in 0..100u64 {
            assert_eq!(
                b.read_mapped(Lba::new(100 + k)).unwrap().unwrap().as_ref(),
                b"cold",
                "cold page {k} lost across paused GC jobs"
            );
        }
    }

    #[test]
    fn stw_fallback_fires_when_the_step_budget_cannot_keep_up() {
        let mut b = FtlBase::new(
            FtlConfig::new(Geometry::tiny())
                .incremental_gc(true)
                .gc_low_water_extra(0)
                .gc_step_pages(1),
        );
        // Eight blocks of half-valid data: victims cost 8 migrations each,
        // far beyond a 1-page step with a small urgency multiplier.
        for i in 0..128u64 {
            b.program_mapped(Lba::new(i), Bytes::from_static(b"v1"), SimTime::ZERO)
                .unwrap();
        }
        for i in (0..128u64).step_by(2) {
            let old = b
                .program_mapped(Lba::new(i), Bytes::from_static(b"v2"), SimTime::ZERO)
                .unwrap();
            b.invalidate(old.expect("page was mapped")).unwrap();
        }
        // Demand the whole remaining pool at once: the pump cannot reach
        // the hard floor within its budget, so the stop-the-world drain
        // must fire and restore the full reserve.
        let free = b.free_blocks() as u64;
        b.gc_maintain(free * 16, None).unwrap();
        assert_eq!(b.stats.gc_stw_fallbacks, 1);
        assert!(!b.gc_job_pending());
        assert!(
            b.free_blocks() as u64 >= free + 2,
            "blocking fallback must have restored reserve + need blocks"
        );
        for i in 0..128u64 {
            let want: &[u8] = if i % 2 == 0 { b"v2" } else { b"v1" };
            assert_eq!(b.read_mapped(Lba::new(i)).unwrap().unwrap().as_ref(), want);
        }
    }

    #[test]
    fn gc_debt_tracks_the_free_pool() {
        let mut b = FtlBase::new(
            FtlConfig::new(Geometry::tiny())
                .incremental_gc(true)
                .gc_low_water_extra(2),
        );
        assert_eq!(b.gc_debt(), 0.0);
        let mut last = 0.0f64;
        for i in 0..200u64 {
            b.program_mapped(Lba::new(i), Bytes::from_static(b"x"), SimTime::ZERO)
                .unwrap();
            let debt = b.gc_debt();
            assert!(
                debt >= last,
                "debt must not fall while the pool only drains"
            );
            assert!((0.0..=1.0).contains(&debt));
            last = debt;
        }
        // 200 live pages leave at most 3 whole free blocks: below the
        // low watermark of 4, so debt is strictly positive.
        assert!(last > 0.0, "drained pool must report debt");
    }

    #[test]
    fn gc_pause_histogram_records_collection_entries() {
        let mut b = base();
        assert_eq!(b.gc_pause_latency().count, 0);
        churn_mixed(&mut b, 600);
        let pause = b.gc_pause_latency();
        assert!(pause.count > 0, "GC ran, so pauses must be recorded");
        assert!(pause.max_ns > 0);
        assert!(pause.p99_ns >= pause.p50_ns);
        assert!(pause.max_ns >= pause.p99_ns);
    }

    /// One tiny-geometry drive (16 blocks of 16 pages) staged for the
    /// top-up gate: block 0 holds `invalid` superseded pages, the first
    /// `protected` of them still inside the protection window, and cold
    /// fill leaves exactly 3 free blocks — above the blocking trigger
    /// (reserve 2) but below the low watermark (4), so a plain
    /// `gc_before_write(0, ..)` may only top up.
    fn stage_top_up(invalid: u64, protected: u64) -> (FtlBase, RecoveryQueue) {
        let mut b = FtlBase::new(FtlConfig::new(Geometry::tiny()).record_gc_victims(true));
        let mut q = RecoveryQueue::with_block_size(16);
        for l in 0..16u64 {
            b.program_mapped(Lba::new(l), Bytes::from_static(b"v1"), SimTime::ZERO)
                .unwrap();
        }
        for l in 0..invalid {
            let old = b
                .program_mapped(Lba::new(l), Bytes::from_static(b"v2"), SimTime::ZERO)
                .unwrap()
                .expect("page was mapped");
            b.invalidate(old).unwrap();
            if l < protected {
                q.push(Lba::new(l), Some(old), SimTime::ZERO);
                b.note_protected(old);
            }
        }
        let mut l = 16u64;
        while b.free_blocks() > 3 {
            b.program_mapped(Lba::new(l), Bytes::from_static(b"cold"), SimTime::ZERO)
                .unwrap();
            l += 1;
        }
        assert_eq!(b.free_blocks(), 3);
        (b, q)
    }

    /// Whether one `gc_before_write` of `pages` opened a reclaim job on
    /// block 0 (the victim log records selections as jobs open).
    fn collects_block_zero(b: &mut FtlBase, q: &mut RecoveryQueue, pages: u64) -> bool {
        b.gc_before_write(pages, Some(q), SimTime::ZERO, SimTime::ZERO)
            .unwrap();
        match b.gc_victims() {
            [] => false,
            [v] => {
                assert_eq!(v.block, 0, "block 0 is the only candidate");
                true
            }
            more => panic!("expected at most one victim, got {more:?}"),
        }
    }

    #[test]
    fn top_up_refuses_a_victim_holding_protected_pages() {
        // 12 invalid, 2 protected: 10 reclaimable clears the yield bar,
        // but copying the 2 backups early is what feeds the GC spiral.
        let (mut b, mut q) = stage_top_up(12, 2);
        assert!(!collects_block_zero(&mut b, &mut q, 0));
        assert!(!b.gc_job_pending());
        assert_eq!(b.free_blocks(), 3);
        assert_eq!(b.stats.gc_protected_copies, 0);
    }

    #[test]
    fn top_up_refuses_a_victim_below_half_a_block_reclaimable() {
        // 7 of 16 pages reclaimable: the job would copy 9 to free 7.
        let (mut b, mut q) = stage_top_up(7, 0);
        assert!(!collects_block_zero(&mut b, &mut q, 0));
        assert_eq!(b.stats.gc_invocations, 0);
        // Exactly half a block clears the bar.
        let (mut b, mut q) = stage_top_up(8, 0);
        assert!(collects_block_zero(&mut b, &mut q, 0));
    }

    #[test]
    fn below_the_target_the_refused_victims_are_still_collected() {
        // Two blocks of demand lift the blocking trigger to 4 free blocks,
        // above the staged 3: collection is now required, not optional,
        // and takes the victim the top-up just refused.
        for (invalid, protected) in [(12, 2), (7, 0)] {
            let (mut b, mut q) = stage_top_up(invalid, protected);
            assert!(!collects_block_zero(&mut b, &mut q, 0));
            assert!(collects_block_zero(&mut b, &mut q, 32));
            b.gc_drain_job(Some(&mut q)).unwrap();
            assert_eq!(b.stats.gc_invocations, 1);
            assert_eq!(b.stats.gc_protected_copies, protected);
            for l in 0..16u64 {
                let want: &[u8] = if l < invalid { b"v2" } else { b"v1" };
                assert_eq!(b.read_mapped(Lba::new(l)).unwrap().unwrap().as_ref(), want);
            }
        }
    }

    #[test]
    fn top_up_copies_no_more_backups_than_the_blocking_collector() {
        // Trim-heavy churn over 120 of the drive's 208 logical pages, 200
        // operations per 10 s window, so most superseded pages are still
        // protected when GC runs. The blocking collector copies backups
        // only when it must; an ungated top-up would copy them early and
        // often.
        use crate::{Ftl, InsiderFtl};
        let run = |incremental: bool| {
            let mut f =
                InsiderFtl::new(FtlConfig::new(Geometry::tiny()).incremental_gc(incremental));
            let mut now = SimTime::from_secs(1);
            let mut x = 7u64;
            for i in 0..2_000u64 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let lba = Lba::new((x >> 33) % 120);
                if i % 3 == 2 {
                    f.trim(lba, now).unwrap();
                } else {
                    f.write(lba, Bytes::from_static(b"churn"), now).unwrap();
                }
                now += SimTime::from_millis(50);
            }
            f.stats().gc_protected_copies
        };
        let blocking = run(false);
        let incremental = run(true);
        assert!(blocking > 0, "the churn must force backup copies");
        assert!(
            incremental <= blocking,
            "incremental engine copied {incremental} backups, blocking {blocking}"
        );
    }

    #[test]
    fn remount_drops_a_paused_gc_job() {
        let mut b = FtlBase::new(
            FtlConfig::new(Geometry::tiny())
                .incremental_gc(true)
                .gc_low_water_extra(1)
                .gc_step_pages(1),
        );
        let mut i = 0u64;
        while !b.gc_job_pending() {
            assert!(i < 2_000, "churn never paused a job");
            b.gc_before_write(0, None, SimTime::ZERO, SimTime::ZERO)
                .unwrap();
            let (lba, data) = if i.is_multiple_of(2) {
                (Lba::new(100 + i / 2 % 100), Bytes::from_static(b"cold"))
            } else {
                (Lba::new(0), Bytes::from_static(b"hot"))
            };
            if let Some(old) = b.program_mapped(lba, data, SimTime::ZERO).unwrap() {
                b.invalidate(old).unwrap();
            }
            i += 1;
        }
        b.remount().unwrap();
        assert!(!b.gc_job_pending(), "a job must not survive a power cut");
        // The half-collected victim is ordinary closed state after the
        // rebuild; collection proceeds from scratch.
        churn_mixed(&mut b, 64);
        b.gc_drain_job(None).unwrap();
        assert!(b.free_blocks() >= 2);
    }
}
