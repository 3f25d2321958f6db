//! The simulated NAND device.

use crate::block::Block;
use crate::fault::{FaultCheck, FaultKind, FaultPlan};
use crate::latency::LatencySnapshot;
use crate::oob::{OobRecord, OobTag};
use crate::page::PageState;
use crate::sched::{CmdRecord, CmdScheduler, SchedMode};
use crate::stats::NandStats;
use crate::{Geometry, NandError, Pba, Ppa, Result, SimTime};
use bytes::Bytes;

/// Datasheet-class erase resume overhead: tens of µs to rebuild the erase
/// pulse after a suspend window.
const ERASE_RESUME_NS: u64 = 50_000;

/// Timing and reliability configuration for a [`NandDevice`].
///
/// Defaults follow the paper's cited NAND datasheet (Micron MT29F):
/// 50 µs page read, 500 µs page program, and 3 ms block erase, with a
/// 3000-cycle endurance limit typical of MLC NAND.
#[derive(Debug, Clone)]
pub struct NandConfig {
    geometry: Geometry,
    read_latency_ns: u64,
    program_latency_ns: u64,
    erase_latency_ns: u64,
    /// Page-transfer time over the shared channel bus (serialized among
    /// the chips of one channel).
    bus_transfer_ns: u64,
    endurance: u32,
    sched_mode: SchedMode,
    queue_depth: usize,
    capture_commands: bool,
    erase_suspend: bool,
    max_erase_suspends: u32,
}

impl NandConfig {
    /// Configuration with default latencies for `geometry`.
    pub fn new(geometry: Geometry) -> Self {
        NandConfig {
            geometry,
            read_latency_ns: 50_000,
            program_latency_ns: 500_000,
            erase_latency_ns: 3_000_000,
            // ~133 MB/s per channel for a 4 KiB page: the ONFI-class bus
            // of the paper's prototype card, which is what bounds its
            // 1.2 GB/s read throughput across 8 channels.
            bus_transfer_ns: 30_000,
            endurance: 3_000,
            sched_mode: SchedMode::default(),
            // NVMe-class default: one submission queue 32 deep.
            queue_depth: 32,
            capture_commands: false,
            erase_suspend: false,
            max_erase_suspends: 3,
        }
    }

    /// Sets the page-read latency in nanoseconds.
    pub fn read_latency_ns(mut self, ns: u64) -> Self {
        self.read_latency_ns = ns;
        self
    }

    /// Sets the page-program latency in nanoseconds.
    pub fn program_latency_ns(mut self, ns: u64) -> Self {
        self.program_latency_ns = ns;
        self
    }

    /// Sets the block-erase latency in nanoseconds.
    pub fn erase_latency_ns(mut self, ns: u64) -> Self {
        self.erase_latency_ns = ns;
        self
    }

    /// Sets the channel-bus page-transfer time in nanoseconds.
    pub fn bus_transfer_ns(mut self, ns: u64) -> Self {
        self.bus_transfer_ns = ns;
        self
    }

    /// Sets the per-block program/erase endurance limit.
    pub fn endurance(mut self, cycles: u32) -> Self {
        self.endurance = cycles;
        self
    }

    /// The per-block program/erase endurance limit.
    pub fn endurance_limit(&self) -> u32 {
        self.endurance
    }

    /// Selects the timing model: the legacy busy-integral estimate, a
    /// strict in-order command queue, or the out-of-order scheduler
    /// (the default). All three apply data identically; see
    /// [`SchedMode`].
    pub fn scheduler(mut self, mode: SchedMode) -> Self {
        self.sched_mode = mode;
        self
    }

    /// The configured timing model.
    pub fn sched_mode(&self) -> SchedMode {
        self.sched_mode
    }

    /// Sets the closed-loop host queue depth the scheduler models (how
    /// many commands the host keeps in flight before its next arrival
    /// waits for a completion). Default 32.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        assert!(depth >= 1, "queue depth is at least one");
        self.queue_depth = depth;
        self
    }

    /// The configured host queue depth.
    pub fn queue_depth_limit(&self) -> usize {
        self.queue_depth
    }

    /// Enables the per-command capture log
    /// (`NandDevice::take_captured_commands`), used by the ordering
    /// proptests. Off by default — the log grows with every command.
    pub fn capture_commands(mut self, enabled: bool) -> Self {
        self.capture_commands = enabled;
        self
    }

    /// Enables erase-suspend/resume: in [`SchedMode::OutOfOrder`], a read
    /// arriving while an erase is mid-pulse on its die preempts it (never
    /// an erase of the read's own block) at a 50 µs resume penalty.
    /// Timing only — data application is unaffected. Off by default.
    pub fn erase_suspend(mut self, enabled: bool) -> Self {
        self.erase_suspend = enabled;
        self
    }

    /// Whether erase-suspend is enabled.
    pub fn erase_suspend_enabled(&self) -> bool {
        self.erase_suspend
    }

    /// The erase resume penalty, ns: extra die time a suspended erase
    /// pays to rebuild its pulse.
    pub fn erase_resume_latency_ns(&self) -> u64 {
        ERASE_RESUME_NS
    }

    /// Caps how many times one erase may be suspended (default 3), so a
    /// read-heavy burst cannot starve an erase indefinitely.
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero — use [`erase_suspend`](Self::erase_suspend)
    /// to disable suspension instead.
    pub fn max_erase_suspends(mut self, max: u32) -> Self {
        assert!(max >= 1, "an erase must be suspendable at least once");
        self.max_erase_suspends = max;
        self
    }

    /// The per-erase suspend cap.
    pub fn max_erase_suspends_limit(&self) -> u32 {
        self.max_erase_suspends
    }

    /// The device geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The same timing/endurance configuration over a different geometry —
    /// used by namespace partitioning, where every shard of a physical
    /// drive inherits the drive's NAND characteristics but owns only a
    /// slice of its blocks.
    pub fn with_geometry(mut self, geometry: Geometry) -> Self {
        self.geometry = geometry;
        self
    }
}

/// One block's result from a [`NandDevice::scan_oob`] pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockScan {
    /// The block's current erase count.
    pub erase_count: u32,
    /// Exclusive end of the scan: the block's write pointer (or the full
    /// block when it is completely programmed).
    pub scanned_to: u32,
    /// `(page offset, record)` for every scanned page carrying an OOB
    /// record, in page order.
    pub records: Vec<(u32, OobRecord)>,
}

/// The merged result of a [`NandDevice::scan_oob`] pass: one entry per
/// block, in block-index order, plus the number of spare-area reads the
/// pass was charged for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanReport {
    /// Per-block scan results, indexed by raw block number.
    pub blocks: Vec<BlockScan>,
    /// Spare-area page reads performed (and charged to stats).
    pub pages_scanned: u64,
}

/// A simulated NAND flash device.
///
/// Enforces the physical constraints of NAND (no in-place updates, in-order
/// programming, erase-before-reuse, endurance) and accounts per-operation
/// latency into [`NandStats`].
///
/// The device is deliberately *dumb*: address translation, garbage collection
/// and wear leveling belong to the FTL crate layered on top.
///
/// # Example
///
/// ```rust
/// use insider_nand::{Geometry, NandConfig, NandDevice, Ppa, NandError};
/// use bytes::Bytes;
///
/// let mut dev = NandDevice::new(NandConfig::new(Geometry::tiny()));
/// dev.program(Ppa::new(0), Bytes::from_static(b"v1")).unwrap();
/// // NAND forbids in-place updates:
/// let err = dev.program(Ppa::new(0), Bytes::from_static(b"v2")).unwrap_err();
/// assert!(matches!(err, NandError::ProgramNonFree(_)));
/// ```
#[derive(Debug)]
pub struct NandDevice {
    config: NandConfig,
    blocks: Vec<Block>,
    /// Cumulative counters, including the per-die and per-channel busy
    /// integrals: programs and erases occupy a die, dies operate in
    /// parallel on real hardware, and all chips of one channel share its
    /// bus — the device-level makespan is `max(busiest die, busiest bus)`
    /// rather than the serial sum.
    stats: NandStats,
    /// The per-channel/per-die command queue: every successful operation
    /// is also admitted here (unless the legacy mode is selected), which
    /// yields per-command completion timestamps and latency percentiles.
    /// Timing only — data application stays synchronous at submit.
    sched: CmdScheduler,
    faults: FaultPlan,
    /// Next global program sequence number for tagged programs (1-based).
    ///
    /// Survives [`power_cut`](Self::power_cut): a real controller recovers
    /// the same value by scanning for the maximum stored sequence number
    /// during mount, so keeping the counter is equivalent to (and cheaper
    /// than) a max-scan-plus-one rebuild.
    next_seq: u64,
}

impl NandDevice {
    /// Creates an erased device with the given configuration.
    pub fn new(config: NandConfig) -> Self {
        let blocks = (0..config.geometry.total_blocks())
            .map(|_| Block::new(config.geometry.pages_per_block()))
            .collect();
        let chips = config.geometry.total_chips() as usize;
        let channels = config.geometry.channels() as usize;
        let mut sched = CmdScheduler::new(
            chips,
            channels,
            config.sched_mode,
            config.queue_depth,
            config.capture_commands,
        );
        if config.erase_suspend {
            sched = sched.with_erase_suspend(ERASE_RESUME_NS, config.max_erase_suspends);
        }
        NandDevice {
            stats: NandStats::with_shape(chips, channels),
            sched,
            blocks,
            config,
            faults: FaultPlan::new(),
            next_seq: 1,
        }
    }

    /// The sequence number assigned to the most recent tagged program
    /// (zero before any).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Charges one successful command to the busy integrals and, unless
    /// the legacy timing model is selected, admits it to the command
    /// scheduler. `page` is the flat physical page index (`u64::MAX` for
    /// erases). Debug builds run both accountings and assert the
    /// scheduler's busy integrals match the legacy vectors exactly — the
    /// scheduler/makespan differential oracle.
    fn charge(&mut self, kind: FaultKind, page: u64, pba: Pba, ns: u64, bus_ns: u64) {
        let chip = (pba.index() / self.config.geometry.blocks_per_chip()) as usize;
        self.stats.die_busy_ns[chip] += ns;
        let ch = pba.channel(&self.config.geometry) as usize;
        self.stats.bus_busy_ns[ch] += bus_ns;
        if self.config.sched_mode != SchedMode::Legacy {
            let overhead_before = self.sched.suspend_overhead_ns();
            self.sched
                .admit(kind, chip, ch, page, u64::from(pba.index()), ns, bus_ns);
            // A suspended erase pays its resume penalty on the die of the
            // *read* that preempted it (same die by construction); mirror
            // that extra service time into the legacy integrals so the
            // makespan differential oracle keeps holding.
            let penalty = self.sched.suspend_overhead_ns() - overhead_before;
            if penalty > 0 {
                self.stats.die_busy_ns[chip] += penalty;
                self.stats.busy_ns += penalty;
                self.stats.suspend_overhead_ns += penalty;
            }
            self.stats.erases_suspended = self.sched.erases_suspended();
            let (stalls, stall_ns) = self.sched.gc_stall_totals();
            self.stats.gc_stalled_cmds = stalls;
            self.stats.gc_stall_ns = stall_ns;
            debug_assert_eq!(
                self.sched.die_busy_ns(),
                &self.stats.die_busy_ns[..],
                "scheduler die busy integrals diverged from legacy accounting"
            );
            debug_assert_eq!(
                self.sched.bus_busy_ns(),
                &self.stats.bus_busy_ns[..],
                "scheduler bus busy integrals diverged from legacy accounting"
            );
        }
    }

    /// Simulated busy time per chip (die), in nanoseconds.
    pub fn chip_busy_ns(&self) -> &[u64] {
        &self.stats.die_busy_ns
    }

    /// Page-transfer busy time per channel bus, in nanoseconds.
    pub fn bus_busy_ns(&self) -> &[u64] {
        &self.stats.bus_busy_ns
    }

    /// Device-level makespan under perfect die parallelism, bounded by the
    /// busiest chip *or* the busiest channel bus — whichever saturates
    /// first. Compare with [`NandStats::busy_ns`](crate::NandStats) (the
    /// serial sum) to see how much parallelism a workload's distribution
    /// can exploit.
    pub fn parallel_busy_ns(&self) -> u64 {
        self.stats.parallel_busy_ns()
    }

    /// Advances the device clock to the simulated instant `now`: command
    /// arrivals are stamped with it, and every queued window whose service
    /// already started is finalized into the latency histograms. The FTL
    /// calls this at the top of each host operation. No-op in legacy mode.
    pub fn set_now(&mut self, now: SimTime) {
        if self.config.sched_mode != SchedMode::Legacy {
            self.sched.set_now(now.as_micros().saturating_mul(1000));
        }
    }

    /// Flushes the command scheduler: every queued window is finalized so
    /// [`latency_snapshot`](Self::latency_snapshot) covers all admitted
    /// commands. Call at end of run or before reading percentiles.
    pub fn sync(&mut self) {
        self.sched.flush();
    }

    /// Per-kind latency percentiles over every finalized command. Covers
    /// only commands the scheduler has finalized — [`sync`](Self::sync)
    /// first for end-of-run figures. Empty in legacy mode.
    pub fn latency_snapshot(&self) -> LatencySnapshot {
        self.sched.snapshot()
    }

    /// Latency percentiles over finalized *host-issued* commands only:
    /// commands admitted inside the GC context
    /// ([`set_gc_context`](Self::set_gc_context)) are excluded. This is the
    /// foreground distribution a host observes. Empty in legacy mode.
    pub fn host_latency_snapshot(&self) -> LatencySnapshot {
        self.sched.host_snapshot()
    }

    /// Flags subsequent operations as GC-internal (`true`) or host-issued
    /// (`false`, the initial state) for latency attribution. The FTL brackets
    /// its GC work with this; data behavior is unaffected.
    pub fn set_gc_context(&mut self, gc: bool) {
        self.sched.set_gc_context(gc);
    }

    /// How many in-flight erases the scheduler suspended for a read.
    pub fn erases_suspended(&self) -> u64 {
        self.sched.erases_suspended()
    }

    /// The scheduler's busy-integral makespan. Equal to
    /// [`parallel_busy_ns`](Self::parallel_busy_ns) by construction (both
    /// sum pure service time per resource); zero in legacy mode.
    pub fn sched_makespan_ns(&self) -> u64 {
        self.sched.makespan_ns()
    }

    /// Queue-aware completion horizon: when the last known command
    /// finishes, including idle gaps between arrivals. Zero in legacy mode.
    pub fn completion_horizon_ns(&self) -> u64 {
        self.sched.completion_horizon_ns()
    }

    /// How many reads the out-of-order scheduler promoted past at least
    /// one queued mutation.
    pub fn reads_promoted(&self) -> u64 {
        self.sched.reads_promoted()
    }

    /// Latest completion among GC-context admissions — when the most
    /// recent GC work fully lands on the arrays. Zero in legacy mode.
    pub fn gc_horizon_ns(&self) -> u64 {
        self.sched.gc_horizon_ns()
    }

    /// Stalls the firmware for the host until `ns`: host commands
    /// submitted earlier dispatch at `ns`, with the wait counted into
    /// their host-visible latency. A blocking GC drain calls this with
    /// [`gc_horizon_ns`](Self::gc_horizon_ns); no-op in legacy mode.
    pub fn stall_host_until(&mut self, ns: u64) {
        self.sched.stall_host_until(ns);
    }

    /// The timing model in effect.
    pub fn sched_mode(&self) -> SchedMode {
        self.config.sched_mode
    }

    /// Drains the per-command capture log (empty unless
    /// `NandConfig::capture_commands` was enabled). Flushes the scheduler
    /// first so still-queued commands are finalized into the log — taking
    /// the log means asking for the complete schedule so far.
    pub fn take_captured_commands(&mut self) -> Vec<CmdRecord> {
        self.sched.flush();
        self.sched.take_captured()
    }

    /// The device geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.config.geometry
    }

    /// Cumulative operation statistics.
    pub fn stats(&self) -> &NandStats {
        &self.stats
    }

    /// Installs a deterministic fault-injection plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Immutable view of a block, for policy audits and tests.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::PbaOutOfRange`] for addresses beyond the geometry.
    pub fn block(&self, pba: Pba) -> Result<&Block> {
        self.blocks
            .get(pba.index() as usize)
            .ok_or(NandError::PbaOutOfRange(pba))
    }

    fn check_ppa(&self, ppa: Ppa) -> Result<()> {
        if ppa.is_valid(&self.config.geometry) {
            Ok(())
        } else {
            Err(NandError::PpaOutOfRange(ppa))
        }
    }

    /// Consults the fault plan for one operation attempt of `kind`,
    /// translating the outcome into stats and an error.
    fn consult_faults(&mut self, kind: FaultKind) -> Result<()> {
        match self.faults.check(kind) {
            FaultCheck::Proceed => Ok(()),
            FaultCheck::Injected => {
                self.stats.record_failure();
                self.stats.record_injected_fault();
                Err(NandError::InjectedFault(FaultPlan::label(kind)))
            }
            FaultCheck::PowerCut => {
                self.stats.record_failure();
                self.stats.record_injected_fault();
                Err(NandError::PowerLoss)
            }
            FaultCheck::PoweredOff => {
                self.stats.record_failure();
                Err(NandError::PowerLoss)
            }
        }
    }

    /// Whether a scheduled power cut has fired and the device is latched
    /// off (every operation fails until [`power_cut`](Self::power_cut)
    /// power-cycles it).
    pub fn is_powered_off(&self) -> bool {
        self.faults.is_powered_off()
    }

    /// Power-cycles the device after a (possibly scheduled) power loss.
    ///
    /// DRAM-like state is what a real controller loses: here that is the
    /// FTL's view of page validity, which the device mirrors in its page
    /// states. Every `Valid` page therefore degrades to `Invalid` — data,
    /// OOB records, write pointers, erase counts and stats all persist, and
    /// it is the FTL's mount scan that re-validates the winning copy of
    /// each logical page. Also clears the fault plan's powered-off latch so
    /// the mount scan can read again.
    pub fn power_cut(&mut self) {
        for block in &mut self.blocks {
            for offset in 0..block.len() {
                if block.page(offset).state() == PageState::Valid {
                    block.page_mut(offset).invalidate();
                }
            }
        }
        // Timing windows queued at the instant of the cut are finalized:
        // their data already landed (application is synchronous at
        // submit), and the restarted device must not carry stale windows.
        self.sched.flush();
        self.faults.power_restored();
    }

    /// Reads the payload of a programmed page.
    ///
    /// # Errors
    ///
    /// * [`NandError::PpaOutOfRange`] — address beyond geometry.
    /// * [`NandError::ReadUnwritten`] — page not programmed since last erase.
    /// * [`NandError::InjectedFault`] — scheduled by the fault plan.
    /// * [`NandError::PowerLoss`] — power is cut or already off.
    pub fn read(&mut self, ppa: Ppa) -> Result<Bytes> {
        if let Err(e) = self.check_ppa(ppa) {
            self.stats.record_failure();
            return Err(e);
        }
        self.consult_faults(FaultKind::Read)?;
        let g = self.config.geometry;
        let block = &self.blocks[ppa.block(&g).index() as usize];
        let page = block.page(ppa.page_offset(&g));
        match page.data() {
            Some(data) => {
                // Reference-counted handoff: the host gets a handle to the
                // stored buffer, not a copy.
                let data = data.clone();
                self.stats.record_read(self.config.read_latency_ns);
                self.charge(
                    FaultKind::Read,
                    ppa.index(),
                    ppa.block(&g),
                    self.config.read_latency_ns,
                    self.config.bus_transfer_ns,
                );
                Ok(data)
            }
            None => {
                self.stats.record_failure();
                Err(NandError::ReadUnwritten(ppa))
            }
        }
    }

    /// Programs a free page with `data`.
    ///
    /// Pages within a block must be programmed in order; the page must be
    /// free; the payload must fit in a page.
    ///
    /// # Errors
    ///
    /// * [`NandError::PpaOutOfRange`] — address beyond geometry.
    /// * [`NandError::PayloadTooLarge`] — payload exceeds page size.
    /// * [`NandError::ProgramNonFree`] — in-place update attempted.
    /// * [`NandError::ProgramOutOfOrder`] — violates in-order programming.
    /// * [`NandError::InjectedFault`] — scheduled by the fault plan.
    /// * [`NandError::PowerLoss`] — power is cut or already off.
    pub fn program(&mut self, ppa: Ppa, data: Bytes) -> Result<()> {
        self.program_inner(ppa, data, None)
    }

    /// Programs a free page with `data` plus an out-of-band record.
    ///
    /// The OOB record is stored atomically with the data (spare-area
    /// semantics): if the program fails, neither lands. The device completes
    /// the FTL-supplied [`OobTag`] with the next global program sequence
    /// number, which totally orders all tagged programs and survives power
    /// loss — the basis for mount-time "newest wins" conflict resolution.
    ///
    /// # Errors
    ///
    /// Same as [`program`](Self::program).
    pub fn program_tagged(&mut self, ppa: Ppa, data: Bytes, tag: OobTag) -> Result<()> {
        self.program_inner(ppa, data, Some(tag))
    }

    fn program_inner(&mut self, ppa: Ppa, data: Bytes, tag: Option<OobTag>) -> Result<()> {
        if let Err(e) = self.check_ppa(ppa) {
            self.stats.record_failure();
            return Err(e);
        }
        if data.len() > self.config.geometry.page_size() as usize {
            self.stats.record_failure();
            return Err(NandError::PayloadTooLarge {
                len: data.len(),
                page_size: self.config.geometry.page_size(),
            });
        }
        self.consult_faults(FaultKind::Program)?;
        let g = self.config.geometry;
        let offset = ppa.page_offset(&g);
        let raw = ppa.block(&g).index() as usize;
        {
            let block = &self.blocks[raw];
            if !block.page(offset).is_free() {
                self.stats.record_failure();
                return Err(NandError::ProgramNonFree(ppa));
            }
            match block.write_ptr() {
                Some(expected) if expected == offset => {}
                expected => {
                    self.stats.record_failure();
                    return Err(NandError::ProgramOutOfOrder {
                        requested: ppa,
                        expected_offset: expected,
                    });
                }
            }
        }
        let oob = tag.map(|t| {
            let record = OobRecord::from_tag(t, self.next_seq);
            self.next_seq += 1;
            record
        });
        // Provenance: is the payload's backing buffer still aliased by an
        // upstream holder (zero-copy) or did it arrive uniquely owned (a
        // private allocation was handed over)?
        self.stats.record_buffer(data.is_shared());
        let block = &mut self.blocks[raw];
        block.page_mut(offset).program(data, oob);
        block.advance_write_ptr();
        self.stats.record_program(self.config.program_latency_ns);
        self.charge(
            FaultKind::Program,
            ppa.index(),
            ppa.block(&g),
            self.config.program_latency_ns,
            self.config.bus_transfer_ns,
        );
        Ok(())
    }

    /// Multi-page read submit: fetches every page of one extent in a single
    /// device call, in order.
    ///
    /// Each page is charged exactly as an individual [`read`](Self::read)
    /// (array time to its die, transfer time to its channel bus), so the
    /// serial [`NandStats::busy_ns`](crate::NandStats) sum is unchanged —
    /// but because the FTL stripes consecutive extent pages across dies,
    /// the per-chip/per-bus vectors behind
    /// [`parallel_busy_ns`](Self::parallel_busy_ns) overlap, which is where
    /// a grouped submit beats N independent commands on real hardware.
    ///
    /// # Errors
    ///
    /// Stops at the first failing page and returns its error; reads have no
    /// side effects beyond stats, so the caller loses nothing.
    pub fn read_pages(&mut self, ppas: &[Ppa]) -> Result<Vec<Bytes>> {
        let mut out = Vec::with_capacity(ppas.len());
        for &ppa in ppas {
            out.push(self.read(ppa)?);
        }
        Ok(out)
    }

    /// Multi-page program submit: the batch is enqueued and drained in
    /// *issue order* — programs are mutations, which the scheduler never
    /// reorders, so issue order equals submission order. Each page is
    /// applied, fault-checked and charged exactly as an individual
    /// [`program`](Self::program) call (see [`read_pages`](Self::read_pages)
    /// for the serial-vs-parallel split).
    ///
    /// Returns how many leading pages were programmed alongside the overall
    /// result: on a mid-batch failure the count tells the caller exactly
    /// which prefix landed, so it can finish its mapping bookkeeping for
    /// those pages before handling the error — a partially applied extent
    /// must never leave orphaned valid pages. Because the fault plan is
    /// consulted per command at drain, a power cut scheduled by
    /// [`FaultPlan::power_cut_after`](crate::FaultPlan::power_cut_after)
    /// counts commands in issue order: the triggering program and the
    /// entire queued-but-unissued tail of the batch are lost atomically.
    pub fn program_pages(&mut self, pages: Vec<(Ppa, Bytes)>) -> (usize, Result<()>) {
        let total = pages.len();
        for (done, (ppa, data)) in pages.into_iter().enumerate() {
            if let Err(e) = self.program(ppa, data) {
                return (done, Err(e));
            }
        }
        (total, Ok(()))
    }

    /// Multi-page tagged program submit: [`program_pages`](Self::program_pages)
    /// with a per-page [`OobTag`]. Each landed page gets its own monotone
    /// sequence number, so a crash mid-batch leaves a prefix whose OOB
    /// records exactly describe which pages were acknowledged.
    pub fn program_pages_tagged(
        &mut self,
        pages: Vec<(Ppa, Bytes, OobTag)>,
    ) -> (usize, Result<()>) {
        let total = pages.len();
        for (done, (ppa, data, tag)) in pages.into_iter().enumerate() {
            if let Err(e) = self.program_tagged(ppa, data, tag) {
                return (done, Err(e));
            }
        }
        (total, Ok(()))
    }

    /// The out-of-band record of the page at `ppa`, if the page was
    /// programmed with one. Metadata peek with no timing or fault checks,
    /// for audits and tests; mount scans use [`scan_oob`](Self::scan_oob).
    ///
    /// # Errors
    ///
    /// Returns [`NandError::PpaOutOfRange`] for addresses beyond the geometry.
    pub fn oob(&self, ppa: Ppa) -> Result<Option<OobRecord>> {
        self.check_ppa(ppa)?;
        let g = self.config.geometry;
        Ok(self.blocks[ppa.block(&g).index() as usize]
            .page(ppa.page_offset(&g))
            .oob()
            .copied())
    }

    /// The stored payload of the page at `ppa`, if programmed. Metadata
    /// peek with no timing or fault checks, for differential oracles and
    /// tests; the host data path uses [`read`](Self::read).
    ///
    /// # Errors
    ///
    /// Returns [`NandError::PpaOutOfRange`] for addresses beyond the geometry.
    pub fn peek_data(&self, ppa: Ppa) -> Result<Option<&Bytes>> {
        self.check_ppa(ppa)?;
        let g = self.config.geometry;
        Ok(self.blocks[ppa.block(&g).index() as usize]
            .page(ppa.page_offset(&g))
            .data())
    }

    /// Bulk spare-area scan of every block, sharded across `threads` OS
    /// threads (clamped to the block count; `0` and `1` both mean a single
    /// thread). Blocks are split into contiguous ranges — the simulator's
    /// stand-in for per-channel/per-die scan parallelism — and the merged
    /// report is always in block-index order, so the result is
    /// deterministic regardless of thread count.
    ///
    /// Each scanned page is charged as one spare-area read (array time
    /// plus bus transfer) in bulk: counts and the serial busy integral
    /// move, but the per-die vectors and the command scheduler do not — a
    /// mount scan runs before the host queue exists. Per-page faults are
    /// not consulted (the caller power-cycled the device; a scan is
    /// all-or-nothing).
    ///
    /// # Errors
    ///
    /// [`NandError::PowerLoss`] if the device is latched off.
    pub fn scan_oob(&mut self, threads: usize) -> Result<ScanReport> {
        if self.faults.is_powered_off() {
            self.stats.record_failure();
            return Err(NandError::PowerLoss);
        }
        let ppb = self.config.geometry.pages_per_block();
        let nblocks = self.blocks.len();
        let shard_count = threads.max(1).min(nblocks.max(1));
        let chunk = nblocks.div_ceil(shard_count);
        let scan_range = |shard: &[Block]| -> Vec<BlockScan> {
            shard
                .iter()
                .map(|block| {
                    let scanned_to = block.write_ptr().unwrap_or(ppb);
                    let mut records = Vec::with_capacity(scanned_to as usize);
                    for offset in 0..scanned_to {
                        if let Some(record) = block.page(offset).oob() {
                            records.push((offset, *record));
                        }
                    }
                    BlockScan {
                        erase_count: block.erase_count(),
                        scanned_to,
                        records,
                    }
                })
                .collect()
        };
        let merged: Vec<BlockScan> = if shard_count <= 1 {
            scan_range(&self.blocks)
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .blocks
                    .chunks(chunk)
                    .map(|shard| s.spawn(move || scan_range(shard)))
                    .collect();
                // Shards are contiguous block ranges joined in spawn
                // order, so the fold is a plain order-preserving concat.
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("scan shard panicked"))
                    .collect()
            })
        };
        let pages_scanned: u64 = merged.iter().map(|b| u64::from(b.scanned_to)).sum();
        self.stats.record_scan(
            pages_scanned,
            self.config.read_latency_ns + self.config.bus_transfer_ns,
        );
        Ok(ScanReport {
            blocks: merged,
            pages_scanned,
        })
    }

    /// Marks a programmed page invalid (superseded). FTL-driven; free pages
    /// or already-invalid pages are left unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::PpaOutOfRange`] for addresses beyond the geometry.
    pub fn invalidate(&mut self, ppa: Ppa) -> Result<()> {
        self.check_ppa(ppa)?;
        let g = self.config.geometry;
        let block = &mut self.blocks[ppa.block(&g).index() as usize];
        let offset = ppa.page_offset(&g);
        if block.page(offset).state() == PageState::Valid {
            block.page_mut(offset).invalidate();
        }
        Ok(())
    }

    /// Marks an invalid page valid again.
    ///
    /// This is FTL bookkeeping, not a physical NAND operation: the page's
    /// payload was never erased ("delayed deletion"), so rolling a mapping
    /// entry back to an old physical page simply flips the old page's state
    /// back to live. Valid and free pages are left unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::PpaOutOfRange`] for addresses beyond the geometry.
    pub fn revalidate(&mut self, ppa: Ppa) -> Result<()> {
        self.check_ppa(ppa)?;
        let g = self.config.geometry;
        let block = &mut self.blocks[ppa.block(&g).index() as usize];
        let offset = ppa.page_offset(&g);
        if block.page(offset).state() == PageState::Invalid {
            block.page_mut(offset).revalidate();
        }
        Ok(())
    }

    /// Bulk [`revalidate`](Self::revalidate): the mount's conflict
    /// resolution flips hundreds of thousands of page states in one go, so
    /// the per-call address check and block lookup are amortized over runs
    /// of same-block addresses. Pass physically sorted addresses for cache
    /// locality and maximal run length; correctness does not depend on the
    /// order. All-or-nothing on the address check: no state changes unless
    /// every address is in range.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::PpaOutOfRange`] for addresses beyond the geometry.
    pub fn revalidate_many(&mut self, ppas: &[Ppa]) -> Result<()> {
        for &ppa in ppas {
            self.check_ppa(ppa)?;
        }
        let g = self.config.geometry;
        let mut i = 0;
        while i < ppas.len() {
            let pba = ppas[i].block(&g);
            let block = &mut self.blocks[pba.index() as usize];
            while i < ppas.len() && ppas[i].block(&g) == pba {
                let offset = ppas[i].page_offset(&g);
                if block.page(offset).state() == PageState::Invalid {
                    block.page_mut(offset).revalidate();
                }
                i += 1;
            }
        }
        Ok(())
    }

    /// Erases a block, freeing all of its pages.
    ///
    /// # Errors
    ///
    /// * [`NandError::PbaOutOfRange`] — address beyond geometry.
    /// * [`NandError::BlockWornOut`] — endurance limit reached.
    /// * [`NandError::InjectedFault`] — scheduled by the fault plan.
    /// * [`NandError::PowerLoss`] — power is cut or already off.
    pub fn erase(&mut self, pba: Pba) -> Result<()> {
        if !pba.is_valid(&self.config.geometry) {
            self.stats.record_failure();
            return Err(NandError::PbaOutOfRange(pba));
        }
        self.consult_faults(FaultKind::Erase)?;
        let block = &mut self.blocks[pba.index() as usize];
        if block.erase_count() >= self.config.endurance {
            self.stats.record_failure();
            return Err(NandError::BlockWornOut(pba));
        }
        block.erase();
        self.stats.record_erase(self.config.erase_latency_ns);
        self.charge(
            FaultKind::Erase,
            u64::MAX,
            pba,
            self.config.erase_latency_ns,
            0,
        );
        Ok(())
    }

    /// The state of the page at `ppa`.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::PpaOutOfRange`] for addresses beyond the geometry.
    pub fn page_state(&self, ppa: Ppa) -> Result<PageState> {
        self.check_ppa(ppa)?;
        let g = self.config.geometry;
        Ok(self.blocks[ppa.block(&g).index() as usize]
            .page(ppa.page_offset(&g))
            .state())
    }

    /// Maximum erase count across all blocks (wear ceiling).
    pub fn max_erase_count(&self) -> u32 {
        self.blocks
            .iter()
            .map(Block::erase_count)
            .max()
            .unwrap_or(0)
    }

    /// Per-block wear summary: `(min, max, mean)` erase counts. The spread
    /// between min and max is what wear-leveling tries to keep small.
    pub fn wear_summary(&self) -> (u32, u32, f64) {
        let min = self
            .blocks
            .iter()
            .map(Block::erase_count)
            .min()
            .unwrap_or(0);
        let max = self.max_erase_count();
        let mean = if self.blocks.is_empty() {
            0.0
        } else {
            self.total_erases() as f64 / self.blocks.len() as f64
        };
        (min, max, mean)
    }

    /// Sum of erase counts across all blocks.
    pub fn total_erases(&self) -> u64 {
        self.blocks.iter().map(|b| b.erase_count() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> NandDevice {
        NandDevice::new(NandConfig::new(Geometry::tiny()))
    }

    #[test]
    fn program_then_read_round_trips() {
        let mut d = dev();
        d.program(Ppa::new(0), Bytes::from_static(b"abc")).unwrap();
        assert_eq!(d.read(Ppa::new(0)).unwrap().as_ref(), b"abc");
    }

    #[test]
    fn read_unwritten_page_fails() {
        let mut d = dev();
        assert_eq!(
            d.read(Ppa::new(5)),
            Err(NandError::ReadUnwritten(Ppa::new(5)))
        );
    }

    #[test]
    fn in_place_update_is_rejected() {
        let mut d = dev();
        d.program(Ppa::new(0), Bytes::from_static(b"v1")).unwrap();
        assert_eq!(
            d.program(Ppa::new(0), Bytes::from_static(b"v2")),
            Err(NandError::ProgramNonFree(Ppa::new(0)))
        );
        // Old data untouched.
        assert_eq!(d.read(Ppa::new(0)).unwrap().as_ref(), b"v1");
    }

    #[test]
    fn out_of_order_program_is_rejected() {
        let mut d = dev();
        let err = d
            .program(Ppa::new(2), Bytes::from_static(b"x"))
            .unwrap_err();
        assert_eq!(
            err,
            NandError::ProgramOutOfOrder {
                requested: Ppa::new(2),
                expected_offset: Some(0)
            }
        );
    }

    #[test]
    fn erase_frees_pages_for_reprogramming() {
        let mut d = dev();
        d.program(Ppa::new(0), Bytes::from_static(b"v1")).unwrap();
        d.erase(Pba::new(0)).unwrap();
        assert_eq!(d.page_state(Ppa::new(0)).unwrap(), PageState::Free);
        d.program(Ppa::new(0), Bytes::from_static(b"v2")).unwrap();
        assert_eq!(d.read(Ppa::new(0)).unwrap().as_ref(), b"v2");
    }

    #[test]
    fn invalidate_marks_valid_pages_only() {
        let mut d = dev();
        d.program(Ppa::new(0), Bytes::from_static(b"v")).unwrap();
        d.invalidate(Ppa::new(0)).unwrap();
        assert_eq!(d.page_state(Ppa::new(0)).unwrap(), PageState::Invalid);
        // Idempotent on invalid pages, no-op on free pages.
        d.invalidate(Ppa::new(0)).unwrap();
        d.invalidate(Ppa::new(1)).unwrap();
        assert_eq!(d.page_state(Ppa::new(1)).unwrap(), PageState::Free);
    }

    #[test]
    fn invalid_page_data_survives_until_erase() {
        let mut d = dev();
        d.program(Ppa::new(0), Bytes::from_static(b"old")).unwrap();
        d.invalidate(Ppa::new(0)).unwrap();
        // Delayed deletion: the payload is still physically readable.
        assert_eq!(d.read(Ppa::new(0)).unwrap().as_ref(), b"old");
        d.erase(Pba::new(0)).unwrap();
        assert!(d.read(Ppa::new(0)).is_err());
    }

    #[test]
    fn payload_too_large_is_rejected() {
        let g = Geometry::builder().page_size(4).build();
        let mut d = NandDevice::new(NandConfig::new(g));
        let err = d
            .program(Ppa::new(0), Bytes::from_static(b"12345"))
            .unwrap_err();
        assert_eq!(
            err,
            NandError::PayloadTooLarge {
                len: 5,
                page_size: 4
            }
        );
    }

    #[test]
    fn out_of_range_addresses_fail() {
        let mut d = dev();
        assert!(matches!(
            d.read(Ppa::new(100_000)),
            Err(NandError::PpaOutOfRange(_))
        ));
        assert!(matches!(
            d.erase(Pba::new(100_000)),
            Err(NandError::PbaOutOfRange(_))
        ));
    }

    #[test]
    fn endurance_limit_enforced() {
        let g = Geometry::tiny();
        let mut d = NandDevice::new(NandConfig::new(g).endurance(2));
        d.erase(Pba::new(0)).unwrap();
        d.erase(Pba::new(0)).unwrap();
        assert_eq!(
            d.erase(Pba::new(0)),
            Err(NandError::BlockWornOut(Pba::new(0)))
        );
        assert_eq!(d.max_erase_count(), 2);
        assert_eq!(d.total_erases(), 2);
    }

    #[test]
    fn stats_account_latencies() {
        let g = Geometry::tiny();
        let mut d = NandDevice::new(
            NandConfig::new(g)
                .read_latency_ns(10)
                .program_latency_ns(20)
                .erase_latency_ns(30),
        );
        d.program(Ppa::new(0), Bytes::from_static(b"x")).unwrap();
        d.read(Ppa::new(0)).unwrap();
        d.erase(Pba::new(0)).unwrap();
        let s = d.stats();
        assert_eq!((s.reads, s.programs, s.erases), (1, 1, 1));
        assert_eq!(s.busy_ns, 60);
    }

    #[test]
    fn injected_faults_fail_scheduled_ops() {
        let mut d = dev();
        let mut plan = FaultPlan::new();
        plan.fail_nth(FaultKind::Program, 2);
        d.set_fault_plan(plan);
        d.program(Ppa::new(0), Bytes::from_static(b"a")).unwrap();
        assert_eq!(
            d.program(Ppa::new(1), Bytes::from_static(b"b")),
            Err(NandError::InjectedFault("program"))
        );
        // Page 1 was not programmed, so in-order pointer still expects offset 1.
        d.program(Ppa::new(1), Bytes::from_static(b"b")).unwrap();
        assert_eq!(d.stats().failures, 1);
    }

    #[test]
    fn chip_parallelism_accounting() {
        let g = Geometry::builder()
            .channels(1)
            .chips_per_channel(2)
            .blocks_per_chip(2)
            .pages_per_block(4)
            .page_size(16)
            .build();
        let mut d = NandDevice::new(
            NandConfig::new(g)
                .program_latency_ns(100)
                .bus_transfer_ns(10),
        );
        // Blocks 0..1 live on chip 0; blocks 2..3 on chip 1 (same channel).
        d.program(Ppa::new(0), Bytes::from_static(b"a")).unwrap();
        d.program(Ppa::new(8), Bytes::from_static(b"b")).unwrap();
        assert_eq!(d.stats().busy_ns, 200, "serial sum counts both");
        assert_eq!(d.parallel_busy_ns(), 100, "dies overlap perfectly");
        assert_eq!(d.chip_busy_ns(), &[100, 100]);
        assert_eq!(d.bus_busy_ns(), &[20], "one shared bus carried both pages");
        // A second op on chip 0 breaks the symmetry.
        d.program(Ppa::new(1), Bytes::from_static(b"c")).unwrap();
        assert_eq!(d.parallel_busy_ns(), 200);
    }

    #[test]
    fn bus_bound_workloads_saturate_on_the_channel() {
        let g = Geometry::builder()
            .channels(1)
            .chips_per_channel(4)
            .blocks_per_chip(2)
            .pages_per_block(4)
            .page_size(16)
            .build();
        // Fast dies, slow bus: the shared channel becomes the bottleneck.
        let mut d = NandDevice::new(
            NandConfig::new(g)
                .program_latency_ns(10)
                .bus_transfer_ns(100),
        );
        for chip in 0..4u64 {
            d.program(Ppa::new(chip * 8), Bytes::from_static(b"x"))
                .unwrap();
        }
        // Four dies overlap (10 ns each) but the bus carried 4 x 100 ns.
        assert_eq!(d.parallel_busy_ns(), 400);
    }

    #[test]
    fn batched_submit_matches_scalar_accounting() {
        let g = Geometry::builder()
            .channels(1)
            .chips_per_channel(2)
            .blocks_per_chip(2)
            .pages_per_block(4)
            .page_size(16)
            .build();
        let make = || {
            NandDevice::new(
                NandConfig::new(g)
                    .program_latency_ns(100)
                    .bus_transfer_ns(10),
            )
        };
        // Extent striped across both dies: pages 0..2 of chip 0's block 0
        // interleaved with pages 0..2 of chip 1's block 2.
        let ppas = [0u64, 8, 1, 9];
        let mut batched = make();
        let pages: Vec<(Ppa, Bytes)> = ppas
            .iter()
            .map(|&p| (Ppa::new(p), Bytes::from_static(b"x")))
            .collect();
        let (done, res) = batched.program_pages(pages);
        res.unwrap();
        assert_eq!(done, 4);
        let mut scalar = make();
        for &p in &ppas {
            scalar
                .program(Ppa::new(p), Bytes::from_static(b"x"))
                .unwrap();
        }
        assert_eq!(batched.stats().programs, scalar.stats().programs);
        assert_eq!(batched.stats().busy_ns, scalar.stats().busy_ns);
        assert_eq!(batched.chip_busy_ns(), scalar.chip_busy_ns());
        assert_eq!(batched.bus_busy_ns(), scalar.bus_busy_ns());
        // The striped extent overlaps perfectly across the two dies.
        assert_eq!(batched.parallel_busy_ns(), 200);
        assert_eq!(batched.stats().busy_ns, 400);
        assert_eq!(
            batched.read_pages(&ppas.map(Ppa::new)).unwrap(),
            vec![Bytes::from_static(b"x"); 4]
        );
    }

    #[test]
    fn batched_program_reports_failing_prefix() {
        let mut d = dev();
        let mut plan = FaultPlan::new();
        plan.fail_nth(FaultKind::Program, 3);
        d.set_fault_plan(plan);
        let pages: Vec<(Ppa, Bytes)> = (0..4)
            .map(|p| (Ppa::new(p), Bytes::from_static(b"y")))
            .collect();
        let (done, res) = d.program_pages(pages);
        assert_eq!(done, 2, "two pages landed before the injected fault");
        assert_eq!(res, Err(NandError::InjectedFault("program")));
        assert_eq!(d.page_state(Ppa::new(1)).unwrap(), PageState::Valid);
        assert_eq!(d.page_state(Ppa::new(2)).unwrap(), PageState::Free);
    }

    #[test]
    fn batched_read_stops_at_first_error() {
        let mut d = dev();
        d.program(Ppa::new(0), Bytes::from_static(b"a")).unwrap();
        let err = d.read_pages(&[Ppa::new(0), Ppa::new(5)]).unwrap_err();
        assert_eq!(err, NandError::ReadUnwritten(Ppa::new(5)));
    }

    #[test]
    fn tagged_programs_stamp_monotone_sequence_numbers() {
        use crate::{Lba, SimTime};
        let mut d = dev();
        d.program_tagged(
            Ppa::new(0),
            Bytes::from_static(b"a"),
            crate::OobTag::live(Lba::new(7), SimTime::from_secs(1)),
        )
        .unwrap();
        d.program_tagged(
            Ppa::new(1),
            Bytes::from_static(b"b"),
            crate::OobTag::backup(Lba::new(7), SimTime::from_secs(2)),
        )
        .unwrap();
        let first = d.oob(Ppa::new(0)).unwrap().unwrap();
        let second = d.oob(Ppa::new(1)).unwrap().unwrap();
        assert_eq!(first.lba, Lba::new(7));
        assert!(first.live && !second.live);
        assert!(second.seq > first.seq);
        // Untagged programs carry no OOB and consume no sequence number.
        d.program(Ppa::new(2), Bytes::from_static(b"c")).unwrap();
        assert_eq!(d.oob(Ppa::new(2)).unwrap(), None);
        d.program_tagged(
            Ppa::new(3),
            Bytes::from_static(b"d"),
            crate::OobTag::live(Lba::new(8), SimTime::ZERO),
        )
        .unwrap();
        assert_eq!(d.oob(Ppa::new(3)).unwrap().unwrap().seq, second.seq + 1);
    }

    #[test]
    fn power_cut_latches_and_power_cycle_recovers() {
        use crate::{Lba, SimTime};
        let mut d = dev();
        let mut plan = FaultPlan::new();
        plan.power_cut_after(2);
        d.set_fault_plan(plan);
        let tag = crate::OobTag::live(Lba::new(0), SimTime::ZERO);
        d.program_tagged(Ppa::new(0), Bytes::from_static(b"a"), tag)
            .unwrap();
        // Second mutation triggers the cut without being applied.
        assert_eq!(
            d.program_tagged(Ppa::new(1), Bytes::from_static(b"b"), tag),
            Err(NandError::PowerLoss)
        );
        assert!(d.is_powered_off());
        assert_eq!(d.page_state(Ppa::new(1)).unwrap(), PageState::Free);
        // Everything fails while latched off, reads included.
        assert_eq!(d.read(Ppa::new(0)), Err(NandError::PowerLoss));
        assert_eq!(d.erase(Pba::new(1)), Err(NandError::PowerLoss));
        assert_eq!(d.scan_oob(1), Err(NandError::PowerLoss));
        assert_eq!(d.stats().injected_faults, 1, "only the cut itself fired");
        assert!(d.stats().failures >= 4);
        // Power-cycle: data and OOB persist, validity degrades to Invalid.
        d.power_cut();
        assert!(!d.is_powered_off());
        assert_eq!(d.page_state(Ppa::new(0)).unwrap(), PageState::Invalid);
        assert_eq!(d.read(Ppa::new(0)).unwrap().as_ref(), b"a");
        let oob = d.oob(Ppa::new(0)).unwrap().unwrap();
        // The sequence counter continues past the surviving maximum.
        d.program_tagged(Ppa::new(1), Bytes::from_static(b"b"), tag)
            .unwrap();
        assert!(d.oob(Ppa::new(1)).unwrap().unwrap().seq > oob.seq);
    }

    #[test]
    fn scheduler_records_per_command_latency() {
        let mut d = dev();
        assert_eq!(d.sched_mode(), SchedMode::OutOfOrder);
        d.set_now(SimTime::from_secs(1));
        d.program(Ppa::new(0), Bytes::from_static(b"a")).unwrap();
        d.read(Ppa::new(0)).unwrap();
        d.sync();
        let snap = d.latency_snapshot();
        assert_eq!(snap.program.count, 1);
        assert_eq!(snap.read.count, 1);
        assert_eq!(snap.total.count, 2);
        // Same-page read-after-program: the read waited for the program.
        assert!(snap.read.max_ns >= 500_000 + 50_000);
        assert_eq!(d.sched_makespan_ns(), d.parallel_busy_ns());
    }

    #[test]
    fn legacy_mode_reports_no_percentiles() {
        let g = Geometry::tiny();
        let mut d = NandDevice::new(NandConfig::new(g).scheduler(SchedMode::Legacy));
        d.program(Ppa::new(0), Bytes::from_static(b"a")).unwrap();
        d.read(Ppa::new(0)).unwrap();
        d.sync();
        assert_eq!(d.latency_snapshot().total.count, 0);
        assert_eq!(d.sched_makespan_ns(), 0);
        assert!(
            d.stats().busy_ns > 0,
            "legacy busy integrals still accumulate"
        );
    }

    #[test]
    fn erase_suspend_device_path_mirrors_integrals() {
        // Program die service (300 µs) shorter than the bus transfer
        // (400 µs) makes the program's completion bus-bound, so the
        // throttled read arrival (400 µs) lands strictly inside the erase
        // pulse that started when the die freed at 300 µs.
        let mut d = NandDevice::new(
            NandConfig::new(Geometry::tiny())
                .program_latency_ns(300_000)
                .bus_transfer_ns(400_000)
                .queue_depth(2)
                .erase_suspend(true),
        );
        d.program(Ppa::new(16), Bytes::from_static(b"x")).unwrap(); // block 1
        d.set_gc_context(true);
        d.erase(Pba::new(0)).unwrap();
        d.set_gc_context(false);
        d.read(Ppa::new(16)).unwrap(); // suspends the in-flight erase
        assert_eq!(d.erases_suspended(), 1);
        assert_eq!(d.stats().erases_suspended, 1);
        assert_eq!(d.stats().suspend_overhead_ns, 50_000);
        // The resume penalty joined both accountings (the per-admit debug
        // asserts in `charge` already verified the vectors match).
        assert_eq!(d.sched_makespan_ns(), d.parallel_busy_ns());
        d.sync();
        let all = d.latency_snapshot();
        let host = d.host_latency_snapshot();
        // Suspended erase: started 300 µs, read runs 400–450 µs, then
        // 2.9 ms remaining pulse + 50 µs resume → ends at 3.4 ms.
        assert_eq!(all.erase.max_ns, 3_400_000);
        assert_eq!(all.erase.count, 1);
        assert_eq!(host.erase.count, 0, "GC-context erase not a host sample");
        assert_eq!(host.total.count, 2, "host program + read");
    }

    #[test]
    fn buffer_provenance_is_classified_at_program() {
        let mut d = dev();
        // A handle the caller still holds: zero-copy, classified shared.
        let kept = Bytes::from(vec![1u8; 4]);
        d.program(Ppa::new(0), kept.clone()).unwrap();
        // Sole ownership handed over: a private allocation, classified
        // copied (the hallmark of a deep-copying data path).
        let private = Bytes::from(vec![2u8; 4]);
        d.program(Ppa::new(1), private).unwrap();
        assert_eq!(d.stats().buffers_shared, 1);
        assert_eq!(d.stats().buffers_copied, 1);
        // Reading back shares the stored buffer rather than copying it.
        let read = d.read(Ppa::new(0)).unwrap();
        assert_eq!(read.as_ref().as_ptr(), kept.as_ref().as_ptr());
    }

    #[test]
    fn captured_commands_expose_schedule_order() {
        let g = Geometry::tiny();
        let mut d = NandDevice::new(NandConfig::new(g).capture_commands(true));
        d.program(Ppa::new(0), Bytes::from_static(b"a")).unwrap();
        d.program(Ppa::new(1), Bytes::from_static(b"b")).unwrap();
        d.read(Ppa::new(0)).unwrap();
        d.sync();
        let mut rec = d.take_captured_commands();
        rec.sort_by_key(|r| r.submit);
        assert_eq!(rec.len(), 3);
        assert_eq!(rec[2].kind, FaultKind::Read);
        // Same-page dependency: the read starts at or after its program.
        assert!(rec[2].start_ns >= rec[0].start_ns);
    }

    /// The bulk scan is the only mount-time view of the spare areas, so it
    /// is pinned page by page against the free `oob` peek — on full,
    /// partial, erased and re-programmed blocks, with untagged pages mixed
    /// in — for one shard and for several shard counts.
    #[test]
    fn scan_oob_matches_per_page_peeks_for_any_shard_count() {
        use crate::{Lba, SimTime};
        let mut d = dev();
        let g = *d.geometry();
        let ppb = g.pages_per_block();
        let mut n = 0u64;
        let mut fill = |d: &mut NandDevice, block: u32, pages: u32| {
            for off in 0..pages {
                let ppa = Pba::new(block).page(&g, off);
                n += 1;
                let data = Bytes::from_static(b"x");
                if n.is_multiple_of(7) {
                    d.program(ppa, data).unwrap(); // untagged
                } else {
                    let (lba, at) = (Lba::new(n % 40), SimTime::from_millis(n));
                    let tag = if n.is_multiple_of(3) {
                        crate::OobTag::backup(lba, at)
                    } else {
                        crate::OobTag::live(lba, at)
                    };
                    d.program_tagged(ppa, data, tag).unwrap();
                }
            }
        };
        fill(&mut d, 0, ppb); // full
        fill(&mut d, 1, 5); // partial
        fill(&mut d, 2, ppb); // erased
        d.erase(Pba::new(2)).unwrap();
        fill(&mut d, 3, ppb); // erased, then partially re-programmed
        d.erase(Pba::new(3)).unwrap();
        fill(&mut d, 3, 9);
        fill(&mut d, 9, ppb); // full, mid-drive

        let die_before = d.stats().die_busy_ns.clone();
        let single = d.scan_oob(1).unwrap();
        assert_eq!(single.blocks.len(), g.total_blocks() as usize);
        let mut expected_pages = 0u64;
        for (b, scan) in single.blocks.iter().enumerate() {
            let pba = Pba::new(b as u32);
            let block = d.block(pba).unwrap();
            assert_eq!(scan.erase_count, block.erase_count());
            assert_eq!(scan.scanned_to, block.write_ptr().unwrap_or(ppb));
            let peeked: Vec<_> = (0..ppb)
                .filter_map(|off| d.oob(pba.page(&g, off)).unwrap().map(|r| (off, r)))
                .collect();
            assert_eq!(scan.records, peeked, "block {b} diverged from the peeks");
            expected_pages += u64::from(scan.scanned_to);
        }
        assert_eq!(single.pages_scanned, expected_pages);
        assert_eq!(
            single.blocks[2].scanned_to, 0,
            "an erased block reads blank"
        );
        assert_eq!(single.blocks[3].erase_count, 1);

        for threads in [2, 3, 16, 64] {
            let sharded = d.scan_oob(threads).unwrap();
            assert_eq!(sharded, single, "{threads} shards diverged from one");
        }
        // Charged as one spare read per scanned page, in bulk: the per-die
        // vectors and the command scheduler never see a mount scan.
        assert_eq!(d.stats().reads, 5 * expected_pages);
        assert_eq!(d.stats().die_busy_ns, die_before);
    }

    #[test]
    fn last_seq_tracks_tagged_programs() {
        use crate::{Lba, SimTime};
        let mut d = dev();
        assert_eq!(d.last_seq(), 0);
        d.program_tagged(
            Ppa::new(0),
            Bytes::from_static(b"a"),
            crate::OobTag::live(Lba::new(0), SimTime::ZERO),
        )
        .unwrap();
        let seq = d.oob(Ppa::new(0)).unwrap().unwrap().seq;
        assert_eq!(d.last_seq(), seq);
    }

    #[test]
    fn block_view_reports_counts() {
        let mut d = dev();
        d.program(Ppa::new(0), Bytes::from_static(b"a")).unwrap();
        d.program(Ppa::new(1), Bytes::from_static(b"b")).unwrap();
        d.invalidate(Ppa::new(0)).unwrap();
        let b = d.block(Pba::new(0)).unwrap();
        assert_eq!(b.valid_pages(), 1);
        assert_eq!(b.invalid_pages(), 1);
    }
}
