//! The device-level workloads, `aged-churn` and `read-scan`, plus the
//! layer readings (Fig. 8 split, FTL, NAND, detector replay) every
//! workload reports.
//!
//! A run is: set-up (repeated, median reported) → timed phase → GC settle
//! and full check → rate ladder. The timed phase starts with a fixed,
//! seed-determined prefix of requests; every simulated metric is read at
//! the end of that prefix, so it is identical across runs of one seed. The
//! phase then keeps issuing the same request stream until the host-time
//! budget is spent, which only the host metrics see, with [`Probes`] early
//! in it: power cuts (each remount checked page by page), then
//! attack/recovery cycles (idle past the detection window, encrypt short
//! scattered extents until the alarm, roll back, check every page).

use std::time::{Duration, Instant};

use bytes::Bytes;
use insider_detect::{
    payload_entropy_milli, DecisionTree, Detector, DetectorConfig, IoMode, IoReq,
    ENTROPY_SAMPLE_BYTES,
};
use insider_ftl::FtlStats;
use insider_nand::{Geometry, LatencySnapshot, Lba, NandStats, SimTime};
use ssd_insider::{DeviceState, DramUsage, IoTiming, SsdInsider};

use crate::shadow::Shadow;
use crate::trace::{SharedTracer, Tracer};
use crate::util::{chunked_host_stats, fastest, median, secs, Rng};
use crate::{baseline_tree, shipping_drive, Outcome, Scale, Workload};

/// Size and pacing of one device-level workload.
#[derive(Debug, Clone)]
pub struct Params {
    /// Drive geometry.
    pub geometry: Geometry,
    /// Share of the logical span written during set-up.
    pub fill: f64,
    /// Whether set-up overwrites the filled span once more (aging).
    pub age: bool,
    /// Simulated request rate of the timed phase, requests/s.
    pub rate: u64,
    /// Requests in the deterministic prefix of the timed phase.
    pub prefix: u64,
    /// Ladder rates, requests/s, ascending.
    pub ladder: &'static [u64],
    /// Simulated seconds each ladder rung runs.
    pub ladder_secs: u64,
    /// Latency limit for the ladder: how late, in ms, the device may
    /// finish the last request of a rung after it was due.
    pub late_limit_ms: f64,
    /// Files (short scattered extents) each attack encrypts.
    pub attack_files: u64,
    /// Set-up repetitions behind `setup_s`.
    pub setup_reps: usize,
    /// Attack/recovery cycles per run.
    pub attacks: usize,
}

/// Power cuts per run (median remount time reported).
pub const REMOUNTS: usize = 9;

/// Requests per chunk of the host statistics (see
/// [`chunked_host_stats`]).
const HOST_CHUNK: usize = 2_000;

fn eight_die(blocks_per_chip: u32) -> Geometry {
    Geometry::builder()
        .channels(2)
        .chips_per_channel(4)
        .blocks_per_chip(blocks_per_chip)
        .pages_per_block(64)
        .page_size(4096)
        .build()
}

/// Parameters of `workload` at `scale`.
pub fn params(workload: Workload, scale: Scale) -> Params {
    let full = scale == Scale::Full;
    match workload {
        Workload::AgedChurn => Params {
            geometry: eight_die(if full { 128 } else { 16 }),
            fill: 0.9,
            age: true,
            rate: 25,
            prefix: if full { 12_000 } else { 1_500 },
            ladder: &[20, 30, 35, 40, 45, 50, 60],
            ladder_secs: if full { 30 } else { 10 },
            late_limit_ms: 250.0,
            attack_files: if full { 64 } else { 32 },
            setup_reps: 5,
            attacks: 15,
        },
        Workload::ReadScan => Params {
            geometry: eight_die(if full { 128 } else { 16 }),
            fill: 0.75,
            age: false,
            rate: 400,
            prefix: if full { 60_000 } else { 3_000 },
            ladder: &[500, 650, 750, 850, 1_000],
            ladder_secs: if full { 5 } else { 2 },
            late_limit_ms: 250.0,
            attack_files: if full { 64 } else { 32 },
            setup_reps: 21,
            attacks: 15,
        },
        Workload::FsRansom => unreachable!("fs-ransom has its own parameters"),
    }
}

/// One host request of a device-level workload.
#[derive(Debug, Clone, Copy)]
struct Req {
    write: bool,
    lba: u64,
    len: u64,
}

/// The request stream of the timed phase and the ladder.
#[derive(Debug, Clone)]
struct Gen {
    workload: Workload,
    rng: Rng,
    filled: u64,
    logical: u64,
    scan_cursor: u64,
    append_cursor: u64,
}

impl Gen {
    fn new(workload: Workload, rng: Rng, filled: u64, logical: u64) -> Self {
        Gen {
            workload,
            rng,
            filled,
            logical,
            scan_cursor: 0,
            append_cursor: filled,
        }
    }

    fn next(&mut self) -> Req {
        let r = &mut self.rng;
        match self.workload {
            // 75 % writes, 25 % reads of 1–8 pages; 80 % of requests land
            // in the hottest 20 % of the filled span.
            Workload::AgedChurn => {
                let len = r.range(1, 8);
                let hot = self.filled / 5;
                let lba = if r.chance(80) {
                    r.below(hot - len)
                } else {
                    hot + r.below(self.filled - hot - len)
                };
                Req {
                    write: r.chance(75),
                    lba,
                    len,
                }
            }
            // 99 % reads: half 64–256-page sequential scans, half 1–8-page
            // random reads over the filled span; 1 % small appends past it.
            Workload::ReadScan => {
                if r.chance(1) {
                    let len = r.range(1, 8);
                    if self.append_cursor + len > self.logical {
                        self.append_cursor = self.filled;
                    }
                    let lba = self.append_cursor;
                    self.append_cursor += len;
                    Req {
                        write: true,
                        lba,
                        len,
                    }
                } else if r.chance(50) {
                    let len = r.range(64, 256);
                    if self.scan_cursor + len > self.filled {
                        self.scan_cursor = 0;
                    }
                    let lba = self.scan_cursor;
                    self.scan_cursor += len;
                    Req {
                        write: false,
                        lba,
                        len,
                    }
                } else {
                    let len = r.range(1, 8);
                    Req {
                        write: false,
                        lba: r.below(self.filled - len),
                        len,
                    }
                }
            }
            Workload::FsRansom => unreachable!(),
        }
    }
}

/// A drive after set-up, with its shadow and the instant timing starts.
pub struct Prepared {
    /// The drive.
    pub ssd: SsdInsider,
    /// Acknowledged contents.
    pub shadow: Shadow,
    /// Simulated instant the timed phase starts.
    pub start: SimTime,
    filled: u64,
    gen_ms: f64,
    age_ms: f64,
}

/// Builds, fills and (for aged-churn) ages a drive.
fn prepare(p: &Params, seed: u64, tree: &DecisionTree) -> Prepared {
    let t = Instant::now();
    let mut ssd = shipping_drive(p.geometry, tree.clone());
    let logical = ssd.logical_pages();
    let filled = (logical as f64 * p.fill) as u64;
    let mut shadow = Shadow::new(seed, logical);
    // 64-page extents at 4 ms: ~16k pages/s, well under what eight dies
    // program, so the fill queues nothing.
    let mut now = SimTime::from_secs(1);
    let write_span = |ssd: &mut SsdInsider, shadow: &mut Shadow, now: &mut SimTime, gap| {
        let mut lba = 0;
        while lba < filled {
            let len = 64.min(filled - lba);
            let (versions, data) = shadow.stage(lba, len, false);
            ssd.write_extent(Lba::new(lba), &data, *now)
                .expect("set-up write");
            shadow.ack(lba, &versions, None);
            lba += len;
            *now += gap;
        }
    };
    write_span(&mut ssd, &mut shadow, &mut now, SimTime::from_millis(4));
    let gen_ms = secs(t.elapsed()) * 1e3;
    let t = Instant::now();
    if p.age {
        // Overwrite the span with writes spaced wider than the 10 s
        // window: every superseded version has retired before the next
        // write, so GC reaches steady state without protected copies.
        write_span(&mut ssd, &mut shadow, &mut now, SimTime::from_secs(11));
    }
    let age_ms = secs(t.elapsed()) * 1e3;
    Prepared {
        ssd,
        shadow,
        start: now + SimTime::from_secs(11),
        filled,
        gen_ms,
        age_ms,
    }
}

/// Counters read from a drive at one instant.
#[derive(Debug, Clone)]
pub struct Snap {
    /// Fig. 8 software-path timing.
    pub timing: IoTiming,
    /// FTL counters.
    pub ftl: FtlStats,
    /// NAND counters.
    pub nand: NandStats,
    /// Host-command latency histograms (cumulative since the drive was
    /// built).
    pub host: LatencySnapshot,
    /// Reads the scheduler promoted past queued mutations.
    pub reads_promoted: u64,
}

impl Snap {
    /// Reads `ssd`'s counters.
    pub fn take(ssd: &SsdInsider) -> Self {
        Snap {
            timing: *ssd.timing(),
            ftl: *ssd.ftl_stats(),
            nand: ssd.nand_stats().clone(),
            host: ssd.host_latency_snapshot().unwrap_or_default(),
            reads_promoted: ssd.ftl().reads_promoted(),
        }
    }
}

/// Mean simulated latency, µs, of the commands completed between two
/// snapshots of one kind's histogram, recovered from their counts and
/// means (each mean is truncated to whole ns, so this is exact to 1 ns).
pub fn window_mean_us(
    before: &insider_nand::KindLatency,
    after: &insider_nand::KindLatency,
) -> f64 {
    let n = after.count.saturating_sub(before.count);
    if n == 0 {
        return 0.0;
    }
    let sum =
        (after.mean_ns as f64 * after.count as f64) - (before.mean_ns as f64 * before.count as f64);
    sum / n as f64 / 1e3
}

/// Writes the end-to-end simulated metrics measured between `before` and
/// `after`.
///
/// The drive's latency histograms are cumulative since it was built and
/// cannot be reset through its public API, so only the read percentiles
/// are reported: set-up issues writes but (almost) no reads, so the read
/// histogram is the measured window's. Write latency is reported as the
/// window's exact mean, recovered from the histograms' counts and means;
/// write percentiles would be dominated by the set-up's fill.
pub fn sim_metrics(out: &mut Outcome, before: &Snap, after: &Snap, pages_written: u64) {
    out.set("sim_read_p50_us", after.host.read.p50_ns as f64 / 1e3);
    out.set("sim_read_p99_us", after.host.read.p99_ns as f64 / 1e3);
    out.set(
        "sim_read_mean_us",
        window_mean_us(&before.host.read, &after.host.read),
    );
    out.set(
        "sim_write_mean_us",
        window_mean_us(&before.host.program, &after.host.program),
    );
    let programs = after.nand.programs - before.nand.programs;
    out.set("waf", programs as f64 / pages_written.max(1) as f64);
    out.note("sim_read_samples_total", after.host.read.count);
    out.note(
        "sim_read_samples_window",
        after.host.read.count - before.host.read.count,
    );
    out.note("sim_write_samples_total", after.host.program.count);
    out.note(
        "sim_write_samples_window",
        after.host.program.count - before.host.program.count,
    );
    out.note("waf_host_pages", pages_written);
}

/// Writes the Fig. 8 split, FTL and NAND per-layer metrics for the work
/// done between `before` and `after`.
pub fn layer_metrics(out: &mut Outcome, ssd: &SsdInsider, before: &Snap, after: &Snap) {
    let (t0, t1) = (&before.timing, &after.timing);
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    let reads = t1.read_ops - t0.read_ops;
    let writes = t1.write_ops - t0.write_ops;
    let trims = t1.trim_ops - t0.trim_ops;
    out.set(
        "device.ftl_read_ns_per_page",
        per(t1.ftl_read_ns - t0.ftl_read_ns, reads),
    );
    out.set(
        "device.ftl_write_ns_per_page",
        per(t1.ftl_write_ns - t0.ftl_write_ns, writes),
    );
    out.set(
        "device.ftl_trim_ns_per_page",
        per(t1.ftl_trim_ns - t0.ftl_trim_ns, trims),
    );
    out.set(
        "device.insider_read_ns_per_page",
        per(t1.insider_read_ns - t0.insider_read_ns, reads),
    );
    out.set(
        "device.insider_write_ns_per_page",
        per(t1.insider_write_ns - t0.insider_write_ns, writes),
    );
    let (f0, f1) = (&before.ftl, &after.ftl);
    let copies = f1.gc_page_copies - f0.gc_page_copies;
    let erases = f1.gc_erases - f0.gc_erases;
    out.set(
        "ftl.gc.invocations",
        (f1.gc_invocations - f0.gc_invocations) as f64,
    );
    out.set("ftl.gc.page_copies", copies as f64);
    out.set(
        "ftl.gc.protected_copies",
        (f1.gc_protected_copies - f0.gc_protected_copies) as f64,
    );
    out.set("ftl.gc.erases", erases as f64);
    out.set("ftl.gc.host_ms", (f1.gc_ns - f0.gc_ns) as f64 / 1e6);
    out.set("ftl.gc.steps", (f1.gc_steps - f0.gc_steps) as f64);
    out.set(
        "ftl.gc.stw_fallbacks",
        (f1.gc_stw_fallbacks - f0.gc_stw_fallbacks) as f64,
    );
    out.set("ftl.gc.migrations_max", f1.gc_migrations_max as f64);
    out.set(
        "ftl.gc.pause_p99_us",
        ssd.gc_pause_latency().p99_ns as f64 / 1e3,
    );
    let ppb = ssd.ftl().config().geometry().pages_per_block() as f64;
    out.set(
        "ftl.gc.victim_valid_frac",
        if erases == 0 {
            0.0
        } else {
            copies as f64 / (erases as f64 * ppb)
        },
    );
    out.set("ftl.checkpoints", (f1.checkpoints - f0.checkpoints) as f64);
    out.set(
        "ftl.checkpoint_pages",
        (f1.checkpoint_pages - f0.checkpoint_pages) as f64,
    );
    let (n0, n1) = (&before.nand, &after.nand);
    out.set("nand.reads", (n1.reads - n0.reads) as f64);
    out.set("nand.programs", (n1.programs - n0.programs) as f64);
    out.set("nand.erases", (n1.erases - n0.erases) as f64);
    let busy = n1.die_busy_fractions();
    out.set(
        "nand.die_busy_frac_mean",
        busy.iter().sum::<f64>() / busy.len().max(1) as f64,
    );
    out.set(
        "nand.die_busy_frac_max",
        busy.iter().copied().fold(0.0, f64::max),
    );
    out.set(
        "nand.bus_util_max",
        n1.bus_utilization().into_iter().fold(0.0, f64::max),
    );
    out.set(
        "nand.gc_stalled_cmds",
        (n1.gc_stalled_cmds - n0.gc_stalled_cmds) as f64,
    );
    out.set(
        "nand.gc_stall_ms",
        (n1.gc_stall_ns - n0.gc_stall_ns) as f64 / 1e6,
    );
    out.set(
        "nand.erases_suspended",
        (n1.erases_suspended - n0.erases_suspended) as f64,
    );
    out.set(
        "nand.reads_promoted",
        (after.reads_promoted - before.reads_promoted) as f64,
    );
    out.set(
        "nand.buffers_copied",
        (n1.buffers_copied - n0.buffers_copied) as f64,
    );
}

/// The device's entropy stamp for an extent, computed the way the device
/// does: over the leading bytes up to the estimator's sample budget.
pub fn extent_entropy(data: &[Bytes]) -> u16 {
    let mut sample = [0u8; ENTROPY_SAMPLE_BYTES];
    let mut n = 0;
    for block in data {
        if n == ENTROPY_SAMPLE_BYTES {
            break;
        }
        let take = block.len().min(ENTROPY_SAMPLE_BYTES - n);
        sample[n..n + take].copy_from_slice(&block[..take]);
        n += take;
    }
    payload_entropy_milli(&sample[..n])
}

/// Request headers captured during a traced phase, with the entropy stamp
/// of every write computed (and timed) as it is captured.
#[derive(Debug, Default)]
pub struct Capture {
    /// `(now, lba, mode, len, entropy stamp of a write)`.
    pub headers: Vec<(SimTime, u64, IoMode, u32, Option<u16>)>,
    /// Host ns spent computing entropy stamps.
    pub entropy_ns: u64,
    /// Stamps computed.
    pub stamps: u64,
    /// Host ns spent inside [`push`](Self::push), stamps included.
    pub tap_ns: u64,
}

/// Headers kept for the detector replay.
pub const CAPTURE_CAP: usize = 400_000;

impl Capture {
    /// Records one request; `data` is a write's payload.
    pub fn push(&mut self, now: SimTime, lba: u64, mode: IoMode, len: u32, data: Option<&[Bytes]>) {
        if self.headers.len() >= CAPTURE_CAP {
            return;
        }
        let t = Instant::now();
        let stamp = data.map(|d| {
            let stamp = extent_entropy(std::hint::black_box(d));
            self.entropy_ns += t.elapsed().as_nanos() as u64;
            self.stamps += 1;
            stamp
        });
        self.headers.push((now, lba, mode, len, stamp));
        self.tap_ns += t.elapsed().as_nanos() as u64;
    }

    /// Replays the captured headers into a standalone detector and times
    /// it; reports the entropy-stamp cost measured during capture.
    pub fn replay(&self, out: &mut Outcome, tree: &DecisionTree) {
        out.set(
            "device.entropy_ns_per_write",
            self.entropy_ns as f64 / self.stamps.max(1) as f64,
        );
        let mut det = Detector::new(DetectorConfig::default(), tree.clone());
        let (mut ingest_ns, mut flush_ns, mut slices, mut votes) = (0u128, 0u128, 0u64, 0u64);
        let (mut entries_peak, mut nodes_peak) = (0usize, 0usize);
        for &(now, lba, mode, len, stamp) in &self.headers {
            let mut req = IoReq::new(now, Lba::new(lba), mode, len);
            if let Some(stamp) = stamp {
                req = req.with_entropy_milli(stamp);
            }
            let t0 = Instant::now();
            let closed = det.flush_until(now);
            let t1 = Instant::now();
            let same = det.ingest(req);
            let t2 = Instant::now();
            flush_ns += (t1 - t0).as_nanos();
            ingest_ns += (t2 - t1).as_nanos();
            slices += (closed.len() + same.len()) as u64;
            votes += closed.iter().chain(&same).filter(|v| v.vote).count() as u64;
            let table = det.engine().counting_table();
            entries_peak = entries_peak.max(table.len());
            nodes_peak = nodes_peak.max(table.index_nodes());
        }
        let n = self.headers.len().max(1) as f64;
        out.set("detect.ns_per_req", ingest_ns as f64 / n);
        out.set(
            "detect.flush_ns_per_slice",
            flush_ns as f64 / slices.max(1) as f64,
        );
        out.set("detect.table_entries_peak", entries_peak as f64);
        out.set("detect.index_nodes_peak", nodes_peak as f64);
        out.set("detect.votes", votes as f64);
        out.note("detect_replay_headers", self.headers.len());
        out.note("detect_replay_slices", slices);
    }
}

/// What the timed phase saw.
#[derive(Debug, Default)]
struct Timed {
    /// Host ns of each request's device call.
    host_ns: Vec<u64>,
    failed: u64,
    false_alarms: u64,
    dram_peak: usize,
    rq_peak: usize,
    /// Counters at the start and at the end of the prefix.
    prefix: Option<(Snap, Snap)>,
    prefix_pages_written: u64,
    now: SimTime,
    /// Index of the first request that failed.
    first_failure: Option<u64>,
    /// Sum and count of lateness samples (ms) over the prefix's second half.
    late: (f64, u64),
}

impl Timed {
    /// Mean lateness, ms, over the second half of the prefix.
    fn mean_late_ms(&self) -> f64 {
        self.late.0 / self.late.1.max(1) as f64
    }
}

/// Disruptive measurements run at fixed points of the timed phase's
/// continuation: power cuts (each remount checked page by page), then
/// attack/recovery cycles. No cut follows a rollback: a cut after a
/// rollback brings the rolled-back ciphertext back (see
/// `examples/remount_after_rollback.rs`).
struct Probes<'a> {
    p: &'a Params,
    rng: Rng,
    /// Host ms of each power cut and remount.
    remount_ms: Vec<f64>,
    /// Per attack: alarm latency s, recover ms, rollback ms.
    attacks: Vec<(f64, f64, f64)>,
    restored: u64,
    /// Alarms benign traffic left pending when an attack began.
    false_alarms: u64,
    /// Pages (or steps) wrong after a remount or rollback.
    lost: u64,
}

impl<'a> Probes<'a> {
    fn new(p: &'a Params, seed: u64) -> Self {
        Probes {
            p,
            rng: Rng::new(seed, 7),
            remount_ms: Vec::new(),
            attacks: Vec::new(),
            restored: 0,
            false_alarms: 0,
            lost: 0,
        }
    }

    /// Probe `k` of the schedule: the cuts, then the attacks.
    fn run(&mut self, k: usize, pre: &mut Prepared, now: &mut SimTime) {
        if k < REMOUNTS {
            *now += SimTime::from_micros(1);
            let t = Instant::now();
            let res = pre.ssd.power_cut(*now);
            self.remount_ms.push(secs(t.elapsed()) * 1e3);
            self.lost += res.is_err() as u64;
            self.lost += verify_all(&mut pre.ssd, &pre.shadow, *now);
        } else {
            let (latency, recover_ms, rollback_ms, restored, bad) =
                attack(pre, self.p, &mut self.rng, now, &mut self.false_alarms);
            self.attacks.push((latency, recover_ms, rollback_ms));
            self.restored += restored;
            self.lost += bad;
        }
    }

    /// Requests past the prefix after which probe `k` runs. A fixed
    /// request count, not host time, so each probe meets the same drive
    /// state on every run of a seed.
    fn at(&self, k: usize) -> u64 {
        (k as u64 + 1) * (self.p.prefix / 16).max(1)
    }

    fn count(&self) -> usize {
        REMOUNTS + self.p.attacks
    }

    /// Reports what the probes measured; returns (pages or steps that
    /// failed, false alarms dismissed).
    fn report(self, out: &mut Outcome, ssd: &SsdInsider) -> (u64, u64) {
        let remount_ms = fastest(&self.remount_ms);
        out.set("ftl.mount_ms", remount_ms);
        out.set(
            "ftl.mount_scan_entries",
            ssd.ftl().mount_scan_entries() as f64,
        );
        out.note("remounts", self.remount_ms.len());
        let n = self.attacks.len().max(1) as f64;
        let recovers: Vec<f64> = self.attacks.iter().map(|a| a.1).collect();
        let rollbacks: Vec<f64> = self.attacks.iter().map(|a| a.2).collect();
        out.set(
            "alarm_latency_s",
            self.attacks.iter().map(|a| a.0).sum::<f64>() / n,
        );
        out.set("host.recover_ms", fastest(&recovers));
        out.set("ftl.rollback_ms", fastest(&rollbacks));
        out.set("ftl.rollback_restored", self.restored as f64 / n);
        out.note("attacks", self.attacks.len());
        out.note("pages_wrong_after_remounts_and_rollbacks", self.lost);
        (self.lost, self.false_alarms)
    }
}

/// Issues requests from `gen` at `rate`, starting at `start`: at least
/// `min_reqs` of them, then more until `budget` of host time has passed
/// and every one of `probes` (if any) has run.
#[allow(clippy::too_many_arguments)]
fn timed(
    pre: &mut Prepared,
    gen: &mut Gen,
    rate: u64,
    min_reqs: u64,
    budget: Duration,
    mut probes: Option<&mut Probes>,
    tracer: &SharedTracer,
    mut capture: Option<&mut Capture>,
) -> Timed {
    let gap_us = 1_000_000 / rate;
    let mut out = Timed::default();
    let first = Snap::take(&pre.ssd);
    let began = Instant::now();
    let mut next_probe = 0;
    let probe_count = probes.as_ref().map_or(0, |p| p.count());
    let mut pages_written = 0u64;
    let mut i = 0u64;
    let mut now = pre.start;
    loop {
        if i == min_reqs {
            out.prefix = Some((first.clone(), Snap::take(&pre.ssd)));
            out.prefix_pages_written = pages_written;
        }
        if i >= min_reqs {
            if let Some(probes) = probes.as_deref_mut() {
                if next_probe < probe_count && i - min_reqs >= probes.at(next_probe) {
                    probes.run(next_probe, pre, &mut now);
                    next_probe += 1;
                }
            }
            if next_probe == probe_count && began.elapsed() >= budget {
                break;
            }
        }
        let req = gen.next();
        if i > 0 {
            now += SimTime::from_micros(gap_us);
        }
        let ssd = &mut pre.ssd;
        tracer.borrow_mut().next_request();
        if req.write {
            let (versions, data) = pre.shadow.stage(req.lba, req.len, false);
            if let Some(c) = capture.as_deref_mut() {
                c.push(now, req.lba, IoMode::Write, req.len as u32, Some(&data));
            }
            tracer.borrow_mut().enter("device.call");
            let t = Instant::now();
            let res = ssd.write_extent(Lba::new(req.lba), &data, now);
            out.host_ns.push(t.elapsed().as_nanos() as u64);
            tracer.borrow_mut().exit();
            match res {
                Ok(()) => pre.shadow.ack(req.lba, &versions, None),
                Err(_) => {
                    out.failed += 1;
                    out.first_failure.get_or_insert(i);
                }
            }
            pages_written += req.len;
        } else {
            if let Some(c) = capture.as_deref_mut() {
                c.push(now, req.lba, IoMode::Read, req.len as u32, None);
            }
            tracer.borrow_mut().enter("device.call");
            let t = Instant::now();
            let res = ssd.read_extent(Lba::new(req.lba), req.len as u32, now);
            out.host_ns.push(t.elapsed().as_nanos() as u64);
            tracer.borrow_mut().exit();
            match res {
                Ok(pages) => {
                    let bad = pages
                        .iter()
                        .enumerate()
                        .any(|(k, got)| !pre.shadow.check(req.lba + k as u64, got.as_ref()));
                    out.failed += bad as u64;
                    if bad {
                        out.first_failure.get_or_insert(i);
                    }
                }
                Err(_) => {
                    out.failed += 1;
                    out.first_failure.get_or_insert(i);
                }
            }
        }
        if ssd.state() == DeviceState::Suspicious {
            // Benign traffic tripped the detector: the user dismisses it.
            out.false_alarms += 1;
            ssd.dismiss_alarm().expect("dismiss a pending alarm");
        }
        if i < min_reqs && 2 * i >= min_reqs {
            out.late.0 += late_ms(ssd, now);
            out.late.1 += 1;
        }
        if i < min_reqs && i.is_multiple_of(64) {
            out.dram_peak = out.dram_peak.max(DramUsage::measure(ssd).total_bytes());
            out.rq_peak = out.rq_peak.max(ssd.ftl().recovery_queue().len());
        }
        i += 1;
    }
    out.now = now;
    out
}

/// Reads every page of the logical span and counts the ones that differ
/// from the shadow.
fn verify_all(ssd: &mut SsdInsider, shadow: &Shadow, now: SimTime) -> u64 {
    let mut bad = 0;
    let mut lba = 0;
    while lba < shadow.pages() {
        let len = 256.min(shadow.pages() - lba);
        match ssd.read_extent(Lba::new(lba), len as u32, now) {
            Ok(pages) => {
                bad += pages
                    .iter()
                    .enumerate()
                    .filter(|(k, got)| !shadow.check(lba + *k as u64, got.as_ref()))
                    .count() as u64;
            }
            Err(_) => bad += len,
        }
        lba += len;
    }
    bad
}

/// Settles GC and checks every page against the acknowledged state.
fn settle_and_check(pre: &mut Prepared, now: SimTime, out: &mut Outcome) -> u64 {
    let mut lost = pre.ssd.gc_quiesce().is_err() as u64;
    let bad = verify_all(&mut pre.ssd, &pre.shadow, now + SimTime::from_millis(1));
    out.note("pages_wrong_after_gc_quiesce", bad);
    lost += bad;
    lost
}

/// Idles past two windows, attacks until the alarm, confirms and rolls
/// back, then checks every page. Returns (alarm latency s, recover ms,
/// rollback ms, entries restored, pages or steps that failed).
fn attack(
    pre: &mut Prepared,
    p: &Params,
    rng: &mut Rng,
    now: &mut SimTime,
    false_alarms: &mut u64,
) -> (f64, f64, f64, u64, u64) {
    let ssd = &mut pre.ssd;
    let mut lost = 0;
    // Idle past two windows so the attack starts from a quiet detector
    // and nothing but the attack is younger than the rollback cutoff.
    // Start at a seeded offset into a slice, not wherever the
    // (host-time-dependent) timed phase happened to end, so the alarm
    // latency is a function of the seed alone.
    let slice_us = DetectorConfig::default().slice.as_micros();
    *now = SimTime::from_micros((now.as_micros() / slice_us + 25) * slice_us + rng.below(slice_us));
    ssd.poll(*now);
    if ssd.state() == DeviceState::Suspicious {
        // The idle flush closed slices of benign traffic that voted: that
        // alarm is a false one, dismissed before the attack starts.
        ssd.dismiss_alarm().expect("dismiss a pending alarm");
        *false_alarms += 1;
    }
    // The attacker encrypts "documents": short extents scattered over the
    // filled span. It reads one, overwrites it in place with ciphertext
    // 5 ms later, and moves to the next 10–20 ms after that, looping over
    // its targets until caught.
    let stride = pre.filled / p.attack_files;
    let targets: Vec<(u64, u64)> = (0..p.attack_files)
        .map(|i| {
            let len = rng.range(2, 12);
            (i * stride + rng.below(stride - len), len)
        })
        .collect();
    let attack_start = *now;
    let mut alarm_at = None;
    'attack: for _pass in 0..8 {
        for &(lba, len) in &targets {
            let _ = ssd.read_extent(Lba::new(lba), len as u32, *now);
            *now += SimTime::from_millis(5);
            let (versions, data) = pre.shadow.stage(lba, len, true);
            if ssd.write_extent(Lba::new(lba), &data, *now).is_ok() {
                pre.shadow.ack(lba, &versions, Some(now.as_micros()));
            }
            *now += SimTime::from_millis(rng.range(10, 20));
            if ssd.state() == DeviceState::Suspicious {
                alarm_at = Some(*now);
                break 'attack;
            }
        }
    }
    let alarm_latency = match alarm_at {
        Some(at) => {
            let slice = ssd.last_alarm().map(|v| v.slice).unwrap_or(0);
            let raised = SimTime::from_micros((slice + 1) * slice_us).min(at);
            raised.saturating_sub(attack_start).as_secs_f64()
        }
        None => {
            lost += p.attack_files;
            0.0
        }
    };
    let t = Instant::now();
    let recovered = ssd.confirm_and_recover(*now);
    let rollback_ms = secs(t.elapsed()) * 1e3;
    let rebooted = ssd.reboot();
    let recover_ms = secs(t.elapsed()) * 1e3;
    let mut restored = 0;
    match recovered {
        Ok(report) => {
            restored = report.restored;
            pre.shadow.rollback_to(report.restored_to.as_micros());
        }
        Err(_) => lost += p.attack_files,
    }
    if rebooted.is_err() {
        lost += 1;
    }
    *now += SimTime::from_millis(1);
    lost += verify_all(ssd, &pre.shadow, *now);

    (alarm_latency, recover_ms, rollback_ms, restored, lost)
}

/// Highest ladder rate at which the device keeps up: over the second half
/// of the rung, its last completion runs on average at most
/// `p.late_limit_ms` past the due time of the request just issued.
/// Interpolated between the rungs that straddle the limit; each rung runs
/// on a fresh drive.
fn ladder(
    workload: Workload,
    p: &Params,
    seed: u64,
    tree: &DecisionTree,
    out: &mut Outcome,
) -> f64 {
    let mut rungs = Vec::new();
    for &rate in p.ladder {
        let mut pre = prepare(p, seed, tree);
        let mut gen = Gen::new(
            workload,
            Rng::new(seed, 3),
            pre.filled,
            pre.ssd.logical_pages(),
        );
        let tracer = Tracer::shared(false);
        let before = Snap::take(&pre.ssd);
        let t = timed(
            &mut pre,
            &mut gen,
            rate,
            rate * p.ladder_secs,
            Duration::ZERO,
            None,
            &tracer,
            None,
        );
        let after = Snap::take(&pre.ssd);
        let mean = match workload {
            Workload::AgedChurn => window_mean_us(&before.host.program, &after.host.program),
            _ => window_mean_us(&before.host.read, &after.host.read),
        };
        let late = t.mean_late_ms();
        out.note(&format!("ladder_{rate}_mean_us"), format!("{mean:.1}"));
        out.note(&format!("ladder_{rate}_late_ms"), format!("{late:.1}"));
        // An overloaded rung may fail requests; it simply misses the limit.
        let reqs = rate * p.ladder_secs;
        let share = t.first_failure.map_or(1.0, |i| i as f64 / reqs as f64);
        rungs.push((rate as f64, late, share));
    }
    out.note("ladder_late_limit_ms", p.late_limit_ms);
    crossing(&rungs, p.late_limit_ms)
}

/// How far the device's last known completion runs past `due`, the due
/// time of the request just issued: the backlog a rate leaves queued.
pub fn late_ms(ssd: &SsdInsider, due: SimTime) -> f64 {
    let horizon_ns = ssd.ftl().device().completion_horizon_ns();
    (horizon_ns as f64 / 1e3 - due.as_micros() as f64).max(0.0) / 1e3
}

/// Interpolates the rate at which `(rate, lateness, share of the rung
/// completed before its first failed request)` rungs cross `limit`. A rung
/// that failed part-way counts as `limit / share`, so one that fails at its
/// very end lands just past the limit and one that fails at once far
/// beyond it. Below the first rung the rate halves; above the last it is
/// capped.
pub fn crossing(rungs: &[(f64, f64, f64)], limit: f64) -> f64 {
    let late = |r: &(f64, f64, f64)| {
        if r.2 >= 1.0 {
            r.1
        } else {
            r.1.max(limit / r.2.max(1e-3))
        }
    };
    match rungs.iter().position(|r| late(r) > limit) {
        None => rungs.last().map_or(0.0, |r| r.0),
        Some(0) => rungs[0].0 * 0.5,
        Some(i) => {
            let (r0, l0) = (rungs[i - 1].0, late(&rungs[i - 1]));
            let (r1, l1) = (rungs[i].0, late(&rungs[i]));
            r0 + (r1 - r0) * ((limit - l0) / (l1 - l0)).clamp(0.0, 1.0)
        }
    }
}

/// The client's host metrics over `host_ns` (untraced passes only).
pub fn host_metrics(out: &mut Outcome, host_ns: &[u64], chunk: usize) {
    let (rate, p99) = chunked_host_stats(host_ns, chunk);
    out.set("host.ops_per_s", rate);
    out.set("host.op_p99_us", p99);
}

/// Tracing overhead: host time of the traced pass over the mean of the two
/// untraced passes, minus one, over the operations all three completed.
pub fn overhead(traced: &[u64], plain_a: &[u64], plain_b: &[u64]) -> f64 {
    let n = traced.len().min(plain_a.len()).min(plain_b.len());
    let sum = |v: &[u64]| v[..n].iter().sum::<u64>() as f64;
    let plain = (sum(plain_a) + sum(plain_b)) / 2.0;
    if plain == 0.0 {
        0.0
    } else {
        sum(traced) / plain - 1.0
    }
}

/// Runs `aged-churn` or `read-scan`.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool, scale: Scale) -> Outcome {
    let p = params(workload, scale);
    let tree = baseline_tree();
    let mut out = Outcome::default();
    out.note("geometry", format!("{:?}", p.geometry));
    out.note("sim_rate_req_per_s", p.rate);
    out.note("prefix_requests", p.prefix);

    if traced {
        // Same inputs three times: untraced, traced, untraced. The traced
        // pass gives the per-layer numbers; the untraced passes on either
        // side of it are the overhead baseline, so warm-up and drift cancel.
        let third = Duration::from_secs_f64(seconds / 3.0);
        let plain_pass = || {
            let mut plain = prepare(&p, seed, &tree);
            let mut gen = Gen::new(
                workload,
                Rng::new(seed, 1),
                plain.filled,
                plain.ssd.logical_pages(),
            );
            let mut probes = Probes::new(&p, seed);
            timed(
                &mut plain,
                &mut gen,
                p.rate,
                p.prefix / 4,
                third,
                Some(&mut probes),
                &Tracer::shared(false),
                None,
            )
            .host_ns
        };
        let plain_a = plain_pass();

        let mut pre = prepare(&p, seed, &tree);
        out.set("gen.setup_ms", pre.gen_ms);
        out.set("age.setup_ms", pre.age_ms);
        let mut gen = Gen::new(
            workload,
            Rng::new(seed, 1),
            pre.filled,
            pre.ssd.logical_pages(),
        );
        let tracer = Tracer::shared(true);
        let mut capture = Capture::default();
        let before = Snap::take(&pre.ssd);
        let mut probes = Probes::new(&p, seed);
        let t = timed(
            &mut pre,
            &mut gen,
            p.rate,
            p.prefix / 4,
            third,
            Some(&mut probes),
            &tracer,
            Some(&mut capture),
        );
        let after = Snap::take(&pre.ssd);
        let (mut lost, idle_alarms) = probes.report(&mut out, &pre.ssd);
        let false_alarms = t.false_alarms + idle_alarms;
        layer_metrics(&mut out, &pre.ssd, &before, &after);
        let plain_b = plain_pass();
        out.set(
            "trace.overhead_frac",
            overhead(&t.host_ns, &plain_a, &plain_b),
        );
        host_metrics(&mut out, &[plain_a, plain_b].concat(), HOST_CHUNK);
        let device = tracer.borrow().totals("device.call");
        let inner = (after.timing.ftl_read_ns
            + after.timing.ftl_write_ns
            + after.timing.ftl_trim_ns
            + after.timing.insider_read_ns
            + after.timing.insider_write_ns
            + after.timing.insider_trim_ns)
            - (before.timing.ftl_read_ns
                + before.timing.ftl_write_ns
                + before.timing.ftl_trim_ns
                + before.timing.insider_read_ns
                + before.timing.insider_write_ns
                + before.timing.insider_trim_ns);
        out.set(
            "device.glue_ns_per_req",
            device.total_ns.saturating_sub(inner) as f64 / device.calls.max(1) as f64,
        );
        out.set("false_alarms", false_alarms as f64);
        out.set("ftl.rq.entries_peak", t.rq_peak as f64);
        capture.replay(&mut out, &tree);
        let attempted = t.host_ns.len() as u64;
        lost += settle_and_check(&mut pre, t.now, &mut out);
        // Each attack raised one true alarm.
        out.set("device.alarms", (false_alarms + p.attacks as u64) as f64);
        out.set("files_lost", lost as f64);
        out.attempted = attempted;
        out.failed = t.failed + lost;
        out.set("failed_ops_frac", t.failed as f64 / attempted.max(1) as f64);
        out.note("spans_recorded", tracer.borrow().span_count());
        out.trace_json = Some(tracer.borrow().to_json());
        return out;
    }

    // Half the set-up repetitions run before the timed phase (the last one
    // is the drive it uses) and half after, so `setup_s` samples the host
    // across the whole run.
    let mut setups = Vec::new();
    let mut timed_setup = || {
        let t = Instant::now();
        let prepared = prepare(&p, seed, &tree);
        setups.push(secs(t.elapsed()));
        prepared
    };
    let mut pre = timed_setup();
    for _ in 1..p.setup_reps.div_ceil(2) {
        drop(pre);
        pre = timed_setup();
    }

    let mut gen = Gen::new(
        workload,
        Rng::new(seed, 1),
        pre.filled,
        pre.ssd.logical_pages(),
    );
    let budget = Duration::from_secs_f64(seconds);
    let mut probes = Probes::new(&p, seed);
    let t = timed(
        &mut pre,
        &mut gen,
        p.rate,
        p.prefix,
        budget,
        Some(&mut probes),
        &Tracer::shared(false),
        None,
    );
    let (mut lost, idle_alarms) = probes.report(&mut out, &pre.ssd);
    let (before, after) = t.prefix.clone().expect("prefix completed");
    sim_metrics(&mut out, &before, &after, t.prefix_pages_written);
    out.set("dram_peak_bytes", t.dram_peak as f64);
    let (rate, p99) = chunked_host_stats(&t.host_ns, HOST_CHUNK);
    out.note("host_ops_per_s", format!("{rate:.1}"));
    out.note("host_op_p99_us", format!("{p99:.2}"));
    out.note("host_op_samples", t.host_ns.len());
    out.note("host_op_chunk", HOST_CHUNK);
    out.note("false_alarms", t.false_alarms + idle_alarms);

    lost += settle_and_check(&mut pre, t.now, &mut out);
    drop(pre);
    for _ in 0..p.setup_reps / 2 {
        drop(timed_setup());
    }
    out.set("setup_s", median(&mut setups));
    out.note("setup_reps", setups.len());
    let rate = ladder(workload, &p, seed, &tree, &mut out);
    out.set("churn_rate_at_slo", rate);

    out.attempted = t.host_ns.len() as u64;
    out.failed = t.failed + lost;
    out.note("pages_lost", lost);
    out
}
