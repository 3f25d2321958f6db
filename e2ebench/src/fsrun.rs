//! The `fs-ransom` workload: MiniExt on a cached bridge over the drive,
//! repeating attack/recovery episodes shaped like the Table II experiment.
//!
//! Set-up formats the filesystem and lays down a cold corpus of user
//! files. Each episode then
//!
//! 1. lays down victim files and ages them past the detection window;
//! 2. runs benign scratch-file churn, dismissing any false alarm;
//! 3. idles one detection window, then attacks: reads, encrypts,
//!    overwrites and renames victims, benign churn continuing, until the
//!    alarm;
//! 4. confirms the alarm, rolls back, reboots, runs fsck twice, remounts
//!    behind a fresh cache, and checks every victim byte for byte.
//!
//! Right after set-up the drive is power-cycled and every file must read
//! back as it did before the cut. The first episodes form the
//! deterministic prefix the simulated metrics are read from; further
//! episodes run until the host-time budget is spent.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use insider_fs::{fsck, BlockCache, CacheStats, FsConfig, MiniExt};
use insider_nand::{Geometry, SimTime};
use ssd_insider::{DeviceState, DramUsage, FsBridge, SsdInsider};

use crate::device::{
    crossing, host_metrics, late_ms, layer_metrics, overhead, sim_metrics, window_mean_us, Capture,
    Snap,
};
use crate::shims::Traced;
use crate::trace::{SharedTracer, Tracer};
use crate::util::{chunked_host_stats, fastest, median, secs, Rng};
use crate::{baseline_tree, shipping_drive, Outcome, Scale};

type Bridge = Traced<FsBridge>;
type Cached = Traced<BlockCache<Bridge>>;
type Fs = MiniExt<Cached>;

/// Size and pacing of the workload.
#[derive(Debug, Clone)]
struct Params {
    geometry: Geometry,
    cache_blocks: usize,
    inodes: u32,
    corpus_files: u64,
    victims: u64,
    /// Simulated time of one block operation at the bridge.
    per_op: SimTime,
    /// Simulated seconds of benign churn before each attack.
    churn_secs: u64,
    /// Episodes in the deterministic prefix.
    prefix_episodes: u64,
    /// Ladder rates, block operations per simulated second.
    ladder: &'static [u64],
    /// Simulated seconds of churn per ladder rung.
    ladder_secs: u64,
    /// Lateness limit for the ladder, ms (see `device::late_ms`).
    late_limit_ms: f64,
    setup_reps: usize,
}

fn params(scale: Scale) -> Params {
    let full = scale == Scale::Full;
    Params {
        geometry: Geometry::builder()
            .channels(2)
            .chips_per_channel(2)
            .blocks_per_chip(if full { 128 } else { 64 })
            .pages_per_block(64)
            .page_size(4096)
            .build(),
        cache_blocks: 128,
        inodes: 512,
        corpus_files: if full { 160 } else { 16 },
        victims: if full { 24 } else { 12 },
        per_op: SimTime::from_micros(500),
        churn_secs: if full { 12 } else { 4 },
        prefix_episodes: if full { 24 } else { 2 },
        ladder: &[2_000, 2_500, 3_000, 3_500, 4_000],
        ladder_secs: if full { 15 } else { 2 },
        late_limit_ms: 250.0,
        setup_reps: 9,
    }
}

/// Filesystem operations per chunk of the host statistics (see
/// [`chunked_host_stats`]).
const HOST_CHUNK: usize = 1_000;

/// Sync interval of the host's dirty-block writeback, simulated.
const WRITEBACK: SimTime = SimTime::from_secs(5);

/// Random file content of `blocks` blocks, trimmed by up to 4000 bytes.
fn content(rng: &mut Rng, blocks: u64) -> Vec<u8> {
    let len = (blocks * 4096 - rng.below(4000)) as usize;
    let mut v = Vec::with_capacity(len + 8);
    while v.len() < len {
        v.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    v.truncate(len);
    v
}

/// `n` file sizes, in blocks, spread evenly over `lo..=hi` and shuffled:
/// the seed picks which file gets which size, never the total, so the
/// amount of data each run moves does not depend on the seed.
fn sizes(rng: &mut Rng, n: u64, lo: u64, hi: u64) -> Vec<u64> {
    let mut v: Vec<u64> = (0..n)
        .map(|i| lo + (hi - lo) * i / (n - 1).max(1))
        .collect();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

/// Scratch-file sizes the churn cycles through.
const SCRATCH_SIZES: u64 = 16;

/// The filesystem stack plus the run's bookkeeping.
struct Stack {
    fs: Option<Fs>,
    tracer: SharedTracer,
    capture: Option<Rc<RefCell<Capture>>>,
    cache_blocks: usize,
    /// Cache counters of retired cache instances.
    cache_done: CacheStats,
    /// fs-to-cache calls and blocks of retired shims.
    fs_calls_done: (u64, u64),
    host_ns: Vec<u64>,
    failed: u64,
    false_alarms: u64,
    last_sync: SimTime,
    dram_peak: usize,
    rq_peak: usize,
    sample_dram: bool,
}

impl Stack {
    /// The shim below the cache.
    fn below(&self, bridge: FsBridge) -> Bridge {
        let below = Traced::new(bridge, self.tracer.clone(), "bridge.call");
        match &self.capture {
            Some(c) => below.with_tap(c.clone()),
            None => below,
        }
    }

    /// The full stack under the filesystem.
    fn wrap(&self, bridge: FsBridge) -> Cached {
        Traced::new(
            BlockCache::new(self.below(bridge), self.cache_blocks),
            self.tracer.clone(),
            "cache.call",
        )
    }

    fn fs(&mut self) -> &mut Fs {
        self.fs.as_mut().expect("filesystem mounted")
    }

    fn bridge(&mut self) -> &mut FsBridge {
        self.fs().dev_mut().inner_mut().inner_mut().inner_mut()
    }

    fn device(&mut self) -> &mut SsdInsider {
        self.bridge().device_mut()
    }

    fn now(&mut self) -> SimTime {
        self.bridge().now()
    }

    /// Unmounts, keeping the cache's counters; dirty blocks are flushed
    /// when `flush`, dropped otherwise (they belong to a rolled-back
    /// attack).
    fn unmount(&mut self, flush: bool) -> FsBridge {
        let cached = self.fs.take().expect("filesystem mounted").into_dev();
        self.fs_calls_done.0 += cached.calls;
        self.fs_calls_done.1 += cached.blocks;
        let mut cache = cached.into_inner();
        if flush && cache.flush().is_err() {
            self.failed += 1;
        }
        let s = cache.stats();
        self.cache_done.hits += s.hits;
        self.cache_done.misses += s.misses;
        self.cache_done.writebacks += s.writebacks;
        self.cache_done.evictions += s.evictions;
        cache.into_inner_discarding().into_inner()
    }

    fn mount(&mut self, bridge: FsBridge) -> bool {
        match MiniExt::mount(self.wrap(bridge)) {
            Ok(fs) => {
                self.fs = Some(fs);
                true
            }
            Err(_) => false,
        }
    }

    /// Cache counters so far, retired instances included.
    fn cache_stats(&mut self) -> CacheStats {
        let mut s = self.cache_done;
        let live = self.fs().dev_mut().inner_mut().stats();
        s.hits += live.hits;
        s.misses += live.misses;
        s.writebacks += live.writebacks;
        s.evictions += live.evictions;
        s
    }

    /// One filesystem operation: timed, traced, counted. Returns `None`
    /// (and counts a failure) when it errs.
    fn op<T>(&mut self, f: impl FnOnce(&mut Fs) -> insider_fs::Result<T>) -> Option<T> {
        self.tracer.borrow_mut().next_request();
        self.tracer.borrow_mut().enter("fs.op");
        let t = Instant::now();
        let out = f(self.fs.as_mut().expect("filesystem mounted"));
        self.host_ns.push(t.elapsed().as_nanos() as u64);
        self.tracer.borrow_mut().exit();
        if self.sample_dram {
            let d = self.device();
            let dram = DramUsage::measure(d).total_bytes();
            let rq = d.ftl().recovery_queue().len();
            self.dram_peak = self.dram_peak.max(dram);
            self.rq_peak = self.rq_peak.max(rq);
        }
        match out {
            Ok(v) => Some(v),
            Err(_) => {
                self.failed += 1;
                None
            }
        }
    }

    /// Flushes dirty blocks (an fs operation: the host's sync).
    fn sync(&mut self) {
        self.op(|fs| fs.dev_mut().inner_mut().flush());
        self.last_sync = self.now();
    }

    /// Advances the clock by `by`, syncing on the writeback interval.
    fn pause(&mut self, by: SimTime) {
        let t = self.now() + by;
        self.bridge().advance(t);
        if t.saturating_sub(self.last_sync) >= WRITEBACK {
            self.sync();
        }
    }

    /// Dismisses an alarm raised by benign traffic.
    fn dismiss_false_alarm(&mut self) {
        if self.device().state() == DeviceState::Suspicious {
            self.false_alarms += 1;
            self.device()
                .dismiss_alarm()
                .expect("dismiss a pending alarm");
        }
    }

    /// One step of benign churn: rewrite four rotating scratch files,
    /// their sizes cycling through `scratch`.
    fn churn_step(&mut self, rng: &mut Rng, scratch: &[u64], step: &mut u64, pause: bool) {
        for _ in 0..4 {
            let data = content(rng, scratch[(*step % SCRATCH_SIZES) as usize]);
            let name = format!("scratch{}", *step % 8);
            self.op(|fs| fs.write_file_bytes(&name, Bytes::from(data)));
            *step += 1;
        }
        if pause {
            let ms = rng.range(40, 120);
            self.pause(SimTime::from_millis(ms));
        } else if self.now().saturating_sub(self.last_sync) >= WRITEBACK {
            self.sync();
        }
    }
}

/// What one episode measured.
#[derive(Debug, Default)]
struct Episode {
    alarm_latency_s: Option<f64>,
    recover_ms: f64,
    rollback_ms: f64,
    fsck_ms: Vec<f64>,
    restored: u64,
    lost: u64,
}

fn episode(s: &mut Stack, p: &Params, seed: u64, index: u64) -> Episode {
    let mut rng = Rng::new(seed, 100 + index);
    let mut ep = Episode::default();
    let mut step = 0;

    // 1. Victims, synced and aged past the window.
    delete_victims(s);
    let scratch = sizes(&mut rng, SCRATCH_SIZES, 16, 64);
    let victim_sizes = sizes(&mut rng, p.victims, 1, 16);
    let mut victims = Vec::new();
    for (i, &blocks) in victim_sizes.iter().enumerate() {
        let data = content(&mut rng, blocks);
        let name = format!("victim{i:02}");
        let bytes = Bytes::from(data.clone());
        s.op(|fs| fs.write_file_bytes(&name, bytes));
        victims.push((name, data));
    }
    s.sync();
    s.pause(SimTime::from_secs(40));
    s.dismiss_false_alarm();

    // 2. Benign churn.
    let until = s.now() + SimTime::from_secs(p.churn_secs);
    while s.now() < until {
        s.churn_step(&mut rng, &scratch, &mut step, true);
        s.dismiss_false_alarm();
    }

    // 3. Attack until the alarm, benign churn continuing around it. The
    // attack starts one window after the churn pauses, so its alarm
    // latency does not hinge on votes the churn left in the window.
    s.pause(SimTime::from_secs(11));
    s.dismiss_false_alarm();
    let attack_start = s.now();
    let mut order: Vec<usize> = (0..victims.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut next = 0;
    let deadline = attack_start + SimTime::from_secs(60);
    while s.device().state() != DeviceState::Suspicious && s.now() < deadline {
        if next < order.len() {
            let name = victims[order[next]].0.clone();
            if let Some(plain) = s.op(|fs| fs.read_file(&name)) {
                let key = rng.next_u64().to_le_bytes();
                let cipher: Vec<u8> = plain
                    .iter()
                    .zip(key.iter().cycle())
                    .map(|(b, k)| b ^ k)
                    .collect();
                s.op(|fs| fs.write_file_bytes(&name, Bytes::from(cipher)));
                s.op(|fs| fs.rename(&name, &format!("{name}.lk")));
            }
            next += 1;
        }
        s.churn_step(&mut rng, &scratch, &mut step, true);
    }
    if s.device().state() == DeviceState::Suspicious {
        let slice = s.device().last_alarm().map_or(0, |v| v.slice);
        let slice_us = s.device().detector().config().slice.as_micros();
        let raised = SimTime::from_micros((slice + 1) * slice_us).min(s.now());
        ep.alarm_latency_s = Some(raised.saturating_sub(attack_start).as_secs_f64());
    } else {
        ep.lost += victims.len() as u64;
        return ep;
    }

    // 4. Confirm, roll back, reboot, fsck twice, remount, verify.
    let now = s.now();
    let t = Instant::now();
    let bridge = s.unmount(false);
    let mut below = s.below(bridge);
    match below.inner_mut().device_mut().confirm_and_recover(now) {
        Ok(report) => ep.restored = report.restored,
        Err(_) => ep.lost += victims.len() as u64,
    }
    ep.rollback_ms = secs(t.elapsed()) * 1e3;
    if below.inner_mut().device_mut().reboot().is_err() {
        ep.lost += 1;
    }
    let mut clean = true;
    for pass in 0..2 {
        let f = Instant::now();
        match fsck(below) {
            Ok((report, dev)) => {
                below = dev;
                if pass == 1 && !report.is_clean() {
                    clean = false;
                }
            }
            Err(_) => {
                ep.lost += victims.len() as u64;
                return ep;
            }
        }
        ep.fsck_ms.push(secs(f.elapsed()) * 1e3);
    }
    if !clean {
        ep.lost += 1;
    }
    if !s.mount(below.into_inner()) {
        ep.lost += victims.len() as u64;
        return ep;
    }
    ep.recover_ms = secs(t.elapsed()) * 1e3;
    s.last_sync = s.now();
    for (name, data) in &victims {
        let got = s.op(|fs| fs.read_file(name));
        if got.as_deref() != Some(data.as_slice()) {
            ep.lost += 1;
        }
    }
    ep
}

/// A formatted drive with the cold corpus written, synced and aged.
fn prepare(
    p: &Params,
    seed: u64,
    tracer: &SharedTracer,
    capture: Option<Rc<RefCell<Capture>>>,
) -> Option<Stack> {
    let ssd = shipping_drive(p.geometry, baseline_tree());
    let bridge = FsBridge::new(ssd, SimTime::ZERO, p.per_op);
    let mut s = Stack {
        fs: None,
        tracer: tracer.clone(),
        capture,
        cache_blocks: p.cache_blocks,
        cache_done: CacheStats::default(),
        fs_calls_done: (0, 0),
        host_ns: Vec::new(),
        failed: 0,
        false_alarms: 0,
        last_sync: SimTime::ZERO,
        dram_peak: 0,
        rq_peak: 0,
        sample_dram: false,
    };
    let cached = s.wrap(bridge);
    s.fs = Some(
        MiniExt::format(
            cached,
            &FsConfig {
                inode_count: p.inodes,
            },
        )
        .ok()?,
    );
    let mut rng = Rng::new(seed, 2);
    for (i, blocks) in sizes(&mut rng, p.corpus_files, 16, 112)
        .into_iter()
        .enumerate()
    {
        let data = content(&mut rng, blocks);
        s.op(|fs| fs.write_file_bytes(&format!("doc{i:03}"), Bytes::from(data)));
    }
    s.sync();
    s.pause(SimTime::from_secs(40));
    s.dismiss_false_alarm();
    s.host_ns.clear();
    Some(s)
}

/// Every file's content, read through the filesystem.
fn snapshot_files(s: &mut Stack) -> BTreeMap<String, Vec<u8>> {
    let names = s.op(|fs| fs.list()).unwrap_or_default();
    names
        .into_iter()
        .filter_map(|n| s.op(|fs| fs.read_file(&n)).map(|d| (n, d)))
        .collect()
}

/// Deletes the victims of past episodes, the first step of every episode.
fn delete_victims(s: &mut Stack) {
    let stale: Vec<String> = s
        .op(|fs| fs.list())
        .unwrap_or_default()
        .into_iter()
        .filter(|n| n.starts_with("victim"))
        .collect();
    for name in stale {
        s.op(|fs| fs.delete(&name));
    }
}

/// Flush, power cut, remount and fsck, checking every file against what
/// it held before the cut; the remount time goes to `remounts`. Returns
/// the files or checks that failed. Runs only on freshly set-up drives:
/// a cut after a rollback brings back every block the rollback rewound
/// and nothing rewrote since (see `examples/remount_after_rollback.rs`).
fn power_cycle(s: &mut Stack, remounts: &mut Vec<f64>) -> u64 {
    s.sync();
    let before = snapshot_files(s);
    let mut bridge = s.unmount(true);
    let now = bridge.now() + SimTime::from_millis(1);
    bridge.advance(now);
    let t = Instant::now();
    let mut bad = bridge.device_mut().power_cut(now).is_err() as u64;
    remounts.push(secs(t.elapsed()) * 1e3);
    match fsck(bridge) {
        Ok((report, dev)) => {
            bad += !report.is_clean() as u64;
            if !s.mount(dev) {
                return bad + before.len() as u64;
            }
        }
        Err(_) => return bad + before.len() as u64,
    }
    let after = snapshot_files(s);
    bad += before
        .iter()
        .filter(|(name, data)| after.get(*name) != Some(data))
        .count() as u64;
    bad += after.keys().filter(|n| !before.contains_key(*n)).count() as u64;
    bad
}

/// Reports the median remount time and the last mount's scan size.
fn remount_metrics(out: &mut Outcome, s: &mut Stack, remounts: &[f64]) {
    let remount_ms = fastest(remounts);
    out.set("ftl.mount_ms", remount_ms);
    let scanned = s.device().ftl().mount_scan_entries();
    out.set("ftl.mount_scan_entries", scanned as f64);
    out.note("remounts", remounts.len());
}

/// Highest block-operation rate at which the device keeps up with a burst
/// of benign churn: over the second half of the rung, its last completion
/// runs on average at most the limit past the bridge clock. Interpolated
/// between the rungs that straddle the limit.
fn ladder(p: &Params, seed: u64, out: &mut Outcome) -> f64 {
    let mut rungs = Vec::new();
    for &rate in p.ladder {
        let q = Params {
            per_op: SimTime::from_micros(1_000_000 / rate),
            corpus_files: 0,
            ..p.clone()
        };
        let tracer = Tracer::shared(false);
        let Some(mut s) = prepare(&q, seed, &tracer, None) else {
            rungs.push((rate as f64, 0.0, 0.0));
            continue;
        };
        let before = Snap::take(s.device());
        let mut rng = Rng::new(seed, 5);
        let scratch = sizes(&mut rng, SCRATCH_SIZES, 16, 64);
        let mut step = 0;
        let start = s.now();
        let half = start + SimTime::from_millis(p.ladder_secs * 500);
        let until = start + SimTime::from_secs(p.ladder_secs);
        let (mut late_sum, mut late_n) = (0.0, 0u64);
        // A rung the drive cannot absorb fails writes; stop at the first.
        while s.now() < until && s.failed == 0 {
            s.churn_step(&mut rng, &scratch, &mut step, false);
            s.dismiss_false_alarm();
            let now = s.now();
            if now >= half {
                late_sum += late_ms(s.device(), now);
                late_n += 1;
            }
        }
        s.sync();
        let after = Snap::take(s.device());
        let mean = window_mean_us(&before.host.program, &after.host.program);
        let late = late_sum / late_n.max(1) as f64;
        out.note(&format!("ladder_{rate}_mean_us"), format!("{mean:.1}"));
        out.note(&format!("ladder_{rate}_late_ms"), format!("{late:.1}"));
        let share = if s.failed == 0 {
            1.0
        } else {
            s.now().saturating_sub(start).as_secs_f64() / p.ladder_secs as f64
        };
        rungs.push((rate as f64, late, share));
    }
    out.note("ladder_late_limit_ms", p.late_limit_ms);
    crossing(&rungs, p.late_limit_ms)
}

/// Episodes until `budget` has passed (at least `min`).
fn episodes(
    s: &mut Stack,
    p: &Params,
    seed: u64,
    min: u64,
    budget: Duration,
    prefix: Option<&mut Option<(Snap, Snap, u64, usize)>>,
) -> Vec<Episode> {
    let began = Instant::now();
    let first = Snap::take(s.device());
    let mut eps = Vec::new();
    let mut prefix = prefix;
    if prefix.is_some() {
        s.sample_dram = true;
    }
    loop {
        if eps.len() as u64 == min {
            if let Some(slot) = prefix.take() {
                let after = Snap::take(s.device());
                let pages = after.ftl.host_writes - first.ftl.host_writes;
                *slot = Some((first.clone(), after, pages, s.dram_peak));
                s.sample_dram = false;
            }
        }
        if eps.len() as u64 >= min && began.elapsed() >= budget {
            break;
        }
        let index = eps.len() as u64;
        let ep = episode(s, p, seed, index);
        let broken = s.fs.is_none();
        eps.push(ep);
        if broken {
            break;
        }
    }
    eps
}

/// Runs `fs-ransom`.
pub fn run(seed: u64, seconds: f64, traced: bool, scale: Scale) -> Outcome {
    let p = params(scale);
    let mut out = Outcome::default();
    out.note("geometry", format!("{:?}", p.geometry));
    out.note("cache_blocks", p.cache_blocks);
    out.note("prefix_episodes", p.prefix_episodes);

    if traced {
        // Untraced, traced, untraced over the same inputs (see
        // `device::overhead`).
        let third = Duration::from_secs_f64(seconds / 3.0);
        let plain_pass = || {
            let plain_tracer = Tracer::shared(false);
            prepare(&p, seed, &plain_tracer, None).map_or_else(Default::default, |mut plain| {
                let eps = episodes(&mut plain, &p, seed, 1, third, None);
                let recovers: Vec<f64> = eps
                    .iter()
                    .map(|e| e.recover_ms)
                    .filter(|&r| r > 0.0)
                    .collect();
                (plain.host_ns, recovers)
            })
        };
        let plain_a = plain_pass();

        let tracer = Tracer::shared(true);
        let capture = Rc::new(RefCell::new(Capture::default()));
        let t = Instant::now();
        let Some(mut s) = prepare(&p, seed, &tracer, Some(capture.clone())) else {
            out.failed = 1;
            return out;
        };
        out.set("gen.setup_ms", secs(t.elapsed()) * 1e3);
        let mut remounts = Vec::new();
        let bad = power_cycle(&mut s, &mut remounts);
        remount_metrics(&mut out, &mut s, &remounts);
        s.host_ns.clear();
        let cache0 = s.cache_stats();
        let calls0 = s.fs().dev_mut().calls;
        let blocks0 = s.fs().dev_mut().blocks;
        let before = Snap::take(s.device());
        // Spans from set-up are not part of the measured phase.
        let (fs0, cache_t0, bridge_t0) = {
            let t = tracer.borrow();
            (
                t.totals("fs.op"),
                t.totals("cache.call"),
                t.totals("bridge.call"),
            )
        };
        let tap0 = capture.borrow().tap_ns;
        s.sample_dram = true;
        let eps = episodes(&mut s, &p, seed, 1, third, None);
        let after = Snap::take(s.device());
        let ops = s.host_ns.len();
        let cache = s.cache_stats();
        let calls = s.fs_calls_done.0 + s.fs().dev_mut().calls - calls0;
        let blocks = s.fs_calls_done.1 + s.fs().dev_mut().blocks - blocks0;
        layer_metrics(&mut out, s.device(), &before, &after);

        let plain_b = plain_pass();
        out.set(
            "trace.overhead_frac",
            overhead(&s.host_ns, &plain_a.0, &plain_b.0),
        );
        host_metrics(&mut out, &[plain_a.0, plain_b.0].concat(), HOST_CHUNK);
        out.set("host.recover_ms", fastest(&[plain_a.1, plain_b.1].concat()));

        let t = tracer.borrow();
        let (fs1, cache_t1, bridge_t1) = (
            t.totals("fs.op"),
            t.totals("cache.call"),
            t.totals("bridge.call"),
        );
        drop(t);
        let fs_calls = (fs1.calls - fs0.calls).max(1) as f64;
        out.set(
            "fs.self_us_per_op",
            (fs1.self_ns() - fs0.self_ns()) as f64 / fs_calls / 1e3,
        );
        out.set("fs.blocks_per_op", blocks as f64 / fs_calls);
        let tap_ns = capture.borrow().tap_ns - tap0;
        let cache_self = (cache_t1.self_ns() - cache_t0.self_ns()).saturating_sub(tap_ns);
        out.set(
            "cache.self_us_per_call",
            cache_self as f64 / calls.max(1) as f64 / 1e3,
        );
        let d = |a: u64, b: u64| a - b;
        let inner = d(after.timing.ftl_read_ns, before.timing.ftl_read_ns)
            + d(after.timing.ftl_write_ns, before.timing.ftl_write_ns)
            + d(after.timing.ftl_trim_ns, before.timing.ftl_trim_ns)
            + d(after.timing.insider_read_ns, before.timing.insider_read_ns)
            + d(
                after.timing.insider_write_ns,
                before.timing.insider_write_ns,
            )
            + d(after.timing.insider_trim_ns, before.timing.insider_trim_ns);
        let bridge_total = bridge_t1.total_ns - bridge_t0.total_ns;
        out.set(
            "bridge.self_ns_per_call",
            bridge_total.saturating_sub(inner) as f64
                / (bridge_t1.calls - bridge_t0.calls).max(1) as f64,
        );
        let (hits, misses) = (cache.hits - cache0.hits, cache.misses - cache0.misses);
        out.set(
            "cache.hit_rate",
            if hits + misses == 0 {
                1.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
        );
        out.set(
            "cache.evictions",
            (cache.evictions - cache0.evictions) as f64,
        );
        out.set(
            "cache.writebacks",
            (cache.writebacks - cache0.writebacks) as f64,
        );

        let fsck: Vec<f64> = eps.iter().flat_map(|e| e.fsck_ms.iter().copied()).collect();
        out.set(
            "fs.fsck_ms",
            fsck.iter().sum::<f64>() / fsck.len().max(1) as f64,
        );
        let n_eps = eps.len().max(1) as f64;
        out.set(
            "ftl.rollback_ms",
            eps.iter().map(|e| e.rollback_ms).sum::<f64>() / n_eps,
        );
        out.set(
            "ftl.rollback_restored",
            eps.iter().map(|e| e.restored).sum::<u64>() as f64 / n_eps,
        );
        let alarms = eps.iter().filter(|e| e.alarm_latency_s.is_some()).count() as u64;
        out.set("device.alarms", (s.false_alarms + alarms) as f64);
        out.set("false_alarms", s.false_alarms as f64);
        out.set("ftl.rq.entries_peak", s.rq_peak as f64);
        capture.borrow().replay(&mut out, &baseline_tree());
        let lost: u64 = eps.iter().map(|e| e.lost).sum();
        out.set("files_lost", (lost + bad) as f64);
        out.attempted = ops as u64;
        out.failed = s.failed + lost + bad;
        out.set("failed_ops_frac", s.failed as f64 / ops.max(1) as f64);
        out.note("episodes", eps.len());
        out.note("spans_recorded", tracer.borrow().span_count());
        out.trace_json = Some(tracer.borrow().to_json());
        return out;
    }

    let tracer = Tracer::shared(false);
    // Half the set-up repetitions before the timed phase (the last one is
    // the drive it uses), half after (see `device::run`).
    // Each set-up is then power-cycled and checked, so the remount times
    // sample the whole run too.
    let (mut setups, mut remounts, mut bad) = (Vec::new(), Vec::new(), 0);
    let mut timed_setup = || {
        let t = Instant::now();
        let mut stack = prepare(&p, seed, &tracer, None);
        setups.push(secs(t.elapsed()));
        match stack.as_mut() {
            Some(s) => {
                bad += power_cycle(s, &mut remounts);
                s.host_ns.clear();
            }
            None => bad += 1,
        }
        stack
    };
    let mut stack = timed_setup();
    for _ in 1..p.setup_reps.div_ceil(2) {
        drop(stack);
        stack = timed_setup();
    }
    let Some(mut s) = stack else {
        out.failed = 1;
        return out;
    };
    let scanned = s.device().ftl().mount_scan_entries();

    let mut prefix = None;
    let eps = episodes(
        &mut s,
        &p,
        seed,
        p.prefix_episodes,
        Duration::from_secs_f64(seconds),
        Some(&mut prefix),
    );
    let Some((before, after, pages, dram)) = prefix else {
        out.failed = 1 + s.failed;
        out.attempted = s.host_ns.len().max(1) as u64;
        return out;
    };
    sim_metrics(&mut out, &before, &after, pages);
    out.set("dram_peak_bytes", dram as f64);
    let (rate, p99) = chunked_host_stats(&s.host_ns, HOST_CHUNK);
    out.note("host_ops_per_s", format!("{rate:.1}"));
    out.note("host_op_p99_us", format!("{p99:.2}"));
    out.note("host_op_samples", s.host_ns.len());
    out.note("host_op_chunk", HOST_CHUNK);
    let alarm: Vec<f64> = eps
        .iter()
        .take(p.prefix_episodes as usize)
        .filter_map(|e| e.alarm_latency_s)
        .collect();
    out.set(
        "alarm_latency_s",
        alarm.iter().sum::<f64>() / alarm.len().max(1) as f64,
    );
    let recover: Vec<f64> = eps
        .iter()
        .map(|e| e.recover_ms)
        .filter(|&r| r > 0.0)
        .collect();
    out.note("recover_samples", recover.len());
    out.note("recover_ms", format!("{:.3}", fastest(&recover)));
    out.note("episodes", eps.len());
    out.note("false_alarms", s.false_alarms);
    let lost: u64 = eps.iter().map(|e| e.lost).sum();
    let attempted = s.host_ns.len() as u64;
    let failed_ops = s.failed;
    out.note("files_lost_in_episodes", lost);
    drop(s);
    for _ in 0..p.setup_reps / 2 {
        drop(timed_setup());
    }
    out.set("setup_s", median(&mut setups));
    out.note("setup_reps", setups.len());
    out.note("remount_ms", format!("{:.3}", fastest(&remounts)));
    out.note("remounts", remounts.len());
    out.note("mount_scan_entries", scanned);
    out.note("files_wrong_after_remount", bad);
    let rate = ladder(&p, seed, &mut out);
    out.set("churn_rate_at_slo", rate);
    out.note("files_lost", lost + bad);
    out.attempted = attempted;
    out.failed = failed_ops + lost + bad;
    out
}
