//! Power-loss crash tests at the FTL layer (ISSUE 5 satellites).
//!
//! * Proptest: after an arbitrary write/trim sequence cut short by a power
//!   loss at an arbitrary program/erase boundary, the remounted FTL's full
//!   logical contents equal a never-crashed differential oracle that
//!   replayed only the *acknowledged* operations (then power-cycled
//!   cleanly, so both sides share the documented trim-volatility
//!   semantics). Run on both `ConventionalFtl` and `InsiderFtl`.
//! * Mid-GC crash: a cut landing exactly on a victim erase — after the
//!   migration programs — must lose nothing, and the rebuilt victim index
//!   must survive further garbage collection (the PR-3 debug
//!   reconciliation asserts run on every post-remount GC).

use bytes::Bytes;
use insider_ftl::{ConventionalFtl, Ftl, FtlConfig, FtlError, InsiderFtl};
use insider_nand::{FaultPlan, Geometry, Lba, NandError, Ppa, SimTime};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

const WINDOW: SimTime = SimTime::from_millis(50);

fn config() -> FtlConfig {
    FtlConfig::new(Geometry::tiny()).protection_window(WINDOW)
}

trait Target: Ftl {
    fn make() -> Self;
    fn arm(&mut self, plan: FaultPlan);
}

impl Target for ConventionalFtl {
    fn make() -> Self {
        ConventionalFtl::new(config())
    }
    fn arm(&mut self, plan: FaultPlan) {
        self.set_fault_plan(plan);
    }
}

impl Target for InsiderFtl {
    fn make() -> Self {
        InsiderFtl::new(config())
    }
    fn arm(&mut self, plan: FaultPlan) {
        self.set_fault_plan(plan);
    }
}

#[derive(Debug, Clone)]
enum Op {
    Write { lba: u64, len: u32 },
    Trim { lba: u64, len: u32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u64..120, 1u32..=4).prop_map(|(lba, len)| Op::Write { lba, len }),
        1 => (0u64..120, 1u32..=4).prop_map(|(lba, len)| Op::Trim { lba, len }),
    ]
}

fn unique_payload(lba: u64, op: usize) -> Bytes {
    Bytes::from(format!("L{lba}O{op}"))
}

fn is_power_loss(e: &FtlError) -> bool {
    matches!(e, FtlError::Nand(NandError::PowerLoss))
}

/// The acknowledged portion of a crashed replay, in replay order.
#[derive(Debug, Default)]
struct Acked {
    ops: Vec<(SimTime, Op, Vec<Bytes>)>,
    hist: HashMap<u64, Vec<Bytes>>,
    trimmed: HashSet<u64>,
    now: SimTime,
    crashed: bool,
}

/// Replays `ops` until the scheduled cut fires, recording exactly what the
/// FTL acknowledged (a partially completed extent contributes its completed
/// prefix).
fn replay_until_crash<T: Target>(ftl: &mut T, ops: &[Op], cut: u64) -> Acked {
    let mut plan = FaultPlan::new();
    plan.power_cut_after(cut);
    ftl.arm(plan);
    let mut acked = Acked::default();
    for (i, op) in ops.iter().enumerate() {
        let now = SimTime::from_millis(10 + 10 * i as u64);
        acked.now = now;
        match *op {
            Op::Write { lba, len } => {
                let payloads: Vec<Bytes> = (0..len as u64)
                    .map(|j| unique_payload(lba + j, i))
                    .collect();
                let before = ftl.stats().host_writes;
                let result = ftl.write_extent(Lba::new(lba), &payloads, now);
                let done = (ftl.stats().host_writes - before) as usize;
                if done > 0 {
                    for (j, p) in payloads[..done].iter().enumerate() {
                        acked
                            .hist
                            .entry(lba + j as u64)
                            .or_default()
                            .push(p.clone());
                        acked.trimmed.remove(&(lba + j as u64));
                    }
                    acked.ops.push((
                        now,
                        Op::Write {
                            lba,
                            len: done as u32,
                        },
                        payloads[..done].to_vec(),
                    ));
                }
                match result {
                    Ok(()) => assert_eq!(done, len as usize),
                    Err(e) if is_power_loss(&e) => {
                        acked.crashed = true;
                        return acked;
                    }
                    Err(e) => panic!("replay write failed: {e}"),
                }
            }
            Op::Trim { lba, len } => match ftl.trim_extent(Lba::new(lba), len, now) {
                Ok(()) => {
                    for j in 0..len as u64 {
                        acked.trimmed.insert(lba + j);
                    }
                    acked.ops.push((now, Op::Trim { lba, len }, Vec::new()));
                }
                Err(e) if is_power_loss(&e) => {
                    acked.crashed = true;
                    return acked;
                }
                Err(e) => panic!("replay trim failed: {e}"),
            },
        }
    }
    acked
}

/// Replays only the acknowledged ops on a fresh, never-faulted FTL.
fn replay_acked<T: Target>(ftl: &mut T, acked: &Acked) {
    for (now, op, payloads) in &acked.ops {
        match *op {
            Op::Write { lba, .. } => {
                ftl.write_extent(Lba::new(lba), payloads, *now)
                    .expect("oracle write failed");
            }
            Op::Trim { lba, len } => {
                ftl.trim_extent(Lba::new(lba), len, *now)
                    .expect("oracle trim failed");
            }
        }
    }
}

/// Crash-vs-oracle differential run: contents must match page for page,
/// with the documented trim-volatility relaxation; afterwards both drives
/// must keep absorbing writes (exercising GC over the rebuilt per-block
/// state and victim index — the PR-3 reconciliation asserts run in debug)
/// and survive a second power cycle with their contents unchanged.
fn check_crash_matches_oracle<T: Target>(ops: &[Op], cut: u64) {
    let mut crashed = T::make();
    let acked = replay_until_crash(&mut crashed, ops, cut);
    crashed.power_cut(acked.now).expect("remount failed");
    // A cut scheduled beyond the replay's mutation count is still pending;
    // the restored device must not inherit it.
    crashed.arm(FaultPlan::new());

    let mut oracle = T::make();
    replay_acked(&mut oracle, &acked);
    oracle.power_cut(acked.now).expect("oracle remount failed");

    assert_eq!(crashed.logical_pages(), oracle.logical_pages());
    for lba in 0..crashed.logical_pages() {
        let c = crashed.read(Lba::new(lba), acked.now).expect("read failed");
        let o = oracle
            .read(Lba::new(lba), acked.now)
            .expect("oracle read failed");
        if acked.trimmed.contains(&lba) {
            // Trims are volatile across power loss; both sides must still
            // hold either nothing or an acknowledged version of this page.
            for (side, v) in [("crashed", &c), ("oracle", &o)] {
                assert!(
                    v.is_none()
                        || acked
                            .hist
                            .get(&lba)
                            .is_some_and(|h| h.contains(v.as_ref().unwrap())),
                    "{side} resurrected foreign data at lba {lba} (cut={cut})"
                );
            }
        } else {
            assert_eq!(c, o, "lba {lba} diverged from the oracle (cut={cut})");
            let want = acked.hist.get(&lba).and_then(|h| h.last());
            assert_eq!(
                c.as_ref(),
                want,
                "lba {lba} lost an acked write (cut={cut})"
            );
        }
    }

    // The remounted block state must sustain further service: overwrite a
    // hot set hard enough to force garbage collection on both drives, with
    // one cold page per round so victims hold live pages GC must move.
    let copies_before = (
        crashed.stats().gc_page_copies,
        oracle.stats().gc_page_copies,
    );
    let mut t = acked.now + SimTime::from_secs(1);
    let mut expected = HashMap::new();
    for round in 0..40u64 {
        for lba in (0..7u64).chain([8 + round]) {
            let payload = Bytes::from(format!("post{round}:{lba}"));
            crashed
                .write(Lba::new(lba), payload.clone(), t)
                .expect("post-remount write");
            oracle
                .write(Lba::new(lba), payload.clone(), t)
                .expect("post-oracle write");
            expected.insert(lba, payload);
            t += SimTime::from_millis(5);
        }
    }
    assert!(
        crashed.stats().gc_page_copies > copies_before.0
            && oracle.stats().gc_page_copies > copies_before.1,
        "post-remount service never migrated a page (cut={cut})"
    );

    // A second, clean power cycle over the GC-reshaped flash must give back
    // exactly the contents each drive served before it.
    let snapshot = |ftl: &mut T| -> Vec<Option<Bytes>> {
        (0..ftl.logical_pages())
            .map(|lba| ftl.read(Lba::new(lba), t).expect("read failed"))
            .collect()
    };
    let before = (snapshot(&mut crashed), snapshot(&mut oracle));
    for (lba, want) in &expected {
        assert_eq!(before.0[*lba as usize].as_ref(), Some(want));
        assert_eq!(before.1[*lba as usize].as_ref(), Some(want));
    }
    crashed.power_cut(t).expect("second remount failed");
    oracle.power_cut(t).expect("second oracle remount failed");
    assert_eq!(
        snapshot(&mut crashed),
        before.0,
        "second remount changed contents (cut={cut})"
    );
    assert_eq!(
        snapshot(&mut oracle),
        before.1,
        "second oracle remount changed contents (cut={cut})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn conventional_remount_matches_acked_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        cut in 1u64..160,
    ) {
        check_crash_matches_oracle::<ConventionalFtl>(&ops, cut);
    }

    #[test]
    fn insider_remount_matches_acked_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        cut in 1u64..160,
    ) {
        check_crash_matches_oracle::<InsiderFtl>(&ops, cut);
    }
}

/// GC-heavy workload: a hot working set overwritten until garbage
/// collection must run, with one fresh cold page per round interleaved so
/// victim blocks always hold live pages and GC must migrate (a pure hot
/// set leaves victims fully invalid — nothing to copy, nothing to test).
/// Times advance 5 ms per write against a 50 ms window, so retirement
/// churns protection on and off as GC runs.
fn gc_workload() -> Vec<(u64, SimTime)> {
    let mut out = Vec::new();
    let mut t = SimTime::from_millis(10);
    for round in 0..120u64 {
        for lba in 0..7u64 {
            out.push((lba, t));
            t += SimTime::from_millis(5);
        }
        out.push((8 + round, t));
        t += SimTime::from_millis(5);
    }
    out
}

/// Runs the GC workload with a cut after `cut` mutations. Returns the
/// remounted FTL, the NAND (programs, erases) it had applied before the
/// cut, and the expected surviving contents.
/// A crashed-and-remounted FTL, the `(programs, erases)` that actually
/// applied before the cut, and the payloads that must survive.
type GcCrashRun = (InsiderFtl, (u64, u64), HashMap<u64, Bytes>);

fn run_gc_crash(cut: u64) -> GcCrashRun {
    let mut ftl = InsiderFtl::new(config());
    let mut plan = FaultPlan::new();
    plan.power_cut_after(cut);
    ftl.set_fault_plan(plan);
    let mut expected = HashMap::new();
    let mut now = SimTime::ZERO;
    for (i, (lba, t)) in gc_workload().into_iter().enumerate() {
        now = t;
        let payload = unique_payload(lba, i);
        match ftl.write(Lba::new(lba), payload.clone(), t) {
            Ok(()) => {
                expected.insert(lba, payload);
            }
            Err(e) if is_power_loss(&e) => break,
            Err(e) => panic!("gc workload write failed: {e}"),
        }
    }
    let s = ftl.nand_stats();
    let applied = (s.programs, s.erases);
    ftl.power_cut(now).expect("remount failed");
    (ftl, applied, expected)
}

#[test]
fn crash_between_gc_migration_and_victim_erase_loses_nothing() {
    // Find cut points that land exactly ON a victim erase: the migration
    // programs for that victim completed, the erase itself failed. The op
    // at boundary k is an erase iff allowing one more op (cut k+1) bumps
    // the applied erase count.
    let mut prev: Option<GcCrashRun> = None;
    let mut mid_gc_points = 0;
    let mut k = 1;
    while mid_gc_points < 3 && k < 4000 {
        let run = run_gc_crash(k);
        if let Some((mut ftl, (_, erases), expected)) = prev.take() {
            let erased_next = run.1 .1 > erases;
            if erased_next && ftl.stats().gc_page_copies > 0 {
                ftl.set_fault_plan(FaultPlan::new());
                // `ftl` crashed between the migration programs and the
                // victim erase. Nothing may be lost — in particular the
                // protected (delayed-deletion) pages the migration moved.
                mid_gc_points += 1;
                for (lba, payload) in &expected {
                    let got = ftl.read(Lba::new(*lba), SimTime::from_secs(10)).unwrap();
                    assert_eq!(
                        got.as_ref(),
                        Some(payload),
                        "lba {lba} lost across a mid-GC crash (cut={})",
                        k - 1
                    );
                }
                // The rebuilt victim index and protected mirror must
                // reconcile through further GC (debug asserts in
                // select_victim/tick fire on divergence).
                let mut t = SimTime::from_secs(20);
                for round in 0..120u64 {
                    for lba in 0..8u64 {
                        ftl.write(Lba::new(lba), Bytes::from(format!("p{round}:{lba}")), t)
                            .expect("post-remount GC write failed");
                        t += SimTime::from_millis(5);
                    }
                }
                assert!(ftl.stats().gc_invocations > 0);
            }
        }
        prev = Some(run);
        k += 1;
    }
    assert_eq!(
        mid_gc_points, 3,
        "workload never produced a mid-GC crash point"
    );
}

/// A trimmed page whose newest version survives only as a GC `backup`
/// copy, while an older `live` copy is still on flash: the mount maps the
/// older copy, so the rebuilt history must end there. Before that rule the
/// mapped page was also re-protected as the trimmed version's predecessor
/// (protected > invalid on its block) and the remount panicked.
#[test]
fn remount_after_trimmed_version_was_relocated_as_backup() {
    const TRIMMED: u64 = 0;
    const HOT: u64 = 207;
    let ms = SimTime::from_millis;
    let mut ftl = InsiderFtl::new(config());
    let mut expected: HashMap<u64, Bytes> = HashMap::new();
    let write = |ftl: &mut InsiderFtl, expected: &mut HashMap<u64, Bytes>, lba, tag: &str, t| {
        let payload = Bytes::from(format!("L{lba}:{tag}"));
        ftl.write(Lba::new(lba), payload.clone(), t).expect("write");
        expected.insert(lba, payload);
    };
    // Eleven blocks of cold data; version A of the trimmed page sits in
    // the first of them, which never becomes a GC victim.
    for lba in 0..176 {
        write(&mut ftl, &mut expected, lba, "cold", ms(1));
    }
    let version_a = expected[&TRIMMED].clone();
    // One block of hot overwrites — reclaimable once their superseding
    // writes leave the window — closed by version B of the trimmed page,
    // which is then trimmed: B stays protected by the trim's entry.
    for i in 1..=15 {
        write(&mut ftl, &mut expected, HOT, &format!("hot{i}"), ms(5 * i));
    }
    write(&mut ftl, &mut expected, TRIMMED, "B", ms(80));
    let version_b = expected.remove(&TRIMMED).unwrap();
    ftl.trim(Lba::new(TRIMMED), ms(81)).expect("trim");
    // Overwrite cold pages (their old versions stay protected) until GC
    // reclaims the hot block, relocating B as a backup copy.
    let mut lba = 16;
    while ftl.stats().gc_invocations == 0 {
        assert!(lba < 176, "GC never ran");
        write(&mut ftl, &mut expected, lba, "fill", ms(90));
        lba += 1;
    }
    let g = *ftl.config().geometry();
    let copies: Vec<_> = (0..g.total_pages())
        .filter_map(|p| ftl.device().oob(Ppa::new(p)).unwrap())
        .filter(|r| r.lba == Lba::new(TRIMMED))
        .map(|r| (r.stamp, r.live))
        .collect();
    assert!(
        copies.contains(&(ms(1), true)) && copies.contains(&(ms(80), false)),
        "scenario not reached: {copies:?}"
    );

    // Inside the window of B's write, so its history is rebuilt.
    ftl.power_cut(ms(100)).expect("remount");
    let got = ftl.read(Lba::new(TRIMMED), ms(100)).unwrap();
    assert!(
        [None, Some(&version_a), Some(&version_b)].contains(&got.as_ref()),
        "trimmed page came back as {got:?}"
    );
    for (lba, payload) in &expected {
        let got = ftl.read(Lba::new(*lba), ms(100)).unwrap();
        assert_eq!(got.as_ref(), Some(payload), "lba {lba} lost");
    }
    // The rebuilt protected mirror must reconcile through further GC.
    let mut t = ms(200);
    for round in 0..120u64 {
        for lba in 0..8u64 {
            write(&mut ftl, &mut expected, lba, &format!("p{round}"), t);
            t += ms(5);
        }
    }
    assert!(ftl.stats().gc_invocations > 1);
}
