//! Checkpointed-mount differential tests (ISSUE 8 tentpole).
//!
//! The contract under test: a mount that loads the newest valid checkpoint
//! and replays only the OOB tail must be indistinguishable from a mount
//! that scans every spare area from scratch — same logical contents, same
//! mapping winners, same ability to keep absorbing writes and garbage
//! collection afterwards. Debug builds additionally run the in-tree merge
//! oracle (`verify_checkpoint_merge`) on every checkpointed mount, so every
//! test here exercises it for free.

use bytes::Bytes;
use insider_ftl::{ConventionalFtl, Ftl, FtlConfig, FtlError, InsiderFtl};
use insider_nand::{FaultPlan, Geometry, Lba, NandError, SimTime};

const WINDOW: SimTime = SimTime::from_millis(50);
const INTERVAL: u64 = 48;

fn config() -> FtlConfig {
    FtlConfig::new(Geometry::tiny()).protection_window(WINDOW)
}

/// A GC-heavy workload: a hot set overwritten many times with a cold page
/// per round, enough to cycle blocks through GC (so checkpointed records
/// get pruned and relocated) and to trigger several checkpoints.
fn workload() -> Vec<(u64, SimTime)> {
    let mut out = Vec::new();
    let mut t = SimTime::from_millis(10);
    for round in 0..100u64 {
        for lba in 0..7u64 {
            out.push((lba, t));
            t += SimTime::from_millis(5);
        }
        out.push((8 + round % 40, t));
        t += SimTime::from_millis(5);
    }
    out
}

fn run<F: Ftl>(ftl: &mut F) -> SimTime {
    let mut now = SimTime::ZERO;
    for (i, (lba, t)) in workload().into_iter().enumerate() {
        now = t;
        ftl.write(Lba::new(lba), Bytes::from(format!("L{lba}O{i}")), t)
            .expect("write failed");
    }
    now
}

fn assert_same_contents<A: Ftl, B: Ftl>(a: &mut A, b: &mut B, now: SimTime, what: &str) {
    assert_eq!(a.logical_pages(), b.logical_pages());
    for lba in 0..a.logical_pages() {
        let x = a.read(Lba::new(lba), now).expect("read failed");
        let y = b.read(Lba::new(lba), now).expect("read failed");
        assert_eq!(x, y, "{what}: lba {lba} diverged");
    }
}

/// Checkpoint + tail vs full-scan mount must agree byte for byte, and both
/// drives must sustain GC-forcing service afterwards. Covers both FTLs.
fn check_ckpt_mount_matches_full_scan<F, M>(make: M)
where
    F: Ftl,
    M: Fn(FtlConfig) -> F,
{
    let mut ckpt = make(config().checkpoint_interval(INTERVAL));
    let mut full = make(
        config()
            .checkpoint_interval(INTERVAL)
            .mount_from_checkpoint(false),
    );
    let now = run(&mut ckpt);
    run(&mut full);
    assert!(
        ckpt.stats().checkpoints > 0,
        "workload never triggered a checkpoint"
    );

    ckpt.power_cut(now).expect("checkpointed remount failed");
    full.power_cut(now).expect("full-scan remount failed");
    assert_same_contents(&mut ckpt, &mut full, now, "post-remount");

    // Both mounted states must keep working: force GC and re-verify.
    let mut t = now + SimTime::from_secs(1);
    for round in 0..60u64 {
        for lba in 0..8u64 {
            let payload = Bytes::from(format!("post{round}:{lba}"));
            ckpt.write(Lba::new(lba), payload.clone(), t)
                .expect("post-remount write");
            full.write(Lba::new(lba), payload, t)
                .expect("post-remount write");
            t += SimTime::from_millis(5);
        }
    }
    assert!(
        ckpt.stats().gc_invocations > 0,
        "post-remount service never hit GC"
    );
    assert_same_contents(&mut ckpt, &mut full, t, "post-remount service");

    // A second power cycle mounts from a checkpoint *written after* the
    // first checkpointed mount — the rebuilt chain index is the input.
    let before = ckpt.stats().checkpoints;
    ckpt.power_cut(t)
        .expect("second checkpointed remount failed");
    full.power_cut(t).expect("second full-scan remount failed");
    assert!(before > 1, "post-remount service wrote no checkpoint");
    assert_same_contents(&mut ckpt, &mut full, t, "second remount");
}

#[test]
fn insider_ckpt_mount_matches_full_scan() {
    check_ckpt_mount_matches_full_scan(InsiderFtl::new);
}

#[test]
fn conventional_ckpt_mount_matches_full_scan() {
    check_ckpt_mount_matches_full_scan(ConventionalFtl::new);
}

/// Sweeps power cuts across the region where checkpoint slot erases and
/// page programs happen, stride 1. Wherever the cut lands — including torn
/// mid-checkpoint writes — the remount must match a never-crashed oracle
/// that replayed only the acknowledged writes. A torn checkpoint must fall
/// back to the previous slot or a full scan, never surface garbage.
#[test]
fn torn_checkpoint_falls_back_cleanly() {
    // Locate the mutation count consumed by an uncut run, then sweep cuts
    // across the second half — checkpoints (erase + programs) land
    // throughout once the first interval elapses.
    let mut reference = InsiderFtl::new(config().checkpoint_interval(INTERVAL));
    run(&mut reference);
    let total_muts = {
        let s = reference.nand_stats();
        s.programs + s.erases
    };
    assert!(
        reference.stats().checkpoints >= 4,
        "need several checkpoints to sweep across"
    );

    let mut crashed_inside_ckpt = 0u32;
    for cut in (total_muts / 2)..total_muts {
        let mut ftl = InsiderFtl::new(config().checkpoint_interval(INTERVAL));
        let mut plan = FaultPlan::new();
        plan.power_cut_after(cut);
        ftl.set_fault_plan(plan);
        let mut acked: Vec<(u64, Bytes, SimTime)> = Vec::new();
        let mut crash_now = SimTime::ZERO;
        let mut crashed = false;
        for (i, (lba, t)) in workload().into_iter().enumerate() {
            crash_now = t;
            let payload = Bytes::from(format!("L{lba}O{i}"));
            match ftl.write(Lba::new(lba), payload.clone(), t) {
                Ok(()) => acked.push((lba, payload, t)),
                Err(FtlError::Nand(NandError::PowerLoss)) => {
                    // A cut inside maybe_checkpoint still acknowledged the
                    // data write that triggered it.
                    if ftl.stats().host_writes > acked.len() as u64 {
                        acked.push((lba, payload, t));
                        crashed_inside_ckpt += 1;
                    }
                    crashed = true;
                    break;
                }
                Err(e) => panic!("sweep write failed: {e}"),
            }
        }
        assert!(crashed, "cut {cut} never fired");
        ftl.power_cut(crash_now).expect("remount failed");
        ftl.set_fault_plan(FaultPlan::new());

        let mut oracle = InsiderFtl::new(config());
        for (lba, payload, t) in &acked {
            oracle
                .write(Lba::new(*lba), payload.clone(), *t)
                .expect("oracle write");
        }
        oracle.power_cut(crash_now).expect("oracle remount failed");
        assert_same_contents(&mut ftl, &mut oracle, crash_now, &format!("cut={cut}"));
    }
    assert!(
        crashed_inside_ckpt > 0,
        "sweep never landed a cut inside a checkpoint write"
    );
}
