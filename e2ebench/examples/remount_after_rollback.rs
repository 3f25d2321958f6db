//! Reproduces a defect the benchmark works around: a power cut after a
//! completed rollback brings the rolled-back data back.
//!
//! Rollback only rewinds the DRAM mapping table; the attacker's versions
//! stay on flash with the newest stamps, so the mount scan picks them
//! again. Exits 1 while the defect stands, 0 once the rollback survives
//! the power cycle.
//!
//! Usage: `cargo run --release --manifest-path e2ebench/Cargo.toml --example remount_after_rollback`

use bytes::Bytes;
use insider_detect::DecisionTree;
use insider_nand::{Geometry, Lba, SimTime};
use ssd_insider::{DeviceState, InsiderConfig, SsdInsider};

fn main() {
    // "Any overwrite votes ransomware" keeps the attack short.
    let mut ssd = SsdInsider::new(
        InsiderConfig::new(Geometry::tiny()),
        DecisionTree::stump(0, 0.5),
    );
    let plain = Bytes::from_static(b"thesis draft");
    ssd.write(Lba::new(10), plain.clone(), SimTime::from_secs(1))
        .expect("write");
    let mut t = SimTime::from_secs(60);
    while ssd.state() == DeviceState::Normal {
        ssd.read(Lba::new(10), t).expect("read");
        ssd.write(Lba::new(10), Bytes::from_static(b"3ncryp7ed"), t)
            .expect("write");
        t += SimTime::from_millis(250);
    }
    ssd.confirm_and_recover(t).expect("recover");
    ssd.reboot().expect("reboot");
    let restored = ssd.read(Lba::new(10), t).expect("read");
    println!(
        "after rollback:   {:?}",
        restored.as_deref().map(String::from_utf8_lossy)
    );
    t += SimTime::from_millis(1);
    ssd.power_cut(t).expect("remount");
    let remounted = ssd.read(Lba::new(10), t).expect("read");
    println!(
        "after power cut:  {:?}",
        remounted.as_deref().map(String::from_utf8_lossy)
    );
    if remounted.as_ref() != Some(&plain) {
        println!("defect: the rollback did not survive the power cut");
        std::process::exit(1);
    }
    println!("ok: the rollback survived the power cut");
}
