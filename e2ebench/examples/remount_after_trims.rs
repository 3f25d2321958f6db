//! Reproduces a defect the benchmark works around: after churn that
//! includes trims on an aged drive, `power_cut` panics in the mount
//! rebuild (`FtlBase::refresh_victim` computes `invalid - protected` with
//! more protected than invalid pages on a block, and the index overflows).
//!
//! The drive and churn are `aged-churn`'s (8 dies, 90 % filled then
//! overwritten once) with 5 % of the requests turned into 1–8-page trims.
//! Seeds 2, 3 and 4 panic at the time of writing. Exits 0 once the remount
//! succeeds and every page reads back as acknowledged or, for a trimmed
//! page, as unmapped or a version it once held.
//!
//! Usage: `cargo run --release --manifest-path e2ebench/Cargo.toml --example remount_after_trims [seed]`

use std::collections::HashMap;

use insider_e2ebench::shadow::{matches, Shadow};
use insider_e2ebench::util::Rng;
use insider_e2ebench::{baseline_tree, shipping_drive};
use insider_nand::{Geometry, Lba, SimTime};
use ssd_insider::DeviceState;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let geometry = Geometry::builder()
        .channels(2)
        .chips_per_channel(4)
        .blocks_per_chip(128)
        .pages_per_block(64)
        .page_size(4096)
        .build();
    let mut ssd = shipping_drive(geometry, baseline_tree());
    let filled = ssd.logical_pages() * 9 / 10;
    let mut shadow = Shadow::new(seed, ssd.logical_pages());
    // Every version each page held: a trimmed page may come back as any.
    let mut history: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut now = SimTime::from_secs(1);
    for gap in [SimTime::from_millis(4), SimTime::from_secs(11)] {
        let mut lba = 0;
        while lba < filled {
            let len = 64.min(filled - lba);
            let (versions, data) = shadow.stage(lba, len, false);
            ssd.write_extent(Lba::new(lba), &data, now)
                .expect("set-up write");
            shadow.ack(lba, &versions, None);
            for (page, &v) in (lba..).zip(&versions) {
                history.entry(page).or_default().push(v);
            }
            lba += len;
            now += gap;
        }
    }
    let mut trimmed = std::collections::HashSet::new();
    let mut rng = Rng::new(seed, 1);
    let hot = filled / 5;
    for _ in 0..40_000 {
        now += SimTime::from_millis(5);
        let len = rng.range(1, 8);
        let lba = if rng.chance(80) {
            rng.below(hot - len)
        } else {
            hot + rng.below(filled - hot - len)
        };
        let op = rng.below(100);
        if op < 75 {
            let (versions, data) = shadow.stage(lba, len, false);
            ssd.write_extent(Lba::new(lba), &data, now).expect("write");
            shadow.ack(lba, &versions, None);
            for (page, &v) in (lba..).zip(&versions) {
                history.entry(page).or_default().push(v);
            }
        } else if op < 95 {
            ssd.read_extent(Lba::new(lba), len as u32, now)
                .expect("read");
        } else {
            ssd.trim_extent(Lba::new(lba), len as u32, now)
                .expect("trim");
            trimmed.extend(lba..lba + len);
            shadow.trim(lba, len);
        }
        if ssd.state() == DeviceState::Suspicious {
            ssd.dismiss_alarm().expect("dismiss");
        }
    }
    println!("churned 40000 requests with trims; cutting power...");
    now += SimTime::from_millis(1);
    ssd.power_cut(now).expect("remount");
    let mut bad = 0;
    for page in 0..shadow.pages() {
        let got = ssd.read(Lba::new(page), now).expect("read");
        let ok = shadow.check(page, got.as_ref())
            || (trimmed.contains(&page)
                && (got.is_none()
                    || history[&page]
                        .iter()
                        .any(|&v| matches(seed, page, v, got.as_ref()))));
        bad += !ok as u64;
    }
    if bad > 0 {
        println!("defect: {bad} pages wrong after the remount");
        std::process::exit(1);
    }
    println!("ok: remounted and every page checked");
}
