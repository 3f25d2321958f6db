//! Where a write's GC pump lands in time, on an aged 8-die drive.
//!
//! The pump runs in the idle gap before each write, with the device clock
//! still at the previous command, so its copies and erases drain while the
//! dies would otherwise sit idle. At 40 ms between requests that gap is far
//! longer than any pump's work, and the host's programs find their dies
//! nearly free. Placed at the write's own instant instead, the same work
//! queues ahead of the host's pages on every die it touches.
//!
//! This test ages a drive until GC runs on most writes, stop-the-world
//! fallbacks included, then bounds the mean host program latency over a
//! churn window. A program alone takes 500 µs on this drive's NAND
//! timings. The bound is 900 µs: with the pump placed at the write's own
//! instant the same window measured 1 425 µs, and in the gap 729 µs.

use bytes::Bytes;
use insider_ftl::{Ftl, FtlConfig, InsiderFtl};
use insider_nand::{Geometry, KindLatency, Lba, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Churn requests after aging.
const CHURN_WRITES: u64 = 4_000;
/// Churn inter-arrival time.
const CHURN_GAP_MS: u64 = 40;
/// Bound on the churn window's mean host program latency, µs.
const WRITE_MEAN_BOUND_US: f64 = 900.0;

fn geometry() -> Geometry {
    Geometry::builder()
        .channels(2)
        .chips_per_channel(4)
        .blocks_per_chip(32)
        .pages_per_block(64)
        .page_size(64)
        .build()
}

/// Host program latency snapshot, with every queued command finalized.
fn host_programs(ftl: &mut InsiderFtl) -> KindLatency {
    ftl.sync();
    ftl.host_latency_snapshot()
        .expect("the default scheduler reports latency")
        .program
}

#[test]
fn pump_in_the_idle_gap_keeps_host_programs_near_unloaded() {
    let mut ftl = InsiderFtl::new(FtlConfig::new(geometry()));
    let span = ftl.logical_pages() * 9 / 10;
    let data = Bytes::from_static(b"page");

    // Age: fill 90 % of the logical span in 64-page extents, then
    // overwrite it page by page, each write 11 s after the last so no
    // pre-image is still protected when the next one arrives.
    let mut now = SimTime::ZERO;
    for start in (0..span).step_by(64) {
        now += SimTime::from_millis(4);
        let len = 64.min(span - start) as usize;
        ftl.write_extent(Lba::new(start), &vec![data.clone(); len], now)
            .unwrap();
    }
    for lba in 0..span {
        now += SimTime::from_secs(11);
        ftl.write(Lba::new(lba), data.clone(), now).unwrap();
    }

    // Churn: 1–8 page writes, 80 % of them inside the hottest 20 % of the
    // span.
    let before = *ftl.stats();
    let programs_before = host_programs(&mut ftl);
    let hot = span / 5;
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..CHURN_WRITES {
        now += SimTime::from_millis(CHURN_GAP_MS);
        let len = rng.random_range(1..=8u64);
        let region = if rng.random_bool(0.8) { hot } else { span };
        let start = rng.random_range(0..=region - len);
        ftl.write_extent(Lba::new(start), &vec![data.clone(); len as usize], now)
            .unwrap();
    }
    let after = *ftl.stats();
    let programs_after = host_programs(&mut ftl);

    let copies = after.gc_page_copies - before.gc_page_copies;
    let fallbacks = after.gc_stw_fallbacks - before.gc_stw_fallbacks;
    assert!(copies > 0, "the churn window must copy pages");
    assert!(
        fallbacks > 0,
        "the churn window must hit the blocking drain"
    );

    let n = programs_after.count - programs_before.count;
    let sum = programs_after.mean_ns as f64 * programs_after.count as f64
        - programs_before.mean_ns as f64 * programs_before.count as f64;
    let mean_us = sum / n as f64 / 1e3;
    assert!(
        mean_us <= WRITE_MEAN_BOUND_US,
        "host program mean {mean_us:.0} µs over {n} programs \
         ({copies} GC copies, {fallbacks} stop-the-world drains)"
    );
}
