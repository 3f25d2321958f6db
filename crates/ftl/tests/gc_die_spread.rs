//! Regression test for cross-chip GC victim selection on a multi-die drive.
//!
//! Victim selection must pick by yield first and use chip dryness only to
//! break exact score ties. Ordering chips by dryness before score collapses
//! GC onto the low-index dies of an aged drive under hot churn: the driest
//! chip's best victim is nearly all valid, each collection frees one or two
//! pages, write amplification climbs past 40, and the high-index dies are
//! almost never collected. This test ages an 8-die drive, churns it with a
//! hot/cold mix, and asserts both a sane WAF and an even spread of victims
//! across chips.

use bytes::Bytes;
use insider_ftl::{Ftl, FtlConfig, InsiderFtl};
use insider_nand::{Geometry, Lba, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Churn writes after aging.
const CHURN_WRITES: u64 = 20_000;
/// Churn inter-arrival time.
const CHURN_GAP_MS: u64 = 40;

fn geometry() -> Geometry {
    Geometry::builder()
        .channels(2)
        .chips_per_channel(4)
        .blocks_per_chip(32)
        .pages_per_block(64)
        .page_size(64)
        .build()
}

#[test]
fn aged_churn_spreads_victims_across_dies_with_low_waf() {
    let g = geometry();
    let mut ftl = InsiderFtl::new(FtlConfig::new(g).record_gc_victims(true));
    let span = ftl.logical_pages() * 9 / 10;
    let data = Bytes::from_static(b"page");

    // Age: fill 90 % of the logical span, then overwrite it one page at a
    // time, each write 11 s after the last so no pre-image is still
    // protected when the next one arrives.
    let mut now = SimTime::ZERO;
    for lba in 0..span {
        ftl.write(Lba::new(lba), data.clone(), now).unwrap();
    }
    for lba in 0..span {
        now += SimTime::from_secs(11);
        ftl.write(Lba::new(lba), data.clone(), now).unwrap();
    }

    // Churn: 1–8 page writes, 80 % of them inside the hottest 20 % of the
    // span.
    let hot = span / 5;
    let mut rng = StdRng::seed_from_u64(1);
    let host_before = ftl.stats().host_writes;
    let copies_before = ftl.stats().gc_page_copies;
    for _ in 0..CHURN_WRITES {
        now += SimTime::from_millis(CHURN_GAP_MS);
        let len = rng.random_range(1..=8u64);
        let region = if rng.random_bool(0.8) { hot } else { span };
        let start = rng.random_range(0..=region - len);
        let pages = vec![data.clone(); len as usize];
        ftl.write_extent(Lba::new(start), &pages, now).unwrap();
    }

    let host = ftl.stats().host_writes - host_before;
    let copies = ftl.stats().gc_page_copies - copies_before;
    let waf = (host + copies) as f64 / host as f64;

    let chips = g.total_chips() as usize;
    let mut per_chip = vec![0u64; chips];
    for victim in ftl.gc_victims() {
        per_chip[(victim.block / g.blocks_per_chip()) as usize] += 1;
    }
    let mean = per_chip.iter().sum::<u64>() as f64 / chips as f64;
    assert!(mean > 0.0, "churn must collect");
    assert!(
        waf < 10.0,
        "churn WAF {waf:.1} (victims per chip {per_chip:?})"
    );
    for (chip, &n) in per_chip.iter().enumerate() {
        assert!(
            n as f64 <= 2.0 * mean && n as f64 >= mean / 2.0,
            "chip {chip} took {n} victims against a mean of {mean:.0}: {per_chip:?}"
        );
    }
}
