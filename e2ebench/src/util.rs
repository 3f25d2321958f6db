//! Small shared helpers: a seeded generator, order statistics, and the
//! hand-rolled JSON the benchmark prints.

use std::fmt::Write as _;

/// SplitMix64: tiny, seedable and stable across platforms, so one seed
/// always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so the set-up,
    /// the timed phase and the ladder draw independent sequences.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// True with probability `pct` percent.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

/// The SplitMix64 finalizer, also used to derive payload bytes.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nearest-rank quantile of `v` (sorted in place); 0 when empty.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `v` (sorted in place); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Host throughput (ops/s) and p99 per-op latency (µs) of a closed loop,
/// each the median over consecutive chunks of `chunk` operations (a short
/// tail chunk is dropped), so a burst of interference from other tenants
/// of the machine skews one chunk, not the result.
pub fn chunked_host_stats(host_ns: &[u64], chunk: usize) -> (f64, f64) {
    let full: Vec<&[u64]> = host_ns.chunks_exact(chunk).collect();
    let chunks = if full.is_empty() { vec![host_ns] } else { full };
    let mut rates: Vec<f64> = chunks
        .iter()
        .map(|c| c.len() as f64 / (c.iter().sum::<u64>().max(1) as f64 / 1e9))
        .collect();
    let mut p99s: Vec<f64> = chunks
        .iter()
        .map(|c| {
            let mut us: Vec<f64> = c.iter().map(|&ns| ns as f64 / 1e3).collect();
            quantile(&mut us, 0.99)
        })
        .collect();
    (median(&mut rates), median(&mut p99s))
}

/// Fastest of repeated host timings of one task: interference from other
/// tenants of the machine only ever adds time, so the minimum is the
/// steadiest estimate of the task's own cost. 0 when empty.
pub fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Seconds in a `Duration`, as f64.
pub fn secs(d: std::time::Duration) -> f64 {
    d.as_secs_f64()
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (never expected) print as 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
