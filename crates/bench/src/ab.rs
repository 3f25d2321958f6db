//! Statistics and verdicts for a same-host A/B of the end-to-end benchmark
//! (`make bench-ab`, the `bench_ab` binary).
//!
//! An A/B runs the base revision and the change as interleaved pairs, one
//! pair per seed, and compares each end-to-end metric `BENCHMARK.json`
//! declares. Per metric it reports both medians, both interquartile
//! ranges and how many pairs the change won, and gives one verdict:
//!
//! * **worse** — the change's median is worse than the base's by more than
//!   the metric's relative bound. This fails the A/B.
//! * **better** — the change won at least 9 of every 10 pairs, and its
//!   median beats the base's by more than the base's IQR. This is the bar
//!   a claimed gain must clear.
//! * **unresolved** — neither, but one side's IQR is wider than the bound
//!   allows (relative to the base median), and the change's runs do not
//!   all beat the base's: the runs spread too widely to call the metric
//!   unchanged.
//! * **same** — none of the above.

use serde_json::Value;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (latencies, WAF, bytes).
    Lower,
    /// Larger values are better (rates).
    Higher,
}

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name, as the benchmark prints it.
    pub name: String,
    /// Improvement direction.
    pub better: Better,
    /// Largest tolerated relative regression of the median (0.15 = 15 %).
    pub bound: f64,
}

impl MetricSpec {
    /// The `end_to_end` metrics of a parsed `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// Names the first entry that lacks a field or has an unknown
    /// `better` direction.
    pub fn from_benchmark(benchmark: &Value) -> Result<Vec<MetricSpec>, String> {
        let Some(Value::Seq(list)) = benchmark.get("end_to_end") else {
            return Err("BENCHMARK.json has no end_to_end list".into());
        };
        list.iter()
            .map(|m| {
                let name = text(m, "name").ok_or("metric without a name")?;
                let better = match text(m, "better") {
                    Some("lower") => Better::Lower,
                    Some("higher") => Better::Higher,
                    other => return Err(format!("{name}: unknown direction {other:?}")),
                };
                Ok(MetricSpec {
                    name: name.to_string(),
                    better,
                    bound: number(m, "bound").ok_or_else(|| format!("{name}: no bound"))?,
                })
            })
            .collect()
    }
}

/// `v[key]` as a number (the vendored JSON value has no accessors).
pub fn number(v: &Value, key: &str) -> Option<f64> {
    match *v.get(key)? {
        Value::F64(f) => Some(f),
        Value::U64(n) => Some(n as f64),
        Value::I64(n) => Some(n as f64),
        _ => None,
    }
}

/// `v[key]` as a string.
pub fn text<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match v.get(key)? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics; 0.0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Interquartile range of `xs`: the 75th minus the 25th percentile.
pub fn iqr(xs: &[f64]) -> f64 {
    quantile(xs, 0.75) - quantile(xs, 0.25)
}

/// The A/B verdict on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Median worse than the base's beyond the metric's bound.
    Worse,
    /// Won ≥ 9/10 of the pairs, by more than the base's IQR in the median.
    Better,
    /// Spread wider than the bound; cannot be called unchanged.
    Unresolved,
    /// None of the above.
    Same,
}

impl Verdict {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Worse => "WORSE",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
        }
    }
}

/// One metric's A/B comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Median over the base runs.
    pub base_median: f64,
    /// IQR over the base runs.
    pub base_iqr: f64,
    /// Median over the change's runs.
    pub head_median: f64,
    /// IQR over the change's runs.
    pub head_iqr: f64,
    /// Relative change of the median, positive when the change is better
    /// (`±inf` when the base median is zero and the change's is not).
    pub gain: f64,
    /// Pairs the change won strictly.
    pub wins: usize,
    /// Pairs the change lost strictly.
    pub losses: usize,
    /// Number of pairs.
    pub pairs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares paired runs of one metric: `base[i]` and `head[i]` come from
/// the same seed.
///
/// # Panics
///
/// Panics if the two series differ in length.
pub fn compare(spec: &MetricSpec, base: &[f64], head: &[f64]) -> Comparison {
    assert_eq!(base.len(), head.len(), "A/B series must be paired");
    // Orient every difference so that positive means "the change is better".
    let sign = match spec.better {
        Better::Lower => -1.0,
        Better::Higher => 1.0,
    };
    let improvement = |b: f64, h: f64| sign * (h - b);
    let wins = base
        .iter()
        .zip(head)
        .filter(|&(&b, &h)| improvement(b, h) > 0.0)
        .count();
    let losses = base
        .iter()
        .zip(head)
        .filter(|&(&b, &h)| improvement(b, h) < 0.0)
        .count();
    let (base_median, head_median) = (median(base), median(head));
    let base_iqr = iqr(base);
    let delta = improvement(base_median, head_median);
    let gain = if delta == 0.0 {
        0.0
    } else if base_median == 0.0 {
        delta.signum() * f64::INFINITY
    } else {
        delta / base_median.abs()
    };
    let pairs = base.len();
    let head_iqr = iqr(head);
    let spread = base_iqr.max(head_iqr) / base_median.abs();
    // Every change run beats every base run: no overlap to be unsure of.
    let separated = head
        .iter()
        .all(|&h| base.iter().all(|&b| improvement(b, h) > 0.0));
    let verdict = if -gain > spec.bound {
        Verdict::Worse
    } else if pairs > 0 && wins * 10 >= pairs * 9 && delta > base_iqr {
        Verdict::Better
    } else if spread > spec.bound && !separated {
        Verdict::Unresolved
    } else {
        Verdict::Same
    };
    Comparison {
        base_median,
        base_iqr,
        head_median,
        head_iqr,
        gain,
        wins,
        losses,
        pairs,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(better: Better, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            better,
            bound,
        }
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert_eq!(iqr(&[1.0, 2.0, 3.0, 4.0, 5.0]), 2.0);
        assert_eq!(iqr(&[1.0, 2.0, 3.0, 4.0]), 1.5);
        assert_eq!(iqr(&[7.0; 10]), 0.0);
    }

    #[test]
    fn a_clear_latency_drop_is_better() {
        let base = [1066.0, 1070.0, 1060.0, 1080.0, 1050.0];
        let head = [693.0, 697.0, 690.0, 700.0, 680.0];
        let c = compare(&spec(Better::Lower, 0.15), &base, &head);
        assert_eq!((c.wins, c.losses, c.pairs), (5, 0, 5));
        assert_eq!(c.verdict, Verdict::Better);
        assert!((c.gain - (1066.0 - 693.0) / 1066.0).abs() < 1e-12);
    }

    #[test]
    fn a_regression_beyond_the_bound_is_worse_in_either_direction() {
        let lower = compare(&spec(Better::Lower, 0.15), &[100.0; 4], &[116.0; 4]);
        assert_eq!(lower.verdict, Verdict::Worse);
        let inside = compare(&spec(Better::Lower, 0.15), &[100.0; 4], &[114.0; 4]);
        assert_eq!(inside.verdict, Verdict::Same);
        let higher = compare(&spec(Better::Higher, 0.25), &[60.0; 4], &[44.0; 4]);
        assert_eq!(higher.verdict, Verdict::Worse);
        assert_eq!(higher.losses, 4);
    }

    #[test]
    fn identical_runs_are_the_same_and_never_win() {
        let c = compare(&spec(Better::Lower, 0.1), &[2.05; 10], &[2.05; 10]);
        assert_eq!((c.wins, c.losses, c.gain), (0, 0, 0.0));
        assert_eq!(c.verdict, Verdict::Same);
    }

    #[test]
    fn a_gain_needs_nine_of_ten_pairs_and_more_than_the_base_iqr() {
        let s = spec(Better::Lower, 0.25);
        // Eight wins of ten: not enough pairs, however large the gain.
        let base = [10.0; 10];
        let mut head = [5.0; 10];
        head[0] = 11.0;
        head[1] = 11.0;
        assert_eq!(compare(&s, &base, &head).verdict, Verdict::Same);
        // Every pair won, but by less than the base's spread, which is
        // itself wider than the bound.
        let base = [10.0, 20.0, 30.0, 40.0];
        let head = [9.0, 19.0, 29.0, 39.0];
        let c = compare(&s, &base, &head);
        assert_eq!(c.wins, 4);
        assert_eq!(c.verdict, Verdict::Unresolved);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let s = spec(Better::Lower, 0.25);
        let base = [0.10, 0.12, 0.20, 0.25, 0.30, 0.11, 0.13, 0.22, 0.27, 0.16];
        let head = [0.12, 0.10, 0.22, 0.20, 0.28, 0.13, 0.11, 0.25, 0.24, 0.17];
        assert_eq!(compare(&s, &base, &head).verdict, Verdict::Unresolved);
        // As wide, but every change run beats every base run, by less than
        // the base's IQR: no gain to claim, and nothing unsure either.
        let c = compare(&s, &[1.0, 2.0, 3.0, 10.0], &[0.9, 0.8, 0.7, 0.95]);
        assert!(c.base_iqr > 1.0 && c.gain > 0.0);
        assert_eq!(c.verdict, Verdict::Same);
        let tight = compare(&s, &[1.0, 1.01, 0.99], &[1.0, 0.99, 1.01]);
        assert_eq!(tight.verdict, Verdict::Same);
    }

    #[test]
    fn a_zero_base_median_reports_an_infinite_change() {
        let c = compare(&spec(Better::Lower, 0.15), &[0.0; 3], &[1.0; 3]);
        assert_eq!(c.gain, f64::NEG_INFINITY);
        assert_eq!(c.verdict, Verdict::Worse);
    }

    #[test]
    fn specs_come_from_the_end_to_end_list() {
        let json: Value = serde_json::from_str(
            r#"{"end_to_end": [
                {"name": "waf", "unit": "ratio", "better": "lower", "bound": 0.1},
                {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25}
            ]}"#,
        )
        .unwrap();
        let specs = MetricSpec::from_benchmark(&json).unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].better, Better::Lower);
        assert_eq!(
            specs[1],
            MetricSpec {
                name: "rate".into(),
                better: Better::Higher,
                bound: 0.25,
            }
        );
        let bad: Value = serde_json::from_str(
            r#"{"end_to_end": [{"name": "x", "better": "sideways", "bound": 1}]}"#,
        )
        .unwrap();
        assert!(MetricSpec::from_benchmark(&bad).is_err());
    }
}
