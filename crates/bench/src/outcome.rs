//! Scoring one detection run: FRR/FAR/latency at arbitrary thresholds.
//!
//! A key property of the score design (Algorithm 1) is that one replay
//! yields the outcome at *every* threshold: the per-slice scores are
//! recorded once and the alarm decision at threshold `t` is just
//! `score >= t`. Fig. 7's threshold sweep reuses a single set of replays.

use insider_detect::Verdict;
use insider_nand::SimTime;
use insider_workloads::ActivePeriod;

/// One replayed run's per-slice scores plus its ground truth.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    verdicts: Vec<Verdict>,
    active: Option<ActivePeriod>,
    slice: SimTime,
}

impl RunOutcome {
    /// Wraps a replay's verdicts with its ground truth.
    pub fn new(verdicts: Vec<Verdict>, active: Option<ActivePeriod>, slice: SimTime) -> Self {
        RunOutcome {
            verdicts,
            active,
            slice,
        }
    }

    /// The recorded verdicts.
    pub fn verdicts(&self) -> &[Verdict] {
        &self.verdicts
    }

    /// The ransomware's active period, if the run had one.
    pub fn active(&self) -> Option<ActivePeriod> {
        self.active
    }

    /// End time of a verdict's slice (the instant at which the score
    /// became visible).
    fn slice_end(&self, v: &Verdict) -> SimTime {
        SimTime::from_micros((v.slice + 1) * self.slice.as_micros())
    }

    /// First slice end at/after the attack started whose score reaches
    /// `threshold` — i.e. when the drive would raise the alarm.
    pub fn detected_at(&self, threshold: u32) -> Option<SimTime> {
        let start = self.active?.start;
        self.verdicts
            .iter()
            .filter(|v| v.score >= threshold)
            .map(|v| self.slice_end(v))
            .find(|&t| t >= start)
    }

    /// Detection latency from attack start, if detected.
    pub fn detection_latency(&self, threshold: u32) -> Option<SimTime> {
        let start = self.active?.start;
        self.detected_at(threshold).map(|t| t - start)
    }

    /// Whether the run is a *false rejection* at `threshold`: ransomware ran
    /// but no slice during/after the attack reached the threshold.
    pub fn is_false_rejection(&self, threshold: u32) -> bool {
        self.active.is_some() && self.detected_at(threshold).is_none()
    }

    /// Whether the run raised a *false alarm* at `threshold`: the score
    /// crossed the threshold while no ransomware had been active yet —
    /// before the attack in infected runs, or at any time in benign runs.
    pub fn is_false_alarm(&self, threshold: u32) -> bool {
        let limit = self.active.map(|p| p.start);
        self.verdicts
            .iter()
            .any(|v| v.score >= threshold && limit.is_none_or(|start| self.slice_end(v) < start))
    }
}

/// Aggregates run outcomes into the FRR/FAR percentages of Fig. 7.
#[derive(Debug, Clone, Copy, Default)]
pub struct RateAccumulator {
    ransom_runs: u64,
    missed: u64,
    benign_opportunities: u64,
    false_alarms: u64,
}

impl RateAccumulator {
    /// A zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one run in at `threshold`.
    pub fn add(&mut self, run: &RunOutcome, threshold: u32) {
        if run.active().is_some() {
            self.ransom_runs += 1;
            if run.is_false_rejection(threshold) {
                self.missed += 1;
            }
        }
        // Every run has a benign stretch (before the attack, or the whole
        // run) during which a false alarm could fire.
        self.benign_opportunities += 1;
        if run.is_false_alarm(threshold) {
            self.false_alarms += 1;
        }
    }

    /// False rejection rate in percent.
    pub fn frr_pct(&self) -> f64 {
        if self.ransom_runs == 0 {
            0.0
        } else {
            self.missed as f64 * 100.0 / self.ransom_runs as f64
        }
    }

    /// False acceptance (alarm) rate in percent.
    pub fn far_pct(&self) -> f64 {
        if self.benign_opportunities == 0 {
            0.0
        } else {
            self.false_alarms as f64 * 100.0 / self.benign_opportunities as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insider_detect::FeatureVector;

    fn verdict(slice: u64, score: u32) -> Verdict {
        Verdict {
            slice,
            features: FeatureVector::default(),
            vote: score > 0,
            score,
            alarm: false,
        }
    }

    fn active(start_s: u64, end_s: u64) -> Option<ActivePeriod> {
        Some(ActivePeriod {
            start: SimTime::from_secs(start_s),
            end: SimTime::from_secs(end_s),
        })
    }

    fn one_second() -> SimTime {
        SimTime::from_secs(1)
    }

    #[test]
    fn detection_time_and_latency() {
        // Attack starts at t=5; score ramps 1,2,3 at slices 5,6,7.
        let verdicts = vec![verdict(4, 0), verdict(5, 1), verdict(6, 2), verdict(7, 3)];
        let run = RunOutcome::new(verdicts, active(5, 20), one_second());
        assert_eq!(run.detected_at(3), Some(SimTime::from_secs(8)));
        assert_eq!(run.detection_latency(3), Some(SimTime::from_secs(3)));
        assert!(!run.is_false_rejection(3));
        assert!(run.is_false_rejection(4));
        assert!(!run.is_false_alarm(1));
    }

    #[test]
    fn false_alarm_before_attack() {
        // Score 3 at slice 1 (slice end t=2), attack starts at t=10.
        let verdicts = vec![verdict(1, 3), verdict(10, 3)];
        let run = RunOutcome::new(verdicts, active(10, 20), one_second());
        assert!(run.is_false_alarm(3));
        assert!(!run.is_false_alarm(4));
        // The later crossing still counts as detection.
        assert!(!run.is_false_rejection(3));
    }

    #[test]
    fn benign_run_alarm_is_false_alarm() {
        let verdicts = vec![verdict(0, 0), verdict(1, 4)];
        let run = RunOutcome::new(verdicts, None, one_second());
        assert!(run.is_false_alarm(4));
        assert!(!run.is_false_alarm(5));
        assert!(!run.is_false_rejection(4), "no ransomware to miss");
        assert_eq!(run.detected_at(1), None);
    }

    #[test]
    fn rates_aggregate() {
        let slice = one_second();
        let detected = RunOutcome::new(vec![verdict(5, 3)], active(5, 9), slice);
        let missed = RunOutcome::new(vec![verdict(5, 1)], active(5, 9), slice);
        let benign_noisy = RunOutcome::new(vec![verdict(2, 3)], None, slice);
        let benign_quiet = RunOutcome::new(vec![verdict(2, 0)], None, slice);

        let mut acc = RateAccumulator::new();
        for run in [&detected, &missed, &benign_noisy, &benign_quiet] {
            acc.add(run, 3);
        }
        assert_eq!(acc.frr_pct(), 50.0);
        assert_eq!(acc.far_pct(), 25.0);
    }

    #[test]
    fn empty_accumulator_rates_are_zero() {
        let acc = RateAccumulator::new();
        assert_eq!(acc.frr_pct(), 0.0);
        assert_eq!(acc.far_pct(), 0.0);
    }
}
