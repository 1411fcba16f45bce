//! Outcome accounting, quantiles and the metric list a run prints.

use sparsetir_engine::{EngineError, EngineStats, RejectReason};
use std::fmt::Write as _;

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Human-readable remark printed in the report (sample count, or why a
    /// value is a stand-in); not part of the JSON line.
    pub note: String,
}

/// The metrics of one run, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push_noted(name, value, unit, String::new());
    }

    pub fn push_noted(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.0.push(Metric { name: name.to_string(), value, unit, note });
    }
}

/// How one attempted request ended, from the client's side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered, and the answer matched the reference.
    Correct,
    /// Answered, but the answer did not match the reference.
    Wrong,
    /// Answered with an execution error.
    ExecFailed,
    /// Refused at admission (`try_submit`/`submit` returned `Rejected`).
    Shed,
    /// Admitted, then dropped unexecuted by the drain loop because its
    /// deadline passed.
    Expired,
    /// Admitted, then evicted from the queue for higher-priority work.
    Evicted,
    /// Refused at validation (`EngineError::Shape`); the engine's
    /// counters never see these.
    Refused,
}

/// Classify a submit-time error.
pub fn submit_error(e: &EngineError) -> Outcome {
    match e {
        EngineError::Shape(_) => Outcome::Refused,
        EngineError::Rejected { .. } => Outcome::Shed,
        _ => Outcome::ExecFailed,
    }
}

/// Classify a wait-time error.
pub fn wait_error(e: &EngineError) -> Outcome {
    match e {
        EngineError::Rejected { reason: RejectReason::Expired } => Outcome::Expired,
        EngineError::Rejected { .. } => Outcome::Evicted,
        _ => Outcome::ExecFailed,
    }
}

/// Per-outcome counts over a timed window.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub attempted: u64,
    pub correct: u64,
    pub wrong: u64,
    pub exec_failed: u64,
    pub shed: u64,
    pub expired: u64,
    pub evicted: u64,
    pub refused: u64,
}

impl Counts {
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Correct => self.correct += 1,
            Outcome::Wrong => self.wrong += 1,
            Outcome::ExecFailed => self.exec_failed += 1,
            Outcome::Shed => self.shed += 1,
            Outcome::Expired => self.expired += 1,
            Outcome::Evicted => self.evicted += 1,
            Outcome::Refused => self.refused += 1,
        }
    }

    /// Everything that is not a correct answer.
    pub fn failed(&self) -> u64 {
        self.attempted - self.correct
    }

    /// Check `attempted = succeeded + failed + shed + expired + refused`
    /// on the client side, then against the engine's own counters over
    /// the same window. Returns the list of violated identities.
    pub fn reconcile(&self, engine: &EngineStats) -> Vec<String> {
        let mut bad = Vec::new();
        let mut check = |what: &str, lhs: u64, rhs: u64| {
            if lhs != rhs {
                bad.push(format!("{what}: {lhs} != {rhs}"));
            }
        };
        let answered = self.correct + self.wrong;
        check(
            "attempted = correct + wrong + exec_failed + shed + expired + evicted + refused",
            self.attempted,
            answered + self.exec_failed + self.shed + self.expired + self.evicted + self.refused,
        );
        check("engine.completed = correct + wrong", engine.completed, answered);
        check("engine.failed = exec_failed", engine.failed, self.exec_failed);
        check("engine.rejected = shed + evicted", engine.rejected, self.shed + self.evicted);
        check("engine.expired = expired", engine.expired, self.expired);
        check(
            "engine.submitted = attempted - shed - refused",
            engine.submitted,
            self.attempted - self.shed - self.refused,
        );
        bad
    }

    pub fn summary(&self) -> String {
        format!(
            "attempted={} succeeded={} failed={} (wrong={} exec_failed={} shed={} expired={} \
             evicted={} refused_at_validation={})",
            self.attempted,
            self.correct,
            self.failed(),
            self.wrong,
            self.exec_failed,
            self.shed,
            self.expired,
            self.evicted,
            self.refused
        )
    }
}

/// Linear-interpolated quantile of `sorted` (ascending), `q` in `[0, 1]`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Compare a served dense result against its reference. A mismatch is
/// any element off by more than `tol · max(1, |reference|)`.
pub fn close(got: &[f32], want: &[f32], tol: f32) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| (g - w).abs() <= tol * w.abs().max(1.0))
}

/// Collects the reasons a run is not correct.
#[derive(Debug, Default)]
pub struct Checker {
    pub problems: Vec<String>,
}

impl Checker {
    /// Check one served dense answer against its reference.
    pub fn dense(&mut self, what: &str, got: &[f32], want: &[f32], tol: f32) -> bool {
        let ok = close(got, want, tol);
        if !ok {
            self.problems.push(format!("{what}: answer does not match the reference"));
        }
        ok
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Mean batch width of `kind` over a window, from two cumulative
/// snapshots (`EngineStats::delta_since` carries `op_widths` through
/// undifferenced, so the window's share is computed here).
pub fn batch_width_mean(before: &EngineStats, after: &EngineStats, kind: &str) -> f64 {
    let of = |s: &EngineStats| s.widths_of(kind).map_or((0, 0), |w| (w.batches, w.width_sum));
    let (b0, w0) = of(before);
    let (b1, w1) = of(after);
    if b1 > b0 {
        (w1 - w0) as f64 / (b1 - b0) as f64
    } else {
        0.0
    }
}

/// Render the run's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_json(correct: bool, counts: &Counts, metrics: &Metrics) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        counts.attempted,
        counts.failed()
    );
    for (i, m) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { format!("{}", m.value) } else { "null".to_string() };
        let _ = write!(s, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn reconcile_flags_engine_disagreement() {
        let mut c = Counts::default();
        c.record(Outcome::Correct);
        c.record(Outcome::Refused);
        let mut e = EngineStats { submitted: 1, completed: 1, ..EngineStats::default() };
        assert!(c.reconcile(&e).is_empty());
        e.completed = 2;
        assert_eq!(c.reconcile(&e).len(), 1);
    }

    #[test]
    fn close_rejects_a_perturbed_element() {
        let want = vec![1.0, -2.0, 30.0];
        assert!(close(&[1.0, -2.0, 30.001], &want, 1e-3));
        assert!(!close(&[1.0, -1.0, 30.0], &want, 1e-3));
    }
}
