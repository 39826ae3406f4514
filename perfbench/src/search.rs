//! The `max_rps` search: the highest offered rate at which at most 1% of a
//! step's requests fail and its backlog does not grow: the median latency
//! of the step's later half stays within the workload's limit. Past
//! capacity an open-loop backlog grows for the whole step, so the later
//! half's median climbs with it; a brief stall of a shared host moves a
//! tail percentile or the last response, but not that median.
//!
//! From a starting rate the search doubles until a step fails (or halves
//! until one passes), then bisects geometrically between the best passing
//! and the lowest failing rate until their ratio is within the resolution.

/// Largest share of failed requests a passing step may have.
pub const MAX_FAIL_SHARE: f64 = 0.01;

/// What one search step measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepStats {
    pub attempted: usize,
    pub failed: usize,
    /// Median latency from due time of the later half of the step's
    /// requests (failed requests count as infinitely late).
    pub late_p50_ms: f64,
}

/// Whether a step meets the limit: few enough failures and no growing
/// backlog.
pub fn step_passes(step: &StepStats, limit_ms: f64) -> bool {
    step.attempted > 0
        && (step.failed as f64) <= MAX_FAIL_SHARE * step.attempted as f64
        && step.late_p50_ms <= limit_ms
}

/// The search result: every probed rate with its verdict, and the answer.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    pub steps: Vec<(f64, bool)>,
    /// Highest passing rate (0 when none passed).
    pub max_rps: f64,
    /// Whether the lowest failing rate is within the resolution of it.
    pub resolved: bool,
}

/// Run the search with `probe(rate) -> passed`, at most `max_steps` probes,
/// stopping once `lowest_fail / highest_pass <= 1 + resolution`.
pub fn search(
    start: f64,
    max_steps: usize,
    resolution: f64,
    mut probe: impl FnMut(f64) -> bool,
) -> SearchOutcome {
    let mut pass: Option<f64> = None;
    let mut fail: Option<f64> = None;
    let mut steps = Vec::new();
    let mut rate = start;
    let resolved = |pass: Option<f64>, fail: Option<f64>| match (pass, fail) {
        (Some(lo), Some(hi)) => hi / lo <= 1.0 + resolution,
        _ => false,
    };
    while steps.len() < max_steps && !resolved(pass, fail) {
        let ok = probe(rate);
        steps.push((rate, ok));
        if ok {
            pass = Some(pass.map_or(rate, |lo: f64| lo.max(rate)));
        } else {
            fail = Some(fail.map_or(rate, |hi: f64| hi.min(rate)));
        }
        rate = match (pass, fail) {
            (Some(lo), Some(hi)) => (lo * hi).sqrt(),
            (Some(lo), None) => lo * 2.0,
            (None, Some(hi)) => hi / 2.0,
            (None, None) => unreachable!("a probe always records a verdict"),
        };
    }
    SearchOutcome {
        max_rps: pass.unwrap_or(0.0),
        resolved: resolved(pass, fail),
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_the_capacity_within_the_resolution() {
        for capacity in [130.0, 517.0, 999.0, 3100.0] {
            let outcome = search(200.0, 12, 0.04, |rate| rate <= capacity);
            assert!(outcome.resolved, "capacity {capacity}: {outcome:?}");
            assert!(outcome.max_rps <= capacity);
            assert!(outcome.max_rps >= capacity / 1.04, "{outcome:?}");
        }
    }

    #[test]
    fn respects_the_step_budget() {
        let mut probes = 0;
        let outcome = search(200.0, 5, 0.01, |rate| {
            probes += 1;
            rate <= 777.0
        });
        assert_eq!(probes, 5);
        assert_eq!(outcome.steps.len(), 5);
        assert!(!outcome.resolved);
        assert_eq!(outcome.steps[0], (200.0, true));
        assert_eq!(outcome.steps[1], (400.0, true));
        assert_eq!(outcome.steps[2], (800.0, false));
        // Bisection is geometric between the bracket's ends.
        assert!((outcome.steps[3].0 - (400.0f64 * 800.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn nothing_passing_reports_zero() {
        let outcome = search(200.0, 4, 0.04, |_| false);
        assert_eq!(outcome.max_rps, 0.0);
        let rates: Vec<f64> = outcome.steps.iter().map(|s| s.0).collect();
        assert_eq!(rates, vec![200.0, 100.0, 50.0, 25.0]);
    }

    #[test]
    fn step_verdicts() {
        let good = StepStats {
            attempted: 400,
            failed: 4,
            late_p50_ms: 9.0,
        };
        assert!(step_passes(&good, 10.0));
        assert!(!step_passes(&StepStats { failed: 5, ..good }, 10.0));
        let backlog = StepStats {
            late_p50_ms: 11.0,
            ..good
        };
        assert!(!step_passes(&backlog, 10.0));
        assert!(!step_passes(
            &StepStats {
                attempted: 0,
                failed: 0,
                ..good
            },
            10.0
        ));
    }
}
