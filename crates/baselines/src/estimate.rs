use std::fmt;

/// Ratio `baseline_seconds / other_seconds`, guarded against non-positive
/// denominators: a zero or negative `other_seconds` cannot describe a real
/// run, so the comparison degenerates to "infinitely faster" instead of
/// silently dividing into a negative or NaN speedup.
///
/// This is the one guard policy every speedup in the workspace shares —
/// [`BaselineEstimate::speedup_of`], `BackendEvaluation::speedup_of` and the
/// sweep engine's speedup columns all route through it.
pub fn guarded_speedup(baseline_seconds: f64, other_seconds: f64) -> f64 {
    if other_seconds > 0.0 {
        baseline_seconds / other_seconds
    } else {
        f64::INFINITY
    }
}

/// A baseline platform's estimated execution time for one model on one graph.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineEstimate {
    /// Platform name (e.g. `rtx-2080-ti`, `hygcn`).
    pub platform: String,
    /// Model name.
    pub model_name: String,
    /// Estimated end-to-end execution time in seconds.
    pub seconds: f64,
    /// Per-layer breakdown in seconds.
    pub layer_seconds: Vec<f64>,
}

impl BaselineEstimate {
    /// Estimated execution time in milliseconds.
    pub fn milliseconds(&self) -> f64 {
        self.seconds * 1e3
    }

    /// Speedup of a run that took `other_seconds` relative to this baseline
    /// (i.e. `self.seconds / other_seconds`).
    ///
    /// A zero or negative `other_seconds` cannot describe a real run, so the
    /// comparison returns [`f64::INFINITY`] instead of silently dividing
    /// into a negative or undefined speedup.
    pub fn speedup_of(&self, other_seconds: f64) -> f64 {
        guarded_speedup(self.seconds, other_seconds)
    }
}

impl fmt::Display for BaselineEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} running {}: {:.3} ms",
            self.platform,
            self.model_name,
            self.milliseconds()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimate() -> BaselineEstimate {
        BaselineEstimate {
            platform: "gpu".into(),
            model_name: "gcn".into(),
            seconds: 2.0e-3,
            layer_seconds: vec![1.5e-3, 0.5e-3],
        }
    }

    #[test]
    fn milliseconds_conversion() {
        assert!((estimate().milliseconds() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn speedup_of_faster_run() {
        // A run that takes 0.5 ms is 4x faster than this 2 ms baseline.
        assert!((estimate().speedup_of(0.5e-3) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn speedup_of_zero_seconds_is_infinite_not_nan() {
        assert_eq!(estimate().speedup_of(0.0), f64::INFINITY);
        // Even a degenerate zero-second baseline must not produce 0/0 = NaN.
        let mut zero_baseline = estimate();
        zero_baseline.seconds = 0.0;
        assert_eq!(zero_baseline.speedup_of(0.0), f64::INFINITY);
    }

    #[test]
    fn speedup_of_negative_seconds_is_infinite_not_negative() {
        assert_eq!(estimate().speedup_of(-1.0), f64::INFINITY);
        assert_eq!(estimate().speedup_of(-0.0), f64::INFINITY);
    }

    #[test]
    fn speedup_of_positive_seconds_still_divides() {
        assert!((estimate().speedup_of(2.0e-3) - 1.0).abs() < 1e-12);
        assert!(estimate().speedup_of(f64::MIN_POSITIVE).is_finite());
    }

    #[test]
    fn display_mentions_platform_and_model() {
        let s = estimate().to_string();
        assert!(s.contains("gpu"));
        assert!(s.contains("gcn"));
    }
}
