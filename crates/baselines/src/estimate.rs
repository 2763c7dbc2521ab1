use std::fmt;

/// Ratio `baseline_seconds / other_seconds`, guarded against non-positive
/// denominators: a zero or negative `other_seconds` cannot describe a real
/// run, so the comparison degenerates to "infinitely faster" instead of
/// silently dividing into a negative or NaN speedup.
///
/// This is the one guard policy every speedup in the workspace shares: the
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
        assert!((guarded_speedup(estimate().seconds, 0.5e-3) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn speedup_of_zero_seconds_is_infinite_not_nan() {
        assert_eq!(guarded_speedup(estimate().seconds, 0.0), f64::INFINITY);
        // Even a degenerate zero-second baseline must not produce 0/0 = NaN.
        let mut zero_baseline = estimate();
        zero_baseline.seconds = 0.0;
        assert_eq!(guarded_speedup(zero_baseline.seconds, 0.0), f64::INFINITY);
    }

    #[test]
    fn speedup_of_negative_seconds_is_infinite_not_negative() {
        assert_eq!(guarded_speedup(estimate().seconds, -1.0), f64::INFINITY);
        assert_eq!(guarded_speedup(estimate().seconds, -0.0), f64::INFINITY);
    }

    #[test]
    fn speedup_of_positive_seconds_still_divides() {
        assert!((guarded_speedup(estimate().seconds, 2.0e-3) - 1.0).abs() < 1e-12);
        assert!(guarded_speedup(estimate().seconds, f64::MIN_POSITIVE).is_finite());
    }

    #[test]
    fn display_mentions_platform_and_model() {
        let s = estimate().to_string();
        assert!(s.contains("gpu"));
        assert!(s.contains("gcn"));
    }
}
