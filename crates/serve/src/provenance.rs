//! Per-request provenance: where did this request's time go?
//!
//! The serving path measures each stage a `/simulate` request passes
//! through — queue wait, session build (zero when the session was reused),
//! evaluation, response serialization — and attaches the breakdown to the
//! response when the client opts in with the `X-Provenance: 1` header. The
//! same spans are aggregated centrally into the server's stage histograms,
//! so provenance is a per-request *view* of numbers `/metrics` already
//! collects, not a second measurement system.

/// One named, timed stage of a request's life.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Stage name (`queue_wait`, `session_build`, `evaluate`, `serialize`).
    pub stage: &'static str,
    /// Wall-clock seconds spent in the stage.
    pub seconds: f64,
}

/// The provenance record attached to a `/simulate` response.
#[derive(Debug, Clone, Default)]
pub struct RequestProvenance {
    /// The session key the request resolved to (dataset/seed/network shape).
    pub session_key: String,
    /// Backend evaluated.
    pub backend: String,
    /// Whether the session came from the pool (`true`) or was built for
    /// this request.
    pub session_reused: bool,
    /// The timed stages, in request order.
    pub spans: Vec<Span>,
}

impl RequestProvenance {
    /// Appends a stage measurement.
    pub fn span(&mut self, stage: &'static str, seconds: f64) {
        self.spans.push(Span { stage, seconds });
    }

    /// Total measured seconds across all stages.
    pub fn total_seconds(&self) -> f64 {
        self.spans.iter().map(|s| s.seconds).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_in_order() {
        let mut p = RequestProvenance {
            session_key: "cora/7".into(),
            backend: "gnnerator".into(),
            session_reused: true,
            ..Default::default()
        };
        p.span("queue_wait", 0.25);
        p.span("evaluate", 0.5);
        assert_eq!(p.spans.len(), 2);
        assert_eq!(p.spans[0].stage, "queue_wait");
        assert!((p.total_seconds() - 0.75).abs() < 1e-12);
    }
}
