//! Backend dispatch for the sweep path.
//!
//! Every [`ScenarioSpec`](crate::ScenarioSpec) names a [`BackendKind`]; the
//! [`SweepRunner`](crate::SweepRunner) turns it into a concrete
//! [`Backend`] implementation and evaluates the point through the trait, so
//! one sweep enumerates accelerator *and* baseline platforms. The two
//! analytical baselines ([`GpuRooflineBackend`], [`HygcnBackend`]) come from
//! the baselines crate; this module contributes [`GnneratorBackend`], the
//! cycle-simulated accelerator wrapping a compiled
//! [`SimSession`](crate::SimSession).

use crate::{DataflowConfig, GnneratorConfig, GnneratorError, Report, SimSession};
use gnnerator_gnn::GnnModel;
use std::fmt;
use std::sync::Arc;

pub use gnnerator_baselines::{
    Backend, BackendError, BackendEvaluation, GpuRooflineBackend, HygcnBackend,
};

/// Which compute platform evaluates a scenario point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The cycle-simulated GNNerator accelerator.
    #[default]
    Gnnerator,
    /// The RTX 2080 Ti roofline baseline.
    GpuRoofline,
    /// The HyGCN analytical baseline (with the paper's dataset-specific
    /// window-sparsity factor applied).
    Hygcn,
}

impl BackendKind {
    /// Every platform, in report order (accelerator first, then baselines).
    pub const ALL: [BackendKind; 3] = [
        BackendKind::Gnnerator,
        BackendKind::GpuRoofline,
        BackendKind::Hygcn,
    ];

    /// Whether this platform is the cycle-simulated accelerator (and thus
    /// produces a full [`Report`] and carries speedup columns against the
    /// baselines).
    pub fn is_accelerator(self) -> bool {
        matches!(self, BackendKind::Gnnerator)
    }

    /// Stable lowercase label used in sweep reports, tables and
    /// `BENCH_sweep.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::Gnnerator => "gnnerator",
            BackendKind::GpuRoofline => "gpu-roofline",
            BackendKind::Hygcn => "hygcn",
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The simulated GNNerator accelerator as a [`Backend`]: a compiled session
/// pinned to one `(platform configuration, dataflow)` point.
///
/// Cloning is cheap (the session is shared through an [`Arc`]).
///
/// # Examples
///
/// ```
/// use gnnerator::{Backend, DataflowConfig, GnneratorBackend, GnneratorConfig, SimSession};
/// use gnnerator_gnn::NetworkKind;
/// use gnnerator_graph::datasets::DatasetKind;
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
/// let dataset = DatasetKind::Cora.spec().scaled(0.05).synthesize(7)?;
/// let model = NetworkKind::Gcn.build_paper_config(dataset.features.dim(), 7)?;
/// let session = Arc::new(SimSession::new(model, &dataset)?);
/// let backend = GnneratorBackend::new(
///     Arc::clone(&session),
///     GnneratorConfig::paper_default(),
///     DataflowConfig::paper_default(),
/// );
/// let eval = backend.evaluate(session.model(), session.num_nodes(), session.num_edges())?;
/// assert!(eval.total_cycles.unwrap() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GnneratorBackend {
    session: Arc<SimSession>,
    config: GnneratorConfig,
    dataflow: DataflowConfig,
}

impl GnneratorBackend {
    /// Creates a backend evaluating `session` under one
    /// `(config, dataflow)` point.
    pub fn new(
        session: Arc<SimSession>,
        config: GnneratorConfig,
        dataflow: DataflowConfig,
    ) -> Self {
        Self {
            session,
            config,
            dataflow,
        }
    }

    /// The session this backend simulates.
    pub fn session(&self) -> &SimSession {
        &self.session
    }

    /// Runs the cycle-level simulation, returning the full [`Report`] behind
    /// the trait's [`BackendEvaluation`].
    ///
    /// # Errors
    ///
    /// Propagates compilation and simulation errors.
    pub fn simulate(&self) -> Result<Report, GnneratorError> {
        self.session.simulate(&self.config, self.dataflow)
    }
}

impl Backend for GnneratorBackend {
    fn platform(&self) -> &str {
        &self.config.name
    }

    /// Evaluates the session's pinned model. The compiled session already
    /// fixes the model and graph, so the arguments must describe that same
    /// scenario — a mismatch is an error, not a silent evaluation of the
    /// wrong workload.
    fn evaluate(
        &self,
        model: &GnnModel,
        num_nodes: usize,
        num_edges: usize,
    ) -> Result<BackendEvaluation, BackendError> {
        let pinned = self.session.model();
        if model.name() != pinned.name()
            || model.input_dim() != pinned.input_dim()
            || model.num_layers() != pinned.num_layers()
            || num_nodes != self.session.num_nodes()
            || num_edges != self.session.num_edges()
        {
            return Err(GnneratorError::backend(format!(
                "GnneratorBackend is pinned to {} on {} ({} nodes / {} edges) but was asked to \
                 evaluate {} on a graph with {} nodes / {} edges",
                pinned.name(),
                self.session.dataset_name(),
                self.session.num_nodes(),
                self.session.num_edges(),
                model.name(),
                num_nodes,
                num_edges
            ))
            .into());
        }
        Ok(self.simulate()?.to_evaluation())
    }
}

impl Report {
    /// This report as a platform-neutral [`BackendEvaluation`], so
    /// cycle-simulated runs and analytical baseline estimates land in one
    /// result table.
    pub fn to_evaluation(&self) -> BackendEvaluation {
        let hz = self.frequency_ghz * 1e9;
        BackendEvaluation {
            platform: self.platform.clone(),
            seconds: self.seconds(),
            layer_seconds: self.layers.iter().map(|l| l.cycles as f64 / hz).collect(),
            total_cycles: Some(self.total_cycles),
            dram_bytes: Some(self.dram_bytes()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnerator_gnn::NetworkKind;
    use gnnerator_graph::datasets::DatasetKind;

    fn session() -> Arc<SimSession> {
        let dataset = DatasetKind::Cora
            .spec()
            .scaled(0.03)
            .synthesize(11)
            .unwrap();
        let model = NetworkKind::Gcn
            .build_paper_config(dataset.features.dim(), 7)
            .unwrap();
        Arc::new(SimSession::new(model, &dataset).unwrap())
    }

    #[test]
    fn kind_labels_are_stable_and_displayed() {
        assert_eq!(BackendKind::Gnnerator.to_string(), "gnnerator");
        assert_eq!(BackendKind::GpuRoofline.to_string(), "gpu-roofline");
        assert_eq!(BackendKind::Hygcn.to_string(), "hygcn");
        assert_eq!(BackendKind::default(), BackendKind::Gnnerator);
        assert!(BackendKind::Gnnerator.is_accelerator());
        assert!(!BackendKind::GpuRoofline.is_accelerator());
        assert!(!BackendKind::Hygcn.is_accelerator());
        assert_eq!(BackendKind::ALL.len(), 3);
    }

    #[test]
    fn gnnerator_backend_evaluation_matches_its_report() {
        let session = session();
        let backend = GnneratorBackend::new(
            Arc::clone(&session),
            GnneratorConfig::paper_default(),
            DataflowConfig::paper_default(),
        );
        let report = backend.simulate().unwrap();
        let eval = backend
            .evaluate(session.model(), session.num_nodes(), session.num_edges())
            .unwrap();
        assert_eq!(eval.platform, "gnnerator");
        assert_eq!(backend.platform(), "gnnerator");
        assert_eq!(eval.total_cycles, Some(report.total_cycles));
        assert_eq!(eval.dram_bytes, Some(report.dram_bytes()));
        assert_eq!(eval.seconds, report.seconds());
        assert_eq!(eval.layer_seconds.len(), report.layers.len());
        let layer_sum: f64 = eval.layer_seconds.iter().sum();
        assert!((layer_sum - eval.seconds).abs() < 1e-9 * eval.seconds.max(1e-12));
        assert_eq!(backend.session().num_nodes(), session.num_nodes());
    }

    #[test]
    fn gnnerator_backend_rejects_mismatched_scenarios() {
        let session = session();
        let backend = GnneratorBackend::new(
            Arc::clone(&session),
            GnneratorConfig::paper_default(),
            DataflowConfig::paper_default(),
        );
        // Wrong graph shape.
        let err = backend
            .evaluate(
                session.model(),
                session.num_nodes() + 1,
                session.num_edges(),
            )
            .unwrap_err();
        assert!(err.to_string().contains("pinned"), "{err}");
        // Wrong model.
        let other = NetworkKind::Graphsage
            .build_paper_config(session.model().input_dim(), 7)
            .unwrap();
        let err = backend
            .evaluate(&other, session.num_nodes(), session.num_edges())
            .unwrap_err();
        assert!(err.to_string().contains("pinned"), "{err}");
    }

    #[test]
    fn accelerator_routes_through_the_same_trait_as_baselines() {
        let session = session();
        let backends: Vec<Box<dyn Backend>> = vec![
            Box::new(GnneratorBackend::new(
                Arc::clone(&session),
                GnneratorConfig::paper_default(),
                DataflowConfig::paper_default(),
            )),
            Box::new(GpuRooflineBackend::rtx_2080_ti()),
            Box::new(HygcnBackend::for_dataset("cora")),
        ];
        for backend in &backends {
            let eval = backend
                .evaluate(session.model(), session.num_nodes(), session.num_edges())
                .unwrap();
            assert!(eval.seconds > 0.0, "{}", backend.platform());
            assert_eq!(eval.layer_seconds.len(), 2, "{}", backend.platform());
        }
    }
}
