//! The platform abstraction every compute platform plugs into.
//!
//! A [`Backend`] evaluates one scenario point — a GNN model on a graph of a
//! given shape — and returns a [`BackendEvaluation`]: end-to-end seconds, a
//! per-layer breakdown and whatever cycle-level telemetry the platform can
//! provide. The sweep engine in the core crate dispatches every
//! `ScenarioSpec` through this trait, so accelerator simulations and
//! analytical baseline estimates flow through one code path and land in one
//! result table.
//!
//! This crate provides the two reference baselines of Table IV as backends:
//!
//! * [`GpuRooflineBackend`] — the RTX 2080 Ti roofline model,
//! * [`HygcnBackend`] — the HyGCN analytical model (with the paper's
//!   dataset-specific window-sparsity factors via
//!   [`HygcnBackend::for_dataset`]).
//!
//! The cycle-simulated `GnneratorBackend` lives in the core crate (it wraps a
//! compiled `SimSession`) and implements the same trait. Adding a fourth
//! platform means implementing [`Backend`] and giving the sweep path a way to
//! construct it.

use crate::{BaselineEstimate, GpuConfig, GpuModel, HygcnConfig, HygcnModel};
use gnnerator_gnn::GnnModel;
use std::error::Error;

/// Boxed error returned by backend evaluations.
///
/// Analytical baselines are infallible, but cycle-simulated backends
/// propagate compilation/simulation failures; the alias keeps the trait free
/// of any one platform's concrete error type.
pub type BackendError = Box<dyn Error + Send + Sync + 'static>;

/// The unified result of evaluating one scenario point on one platform.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendEvaluation {
    /// Platform label stamped into reports (e.g. `gnnerator`, `rtx-2080-ti`,
    /// `hygcn`).
    pub platform: String,
    /// Estimated or simulated end-to-end execution time in seconds.
    pub seconds: f64,
    /// Per-layer breakdown in seconds.
    pub layer_seconds: Vec<f64>,
    /// Total cycles when the platform is cycle-simulated (`None` for
    /// analytical models that work directly in seconds).
    pub total_cycles: Option<u64>,
    /// Modelled off-chip DRAM traffic in bytes, when the platform tracks it.
    pub dram_bytes: Option<u64>,
}

impl From<BaselineEstimate> for BackendEvaluation {
    fn from(estimate: BaselineEstimate) -> Self {
        Self {
            platform: estimate.platform,
            seconds: estimate.seconds,
            layer_seconds: estimate.layer_seconds,
            total_cycles: None,
            dram_bytes: None,
        }
    }
}

/// A compute platform that can evaluate one (model, graph) scenario point.
///
/// Implementations must be thread-safe: the sweep engine evaluates points in
/// parallel and shares backend instances across worker threads.
pub trait Backend: Send + Sync {
    /// Stable platform label for reports and result tables.
    fn platform(&self) -> &str;

    /// Evaluates `model` on a graph with `num_nodes` nodes and `num_edges`
    /// edges.
    ///
    /// # Errors
    ///
    /// Propagates platform-specific evaluation failures (analytical models
    /// never fail; simulated backends can).
    fn evaluate(
        &self,
        model: &GnnModel,
        num_nodes: usize,
        num_edges: usize,
    ) -> Result<BackendEvaluation, BackendError>;
}

/// The RTX 2080 Ti roofline baseline as a [`Backend`].
///
/// # Examples
///
/// ```
/// use gnnerator_baselines::{Backend, GpuRooflineBackend};
/// use gnnerator_gnn::NetworkKind;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
/// let backend = GpuRooflineBackend::rtx_2080_ti();
/// let model = NetworkKind::Gcn.build_paper_config(1433, 7)?;
/// let eval = backend.evaluate(&model, 2708, 10556)?;
/// assert!(eval.seconds > 0.0);
/// assert!(eval.total_cycles.is_none(), "roofline models are not cycle-simulated");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GpuRooflineBackend {
    model: GpuModel,
}

impl GpuRooflineBackend {
    /// Creates a backend from an explicit GPU configuration.
    pub fn new(config: GpuConfig) -> Self {
        Self {
            model: GpuModel::new(config),
        }
    }

    /// The RTX 2080 Ti configuration used throughout the paper.
    pub fn rtx_2080_ti() -> Self {
        Self {
            model: GpuModel::rtx_2080_ti(),
        }
    }

    /// The underlying roofline model.
    pub fn model(&self) -> &GpuModel {
        &self.model
    }
}

impl Backend for GpuRooflineBackend {
    fn platform(&self) -> &str {
        &self.model.config().name
    }

    fn evaluate(
        &self,
        model: &GnnModel,
        num_nodes: usize,
        num_edges: usize,
    ) -> Result<BackendEvaluation, BackendError> {
        Ok(self.model.estimate(model, num_nodes, num_edges).into())
    }
}

/// The HyGCN analytical baseline as a [`Backend`].
///
/// # Examples
///
/// ```
/// use gnnerator_baselines::{Backend, HygcnBackend};
/// use gnnerator_gnn::NetworkKind;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
/// // Citeseer gets the paper's 3x window-sparsity factor automatically.
/// let backend = HygcnBackend::for_dataset("citeseer");
/// let model = NetworkKind::Gcn.build_paper_config(3703, 6)?;
/// let eval = backend.evaluate(&model, 3327, 9104)?;
/// assert!(eval.seconds > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HygcnBackend {
    model: HygcnModel,
}

impl HygcnBackend {
    /// Creates a backend from an explicit HyGCN configuration.
    pub fn new(config: HygcnConfig) -> Self {
        Self {
            model: HygcnModel::new(config),
        }
    }

    /// The Table IV configuration without sparsity elimination.
    pub fn paper_default() -> Self {
        Self {
            model: HygcnModel::paper_default(),
        }
    }

    /// The Table IV configuration with the paper's quoted window-sparsity
    /// speedup for `dataset` applied
    /// (see [`HygcnConfig::paper_sparsity_for`]).
    pub fn for_dataset(dataset: &str) -> Self {
        Self::new(
            HygcnConfig::paper_default()
                .with_sparsity_speedup(HygcnConfig::paper_sparsity_for(dataset)),
        )
    }

    /// The underlying analytical model.
    pub fn model(&self) -> &HygcnModel {
        &self.model
    }
}

impl Backend for HygcnBackend {
    fn platform(&self) -> &str {
        &self.model.config().name
    }

    fn evaluate(
        &self,
        model: &GnnModel,
        num_nodes: usize,
        num_edges: usize,
    ) -> Result<BackendEvaluation, BackendError> {
        Ok(self.model.estimate(model, num_nodes, num_edges).into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnerator_gnn::NetworkKind;

    fn gcn() -> GnnModel {
        NetworkKind::Gcn.build_paper_config(1433, 7).unwrap()
    }

    #[test]
    fn gpu_backend_matches_the_raw_model() {
        let backend = GpuRooflineBackend::rtx_2080_ti();
        let eval = backend.evaluate(&gcn(), 2708, 10556).unwrap();
        let raw = GpuModel::rtx_2080_ti().estimate(&gcn(), 2708, 10556);
        assert_eq!(eval.seconds, raw.seconds);
        assert_eq!(eval.layer_seconds, raw.layer_seconds);
        assert_eq!(backend.platform(), "rtx-2080-ti");
        assert!(eval.total_cycles.is_none());
        assert!(eval.dram_bytes.is_none());
    }

    #[test]
    fn hygcn_backend_applies_dataset_sparsity() {
        let plain = HygcnBackend::paper_default()
            .evaluate(&gcn(), 2708, 10556)
            .unwrap();
        let cora = HygcnBackend::for_dataset("cora")
            .evaluate(&gcn(), 2708, 10556)
            .unwrap();
        // Cora gets a 1.1x factor, so the optimised estimate is faster.
        assert!(cora.seconds < plain.seconds);
        assert_eq!(
            HygcnBackend::for_dataset("unknown")
                .model()
                .config()
                .sparsity_speedup,
            1.0
        );
    }

    #[test]
    fn evaluations_convert_from_estimates() {
        let estimate = BaselineEstimate {
            platform: "p".into(),
            model_name: "m".into(),
            seconds: 2.0e-3,
            layer_seconds: vec![1.0e-3, 1.0e-3],
        };
        let eval = BackendEvaluation::from(estimate);
        assert_eq!(eval.platform, "p");
        assert_eq!(eval.seconds, 2.0e-3);
    }

    #[test]
    fn backends_are_object_safe_and_thread_safe() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Box<dyn Backend>>();
        let backends: Vec<Box<dyn Backend>> = vec![
            Box::new(GpuRooflineBackend::rtx_2080_ti()),
            Box::new(HygcnBackend::paper_default()),
        ];
        for backend in &backends {
            let eval = backend.evaluate(&gcn(), 1000, 5000).unwrap();
            assert!(eval.seconds > 0.0, "{}", backend.platform());
            assert_eq!(eval.layer_seconds.len(), 2);
        }
    }
}
