use gnnerator_gnn::GnnError;
use gnnerator_graph::GraphError;
use std::error::Error;
use std::fmt;

/// Error type for compilation and simulation of GNN workloads on GNNerator.
#[derive(Debug, Clone, PartialEq)]
pub enum GnneratorError {
    /// The accelerator configuration was internally inconsistent.
    InvalidConfig {
        /// Description of the problem.
        message: String,
    },
    /// The dataflow configuration was invalid (e.g. a zero block size).
    InvalidDataflow {
        /// Description of the problem.
        message: String,
    },
    /// The model cannot be mapped onto the accelerator.
    Unmappable {
        /// Description of the problem.
        message: String,
    },
    /// A backend failed to evaluate a scenario point.
    Backend {
        /// Description of the problem (the backend's own error, flattened so
        /// this type stays `Clone + PartialEq`).
        message: String,
    },
    /// An underlying graph-substrate error.
    Graph(GraphError),
    /// An underlying GNN-model error.
    Gnn(GnnError),
    /// An underlying hardware-model error.
    Sim(SimError),
}

impl GnneratorError {
    /// Convenience constructor for [`GnneratorError::InvalidConfig`].
    pub fn config(message: impl Into<String>) -> Self {
        GnneratorError::InvalidConfig {
            message: message.into(),
        }
    }

    /// Convenience constructor for [`GnneratorError::InvalidDataflow`].
    pub fn dataflow(message: impl Into<String>) -> Self {
        GnneratorError::InvalidDataflow {
            message: message.into(),
        }
    }

    /// Convenience constructor for [`GnneratorError::Unmappable`].
    pub fn unmappable(message: impl Into<String>) -> Self {
        GnneratorError::Unmappable {
            message: message.into(),
        }
    }

    /// Convenience constructor for [`GnneratorError::Backend`].
    pub fn backend(message: impl Into<String>) -> Self {
        GnneratorError::Backend {
            message: message.into(),
        }
    }
}

impl fmt::Display for GnneratorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GnneratorError::InvalidConfig { message } => {
                write!(f, "invalid accelerator configuration: {message}")
            }
            GnneratorError::InvalidDataflow { message } => {
                write!(f, "invalid dataflow configuration: {message}")
            }
            GnneratorError::Unmappable { message } => {
                write!(
                    f,
                    "workload cannot be mapped onto the accelerator: {message}"
                )
            }
            GnneratorError::Backend { message } => {
                write!(f, "backend evaluation failed: {message}")
            }
            GnneratorError::Graph(e) => write!(f, "graph error: {e}"),
            GnneratorError::Gnn(e) => write!(f, "model error: {e}"),
            GnneratorError::Sim(e) => write!(f, "hardware model error: {e}"),
        }
    }
}

/// Error type for hardware-model configuration problems.
///
/// # Examples
///
/// ```
/// use gnnerator::{GnneratorConfig, GnneratorError, SimError, Simulator};
/// use gnnerator_gnn::NetworkKind;
/// use gnnerator_graph::datasets::DatasetKind;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dataset = DatasetKind::Cora.spec().scaled(0.05).synthesize(1)?;
/// let model = NetworkKind::Gcn.build_paper_config(dataset.spec.feature_dim, 7)?;
/// // A DRAM clocked at 0 GHz is rejected when the timing model is built.
/// let mut config = GnneratorConfig::paper_default();
/// config.dram.core_frequency_ghz = 0.0;
/// let err = Simulator::new(config)?.simulate(&model, &dataset).unwrap_err();
/// assert!(matches!(err, GnneratorError::Sim(SimError::InvalidConfig { .. })));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A hardware parameter was zero, negative or otherwise out of range.
    InvalidConfig {
        /// Name of the offending parameter.
        parameter: &'static str,
        /// Description of the constraint that was violated.
        message: String,
    },
}

impl SimError {
    /// Convenience constructor for [`SimError::InvalidConfig`].
    pub fn invalid(parameter: &'static str, message: impl Into<String>) -> Self {
        SimError::InvalidConfig {
            parameter,
            message: message.into(),
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { parameter, message } => {
                write!(f, "invalid configuration for {parameter}: {message}")
            }
        }
    }
}

impl Error for SimError {}

impl Error for GnneratorError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GnneratorError::Graph(e) => Some(e),
            GnneratorError::Gnn(e) => Some(e),
            GnneratorError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for GnneratorError {
    fn from(e: GraphError) -> Self {
        GnneratorError::Graph(e)
    }
}

impl From<GnnError> for GnneratorError {
    fn from(e: GnnError) -> Self {
        GnneratorError::Gnn(e)
    }
}

impl From<SimError> for GnneratorError {
    fn from(e: SimError) -> Self {
        GnneratorError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(GnneratorError::config("bad")
            .to_string()
            .contains("configuration"));
        assert!(GnneratorError::dataflow("bad")
            .to_string()
            .contains("dataflow"));
        assert!(GnneratorError::unmappable("bad")
            .to_string()
            .contains("mapped"));
        assert!(GnneratorError::backend("bad")
            .to_string()
            .contains("backend"));
    }

    #[test]
    fn conversions_set_sources() {
        let e: GnneratorError = GraphError::invalid("x", "y").into();
        assert!(e.source().is_some());
        let e: GnneratorError = GnnError::invalid("z").into();
        assert!(e.source().is_some());
        let e: GnneratorError = SimError::invalid("p", "q").into();
        assert!(e.source().is_some());
        assert!(GnneratorError::config("m").source().is_none());
    }

    #[test]
    fn display_messages() {
        let e = SimError::invalid("rows", "must be positive");
        assert!(e.to_string().contains("rows"));
        assert!(e.to_string().contains("must be positive"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GnneratorError>();
        assert_send_sync::<SimError>();
    }
}
