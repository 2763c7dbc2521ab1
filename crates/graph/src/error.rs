use std::error::Error;
use std::fmt;

/// Error type for graph construction, sharding and dataset synthesis.
///
/// # Examples
///
/// ```
/// use gnnerator_graph::{EdgeList, CsrGraph};
///
/// let edges = EdgeList::from_pairs(4, &[(0, 9)]);
/// assert!(edges.is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge references a node outside `0..num_nodes`.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// Number of nodes in the graph.
        num_nodes: usize,
    },
    /// A parameter was outside its valid range.
    InvalidParameter {
        /// Name of the parameter.
        name: &'static str,
        /// Description of the constraint that was violated.
        message: String,
    },
    /// A dataset specification describes a graph too degenerate to shard or
    /// simulate (no vertices, no edges, a zero feature dimension, or more
    /// edges than a simple graph can hold).
    DegenerateDataset {
        /// Name of the dataset specification.
        name: String,
        /// Number of vertices in the spec.
        vertices: usize,
        /// Number of edges in the spec.
        edges: usize,
        /// Description of what makes the spec degenerate.
        message: String,
    },
    /// A persistent artifact-cache entry could not be used: the file is
    /// corrupt (bad magic, checksum mismatch, truncated payload), was written
    /// by a different format version, or does not match the requested key.
    ///
    /// Callers treat this as a *miss with a cause*: the artifact is rebuilt
    /// from scratch and the stale file overwritten.
    CacheArtifact {
        /// Path of the offending cache file.
        path: String,
        /// Description of why the artifact was rejected.
        message: String,
    },
    /// An exact-count generator ([`rmat_exact`](crate::generators::rmat_exact))
    /// fell short of the requested edge count: its random top-up ran out of
    /// attempts before it found enough new edges.
    EdgeCountShortfall {
        /// Number of edges requested.
        requested: usize,
        /// Number of distinct edges found.
        generated: usize,
    },
    /// A parallel graph-build worker failed (an injected `graph_build`
    /// fault or a panic). The whole stage's output is discarded; a rerun
    /// rebuilds it from scratch.
    BuildWorker {
        /// What went wrong in the worker.
        message: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, num_nodes } => {
                write!(
                    f,
                    "node {node} out of range for graph with {num_nodes} nodes"
                )
            }
            GraphError::InvalidParameter { name, message } => {
                write!(f, "invalid parameter {name}: {message}")
            }
            GraphError::DegenerateDataset {
                name,
                vertices,
                edges,
                message,
            } => write!(
                f,
                "dataset {name} ({vertices} vertices, {edges} edges) is degenerate: {message}"
            ),
            GraphError::CacheArtifact { path, message } => {
                write!(f, "unusable cache artifact {path}: {message}")
            }
            GraphError::EdgeCountShortfall {
                requested,
                generated,
            } => write!(
                f,
                "generated {generated} of {requested} requested edges before the top-up gave up"
            ),
            GraphError::BuildWorker { message } => {
                write!(f, "graph build worker failed: {message}")
            }
        }
    }
}

impl Error for GraphError {}

impl GraphError {
    /// Convenience constructor for [`GraphError::InvalidParameter`].
    pub fn invalid(name: &'static str, message: impl Into<String>) -> Self {
        GraphError::InvalidParameter {
            name,
            message: message.into(),
        }
    }

    /// Convenience constructor for [`GraphError::CacheArtifact`].
    pub fn cache(path: impl Into<String>, message: impl Into<String>) -> Self {
        GraphError::CacheArtifact {
            path: path.into(),
            message: message.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = GraphError::NodeOutOfRange {
            node: 12,
            num_nodes: 10,
        };
        assert!(e.to_string().contains("12"));
        assert!(e.to_string().contains("10"));

        let e = GraphError::invalid("probability", "must be in [0, 1]");
        assert!(e.to_string().contains("probability"));

        let e = GraphError::cache("/tmp/ds-1.bin", "checksum mismatch");
        assert!(e.to_string().contains("ds-1.bin"));
        assert!(e.to_string().contains("checksum"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }
}
