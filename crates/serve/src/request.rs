//! Decoding scenario requests into [`ScenarioSpec`]s.
//!
//! A request body is a flat JSON object naming the workload; everything has
//! a sensible default except the dataset:
//!
//! ```json
//! {
//!   "dataset": "cora",            // required: cora | citeseer | pubmed | ogbn-arxiv
//!   "network": "gcn",             // gcn | gsage | gsage-max        (default gcn)
//!   "backend": "gnnerator",       // gnnerator | gpu-roofline | hygcn
//!   "dataflow": "blocked",        // blocked | conventional         (default blocked)
//!   "block_size": 64,             // feature-block size for "blocked"
//!   "scale": 1.0,                 // dataset scale factor in (0, 1]
//!   "seed": 42,                   // synthesis seed
//!   "hidden_dim": 16,             // model hidden dimension
//!   "out_dim": 7,                 // default: the dataset's class count
//!   "hidden_layers": 1
//! }
//! ```
//!
//! The platform configuration is pinned to the paper's Table IV default —
//! serving explores workloads and dataflows, not silicon variants.

use crate::json::Json;
use gnnerator::{BackendKind, DataflowConfig, GnneratorConfig, ScenarioSpec};
use gnnerator_gnn::NetworkKind;
use gnnerator_graph::datasets::DatasetKind;

/// Upper bound on each model dimension (`hidden_dim`, `out_dim`) and the
/// feature-block size, far above anything the paper sweeps (Figure 5 tops
/// out at 1024). It bounds each width, not the weights: two widths at the
/// cap already make a 16 GiB layer, which [`MAX_WEIGHT_ELEMENTS`] refuses.
const MAX_DIM: usize = 65_536;

/// Upper bound on a scenario's dense weight elements, summed over every
/// dense stage (`in_dim * out_dim`): 2^26 `f32`s, 256 MiB. Building a
/// session fills every weight matrix, so this bounds what one request can
/// make the server allocate (a failed allocation aborts the process). The
/// largest point the paper's experiments run, citeseer GraphSAGE-Pool at
/// hidden 1024, holds 22,356,817.
const MAX_WEIGHT_ELEMENTS: u64 = 1 << 26;

/// Upper bound on `hidden_layers` — per-layer state multiplies every other
/// allocation.
const MAX_HIDDEN_LAYERS: usize = 64;

/// Parses one scenario object (already-parsed JSON) into a [`ScenarioSpec`].
///
/// # Errors
///
/// Returns a human-readable message (the server answers 400 with it) for
/// unknown datasets/networks/backends/dataflows, ill-typed fields, or
/// out-of-range values.
pub fn scenario_from_json(json: &Json) -> Result<ScenarioSpec, String> {
    if !matches!(json, Json::Object(_)) {
        return Err("scenario must be a JSON object".to_string());
    }
    let dataset_kind = dataset_kind(
        json.get("dataset")
            .ok_or("missing required field \"dataset\"")?
            .as_str()
            .ok_or("\"dataset\" must be a string")?,
    )?;
    let network = match json.get("network") {
        None => NetworkKind::Gcn,
        Some(v) => network_kind(v.as_str().ok_or("\"network\" must be a string")?)?,
    };
    let backend = match json.get("backend") {
        None => BackendKind::Gnnerator,
        Some(v) => backend_kind(v.as_str().ok_or("\"backend\" must be a string")?)?,
    };
    let scale = match json.get("scale") {
        None => 1.0,
        Some(v) => {
            let scale = v.as_f64().ok_or("\"scale\" must be a number")?;
            if !(scale > 0.0 && scale <= 1.0) {
                return Err(format!("\"scale\" must be in (0, 1], got {scale}"));
            }
            scale
        }
    };
    let seed = u64_field(json, "seed")?.unwrap_or(42);
    let hidden_dim = usize_field(json, "hidden_dim")?.unwrap_or(NetworkKind::PAPER_HIDDEN_DIM);
    let out_dim = usize_field(json, "out_dim")?.unwrap_or_else(|| dataset_kind.num_classes());
    let hidden_layers = usize_field(json, "hidden_layers")?.unwrap_or(1);
    for (name, value, cap) in [
        ("hidden_dim", hidden_dim, MAX_DIM),
        ("out_dim", out_dim, MAX_DIM),
        ("hidden_layers", hidden_layers, MAX_HIDDEN_LAYERS),
    ] {
        if value == 0 || value > cap {
            return Err(format!("{name:?} must be in 1..={cap}, got {value}"));
        }
    }
    let dataflow = dataflow_config(json)?;

    let spec = if (scale - 1.0).abs() < f64::EPSILON {
        dataset_kind.spec()
    } else {
        dataset_kind.spec().scaled(scale)
    };
    let weights =
        |layers| dense_weight_elements(network, spec.feature_dim, hidden_dim, out_dim, layers);
    let elements = weights(hidden_layers);
    if elements > MAX_WEIGHT_ELEMENTS {
        // Blame the layer count if one hidden layer would have fitted, else
        // the wider of the two requested widths.
        let (name, value) = if weights(1) <= MAX_WEIGHT_ELEMENTS {
            ("hidden_layers", hidden_layers)
        } else if out_dim > hidden_dim {
            ("out_dim", out_dim)
        } else {
            ("hidden_dim", hidden_dim)
        };
        return Err(format!(
            "{name:?} {value} makes a {network} model of {elements} dense weight elements \
             (hidden_dim {hidden_dim}, out_dim {out_dim}, hidden_layers {hidden_layers}); \
             at most {MAX_WEIGHT_ELEMENTS} are served"
        ));
    }
    let mut scenario = ScenarioSpec::new(
        network,
        spec,
        seed,
        hidden_dim,
        out_dim,
        GnneratorConfig::paper_default(),
        dataflow,
    );
    scenario.hidden_layers = hidden_layers;
    Ok(scenario.with_backend(backend))
}

/// Dense weight elements of the model [`NetworkKind::build`] makes from
/// these shapes, summed over its dense stages, computed without building it.
fn dense_weight_elements(
    network: NetworkKind,
    input_dim: usize,
    hidden_dim: usize,
    out_dim: usize,
    hidden_layers: usize,
) -> u64 {
    let layer = |d_in: usize, d_out: usize| {
        let (d_in, d_out) = (d_in as u64, d_out as u64);
        match network {
            NetworkKind::Gcn => d_in * d_out,
            NetworkKind::Graphsage => 2 * d_in * d_out,
            // The pooling MLP keeps the width, then the concat feeds `d_out`.
            NetworkKind::GraphsagePool => d_in * d_in + 2 * d_in * d_out,
        }
    };
    layer(input_dim, hidden_dim)
        + (hidden_layers as u64 - 1) * layer(hidden_dim, hidden_dim)
        + layer(hidden_dim, out_dim)
}

fn dataset_kind(name: &str) -> Result<DatasetKind, String> {
    DatasetKind::EXTENDED
        .into_iter()
        .find(|kind| {
            let spec_name = kind.spec().name;
            name.eq_ignore_ascii_case(spec_name) || name.eq_ignore_ascii_case(kind.short_name())
        })
        .ok_or_else(|| {
            format!("unknown dataset {name:?}; expected one of cora, citeseer, pubmed, ogbn-arxiv")
        })
}

fn network_kind(name: &str) -> Result<NetworkKind, String> {
    match name.to_ascii_lowercase().as_str() {
        "gcn" => Ok(NetworkKind::Gcn),
        "gsage" | "graphsage" => Ok(NetworkKind::Graphsage),
        "gsage-max" | "graphsage-pool" | "gsage-pool" => Ok(NetworkKind::GraphsagePool),
        _ => Err(format!(
            "unknown network {name:?}; expected one of gcn, gsage, gsage-max"
        )),
    }
}

fn backend_kind(name: &str) -> Result<BackendKind, String> {
    BackendKind::ALL
        .into_iter()
        .find(|kind| name.eq_ignore_ascii_case(kind.as_str()))
        .ok_or_else(|| {
            format!("unknown backend {name:?}; expected one of gnnerator, gpu-roofline, hygcn")
        })
}

fn dataflow_config(json: &Json) -> Result<DataflowConfig, String> {
    let block_size = usize_field(json, "block_size")?.unwrap_or(64);
    if block_size == 0 || block_size > MAX_DIM {
        return Err(format!(
            "\"block_size\" must be in 1..={MAX_DIM}, got {block_size}"
        ));
    }
    match json.get("dataflow") {
        None => Ok(DataflowConfig::blocked(block_size)),
        Some(v) => match v.as_str().ok_or("\"dataflow\" must be a string")? {
            s if s.eq_ignore_ascii_case("blocked") => Ok(DataflowConfig::blocked(block_size)),
            s if s.eq_ignore_ascii_case("conventional") => Ok(DataflowConfig::conventional()),
            other => Err(format!(
                "unknown dataflow {other:?}; expected \"blocked\" or \"conventional\""
            )),
        },
    }
}

fn u64_field(json: &Json, key: &str) -> Result<Option<u64>, String> {
    match json.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("{key:?} must be a non-negative integer")),
    }
}

fn usize_field(json: &Json, key: &str) -> Result<Option<usize>, String> {
    Ok(u64_field(json, key)?.map(|v| v as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnerator_gnn::Stage;

    fn parse(body: &str) -> Result<ScenarioSpec, String> {
        scenario_from_json(&Json::parse(body).expect("test body parses"))
    }

    #[test]
    fn minimal_request_uses_paper_defaults() {
        let scenario = parse("{\"dataset\": \"cora\"}").unwrap();
        assert_eq!(scenario.backend, BackendKind::Gnnerator);
        assert_eq!(scenario.network, NetworkKind::Gcn);
        assert_eq!(scenario.dataset, DatasetKind::Cora.spec());
        assert_eq!(scenario.seed, 42);
        assert_eq!(scenario.hidden_dim, NetworkKind::PAPER_HIDDEN_DIM);
        assert_eq!(scenario.out_dim, 7, "defaults to the dataset's classes");
        assert_eq!(scenario.hidden_layers, 1);
        assert_eq!(scenario.dataflow, DataflowConfig::blocked(64));
        assert_eq!(scenario.config, GnneratorConfig::paper_default());
    }

    #[test]
    fn full_request_round_trips_every_field() {
        let scenario = parse(
            "{\"dataset\": \"pubmed\", \"network\": \"gsage-max\", \"backend\": \"hygcn\", \
             \"dataflow\": \"conventional\", \"scale\": 0.25, \"seed\": 9, \
             \"hidden_dim\": 32, \"out_dim\": 5, \"hidden_layers\": 2}",
        )
        .unwrap();
        assert_eq!(scenario.backend, BackendKind::Hygcn);
        assert_eq!(scenario.network, NetworkKind::GraphsagePool);
        assert_eq!(scenario.dataset, DatasetKind::Pubmed.spec().scaled(0.25));
        assert_eq!(scenario.seed, 9);
        assert_eq!(scenario.hidden_dim, 32);
        assert_eq!(scenario.out_dim, 5);
        assert_eq!(scenario.hidden_layers, 2);
        assert_eq!(scenario.dataflow, DataflowConfig::conventional());
    }

    #[test]
    fn names_are_case_insensitive_and_aliases_work() {
        assert_eq!(
            parse("{\"dataset\": \"CORA\"}").unwrap().dataset,
            DatasetKind::Cora.spec()
        );
        assert_eq!(
            parse("{\"dataset\": \"arxiv\"}").unwrap().dataset.name,
            "ogbn-arxiv"
        );
        assert_eq!(
            parse("{\"dataset\": \"cora\", \"network\": \"graphsage\"}")
                .unwrap()
                .network,
            NetworkKind::Graphsage
        );
        assert_eq!(
            parse("{\"dataset\": \"cora\", \"backend\": \"GPU-Roofline\"}")
                .unwrap()
                .backend,
            BackendKind::GpuRoofline
        );
    }

    #[test]
    fn block_size_feeds_the_blocked_dataflow() {
        let scenario = parse("{\"dataset\": \"cora\", \"block_size\": 32}").unwrap();
        assert_eq!(scenario.dataflow, DataflowConfig::blocked(32));
    }

    #[test]
    fn bad_requests_name_the_offending_field() {
        let cases = [
            ("{}", "dataset"),
            ("{\"dataset\": 3}", "dataset"),
            ("{\"dataset\": \"mnist\"}", "unknown dataset"),
            (
                "{\"dataset\": \"cora\", \"network\": \"cnn\"}",
                "unknown network",
            ),
            (
                "{\"dataset\": \"cora\", \"backend\": \"tpu\"}",
                "unknown backend",
            ),
            (
                "{\"dataset\": \"cora\", \"dataflow\": \"zigzag\"}",
                "unknown dataflow",
            ),
            ("{\"dataset\": \"cora\", \"scale\": 0}", "scale"),
            ("{\"dataset\": \"cora\", \"scale\": 1.5}", "scale"),
            ("{\"dataset\": \"cora\", \"seed\": -1}", "seed"),
            ("{\"dataset\": \"cora\", \"hidden_dim\": 1.5}", "hidden_dim"),
            ("{\"dataset\": \"cora\", \"hidden_dim\": 0}", "hidden_dim"),
            // Absurd dimensions are refused, not allocated (a 4-billion-wide
            // hidden layer would OOM the server from one request).
            (
                "{\"dataset\": \"cora\", \"hidden_dim\": 4000000000}",
                "hidden_dim",
            ),
            (
                "{\"dataset\": \"cora\", \"out_dim\": 4000000000}",
                "out_dim",
            ),
            (
                "{\"dataset\": \"cora\", \"hidden_layers\": 1000}",
                "hidden_layers",
            ),
            // Widths under the cap whose weights are not: a 65536 x 65536
            // middle layer is 17 GB of f32.
            (
                "{\"dataset\": \"cora\", \"scale\": 0.05, \"hidden_dim\": 65536, \
                 \"hidden_layers\": 2}",
                "\"hidden_dim\" 65536",
            ),
            (
                "{\"dataset\": \"cora\", \"hidden_dim\": 8192, \"hidden_layers\": 64}",
                "\"hidden_layers\" 64",
            ),
            (
                "{\"dataset\": \"citeseer\", \"hidden_dim\": 2048, \"out_dim\": 65536}",
                "\"out_dim\" 65536",
            ),
            (
                "{\"dataset\": \"cora\", \"block_size\": 4000000000}",
                "block_size",
            ),
            ("{\"dataset\": \"cora\", \"block_size\": 0}", "block_size"),
            ("[1]", "object"),
        ];
        for (body, needle) in cases {
            let err = parse(body).unwrap_err();
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }

    #[test]
    fn weight_count_matches_the_built_model() {
        for network in NetworkKind::ALL {
            for (input, hidden, out, layers) in [(5, 3, 2, 1), (7, 4, 9, 3), (1, 1, 1, 1)] {
                let model = network.build(input, hidden, out, layers).unwrap();
                let built: u64 = model
                    .layers()
                    .iter()
                    .flat_map(|layer| layer.stages())
                    .map(|stage| match stage {
                        Stage::Dense {
                            in_dim, out_dim, ..
                        } => (in_dim * out_dim) as u64,
                        Stage::Aggregate { .. } => 0,
                    })
                    .sum();
                assert_eq!(
                    dense_weight_elements(network, input, hidden, out, layers),
                    built,
                    "{network} {input}/{hidden}/{out} x{layers}"
                );
            }
        }
        // The largest point the experiments run, citeseer GraphSAGE-Pool at
        // Figure 5's widest hidden layer, is served.
        assert_eq!(
            dense_weight_elements(NetworkKind::GraphsagePool, 3703, 1024, 6, 1),
            22_356_817
        );
        parse("{\"dataset\": \"citeseer\", \"network\": \"gsage-max\", \"hidden_dim\": 1024}")
            .unwrap();
    }
}
