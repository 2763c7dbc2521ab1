//! In-memory span recorder for the traced run.
//!
//! A span wraps one call from the benchmark into a layer's public function.
//! Spans carry an id, their parent's id (0 for a root), a name and a start
//! and end offset from the tracer's epoch. They stay in memory until the run
//! ends; [`Tracer::write`] then writes them out and [`Tracer::summary_from`]
//! reduces them to per-name totals and self times (a span's duration minus
//! the time its direct children cover).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name reduction of a span list.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len() as u32 + 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        self.spans[id as usize - 1].end_ns = end_ns;
        out
    }

    /// Adds spans recorded elsewhere (a child process whose own clock
    /// started at `origin`), re-parented under the innermost open span and
    /// shifted onto this tracer's clock.
    pub fn graft(&mut self, spans: &[Span], origin: Instant) {
        let offset_ns = origin.saturating_duration_since(self.epoch).as_nanos() as u64;
        let base = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(0);
        for span in spans {
            self.spans.push(Span {
                id: span.id + base,
                parent: if span.parent == 0 {
                    parent
                } else {
                    span.parent + base
                },
                name: span.name,
                start_ns: span.start_ns + offset_ns,
                end_ns: span.end_ns + offset_ns,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals and self times of the spans recorded since `mark`
    /// (an earlier `spans().len()`).
    pub fn summary_from(&self, mark: usize) -> BTreeMap<&'static str, SpanStats> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for span in &self.spans[mark..] {
            child_ns[span.parent as usize] += span.nanos();
        }
        let mut stats: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for span in &self.spans[mark..] {
            let entry = stats.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.nanos();
            entry.self_ns += span.nanos().saturating_sub(child_ns[span.id as usize]);
        }
        stats
    }

    /// Writes the first `cap` spans as one JSON object per line, then one
    /// summary line per span name covering every span recorded.
    pub fn write(&self, path: &Path, cap: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in self.spans.iter().take(cap) {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                span.id, span.parent, span.name, span.start_ns, span.end_ns
            )?;
        }
        for (name, stats) in self.summary_from(0) {
            writeln!(
                out,
                "{{\"summary\": \"{name}\", \"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                stats.count, stats.total_ns, stats.self_ns
            )?;
        }
        out.flush()
    }
}

/// Span names used anywhere in the benchmark; spans received from a child
/// process are mapped back onto these `'static` names.
pub const SPAN_NAMES: &[&str] = &[
    "setup",
    "restart",
    "sweep.run_one",
    "core.evaluate_scenario",
    "core.compile",
    "core.simulate",
    "core.build_session",
    "baselines.estimate",
    "graph.rmat",
    "graph.synthesize",
    "graph.dataset_store",
    "graph.dataset_load",
    "graph.grid_build",
    "graph.grid_load",
    "serve.request",
    "serve.healthz",
    "serve.decode",
    "serve.pool_get",
];

pub fn static_name(name: &str) -> Option<&'static str> {
    SPAN_NAMES.iter().copied().find(|known| *known == name)
}
