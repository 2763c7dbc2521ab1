//! Memory budgeting for the out-of-core graph pipeline.
//!
//! A [`MemoryBudget`] caps how many bytes the graph path may keep resident
//! while building edge lists: [`EdgeListBuilder`](crate::EdgeListBuilder)
//! spills sealed chunks to disk run-files beyond the cap. The budget is a
//! *pipeline* cap: the finished [`EdgeList`](crate::EdgeList) is still fully
//! materialised — what the budget bounds is the transient working set on top
//! of it (unsorted chunks, merge buffers), which is where the unbudgeted
//! path's peak lives. Shard grids need no budget: the timing path keeps
//! only their [`ShardSummary`](crate::ShardSummary), which holds no edges.
//!
//! The process-wide default comes from the [`MEM_BUDGET_ENV_VAR`]
//! environment variable; an explicit
//! [`EdgeListBuilder::with_memory_budget`](crate::EdgeListBuilder::with_memory_budget)
//! overrides it. The out-of-core telemetry counters (peak resident bytes,
//! spilled chunks) that `BENCH_sweep.json` and the serving `/stats`
//! endpoint report live on
//! [`gnnerator_observe::Recorder`] instances; the free functions in this
//! module are thin compatibility views over the process-global recorder
//! ([`Recorder::global`]). Components that want per-scope counts accept a
//! scoped recorder via their `with_recorder` builders instead.

use gnnerator_observe::Recorder;
use std::fmt;

/// Environment variable holding the process-wide default memory budget.
///
/// Accepted values: a byte count with an optional binary suffix
/// (`67108864`, `64m`, `64mib`, `1g`), or `off`/`none`/`unbounded`/empty
/// for no budget. Unparseable values fall back to unbounded rather than
/// aborting the process.
pub const MEM_BUDGET_ENV_VAR: &str = "GNNERATOR_MEM_BUDGET";

/// A cap on the transient bytes the graph pipeline may keep resident.
///
/// # Examples
///
/// ```
/// use gnnerator_graph::MemoryBudget;
///
/// let unbounded = MemoryBudget::unbounded();
/// assert!(!unbounded.is_bounded());
///
/// let tight = MemoryBudget::bytes(1 << 20);
/// assert_eq!(tight.limit_bytes(), Some(1 << 20));
/// assert!(tight.is_bounded());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MemoryBudget {
    limit: Option<u64>,
}

impl MemoryBudget {
    /// No cap: the pipeline keeps everything in memory (the historical
    /// behaviour). This is the default when [`MEM_BUDGET_ENV_VAR`] is unset.
    pub fn unbounded() -> Self {
        MemoryBudget { limit: None }
    }

    /// Caps resident pipeline bytes at `limit`. A budget of `0` forces the
    /// maximally out-of-core path: every sealed chunk spills.
    pub fn bytes(limit: u64) -> Self {
        MemoryBudget { limit: Some(limit) }
    }

    /// Reads the process-wide default from [`MEM_BUDGET_ENV_VAR`].
    pub fn from_env() -> Self {
        match std::env::var(MEM_BUDGET_ENV_VAR) {
            Ok(value) => Self::parse(&value),
            Err(_) => Self::unbounded(),
        }
    }

    /// Parses a budget string as documented on [`MEM_BUDGET_ENV_VAR`].
    /// Unparseable input yields an unbounded budget.
    pub fn parse(value: &str) -> Self {
        let value = value.trim().to_ascii_lowercase();
        if value.is_empty() || value == "off" || value == "none" || value == "unbounded" {
            return Self::unbounded();
        }
        let digits_end = value
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(value.len());
        let (digits, suffix) = value.split_at(digits_end);
        let multiplier: u64 = match suffix.trim() {
            "" | "b" => 1,
            "k" | "kb" | "kib" => 1 << 10,
            "m" | "mb" | "mib" => 1 << 20,
            "g" | "gb" | "gib" => 1 << 30,
            _ => return Self::unbounded(),
        };
        match digits.parse::<u64>() {
            Ok(n) => Self::bytes(n.saturating_mul(multiplier)),
            Err(_) => Self::unbounded(),
        }
    }

    /// The cap in bytes, or `None` when unbounded.
    pub fn limit_bytes(self) -> Option<u64> {
        self.limit
    }

    /// Whether a cap is in force.
    pub fn is_bounded(self) -> bool {
        self.limit.is_some()
    }

    /// `true` when keeping `resident` bytes plus `additional` more would
    /// exceed the cap. Always `false` for an unbounded budget.
    pub fn would_exceed(self, resident: u64, additional: u64) -> bool {
        match self.limit {
            Some(limit) => resident.saturating_add(additional) > limit,
            None => false,
        }
    }

    /// One of `parts` equal shares of this budget (unbounded stays
    /// unbounded), for builders that run side by side under one cap.
    pub(crate) fn share(self, parts: usize) -> Self {
        MemoryBudget {
            limit: self.limit.map(|limit| limit / parts.max(1) as u64),
        }
    }

    /// A sensible per-stream I/O buffer size under this budget: a bounded
    /// budget split across `streams` concurrent readers/writers, clamped to
    /// `[4 KiB, 1 MiB]`; 64 KiB when unbounded.
    pub fn io_buffer_bytes(self, streams: usize) -> usize {
        match self.limit {
            Some(limit) => {
                let share = limit / streams.max(1) as u64;
                share.clamp(4 << 10, 1 << 20) as usize
            }
            None => 64 << 10,
        }
    }
}

impl fmt::Display for MemoryBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.limit {
            Some(limit) => write!(f, "{limit} bytes"),
            None => f.write_str("unbounded"),
        }
    }
}

// Process-wide out-of-core telemetry: thin compatibility views over the
// global `gnnerator_observe::Recorder`. Counters are monotonic for the
// life of the process; consumers report snapshots or deltas
// (`gnnerator_observe::MemoryStats::delta_since`) rather than resetting.

/// Records an observed resident-bytes high-water mark for the graph
/// pipeline. The process-wide peak is the max over all observations.
pub fn note_resident_bytes(bytes: u64) {
    Recorder::global().note_resident_bytes(bytes);
}

/// Records one sealed chunk spilled to a disk run-file.
pub fn note_spilled_chunks(count: u64) {
    Recorder::global().note_spilled_chunks(count);
}

/// Peak resident pipeline bytes observed so far in this process.
pub fn peak_resident_bytes() -> u64 {
    Recorder::global().memory().peak_resident_bytes.get()
}

/// Total sealed chunks spilled to disk so far in this process.
pub fn spilled_chunk_count() -> u64 {
    Recorder::global().memory().spilled_chunks.get()
}

/// A point-in-time snapshot of the out-of-core telemetry counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryTelemetry {
    /// Peak resident pipeline bytes observed.
    pub peak_resident_bytes: u64,
    /// Sealed chunks spilled to disk run-files.
    pub spilled_chunk_count: u64,
}

/// Snapshots the process-wide out-of-core telemetry counters.
pub fn memory_telemetry() -> MemoryTelemetry {
    MemoryTelemetry::from_stats(&Recorder::global().memory_stats())
}

impl MemoryTelemetry {
    /// The compatibility view of a recorder snapshot.
    pub fn from_stats(stats: &gnnerator_observe::MemoryStats) -> Self {
        MemoryTelemetry {
            peak_resident_bytes: stats.peak_resident_bytes,
            spilled_chunk_count: stats.spilled_chunks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_plain_bytes_and_binary_suffixes() {
        assert_eq!(MemoryBudget::parse("4096").limit_bytes(), Some(4096));
        assert_eq!(MemoryBudget::parse("64k").limit_bytes(), Some(64 << 10));
        assert_eq!(MemoryBudget::parse("64KiB").limit_bytes(), Some(64 << 10));
        assert_eq!(MemoryBudget::parse("3m").limit_bytes(), Some(3 << 20));
        assert_eq!(MemoryBudget::parse("3MB").limit_bytes(), Some(3 << 20));
        assert_eq!(MemoryBudget::parse("2g").limit_bytes(), Some(2 << 30));
        assert_eq!(MemoryBudget::parse(" 128 ").limit_bytes(), Some(128));
        assert_eq!(MemoryBudget::parse("0").limit_bytes(), Some(0));
    }

    #[test]
    fn parse_treats_off_and_garbage_as_unbounded() {
        for s in ["", "off", "OFF", "none", "unbounded", "lots", "12q", "-5"] {
            assert!(!MemoryBudget::parse(s).is_bounded(), "{s:?}");
        }
    }

    #[test]
    fn would_exceed_respects_the_cap() {
        let b = MemoryBudget::bytes(100);
        assert!(!b.would_exceed(40, 60));
        assert!(b.would_exceed(41, 60));
        assert!(b.would_exceed(0, 101));
        assert!(MemoryBudget::bytes(0).would_exceed(0, 1));
        assert!(!MemoryBudget::bytes(0).would_exceed(0, 0));
        assert!(!MemoryBudget::unbounded().would_exceed(u64::MAX, u64::MAX));
    }

    #[test]
    fn io_buffer_bytes_is_clamped() {
        assert_eq!(MemoryBudget::unbounded().io_buffer_bytes(3), 64 << 10);
        assert_eq!(MemoryBudget::bytes(0).io_buffer_bytes(4), 4 << 10);
        assert_eq!(MemoryBudget::bytes(1 << 30).io_buffer_bytes(2), 1 << 20);
        assert_eq!(MemoryBudget::bytes(64 << 10).io_buffer_bytes(4), 16 << 10);
        assert_eq!(MemoryBudget::bytes(1 << 20).io_buffer_bytes(0), 1 << 20);
    }

    #[test]
    fn display_names_the_cap() {
        assert_eq!(MemoryBudget::unbounded().to_string(), "unbounded");
        assert_eq!(MemoryBudget::bytes(64).to_string(), "64 bytes");
    }

    #[test]
    fn peak_resident_is_a_running_max() {
        note_resident_bytes(10);
        let peak = peak_resident_bytes();
        note_resident_bytes(peak.saturating_sub(1));
        assert!(peak_resident_bytes() >= peak);
        note_resident_bytes(peak + 5);
        assert!(peak_resident_bytes() >= peak + 5);
    }

    #[test]
    fn telemetry_snapshot_is_coherent() {
        note_spilled_chunks(2);
        note_resident_bytes(64);
        let t = memory_telemetry();
        assert!(t.spilled_chunk_count >= 2);
        assert!(t.peak_resident_bytes >= 64);
    }
}
