//! Scoped telemetry recorders.
//!
//! A [`Recorder`] is a cheap, cloneable handle to a set of atomic counters.
//! Recorders form a tree: every note recorded on a scoped recorder also
//! propagates to each of its ancestors, terminating at the process-global
//! root ([`Recorder::global`]). Components accept a recorder at
//! construction (`with_recorder` builders throughout the workspace) and
//! default to the global root, so:
//!
//! * code that never asks for scoping behaves exactly as the old
//!   process-wide statics did,
//! * a caller that *does* scope (one recorder per session, per sweep, per
//!   bench run) reads back counts attributable to that scope alone, while
//!   the global root still sees everything — `/stats` and `/metrics` stay
//!   whole-process views.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// An atomic high-water mark: `note` keeps the maximum ever observed.
#[derive(Debug, Default)]
pub struct MaxGauge(AtomicU64);

impl MaxGauge {
    /// Raises the mark to `n` if `n` exceeds it.
    pub fn note(&self, n: u64) {
        self.0.fetch_max(n, Ordering::Relaxed);
    }

    /// Current high-water mark.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The memory counter set every [`Recorder`] owns: the graph build path's
/// resident-bytes peak.
#[derive(Debug, Default)]
pub struct MemoryCounters {
    /// Peak resident pipeline bytes observed (high-water mark).
    pub peak_resident_bytes: MaxGauge,
}

/// A point-in-time snapshot of a recorder's memory counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryStats {
    /// Peak resident pipeline bytes observed.
    pub peak_resident_bytes: u64,
}

#[derive(Debug)]
struct RecorderInner {
    memory: MemoryCounters,
    parent: Option<Recorder>,
}

/// A cloneable, scoped telemetry sink (see the module docs).
#[derive(Debug, Clone)]
pub struct Recorder {
    inner: Arc<RecorderInner>,
}

impl Default for Recorder {
    /// The default recorder is the process-global root — components that
    /// are never handed a scoped recorder record straight into the
    /// process-wide view.
    fn default() -> Self {
        Recorder::global().clone()
    }
}

impl Recorder {
    /// The process-global root recorder. Everything recorded anywhere in
    /// the process (directly or via parent-chain propagation) is visible
    /// here; `GET /stats` and `GET /metrics` read from it.
    pub fn global() -> &'static Recorder {
        static GLOBAL: OnceLock<Recorder> = OnceLock::new();
        GLOBAL.get_or_init(Recorder::detached)
    }

    /// A root recorder with no parent: counts recorded through it propagate
    /// nowhere. Used for the global root itself and by tests that need
    /// full isolation from the process-wide view.
    pub fn detached() -> Self {
        Recorder {
            inner: Arc::new(RecorderInner {
                memory: MemoryCounters::default(),
                parent: None,
            }),
        }
    }

    /// A new scoped recorder whose parent is the process-global root: reads
    /// back its own counts in isolation while keeping the global view
    /// whole.
    pub fn scoped() -> Self {
        Recorder::global().child()
    }

    /// A new scoped recorder whose parent is `self`.
    pub fn child(&self) -> Self {
        Recorder {
            inner: Arc::new(RecorderInner {
                memory: MemoryCounters::default(),
                parent: Some(self.clone()),
            }),
        }
    }

    /// Whether two handles view the same underlying counters.
    pub fn same_as(&self, other: &Recorder) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// This recorder's own memory counter set (no ancestors).
    pub fn memory(&self) -> &MemoryCounters {
        &self.inner.memory
    }

    /// Applies `f` to this recorder's counters and every ancestor's.
    fn each<F: Fn(&MemoryCounters)>(&self, f: F) {
        let mut node = Some(self);
        while let Some(r) = node {
            f(&r.inner.memory);
            node = r.inner.parent.as_ref();
        }
    }

    /// Records an observed resident-bytes high-water mark for the graph
    /// pipeline (max over all observations, per scope).
    pub fn note_resident_bytes(&self, bytes: u64) {
        self.each(|m| m.peak_resident_bytes.note(bytes));
    }

    /// Snapshots this recorder's memory counters.
    pub fn memory_stats(&self) -> MemoryStats {
        let m = &self.inner.memory;
        MemoryStats {
            peak_resident_bytes: m.peak_resident_bytes.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_counts_propagate_to_ancestors_only() {
        let root = Recorder::detached();
        let a = root.child();
        let b = root.child();
        a.note_resident_bytes(2);
        b.note_resident_bytes(5);
        assert_eq!(a.memory_stats().peak_resident_bytes, 2);
        assert_eq!(
            b.memory_stats().peak_resident_bytes,
            5,
            "siblings are isolated"
        );
        assert_eq!(root.memory_stats().peak_resident_bytes, 5);
    }

    #[test]
    fn resident_gauge_feeds_peak_at_every_level() {
        let root = Recorder::detached();
        let child = root.child();
        child.note_resident_bytes(100);
        child.note_resident_bytes(150);
        child.note_resident_bytes(50);
        assert_eq!(child.memory_stats().peak_resident_bytes, 150);
        assert_eq!(root.memory_stats().peak_resident_bytes, 150);
        root.note_resident_bytes(200);
        assert_eq!(
            child.memory_stats().peak_resident_bytes,
            150,
            "parents do not feed children"
        );
    }

    #[test]
    fn default_recorder_is_the_global_root() {
        let d = Recorder::default();
        assert!(d.same_as(Recorder::global()));
        assert!(!Recorder::detached().same_as(Recorder::global()));
    }
}
