//! A warm, bounded pool of compiled [`SimSession`]s.
//!
//! The serving layer's whole point is that sessions are expensive to warm
//! (shard summaries, and the dataset edges a summary build needs) but
//! immutable and `Arc`-shareable once built. The pool keys sessions by
//! [`ScenarioSpec::session_key`] — the same identity the sweep engine's
//! session cache uses — holds the hottest `capacity` of them in memory (LRU
//! eviction), and shares one dataset handle among the sessions over each
//! `(spec, seed)`. The shard summaries live on that handle, so sessions for
//! different models over one dataset share every summary whose key they
//! derive alike. Handles are opened on the persistent [`ArtifactCache`], so
//! a summary no live session holds loads from disk, and the dataset's edges
//! are read only when a summary must be rebuilt.
//!
//! Concurrent requests for the *same* key serialise on a per-key build slot
//! (no thundering herd: one requester builds, the rest wait and share the
//! `Arc`), while requests for different keys build in parallel.
//!
//! A per-key **circuit breaker** quarantines scenario keys whose cold builds
//! fail repeatedly: after [`BreakerConfig::threshold`] consecutive failures
//! the key is rejected outright with [`PoolError::CircuitOpen`] (callers map
//! it to `503` + `Retry-After`) for an exponentially growing backoff window,
//! so a doomed key cannot burn build capacity or stall well-behaved traffic.
//! After the window one half-open trial build is admitted; success closes
//! the breaker, failure re-opens it with a doubled window.

use gnnerator::{build_session, GnneratorError, ScenarioSpec, SessionKey, SimSession};
use gnnerator_faults::lock_recover;
use gnnerator_graph::datasets::{Dataset, DatasetSpec};
use gnnerator_graph::ArtifactCache;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Why a pool lookup failed.
#[derive(Debug)]
pub enum PoolError {
    /// The session build itself failed (dataset materialisation, model
    /// construction or validation error).
    Build(GnneratorError),
    /// The key's circuit breaker is open: recent consecutive build failures
    /// quarantined it, and the backoff window has not yet elapsed.
    CircuitOpen {
        /// Time remaining until a half-open trial build is admitted.
        retry_after: Duration,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Build(e) => write!(f, "{e}"),
            PoolError::CircuitOpen { retry_after } => write!(
                f,
                "session circuit breaker open after repeated build failures; retry in {:.1}s",
                retry_after.as_secs_f64()
            ),
        }
    }
}

impl std::error::Error for PoolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PoolError::Build(e) => Some(e),
            PoolError::CircuitOpen { .. } => None,
        }
    }
}

impl From<GnneratorError> for PoolError {
    fn from(e: GnneratorError) -> Self {
        PoolError::Build(e)
    }
}

/// Tuning for the per-key build circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive build failures on one key before its breaker opens.
    pub threshold: u32,
    /// Quarantine window after the first trip; doubles on every re-trip.
    pub base_backoff: Duration,
    /// Upper bound on the quarantine window.
    pub max_backoff: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            threshold: 3,
            base_backoff: Duration::from_millis(500),
            max_backoff: Duration::from_secs(30),
        }
    }
}

/// Per-key breaker bookkeeping. Present only for keys with recent failures;
/// removed entirely on a successful build.
#[derive(Debug, Default)]
struct BreakerState {
    /// Build failures since the last success (pre-trip counting).
    consecutive_failures: u32,
    /// Number of times this key's breaker has opened (drives the
    /// exponential backoff).
    opens: u32,
    /// While `Some`, cold builds for the key are rejected until the instant
    /// passes; afterwards one half-open trial is admitted.
    open_until: Option<Instant>,
}

/// One key's circuit-breaker bookkeeping, as surfaced on `/stats` and
/// `/metrics`. A snapshot: `retry_after_seconds` is measured at call time.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerKeyState {
    /// Printable session-key label
    /// (`dataset/seed<seed>/<network>/h<hidden>o<out>l<layers>`).
    pub key: String,
    /// Build failures since the last success.
    pub consecutive_failures: u32,
    /// Times this key's breaker has opened.
    pub opens: u32,
    /// `true` while the quarantine window has not elapsed.
    pub open: bool,
    /// Seconds remaining in the quarantine window (`0` when closed).
    pub retry_after_seconds: f64,
}

/// One pool lookup's outcome: the shared session plus whether it was reused.
#[derive(Debug, Clone)]
pub struct PoolLookup {
    /// The compiled session (shared; cheap to clone).
    pub session: Arc<SimSession>,
    /// `true` when the session was already warm in the pool (or another
    /// in-flight request built it first and this one shared the result).
    pub reused: bool,
}

/// A point-in-time snapshot of the pool's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Sessions currently held.
    pub size: usize,
    /// Maximum sessions held before LRU eviction kicks in.
    pub capacity: usize,
    /// Lookups answered by a warm session.
    pub hits: usize,
    /// Lookups that found no warm session.
    pub misses: usize,
    /// Sessions compiled from scratch (every miss that wasn't absorbed by a
    /// concurrent builder of the same key).
    pub sessions_built: usize,
    /// Sessions dropped to stay within capacity.
    pub evictions: usize,
    /// Dataset edge lists synthesised from scratch (a session materialises
    /// its dataset's edges only to build a shard summary it cannot load).
    pub datasets_synthesized: usize,
    /// Dataset edge lists loaded from the persistent artifact cache.
    pub datasets_loaded: usize,
    /// Times a key's circuit breaker opened (threshold reached or a
    /// half-open trial failed).
    pub breaker_trips: usize,
    /// Lookups rejected because the key's breaker was open.
    pub breaker_rejections: usize,
    /// Keys currently quarantined behind an open breaker.
    pub quarantined_keys: usize,
    /// Corrupt on-disk artifacts quarantined by the backing artifact cache
    /// (zero when the pool has no cache).
    pub corrupt_artifacts: usize,
}

struct PoolEntry {
    /// Per-key build slot: `None` until the first builder publishes.
    slot: Arc<Mutex<Option<Arc<SimSession>>>>,
    /// Recency stamp for LRU eviction (larger = more recently used).
    last_used: u64,
}

struct PoolInner {
    entries: HashMap<SessionKey, PoolEntry>,
    tick: u64,
}

/// The dataset handles pooled sessions share, one per `(spec, seed)`, so
/// sessions over one dataset share one edge load.
#[derive(Default)]
struct PoolDatasets {
    handles: HashMap<(DatasetSpec, u64), Dataset>,
    /// Materialisations counted from handles already dropped from
    /// `handles`: `(loaded, synthesized)`.
    retired: (usize, usize),
}

/// An LRU cache of `Arc<SimSession>` keyed by scenario session identity,
/// backed by the persistent artifact cache.
pub struct SessionPool {
    capacity: usize,
    artifact_cache: Option<Arc<ArtifactCache>>,
    inner: Mutex<PoolInner>,
    breaker_config: BreakerConfig,
    breakers: Mutex<HashMap<SessionKey, BreakerState>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    sessions_built: AtomicUsize,
    evictions: AtomicUsize,
    datasets: Mutex<PoolDatasets>,
    breaker_trips: AtomicUsize,
    breaker_rejections: AtomicUsize,
}

impl SessionPool {
    /// Creates a pool holding at most `capacity` warm sessions (minimum 1),
    /// with cold starts optionally backed by a persistent artifact cache.
    pub fn new(capacity: usize, artifact_cache: Option<Arc<ArtifactCache>>) -> Self {
        Self {
            capacity: capacity.max(1),
            artifact_cache: artifact_cache.filter(|c| c.is_enabled()),
            inner: Mutex::new(PoolInner {
                entries: HashMap::new(),
                tick: 0,
            }),
            breaker_config: BreakerConfig::default(),
            breakers: Mutex::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            sessions_built: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
            datasets: Mutex::new(PoolDatasets::default()),
            breaker_trips: AtomicUsize::new(0),
            breaker_rejections: AtomicUsize::new(0),
        }
    }

    /// Overrides the circuit-breaker tuning (threshold and backoff window).
    #[must_use]
    pub fn with_breaker(mut self, config: BreakerConfig) -> Self {
        self.breaker_config = BreakerConfig {
            threshold: config.threshold.max(1),
            base_backoff: config.base_backoff,
            max_backoff: config.max_backoff.max(config.base_backoff),
        };
        self
    }

    /// Returns the session for `scenario`, building (and pooling) it on
    /// first request. Builds happen outside the pool lock; concurrent
    /// requests for the same key share one build.
    ///
    /// # Errors
    ///
    /// [`PoolError::Build`] propagates dataset-materialisation,
    /// model-construction and session-validation errors (a failed build
    /// leaves no entry behind, so later requests retry cleanly);
    /// [`PoolError::CircuitOpen`] rejects a key quarantined by repeated
    /// build failures without attempting another build.
    pub fn get(&self, scenario: &ScenarioSpec) -> Result<PoolLookup, PoolError> {
        let key = scenario.session_key();
        let slot = self.slot_for(key);
        let mut guard = lock_recover(&slot);
        if let Some(session) = guard.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(PoolLookup {
                session: Arc::clone(session),
                reused: true,
            });
        }
        // Cold path: a quarantined key is rejected before any build work.
        if let Some(retry_after) = self.breaker_rejects(key) {
            self.breaker_rejections.fetch_add(1, Ordering::Relaxed);
            self.detach_empty_slot(key, &slot);
            return Err(PoolError::CircuitOpen { retry_after });
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        match self.build(scenario) {
            Ok(session) => {
                self.sessions_built.fetch_add(1, Ordering::Relaxed);
                lock_recover(&self.breakers).remove(&key);
                *guard = Some(Arc::clone(&session));
                // A racing peer whose build *failed* may have detached this
                // slot from the map while we were building into it; re-attach
                // so the session is actually pooled.
                self.publish(key, &slot);
                // Evict only now that the new entry has proven itself: a
                // request doomed to fail must never cost a warm session.
                self.evict_over_capacity(key);
                Ok(PoolLookup {
                    session,
                    reused: false,
                })
            }
            Err(e) => {
                self.record_build_failure(key);
                // Drop the (still-empty) entry so a doomed key cannot pin
                // pool capacity; racing inserts of a fresh slot are kept.
                self.detach_empty_slot(key, &slot);
                Err(PoolError::Build(e))
            }
        }
    }

    /// Whether `scenario`'s session is already built and pooled. Neither
    /// builds, counts a hit or a miss, nor bumps recency; a slot whose build
    /// is still in flight reads as not built.
    pub fn is_built(&self, scenario: &ScenarioSpec) -> bool {
        let inner = lock_recover(&self.inner);
        inner
            .entries
            .get(&scenario.session_key())
            .is_some_and(|entry| matches!(entry.slot.try_lock().as_deref(), Ok(Some(_))))
    }

    /// If `key`'s breaker is open, returns the time remaining in its
    /// quarantine window. An elapsed window admits the caller as the
    /// half-open trial (its success or failure decides what happens next).
    fn breaker_rejects(&self, key: SessionKey) -> Option<Duration> {
        let breakers = lock_recover(&self.breakers);
        let open_until = breakers.get(&key)?.open_until?;
        open_until.checked_duration_since(Instant::now())
    }

    /// Records a failed cold build: past the consecutive-failure threshold
    /// (or on any failure after a first trip, i.e. a failed half-open
    /// trial) the key's breaker opens with an exponentially growing window.
    fn record_build_failure(&self, key: SessionKey) {
        let config = self.breaker_config;
        let mut breakers = lock_recover(&self.breakers);
        let state = breakers.entry(key).or_default();
        state.consecutive_failures += 1;
        let tripped = state.opens > 0 || state.consecutive_failures >= config.threshold;
        if tripped {
            let backoff = config
                .base_backoff
                .saturating_mul(1u32 << state.opens.min(10))
                .min(config.max_backoff);
            state.open_until = Some(Instant::now() + backoff);
            state.opens = state.opens.saturating_add(1);
            self.breaker_trips.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Removes `key`'s entry if it still maps to this (empty) `slot`, so a
    /// failed or rejected key cannot pin pool capacity; racing inserts of a
    /// fresh slot are kept.
    fn detach_empty_slot(&self, key: SessionKey, slot: &Arc<Mutex<Option<Arc<SimSession>>>>) {
        let mut inner = lock_recover(&self.inner);
        if let Some(entry) = inner.entries.get(&key) {
            if Arc::ptr_eq(&entry.slot, slot) {
                inner.entries.remove(&key);
            }
        }
    }

    /// Returns the build slot for `key`, bumping its recency (and inserting
    /// an empty slot for a fresh key — the pool may transiently exceed
    /// capacity until the build succeeds; see
    /// [`SessionPool::evict_over_capacity`]).
    fn slot_for(&self, key: SessionKey) -> Arc<Mutex<Option<Arc<SimSession>>>> {
        let mut inner = lock_recover(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.entries.get_mut(&key) {
            entry.last_used = tick;
            return Arc::clone(&entry.slot);
        }
        let slot = Arc::new(Mutex::new(None));
        inner.entries.insert(
            key,
            PoolEntry {
                slot: Arc::clone(&slot),
                last_used: tick,
            },
        );
        slot
    }

    /// Ensures `key` maps to an entry after a successful build into `slot`.
    /// Normally a recency bump; if a peer's failed build removed the entry
    /// while this build was in flight, the slot is re-inserted (an entry
    /// installed by a newer lineage is left alone — rare, and that lineage
    /// will publish its own session).
    fn publish(&self, key: SessionKey, slot: &Arc<Mutex<Option<Arc<SimSession>>>>) {
        let mut inner = lock_recover(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(&key) {
            Some(entry) => entry.last_used = tick,
            None => {
                inner.entries.insert(
                    key,
                    PoolEntry {
                        slot: Arc::clone(slot),
                        last_used: tick,
                    },
                );
            }
        }
    }

    /// Evicts least-recently-used *built* entries until the pool is back
    /// within capacity. Entries whose build is still in flight (empty slot,
    /// or slot locked by a builder — `try_lock` keeps the `inner → slot`
    /// lock order deadlock-free) are never victims: evicting them would
    /// discard work another requester is waiting on.
    fn evict_over_capacity(&self, keep: SessionKey) {
        let mut inner = lock_recover(&self.inner);
        while inner.entries.len() > self.capacity {
            let victim = inner
                .entries
                .iter()
                .filter(|(k, _)| **k != keep)
                .filter(|(_, entry)| matches!(entry.slot.try_lock().as_deref(), Ok(Some(_))))
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(k, _)| *k);
            match victim {
                Some(coldest) => {
                    inner.entries.remove(&coldest);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break, // everything else is in flight (or capacity 1)
            }
        }
        drop(inner);
        self.retire_unshared_datasets();
    }

    /// Drops the dataset handles no session holds any more (an evicted
    /// session still serving a request keeps its handle until a later
    /// eviction), counting the edges they materialised, so the pool keeps
    /// no edge list its sessions have let go.
    fn retire_unshared_datasets(&self) {
        let mut datasets = lock_recover(&self.datasets);
        let PoolDatasets { handles, retired } = &mut *datasets;
        handles.retain(|_, dataset| {
            if dataset.handles() > 1 {
                return true;
            }
            match dataset.provenance() {
                Some(p) if p.loaded_from_cache => retired.0 += 1,
                Some(_) => retired.1 += 1,
                None => {}
            }
            false
        });
    }

    /// The shared handle on `scenario`'s dataset: validates the spec, opens
    /// no file.
    fn dataset(&self, scenario: &ScenarioSpec) -> Result<Dataset, GnneratorError> {
        let key = (scenario.dataset, scenario.seed);
        let mut datasets = lock_recover(&self.datasets);
        if let Some(hit) = datasets.handles.get(&key) {
            return Ok(hit.clone());
        }
        let dataset = Dataset::open(key.0, key.1, self.artifact_cache.clone())?;
        datasets.handles.insert(key, dataset.clone());
        Ok(dataset)
    }

    /// Builds a session through the same dataset handle and session path
    /// the sweep engine uses, so pooled sessions are bit-identical to sweep
    /// sessions.
    fn build(&self, scenario: &ScenarioSpec) -> Result<Arc<SimSession>, GnneratorError> {
        let dataset = self.dataset(scenario)?;
        Ok(Arc::new(build_session(scenario, &dataset, None)?))
    }

    /// A snapshot of every key with live breaker bookkeeping (keys recover
    /// fully on a successful build and drop out of this list), sorted by
    /// label for stable output on `/stats` and `/metrics`.
    pub fn breaker_states(&self) -> Vec<BreakerKeyState> {
        let now = Instant::now();
        let mut states: Vec<BreakerKeyState> = lock_recover(&self.breakers)
            .iter()
            .map(|(key, state)| {
                let remaining = state
                    .open_until
                    .and_then(|until| until.checked_duration_since(now))
                    .unwrap_or(Duration::ZERO);
                BreakerKeyState {
                    key: Self::key_label(key),
                    consecutive_failures: state.consecutive_failures,
                    opens: state.opens,
                    open: remaining > Duration::ZERO,
                    retry_after_seconds: remaining.as_secs_f64(),
                }
            })
            .collect();
        states.sort_by(|a, b| a.key.cmp(&b.key));
        states
    }

    /// Renders a session key as a compact, stable label for metric output.
    pub(crate) fn key_label(key: &SessionKey) -> String {
        let (dataset, seed, network, hidden_dim, out_dim, hidden_layers) = key;
        format!(
            "{}/seed{}/{}/h{}o{}l{}",
            dataset.name,
            seed,
            network.short_name(),
            hidden_dim,
            out_dim,
            hidden_layers
        )
    }

    /// A consistent snapshot of the pool's counters.
    pub fn stats(&self) -> PoolStats {
        let size = lock_recover(&self.inner).entries.len();
        let now = Instant::now();
        let quarantined_keys = lock_recover(&self.breakers)
            .values()
            .filter(|state| state.open_until.is_some_and(|until| until > now))
            .count();
        let (datasets_loaded, datasets_synthesized) = {
            let datasets = lock_recover(&self.datasets);
            let (mut loaded, mut synthesized) = datasets.retired;
            for provenance in datasets.handles.values().filter_map(Dataset::provenance) {
                if provenance.loaded_from_cache {
                    loaded += 1;
                } else {
                    synthesized += 1;
                }
            }
            (loaded, synthesized)
        };
        PoolStats {
            size,
            capacity: self.capacity,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            sessions_built: self.sessions_built.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            datasets_synthesized,
            datasets_loaded,
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            breaker_rejections: self.breaker_rejections.load(Ordering::Relaxed),
            quarantined_keys,
            corrupt_artifacts: self
                .artifact_cache
                .as_ref()
                .map_or(0, |cache| cache.corrupt_artifacts()),
        }
    }
}

impl std::fmt::Debug for SessionPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        write!(
            f,
            "SessionPool {{ size: {}/{}, hits: {}, misses: {} }}",
            stats.size, stats.capacity, stats.hits, stats.misses
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnerator::{evaluate_scenario, BackendKind, DataflowConfig, GnneratorConfig};
    use gnnerator_gnn::NetworkKind;
    use gnnerator_graph::datasets::DatasetKind;

    fn scenario(kind: DatasetKind, seed: u64) -> ScenarioSpec {
        ScenarioSpec::new(
            NetworkKind::Gcn,
            kind.spec().scaled(0.03),
            seed,
            8,
            4,
            GnneratorConfig::paper_default(),
            DataflowConfig::paper_default(),
        )
    }

    #[test]
    fn repeated_lookups_reuse_one_session() {
        let pool = SessionPool::new(4, None);
        let first = pool.get(&scenario(DatasetKind::Cora, 1)).unwrap();
        assert!(!first.reused);
        for _ in 0..3 {
            let hit = pool.get(&scenario(DatasetKind::Cora, 1)).unwrap();
            assert!(hit.reused);
            assert!(Arc::ptr_eq(&hit.session, &first.session));
        }
        let stats = pool.stats();
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.sessions_built, 1, "zero rebuilds after the first");
        assert_eq!(stats.size, 1);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn is_built_reports_pooled_sessions_without_counting_or_building() {
        let pool = SessionPool::new(4, None);
        let cora = scenario(DatasetKind::Cora, 1);
        assert!(!pool.is_built(&cora), "nothing built yet");
        assert_eq!(pool.stats().sessions_built, 0, "the check never builds");
        pool.get(&cora).unwrap();
        assert!(pool.is_built(&cora));
        assert!(!pool.is_built(&scenario(DatasetKind::Cora, 2)));
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses), (0, 1), "checks are not lookups");
    }

    #[test]
    fn backend_variants_share_the_session() {
        // Accelerator and baseline points over one workload have the same
        // session key, exactly like the sweep engine's cache.
        let pool = SessionPool::new(4, None);
        let base = scenario(DatasetKind::Cora, 1);
        let a = pool.get(&base).unwrap();
        let b = pool
            .get(&base.clone().with_backend(BackendKind::Hygcn))
            .unwrap();
        assert!(b.reused);
        assert!(Arc::ptr_eq(&a.session, &b.session));
    }

    #[test]
    fn lru_eviction_keeps_the_hottest_sessions() {
        let pool = SessionPool::new(2, None);
        let cora = scenario(DatasetKind::Cora, 1);
        let citeseer = scenario(DatasetKind::Citeseer, 2);
        let pubmed = scenario(DatasetKind::Pubmed, 3);
        pool.get(&cora).unwrap();
        pool.get(&citeseer).unwrap();
        pool.get(&cora).unwrap(); // cora is now hotter than citeseer
        pool.get(&pubmed).unwrap(); // evicts citeseer
        let stats = pool.stats();
        assert_eq!(stats.size, 2);
        assert_eq!(stats.evictions, 1);
        assert!(pool.get(&cora).unwrap().reused, "hot entry survived");
        assert!(
            !pool.get(&citeseer).unwrap().reused,
            "cold entry was evicted and rebuilds"
        );
    }

    #[test]
    fn capacity_is_at_least_one() {
        let pool = SessionPool::new(0, None);
        let looked_up = pool.get(&scenario(DatasetKind::Cora, 1)).unwrap();
        assert!(!looked_up.reused);
        assert!(pool.get(&scenario(DatasetKind::Cora, 1)).unwrap().reused);
        assert_eq!(pool.stats().capacity, 1);
    }

    #[test]
    fn failed_builds_leave_no_entry_behind() {
        let pool = SessionPool::new(4, None);
        let mut degenerate = scenario(DatasetKind::Cora, 1);
        degenerate.dataset.edges = 0;
        assert!(pool.get(&degenerate).is_err());
        let stats = pool.stats();
        assert_eq!(stats.size, 0, "doomed keys must not pin capacity");
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.sessions_built, 0);
        // And the error repeats deterministically on retry.
        assert!(pool.get(&degenerate).is_err());
    }

    #[test]
    fn failed_builds_do_not_evict_warm_sessions() {
        // A full pool serving real traffic must not lose warm sessions to
        // requests that were never going to produce one.
        let pool = SessionPool::new(1, None);
        pool.get(&scenario(DatasetKind::Cora, 1)).unwrap();
        for seed in 0..4 {
            let mut degenerate = scenario(DatasetKind::Citeseer, seed);
            degenerate.dataset.edges = 0;
            assert!(pool.get(&degenerate).is_err());
        }
        let stats = pool.stats();
        assert_eq!(stats.evictions, 0, "doomed keys must not cost capacity");
        assert_eq!(stats.size, 1);
        assert!(
            pool.get(&scenario(DatasetKind::Cora, 1)).unwrap().reused,
            "the warm session survived the failing traffic"
        );
    }

    #[test]
    fn repeated_failures_trip_the_breaker_and_backoff_reopens_it() {
        let pool = SessionPool::new(4, None).with_breaker(BreakerConfig {
            threshold: 2,
            base_backoff: Duration::from_millis(40),
            max_backoff: Duration::from_secs(1),
        });
        let mut degenerate = scenario(DatasetKind::Cora, 9);
        degenerate.dataset.edges = 0;

        // Failures below the threshold still attempt the build.
        assert!(matches!(pool.get(&degenerate), Err(PoolError::Build(_))));
        // The second failure reaches the threshold and opens the breaker.
        assert!(matches!(pool.get(&degenerate), Err(PoolError::Build(_))));
        // While open, lookups are rejected without building.
        let rejected = pool.get(&degenerate);
        assert!(matches!(rejected, Err(PoolError::CircuitOpen { .. })));
        if let Err(PoolError::CircuitOpen { retry_after }) = rejected {
            assert!(retry_after <= Duration::from_millis(40));
        }
        let stats = pool.stats();
        assert_eq!(stats.breaker_trips, 1);
        assert_eq!(stats.breaker_rejections, 1);
        assert_eq!(stats.quarantined_keys, 1);
        assert_eq!(stats.misses, 2, "the rejected lookup never built");
        assert_eq!(stats.size, 0, "quarantined keys do not pin capacity");
        let states = pool.breaker_states();
        assert_eq!(states.len(), 1);
        assert!(states[0].open, "the quarantined key reports open");
        assert_eq!(states[0].opens, 1);
        assert!(states[0].retry_after_seconds > 0.0);
        assert!(
            states[0].key.starts_with("cora/seed9/"),
            "printable key label: {}",
            states[0].key
        );

        // After the window, a half-open trial is admitted; its failure
        // re-opens the breaker immediately with a doubled window.
        std::thread::sleep(Duration::from_millis(50));
        assert!(matches!(pool.get(&degenerate), Err(PoolError::Build(_))));
        assert!(matches!(
            pool.get(&degenerate),
            Err(PoolError::CircuitOpen { .. })
        ));
        assert_eq!(pool.stats().breaker_trips, 2);

        // Other keys are unaffected throughout.
        assert!(pool.get(&scenario(DatasetKind::Cora, 1)).is_ok());
    }

    #[test]
    fn concurrent_same_key_requests_share_one_build() {
        let pool = Arc::new(SessionPool::new(4, None));
        let sessions: Vec<Arc<SimSession>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let pool = Arc::clone(&pool);
                    scope.spawn(move || pool.get(&scenario(DatasetKind::Cora, 1)).unwrap().session)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for pair in sessions.windows(2) {
            assert!(Arc::ptr_eq(&pair[0], &pair[1]));
        }
        let stats = pool.stats();
        assert_eq!(stats.sessions_built, 1, "one build, many sharers");
        assert_eq!(stats.hits + stats.misses, 8);
        assert!(stats.hits >= 7, "waiters count as reuse");
    }

    #[test]
    fn artifact_cache_backs_cold_starts() {
        let dir = std::env::temp_dir().join(format!("gnnerator-pool-cache-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cache = Arc::new(ArtifactCache::new(&dir));
        let spec = scenario(DatasetKind::Cora, 5);

        let cold = SessionPool::new(2, Some(Arc::clone(&cache)));
        let cold_lookup = cold.get(&spec).unwrap();
        assert_eq!(
            cold.stats().datasets_synthesized,
            0,
            "a build reads no edge"
        );
        let reference = evaluate_scenario(&spec, &cold_lookup.session).unwrap();
        assert_eq!(cold.stats().datasets_synthesized, 1);
        assert_eq!(cold.stats().datasets_loaded, 0);

        // A fresh pool over the same artifact directory loads every shard
        // summary from disk, so it never needs the dataset's edges.
        let warm = SessionPool::new(2, Some(cache));
        let warm_lookup = warm.get(&spec).unwrap();
        assert!(!warm_lookup.reused, "fresh pool, so the *pool* missed");
        assert_eq!(
            evaluate_scenario(&spec, &warm_lookup.session).unwrap(),
            reference
        );
        assert_eq!(warm_lookup.session.dataset().grids_built(), 0);
        assert_eq!(warm.stats().datasets_synthesized, 0);
        assert_eq!(warm.stats().datasets_loaded, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn two_networks_over_one_dataset_share_its_summaries() {
        let pool = SessionPool::new(4, None);
        let gcn = scenario(DatasetKind::Cora, 1);
        let mut sage = gcn.clone();
        sage.network = NetworkKind::Graphsage;
        let config = GnneratorConfig::paper_default();
        let dataflow = DataflowConfig::paper_default();

        let first = pool.get(&gcn).unwrap().session;
        let first_program = first.compile(&config, dataflow).unwrap();
        let dataset = first.dataset();
        let counts = (dataset.grids_built(), dataset.grids_loaded());
        assert!(counts.0 > 0);

        let second = pool.get(&sage).unwrap().session;
        assert!(!Arc::ptr_eq(&first, &second), "two sessions");
        let second_program = second.compile(&config, dataflow).unwrap();
        assert_eq!(
            (dataset.grids_built(), dataset.grids_loaded()),
            counts,
            "the second model's first compile loads and builds nothing"
        );
        let (a, b) = (first_program.program(), second_program.program());
        assert_eq!(a.num_layers(), b.num_layers());
        for (a, b) in a.layers.iter().zip(&b.layers) {
            assert!(Arc::ptr_eq(&a.grid, &b.grid), "layer {}", a.layer_index);
        }
    }

    #[test]
    fn sessions_share_a_dataset_and_eviction_keeps_its_count() {
        let pool = SessionPool::new(1, None);
        let gcn = scenario(DatasetKind::Cora, 1);
        let mut sage = gcn.clone();
        sage.network = NetworkKind::Graphsage;
        for point in [&gcn, &sage] {
            let lookup = pool.get(point).unwrap();
            evaluate_scenario(point, &lookup.session).unwrap();
        }
        // Two sessions, one dataset: one synthesis, and the evicted GCN
        // session's handle stays while the GraphSAGE session holds it.
        assert_eq!(pool.stats().evictions, 1);
        assert_eq!(pool.stats().datasets_synthesized, 1);

        // Evicting the last session over Cora drops its handle (and edges)
        // but not its count.
        let other = scenario(DatasetKind::Citeseer, 1);
        let lookup = pool.get(&other).unwrap();
        evaluate_scenario(&other, &lookup.session).unwrap();
        assert_eq!(pool.stats().evictions, 2);
        assert_eq!(pool.stats().datasets_synthesized, 2);
        assert_eq!(lock_recover(&pool.datasets).handles.len(), 1);
    }
}
