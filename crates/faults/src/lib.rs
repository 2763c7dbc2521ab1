//! Deterministic fault injection and poison-proof locking primitives.
//!
//! The stack is only trustworthy under failure if failure can be produced on
//! demand, reproducibly. This crate provides:
//!
//! * a process-wide [`FailPoint`] registry, configured from a compact spec
//!   string (env var `GNNERATOR_FAULTS`, e.g.
//!   `cache_write:io@0.1,eval:panic@3,session_build:delay=200ms`) or
//!   programmatically via [`configure`] / [`clear`]. Call sites name a
//!   failpoint with [`check`]; when armed it injects a typed error, a panic,
//!   or a delay. Triggering is **seeded-deterministic**: every failpoint
//!   keeps an atomic hit counter and decides from
//!   `hash(seed, name, hit_number)` alone, so the set of tripped hits is
//!   identical run-to-run regardless of thread schedule;
//! * poison-recovering lock helpers ([`lock_recover`], [`wait_recover`]) so
//!   a panic on one thread (injected or real) can never wedge every other
//!   thread behind a poisoned mutex.
//!
//! The disabled fast path is a single relaxed atomic load — leaving the
//! failpoints compiled in costs nothing measurable in production builds.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// Environment variable holding the failpoint spec string.
pub const FAULTS_ENV_VAR: &str = "GNNERATOR_FAULTS";

/// Environment variable holding the deterministic trigger seed.
pub const FAULTS_SEED_ENV_VAR: &str = "GNNERATOR_FAULTS_SEED";

/// What an armed failpoint does when it trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Surface an injected I/O-shaped error (`Err` at the call site).
    Io,
    /// Surface an injected logical error (`Err` at the call site).
    Error,
    /// Panic on the calling thread.
    Panic,
    /// Sleep for the given duration, then continue normally.
    Delay(Duration),
}

/// When an armed failpoint trips, relative to its per-point hit counter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Trip on every hit.
    Always,
    /// Trip whenever `hash(seed, name, hit_number)` falls below this
    /// fraction — a deterministic stand-in for "with probability p".
    Probability(f64),
    /// Trip on every `n`-th hit (hits `n`, `2n`, `3n`, …).
    EveryNth(u64),
}

/// One named fault-injection point.
#[derive(Debug, Clone, PartialEq)]
pub struct FailPoint {
    /// The call-site name (`cache_write`, `eval`, `session_build`, …).
    pub name: String,
    /// What happens when the point trips.
    pub kind: FaultKind,
    /// When the point trips.
    pub trigger: Trigger,
}

/// The error injected by an [`FaultKind::Io`] / [`FaultKind::Error`] trip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError {
    /// Name of the failpoint that tripped.
    pub point: String,
    /// Whether the fault was declared `io` (call sites may wrap it in their
    /// native I/O error type) or a plain logical `error`.
    pub io: bool,
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault at failpoint `{}`", self.point)
    }
}

impl std::error::Error for FaultError {}

/// Hit/trip counters for one failpoint, as reported by [`stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPointStats {
    /// Failpoint name.
    pub name: String,
    /// Times a call site evaluated the point.
    pub hits: u64,
    /// Times the point actually tripped.
    pub trips: u64,
}

struct PointState {
    point: FailPoint,
    hits: AtomicU64,
    trips: AtomicU64,
}

struct Registry {
    seed: u64,
    points: HashMap<String, PointState>,
}

/// Fast-path flag: true iff the registry holds at least one failpoint.
static ACTIVE: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<Option<Registry>> {
    static REGISTRY: OnceLock<Mutex<Option<Registry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(None))
}

/// FNV-1a 64-bit over the trigger identity `(seed, name, hit_number)`.
fn trigger_hash(seed: u64, name: &str, hit: u64) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    seed.to_le_bytes().into_iter().for_each(&mut mix);
    name.bytes().for_each(&mut mix);
    hit.to_le_bytes().into_iter().for_each(&mut mix);
    hash
}

/// Parses a duration literal: `200ms`, `2s`, or a bare millisecond count.
fn parse_duration(text: &str) -> Result<Duration, String> {
    let (digits, unit) = match text.strip_suffix("ms") {
        Some(d) => (d, 1u64),
        None => match text.strip_suffix('s') {
            Some(d) => (d, 1000),
            None => (text, 1),
        },
    };
    digits
        .parse::<u64>()
        .map(|n| Duration::from_millis(n * unit))
        .map_err(|_| format!("bad duration {text:?} (want e.g. 200ms or 2s)"))
}

/// Parses one `name:kind[@trigger]` item.
fn parse_point(item: &str) -> Result<FailPoint, String> {
    let (name, rest) = item
        .split_once(':')
        .ok_or_else(|| format!("bad failpoint {item:?} (want name:kind[@trigger])"))?;
    if name.is_empty() {
        return Err(format!("bad failpoint {item:?}: empty name"));
    }
    let (kind_text, trigger_text) = match rest.split_once('@') {
        Some((k, t)) => (k, Some(t)),
        None => (rest, None),
    };
    let kind = match kind_text {
        "io" => FaultKind::Io,
        "error" | "err" => FaultKind::Error,
        "panic" => FaultKind::Panic,
        _ => match kind_text.strip_prefix("delay=") {
            Some(duration) => FaultKind::Delay(parse_duration(duration)?),
            None => {
                return Err(format!(
                    "bad fault kind {kind_text:?} (want io, error, panic or delay=<duration>)"
                ))
            }
        },
    };
    let trigger = match trigger_text {
        None => Trigger::Always,
        Some(t) => {
            if let Ok(n) = t.parse::<u64>() {
                if n == 0 {
                    return Err(format!("bad trigger {t:?}: every-nth must be >= 1"));
                }
                Trigger::EveryNth(n)
            } else if let Ok(p) = t.parse::<f64>() {
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("bad trigger {t:?}: probability must be in [0, 1]"));
                }
                Trigger::Probability(p)
            } else {
                return Err(format!(
                    "bad trigger {t:?} (want a probability like 0.1 or a count like 3)"
                ));
            }
        }
    };
    Ok(FailPoint {
        name: name.to_string(),
        kind,
        trigger,
    })
}

/// Parses a full comma-separated failpoint spec string.
///
/// # Errors
///
/// Returns a human-readable message naming the malformed item.
pub fn parse_spec(spec: &str) -> Result<Vec<FailPoint>, String> {
    spec.split(',')
        .map(str::trim)
        .filter(|item| !item.is_empty())
        .map(parse_point)
        .collect()
}

/// Installs `points` as the process-wide fault configuration (replacing any
/// previous configuration) with the given deterministic trigger seed.
pub fn configure_points(points: Vec<FailPoint>, seed: u64) {
    let map = points
        .into_iter()
        .map(|point| {
            (
                point.name.clone(),
                PointState {
                    point,
                    hits: AtomicU64::new(0),
                    trips: AtomicU64::new(0),
                },
            )
        })
        .collect::<HashMap<_, _>>();
    let mut guard = lock_recover(registry());
    ACTIVE.store(!map.is_empty(), Ordering::Release);
    *guard = Some(Registry { seed, points: map });
}

/// Parses `spec` and installs it as the process-wide fault configuration.
///
/// # Errors
///
/// Returns the parse error without touching the current configuration.
pub fn configure(spec: &str, seed: u64) -> Result<(), String> {
    let points = parse_spec(spec)?;
    configure_points(points, seed);
    Ok(())
}

/// Removes every failpoint; subsequent [`check`] calls are no-ops.
pub fn clear() {
    let mut guard = lock_recover(registry());
    ACTIVE.store(false, Ordering::Release);
    *guard = None;
}

/// Configures the registry from `GNNERATOR_FAULTS` /
/// `GNNERATOR_FAULTS_SEED`, returning whether any failpoints were armed.
///
/// # Errors
///
/// Returns a parse error for a malformed spec or seed.
pub fn init_from_env() -> Result<bool, String> {
    let Ok(spec) = std::env::var(FAULTS_ENV_VAR) else {
        return Ok(false);
    };
    if spec.trim().is_empty() {
        return Ok(false);
    }
    let seed = match std::env::var(FAULTS_SEED_ENV_VAR) {
        Ok(raw) => raw
            .trim()
            .parse::<u64>()
            .map_err(|_| format!("bad {FAULTS_SEED_ENV_VAR} {raw:?} (want a u64)"))?,
        Err(_) => 0,
    };
    configure(&spec, seed)?;
    Ok(active())
}

/// Whether any failpoint is currently armed (single relaxed atomic load).
pub fn active() -> bool {
    ACTIVE.load(Ordering::Acquire)
}

/// Evaluates failpoint `name`.
///
/// When the registry is empty (the normal case) this is a single atomic
/// load. When `name` is armed and trips, the configured fault happens here:
/// a [`FaultKind::Delay`] sleeps then returns `Ok`, a [`FaultKind::Panic`]
/// panics on this thread, and [`FaultKind::Io`] / [`FaultKind::Error`]
/// return the injected error for the call site to surface through its own
/// error type.
///
/// # Errors
///
/// Returns [`FaultError`] iff an armed `io`/`error` fault trips.
///
/// # Panics
///
/// Panics iff an armed `panic` fault trips (that is its job).
pub fn check(name: &str) -> Result<(), FaultError> {
    if !active() {
        return Ok(());
    }
    let action = {
        let guard = lock_recover(registry());
        let Some(registry) = guard.as_ref() else {
            return Ok(());
        };
        let Some(state) = registry.points.get(name) else {
            return Ok(());
        };
        let hit = state.hits.fetch_add(1, Ordering::Relaxed) + 1;
        let tripped = match state.point.trigger {
            Trigger::Always => true,
            Trigger::EveryNth(n) => hit % n == 0,
            Trigger::Probability(p) => {
                (trigger_hash(registry.seed, name, hit) as f64) < p * (u64::MAX as f64)
            }
        };
        if !tripped {
            return Ok(());
        }
        state.trips.fetch_add(1, Ordering::Relaxed);
        state.point.kind
    };
    match action {
        FaultKind::Delay(duration) => {
            std::thread::sleep(duration);
            Ok(())
        }
        FaultKind::Panic => panic!("injected panic at failpoint `{name}`"),
        FaultKind::Io => Err(FaultError {
            point: name.to_string(),
            io: true,
        }),
        FaultKind::Error => Err(FaultError {
            point: name.to_string(),
            io: false,
        }),
    }
}

/// Hit/trip counters for every configured failpoint, sorted by name.
pub fn stats() -> Vec<FaultPointStats> {
    let guard = lock_recover(registry());
    let Some(registry) = guard.as_ref() else {
        return Vec::new();
    };
    let mut rows: Vec<FaultPointStats> = registry
        .points
        .values()
        .map(|state| FaultPointStats {
            name: state.point.name.clone(),
            hits: state.hits.load(Ordering::Relaxed),
            trips: state.trips.load(Ordering::Relaxed),
        })
        .collect();
    rows.sort_by(|a, b| a.name.cmp(&b.name));
    rows
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Io => f.write_str("io"),
            FaultKind::Error => f.write_str("error"),
            FaultKind::Panic => f.write_str("panic"),
            FaultKind::Delay(d) => write!(f, "delay={}ms", d.as_millis()),
        }
    }
}

impl fmt::Display for Trigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trigger::Always => Ok(()),
            Trigger::Probability(p) => write!(f, "@{p}"),
            Trigger::EveryNth(n) => write!(f, "@{n}"),
        }
    }
}

impl fmt::Display for FailPoint {
    /// Renders the point back to its `name:kind[@trigger]` spec syntax.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}{}", self.name, self.kind, self.trigger)
    }
}

/// The armed fault configuration rendered back to spec syntax
/// (`name:kind[@trigger]`, comma-separated, name-sorted), or `None` when no
/// failpoints are armed. This is what `/stats` and `/metrics` surface so an
/// operator can see exactly which chaos spec a serving process is running
/// under.
pub fn armed_spec() -> Option<String> {
    let guard = lock_recover(registry());
    let registry = guard.as_ref()?;
    if registry.points.is_empty() {
        return None;
    }
    let mut rendered: Vec<String> = registry
        .points
        .values()
        .map(|state| state.point.to_string())
        .collect();
    rendered.sort();
    Some(rendered.join(","))
}

/// Locks a mutex, recovering the guard if a previous holder panicked.
///
/// Mutex poisoning exists to warn about *possibly* inconsistent protected
/// state; every structure in this workspace keeps its invariants on panic
/// paths (counters, maps of `Arc`s, queues of owned jobs), so the right
/// response is to keep serving rather than wedge every later caller.
pub fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] that recovers from poisoning instead of panicking.
pub fn wait_recover<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises tests that touch the process-global registry.
    fn global_guard() -> MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        lock_recover(&GUARD)
    }

    #[test]
    fn spec_parsing_round_trips_the_documented_syntax() {
        let points =
            parse_spec("cache_write:io@0.1, eval:panic@3,session_build:delay=200ms").unwrap();
        assert_eq!(
            points,
            vec![
                FailPoint {
                    name: "cache_write".into(),
                    kind: FaultKind::Io,
                    trigger: Trigger::Probability(0.1),
                },
                FailPoint {
                    name: "eval".into(),
                    kind: FaultKind::Panic,
                    trigger: Trigger::EveryNth(3),
                },
                FailPoint {
                    name: "session_build".into(),
                    kind: FaultKind::Delay(Duration::from_millis(200)),
                    trigger: Trigger::Always,
                },
            ]
        );
        assert_eq!(
            parse_spec("x:delay=2s@0.5").unwrap()[0].kind,
            FaultKind::Delay(Duration::from_secs(2))
        );
        assert_eq!(parse_spec("x:error").unwrap()[0].kind, FaultKind::Error);
        assert_eq!(parse_spec("").unwrap(), Vec::new());
    }

    #[test]
    fn malformed_specs_are_rejected_with_context() {
        for bad in [
            "noseparator",
            "x:frobnicate",
            "x:io@-1",
            "x:io@1.5",
            "x:io@zero",
            "x:io@0",
            "x:delay=fast",
            ":io",
        ] {
            let err = parse_spec(bad).unwrap_err();
            assert!(err.contains("bad"), "spec {bad:?} gave error {err:?}");
        }
    }

    #[test]
    fn every_nth_trigger_trips_on_exact_multiples() {
        let _guard = global_guard();
        configure("nth_point:error@3", 0).unwrap();
        let outcomes: Vec<bool> = (1..=9).map(|_| check("nth_point").is_err()).collect();
        assert_eq!(
            outcomes,
            vec![false, false, true, false, false, true, false, false, true]
        );
        let s = stats();
        assert_eq!(s.len(), 1);
        assert_eq!((s[0].hits, s[0].trips), (9, 3));
        clear();
        assert!(check("nth_point").is_ok());
        assert!(stats().is_empty());
    }

    #[test]
    fn probability_trigger_is_seed_deterministic() {
        let _guard = global_guard();
        let run = |seed: u64| -> Vec<bool> {
            configure("p_point:io@0.3", seed).unwrap();
            (0..64).map(|_| check("p_point").is_err()).collect()
        };
        let first = run(7);
        let second = run(7);
        assert_eq!(first, second, "same seed must trip the same hit numbers");
        let other = run(8);
        assert_ne!(first, other, "a different seed should reshuffle trips");
        let rate = first.iter().filter(|t| **t).count();
        assert!(
            (8..=30).contains(&rate),
            "0.3 probability tripped {rate}/64 times"
        );
        clear();
    }

    #[test]
    fn unarmed_and_unknown_points_are_no_ops() {
        let _guard = global_guard();
        clear();
        assert!(!active());
        assert!(check("anything").is_ok());
        configure("only_this:error", 0).unwrap();
        assert!(active());
        assert!(check("some_other_point").is_ok());
        assert!(check("only_this").is_err());
        clear();
    }

    #[test]
    fn io_flag_distinguishes_io_from_logical_faults() {
        let _guard = global_guard();
        configure("a:io,b:error", 0).unwrap();
        assert!(check("a").unwrap_err().io);
        assert!(!check("b").unwrap_err().io);
        let err = check("a").unwrap_err();
        assert_eq!(err.to_string(), "injected fault at failpoint `a`");
        clear();
    }

    #[test]
    fn init_from_env_reads_spec_and_seed() {
        let _guard = global_guard();
        // Serialised by the global guard; set_var is safe enough here.
        std::env::set_var(FAULTS_ENV_VAR, "env_point:error@2");
        std::env::set_var(FAULTS_SEED_ENV_VAR, "41");
        assert!(init_from_env().unwrap());
        assert!(check("env_point").is_ok());
        assert!(check("env_point").is_err());
        std::env::set_var(FAULTS_ENV_VAR, "not a spec");
        assert!(init_from_env().is_err());
        std::env::remove_var(FAULTS_ENV_VAR);
        std::env::remove_var(FAULTS_SEED_ENV_VAR);
        assert!(!init_from_env().unwrap());
        clear();
    }

    #[test]
    fn delay_faults_block_then_continue() {
        let _guard = global_guard();
        configure("slow:delay=30ms", 0).unwrap();
        let started = std::time::Instant::now();
        assert!(check("slow").is_ok());
        assert!(started.elapsed() >= Duration::from_millis(30));
        clear();
    }

    #[test]
    fn lock_helpers_recover_poisoned_guards() {
        let mutex = std::sync::Arc::new(Mutex::new(7_u32));
        let clone = std::sync::Arc::clone(&mutex);
        let _ = std::thread::spawn(move || {
            let _guard = clone.lock().unwrap();
            panic!("poison the mutex");
        })
        .join();
        assert!(mutex.is_poisoned());
        let mut guard = lock_recover(&mutex);
        *guard += 1;
        drop(guard);
        assert_eq!(*lock_recover(&mutex), 8);
    }
}
