//! Scoped worker bands for the cold graph build.
//!
//! Every parallel stage of the build (R-MAT sampling, the builder's counting
//! sort and dedup, the trim, the feature fill and the shard-summary pass)
//! splits its work into contiguous bands, runs one band per scoped thread
//! and combines the band results in band order. Bands are fixed by the
//! input alone, never by thread timing, so the output is the same at any
//! worker count; the worker count only decides how many bands there are.
//!
//! The count comes from [`std::thread::available_parallelism`], capped so
//! that each worker gets at least [`MIN_WORK_PER_WORKER`] items: tiny
//! graphs stay on the calling thread. Each worker checks the `graph_build`
//! failpoint once, and an injected fault or a panic in any worker surfaces
//! as [`GraphError::BuildWorker`] after every worker has stopped, never as a
//! partial result.

use crate::GraphError;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

/// Items (sampling attempts, edges, feature values) one worker must have
/// before a further worker pays for its thread.
const MIN_WORK_PER_WORKER: usize = 1 << 16;

/// The failpoint every build worker checks once before its band.
const FAILPOINT: &str = "graph_build";

/// How many workers a stage of `work` items uses: the available cores,
/// but no more than one per [`MIN_WORK_PER_WORKER`] items, and at least one.
pub(crate) fn workers_for(work: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    cores.min(work / MIN_WORK_PER_WORKER).max(1)
}

/// `parts + 1` ascending bounds cutting `0..total` into `parts` near-equal
/// ranges (`parts` is clamped to at least 1).
pub(crate) fn even_bounds(total: usize, parts: usize) -> Vec<usize> {
    let parts = parts.max(1);
    (0..=parts).map(|t| total * t / parts).collect()
}

/// `parts + 1` ascending bounds cutting items `0..items` into `parts`
/// contiguous runs of near-equal total `weight`: each inner bound is the
/// item boundary whose weight prefix lies nearest to an even share. The
/// first bound is 0 and the last is `items`.
pub(crate) fn weighted_bounds(
    items: usize,
    parts: usize,
    weight: &dyn Fn(usize) -> usize,
) -> Vec<usize> {
    let targets = even_bounds((0..items).map(weight).sum(), parts);
    let mut bounds = Vec::with_capacity(targets.len());
    let mut before = 0usize;
    for item in 0..items {
        let after = before + weight(item);
        while bounds.len() + 1 < targets.len() && after >= targets[bounds.len()] {
            let target = targets[bounds.len()];
            let nearer_start = target.saturating_sub(before) <= after - target;
            bounds.push(if nearer_start { item } else { item + 1 });
        }
        before = after;
    }
    bounds.resize(targets.len(), items);
    bounds
}

/// Splits `slice` at the ascending `bounds` (which start at 0 and end at
/// `slice.len()`) into `bounds.len() - 1` disjoint mutable bands.
pub(crate) fn split_bands<'a, T>(mut slice: &'a mut [T], bounds: &[usize]) -> Vec<&'a mut [T]> {
    let mut bands = Vec::with_capacity(bounds.len().saturating_sub(1));
    for pair in bounds.windows(2) {
        let (band, rest) = std::mem::take(&mut slice).split_at_mut(pair[1] - pair[0]);
        bands.push(band);
        slice = rest;
    }
    bands
}

/// Runs `job` on every item, one scoped thread per item (the first on the
/// calling thread), and returns the results in item order.
///
/// The threads are started by one non-generic [`run_each`], so each call
/// site adds only its job to the binary, not a copy of the thread code.
///
/// # Errors
///
/// Returns the first failing item's error in item order: a job's own error,
/// an injected `graph_build` fault, or [`GraphError::BuildWorker`] for a
/// panic. Every worker has finished before this returns.
pub(crate) fn run_bands<I, T, F>(items: Vec<I>, job: F) -> Result<Vec<T>, GraphError>
where
    I: Send,
    T: Send,
    F: Fn(I) -> Result<T, GraphError> + Sync,
{
    let inputs: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let outputs: Vec<Mutex<Option<Result<T, GraphError>>>> =
        inputs.iter().map(|_| Mutex::new(None)).collect();
    let panics = run_each(inputs.len(), &|index| {
        let item = lock(&inputs[index]).take().expect("each item runs once");
        let result = gnnerator_faults::check(FAILPOINT)
            .map_err(|e| GraphError::BuildWorker {
                message: e.to_string(),
            })
            .and_then(|()| job(item));
        *lock(&outputs[index]) = Some(result);
    });
    outputs
        .into_iter()
        .zip(panics)
        .map(|(output, panic)| match panic {
            Err(payload) => Err(panicked(payload)),
            Ok(()) => output
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("a job that returned stored its result"),
        })
        .collect()
}

/// Runs `work(index)` for every index below `count`, one scoped thread per
/// index (index 0 on the calling thread), and returns each index's panic,
/// if any, once every thread has finished.
fn run_each(count: usize, work: &(dyn Fn(usize) + Sync)) -> Vec<std::thread::Result<()>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..count)
            .map(|index| scope.spawn(move || work(index)))
            .collect();
        let mut results = Vec::with_capacity(count);
        if count > 0 {
            results.push(catch_unwind(AssertUnwindSafe(|| work(0))));
        }
        results.extend(handles.into_iter().map(|handle| handle.join()));
        results
    })
}

/// Locks a job's slot; a slot is only ever touched by its own job, so a
/// poisoned lock still holds a consistent value.
fn lock<T>(slot: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

fn panicked(payload: Box<dyn Any + Send>) -> GraphError {
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    GraphError::BuildWorker {
        message: format!("worker panicked: {message}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_bounds_cover_the_range() {
        assert_eq!(even_bounds(10, 3), vec![0, 3, 6, 10]);
        assert_eq!(even_bounds(2, 4), vec![0, 0, 1, 1, 2]);
        assert_eq!(even_bounds(5, 0), vec![0, 5]);
    }

    #[test]
    fn weighted_bounds_balance_the_weight() {
        // Weights 1, 1, 1, 1, 8, 1, 1: the heavy item starts the second of
        // two parts and is the middle one of three by itself; weightless
        // items all fall into the last part.
        let weights = [1, 1, 1, 1, 8, 1, 1];
        assert_eq!(weighted_bounds(7, 2, &|i| weights[i]), vec![0, 4, 7]);
        assert_eq!(weighted_bounds(7, 3, &|i| weights[i]), vec![0, 4, 5, 7]);
        assert_eq!(weighted_bounds(7, 1, &|i| weights[i]), vec![0, 7]);
        assert_eq!(weighted_bounds(0, 3, &|_| 1), vec![0, 0, 0, 0]);
        assert_eq!(weighted_bounds(4, 2, &|_| 0), vec![0, 0, 4]);
        assert_eq!(weighted_bounds(10, 4, &|_| 1), even_bounds(10, 4));
    }

    #[test]
    fn split_bands_are_disjoint_and_ordered() {
        let mut data: Vec<usize> = (0..10).collect();
        let bands = split_bands(&mut data, &[0, 4, 4, 10]);
        let lens: Vec<usize> = bands.iter().map(|b| b.len()).collect();
        assert_eq!(lens, vec![4, 0, 6]);
        assert_eq!(bands[2][0], 4);
    }

    #[test]
    fn results_keep_item_order_and_panics_become_errors() {
        let squares = run_bands((0..5).collect(), |i: u64| Ok(i * i)).unwrap();
        assert_eq!(squares, vec![0, 1, 4, 9, 16]);
        for doomed in [0, 3] {
            let err = run_bands((0..5).collect(), |i: u64| {
                assert_ne!(i, doomed, "band {i} fails");
                Ok(i)
            })
            .unwrap_err();
            assert!(
                matches!(&err, GraphError::BuildWorker { message } if message.contains("fails")),
                "{err}"
            );
        }
    }
}
