//! Deterministic fan-out of independent simulation scenarios.
//!
//! Every figure sweeps a grid of independent `Machine` runs (apps ×
//! policies × configs). [`map_scenarios`] spreads that grid across
//! `std::thread::scope` workers: each worker claims grid indices from a
//! shared atomic cursor, runs the scenario closure, and tags the result
//! with its index. The merged output is ordered by index — byte-identical
//! to the serial loop no matter how many workers ran or how the OS
//! scheduled them. Each `Machine` is private to one closure call, so no
//! simulation state is shared; determinism needs only the index-ordered
//! merge (asserted by `tests/parallel_determinism.rs`).
//!
//! Callers must keep *printing* out of the closure: run the grid first,
//! then render tables/CSV from the merged vector.

/// Run `f` over every item of `items`, fanning across `jobs` workers (1 runs
/// on the calling thread, no scope, no spawn), and return the results in
/// item order.
///
/// The closure receives `(index, &item)` and must be self-contained: it
/// owns its `Machine`s and returns a value, it does not print. Per-machine
/// seeds belong in the items themselves so a scenario's work is a pure
/// function of its grid cell, never of which worker ran it.
#[expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the sanctioned fan-out: scoped workers, an atomic cursor, an index-ordered merge"
)]
pub fn map_scenarios<I, T, F>(jobs: usize, items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let _t = obs::span!("scenario.task");
                f(i, item)
            })
            .collect();
    }
    let workers = jobs.min(items.len());
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let mut tagged: Vec<(usize, T)> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let _w = obs::span!("scenario.worker");
                    let mut mine = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        let _t = obs::span!("scenario.task");
                        mine.push((i, f(i, &items[i])));
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            // A worker panic (from the scenario closure) is re-raised on
            // the caller's thread rather than unwrapped into a second,
            // less informative panic here.
            match h.join() {
                Ok(mine) => tagged.extend(mine),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    // Index-ordered merge: the claim order above is racy, the output is not.
    tagged.sort_by_key(|(i, _)| *i);
    debug_assert!(
        tagged.iter().enumerate().all(|(k, (i, _))| k == *i),
        "every scenario index must appear exactly once"
    );
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree_and_preserve_order() {
        let items: Vec<u64> = (0..57).collect();
        let square = |i: usize, x: &u64| (i as u64, x * x);
        let serial = map_scenarios(1, &items, square);
        for jobs in [2, 4, 8] {
            let par = map_scenarios(jobs, &items, square);
            assert_eq!(par, serial, "jobs={jobs} must merge in item order");
        }
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let items = [10u64, 20];
        let out = map_scenarios(16, &items, |_, x| x + 1);
        assert_eq!(out, vec![11, 21]);
    }

    #[test]
    fn empty_grid_returns_empty() {
        let items: [u64; 0] = [];
        let out = map_scenarios(4, &items, |_, x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn jobs_one_is_serial() {
        let caller = std::thread::current().id();
        for jobs in [0, 1] {
            let ran_on = map_scenarios(jobs, &[1u8, 2, 3], |_, _| std::thread::current().id());
            assert!(
                ran_on.iter().all(|&id| id == caller),
                "jobs={jobs} must run on the calling thread"
            );
        }
    }
}
