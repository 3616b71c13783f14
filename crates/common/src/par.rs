//! The workspace's one worker pool.
//!
//! Every parallel stage of the engine — the morsel-parallel group scan,
//! the sharded candidate-index build, and the per-`D` plane descents —
//! is an ordered map over a slice of independent tasks. [`map_ordered`]
//! runs that map on scoped threads that claim tasks off one atomic
//! counter, so a slow task never idles the other workers, and returns
//! the results in task order, so callers merge them exactly as a
//! sequential loop would. [`available_workers`] is the one place the
//! core count is read.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker threads this host can run in parallel (at least 1).
#[inline]
#[allow(clippy::disallowed_methods)]
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Apply `f` to every task on up to `workers` threads and return the
/// results in task order.
///
/// Each worker builds its state with `init` once and reuses it for every
/// task it claims, so `init` runs at most `min(workers, tasks.len())`
/// times. With one worker (or at most one task) everything runs on the
/// calling thread and no thread is spawned. A panicking task is re-raised
/// in the caller with its original payload once every worker has stopped.
pub fn map_ordered<T, S, R>(
    tasks: &[T],
    workers: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let workers = workers.clamp(1, tasks.len().max(1));
    if workers == 1 {
        if tasks.is_empty() {
            return Vec::new();
        }
        let mut state = init();
        return tasks.iter().map(|t| f(&mut state, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut state = init();
        let mut out = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(task) = tasks.get(i) else { break };
            out.push((i, f(&mut state, task)));
        }
        out
    };
    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut slots: Vec<Option<R>> = (0..tasks.len()).map(|_| None).collect();
    for results in joined {
        match results {
            Ok(results) => {
                for (i, r) in results {
                    slots[i] = Some(r);
                }
            }
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    slots
        .into_iter()
        .map(|r| r.expect("every task is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_task_order() {
        for n in [0usize, 1, 2, 7, 64] {
            let tasks: Vec<usize> = (0..n).collect();
            for workers in [1usize, 2, 3, 16, 100] {
                let out = map_ordered(&tasks, workers, || (), |_, &t| t * 10);
                let want: Vec<usize> = tasks.iter().map(|t| t * 10).collect();
                assert_eq!(out, want, "tasks={n} workers={workers}");
            }
        }
    }

    #[test]
    fn init_runs_at_most_once_per_worker() {
        let inits = AtomicUsize::new(0);
        let tasks: Vec<usize> = (0..64).collect();
        for workers in [1usize, 2, 3, 16] {
            inits.store(0, Ordering::Relaxed);
            let out = map_ordered(
                &tasks,
                workers,
                || inits.fetch_add(1, Ordering::Relaxed),
                |_, &t| t,
            );
            assert_eq!(out, tasks);
            let n = inits.load(Ordering::Relaxed);
            assert!((1..=workers).contains(&n), "workers={workers} inits={n}");
        }
        // No task, no state.
        inits.store(0, Ordering::Relaxed);
        let none: Vec<usize> = map_ordered(
            &[] as &[usize],
            4,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, &t| t,
        );
        assert!(none.is_empty());
        assert_eq!(inits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_panicking_task_reaches_the_caller() {
        let tasks: Vec<usize> = (0..16).collect();
        for workers in [1usize, 3] {
            let caught = std::panic::catch_unwind(|| {
                map_ordered(
                    &tasks,
                    workers,
                    || (),
                    |_, &t| {
                        if t == 11 {
                            panic!("task 11 failed");
                        }
                        t
                    },
                )
            })
            .expect_err("the task panic must propagate");
            assert_eq!(caught.downcast_ref::<&str>(), Some(&"task 11 failed"));
        }
    }
}
