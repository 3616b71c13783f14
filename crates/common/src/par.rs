//! The workspace's one worker pool.
//!
//! Every parallel stage of the engine — the morsel-parallel group scan,
//! the sharded candidate-index build, and the per-`D` plane descents —
//! runs over a slice of independent tasks on scoped threads that claim
//! tasks off one atomic counter, so a slow task never idles the other
//! workers. [`fold_workers`] folds the tasks into per-worker state and
//! returns each worker's state; [`map_ordered`], built on it, returns one
//! result per task in task order, so callers merge them exactly as a
//! sequential loop would. [`available_workers`] is the one place the core
//! count is read.

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
    S: Send,
    R: Send,
{
    let states = fold_workers(
        tasks,
        workers,
        || (init(), Vec::new()),
        |(state, out), i, task| out.push((i, f(state, task))),
    );
    let mut slots: Vec<Option<R>> = (0..tasks.len()).map(|_| None).collect();
    for (_, results) in states {
        for (i, r) in results {
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|r| r.expect("every task is claimed exactly once"))
        .collect()
}

/// Fold every task into per-worker state on up to `workers` threads and
/// return each worker's final state.
///
/// `f(state, i, &tasks[i])` runs once per task, on the worker that claimed
/// it. Each worker claims task indices in ascending order, so a worker
/// meets its tasks in task order. Workers that claimed no task return no
/// state, and with one worker (or at most one task) everything runs on the
/// calling thread. A panicking task is re-raised in the caller with its
/// original payload once every worker has stopped.
pub fn fold_workers<T, S>(
    tasks: &[T],
    workers: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &T) + Sync,
) -> Vec<S>
where
    T: Sync,
    S: Send,
{
    let workers = workers.clamp(1, tasks.len().max(1));
    if workers == 1 {
        if tasks.is_empty() {
            return Vec::new();
        }
        let mut state = init();
        for (i, task) in tasks.iter().enumerate() {
            f(&mut state, i, task);
        }
        return vec![state];
    }
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut state: Option<S> = None;
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(task) = tasks.get(i) else { break };
            f(state.get_or_insert_with(&init), i, task);
        }
        state
    };
    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut states = Vec::with_capacity(workers);
    for state in joined {
        match state {
            Ok(state) => states.extend(state),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    states
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
    fn fold_workers_sees_every_task_once_in_ascending_order_per_worker() {
        let tasks: Vec<usize> = (0..200).collect();
        for workers in [1usize, 2, 3, 16] {
            let states = fold_workers(&tasks, workers, Vec::new, |seen, i, &t| {
                assert_eq!(i, t);
                seen.push(t);
            });
            assert!((1..=workers).contains(&states.len()), "workers={workers}");
            let mut all: Vec<usize> = Vec::new();
            for seen in &states {
                assert!(seen.windows(2).all(|w| w[0] < w[1]), "workers={workers}");
                all.extend(seen);
            }
            all.sort_unstable();
            assert_eq!(all, tasks, "workers={workers}");
        }
        let none = fold_workers(&[] as &[usize], 4, || 0usize, |_, _, _| {});
        assert!(none.is_empty());
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
