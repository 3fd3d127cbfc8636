//! The parallel sweep engine: run independent bench/sim tasks on scoped
//! worker threads with deterministic result ordering.
//!
//! Every experiment in this crate is a *sweep*: an outer loop over
//! independent points (policies, cache sizes, worker counts, models) whose
//! iterations share nothing but read-only inputs. [`run_indexed`] executes
//! such a loop on `workers` OS threads while keeping the result vector in
//! task-submission order, so a parallel sweep renders the same tables, the
//! same `JSON` lines, and (with one `Obs` ring per task) the same trace
//! files as the sequential loop — byte for byte.
//!
//! Determinism contract (DESIGN.md §8): tasks may not share mutable state
//! or RNGs; each task derives its randomness from the run seed and its own
//! index. Under that contract the only thing parallelism changes is which
//! OS thread executes a task, which no task can observe.
//!
//! ```
//! use icache_bench::sweep;
//!
//! let squares = sweep::map(&[1u64, 2, 3, 4], 2, |_idx, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default worker count: the machine's available parallelism.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Parse a `--parallel` flag value: empty or `"auto"` resolve via
/// [`default_workers`], a number is used as-is.
///
/// # Errors
///
/// Returns a message for a zero or unparseable worker count.
pub fn parse_workers(value: &str) -> Result<usize, String> {
    match value {
        "" | "auto" => Ok(default_workers()),
        n => n
            .parse::<usize>()
            .map_err(|e| format!("--parallel: {e}"))
            .and_then(|n| {
                if n == 0 {
                    Err("--parallel: worker count must be >= 1".to_string())
                } else {
                    Ok(n)
                }
            }),
    }
}

/// Run every task on a pool of `workers` scoped threads and return the
/// results **in task order**, regardless of completion order.
///
/// Tasks are claimed from a shared counter, so long tasks never leave a
/// worker idle while short ones queue behind them. `workers == 1` degrades
/// to exactly the sequential loop (same execution order, same results),
/// which is what makes "parallel output == sequential output" testable.
///
/// # Panics
///
/// Propagates the first worker panic (the scope joins all threads first).
pub fn run_indexed<T, F>(tasks: Vec<F>, workers: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = tasks.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    if workers == 1 {
        return tasks.into_iter().map(|t| t()).collect();
    }
    // Each slot is locked independently: a worker takes the task closure
    // from its cell, runs it unlocked, then stores the result. The shared
    // counter hands out indices in order.
    let cells: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let task = cells[i]
                    .lock()
                    .expect("task cell poisoned")
                    .take()
                    .expect("each task is claimed once");
                let out = task();
                *results[i].lock().expect("result cell poisoned") = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|r| {
            r.into_inner()
                .expect("result cell poisoned")
                .expect("every task ran")
        })
        .collect()
}

/// Map `f` over `items` on `workers` threads; results keep `items`' order.
/// `f` receives each item's index alongside the item so tasks can derive
/// per-point seeds or labels.
pub fn map<I, T, F>(items: &[I], workers: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let f = &f;
    run_indexed(
        items
            .iter()
            .enumerate()
            .map(|(i, item)| move || f(i, item))
            .collect(),
        workers,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_task_order_whatever_the_worker_count() {
        let tasks: Vec<u64> = (0..64).collect();
        let sequential = map(&tasks, 1, |i, &x| (i as u64, x * 3));
        for workers in [2, 3, 8, 64, 1000] {
            let parallel = map(&tasks, workers, |i, &x| (i as u64, x * 3));
            assert_eq!(parallel, sequential, "workers={workers}");
        }
    }

    #[test]
    fn short_and_long_tasks_interleave_without_reordering() {
        // Long tasks first: later short tasks finish earlier in wall-clock
        // but must still land in their submission slots.
        let out = map(&[50u64, 1, 40, 1, 30, 1], 3, |i, &spin| {
            let mut acc = 0u64;
            for k in 0..spin * 10_000 {
                acc = acc.wrapping_add(k ^ i as u64);
            }
            (i, std::hint::black_box(acc) != u64::MAX)
        });
        let idx: Vec<usize> = out.iter().map(|(i, _)| *i).collect();
        assert_eq!(idx, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn empty_and_single_task_sweeps_work() {
        let none: Vec<u32> = run_indexed(Vec::<fn() -> u32>::new(), 8);
        assert!(none.is_empty());
        assert_eq!(run_indexed(vec![|| 7u32], 8), vec![7]);
    }

    #[test]
    fn fnonce_tasks_can_move_their_captures() {
        let payloads: Vec<String> = (0..10).map(|i| format!("p{i}")).collect();
        let tasks: Vec<_> = payloads.into_iter().map(|p| move || p.len()).collect();
        let lens = run_indexed(tasks, 4);
        assert_eq!(lens, vec![2; 10]);
    }

    #[test]
    fn parse_workers_resolves_auto_and_rejects_zero() {
        assert!(parse_workers("auto").unwrap() >= 1);
        assert!(parse_workers("").unwrap() >= 1);
        assert_eq!(parse_workers("4").unwrap(), 4);
        assert!(parse_workers("0").is_err());
        assert!(parse_workers("four").is_err());
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate_to_the_caller() {
        // The scope re-panics with its own payload after joining, so only
        // the fact of the panic (not its message) crosses the boundary.
        let _ = run_indexed(
            vec![
                Box::new(|| 1u32) as Box<dyn FnOnce() -> u32 + Send>,
                Box::new(|| panic!("sweep task panicked")),
            ],
            2,
        );
    }
}
