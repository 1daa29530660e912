//! Simulated worker-thread pools.
//!
//! AUTOSAR AP's communication management maps each incoming method
//! invocation to a worker thread by default, so "the order in which the
//! calls are handled is determined purely by the thread scheduler" (paper
//! §I, Figure 1). [`TaskPool`] models exactly that: each submitted task
//! receives a random *dispatch delay* (the scheduler deciding when the
//! worker actually starts) and then occupies one of a finite set of
//! workers for its execution duration.
//!
//! With more than one worker, tasks submitted back-to-back can start — and
//! therefore acquire the server's state lock — in any order, which is the
//! mechanism behind the paper's Figure 1 value distribution.

use crate::rng::{LatencyModel, SimRng};
use crate::sim::Simulation;
use dear_time::{Duration, Instant};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Statistics for a task pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Tasks submitted in total.
    pub(crate) submitted: u64,
    /// Tasks that had to wait for a busy worker.
    pub(crate) queued: u64,
}

impl fmt::Display for PoolStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "submitted={} queued={}", self.submitted, self.queued)
    }
}

struct PoolInner {
    /// Per-worker time at which the worker becomes free.
    workers: Vec<Instant>,
    dispatch_jitter: LatencyModel,
    rng: SimRng,
    stats: PoolStats,
}

/// A simulated pool of worker threads with stochastic dispatch latency.
///
/// # Examples
///
/// ```
/// use dear_sim::{LatencyModel, Simulation, TaskPool};
/// use dear_time::Duration;
/// use std::cell::RefCell;
/// use std::rc::Rc;
///
/// let mut sim = Simulation::new(7);
/// let pool = TaskPool::new(
///     4,
///     LatencyModel::uniform(Duration::ZERO, Duration::from_micros(200)),
///     sim.fork_rng("pool"),
/// );
///
/// let order = Rc::new(RefCell::new(Vec::new()));
/// for i in 0..3 {
///     let order = order.clone();
///     pool.submit(&mut sim, Duration::from_micros(10), move |_sim| {
///         order.borrow_mut().push(i);
///     });
/// }
/// sim.run_to_completion();
/// // All three ran, but their start order depended on the sampled jitter.
/// assert_eq!(order.borrow().len(), 3);
/// ```
#[derive(Clone)]
pub struct TaskPool(Rc<RefCell<PoolInner>>);

impl fmt::Debug for TaskPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.0.borrow();
        f.debug_struct("TaskPool")
            .field("workers", &inner.workers.len())
            .field("stats", &inner.stats)
            .finish()
    }
}

impl TaskPool {
    /// Creates a pool with `workers` worker threads and the given dispatch
    /// jitter model.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    #[must_use]
    pub fn new(workers: usize, dispatch_jitter: LatencyModel, rng: SimRng) -> Self {
        assert!(workers > 0, "pool needs at least one worker");
        TaskPool(Rc::new(RefCell::new(PoolInner {
            workers: vec![Instant::EPOCH; workers],
            dispatch_jitter,
            rng,
            stats: PoolStats::default(),
        })))
    }

    /// A single-worker pool with no dispatch jitter: tasks execute strictly
    /// in submission order. This models AP's "single thread" configuration
    /// that the paper mentions as the (performance-limiting) workaround.
    #[must_use]
    pub fn single_threaded(rng: SimRng) -> Self {
        TaskPool::new(1, LatencyModel::constant(Duration::ZERO), rng)
    }

    /// Submits a task that occupies a worker for `duration` and runs `body`
    /// when it starts.
    ///
    /// The start time is `now + jitter`, postponed further if all workers
    /// are busy. Returns the scheduled start time.
    pub fn submit(
        &self,
        sim: &mut Simulation,
        duration: Duration,
        body: impl FnOnce(&mut Simulation) + 'static,
    ) -> Instant {
        let start = {
            let mut inner = self.0.borrow_mut();
            inner.stats.submitted += 1;
            let jitter = inner.dispatch_jitter.clone().sample(&mut inner.rng);
            let arrival = sim.now() + jitter;
            // Earliest-free worker; ties broken by index for determinism.
            let (idx, &free_at) = inner
                .workers
                .iter()
                .enumerate()
                .min_by_key(|(i, &t)| (t, *i))
                .expect("pool has workers");
            let start = arrival.max(free_at);
            if free_at > arrival {
                inner.stats.queued += 1;
            }
            inner.workers[idx] = start + duration;
            start
        };
        sim.schedule_at(start, body);
        start
    }

    /// Submits a task and additionally runs `on_complete` when the task's
    /// execution duration has elapsed.
    pub fn submit_with_completion(
        &self,
        sim: &mut Simulation,
        duration: Duration,
        body: impl FnOnce(&mut Simulation) + 'static,
        on_complete: impl FnOnce(&mut Simulation) + 'static,
    ) -> Instant {
        let start = self.submit(sim, duration, body);
        sim.schedule_at(start + duration, on_complete);
        start
    }

    /// Current statistics.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        self.0.borrow().stats
    }

    /// Number of workers.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.0.borrow().workers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn single_threaded_pool_preserves_submission_order() {
        let mut sim = Simulation::new(1);
        let pool = TaskPool::single_threaded(sim.fork_rng("pool"));
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..20 {
            let order = order.clone();
            pool.submit(&mut sim, Duration::from_micros(5), move |_| {
                order.borrow_mut().push(i);
            });
        }
        sim.run_to_completion();
        assert_eq!(*order.borrow(), (0..20).collect::<Vec<i32>>());
    }

    #[test]
    fn multi_worker_pool_with_jitter_permutes_start_order() {
        // Run many trials; at least one must deviate from submission order.
        let mut permuted = false;
        for seed in 0..20 {
            let mut sim = Simulation::new(seed);
            let pool = TaskPool::new(
                4,
                LatencyModel::uniform(Duration::ZERO, Duration::from_millis(1)),
                sim.fork_rng("pool"),
            );
            let order = Rc::new(RefCell::new(Vec::new()));
            for i in 0..5 {
                let order = order.clone();
                pool.submit(&mut sim, Duration::from_micros(10), move |_| {
                    order.borrow_mut().push(i);
                });
            }
            sim.run_to_completion();
            if *order.borrow() != (0..5).collect::<Vec<i32>>() {
                permuted = true;
                break;
            }
        }
        assert!(permuted, "expected at least one permuted start order");
    }

    #[test]
    fn busy_workers_delay_tasks() {
        let mut sim = Simulation::new(0);
        let pool = TaskPool::new(
            1,
            LatencyModel::constant(Duration::ZERO),
            sim.fork_rng("pool"),
        );
        let starts = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..3 {
            let starts = starts.clone();
            pool.submit(&mut sim, Duration::from_millis(10), move |sim| {
                starts.borrow_mut().push(sim.now());
            });
        }
        sim.run_to_completion();
        assert_eq!(
            *starts.borrow(),
            vec![
                Instant::EPOCH,
                Instant::from_millis(10),
                Instant::from_millis(20)
            ]
        );
        assert_eq!(pool.stats().queued, 2);
    }

    #[test]
    fn two_workers_run_two_tasks_concurrently() {
        let mut sim = Simulation::new(0);
        let pool = TaskPool::new(
            2,
            LatencyModel::constant(Duration::ZERO),
            sim.fork_rng("pool"),
        );
        let starts = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..3 {
            let starts = starts.clone();
            pool.submit(&mut sim, Duration::from_millis(10), move |sim| {
                starts.borrow_mut().push(sim.now());
            });
        }
        sim.run_to_completion();
        assert_eq!(
            *starts.borrow(),
            vec![Instant::EPOCH, Instant::EPOCH, Instant::from_millis(10)]
        );
    }

    #[test]
    fn completion_fires_after_duration() {
        let mut sim = Simulation::new(0);
        let pool = TaskPool::single_threaded(sim.fork_rng("pool"));
        let done_at = Rc::new(RefCell::new(None));
        let sink = done_at.clone();
        pool.submit_with_completion(
            &mut sim,
            Duration::from_millis(7),
            |_| {},
            move |sim| *sink.borrow_mut() = Some(sim.now()),
        );
        sim.run_to_completion();
        assert_eq!(*done_at.borrow(), Some(Instant::from_millis(7)));
    }

    #[test]
    fn stats_count_submissions() {
        let mut sim = Simulation::new(0);
        let pool = TaskPool::single_threaded(sim.fork_rng("pool"));
        for _ in 0..5 {
            pool.submit(&mut sim, Duration::ZERO, |_| {});
        }
        assert_eq!(pool.stats().submitted, 5);
        assert_eq!(pool.worker_count(), 1);
    }
}
