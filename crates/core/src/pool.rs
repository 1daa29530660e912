//! Persistent worker pool for level-parallel reaction execution.
//!
//! The runtime's original executor spawned fresh scoped threads for
//! *every* same-level batch — thousands of `clone`+`spawn`+`join` cycles
//! per run, dominating the cost of light reactions. [`WorkerPool`] is
//! created once per runtime (when [`Runtime::set_workers`] requests more
//! than one worker) and reused across all batches, levels, and tags: jobs
//! travel through a shared channel, results return through a per-batch
//! channel, and the threads park in `recv` between batches.
//!
//! Determinism is unaffected by the pool: jobs only ever run *independent*
//! reactions (same APG level, distinct reactors), and the runtime sorts
//! results into reaction-id order before applying them — the same contract
//! the scoped-thread executor had, verified by the
//! `parallel_matches_sequential` property tests.
//!
//! [`Runtime::set_workers`]: crate::Runtime::set_workers

use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of worker threads consuming jobs from a shared queue.
///
/// Dropping the pool closes the queue and joins every worker.
pub(crate) struct WorkerPool {
    sender: Option<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.handles.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `threads` worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or the OS refuses to spawn a thread.
    pub(crate) fn new(threads: usize) -> Self {
        assert!(threads > 0, "worker pool needs at least one thread");
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let handles = (0..threads)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("dear-worker-{i}"))
                    .spawn(move || loop {
                        // Hold the lock only while dequeuing, never while
                        // running a job, so workers drain in parallel.
                        let job = match receiver.lock() {
                            Ok(guard) => guard.recv(),
                            // A sibling panicked mid-dequeue; the runtime
                            // is coming down, stop quietly.
                            Err(_) => break,
                        };
                        match job {
                            Ok(job) => job(),
                            Err(_) => break, // pool dropped
                        }
                    })
                    .expect("failed to spawn worker thread")
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            handles,
        }
    }

    /// Number of worker threads.
    pub(crate) fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Submits a job; some worker will run it.
    pub(crate) fn submit(&self, job: Job) {
        self.sender
            .as_ref()
            .expect("pool sender lives until drop")
            .send(job)
            .expect("worker pool threads alive");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        drop(self.sender.take());
        for handle in self.handles.drain(..) {
            // A worker that panicked (a reaction body panicked) already
            // surfaced the failure on the runtime thread; don't
            // double-panic out of drop.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_all_submitted_jobs() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = channel();
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
                tx.send(vec![()]).unwrap();
            }));
        }
        let mut done = Vec::new();
        for _ in 0..100 {
            done.extend(rx.recv().unwrap());
        }
        assert_eq!(done.len(), 100);
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn drop_joins_idle_workers() {
        let pool = WorkerPool::new(2);
        drop(pool); // must not hang
    }

    #[test]
    fn pool_is_reusable_across_many_rounds() {
        let pool = WorkerPool::new(2);
        for round in 0..50 {
            let (tx, rx) = channel();
            for i in 0..4u64 {
                let tx = tx.clone();
                pool.submit(Box::new(move || tx.send(vec![i * i]).unwrap()));
            }
            let mut out: Vec<u64> = Vec::new();
            for _ in 0..4 {
                out.extend(rx.recv().unwrap());
            }
            out.sort_unstable();
            assert_eq!(out, vec![0, 1, 4, 9], "round {round}");
        }
    }
}
