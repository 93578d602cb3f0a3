//! The process's one executor: worker threads sharing one job queue. It
//! has two calls. [`Executor::spawn`] queues a detached job (a service
//! request). [`Executor::map`] fans a function out over a list of items
//! and returns the results in input order: statement shards (one
//! parameterised operation applied to every matching table, paper §2),
//! the count and scatter passes of a join, and the programs of a
//! multi-program request.
//!
//! While `map` waits, its caller runs the jobs of its own batch that no
//! worker has claimed — never another batch's — so a wait only waits for
//! jobs already running. Nested fan-out (request → multi-program →
//! shards → join ranges) cannot deadlock, even on one worker, and a
//! waiting request never picks up another request. A batch of one runs
//! on the caller and starts no worker.

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A cloneable handle to a fixed set of worker threads sharing one job
/// queue. The workers start on the first queued job; when the last handle
/// drops, they finish the queue and are joined.
#[derive(Clone)]
pub struct Executor {
    pool: Arc<Pool>,
}

struct Pool {
    shared: Arc<Shared>,
    threads: usize,
    workers: OnceLock<Vec<JoinHandle<()>>>,
}

/// The queued batches, and whether the queue is closed.
#[derive(Default)]
struct Shared {
    queue: Mutex<(VecDeque<Arc<Batch>>, bool)>,
    ready: Condvar,
}

/// The jobs of one `map` call, or the one job of a `spawn`.
struct Batch {
    unclaimed: Mutex<Vec<Job>>,
    /// Jobs not yet finished, and the first panic in completion order.
    state: Mutex<(usize, Option<Box<dyn Any + Send>>)>,
    done: Condvar,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Executor {
    /// An executor of `threads` workers (at least one).
    pub fn new(threads: usize) -> Executor {
        Executor {
            pool: Arc::new(Pool {
                shared: Arc::default(),
                threads: threads.max(1),
                workers: OnceLock::new(),
            }),
        }
    }

    /// Number of worker threads: the fan-out width of statement shards
    /// and join partitions.
    pub fn threads(&self) -> usize {
        self.pool.threads
    }

    /// Queue a detached job. A panic inside it is caught and discarded;
    /// the worker carries on with the next job.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.queue(&Batch::new(vec![Box::new(job)]), 1);
    }

    /// Apply `f` to every item as one batch of jobs and return the
    /// results in input order. `f` and the items may borrow from the
    /// caller, which runs its batch's unclaimed jobs itself. The first
    /// panic (in completion order) is resumed only after the whole batch
    /// has drained.
    pub fn map<T: Send, R: Send>(
        &self,
        items: impl IntoIterator<Item = T>,
        f: impl Fn(T) -> R + Sync,
    ) -> Vec<R> {
        let f = &f;
        let items: Vec<T> = items.into_iter().collect();
        let mut results: Vec<Option<R>> = items.iter().map(|_| None).collect();
        self.scoped(
            items
                .into_iter()
                .zip(&mut results)
                .map(|(item, slot)| {
                    Box::new(move || *slot = Some(f(item))) as Box<dyn FnOnce() + Send + '_>
                })
                .collect(),
        );
        // `scoped` returned without a panic, so every job stored its result.
        results
            .into_iter()
            .map(|r| r.expect("every job ran"))
            .collect()
    }

    /// Run every job and return once all of them have finished. Jobs may
    /// borrow from the caller; the caller runs unclaimed jobs of this
    /// batch itself. The *first* panic (in completion order) is resumed
    /// here, only after every job has finished: later panics must not
    /// shadow it, and resuming early would free the caller's stack while
    /// jobs still borrow it.
    fn scoped<'s>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 's>>) {
        // The caller runs at least one job, so `n - 1` claims occupy
        // every thread that could help.
        let claims = jobs.len().saturating_sub(1).min(self.pool.threads);
        let batch = Batch::new(
            jobs.into_iter()
                // SAFETY: the transmute only erases 's for transport. Once
                // the batch is queued, this function does not return
                // (`queue` panics only before queueing; job panics are
                // caught) until every job has run and been dropped, so no
                // borrow with lifetime 's outlives `scoped`.
                .map(|job| unsafe {
                    std::mem::transmute::<Box<dyn FnOnce() + Send + 's>, Job>(job)
                })
                .collect(),
        );
        self.queue(&batch, claims);
        batch.drain();
        let wait = batch.done.wait_while(lock(&batch.state), |s| s.0 > 0);
        let mut state = wait.unwrap_or_else(|e| e.into_inner());
        if let Some(panic) = state.1.take() {
            drop(state);
            std::panic::resume_unwind(panic);
        }
    }

    /// Queue `claims` claims on `batch`, each waking one worker.
    fn queue(&self, batch: &Arc<Batch>, claims: usize) {
        if claims == 0 {
            return;
        }
        // Start the workers before queueing anything, so a failed thread
        // spawn panics while no job of a scoped batch is in the queue.
        self.pool.workers.get_or_init(|| {
            (0..self.pool.threads)
                .map(|i| {
                    let shared = Arc::clone(&self.pool.shared);
                    std::thread::Builder::new()
                        .name(format!("tabular-worker-{i}"))
                        .spawn(move || work(&shared))
                        .expect("spawn an executor worker thread")
                })
                .collect()
        });
        let mut queue = lock(&self.pool.shared.queue);
        for _ in 0..claims {
            queue.0.push_back(Arc::clone(batch));
            self.pool.shared.ready.notify_one();
        }
    }
}

impl fmt::Debug for Executor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Executor({} threads)", self.pool.threads)
    }
}

/// The process-wide executor of [`crate::Budget::default`].
pub(crate) fn process_executor() -> Executor {
    static PROCESS: OnceLock<Executor> = OnceLock::new();
    let threads = || std::thread::available_parallelism().map_or(1, |n| n.get());
    PROCESS.get_or_init(|| Executor::new(threads())).clone()
}

impl Drop for Pool {
    fn drop(&mut self) {
        lock(&self.shared.queue).1 = true;
        self.shared.ready.notify_all();
        // A job may drop the last handle on a worker, which then exits
        // once that job returns; it cannot join itself. Job panics are
        // caught, so a worker cannot panic.
        let me = std::thread::current().id();
        for worker in self.workers.take().unwrap_or_default() {
            if worker.thread().id() != me {
                let _ = worker.join();
            }
        }
    }
}

impl Batch {
    fn new(jobs: Vec<Job>) -> Arc<Batch> {
        Arc::new(Batch {
            state: Mutex::new((jobs.len(), None)),
            unclaimed: Mutex::new(jobs),
            done: Condvar::new(),
        })
    }

    /// Run unclaimed jobs of this batch until none is left.
    fn drain(&self) {
        // `let`-`else` drops the claim's guard before the job runs.
        loop {
            let Some(job) = lock(&self.unclaimed).pop() else {
                return;
            };
            // The job is run and dropped before its completion counts.
            let outcome = catch_unwind(AssertUnwindSafe(job));
            let mut state = lock(&self.state);
            state.0 -= 1;
            if let Err(panic) = outcome {
                state.1.get_or_insert(panic);
            }
            if state.0 == 0 {
                self.done.notify_all();
            }
        }
    }
}

/// A worker: run queued batches until the queue is closed and empty.
fn work(shared: &Shared) {
    loop {
        let wait = shared
            .ready
            .wait_while(lock(&shared.queue), |q| q.0.is_empty() && !q.1);
        let Some(batch) = wait.unwrap_or_else(|e| e.into_inner()).0.pop_front() else {
            return;
        };
        batch.drain();
    }
}

#[cfg(test)]
impl Executor {
    /// True when both handles share one set of workers.
    pub(crate) fn same_workers(&self, other: &Executor) -> bool {
        Arc::ptr_eq(&self.pool, &other.pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::channel;

    fn count_jobs(counter: &AtomicUsize, n: usize) -> Vec<Box<dyn FnOnce() + Send + '_>> {
        (0..n)
            .map(|_| {
                Box::new(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect()
    }

    #[test]
    fn scoped_runs_every_job_and_blocks_until_done() {
        let pool = Executor::new(4);
        let counter = AtomicUsize::new(0);
        pool.scoped(count_jobs(&counter, 32));
        assert_eq!(counter.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn jobs_can_write_into_borrowed_slots() {
        let pool = Executor::new(2);
        let mut slots = vec![0u64; 8];
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = slots
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| {
                Box::new(move || {
                    *slot = (i as u64 + 1) * 10;
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.scoped(jobs);
        assert_eq!(slots, vec![10, 20, 30, 40, 50, 60, 70, 80]);
    }

    #[test]
    fn pool_survives_and_propagates_job_panics() {
        let pool = Executor::new(2);
        let boom: Vec<Box<dyn FnOnce() + Send + '_>> =
            vec![Box::new(|| panic!("job failure")) as Box<dyn FnOnce() + Send + '_>];
        let caught = catch_unwind(AssertUnwindSafe(|| pool.scoped(boom)));
        assert!(caught.is_err());
        // The pool keeps working after a job panic.
        let ok = AtomicUsize::new(0);
        pool.scoped(count_jobs(&ok, 1));
        assert_eq!(ok.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn two_panicking_jobs_drain_fully_and_resume_one() {
        let pool = Executor::new(2);
        let survivors = AtomicUsize::new(0);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
            Box::new(|| panic!("first failure")),
            Box::new(|| {
                survivors.fetch_add(1, Ordering::SeqCst);
            }),
            Box::new(|| panic!("second failure")),
            Box::new(|| {
                survivors.fetch_add(1, Ordering::SeqCst);
            }),
        ];
        let caught = catch_unwind(AssertUnwindSafe(|| pool.scoped(jobs)));
        let payload = caught.expect_err("a job panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .expect("panic payload is the job's message");
        assert!(
            msg == "first failure" || msg == "second failure",
            "propagated panic is one of the jobs', got {msg:?}"
        );
        // All completions were drained before resuming: the non-panicking
        // jobs finished, and the pool is still fully usable.
        assert_eq!(survivors.load(Ordering::SeqCst), 2);
        let ok = AtomicUsize::new(0);
        pool.scoped(count_jobs(&ok, 1));
        assert_eq!(ok.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn reuse_across_many_batches() {
        let pool = Executor::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.scoped(count_jobs(&total, 5));
        }
        assert_eq!(total.load(Ordering::SeqCst), 250);
        assert_eq!(pool.threads(), 3);
    }

    #[test]
    fn a_panicking_spawned_job_leaves_its_worker_running() {
        let pool = Executor::new(1);
        let (tx, rx) = channel();
        pool.spawn(|| panic!("detached job failure"));
        pool.spawn(move || tx.send(7).unwrap());
        assert_eq!(rx.recv().unwrap(), 7, "the one worker ran the next job");
    }

    #[test]
    fn scoped_nested_three_deep_completes_on_one_worker() {
        let pool = Executor::new(1);
        let leaves = AtomicUsize::new(0);
        fn nested(pool: &Executor, leaves: &AtomicUsize, depth: usize) {
            pool.scoped(
                (0..3)
                    .map(|_| {
                        Box::new(move || {
                            if depth == 0 {
                                leaves.fetch_add(1, Ordering::SeqCst);
                            } else {
                                nested(pool, leaves, depth - 1);
                            }
                        }) as Box<dyn FnOnce() + Send + '_>
                    })
                    .collect(),
            );
        }
        nested(&pool, &leaves, 2);
        assert_eq!(leaves.load(Ordering::SeqCst), 27, "3 × 3 × 3 leaves");
    }

    #[test]
    fn map_nested_on_one_worker_returns_results_in_input_order() {
        let pool = Executor::new(1);
        let rows = pool.map(0..4u64, |i| pool.map(0..3u64, |j| i * 10 + j));
        assert_eq!(
            rows,
            vec![
                vec![0, 1, 2],
                vec![10, 11, 12],
                vec![20, 21, 22],
                vec![30, 31, 32]
            ]
        );
    }

    #[test]
    fn scoped_inside_a_spawned_job_completes_on_one_worker() {
        // The only worker is busy running the spawned job, so its fan-out
        // must be run by the job itself, not wait for a free worker.
        let pool = Executor::new(1);
        let (tx, rx) = channel();
        let inner = pool.clone();
        pool.spawn(move || {
            let counter = AtomicUsize::new(0);
            inner.scoped(count_jobs(&counter, 4));
            tx.send(counter.load(Ordering::SeqCst)).unwrap();
        });
        assert_eq!(rx.recv().unwrap(), 4);
    }

    #[test]
    fn the_last_handle_may_drop_inside_a_job() {
        // The dropping worker joins the other worker, not itself.
        let pool = Executor::new(2);
        let last = pool.clone();
        let (go, wait) = channel::<()>();
        let (done, finished) = channel();
        pool.spawn(move || {
            wait.recv().unwrap();
            drop(last);
            done.send(()).unwrap();
        });
        drop(pool);
        go.send(()).unwrap();
        finished.recv().unwrap();
    }

    #[test]
    fn a_batch_of_one_spawns_no_thread() {
        let pool = Executor::new(2);
        let ok = AtomicUsize::new(0);
        pool.scoped(count_jobs(&ok, 1));
        assert_eq!(ok.load(Ordering::SeqCst), 1);
        assert!(pool.pool.workers.get().is_none(), "no worker started");
    }
}
