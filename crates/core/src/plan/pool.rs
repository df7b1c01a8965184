//! A persistent, lazily-started shared worker pool for intra-query
//! parallelism.
//!
//! The pool is process-global and grows on demand: the first caller that
//! asks for `n` workers spawns them, later callers reuse them. Workers
//! are detached OS threads named `treequery-worker` that live for the
//! rest of the process — queries come and go, the pool does not, which
//! is what makes `Engine::eval_batch` and the partitioned kernels cheap
//! to call repeatedly (no per-call `std::thread::scope` spawning).
//!
//! Two submission APIs:
//!
//! * [`WorkerPool::run_scoped`] — run a batch of boxed closures that may
//!   borrow from the caller's stack, block until all of them finish, and
//!   return their results **in submission order**. That ordering
//!   guarantee is what the deterministic-merge story of the parallel
//!   kernels rests on: chunk outputs are concatenated in chunk order, so
//!   parallel output is byte-identical to sequential.
//! * [`WorkerPool::run_for`] — an allocation-free parallel for: one
//!   shared chunk body called with every index in `0..chunks`, claimed
//!   work-stealing style off a single atomic counter. The job descriptor
//!   lives on the caller's stack and the body is passed by reference, so
//!   the hot evaluation kernels can fan out without a single heap
//!   allocation (the `zero_alloc` gate runs them under accounting).

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

type Task = Box<dyn FnOnce() + Send + 'static>;

/// A raw pointer to a caller-stack [`ParJob`], published in the pool
/// state so idle workers can join the parallel for.
#[derive(Clone, Copy)]
struct JobRef(*const ParJob);

// SAFETY: the pointee is a ParJob pinned on the stack of a `run_for`
// caller that does not return before every registered worker has
// deregistered; all shared fields are Sync (atomics, Mutex, Condvar, an
// Arc-backed capture handle, and a `dyn Fn + Sync` body).
unsafe impl Send for JobRef {}

/// Shared state of one [`WorkerPool::run_for`] call, on the caller's
/// stack. Every field a worker touches is synchronized: chunk indexes
/// come off `next`, completion flows through `status`/`done`.
struct ParJob {
    /// The chunk body, type-erased from the caller's `&(dyn Fn + Sync)`.
    body: *const (dyn Fn(usize) + Sync),
    chunks: usize,
    /// Next unclaimed chunk index (may run past `chunks`).
    next: AtomicUsize,
    status: Mutex<ForStatus>,
    /// Signaled when `unfinished` or `active` reaches zero.
    done: Condvar,
    /// Submitter's observation context (capture, allocation scope, span
    /// depth), re-installed around every worker chunk so chunk spans and
    /// allocations are charged to the submitting query and stage.
    ctx: treequery_obs::CaptureHandle,
    /// Submitter's ambient cancel token, re-installed around every worker
    /// chunk so kernel checkpoints inside the body observe it. Once the
    /// token trips, remaining chunks are *drained* (claimed and counted
    /// as finished without running the body): the caller's partial result
    /// is discarded at the executor's final checkpoint anyway, and
    /// draining is what frees the pool within one chunk instead of one
    /// sweep.
    cancel: Option<treequery_tree::CancelToken>,
}

struct ForStatus {
    /// Chunks not yet finished.
    unfinished: usize,
    /// Workers currently registered on the job (the caller is not
    /// counted: it is the party waiting for this to reach zero).
    active: usize,
    /// First panic payload from any chunk.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl ParJob {
    /// Claims and runs chunks until the counter runs out. Called by
    /// registered workers (the caller runs an equivalent inline loop).
    fn run_worker(&self) {
        // SAFETY: `body` points into the `run_for` caller's frame, which
        // is alive for as long as this worker is registered (`active`).
        let body = unsafe { &*self.body };
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.chunks {
                break;
            }
            let result = catch_unwind(AssertUnwindSafe(|| {
                if self.cancel.as_ref().is_some_and(|t| t.check().is_some()) {
                    return; // drain: count the chunk done, skip the work
                }
                self.ctx.run(|| match &self.cancel {
                    Some(token) => treequery_tree::cancel::with_token(token, || body(i)),
                    None => body(i),
                })
            }));
            let mut st = self.status.lock().expect("job lock poisoned");
            if let Err(p) = result {
                if st.panic.is_none() {
                    st.panic = Some(p);
                }
            }
            st.unfinished -= 1;
            if st.unfinished == 0 {
                self.done.notify_all();
            }
        }
        let mut st = self.status.lock().expect("job lock poisoned");
        st.active -= 1;
        if st.active == 0 && st.unfinished == 0 {
            self.done.notify_all();
        }
    }
}

struct PoolState {
    queue: VecDeque<Task>,
    workers: usize,
    /// The currently published parallel for, if any. One at a time: a
    /// second concurrent `run_for` falls back to inline execution.
    job: Option<JobRef>,
}

/// The shared worker pool. Obtain the process-wide instance with
/// [`WorkerPool::global`]; there is intentionally no way to construct a
/// second one outside of tests.
pub struct WorkerPool {
    state: Mutex<PoolState>,
    /// Signals workers that the queue is non-empty.
    work_ready: Condvar,
}

std::thread_local! {
    /// True while the current thread is executing a pool task. Used to
    /// run nested `run_scoped` calls inline instead of re-enqueueing,
    /// which would deadlock once every worker is blocked waiting on a
    /// nested scope.
    static IN_POOL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();

impl WorkerPool {
    /// The process-wide pool. Lazily constructed; no threads are spawned
    /// until the first [`run_scoped`](Self::run_scoped) that wants them.
    pub fn global() -> &'static WorkerPool {
        GLOBAL.get_or_init(|| WorkerPool {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                workers: 0,
                job: None,
            }),
            work_ready: Condvar::new(),
        })
    }

    /// Number of worker threads currently alive.
    pub fn workers(&self) -> usize {
        self.state.lock().expect("pool lock poisoned").workers
    }

    /// Grows the pool to at least `n` workers. The pool never shrinks:
    /// idle workers park on a condvar and cost nothing.
    fn ensure_workers(&'static self, n: usize) {
        let mut state = self.state.lock().expect("pool lock poisoned");
        while state.workers < n {
            state.workers += 1;
            std::thread::Builder::new()
                .name("treequery-worker".into())
                .spawn(move || self.worker_loop())
                .expect("failed to spawn treequery-worker");
        }
    }

    fn worker_loop(&'static self) {
        IN_POOL.with(|f| f.set(true));
        enum Work {
            Task(Task),
            Job(JobRef),
        }
        loop {
            let work = {
                let mut state = self.state.lock().expect("pool lock poisoned");
                loop {
                    if let Some(task) = state.queue.pop_front() {
                        break Work::Task(task);
                    }
                    if let Some(job) = state.job {
                        // SAFETY: `state.job` is only Some while the
                        // publishing `run_for` frame is alive; we hold
                        // the pool lock, which is also required to clear
                        // the slot, so the pointee is valid here.
                        let j = unsafe { &*job.0 };
                        // Register only when chunks look claimable, to
                        // avoid spinning on a drained job. Registration
                        // under the pool lock is what makes the caller's
                        // "no new workers after unpublish" reasoning
                        // sound; claiming nothing afterwards is harmless.
                        if j.next.load(Ordering::Relaxed) < j.chunks {
                            j.status.lock().expect("job lock poisoned").active += 1;
                            break Work::Job(job);
                        }
                    }
                    state = self.work_ready.wait(state).expect("pool lock poisoned");
                }
            };
            match work {
                Work::Task(task) => task(),
                // SAFETY: registered above; the publishing frame cannot
                // return until we deregister inside `run_worker`.
                Work::Job(job) => unsafe { &*job.0 }.run_worker(),
            }
        }
    }

    /// Allocation-free parallel for: calls `body(i)` for every `i` in
    /// `0..chunks`, spreading the calls over up to `workers` threads
    /// (the caller participates), and blocks until all of them finished.
    /// Chunk indexes are claimed from a single atomic counter, so chunk →
    /// thread assignment is dynamic; callers that need deterministic
    /// output must write into per-chunk slots and merge in chunk order.
    ///
    /// The job descriptor lives on this call's stack and the body is
    /// passed by reference: nothing is boxed or queued, so a warmed-up
    /// call performs **zero heap allocations** on the submission path.
    /// The first panicking chunk's payload is resumed on the caller after
    /// all chunks settled. Runs inline when `workers <= 1`, for a single
    /// chunk, from inside a pool task, or when another thread's `run_for`
    /// currently occupies the (single) job slot.
    pub fn run_for(&'static self, workers: usize, chunks: usize, body: &(dyn Fn(usize) + Sync)) {
        if chunks == 0 {
            return;
        }
        if workers <= 1 || chunks == 1 || IN_POOL.with(|f| f.get()) {
            for i in 0..chunks {
                body(i);
            }
            return;
        }
        self.ensure_workers(workers.min(chunks));
        // SAFETY: erases `body`'s borrow lifetime for storage in the
        // non-generic job descriptor. This call does not return until
        // every registered worker has deregistered (the `active` wait
        // below), so no use of the pointer outlives the borrow.
        let body_erased = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(body)
        };
        let job = ParJob {
            body: body_erased,
            chunks,
            next: AtomicUsize::new(0),
            status: Mutex::new(ForStatus {
                unfinished: chunks,
                active: 0,
                panic: None,
            }),
            done: Condvar::new(),
            ctx: treequery_obs::CaptureHandle::current(),
            cancel: treequery_tree::cancel::current(),
        };
        {
            let mut state = self.state.lock().expect("pool lock poisoned");
            if state.job.is_some() {
                // Another thread's parallel for holds the slot; running
                // inline beats queueing behind it.
                drop(state);
                for i in 0..chunks {
                    body(i);
                }
                return;
            }
            state.job = Some(JobRef(&job));
            self.work_ready.notify_all();
        }
        // Claim and run chunks like any worker. IN_POOL makes nested
        // parallel calls from the body run inline (and was false above).
        IN_POOL.with(|f| f.set(true));
        loop {
            let i = job.next.fetch_add(1, Ordering::Relaxed);
            if i >= chunks {
                break;
            }
            // Same drain rule as `run_worker`: once the submitter's token
            // trips, remaining chunks complete without running.
            let result = catch_unwind(AssertUnwindSafe(|| {
                if job.cancel.as_ref().is_none_or(|t| t.check().is_none()) {
                    body(i)
                }
            }));
            let mut st = job.status.lock().expect("job lock poisoned");
            if let Err(p) = result {
                if st.panic.is_none() {
                    st.panic = Some(p);
                }
            }
            st.unfinished -= 1;
            if st.unfinished == 0 {
                job.done.notify_all();
            }
        }
        IN_POOL.with(|f| f.set(false));
        // Unpublish: registration requires the pool lock, so after this
        // no new worker can join; the ones already registered are counted
        // in `active` and drained below before `job` leaves scope.
        self.state.lock().expect("pool lock poisoned").job = None;
        let panic = {
            let mut st = job.status.lock().expect("job lock poisoned");
            while st.unfinished != 0 || st.active != 0 {
                st = job.done.wait(st).expect("job lock poisoned");
            }
            st.panic.take()
        };
        if let Some(p) = panic {
            resume_unwind(p);
        }
    }

    /// Runs `tasks` on the pool using up to `workers` threads, blocking
    /// until every task has finished, and returns their results in
    /// submission order. The first panicking task's payload is resumed
    /// on the caller after all tasks have settled; the pool itself stays
    /// usable.
    ///
    /// Tasks may borrow from the caller's stack (`'env`): the call does
    /// not return before every task has run, so the borrows stay valid.
    /// With `workers <= 1`, at most one task, or when called from inside
    /// a pool task (nested parallelism), everything runs inline on the
    /// current thread.
    pub fn run_scoped<'env, T: Send + 'env>(
        &'static self,
        workers: usize,
        tasks: Vec<Box<dyn FnOnce() -> T + Send + 'env>>,
    ) -> Vec<T> {
        if workers <= 1 || tasks.len() <= 1 || IN_POOL.with(|f| f.get()) {
            return tasks.into_iter().map(|t| t()).collect();
        }
        self.ensure_workers(workers.min(tasks.len()));

        struct Scope<T> {
            /// `(slots, remaining)`: one result slot per task plus the
            /// count of tasks not yet finished.
            state: Mutex<(Vec<Option<std::thread::Result<T>>>, usize)>,
            done: Condvar,
        }
        let n = tasks.len();
        let mut slots = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let scope: Arc<Scope<T>> = Arc::new(Scope {
            state: Mutex::new((slots, n)),
            done: Condvar::new(),
        });
        // Propagate the submitter's observation context into the workers:
        // task spans nest under the stage span that dispatched them, and
        // task spans and allocations land in the submitting query's
        // capture and stage.
        let ctx = treequery_obs::CaptureHandle::current();
        let cancel = treequery_tree::cancel::current();

        {
            let mut state = self.state.lock().expect("pool lock poisoned");
            for (i, task) in tasks.into_iter().enumerate() {
                let scope = Arc::clone(&scope);
                let ctx = ctx.clone();
                let cancel = cancel.clone();
                let wrapped: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        ctx.run(|| match &cancel {
                            Some(token) => treequery_tree::cancel::with_token(token, task),
                            None => task(),
                        })
                    }));
                    let mut s = scope.state.lock().expect("scope lock poisoned");
                    s.0[i] = Some(result);
                    s.1 -= 1;
                    if s.1 == 0 {
                        scope.done.notify_all();
                    }
                });
                // SAFETY: the task may borrow from `'env`, but this call
                // does not return until `remaining == 0`, i.e. until the
                // task has finished running (panics are caught and stored,
                // never unwound through the queue). No code path between
                // enqueueing and the wait below can panic while holding
                // live `'env` borrows, so the borrow cannot outlive the
                // frame it points into.
                let wrapped: Task = unsafe {
                    std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Task>(wrapped)
                };
                state.queue.push_back(wrapped);
            }
            self.work_ready.notify_all();
        }

        // Help drain the queue while waiting: the caller is otherwise an
        // idle thread, and helping also keeps a single-worker pool from
        // starving when the caller submits more tasks than workers.
        loop {
            {
                let s = scope.state.lock().expect("scope lock poisoned");
                if s.1 == 0 {
                    break;
                }
            }
            let task = {
                let mut state = self.state.lock().expect("pool lock poisoned");
                state.queue.pop_front()
            };
            match task {
                Some(task) => {
                    IN_POOL.with(|f| f.set(true));
                    task();
                    IN_POOL.with(|f| f.set(false));
                }
                None => {
                    let s = scope.state.lock().expect("scope lock poisoned");
                    if s.1 > 0 {
                        // Tasks are in flight on workers; wait for the latch.
                        let _unused = scope
                            .done
                            .wait_timeout(s, std::time::Duration::from_millis(10))
                            .expect("scope lock poisoned");
                    }
                }
            }
        }

        let slots = {
            let mut s = scope.state.lock().expect("scope lock poisoned");
            // `Arc::try_unwrap` could fail here: a worker may still hold
            // its clone for an instant after the final `notify_all`.
            std::mem::take(&mut s.0)
        };
        let mut out = Vec::with_capacity(n);
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for slot in slots {
            match slot.expect("scope latch released with an empty slot") {
                Ok(v) => out.push(v),
                Err(p) => {
                    if panic.is_none() {
                        panic = Some(p);
                    }
                }
            }
        }
        if let Some(p) = panic {
            resume_unwind(p);
        }
        out
    }
}

/// Worker count used when the caller does not fix one: the
/// `TREEQUERY_WORKERS` environment variable if set to a positive
/// integer, otherwise [`std::thread::available_parallelism`].
pub fn default_workers() -> usize {
    // An unparsable (or zero) value falls back to the machine and warns
    // once on stderr — see `treequery_obs::env`.
    if let Some(n) = treequery_obs::env::positive_usize_var("TREEQUERY_WORKERS") {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Observes that tasks really ran (shared across test threads).
    static TEST_RUNS: AtomicUsize = AtomicUsize::new(0);

    fn boxed<T: Send>(
        fs: Vec<impl FnOnce() -> T + Send + 'static>,
    ) -> Vec<Box<dyn FnOnce() -> T + Send + 'static>> {
        fs.into_iter()
            .map(|f| Box::new(f) as Box<dyn FnOnce() -> T + Send>)
            .collect()
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = WorkerPool::global();
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..32usize)
            .map(|i| {
                Box::new(move || {
                    TEST_RUNS.fetch_add(1, Ordering::Relaxed);
                    i * i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let out = pool.run_scoped(4, tasks);
        assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
        assert!(TEST_RUNS.load(Ordering::Relaxed) >= 32);
    }

    #[test]
    fn tasks_may_borrow_from_the_caller() {
        let data: Vec<u64> = (0..1000).collect();
        let slices: Vec<&[u64]> = data.chunks(100).collect();
        let pool = WorkerPool::global();
        let tasks: Vec<Box<dyn FnOnce() -> u64 + Send + '_>> = slices
            .iter()
            .map(|s| {
                let s = *s;
                Box::new(move || s.iter().sum::<u64>()) as Box<dyn FnOnce() -> u64 + Send + '_>
            })
            .collect();
        let sums = pool.run_scoped(4, tasks);
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn a_panicking_task_propagates_and_the_pool_survives() {
        let pool = WorkerPool::global();
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> =
            boxed(vec![|| 1u32, || panic!("chunk exploded"), || 3u32]);
        let err = catch_unwind(AssertUnwindSafe(|| pool.run_scoped(2, tasks))).unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "chunk exploded");
        // The pool is still usable afterwards.
        let out = pool.run_scoped(2, boxed(vec![|| 7u32, || 8u32]));
        assert_eq!(out, vec![7, 8]);
    }

    #[test]
    fn nested_run_scoped_runs_inline_without_deadlock() {
        let pool = WorkerPool::global();
        let tasks: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..8u64)
            .map(|i| {
                Box::new(move || {
                    let inner: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..4u64)
                        .map(|j| Box::new(move || i * 10 + j) as Box<dyn FnOnce() -> u64 + Send>)
                        .collect();
                    WorkerPool::global().run_scoped(4, inner).iter().sum()
                }) as Box<dyn FnOnce() -> u64 + Send>
            })
            .collect();
        let out = pool.run_scoped(2, tasks);
        let expect: Vec<u64> = (0..8u64)
            .map(|i| (0..4u64).map(|j| i * 10 + j).sum())
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn run_for_covers_every_chunk_exactly_once() {
        let pool = WorkerPool::global();
        for workers in [1, 2, 4] {
            let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
            pool.run_for(workers, hits.len(), &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(
                    h.load(Ordering::Relaxed),
                    1,
                    "chunk {i} at {workers} workers"
                );
            }
        }
        // Degenerate shapes.
        pool.run_for(4, 0, &|_| panic!("no chunks, no calls"));
        let one = AtomicUsize::new(0);
        pool.run_for(4, 1, &|i| {
            one.fetch_add(i + 1, Ordering::Relaxed);
        });
        assert_eq!(one.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn run_for_propagates_panics_and_stays_usable() {
        let pool = WorkerPool::global();
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.run_for(2, 8, &|i| {
                if i == 3 {
                    panic!("chunk 3 exploded");
                }
            });
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "chunk 3 exploded");
        let n = AtomicUsize::new(0);
        pool.run_for(2, 8, &|_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn nested_run_for_runs_inline_without_deadlock() {
        let pool = WorkerPool::global();
        let total = AtomicUsize::new(0);
        pool.run_for(4, 8, &|i| {
            // Nested calls (body is already on a pool/claim path) must
            // execute inline instead of touching the single job slot.
            WorkerPool::global().run_for(4, 4, &|j| {
                total.fetch_add(i * 10 + j, Ordering::Relaxed);
            });
        });
        let expect: usize = (0..8)
            .map(|i| (0..4).map(|j| i * 10 + j).sum::<usize>())
            .sum();
        assert_eq!(total.load(Ordering::Relaxed), expect);
    }

    #[test]
    fn default_workers_honours_the_env_knob() {
        // Can't mutate the process env safely under parallel tests; just
        // check the fallback is sane.
        assert!(default_workers() >= 1);
    }
}
