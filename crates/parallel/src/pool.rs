//! A persistent SPMD thread pool.
//!
//! [`ThreadPool::run`] executes one closure on every worker simultaneously —
//! the shape of an `omp parallel` region, which is what the paper's
//! Algorithm 2 is written against. Workers persist across calls so repeated
//! kernel invocations (an MPK is called once per power, per solver
//! iteration) pay no thread-spawn cost.
//!
//! The closure receives the worker id and may borrow the caller's stack:
//! `run` erases the lifetime but does not return until every worker has
//! finished, which is what makes the erasure sound.

use crate::barrier::SenseBarrier;
use crate::poison::{payload_string, FaultCause, Poison, PoisonUnwind, ProgressTable, WorkerFault};
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;

/// Type-erased job pointer. Points at a `&(dyn Fn(usize) + Sync)` that is
/// guaranteed by [`ThreadPool::run`] to outlive its execution.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from many threads are fine)
// and `run` keeps it alive until all workers are done with it.
unsafe impl Send for JobPtr {}

struct State {
    /// Bumped once per `run`; workers trigger on changes.
    epoch: u64,
    job: Option<JobPtr>,
    /// Workers still executing the current job.
    active: usize,
    shutdown: bool,
}

struct Inner {
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
    /// First-fault latch shared with the barrier and any attached
    /// [`crate::BlockFlags`]: a panicked or stalled worker publishes here,
    /// peers observe it inside their waits and unwind.
    poison: Arc<Poison>,
    /// Per-worker progress slots feeding the stall diagnostic dump.
    progress: Arc<ProgressTable>,
}

/// A pool of persistent worker threads executing SPMD regions.
pub struct ThreadPool {
    inner: Arc<Inner>,
    handles: Vec<std::thread::JoinHandle<()>>,
    nthreads: usize,
    barrier: Arc<SenseBarrier>,
    pinned: bool,
}

impl ThreadPool {
    /// Creates a pool with `nthreads` workers (no affinity pinning).
    ///
    /// `nthreads == 1` creates no OS threads: [`ThreadPool::run`] executes
    /// inline, so single-threaded baselines measure pure kernel time.
    ///
    /// # Panics
    /// Panics if `nthreads == 0`.
    pub fn new(nthreads: usize) -> Self {
        Self::with_affinity(nthreads, false)
    }

    /// Creates a pool, optionally pinning workers at startup (see
    /// [`crate::affinity`]). Workers are assigned cores in the NUMA
    /// node-major order of [`crate::numa::NumaTopology::cpu_order`]:
    /// consecutive worker ids pack onto the same node, so contiguous
    /// per-worker data ranges stay node-local; on a single-node machine
    /// the order degrades to `0..cores` and worker `t` lands on core
    /// `t mod cores`, exactly as before. Pinning is best-effort: a
    /// rejected mask leaves the worker floating. The inline single-thread
    /// pool never pins (that would permanently constrain the *caller's*
    /// thread).
    ///
    /// # Panics
    /// Panics if `nthreads == 0`.
    pub fn with_affinity(nthreads: usize, pin: bool) -> Self {
        assert!(nthreads > 0, "pool needs at least one thread");
        let poison = Arc::new(Poison::new());
        let progress = Arc::new(ProgressTable::new(nthreads));
        let inner = Arc::new(Inner {
            state: Mutex::new(State { epoch: 0, job: None, active: 0, shutdown: false }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            poison: Arc::clone(&poison),
            progress: Arc::clone(&progress),
        });
        let mut handles = Vec::new();
        let pinned = pin && nthreads > 1;
        if nthreads > 1 {
            // One sysfs read per pool; empty when not pinning.
            let cpu_order: Arc<Vec<usize>> = Arc::new(if pinned {
                crate::numa::NumaTopology::detect().cpu_order()
            } else {
                Vec::new()
            });
            for tid in 0..nthreads {
                let inner = Arc::clone(&inner);
                let cpu_order = Arc::clone(&cpu_order);
                handles.push(
                    std::thread::Builder::new()
                        .name(format!("fbmpk-worker-{tid}"))
                        .spawn(move || {
                            if pinned && !cpu_order.is_empty() {
                                let core = cpu_order[tid % cpu_order.len()];
                                let _ = crate::affinity::pin_current_thread(core);
                            }
                            worker_loop(&inner, tid)
                        })
                        .expect("spawning pool worker"),
                );
            }
        }
        ThreadPool {
            inner,
            handles,
            nthreads,
            barrier: Arc::new(SenseBarrier::with_poison(nthreads, Some(poison))),
            pinned,
        }
    }

    /// Number of workers.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Whether the workers requested core affinity at startup.
    pub fn pinned(&self) -> bool {
        self.pinned
    }

    /// The pool-wide barrier, sized to `nthreads`. Inside [`ThreadPool::run`]
    /// every worker must participate in each `wait` round (the colored
    /// sweeps call it once per color).
    pub fn barrier(&self) -> &SenseBarrier {
        &self.barrier
    }

    /// The pool's first-fault latch. Plan builders clone it into
    /// [`crate::BlockFlags::attach_runtime`] so point-to-point waits
    /// observe the same poison the barrier does.
    pub fn poison(&self) -> &Arc<Poison> {
        &self.inner.poison
    }

    /// The pool's per-worker progress table (one slot per worker). Kernel
    /// code records compute-unit starts here; the stall watchdog snapshots
    /// it for the diagnostic dump.
    pub fn progress(&self) -> &Arc<ProgressTable> {
        &self.inner.progress
    }

    /// Executes `f(thread_id)` on every worker and blocks until all return.
    ///
    /// Calls are serialized: a second `run` waits for the first. A worker
    /// fault (panic, or watchdog stall) is re-raised here as a panic in
    /// the calling thread; use [`ThreadPool::try_run`] to receive it as a
    /// value instead.
    pub fn run(&self, f: &(dyn Fn(usize) + Sync)) {
        if let Err(fault) = self.try_run(f) {
            match fault.cause {
                FaultCause::Panic { payload } => {
                    panic!("fbmpk-parallel: worker {} panicked: {payload}", fault.thread)
                }
                FaultCause::Stall { block, epoch, waited_ms, dump } => panic!(
                    "fbmpk-parallel: worker {} stalled {waited_ms} ms on block {block} \
                     epoch {epoch}\n{dump}",
                    fault.thread
                ),
            }
        }
    }

    /// Executes `f(thread_id)` on every worker; returns the first worker
    /// fault instead of panicking.
    ///
    /// Fault recovery contract: when any worker panics or a watchdog
    /// deadline expires, the fault is published to the pool's poison latch;
    /// every peer blocked in [`SenseBarrier::wait`] or a runtime-attached
    /// [`crate::BlockFlags`] wait observes it and unwinds, so the region
    /// always drains. `try_run` then clears the poison, resets the barrier,
    /// and returns `Err(fault)` — the pool is immediately reusable. Workers
    /// wedged in non-waiting code (an infinite loop in `f`) are out of
    /// scope: nothing can unwind a thread that never checks.
    pub fn try_run(&self, f: &(dyn Fn(usize) + Sync)) -> Result<(), WorkerFault> {
        if self.nthreads == 1 {
            // Inline on the caller's thread, but serialized like the
            // worker path: concurrent callers share the barrier, the
            // poison latch and any attached flag table.
            let _serial = self.inner.state.lock();
            self.inner.progress.clear();
            return match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(0))) {
                Ok(()) => match self.inner.poison.take() {
                    None => Ok(()),
                    Some(fault) => Err(fault),
                },
                Err(payload) => Err(self.inline_fault(payload)),
            };
        }
        // SAFETY: we erase the lifetime of `f` to store it in the shared
        // state. `try_run` does not return until `active == 0`, i.e. every
        // worker has finished calling it, so the reference never dangles.
        let ptr: JobPtr = JobPtr(unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(f)
        });
        let mut st = self.inner.state.lock();
        // Serialize concurrent callers: wait until any in-flight job has
        // fully drained before posting ours (the doc promise above).
        while st.active > 0 {
            self.inner.done_cv.wait(&mut st);
        }
        // No workers are active and we hold the lock: safe to reset the
        // observation state left by a previous (possibly faulted) run.
        self.inner.progress.clear();
        st.job = Some(ptr);
        st.active = self.nthreads;
        st.epoch += 1;
        self.inner.work_cv.notify_all();
        while st.active > 0 {
            self.inner.done_cv.wait(&mut st);
        }
        st.job = None;
        // Collect any fault and repair the barrier *before* handing the
        // baton to a concurrent caller, so the next run starts clean.
        let fault = self.inner.poison.take();
        if fault.is_some() {
            self.barrier.reset();
        }
        // A concurrent caller may be blocked in the serialization wait
        // above; done_cv woke only one waiter, so pass the baton.
        self.inner.done_cv.notify_one();
        drop(st);
        match fault {
            None => Ok(()),
            Some(fault) => Err(fault),
        }
    }

    /// Converts a payload caught on the inline (single-thread) path into a
    /// [`WorkerFault`]: a [`PoisonUnwind`] sentinel means the detail is in
    /// the poison latch (watchdog stalls publish before unwinding);
    /// anything else is the original panic.
    fn inline_fault(&self, payload: Box<dyn std::any::Any + Send>) -> WorkerFault {
        let latched = self.inner.poison.take();
        if payload.downcast_ref::<PoisonUnwind>().is_some() {
            if let Some(fault) = latched {
                return fault;
            }
        }
        let site = self.inner.progress.snapshot(0).site;
        WorkerFault {
            thread: 0,
            color: site.map(|(c, _)| c),
            block: site.and_then(|(_, b)| b),
            cause: FaultCause::Panic { payload: payload_string(payload.as_ref()) },
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock();
            st.shutdown = true;
            self.inner.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: &Inner, tid: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = inner.state.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    break st.job.expect("epoch advanced without a job");
                }
                inner.work_cv.wait(&mut st);
            }
        };
        // SAFETY: `try_run` keeps the closure alive until `active` reaches
        // 0, which we only signal after the call returns.
        let f = unsafe { &*job.0 };
        if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(tid))) {
            // A PoisonUnwind sentinel is a peer escaping an already-
            // published fault; anything else is the original panic and
            // must be published so waiting peers unwind too.
            if payload.downcast_ref::<PoisonUnwind>().is_none() {
                let site = inner.progress.snapshot(tid).site;
                inner.poison.publish(WorkerFault {
                    thread: tid,
                    color: site.map(|(c, _)| c),
                    block: site.and_then(|(_, b)| b),
                    cause: FaultCause::Panic { payload: payload_string(payload.as_ref()) },
                });
            }
        }
        let mut st = inner.state.lock();
        st.active -= 1;
        if st.active == 0 {
            inner.done_cv.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn all_workers_run_once() {
        for t in [1, 2, 4, 7] {
            let pool = ThreadPool::new(t);
            let hits = AtomicUsize::new(0);
            let ids = Mutex::new(Vec::new());
            pool.run(&|tid| {
                hits.fetch_add(1, Ordering::Relaxed);
                ids.lock().push(tid);
            });
            assert_eq!(hits.load(Ordering::Relaxed), t);
            let mut got = ids.into_inner();
            got.sort_unstable();
            assert_eq!(got, (0..t).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_borrows_stack_data() {
        let pool = ThreadPool::new(3);
        let data = vec![0usize; 3];
        let cell = Mutex::new(data);
        pool.run(&|tid| {
            cell.lock()[tid] = tid * 10;
        });
        assert_eq!(cell.into_inner(), vec![0, 10, 20]);
    }

    #[test]
    fn repeated_runs_reuse_workers() {
        let pool = ThreadPool::new(4);
        let sum = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.run(&|tid| {
                sum.fetch_add(tid + 1, Ordering::Relaxed);
            });
        }
        assert_eq!(sum.load(Ordering::Relaxed), 100 * (1 + 2 + 3 + 4));
    }

    #[test]
    fn barrier_coordinates_inside_run() {
        let pool = ThreadPool::new(4);
        let stage = AtomicUsize::new(0);
        let errors = AtomicUsize::new(0);
        pool.run(&|_tid| {
            stage.fetch_add(1, Ordering::SeqCst);
            pool.barrier().wait();
            // After the barrier every increment must be visible.
            if stage.load(Ordering::SeqCst) != 4 {
                errors.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(errors.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn concurrent_run_calls_serialize() {
        // Two threads hammer run() on a shared pool; the per-call counter
        // sum must be exact — lost updates would reveal overlapping jobs.
        let pool = std::sync::Arc::new(ThreadPool::new(3));
        let total = std::sync::Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let pool = std::sync::Arc::clone(&pool);
                let total = std::sync::Arc::clone(&total);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        pool.run(&|_| {
                            total.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total.load(Ordering::SeqCst), 2 * 50 * 3);
    }

    #[test]
    fn single_thread_runs_inline() {
        let pool = ThreadPool::new(1);
        let mut x = 0;
        let cell = Mutex::new(&mut x);
        pool.run(&|_| {
            **cell.lock() += 1;
        });
        assert_eq!(x, 1);
        assert_eq!(pool.nthreads(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_threads_panics() {
        ThreadPool::new(0);
    }

    #[test]
    fn worker_panic_is_isolated_and_pool_reusable() {
        let pool = ThreadPool::new(4);
        let err = pool
            .try_run(&|tid| {
                if tid == 2 {
                    panic!("injected failure");
                }
                // Peers block on the poisoned barrier: they must unwind,
                // not spin forever behind the dead worker.
                pool.barrier().wait();
            })
            .expect_err("the fault must surface");
        assert_eq!(err.thread, 2);
        match err.cause {
            FaultCause::Panic { payload } => assert!(payload.contains("injected failure")),
            other => panic!("expected a panic fault, got {other:?}"),
        }
        // The pool must be immediately reusable, barrier included.
        for _ in 0..3 {
            let hits = AtomicUsize::new(0);
            pool.run(&|_tid| {
                hits.fetch_add(1, Ordering::Relaxed);
                pool.barrier().wait();
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 8);
        }
    }

    #[test]
    fn panic_without_waiting_peers_still_drains() {
        // Peers finish without ever waiting: the faulted region must still
        // drain and report, and clean runs must still succeed after.
        let pool = ThreadPool::new(3);
        let err = pool
            .try_run(&|tid| {
                if tid == 0 {
                    panic!("early death");
                }
            })
            .expect_err("fault must surface");
        assert_eq!(err.thread, 0);
        pool.run(&|_| {});
    }

    #[test]
    fn inline_pool_reports_panic_as_fault() {
        let pool = ThreadPool::new(1);
        let err = pool.try_run(&|_| panic!("solo failure")).expect_err("fault must surface");
        assert_eq!(err.thread, 0);
        match err.cause {
            FaultCause::Panic { payload } => assert!(payload.contains("solo failure")),
            other => panic!("expected a panic fault, got {other:?}"),
        }
        let hits = AtomicUsize::new(0);
        pool.run(&|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    #[should_panic(expected = "worker 0 panicked")]
    fn run_repanics_on_worker_fault() {
        ThreadPool::new(1).run(&|_| panic!("boom"));
    }

    #[test]
    fn fault_site_comes_from_progress_table() {
        let pool = ThreadPool::new(2);
        let err = pool
            .try_run(&|tid| {
                pool.progress().set_site(tid, 5, Some(tid as u32));
                if tid == 1 {
                    panic!("sited failure");
                }
                pool.barrier().wait();
            })
            .expect_err("fault must surface");
        assert_eq!(err.thread, 1);
        assert_eq!(err.color, Some(5));
        assert_eq!(err.block, Some(1));
    }

    #[test]
    fn pinned_pool_runs_correctly() {
        // Affinity is best-effort; whatever the kernel decided, the pool
        // must still execute every worker.
        let pool = ThreadPool::with_affinity(4, true);
        assert!(pool.pinned());
        let hits = AtomicUsize::new(0);
        for _ in 0..10 {
            pool.run(&|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(hits.load(Ordering::Relaxed), 40);
        // The inline single-thread pool never pins the caller.
        assert!(!ThreadPool::with_affinity(1, true).pinned());
        assert!(!ThreadPool::new(3).pinned());
    }
}
