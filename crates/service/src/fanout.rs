//! A tiny persistent fan-out pool for the batch planner's per-shard fills.
//!
//! Why not the rayon shim? Its `scope`-based stages spawn OS threads per
//! invocation — fine for the engine's large offline batches, fatal for a
//! 0-alloc steady-state service path (thread spawn allocates stacks on the
//! submitting thread every call). This pool spawns its helper threads
//! **once** at service construction; submitting a batch afterwards is a
//! mutex hand-off and two condvar signals — no allocation on the
//! submitting thread, ever.
//!
//! Execution model: [`FanoutPool::run`] publishes one job (`n` tasks,
//! one shared `Fn(usize)`), every helper plus the submitting thread claim
//! task indices until none remain, and `run` returns only after all `n`
//! completions are counted — **a structured scope**: the closure reference
//! never escapes `run`'s dynamic extent, which is exactly the invariant
//! the lifetime-erased [`job::JobRef`] island relies on. Task panics are
//! caught, counted as completions (so the scope still closes) and
//! re-raised on the submitting thread once the batch is over.
//!
//! Determinism note: the pool carries none of the batch's randomness —
//! task `k` is data-identical no matter which lane runs it (the planner
//! derives each shard's RNG from a master draw, not from lane identity),
//! so lane count and scheduling cannot change results, only wall-clock.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Lifetime/type erasure for the current job, plus the disjoint-segment
/// derivation — one of the crate's two audited unsafe islands (the other
/// is `reactor::sys`, same pattern).
///
/// Safety argument, shared by everything here:
///
/// * [`JobRef`] erases the lifetime of a `&(dyn Fn(usize) + Sync)` that
///   [`FanoutPool::run`] holds on its stack. `run` publishes the ref,
///   then blocks until every claimed task's completion is counted —
///   including panicked ones (caught) — before returning or unwinding, so
///   no thread can call the closure outside the borrow's real extent. A
///   helper only dereferences between claiming an index (the job was
///   live under the state lock) and reporting completion (which is what
///   `run` waits for).
/// * [`segment`] re-slices a buffer whose `&mut` borrow `run_disjoint`
///   holds across the whole batch; bounds and pairwise disjointness of
///   the segments are validated up front, so concurrent `&mut [usize]`
///   segments never alias.
#[allow(unsafe_code)]
mod job {
    /// A type- and lifetime-erased `&(dyn Fn(usize) + Sync)`.
    #[derive(Clone, Copy)]
    pub(super) struct JobRef(*const (dyn Fn(usize) + Sync + 'static));

    // SAFETY: the pointee is `Sync` (the whole point is calling it from
    // several threads) and the structured-scope protocol above bounds
    // every use to the closure's true lifetime.
    unsafe impl Send for JobRef {}

    impl JobRef {
        /// Erase `f`'s lifetime. Sound only under the pool's
        /// structured-completion protocol (module docs).
        pub(super) fn new(f: &(dyn Fn(usize) + Sync)) -> Self {
            // SAFETY: pure lifetime erasure; the pool keeps the pointer
            // from outliving the borrow (module docs).
            Self(unsafe {
                std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
            })
        }

        /// Call the erased closure for task `k`. Safe per the protocol:
        /// callers hold a claim on `k` inside the job's extent.
        pub(super) fn call(&self, k: usize) {
            // SAFETY: see `new` and the module docs.
            unsafe { (*self.0)(k) }
        }
    }

    /// Derive the `&mut` sub-slice `[start, start+len)` of the buffer at
    /// `base` (passed as an address so closures capturing it stay `Sync`).
    /// Safe per the validation in [`FanoutPool::run_disjoint`]: segments
    /// are in-bounds and pairwise disjoint, and the underlying `&mut`
    /// borrow outlives the batch.
    ///
    /// [`FanoutPool::run_disjoint`]: super::FanoutPool::run_disjoint
    pub(super) fn segment<'a>(base: usize, start: usize, len: usize) -> &'a mut [usize] {
        // SAFETY: bounds and disjointness validated by run_disjoint; the
        // buffer's &mut borrow is held for the whole batch.
        unsafe { std::slice::from_raw_parts_mut((base as *mut usize).add(start), len) }
    }
}

/// The one published batch the lanes are working through.
struct State {
    /// The current job; `None` between batches.
    job: Option<job::JobRef>,
    /// Task count of the current batch.
    n: usize,
    /// Next unclaimed task index.
    next: usize,
    /// Completions counted (including panicked tasks).
    completed: usize,
    /// Whether any task of the current batch panicked.
    panicked: bool,
    /// Pool shutdown (helpers exit).
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Helpers wait here for work.
    work: Condvar,
    /// The submitter waits here for the last completion.
    done: Condvar,
}

fn lock(shared: &Shared) -> MutexGuard<'_, State> {
    // A poisoned lock only means a task panicked outside the catch (it
    // cannot: every call site is wrapped) — recovering is always sound
    // because State is plain bookkeeping.
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The persistent fan-out pool. See the module docs.
pub(crate) struct FanoutPool {
    shared: Arc<Shared>,
    /// Serialises concurrent `run` callers: one batch in flight at a time.
    /// Small batches bypass the pool entirely (planner policy), so this
    /// gate only ever holds back another *large* batch — which would be
    /// competing for the same cores anyway.
    submit: Mutex<()>,
    helpers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for FanoutPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanoutPool")
            .field("lanes", &self.lanes())
            .finish()
    }
}

impl FanoutPool {
    /// A pool with `lanes` total parallel lanes (the submitting thread is
    /// lane 0, so `lanes - 1` helper threads are spawned; `lanes <= 1`
    /// spawns none and every batch runs inline).
    pub(crate) fn start(lanes: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                job: None,
                n: 0,
                next: 0,
                completed: 0,
                panicked: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let helpers = (1..lanes.max(1))
            .map(|lane| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lrb-fanout-{lane}"))
                    .spawn(move || helper_loop(&shared))
                    .expect("spawning a fan-out lane cannot fail")
            })
            .collect();
        Self {
            shared,
            submit: Mutex::new(()),
            helpers,
        }
    }

    /// Total parallel lanes (helpers + the submitting thread).
    pub(crate) fn lanes(&self) -> usize {
        self.helpers.len() + 1
    }

    /// Run tasks `0..n` of `f` across the lanes; returns after all `n`
    /// completed. Allocation-free on the submitting thread. Panics (after
    /// the batch fully completes) if any task panicked.
    pub(crate) fn run(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        if n == 0 {
            return;
        }
        if self.helpers.is_empty() || n == 1 {
            for k in 0..n {
                f(k);
            }
            return;
        }
        let _serial = self.submit.lock().unwrap_or_else(PoisonError::into_inner);
        {
            let mut state = lock(&self.shared);
            state.job = Some(job::JobRef::new(f));
            state.n = n;
            state.next = 0;
            state.completed = 0;
            state.panicked = false;
            self.shared.work.notify_all();
        }
        // The submitting thread is lane 0: claim tasks like any helper,
        // then wait out stragglers. The batch ALWAYS runs to `n` counted
        // completions before this function returns or panics — that is
        // what makes the erased closure reference sound.
        loop {
            let mut state = lock(&self.shared);
            if state.next < n {
                let k = state.next;
                state.next += 1;
                drop(state);
                let ok = catch_unwind(AssertUnwindSafe(|| f(k))).is_ok();
                let mut state = lock(&self.shared);
                state.completed += 1;
                state.panicked |= !ok;
                if state.completed == n {
                    self.shared.done.notify_all();
                }
            } else if state.completed < n {
                drop(
                    self.shared
                        .done
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner),
                );
            } else {
                state.job = None;
                let panicked = state.panicked;
                drop(state);
                assert!(!panicked, "a fan-out task panicked");
                return;
            }
        }
    }

    /// Split `buf` into the given `(start, len)` segments — which must be
    /// ascending, pairwise disjoint and in bounds (the planner's
    /// prefix-sum segments are, by construction) — and run
    /// `f(k, &mut buf[segments[k]])` across the lanes.
    pub(crate) fn run_disjoint(
        &self,
        buf: &mut [usize],
        segments: &[(usize, usize)],
        f: &(dyn Fn(usize, &mut [usize]) + Sync),
    ) {
        let mut previous_end = 0usize;
        for &(start, len) in segments {
            assert!(
                start >= previous_end && len <= buf.len() - start,
                "fan-out segments must be ascending, disjoint and in bounds"
            );
            previous_end = start + len;
        }
        let base = buf.as_mut_ptr() as usize;
        self.run(segments.len(), &|k| {
            let (start, len) = segments[k];
            f(k, job::segment(base, start, len));
        });
    }
}

impl Drop for FanoutPool {
    fn drop(&mut self) {
        {
            let mut state = lock(&self.shared);
            state.shutdown = true;
            self.shared.work.notify_all();
        }
        for helper in self.helpers.drain(..) {
            let _ = helper.join();
        }
    }
}

fn helper_loop(shared: &Shared) {
    let mut state = lock(shared);
    loop {
        if state.shutdown {
            return;
        }
        let claim = match state.job {
            Some(job) if state.next < state.n => {
                let k = state.next;
                state.next += 1;
                Some((job, k, state.n))
            }
            _ => None,
        };
        let Some((job, k, n)) = claim else {
            state = shared
                .work
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        drop(state);
        let ok = catch_unwind(AssertUnwindSafe(|| job.call(k))).is_ok();
        state = lock(shared);
        state.completed += 1;
        state.panicked |= !ok;
        if state.completed == n {
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_task_runs_exactly_once_across_lane_counts() {
        for lanes in [1, 2, 4] {
            let pool = FanoutPool::start(lanes);
            assert_eq!(pool.lanes(), lanes);
            for n in [0usize, 1, 2, 3, 7, 64] {
                let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                pool.run(n, &|k| {
                    hits[k].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "lanes={lanes} n={n}"
                );
            }
        }
    }

    #[test]
    fn disjoint_segments_fill_without_aliasing() {
        let pool = FanoutPool::start(4);
        let mut buf = vec![0usize; 100];
        // Segments with a deliberate gap (the gap stays untouched).
        let segments = [(0usize, 30usize), (30, 20), (60, 40)];
        pool.run_disjoint(&mut buf, &segments, &|k, seg| {
            for slot in seg.iter_mut() {
                *slot = k + 1;
            }
        });
        assert!(buf[..30].iter().all(|&v| v == 1));
        assert!(buf[30..50].iter().all(|&v| v == 2));
        assert!(buf[50..60].iter().all(|&v| v == 0), "gap was written");
        assert!(buf[60..].iter().all(|&v| v == 3));
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_segments_are_rejected() {
        let pool = FanoutPool::start(2);
        let mut buf = vec![0usize; 10];
        pool.run_disjoint(&mut buf, &[(0, 6), (5, 5)], &|_, _| {});
    }

    #[test]
    fn a_panicking_task_closes_the_batch_then_reraises() {
        let pool = FanoutPool::start(3);
        let completed = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(16, &|k| {
                if k == 5 {
                    panic!("task bug");
                }
                completed.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err(), "panic must propagate to the submitter");
        // The scope closed: every non-panicking task still ran, and the
        // pool is reusable afterwards.
        assert_eq!(completed.load(Ordering::Relaxed), 15);
        let after = AtomicUsize::new(0);
        pool.run(4, &|_| {
            after.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(after.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn pool_drop_joins_helpers_cleanly() {
        let pool = FanoutPool::start(4);
        pool.run(8, &|_| {});
        drop(pool); // must not hang
    }
}
