//! The workspace's one worker pool: persistent threads, started when a
//! parallel call first needs one and parked while idle.
//!
//! A call puts its parts (a kernel's row panels or `tsmm` blocks, or
//! `parfor`'s worker tasks) behind a claim counter, hands a job to parked
//! workers, and claims parts itself. It waits only for parts a worker has
//! already claimed; a worker that comes late finds nothing left. A kernel
//! call ([`for_each_part`]) starts a thread only while the pool has fewer
//! than `threads - 1`, so with every worker busy the caller runs all of its
//! parts. [`fork_join`]'s tasks may wait on one another (cache
//! placeholders), so each gets a thread, started if no worker is parked.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::*};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, Thread};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A parked worker: the slot its next job goes in, and its wake handle.
struct Worker(Thread, Mutex<Option<Job>>);

/// Parked workers, the most recently parked (warmest caches) last.
static IDLE: Mutex<Vec<Arc<Worker>>> = Mutex::new(Vec::new());
static STARTED: AtomicUsize = AtomicUsize::new(0);

/// Threads the pool has started in this process; none exits.
pub fn threads_started() -> usize {
    STARTED.load(Relaxed)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Starts a worker whose first job is `job` (jobs never unwind).
fn spawn(mut job: Job) -> bool {
    let worker = move || {
        let me = Arc::new(Worker(thread::current(), Mutex::new(None)));
        loop {
            job();
            lock(&IDLE).push(Arc::clone(&me));
            // Take the job before parking: never park holding the lock.
            job = loop {
                let next = lock(&me.1).take();
                match next {
                    Some(next) => break next,
                    None => thread::park(),
                }
            };
        }
    };
    let spawned = thread::Builder::new()
        .name("lima-pool".into())
        .spawn(worker);
    spawned.map(|_| STARTED.fetch_add(1, Relaxed)).is_ok()
}

/// One call's parts, shared with the workers that join it.
struct Parts {
    /// The next part to claim; past `total` once the owner stops waiting.
    next: AtomicUsize,
    total: usize,
    /// Claimed parts that have ended.
    done: AtomicUsize,
    /// Runs part `i` on the owner's borrowed stack; called only under a
    /// claim `i < total`, which the owner waits for.
    run: *const (dyn Fn(usize) + Sync + 'static),
    owner: Thread,
    /// The lowest-numbered part that panicked, with its message.
    panic: Mutex<Option<(usize, String)>>,
}

// SAFETY: `run` is a `Sync` closure, called only under a claim the owner
// waits for; every other field is thread-safe.
unsafe impl Send for Parts {}
unsafe impl Sync for Parts {}

impl Parts {
    /// Claims and runs parts until none is left; returns how many it ran.
    fn work(&self) -> usize {
        let mut ran = 0;
        loop {
            let i = self.next.fetch_add(1, Relaxed);
            if i >= self.total {
                return ran;
            }
            // SAFETY: a claim `i < total`; `Close` keeps `run` alive until
            // `done` counts it.
            let run = unsafe { &*self.run };
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| run(i))) {
                let mut first = lock(&self.panic);
                if first.as_ref().is_none_or(|(j, _)| i < *j) {
                    *first = Some((i, panic_message(p.as_ref())));
                }
            }
            self.done.fetch_add(1, Release);
            ran += 1;
        }
    }
}

/// On drop (an unwind too), ends claiming and waits until every claimed part
/// is done; a worker that ran parts unparks the owner after its last one.
struct Close<'a>(&'a Parts);

impl Drop for Close<'_> {
    fn drop(&mut self) {
        let claimed = self.0.next.swap(usize::MAX / 2, Relaxed).min(self.0.total);
        for spins in 0.. {
            if self.0.done.load(Acquire) >= claimed {
                return;
            }
            match spins {
                ..64 => std::hint::spin_loop(),
                _ => thread::park(),
            }
        }
    }
}

/// Runs `f(i, &mut parts[i])` for every part on the calling thread and up to
/// `helpers` workers, starting threads while the pool has fewer than
/// `grow_to`. The first panic by part order comes back as `Err`.
fn run_parts<T: Send>(
    parts: &mut [T],
    helpers: usize,
    grow_to: usize,
    f: impl Fn(usize, &mut T) + Sync,
) -> Result<(), String> {
    let base = parts.as_mut_ptr().expose_provenance();
    // SAFETY: `work` hands each index below `parts.len()` to one thread, so
    // each `&mut` part is unique; `T: Send` lets it move to that thread.
    let run = move |i: usize| {
        f(i, unsafe {
            &mut *std::ptr::with_exposed_provenance_mut::<T>(base).add(i)
        })
    };
    let run: *const (dyn Fn(usize) + Sync + '_) = &run;
    let shared = Arc::new(Parts {
        next: AtomicUsize::new(0),
        total: parts.len(),
        done: AtomicUsize::new(0),
        // SAFETY: only the lifetime is erased. `Close` holds this frame, and
        // with it `run`, `f` and `parts`, until every claimed part is done,
        // and no part can be claimed after it.
        run: unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(run)
        },
        owner: thread::current(),
        panic: Mutex::new(None),
    });
    {
        let _close = Close(&shared);
        let job = || -> Job {
            let parts = Arc::clone(&shared);
            Box::new(move || {
                if parts.work() > 0 {
                    parts.owner.unpark();
                }
            })
        };
        let mut helpers = helpers.min(parts.len().saturating_sub(1));
        while let Some(worker) = (helpers > 0).then(|| lock(&IDLE).pop()).flatten() {
            *lock(&worker.1) = Some(job());
            worker.0.unpark();
            helpers -= 1;
        }
        let grow = helpers.min(grow_to.saturating_sub(threads_started()));
        let _ = (0..grow).try_for_each(|_| spawn(job()).then_some(()));
        shared.work();
    }
    let first = lock(&shared.panic).take();
    first.map_or(Ok(()), |(_, msg)| Err(msg))
}

/// Runs `f(i, &mut parts[i])` for every part, on the calling thread and up
/// to `threads - 1` pool workers. Each part runs on exactly one thread, so no
/// partition changes what `f` computes. A panic in a part (the caller's own
/// too) is caught, and the first by part order comes back as `Err` once
/// every part has run.
pub fn for_each_part<T: Send>(
    parts: &mut [T],
    threads: usize,
    f: impl Fn(usize, &mut T) + Sync,
) -> Result<(), String> {
    let helpers = threads.saturating_sub(1);
    run_parts(parts, helpers, helpers, f)
}

/// Runs every task on a thread of its own, the caller's among them, and
/// returns their results in task order. A task that panics yields `Err`
/// with the rendered payload in its slot; its siblings still run, and every
/// task has ended before this returns.
pub fn fork_join<T: Send, F>(tasks: impl IntoIterator<Item = F>) -> Vec<Result<T, String>>
where
    F: FnOnce() -> T + Send,
{
    let mut slots: Vec<_> = tasks.into_iter().map(|task| (Some(task), None)).collect();
    // No part panics: each catches its task's panic.
    let _ = run_parts(&mut slots, usize::MAX, usize::MAX, |_, (task, out)| {
        let ran = task.take().map(|t| catch_unwind(AssertUnwindSafe(t)));
        *out = ran.map(|r| r.map_err(|p| panic_message(p.as_ref())));
    });
    let missing = || Err("task did not run".to_string());
    slots
        .into_iter()
        .map(|(_, out)| out.unwrap_or_else(missing))
        .collect()
}

/// Renders a panic payload (usually a `&str` or `String`) for the
/// `WorkerPanic` errors of this workspace.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn results_arrive_in_task_order_whatever_the_finish_order() {
        // Task k cannot finish before task k+1 has: completion order is the
        // reverse of task order, the results are not. This also needs all
        // four running at once: a task queued behind a sibling would hang.
        let n = 4;
        let gates: Vec<Barrier> = (0..n).map(|_| Barrier::new(2)).collect();
        let out = fork_join((0..n).map(|k| {
            let gates = &gates;
            move || {
                if k + 1 < n {
                    gates[k + 1].wait();
                }
                if k > 0 {
                    gates[k].wait();
                }
                k * 10
            }
        }));
        assert_eq!(out, vec![Ok(0), Ok(10), Ok(20), Ok(30)]);
    }

    #[test]
    fn a_panicking_task_is_reported_in_its_slot_and_siblings_are_joined() {
        let finished = AtomicUsize::new(0);
        let start = Barrier::new(3);
        let out = fork_join((0..3).map(|k| {
            let (finished, start) = (&finished, &start);
            move || {
                // All three are running before any of them panics or ends.
                start.wait();
                if k == 1 {
                    panic!("boom in worker {k}");
                }
                finished.fetch_add(1, Ordering::SeqCst);
                k
            }
        }));
        assert_eq!(out[0], Ok(0));
        assert_eq!(out[1], Err("boom in worker 1".to_string()));
        assert_eq!(out[2], Ok(2));
        assert_eq!(finished.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn tasks_may_borrow_disjoint_mutable_slices() {
        let mut data = vec![0u32; 10];
        let out = fork_join(data.chunks_mut(4).enumerate().map(|(t, chunk)| {
            move || {
                chunk.fill(t as u32 + 1);
                chunk.len()
            }
        }));
        assert_eq!(out, vec![Ok(4), Ok(4), Ok(2)]);
        assert_eq!(data, [1, 1, 1, 1, 2, 2, 2, 2, 3, 3]);
        assert!(fork_join(Vec::<fn() -> u8>::new()).is_empty());
    }

    #[test]
    fn every_part_runs_once_and_the_first_panic_by_part_order_wins() {
        let mut parts: Vec<u32> = vec![0; 37];
        for_each_part(&mut parts, 3, |i, p| *p += i as u32 + 1).unwrap();
        assert!(parts.iter().enumerate().all(|(i, p)| *p == i as u32 + 1));
        // Parts 5 and 20 panic, whoever runs them (the caller claims part 0
        // first, so one of them may be its own); the others still run.
        let mut parts: Vec<u32> = vec![0; 37];
        let r = for_each_part(&mut parts, 3, |i, p| {
            if i == 5 || i == 20 {
                panic!("part {i}");
            }
            *p = 1;
        });
        assert_eq!(r, Err("part 5".to_string()));
        assert_eq!(parts.iter().sum::<u32>(), 35);
        // The caller claims a part right after asking for help, and a helper
        // holds one 2 ms part at a time: the caller runs at least one.
        let caller = std::thread::current().id();
        let r = for_each_part(&mut parts, 2, |_, _| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            assert!(std::thread::current().id() != caller, "caller's part");
        });
        assert_eq!(r, Err("caller's part".to_string()));
    }

    #[test]
    fn panic_messages_extract_common_payloads() {
        let p = std::panic::catch_unwind(|| panic!("static str")).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "static str");
        let p = std::panic::catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "formatted 7");
        let p = std::panic::catch_unwind(|| std::panic::panic_any(42i32)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "opaque panic payload");
    }
}
