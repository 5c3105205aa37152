//! The workspace's one fork-join: run a handful of closures on scoped
//! threads, join every one, hand the results back in task order.
//!
//! GEMM row panels, `tsmm` row blocks ([`crate::ops::matmult`]) and `parfor`
//! workers (`lima-runtime`) all fan out through [`fork_join`], so thread
//! creation and panic capture live in one place — the seam a persistent
//! worker pool would replace. Partitioning stays with the callers: the
//! helper spawns exactly one thread per task it is given.

use std::any::Any;

/// Runs every task on its own scoped thread and returns their results in
/// task order. A task that panics yields `Err` with the rendered payload in
/// its slot; its siblings still run to completion and every thread is joined
/// before this returns, so no panic unwinds into the caller.
///
/// Tasks are spawned as the iterator yields them, so a caller can build each
/// one just before it starts.
pub fn fork_join<T, F>(tasks: impl IntoIterator<Item = F>) -> Vec<Result<T, String>>
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    std::thread::scope(|s| {
        let handles: Vec<_> = tasks.into_iter().map(|task| s.spawn(task)).collect();
        // Join every worker explicitly: the scope would re-raise the panic
        // of an unjoined child and take the caller down with it.
        handles
            .into_iter()
            .map(|h| h.join().map_err(|p| panic_message(p.as_ref())))
            .collect()
    })
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
        // reverse of task order, the results are not.
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
    fn panic_messages_extract_common_payloads() {
        let p = std::panic::catch_unwind(|| panic!("static str")).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "static str");
        let p = std::panic::catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "formatted 7");
        let p = std::panic::catch_unwind(|| std::panic::panic_any(42i32)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "opaque panic payload");
    }
}
