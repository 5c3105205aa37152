//! The pool in one process of its own: nothing starts before the first
//! parallel call, and a kernel call whose helpers are all busy in another
//! long task finishes on its own thread and starts no new one.

use lima_matrix::pool::{for_each_part, fork_join, threads_started};
use std::sync::Barrier;

#[test]
fn a_kernel_call_finishes_while_every_helper_is_busy() {
    assert_eq!(
        threads_started(),
        0,
        "a pool thread started with the process"
    );
    // Four long tasks (three on pool threads, one on the calling thread)
    // hold until the kernel call below has returned: no helper is parked,
    // and the pool already has the `threads - 1 = 3` threads a 4-wide
    // kernel call would start.
    let (started, release) = (Barrier::new(5), Barrier::new(5));
    std::thread::scope(|s| {
        s.spawn(|| {
            let out = fork_join((0..4).map(|_| {
                let (started, release) = (&started, &release);
                move || {
                    started.wait();
                    release.wait();
                }
            }));
            assert!(out.iter().all(Result::is_ok));
        });
        started.wait();
        assert_eq!(threads_started(), 3);
        let mut parts = vec![0u32; 64];
        for_each_part(&mut parts, 4, |i, p| *p = i as u32 + 1).expect("no part panics");
        assert!(parts.iter().enumerate().all(|(i, p)| *p == i as u32 + 1));
        assert_eq!(threads_started(), 3, "a busy pool grew for a kernel call");
        release.wait();
    });
    // Parked again, the three join the next call; none is added.
    let mut parts = vec![0u8; 64];
    for_each_part(&mut parts, 4, |_, p| *p = 1).expect("no part panics");
    assert!(parts.iter().all(|p| *p == 1));
    assert_eq!(threads_started(), 3);
}
