//! Pool helpers are long-lived: repeated batches reuse the same parked
//! threads instead of spawning new ones. This test sits in its own
//! binary because the pool is process-wide — other tests running
//! beside it could widen the pool and hand a batch to more helpers.

use std::collections::HashSet;

use wp_runtime::{par_map_indexed, with_thread_count};

#[test]
fn batches_reuse_the_same_helper_threads() {
    let caller = std::thread::current().id();
    let mut seen = HashSet::new();
    with_thread_count(2, || {
        for _ in 0..100 {
            seen.extend(par_map_indexed(64, |_| std::thread::current().id()));
        }
    });
    let helpers: Vec<_> = seen.iter().filter(|&&id| id != caller).collect();
    assert!(
        helpers.len() <= 1,
        "a width-2 pool ran tasks on {} distinct helper threads",
        helpers.len()
    );
}
