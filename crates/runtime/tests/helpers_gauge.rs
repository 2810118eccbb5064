//! The `wp_runtime_helpers` gauge reports how many helper threads the
//! pool holds, and registers nothing while observability is off. This
//! test sits in its own binary because both the pool and the metrics
//! registry are process-wide.

use wp_runtime::{par_map_indexed, with_thread_count};

fn helpers_gauge() -> Option<u64> {
    wp_obs::snapshot()
        .gauges
        .into_iter()
        .find(|(name, _)| name == "wp_runtime_helpers")
        .map(|(_, value)| value)
}

#[test]
fn helpers_gauge_follows_pool_growth_only_when_enabled() {
    let n = 64;
    let expected: Vec<usize> = (0..n).collect();

    // Disabled means gone: growing the pool registers no series.
    assert_eq!(with_thread_count(2, || par_map_indexed(n, |i| i)), expected);
    assert_eq!(helpers_gauge(), None);

    wp_obs::enable();
    assert_eq!(with_thread_count(3, || par_map_indexed(n, |i| i)), expected);
    assert_eq!(helpers_gauge(), Some(2), "a width-3 batch needs 2 helpers");

    // The pool never shrinks, so a narrower batch leaves the gauge as is.
    assert_eq!(with_thread_count(2, || par_map_indexed(n, |i| i)), expected);
    assert_eq!(helpers_gauge(), Some(2));
}
