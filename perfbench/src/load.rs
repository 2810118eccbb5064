//! Open-loop and closed-loop load over keep-alive
//! connections, one client thread per connection.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::client::Conn;

/// Sends request `i` of a lane (open loop) or the worker's next
/// request (closed loop) on the given connection; `true` when the
/// response was correct.
pub type Fire<'a> = dyn Fn(usize, &mut Conn) -> bool + Sync + 'a;

/// One open-loop arrival stream and the connections that serve it.
pub struct Lane<'a> {
    /// Intended send times, nanoseconds after the phase start.
    pub schedule: Vec<u64>,
    /// Connections (= client threads) taking this lane's requests.
    pub conns: usize,
    /// Sends request `i` of the lane.
    pub fire: &'a Fire<'a>,
}

/// What happened to one open-loop request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time minus intended send time; `u64::MAX` when the
    /// request failed (a failure misses every latency limit).
    pub latency_ns: u64,
    /// Actual send time minus intended send time.
    pub late_ns: u64,
    /// Requests already due but not yet sent when this one went out.
    pub backlog: usize,
}

/// Runs the lanes together from one start instant. Each lane's
/// requests go out in schedule order, each on the first free
/// connection; latency is timed from the intended send time, so a stall
/// also charges the requests queued behind it. Returns each lane's
/// samples in schedule order.
pub fn open_loop(addr: &str, lanes: &[Lane]) -> Vec<Vec<Sample>> {
    let start = Instant::now() + Duration::from_millis(5);
    let cursors: Vec<AtomicUsize> = lanes.iter().map(|_| AtomicUsize::new(0)).collect();
    let per_thread: Vec<(usize, Vec<(usize, Sample)>)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (l, lane) in lanes.iter().enumerate() {
            for _ in 0..lane.conns {
                let cursor = &cursors[l];
                handles.push(scope.spawn(move || {
                    let mut conn = Conn::new(addr);
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&offset) = lane.schedule.get(i) else {
                            return (l, out);
                        };
                        let due = start + Duration::from_nanos(offset);
                        wait_until(due);
                        let sent = Instant::now();
                        let now_offset = (sent - start).as_nanos() as u64;
                        let backlog = lane
                            .schedule
                            .partition_point(|&t| t <= now_offset)
                            .saturating_sub(i + 1);
                        let ok = (lane.fire)(i, &mut conn);
                        let latency_ns = if ok {
                            due.elapsed().as_nanos() as u64
                        } else {
                            u64::MAX
                        };
                        let late_ns = (sent - due).as_nanos() as u64;
                        out.push((
                            i,
                            Sample {
                                latency_ns,
                                late_ns,
                                backlog,
                            },
                        ));
                    }
                }));
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop client thread panicked"))
            .collect()
    });
    let mut lanes_out: Vec<Vec<Option<Sample>>> =
        lanes.iter().map(|l| vec![None; l.schedule.len()]).collect();
    for (l, samples) in per_thread {
        for (i, s) in samples {
            lanes_out[l][i] = Some(s);
        }
    }
    lanes_out
        .into_iter()
        .map(|v| {
            v.into_iter()
                .map(|s| s.expect("every scheduled request was sent"))
                .collect()
        })
        .collect()
}

/// Sleeps until shortly before `due`, then yields until it passes, so
/// requests leave close to their intended time without a busy spin.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Completions of one closed-loop worker.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Correct completions (failures are counted by the caller).
    pub ok: u64,
    /// Seconds the worker was sending (it stops early when its inputs run
    /// out).
    pub active_s: f64,
}

/// Closed loop: `workers` connections, each sending its next request as
/// soon as the previous one completes, for `seconds`. `next(w, conn)`
/// sends worker `w`'s next request and returns `None` when the worker's
/// inputs are exhausted.
pub fn closed_loop(
    addr: &str,
    workers: usize,
    seconds: f64,
    next: &(dyn Fn(usize, &mut Conn) -> Option<bool> + Sync),
) -> Vec<Tally> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut conn = Conn::new(addr);
                    let mut tally = Tally::default();
                    while Instant::now() < deadline {
                        match next(w, &mut conn) {
                            Some(ok) => tally.ok += u64::from(ok),
                            None => break,
                        }
                    }
                    tally.active_s = start.elapsed().as_secs_f64();
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client thread panicked"))
            .collect()
    })
}

/// Whether the backlog of due-but-unsent requests grew through the
/// phase: the median backlog over the last quarter of the requests
/// exceeds that of the first quarter by more than two per connection.
pub fn backlog_grew(samples: &[Sample], conns: usize) -> bool {
    let n = samples.len();
    if n < 8 {
        return false;
    }
    let quarter_median = |part: &[Sample]| {
        let mut b: Vec<usize> = part.iter().map(|s| s.backlog).collect();
        b.sort_unstable();
        b[b.len() / 2]
    };
    let first = quarter_median(&samples[..n / 4]);
    let last = quarter_median(&samples[n - n / 4..]);
    last > first + 2 * conns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(backlog: usize) -> Sample {
        Sample {
            latency_ns: 1,
            late_ns: 0,
            backlog,
        }
    }

    #[test]
    fn steady_backlog_is_not_growth() {
        let s: Vec<Sample> = (0..100).map(|i| sample(i % 3)).collect();
        assert!(!backlog_grew(&s, 2));
    }

    #[test]
    fn rising_backlog_is_growth() {
        let s: Vec<Sample> = (0..100).map(sample).collect();
        assert!(backlog_grew(&s, 2));
    }
}
