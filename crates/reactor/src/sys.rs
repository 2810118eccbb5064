//! Raw syscall wrappers for the reactor: `epoll(7)` on Linux, the
//! portable `poll(2)` everywhere else on Unix, and `RLIMIT_NOFILE`
//! manipulation so a process can actually hold thousands of sockets.
//!
//! std already links the platform C library, so plain `extern "C"`
//! declarations are enough — no external crate is pulled in.

#[cfg(unix)]
use std::io;
#[cfg(unix)]
use std::time::Duration;

/// Converts a wait budget to the millisecond argument `epoll_wait` and
/// `poll` take: `None` blocks forever, sub-millisecond budgets round up
/// so a pending deadline never turns into a busy spin.
#[cfg(unix)]
pub(crate) fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(t) if t.is_zero() => 0,
        Some(t) => t.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32,
    }
}

#[cfg(target_os = "linux")]
pub(crate) mod epoll {
    use std::io;
    use std::os::raw::c_int;

    pub(crate) const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub(crate) const EPOLL_CTL_ADD: c_int = 1;
    pub(crate) const EPOLL_CTL_DEL: c_int = 2;
    pub(crate) const EPOLL_CTL_MOD: c_int = 3;
    pub(crate) const EPOLLIN: u32 = 0x1;
    pub(crate) const EPOLLOUT: u32 = 0x4;
    pub(crate) const EPOLLERR: u32 = 0x8;
    pub(crate) const EPOLLHUP: u32 = 0x10;

    /// Mirrors the kernel's `struct epoll_event`. On x86-64 the ABI
    /// packs `data` directly after `events`; other architectures use
    /// natural alignment.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub(crate) struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    pub(crate) fn create() -> io::Result<c_int> {
        // SAFETY: `epoll_create1` takes a flags integer and touches no
        // caller memory; a negative return is handled below.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(fd)
    }

    pub(crate) fn ctl(epfd: c_int, op: c_int, fd: c_int, events: u32, data: u64) -> io::Result<()> {
        let mut event = EpollEvent { events, data };
        let event_ptr = if op == EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut event as *mut EpollEvent
        };
        // SAFETY: `event_ptr` is null only for `EPOLL_CTL_DEL`, which
        // ignores it; otherwise it points at `event`, a live, properly
        // laid out `epoll_event` the kernel only reads during the call.
        if unsafe { epoll_ctl(epfd, op, fd, event_ptr) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    pub(crate) fn wait(
        epfd: c_int,
        buf: &mut [EpollEvent],
        timeout_ms: c_int,
    ) -> io::Result<usize> {
        loop {
            // SAFETY: the kernel writes at most `maxevents` entries into
            // `buf`, and `maxevents` is `buf.len()`, so every write stays
            // inside the exclusively borrowed slice.
            let n = unsafe { epoll_wait(epfd, buf.as_mut_ptr(), buf.len() as c_int, timeout_ms) };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    pub(crate) fn close_fd(fd: c_int) {
        // SAFETY: `close` touches no caller memory. Callers pass a
        // descriptor they own and never use it afterwards.
        unsafe {
            close(fd);
        }
    }
}

#[cfg(unix)]
pub(crate) mod pollsys {
    use std::io;
    use std::os::raw::{c_int, c_short};

    pub(crate) const POLLIN: c_short = 0x1;
    pub(crate) const POLLOUT: c_short = 0x4;
    pub(crate) const POLLERR: c_short = 0x8;
    pub(crate) const POLLHUP: c_short = 0x10;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub(crate) struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    #[cfg(target_os = "linux")]
    type NfdsT = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NfdsT = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    }

    pub(crate) fn poll_fds(fds: &mut [PollFd], timeout_ms: c_int) -> io::Result<usize> {
        loop {
            // SAFETY: `fds` is an exclusively borrowed slice of
            // `#[repr(C)]` pollfd records and `nfds` is its length, so the
            // kernel reads and writes only inside it.
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

#[cfg(unix)]
mod rlimit {
    use std::os::raw::c_int;

    #[repr(C)]
    pub(super) struct RLimit {
        pub rlim_cur: u64,
        pub rlim_max: u64,
    }

    #[cfg(target_os = "linux")]
    pub(super) const RLIMIT_NOFILE: c_int = 7;
    #[cfg(not(target_os = "linux"))]
    pub(super) const RLIMIT_NOFILE: c_int = 8;

    extern "C" {
        pub(super) fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
        pub(super) fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
    }
}

/// Raises the soft `RLIMIT_NOFILE` toward `target` (capped at the hard
/// limit) and returns the resulting soft limit. Never lowers it and
/// never fails: on any syscall error the current (or requested) value
/// is reported and the caller proceeds — running out of descriptors
/// later produces an ordinary `accept`/`connect` error.
#[cfg(unix)]
pub fn raise_nofile_limit(target: u64) -> u64 {
    let mut lim = rlimit::RLimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: `lim` is a live `#[repr(C)]` rlimit record that the call
    // only writes during its execution.
    if unsafe { rlimit::getrlimit(rlimit::RLIMIT_NOFILE, &mut lim) } != 0 {
        return target;
    }
    if lim.rlim_cur >= target {
        return lim.rlim_cur;
    }
    let wanted = target.min(lim.rlim_max);
    let new = rlimit::RLimit {
        rlim_cur: wanted,
        rlim_max: lim.rlim_max,
    };
    // SAFETY: `new` is a live `#[repr(C)]` rlimit record that the call
    // only reads during its execution.
    if unsafe { rlimit::setrlimit(rlimit::RLIMIT_NOFILE, &new) } == 0 {
        wanted
    } else {
        lim.rlim_cur
    }
}

/// No-op off Unix: the blocking fallback server does not hold enough
/// descriptors to need it.
#[cfg(not(unix))]
pub fn raise_nofile_limit(target: u64) -> u64 {
    target
}

/// Blocks until `fd` is readable or `timeout` elapses; returns whether
/// it became readable. Lets a blocking accept loop wait on the listener
/// *and* still observe a shutdown flag on a bounded cadence.
#[cfg(unix)]
pub fn wait_readable<T: std::os::unix::io::AsRawFd>(fd: &T, timeout: Duration) -> io::Result<bool> {
    let mut fds = [pollsys::PollFd {
        fd: fd.as_raw_fd(),
        events: pollsys::POLLIN,
        revents: 0,
    }];
    let n = pollsys::poll_fds(&mut fds, timeout_ms(Some(timeout)))?;
    Ok(n > 0)
}
