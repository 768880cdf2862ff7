//! The few operating-system reads the generator needs that `std` does not
//! offer: a readiness wait with a sub-millisecond timeout, the calling
//! thread's CPU time, and the process's resident set. Linux only, declared
//! without `libc` like the workspace's own `affinity.rs`.

use std::os::fd::RawFd;
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const POLLIN: i16 = 0x1;

fn timespec(d: Duration) -> Timespec {
    Timespec {
        tv_sec: d.as_secs() as i64,
        tv_nsec: d.subsec_nanos() as i64,
    }
}

/// Blocks until `fd` is readable or `timeout` passes; `true` when
/// readable (or in error, which the following read reports).
///
/// `ppoll` takes a nanosecond timeout on a high-resolution timer, unlike
/// `SO_RCVTIMEO`, which the kernel rounds up to a scheduler tick — too
/// coarse for an open-loop schedule with sub-millisecond gaps.
pub fn wait_readable(fd: RawFd, timeout: Duration) -> bool {
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let ts = timespec(timeout);
    // SAFETY: `pfd` and `ts` are live, properly laid-out locals for the
    // whole call; nfds = 1 matches the single pollfd; a null sigmask
    // leaves the signal mask unchanged.
    let n = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    n != 0
}

/// CPU time consumed so far by the calling thread.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time consumed so far by the whole process. Time the hypervisor
/// stole from the virtual machine is not charged to it, which is what
/// makes CPU cost a steadier figure than wall time on a shared host.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, properly laid-out out-parameter.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return Duration::ZERO;
    }
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Current resident set (`VmRSS`) in MiB. `VmHWM` is deliberately not
/// used: it keeps build-time temporaries and varies run to run.
pub fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The host's CPU time so far as `(stolen, total)` scheduler ticks, summed
/// over CPUs (`/proc/stat`). Steal is time a CPU of this virtual machine
/// was ready to run but the hypervisor ran someone else.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().next() else {
        return (0, 0);
    };
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}
