//! What the operating system knows about this process: CPU time per
//! process and per thread, resident memory, context switches, and the
//! filesystem under the spill file. Linux only, like the epoll reactor
//! the wire workload drives.

use std::ffi::{c_int, c_long};
use std::path::Path;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    // From the libc std already links. `/proc/self/stat` counts CPU time
    // in 10 ms ticks, far too coarse for a 0.15 s round.
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

fn cpu_ns(clock: c_int) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // 64-bit Linux, the only target this builds for), and both clock ids
    // are valid for the calling process, so the call writes `ts` and
    // nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of every thread of this process so far, in ns.
pub fn process_cpu_ns() -> u64 {
    cpu_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread so far, in ns.
pub fn thread_cpu_ns() -> u64 {
    cpu_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// A `<field>: <n> kB`-style value from the text of a `/proc/.../status`
/// file; 0 if it is not there.
fn status_field(text: &str, field: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

fn read_status(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Peak resident set of this process (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> u64 {
    status_field(&read_status("/proc/self/status"), "VmHWM") * 1024
}

/// Current resident set of this process (`VmRSS`), in bytes.
pub fn rss_bytes() -> u64 {
    status_field(&read_status("/proc/self/status"), "VmRSS") * 1024
}

/// Voluntary plus involuntary context switches of the calling thread.
pub fn thread_ctx_switches() -> u64 {
    let text = read_status("/proc/thread-self/status");
    status_field(&text, "voluntary_ctxt_switches")
        + status_field(&text, "nonvoluntary_ctxt_switches")
}

/// The filesystem type holding `path`, from `/proc/self/mounts` (the
/// longest mount point that prefixes it).
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, point, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fstype)| fstype)
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu_ns(), thread_cpu_ns());
        let mut x = 1u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu_ns() > t0);
        assert!(process_cpu_ns() > p0);
    }

    #[test]
    fn proc_status_fields_parse() {
        assert!(rss_bytes() > 0);
        assert!(peak_rss_bytes() >= rss_bytes() / 2);
        let _ = thread_ctx_switches();
        assert!(!filesystem_of(Path::new("/")).is_empty());
    }
}
