//! Host resource usage of the benchmark process, via `getrusage(2)`.

use std::os::raw::{c_int, c_long};

use crate::stats::ratio;
use crate::Run;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("msqbench reads `struct rusage` with the 64-bit Linux layout");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct TimeVal {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct RUsage {
    ru_utime: TimeVal,
    ru_stime: TimeVal,
    ru_maxrss: c_long,
    ru_ixrss: c_long,
    ru_idrss: c_long,
    ru_isrss: c_long,
    ru_minflt: c_long,
    ru_majflt: c_long,
    ru_nswap: c_long,
    ru_inblock: c_long,
    ru_oublock: c_long,
    ru_msgsnd: c_long,
    ru_msgrcv: c_long,
    ru_nsignals: c_long,
    ru_nvcsw: c_long,
    ru_nivcsw: c_long,
}

const RUSAGE_SELF: c_int = 0;

extern "C" {
    fn getrusage(who: c_int, usage: *mut RUsage) -> c_int;
}

/// A snapshot of the whole process's usage (every thread, live or joined).
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    /// Voluntary context switches: a thread blocked and gave up its CPU.
    pub vcsw: u64,
}

impl Usage {
    pub fn now() -> Usage {
        let mut raw = RUsage::default();
        // SAFETY: `raw` is a live, writable `struct rusage` with the
        // 64-bit Linux layout declared above, and RUSAGE_SELF is a valid
        // `who`; the call writes only inside it.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
        let secs = |t: TimeVal| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
        Usage {
            user_s: secs(raw.ru_utime),
            sys_s: secs(raw.ru_stime),
            vcsw: raw.ru_nvcsw as u64,
        }
    }

    /// Usage accrued between `earlier` and `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            vcsw: self.vcsw - earlier.vcsw,
        }
    }
}

/// The host OS layer over a window of work; `ops` (simulated
/// shared-memory operations, or native pairs) normalize the switches.
pub fn push_layer(run: &mut Run, usage: &Usage, ops: u64) {
    run.push("os.user_s", "s", usage.user_s);
    run.push("os.sys_s", "s", usage.sys_s);
    run.push("os.vcsw_per_op", "count", ratio(usage.vcsw, ops));
}

/// Peak resident set size of this process's own address space, in KiB:
/// `VmHWM` from `/proc/self/status`. (`ru_maxrss` would not do: Linux
/// carries it across `execve`, so it reports the launching process's size
/// — cargo's, under `cargo run` — whenever that is larger.)
pub fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM in kB")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_grows_with_work_and_blocking() {
        let before = Usage::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let spent = Usage::now().since(&before);
        assert!(spent.user_s + spent.sys_s > 0.0);
        assert!(spent.vcsw >= 1, "a sleep blocks voluntarily");
        assert!(peak_rss_kib() > 0);
    }
}
