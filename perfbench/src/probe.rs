//! Process-wide software counters and the traced run's spans.

use std::os::raw::{c_int, c_long};
use std::time::Instant;

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as Linux lays it out.
#[repr(C)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    ixrss: c_long,
    idrss: c_long,
    isrss: c_long,
    minflt: c_long,
    majflt: c_long,
    nswap: c_long,
    inblock: c_long,
    oublock: c_long,
    msgsnd: c_long,
    msgrcv: c_long,
    nsignals: c_long,
    nvcsw: c_long,
    nivcsw: c_long,
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut RUsage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

/// One sample of the process's counters. `getrusage(RUSAGE_SELF)` is
/// used rather than summing `/proc/self/task/*/status`: it is the same
/// kernel accounting, but it keeps the counts of worker threads that
/// have already exited, which the task list drops once the pool joins.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub minflt: u64,
    pub nvcsw: u64,
    pub nivcsw: u64,
    pub user_s: f64,
    pub sys_s: f64,
}

impl Counters {
    pub fn sample() -> Counters {
        // SAFETY: `RUsage` matches the kernel's `struct rusage` layout on
        // Linux (two timevals then fourteen longs), and the pointer is to
        // a live, writable, zero-initialised value.
        let ru = unsafe {
            let mut ru: RUsage = std::mem::zeroed();
            let rc = getrusage(RUSAGE_SELF, &mut ru);
            assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
            ru
        };
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        Counters {
            minflt: ru.minflt as u64,
            nvcsw: ru.nvcsw as u64,
            nivcsw: ru.nivcsw as u64,
            user_s: secs(&ru.utime),
            sys_s: secs(&ru.stime),
        }
    }

    /// `self - earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            minflt: self.minflt - earlier.minflt,
            nvcsw: self.nvcsw - earlier.nvcsw,
            nivcsw: self.nivcsw - earlier.nivcsw,
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// The layer calls the traced run wraps in spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    Isend,
    Irecv,
    Wait,
    Barrier,
    Bcast,
    Reduce,
    Allreduce,
    Gather,
    Allgather,
    Alltoall,
}

impl Call {
    pub const ALL: [Call; 10] = [
        Call::Isend,
        Call::Irecv,
        Call::Wait,
        Call::Barrier,
        Call::Bcast,
        Call::Reduce,
        Call::Allreduce,
        Call::Gather,
        Call::Allgather,
        Call::Alltoall,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Call::Isend => "isend",
            Call::Irecv => "irecv",
            Call::Wait => "wait",
            Call::Barrier => "barrier",
            Call::Bcast => "bcast",
            Call::Reduce => "reduce",
            Call::Allreduce => "allreduce",
            Call::Gather => "gather",
            Call::Allgather => "allgather",
            Call::Alltoall => "alltoall",
        }
    }
}

/// One rank's spans, kept in memory as per-call durations (ns) and
/// merged when the job ends. Disabled, `span` is a plain call.
pub struct Spans {
    on: bool,
    durs: Vec<Vec<u32>>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            durs: vec![Vec::new(); Call::ALL.len()],
        }
    }

    #[inline]
    pub fn span<T>(&mut self, call: Call, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32;
        self.durs[call as usize].push(ns);
        out
    }

    pub fn merge(&mut self, other: Spans) {
        for (a, b) in self.durs.iter_mut().zip(other.durs) {
            a.extend(b);
        }
    }

    /// `(calls, p50 ns, total ns)` of one call kind.
    pub fn summary(&mut self, call: Call) -> (usize, f64, f64) {
        let d = &mut self.durs[call as usize];
        if d.is_empty() {
            return (0, 0.0, 0.0);
        }
        d.sort_unstable();
        let total: f64 = d.iter().map(|&x| f64::from(x)).sum();
        (d.len(), f64::from(d[d.len() / 2]), total)
    }
}
