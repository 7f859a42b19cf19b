//! Facts about the host, recorded with every result rather than assumed:
//! cores, CPU model, a fixed reference kernel that shows host drift, peak
//! memory, per-thread scheduler time, and a counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts every allocation (and reallocation) made by any thread.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a statistic and publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded contract of `GlobalAlloc::alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded contract of `GlobalAlloc::alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract of `GlobalAlloc::dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded contract of `GlobalAlloc::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations so far, process-wide.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Cores this process may run on, as counted at the first call (`main`
/// makes it before any [`pin`]).
pub fn cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// The CPU model string from `/proc/cpuinfo`, if readable.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident memory (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The reference kernel: FNV-1a over a 64-byte block that each round
/// perturbs, a fixed amount of work whose timing tracks how fast the host
/// runs ordinary integer code right now. Returns ns per round.
pub fn ref_kernel_ns(rounds: u32) -> f64 {
    let mut block = [0x5Au8; 64];
    let mut h = 0u64;
    let t0 = Instant::now();
    for i in 0..rounds {
        block[(i % 64) as usize] ^= h as u8;
        h = 0xcbf2_9ce4_8422_2325;
        for &b in black_box(&block) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    black_box(h);
    t0.elapsed().as_secs_f64() * 1e9 / f64::from(rounds)
}

/// Share of CPU time the hypervisor gave to other guests ("steal") since
/// `earlier`, from the summary line of `/proc/stat`; `earlier` is the
/// `(steal, total)` tick pair returned by an earlier call.
pub fn steal_share(earlier: (u64, u64)) -> ((u64, u64), f64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().unwrap_or(0))
        .collect();
    let now: (u64, u64) = (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum());
    let total = now.1.saturating_sub(earlier.1);
    #[allow(clippy::cast_precision_loss)]
    let share = if total == 0 {
        0.0
    } else {
        now.0.saturating_sub(earlier.0) as f64 / total as f64
    };
    (now, share)
}

/// A thread's scheduler counters: time on a CPU (its CPU clock), and time
/// runnable but waiting for one (`schedstat`), in ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sched {
    pub run_ns: u64,
    pub wait_ns: u64,
}

impl Sched {
    fn read(path: &str, clock: i32) -> Sched {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        let mut f = text
            .split_whitespace()
            .map(|v| v.parse::<u64>().unwrap_or(0));
        let run_ns = f.next().unwrap_or(0);
        Sched {
            run_ns: cpu_clock_ns(clock).unwrap_or(run_ns),
            wait_ns: f.next().unwrap_or(0),
        }
    }

    /// The calling thread.
    pub fn current() -> Sched {
        Sched::read("/proc/thread-self/schedstat", CLOCK_THREAD_CPUTIME_ID)
    }

    /// Thread `tid` of this process.
    pub fn task(tid: u32) -> Sched {
        Sched::read(
            &format!("/proc/self/task/{tid}/schedstat"),
            thread_cpu_clock(tid),
        )
    }

    pub fn since(self, earlier: Sched) -> Sched {
        Sched {
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
        }
    }

    pub fn add(&mut self, other: Sched) {
        self.run_ns += other.run_ns;
        self.wait_ns += other.wait_ns;
    }
}

/// The calling thread's CPU clock.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// The CPU clock of thread `tid` of this process, as the kernel encodes it
/// (`MAKE_THREAD_CPUCLOCK(tid, CPUCLOCK_SCHED)`).
#[allow(clippy::cast_possible_wrap)]
fn thread_cpu_clock(tid: u32) -> i32 {
    ((!tid << 3) | 0b110) as i32
}

/// A CPU clock's reading, ns. Unlike `schedstat`'s run time, which moves
/// only at scheduler ticks while a thread runs, the clock brings a running
/// thread's time up to date when read, so a 20 ms round is timed to the
/// microsecond. Time the hypervisor stole is not in it (the kernel's
/// paravirtual steal accounting takes it out), nor is time a thread spent
/// waiting to run or asleep.
#[cfg(target_os = "linux")]
fn cpu_clock_ns(clock: i32) -> Option<u64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec`; an unknown clock id
    // makes the call fail with EINVAL rather than touch memory.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then(|| {
        u64::try_from(ts.tv_sec).unwrap_or(0) * 1_000_000_000
            + u64::try_from(ts.tv_nsec).unwrap_or(0)
    })
}

#[cfg(not(target_os = "linux"))]
fn cpu_clock_ns(_clock: i32) -> Option<u64> {
    None
}

/// The CPUs this process may run on, lowest first, as they were at the
/// first call (`main` makes it before any [`pin`]).
pub fn allowed_cpus() -> &'static [usize] {
    static CPUS: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    CPUS.get_or_init(read_allowed_cpus)
}

#[cfg(target_os = "linux")]
fn read_allowed_cpus() -> Vec<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable 1024-bit CPU set of the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

#[cfg(not(target_os = "linux"))]
fn read_allowed_cpus() -> Vec<usize> {
    Vec::new()
}

/// Binds thread `tid` of this process (0: the calling thread) to `cpu`.
/// Threads it starts afterwards inherit the binding.
#[cfg(target_os = "linux")]
pub fn pin(tid: u32, cpu: usize) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let (Ok(pid), true) = (i32::try_from(tid), cpu < 1024) else {
        return false;
    };
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a readable 1024-bit CPU set of the size passed.
    unsafe { sched_setaffinity(pid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn pin(_tid: u32, _cpu: usize) -> bool {
    false
}

/// The id of this process's thread named `name`, if any.
pub fn thread_named(name: &str) -> Option<u32> {
    std::fs::read_dir("/proc/self/task").ok()?.find_map(|e| {
        let e = e.ok()?;
        let comm = std::fs::read_to_string(e.path().join("comm")).ok()?;
        (comm.trim_end() == name)
            .then(|| e.file_name().to_str()?.parse().ok())
            .flatten()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_clocks_advance_with_work() {
        let tid = std::fs::read_link("/proc/thread-self")
            .ok()
            .and_then(|p| p.file_name()?.to_str()?.parse::<u32>().ok())
            .expect("thread id");
        let (own0, by_tid0) = (Sched::current(), Sched::task(tid));
        let mut h = 0u64;
        let t0 = Instant::now();
        while t0.elapsed().as_millis() < 20 {
            h = black_box(h.wrapping_mul(31).wrapping_add(7));
        }
        let (own, by_tid) = (
            Sched::current().since(own0),
            Sched::task(tid).since(by_tid0),
        );
        // 20 ms of spinning shows up on both clocks, well below a tick's
        // resolution of error.
        assert!(own.run_ns > 5_000_000, "{own:?}");
        assert!(by_tid.run_ns > 5_000_000, "{by_tid:?}");
        assert!(own.run_ns < 1_000_000_000 && by_tid.run_ns < 1_000_000_000);
    }
}
