//! Host-side instruments: CPU clocks, peak RSS, the counting
//! allocator, and the median/percentile rule every timing is reported
//! with.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clk_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, the only target this benchmark supports)
    // and both clock ids are defined by POSIX for every process/thread.
    let rc = unsafe { clock_gettime(clk_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clk_id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU nanoseconds consumed so far by every thread of this process.
/// Catches spinning and backstop wake-ups that wall time hides on idle
/// cores.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU nanoseconds consumed so far by the calling thread. Every
/// simulated rank owns its OS thread under both engines, so this is a
/// per-rank clock.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Pin the calling thread, and with it every thread it spawns later,
/// to the highest-numbered CPU it may run on; returns that CPU.
///
/// On the shared 2-vCPU hosts this benchmark is gated on, a world whose
/// progress needs *both* vCPUs stalls whenever the hypervisor delays
/// either one: unpinned, the per-run medians of the hand-off-heavy
/// workloads spread by 20-40 % between runs, pinned by 5-7 % (README,
/// "Steadiness"). Call before the first `host_parallelism()` probe so
/// the runtime sees the one CPU consistently.
pub fn pin_to_one_cpu() -> Option<usize> {
    const WORDS: usize = 16; // 1024 CPUs, glibc's `cpu_set_t`
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let cpu = (0..WORDS * 64)
        .rev()
        .find(|c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Wall and process-CPU seconds of one timed window.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu_ns: u64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu_ns: process_cpu_ns(),
        }
    }

    /// `(wall seconds, process CPU seconds)` since [`Stopwatch::start`].
    pub fn stop(self) -> (f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64();
        let cpu = (process_cpu_ns() - self.cpu_ns) as f64 * 1e-9;
        (wall, cpu)
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// The system allocator with an allocation counter that only runs
/// while armed (one traced-run op), so untraced ops pay a single
/// relaxed load per allocation.
pub struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

impl CountingAlloc {
    fn count() {
        // Relaxed: a statistic, publishes no other data.
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Start counting allocations (all threads) from zero.
pub fn arm_alloc_counter() {
    ALLOCS.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
}

/// Stop counting; returns the allocations (incl. reallocations) seen
/// since [`arm_alloc_counter`].
pub fn disarm_alloc_counter() -> u64 {
    ARMED.store(false, Ordering::Relaxed);
    ALLOCS.load(Ordering::Relaxed)
}

/// Median of a sample (mean of the two middle values when even), as
/// Python's `statistics.median`.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of a sample, linearly interpolated
/// between the two nearest order statistics.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest percentile that still has at least ten samples beyond
/// it: `(percentile, value)`, or `None` below eleven samples.
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n <= 10 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - 10; // 1-based rank of the sample with exactly ten above it
    Some((100.0 * rank as f64 / n as f64, v[rank - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 0.5), median(&xs));
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert!((quantile(&xs, 0.1) - 1.4).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.1), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(&[1.0; 10]), None);
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        let (pct, v) = tail_percentile(&xs).expect("eleven samples");
        assert_eq!(v, 1.0);
        assert!((pct - 100.0 / 11.0).abs() < 1e-12);
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((90.0, 90.0)));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((99.0, 990.0)));
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (t0, p0) = (thread_cpu_ns(), process_cpu_ns());
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu_ns() > t0);
        assert!(process_cpu_ns() > p0);
    }
}
