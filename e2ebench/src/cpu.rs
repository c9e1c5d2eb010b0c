//! CPU time of the benchmark's own process and threads.
//!
//! The gated time metrics are CPU time rather than wall time. On a guest
//! of a shared host the hypervisor takes the vCPUs away for stretches
//! whose length depends on the neighbours' load, and wall time counts
//! those stretches: runs of identical code spread by a third of their
//! median between two sets of runs. A task's run time as the kernel
//! keeps it leaves stolen time out (paravirtual steal accounting), and
//! so does not count time spent waiting for a CPU either.

/// CPU time of the calling thread, in ms.
pub fn thread_ms() -> f64 {
    clock_ms(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time of the whole process, in ms: every thread, including those
/// that have ended.
pub fn process_ms() -> f64 {
    clock_ms(CLOCK_PROCESS_CPUTIME_ID)
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    /// From the C library the standard library already links.
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// The CPU-time clocks, unlike the run times in `/proc/*/schedstat`,
/// include the running thread's time since the last scheduler tick, so
/// they are exact to the ns rather than to the tick.
fn clock_ms(clock: i32) -> f64 {
    let mut tp = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `tp` is a valid, writable `struct timespec`.
    let rc = unsafe { clock_gettime(clock, &mut tp) };
    // Linux always has both clocks; a failure is a broken platform.
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    tp.tv_sec as f64 * 1e3 + tp.tv_nsec as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_with_work() {
        let spin = || {
            let t = std::time::Instant::now();
            let mut x = 0u64;
            while t.elapsed().as_millis() < 60 {
                x = std::hint::black_box(x.wrapping_add(1));
            }
        };
        let (t0, p0) = (thread_ms(), process_ms());
        spin();
        let (t1, p1) = (thread_ms(), process_ms());
        assert!(t1 - t0 > 20.0, "thread clock advanced {} ms", t1 - t0);
        assert!(p1 - p0 >= t1 - t0);
        assert!(p1 >= t1);
    }
}
