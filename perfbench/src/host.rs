//! What the benchmark asks of the host's C library: the calling thread's
//! CPU clock and its CPU affinity.
//!
//! On a shared virtual machine the CPUs do not run at one speed: a vCPU
//! whose physical core another tenant keeps busy can run the simulator at
//! two thirds of its speed or less, for a fraction of a second or for
//! several seconds, and the scheduler moves a thread between vCPUs at
//! will. So the benchmark pins each episode to one CPU, takes the CPUs it
//! may use in turn, and times by the thread's own CPU clock, which leaves
//! out the time the thread waited for a CPU.

use std::mem::size_of;
use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark needs 64-bit Linux (thread CPU clock, CPU affinity)");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `cpu_set_t`: one bit for each of 1024 CPUs.
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, set: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, set: *const CpuSet) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// At most this many CPUs take turns, so that each runs several episodes.
const MAX_CPUS: usize = 4;

/// CPU time the calling thread has used.
pub fn thread_cpu_time() -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// The first `MAX_CPUS` CPUs the calling thread may run on; empty if the
/// affinity cannot be read.
pub fn cpus() -> Vec<usize> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a writable `cpu_set_t` of the size passed; pid 0
    // is the calling thread.
    let rc = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..set.0.len() * 64).filter(|&c| set.0[c / 64] >> (c % 64) & 1 == 1).take(MAX_CPUS).collect()
}

/// Pins the calling thread to `cpu`; false if the kernel refuses.
pub fn pin(cpu: usize) -> bool {
    let mut set = CpuSet([0; 16]);
    set.0[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a valid `cpu_set_t` of the size passed; pid 0 is
    // the calling thread.
    unsafe { sched_setaffinity(0, size_of::<CpuSet>(), &set) == 0 }
}
