//! Pinning a timed process to one CPU.
//!
//! The streaming workloads' planner and worker threads hand tasks to each
//! other thousands of times per call. On a shared virtual machine a wakeup
//! that crosses vCPUs waits for the other vCPU to be scheduled by the host,
//! so with the threads spread over two vCPUs the call time followed the
//! neighbours' load (`stream_fine` 0.22-0.27 s, `dist_sim` 0.10-0.16 s per
//! call on a 2-vCPU host), while on one CPU, where a handoff is a context
//! switch, it stayed at 0.13-0.17 s and 0.09-0.11 s. Every timed process
//! therefore runs on one CPU; an untraced run's processes take the allowed
//! CPUs in turn, so a slow vCPU holds half of them, not all.

/// Words of a `cpu_set_t` (1024 CPUs).
const WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread, and every thread it starts afterwards, to the
/// `k`-th (cycling) of the CPUs this process may run on. Returns the CPU,
/// or `None` where the CPU set cannot be read or set.
#[cfg(target_os = "linux")]
pub fn pin(k: usize) -> Option<usize> {
    let mut allowed = [0u64; WORDS];
    // Safety: `allowed` is a writable buffer of the size passed.
    if unsafe { sched_getaffinity(0, WORDS * 8, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpus: Vec<usize> = (0..WORDS * 64)
        .filter(|&i| allowed[i / 64] >> (i % 64) & 1 == 1)
        .collect();
    let cpu = *cpus.get(k % cpus.len().max(1))?;
    let mut mask = [0u64; WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // Safety: `mask` is a readable buffer of the size passed.
    (unsafe { sched_setaffinity(0, WORDS * 8, mask.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin(_k: usize) -> Option<usize> {
    None
}
