//! Host-speed calibration.
//!
//! The benchmark shares its cores with other tenants, whose load slows
//! it by up to about 1.7× for stretches of tens of seconds: long enough
//! that every statistic taken inside one run (median, quartile,
//! minimum) inherits it. A fixed integer kernel, timed between the
//! workload's units, sees the same slowdown at the same moments, so a
//! unit's host seconds scaled by [`REF_BURST_S`] over the bursts around
//! it read the same whatever the load. The kernel is part of the
//! benchmark, not the program, so a change to the program moves the
//! workload's time and not the kernel's. The load differs from one
//! vCPU to the next, so the run first pins itself to the one it started
//! on ([`pin_to_current_cpu`]): the bursts then see the core the units
//! ran on.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of one burst.
const ITERS: u64 = 3_000_000;

/// Seconds one burst takes on an unloaded host: the fastest bursts on a
/// 2-vCPU KVM guest of an Intel Xeon (Sapphire Rapids). Normalised times
/// are host seconds on that host, unloaded.
pub const REF_BURST_S: f64 = 0.0052;

/// Runs one burst of the kernel and returns its host seconds.
///
/// Six independent integer chains keep several execution ports busy,
/// like the simulator's own high-IPC loops, so that contention for the
/// core slows the burst about as much as it slows the workload.
pub fn burst() -> f64 {
    let started = Instant::now();
    let (mut a, mut b, mut c) = (1u64, 2u64, 3u64);
    let (mut d, mut e, mut f) = (4u64, 5u64, 6u64);
    for i in 0..ITERS {
        a = a.wrapping_add(i) ^ (b >> 3);
        b = b.wrapping_add(a) ^ (c << 1);
        c ^= (d >> 2).wrapping_add(i);
        d = d.wrapping_add(e) ^ 7;
        e ^= f.rotate_left(3);
        f = f.wrapping_add(a >> 1);
        a = black_box(a);
    }
    black_box(a ^ b ^ c ^ d ^ e ^ f);
    started.elapsed().as_secs_f64()
}

/// Pins the calling thread to the CPU it is running on, so that it
/// keeps one core's load for the whole run. Returns that CPU, or `None`
/// where pinning is unsupported or fails (the run then goes on unpinned).
#[cfg(target_os = "linux")]
pub fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: both are glibc calls without preconditions; the mask is a
    // live, fully initialised 1024-bit `cpu_set_t` of `size` bytes, and
    // pid 0 names the calling thread.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    let status = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (status == 0).then_some(cpu)
}

/// Pinning is only implemented for Linux.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_current_cpu() -> Option<usize> {
    None
}

/// `seconds` measured while the bursts before and after it took
/// `before` and `after` seconds, expressed at the unloaded host's speed.
pub fn normalise(seconds: f64, before: f64, after: f64) -> f64 {
    let load = (before + after) / 2.0;
    if load > 0.0 {
        seconds * REF_BURST_S / load
    } else {
        seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalise_scales_by_the_mean_burst() {
        assert_eq!(normalise(2.0, REF_BURST_S, REF_BURST_S), 2.0);
        let slow = 1.5 * REF_BURST_S;
        assert!((normalise(3.0, slow, slow) - 2.0).abs() < 1e-12);
        assert_eq!(normalise(1.0, 0.0, 0.0), 1.0);
    }

    #[test]
    fn a_burst_takes_time() {
        assert!(burst() > 0.0);
    }
}
