//! Host-speed calibration. The benchmark's host shares its cores, and
//! its speed shifts by up to about 1.5× for tens of seconds at a time,
//! which moves every host time with it. A fixed reference computation
//! (hash-map inserts and lookups, small allocations, a sort: the
//! instruction mix of the compiler and simulator), timed between units
//! of measured work, tracks that speed. End-to-end times are reported
//! at the reference speed: `raw × REFERENCE_MS / reference time`. The
//! reference code is the benchmark's own, so it is the same on every
//! commit measured; raw times are printed too.
//!
//! The host's cores do not run at the same speed at the same time, so a
//! sample is a reference only for work on the same core: the benchmark
//! runs on one core (`pin_to_one_cpu`), its threads included.

use std::collections::HashMap;
use std::time::Instant;

/// The reference computation's time at the reference speed: its median
/// on the 2-core x86-64 host the benchmark was introduced on.
pub const REFERENCE_MS: f64 = 0.9;

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and every thread it starts afterwards, to the
/// CPU it is running on. Returns that CPU, or `None` if pinning failed.
/// Call it before any other thread is started.
pub fn pin_to_one_cpu() -> Option<usize> {
    // SAFETY: `sched_getcpu` takes no arguments.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    // A `cpu_set_t`: 1,024 bits.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a `cpu_set_t`-sized buffer that outlives the call,
    // which only reads it; pid 0 is the calling thread.
    let r = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (r == 0).then_some(cpu)
}

/// Runs the reference computation once; returns its host ms.
pub fn sample() -> f64 {
    let started = Instant::now();
    let mut m: HashMap<u64, u64> = HashMap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..4096u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        m.insert(x % 8192, i);
    }
    let mut acc = 0u64;
    for i in 0..8192u64 {
        acc = acc.wrapping_add(*m.get(&i).unwrap_or(&1));
    }
    let v: Vec<Box<[u64]>> = (0..2048u64)
        .map(|i| vec![i; (i % 7 + 1) as usize].into_boxed_slice())
        .collect();
    let mut w: Vec<u32> = (0..16_384u32)
        .map(|i| i.wrapping_mul(2_654_435_761))
        .collect();
    w.sort_unstable();
    acc = acc.wrapping_add(u64::from(w[100]) + v[77][0]);
    std::hint::black_box(acc);
    started.elapsed().as_secs_f64() * 1e3
}

/// Median of `n` samples.
pub fn measure(n: usize) -> f64 {
    let s: Vec<f64> = (0..n).map(|_| sample()).collect();
    crate::stats::median(&s)
}

/// Factor that scales a raw host time taken while the reference took
/// `reference_ms` to the reference speed.
pub fn factor(reference_ms: f64) -> f64 {
    REFERENCE_MS / reference_ms
}
