//! The host record and host-speed normalisation.
//!
//! The 2-vCPU VM this benchmark was built on moves between speed states up
//! to ~1.7× apart, each lasting seconds to minutes, so a whole run can land
//! in a slow state. A fixed compute probe owned by the benchmark tracks
//! those states: across three of them (probe 6.1, 7.4 and 9.9 ms) the
//! probe's time × the scalar `Ltc` rate on the CAIDA stream stayed within
//! ±5%. The two vCPUs are not always in the same state, so the probe runs
//! pinned to each CPU the process may use in turn. Every end-to-end timing
//! is scaled to the speed at which the probe takes [`PROBE_REF_MS`], using
//! probes taken right before the pass or phase that produced it.

use std::hint::black_box;
use std::time::Instant;

/// The probe's time at the reference host speed: its fastest state on
/// that VM (a KVM guest, 2 vCPUs, 16 GB).
pub const PROBE_REF_MS: f64 = 6.0;

/// A dependent multiply-xorshift chain: pure core work, no memory traffic.
pub fn probe_ms() -> f64 {
    let t = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for i in 0..4_000_000u64 {
        x ^= x >> 29;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9).wrapping_add(i);
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// glibc's `cpu_set_t`: 1024 CPUs as 16 words.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn sched_getcpu() -> i32;
}

/// The calling thread's CPU mask.
fn affinity() -> Option<CpuSet> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer and its size
    // is passed along; pid 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
    (rc == 0).then_some(mask)
}

/// Restrict the calling thread to `mask`.
fn set_affinity(mask: &CpuSet) -> bool {
    // SAFETY: `mask` is a readable `cpu_set_t`-sized buffer and its size
    // is passed along; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) == 0 }
}

/// CPUs probed at most, to bound the probe's cost on large hosts.
const MAX_PROBED_CPUS: usize = 8;

/// The faster of two probes on each CPU the calling thread may run on (the
/// first [`MAX_PROBED_CPUS`] of them), as `(cpu, ms)`; the thread's mask is
/// restored afterwards. Falls back to one unpinned reading where the mask
/// cannot be read or set.
pub fn probe_per_cpu() -> Vec<(usize, f64)> {
    let best = || probe_ms().min(probe_ms());
    let Some(mask) = affinity() else {
        return vec![(0, best())];
    };
    let mut out = Vec::new();
    for cpu in 0..mask.len() * 64 {
        if mask[cpu / 64] >> (cpu % 64) & 1 == 0 {
            continue;
        }
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        if set_affinity(&one) {
            out.push((cpu, best()));
        }
        if out.len() == MAX_PROBED_CPUS {
            break;
        }
    }
    set_affinity(&mask);
    if out.is_empty() {
        out.push((0, best()));
    }
    out
}

/// How much slower the host is now than the reference speed, as
/// `(here, slowest)`: on the CPU the calling thread runs on, for
/// single-threaded passes, and on the slowest CPU, for the runtime, whose
/// router and worker occupy both. Timings are divided by it, rates
/// multiplied.
pub fn slowdowns() -> (f64, f64) {
    let probes = probe_per_cpu();
    // SAFETY: `sched_getcpu` takes no arguments and only reads state.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok();
    let slowest = probes.iter().map(|p| p.1).fold(0.0, f64::max);
    let here = probes
        .iter()
        .find(|p| Some(p.0) == cpu)
        .map_or(slowest, |p| p.1);
    (here / PROBE_REF_MS, slowest / PROBE_REF_MS)
}

/// Median round trip, in µs, of waking a parked helper thread through a
/// condvar and waiting for its answer: the hand-off a barrier makes.
pub fn wake_us() -> f64 {
    use std::sync::{Condvar, Mutex};
    let state = (Mutex::new(0u64), Condvar::new());
    let mut samples = Vec::with_capacity(200);
    std::thread::scope(|s| {
        s.spawn(|| {
            let (lock, cv) = &state;
            let mut g = lock.lock().expect("no panics while held");
            loop {
                while *g % 2 == 0 {
                    g = cv.wait(g).expect("no panics while held");
                }
                if *g == u64::MAX {
                    return;
                }
                *g += 1;
                cv.notify_all();
            }
        });
        let (lock, cv) = &state;
        for _ in 0..200 {
            let gap = Instant::now();
            while gap.elapsed().as_micros() < 100 {}
            let t = Instant::now();
            let mut g = lock.lock().expect("no panics while held");
            *g += 1;
            cv.notify_all();
            while *g % 2 == 1 {
                g = cv.wait(g).expect("no panics while held");
            }
            drop(g);
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
        *lock.lock().expect("no panics while held") = u64::MAX;
        cv.notify_all();
    });
    crate::stats::median(&samples)
}

/// The host record: CPU count, each CPU's probe time, and the wake round
/// trip.
pub fn print(when: &str) {
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    let probes: Vec<String> = probe_per_cpu()
        .iter()
        .map(|(cpu, ms)| format!("cpu{cpu}={ms:.3}"))
        .collect();
    println!(
        "host {when} cpus={cpus} probe_ms {} wake_us={:.2}",
        probes.join(" "),
        wake_us()
    );
}
