//! The host's speed, sampled while the DES days run.
//!
//! The two vCPUs of the benchmark host share their cores with other
//! tenants, and the speed of one thread swings by half within seconds
//! and drifts over minutes. A day takes a second or two of CPU time,
//! so a calibration run next to it misses what happened during it.
//! Instead a profiling timer (`ITIMER_PROF`) interrupts the measuring
//! thread every `PERIOD_US` of CPU time and runs a small fixed kernel
//! in the signal handler: sorting 1,024 pseudo-random keys twice. The
//! mean kernel time over a measured span says how fast the host ran
//! during that span; dividing by it cancels the share of the swings the
//! day and the kernel have in common. No program code runs in the
//! kernel, so a change to the program moves the ratio in full.

use crate::out::thread_cpu;
use std::ffi::{c_int, c_long};
use std::sync::atomic::{
    AtomicBool, AtomicU64,
    Ordering::{Acquire, Relaxed, Release},
};

/// CPU time between two kernel samples (µs): about 1% overhead.
const PERIOD_US: c_long = 5_000;

/// The kernel's time at the reference speed (µs). A time at the
/// reference speed is its on-CPU time times this over the mean kernel
/// time sampled during it.
pub const KERNEL_REF_US: f64 = 35.0;

static KERNEL_NS: AtomicU64 = AtomicU64::new(0);
static SAMPLES: AtomicU64 = AtomicU64::new(0);
static HANDLER_NS: AtomicU64 = AtomicU64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);

/// Held while a handler runs the kernel. `SIGPROF` is blocked while
/// its handler runs, but another thread may take the next one.
static BUSY: AtomicBool = AtomicBool::new(false);

/// The kernel's keys; only a handler holding `BUSY` touches them.
static mut KEYS: [u32; 1024] = [0; 1024];

fn kernel() {
    // SAFETY: only `on_prof` calls this, holding `BUSY`, so this is the
    // only reference to `KEYS` while it lives.
    let keys = unsafe { &mut *std::ptr::addr_of_mut!(KEYS) };
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..2 {
        for k in keys.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *k = x as u32;
        }
        keys.sort_unstable();
        std::hint::black_box(&keys);
    }
}

/// The `SIGPROF` handler: time the kernel on the interrupted thread's
/// CPU clock. It allocates nothing, waits for nothing and makes no call
/// but `clock_gettime`, which is async-signal-safe.
extern "C" fn on_prof(_sig: c_int) {
    if BUSY.swap(true, Acquire) {
        return;
    }
    let t0 = thread_cpu();
    kernel();
    let t1 = thread_cpu();
    KERNEL_NS.fetch_add((t1 - t0).as_nanos() as u64, Relaxed);
    SAMPLES.fetch_add(1, Relaxed);
    HANDLER_NS.fetch_add((thread_cpu() - t0).as_nanos() as u64, Relaxed);
    BUSY.store(false, Release);
}

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

#[repr(C)]
struct Itimerval {
    interval: Timeval,
    value: Timeval,
}

extern "C" {
    fn signal(sig: c_int, handler: usize) -> usize;
    fn setitimer(which: c_int, new: *const Itimerval, old: *mut Itimerval) -> c_int;
}

const SIGPROF: c_int = 27;
const ITIMER_PROF: c_int = 2;

fn set_timer(usec: c_long) {
    let t = Itimerval {
        interval: Timeval { sec: 0, usec },
        value: Timeval { sec: 0, usec },
    };
    // SAFETY: `t` is a valid `struct itimerval` (four C longs on Linux)
    // that outlives the call; the old value is not asked for.
    let rc = unsafe { setitimer(ITIMER_PROF, &t, std::ptr::null_mut()) };
    assert_eq!(rc, 0, "setitimer(ITIMER_PROF) failed");
}

/// Samples the host's speed while it lives. The process's profiling
/// timer counts the CPU time of all its threads, so the measuring
/// thread must be the only busy one; one sampler at a time.
pub struct Sampler(());

impl Sampler {
    pub fn start() -> Sampler {
        assert!(!ARMED.swap(true, Relaxed), "one speed sampler at a time");
        // SAFETY: `on_prof` is an `extern "C" fn(c_int)`, what
        // `signal` expects; glibc installs it with BSD semantics
        // (SA_RESTART, `SIGPROF` blocked while it runs).
        let old = unsafe { signal(SIGPROF, on_prof as extern "C" fn(c_int) as usize) };
        assert_ne!(old, usize::MAX, "signal(SIGPROF) failed");
        set_timer(PERIOD_US);
        Sampler(())
    }

    /// The totals so far; subtract two to get a span's.
    pub fn reading(&self) -> Reading {
        Reading {
            kernel_ns: KERNEL_NS.load(Relaxed),
            samples: SAMPLES.load(Relaxed),
            handler_ns: HANDLER_NS.load(Relaxed),
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        set_timer(0);
        ARMED.store(false, Relaxed);
    }
}

/// Kernel samples taken in a span.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Reading {
    /// Time the kernel took, summed over the samples.
    pub kernel_ns: u64,
    pub samples: u64,
    /// Time the handler took, kernel included: the share of the span's
    /// CPU time that was not the work measured.
    pub handler_ns: u64,
}

impl Reading {
    /// The samples taken after `earlier`.
    pub fn since(&self, earlier: &Reading) -> Reading {
        Reading {
            kernel_ns: self.kernel_ns - earlier.kernel_ns,
            samples: self.samples - earlier.samples,
            handler_ns: self.handler_ns - earlier.handler_ns,
        }
    }

    /// Mean kernel time (µs), if any sample was taken.
    pub fn kernel_us(&self) -> Option<f64> {
        (self.samples > 0).then(|| self.kernel_ns as f64 / 1e3 / self.samples as f64)
    }

    /// The factor that takes `cpu_s`, the on-CPU time of a span with
    /// these samples, to the work's time at the reference speed: the
    /// handler's time comes off, then the rest scales by the reference
    /// over the mean kernel time.
    pub fn to_reference(self, cpu_s: f64) -> Option<f64> {
        let mean_us = self.kernel_us()?;
        let work = (1.0 - self.handler_ns as f64 / 1e9 / cpu_s).max(0.0);
        Some(work * KERNEL_REF_US / mean_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn reference_factor_removes_the_handler_and_scales_by_the_kernel() {
        // A span of 1 s CPU with 100 samples of 70 µs (twice the
        // reference) and 10 ms in the handler: 0.99 s of work at half
        // the reference speed is 0.495 s at the reference.
        let r = Reading {
            kernel_ns: 100 * 70_000,
            samples: 100,
            handler_ns: 10_000_000,
        };
        let f = r.to_reference(1.0).unwrap();
        assert!((f - 0.495).abs() < 1e-12, "{f}");
        assert_eq!(Reading::default().to_reference(1.0), None);
        let later = Reading {
            kernel_ns: 300,
            samples: 3,
            handler_ns: 400,
        };
        let span = later.since(&Reading {
            kernel_ns: 100,
            samples: 1,
            handler_ns: 100,
        });
        assert_eq!(span.kernel_us(), Some(0.1));
        assert_eq!(span.handler_ns, 300);
    }

    #[test]
    fn sampler_samples_busy_cpu_time_and_stops() {
        let s = Sampler::start();
        let r0 = s.reading();
        let t0 = thread_cpu();
        while thread_cpu() - t0 < Duration::from_millis(60) {
            std::hint::black_box(thread_cpu());
        }
        let span = s.reading().since(&r0);
        drop(s);
        assert!(span.samples >= 3, "{span:?}");
        assert!(span.kernel_us().unwrap() > 0.0);
        let now = || Reading {
            kernel_ns: KERNEL_NS.load(Relaxed),
            samples: SAMPLES.load(Relaxed),
            handler_ns: HANDLER_NS.load(Relaxed),
        };
        let stopped = now();
        let t1 = thread_cpu();
        while thread_cpu() - t1 < Duration::from_millis(20) {
            std::hint::black_box(thread_cpu());
        }
        assert_eq!(now(), stopped, "a stopped sampler takes no samples");
    }
}
