//! Host-speed normalization of the benchmark's timings.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by
//! ±15–40% over minutes while the program's work stays the same. Little
//! of the drift is stolen CPU time (a suite pass's CPU time moves with
//! its wall time); what slows is the memory system the host's other
//! tenants share, and a program-independent kernel that allocates,
//! hashes, sorts and faults in fresh pages slows with it. On a 2-vCPU
//! Xeon VM, over 14 back-to-back passes of the single-table suite tasks,
//! the pass time moved between 8.9 and 15.1 s while its ratio to the
//! kernel's hashing-and-sorting part stayed within 55–62; the page faults
//! were added for the two-table tasks, whose solves map hundreds of MiB.
//!
//! The benchmark therefore times the kernel between pieces of work
//! ([`Speed::sample`]) and reports each measured interval scaled to a
//! host on which the kernel takes [`REF_KERNEL_S`]: `t × REF_KERNEL_S /
//! k`, where `k` is the median kernel time of the samples nearest the
//! interval. A program change moves the scaled figures as it moves the
//! raw ones; host drift mostly cancels. Noise within a second (one solve
//! varies by about 9% from the next even on a quiet host) does not: the
//! workloads average it out over many solves and requests.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::stats::median;

/// Kernel time of the reference host: scaled timings read as if the
/// kernel took this long. It is about the kernel's time on a quiet
/// 2-vCPU 2.1 GHz Xeon VM, so scaled figures are close to that host's
/// wall times.
pub const REF_KERNEL_S: f64 = 0.018;

/// Keys the kernel inserts, sorts and formats.
const KERNEL_KEYS: usize = 100_000;

/// Samples whose median scales an interval.
const NEAREST: usize = 11;

/// Bytes of fresh memory the kernel maps and touches. It is above glibc's
/// largest mmap threshold (32 MiB), so every call maps new zeroed pages
/// from the operating system, as the suites' largest solves do.
const KERNEL_FRESH_BYTES: usize = 40 << 20;

/// The kernel writes one byte per this many of the fresh bytes, faulting
/// in one page in four.
const KERNEL_TOUCH_STRIDE: usize = 16 << 10;

/// The reference kernel: a hash map and a vector of `KERNEL_KEYS`
/// pseudo-random keys built from empty (so they reallocate as they grow),
/// the vector sorted and a quarter of it formatted into strings, and
/// pages of `KERNEL_FRESH_BYTES` of fresh memory faulted in. The work is the same on
/// every call. Returns the result, so the work cannot be optimized away.
fn kernel() -> u64 {
    let mut fresh = vec![0u8; KERNEL_FRESH_BYTES];
    for i in (0..KERNEL_FRESH_BYTES).step_by(KERNEL_TOUCH_STRIDE) {
        fresh[i] = 1;
    }
    let touched = black_box(&fresh)
        .iter()
        .step_by(KERNEL_TOUCH_STRIDE)
        .map(|&b| b as u64)
        .sum::<u64>();
    drop(fresh);
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut keys = Vec::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..KERNEL_KEYS as u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % (4 * KERNEL_KEYS as u64), i);
        keys.push(x);
    }
    keys.sort_unstable();
    let words: Vec<String> = keys.iter().step_by(4).map(u64::to_string).collect();
    map.len() as u64
        ^ keys[KERNEL_KEYS / 2]
        ^ words.iter().map(String::len).sum::<usize>() as u64
        ^ touched
}

/// A thread that runs the kernel on request and answers with its time.
/// Its allocations come from the thread's own malloc arena, whatever
/// state the program left the calling thread's heap in; on the caller's
/// thread the kernel would run faster right after the largest solves, on
/// the memory they have just freed.
struct Worker {
    go: Sender<()>,
    done: Receiver<f64>,
    thread: JoinHandle<()>,
}

impl Worker {
    fn start() -> Worker {
        let (go, requests) = channel::<()>();
        let (answer, done) = channel();
        let thread = std::thread::spawn(move || {
            for () in requests {
                let t0 = Instant::now();
                black_box(kernel());
                if answer.send(t0.elapsed().as_secs_f64()).is_err() {
                    break;
                }
            }
        });
        Worker { go, done, thread }
    }

    fn run(&self) -> f64 {
        self.go.send(()).expect("kernel thread alive");
        self.done.recv().expect("kernel thread alive")
    }
}

/// Kernel samples of one run, against the run's own clock.
pub struct Speed {
    origin: Instant,
    /// (mid-point in seconds since `origin`, kernel seconds), in time
    /// order.
    samples: Vec<(f64, f64)>,
    worker: Option<Worker>,
}

impl Speed {
    /// No samples yet; the clock starts now.
    pub fn new() -> Speed {
        Speed {
            origin: Instant::now(),
            samples: Vec::new(),
            worker: None,
        }
    }

    /// `t` in seconds since the run's clock started.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Runs the kernel once, on the kernel thread while this one waits,
    /// and records its time, which it returns.
    pub fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        let k = self.worker.get_or_insert_with(Worker::start).run();
        self.samples.push((self.at(t0) + k / 2.0, k));
        k
    }

    /// Samples taken so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Median kernel time over the run; 0.0 with no samples.
    pub fn median_kernel_s(&self) -> f64 {
        let ks: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        median(&ks)
    }

    /// The factor that scales an interval around `at` (seconds on the
    /// run's clock) to the reference host: `REF_KERNEL_S` over the median
    /// kernel time of the `NEAREST` samples closest to `at`. 1.0 with no
    /// samples.
    pub fn factor(&self, at: f64) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        // The samples are in time order: the nearest ones form a window
        // around where `at` falls.
        let n = self.samples.len();
        let k = NEAREST.min(n);
        let pos = self.samples.partition_point(|s| s.0 < at);
        let (mut lo, mut hi) = (pos, pos);
        while hi - lo < k {
            let take_lo = match (lo.checked_sub(1), hi < n) {
                (Some(l), true) => at - self.samples[l].0 <= self.samples[hi].0 - at,
                (Some(_), false) => true,
                (None, _) => false,
            };
            if take_lo {
                lo -= 1;
            } else {
                hi += 1;
            }
        }
        let ks: Vec<f64> = self.samples[lo..hi].iter().map(|s| s.1).collect();
        REF_KERNEL_S / median(&ks)
    }

    /// `seconds` measured between `from` and `to` (seconds on the run's
    /// clock), scaled to the reference host.
    pub fn scale(&self, seconds: f64, from: f64, to: f64) -> f64 {
        seconds * self.factor((from + to) / 2.0)
    }
}

impl Drop for Speed {
    fn drop(&mut self) {
        if let Some(Worker { go, done, thread }) = self.worker.take() {
            drop((go, done));
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with(samples: &[(f64, f64)]) -> Speed {
        Speed {
            origin: Instant::now(),
            samples: samples.to_vec(),
            worker: None,
        }
    }

    #[test]
    fn kernel_work_is_fixed() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn factor_uses_the_nearest_samples() {
        const FAST: f64 = REF_KERNEL_S;
        const SLOW: f64 = 2.0 * REF_KERNEL_S;
        assert_eq!(with(&[]).factor(3.0), 1.0);
        // One sample: every interval scales by it.
        assert_eq!(with(&[(1.0, SLOW)]).factor(50.0), 0.5);
        // A slow phase between two fast ones, a sample a second.
        let p = 2 * NEAREST;
        let mut s: Vec<(f64, f64)> = (0..3 * p)
            .map(|i| (i as f64, if (p..2 * p).contains(&i) { SLOW } else { FAST }))
            .collect();
        let speed = with(&s);
        let p = p as f64;
        assert_eq!(speed.factor(p / 2.0), 1.0);
        assert_eq!(speed.factor(1.5 * p), 0.5);
        assert_eq!(speed.factor(-3.0), 1.0);
        assert_eq!(speed.factor(99.0 * p), 1.0);
        // Near a boundary the window's majority decides (an odd window).
        assert_eq!(NEAREST % 2, 1);
        assert_eq!(speed.factor(p + 0.4), 0.5);
        assert_eq!(speed.factor(p - 1.4), 1.0);
        // Two seconds in the slow phase are one second on the reference.
        assert_eq!(speed.scale(2.0, 1.5 * p - 1.0, 1.5 * p + 1.0), 1.0);
        // One outlying sample does not move the median.
        s[(1.5 * p) as usize].1 = 1.0;
        assert_eq!(with(&s).factor(1.5 * p), 0.5);
    }

    #[test]
    fn samples_are_recorded_in_time_order() {
        let mut speed = Speed::new();
        for _ in 0..3 {
            assert!(speed.sample() > 0.0);
        }
        assert_eq!(speed.len(), 3);
        assert!(speed.samples.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(speed.median_kernel_s() > 0.0);
        assert!(speed.factor(speed.at(Instant::now())) > 0.0);
    }
}
