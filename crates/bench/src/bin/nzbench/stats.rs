//! Estimators, the seeded generator and the `/proc` readers — everything
//! the benchmark computes itself rather than asking the system under test.

use std::time::Instant;

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `p` percent of the samples at or below it.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len()) - 1).copied()
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median as the mean of the two middle elements (what
/// `statistics.median` does); 0 for an empty sample.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile by Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) — the same estimator the acceptance check of
/// the benchmark contract uses. One sample is its own quartiles.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v.to_vec());
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + delta * (s[j] - s[j - 1])
    };
    (at(1), at(3))
}

/// Median, quartiles and count of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

pub fn summarize(v: &[f64]) -> Summary {
    let (q1, q3) = quartiles(v);
    Summary {
        median: median(v),
        q1,
        q3,
        n: v.len(),
    }
}

/// xorshift64* over a SplitMix64-scrambled seed, so small consecutive
/// seeds (1, 2, 3 …) still give unrelated streams and seed 0 is legal.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Uniform in [-1, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// Fisher–Yates: the mix of a stream stays exact, only its order is
    /// drawn.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// One pass of the calibration loop: format, allocate and hash 20 000
/// lines of IR-like text — throughput-bound work with the allocator in
/// it, like the stack under test, and nothing of the stack itself.
fn calib_pass_ms() -> f64 {
    let t = Instant::now();
    let mut h = 0u64;
    for i in 0..20_000u64 {
        let line = format!("  %{} = add i64 %{}, {}\n", i, i + 1, i * 7);
        let bytes: Vec<u8> = line.into_bytes();
        for b in &bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    std::hint::black_box(h);
    t.elapsed().as_secs_f64() * 1e3
}

/// The machine's speed right now: the fastest of five passes of the
/// calibration loop (about 11 ms in all).
pub fn calib_ms() -> f64 {
    (0..5).map(|_| calib_pass_ms()).fold(f64::MAX, f64::min)
}

/// The calibration reading at which a host second is a reference second:
/// what the loop takes on the box the benchmark was defined on, calm.
pub const REFERENCE_CALIB_MS: f64 = 2.0;

/// How much of a slow-down of the calibration loop the workloads share.
/// Fitted once, on 450 rounds of a noisy hour (per-workload exponents 0.51
/// to 0.94, centre 0.8), then held fixed and checked on three later
/// sweeps of 70 runs each, other seeds, hours apart: the per-workload fits
/// came out 0.65-0.90, 0.62-0.94 and 0.55-0.84, and with 0.8 every
/// workload's spread over ten runs stayed under 10 % where host seconds
/// spread 9-47 % (README, "Run discipline").
pub const SENSITIVITY: f64 = 0.8;

/// Factor from host seconds to reference seconds at a calibration
/// reading: below 1 while the machine is slower than the reference.
pub fn speed(calib_ms: f64) -> f64 {
    (REFERENCE_CALIB_MS / calib_ms).powf(SENSITIVITY)
}

fn proc_status_kb(key: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process in MB (`VmHWM`); 0 where `/proc` is
/// absent.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds of this process, all threads.
pub fn cpu_seconds() -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, in clock ticks (100 per second on
    // every Linux this runs on).
    let Some(rest) = text.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|x| x.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_hand_computed_vectors() {
        let v = [10u64, 20, 30, 40, 50];
        assert_eq!(percentile(&v, 50.0), Some(30));
        assert_eq!(percentile(&v, 99.0), Some(50));
        assert_eq!(percentile(&v, 20.0), Some(10));
        assert_eq!(percentile(&v, 21.0), Some(20));
        assert_eq!(percentile(&v, 0.0), Some(10));
        assert_eq!(percentile(&v, 100.0), Some(50));
        assert_eq!(percentile::<u64>(&[], 50.0), None);
        // 100 samples 1..=100: p99 is the 99th, p50 the 50th.
        let h: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&h, 99.0), Some(99));
        assert_eq!(percentile(&h, 50.0), Some(50));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert_eq!(median(&[4.0, 1.0, 9.0]), 4.0);
    }

    #[test]
    fn rng_is_a_function_of_the_seed_and_shuffle_keeps_the_mix() {
        let a: Vec<u64> = {
            let mut r = Rng::new(1);
            (0..4).map(|_| r.next()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(1);
            (0..4).map(|_| r.next()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(2);
            (0..4).map(|_| r.next()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut v: Vec<u32> = (0..100).collect();
        Rng::new(0).shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
        let mut r = Rng::new(3);
        assert!((0..1000).all(|_| (-1.0..1.0).contains(&r.unit())));
    }

    #[test]
    fn a_slower_machine_stretches_the_reference_second() {
        assert_eq!(speed(REFERENCE_CALIB_MS), 1.0);
        // The loop takes twice as long: 10 host seconds of work count as
        // 10 * 2^-0.8 = 5.74 reference seconds.
        assert!((speed(2.0 * REFERENCE_CALIB_MS) - 0.574_349).abs() < 1e-6);
        assert!(speed(1.0) > 1.0);
        assert!(calib_ms() > 0.0);
    }
}
