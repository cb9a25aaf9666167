//! Host-speed calibration: a fixed reference kernel, owned by the benchmark and
//! independent of the program under test, timed on every client thread at
//! once before and after each slice of the timed phase and each set-up.
//!
//! The reference host is shared, and its speed drifts by a third within
//! minutes, in CPU time as well as in wall time. The same drift slows the
//! kernel, so a wall-clock figure scaled by the kernel's speed compares across
//! runs made at different times. A change to the program cannot move the
//! kernel: it lives here and touches none of the program's code or data.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// A typical unit time on the reference host (2 cores of a 2.0 GHz Xeon,
/// where a unit takes 18–28 µs as the host's load varies). Normalised figures
/// are what the host would have measured had a unit taken exactly this long.
pub const REFERENCE_UNIT_NS: f64 = 25_000.0;
/// Length of one calibration burst.
pub const BURST: Duration = Duration::from_millis(100);

/// Words in the kernel's lookup table (4 MiB: larger than L2, so the random
/// probes feel cache and memory contention the way the executor does).
const TABLE_WORDS: usize = 1 << 19;
/// Random probes, scanned words and dot-product rows per kernel unit.
const PROBES: usize = 2048;
const SCAN_WORDS: usize = 16 * 1024;
const ROWS: usize = 64;
const COLS: usize = 64;

/// The reference kernel's data; built once per run, outside every clock.
pub struct Kernel {
    table: Vec<u64>,
    weights: Vec<f32>,
    input: Vec<f32>,
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Kernel {
    pub fn new() -> Self {
        let table: Vec<u64> = (0..TABLE_WORDS as u64).map(splitmix).collect();
        let weights = (0..ROWS * COLS)
            .map(|i| (splitmix(i as u64 ^ 0x5EED) % 1000) as f32 / 1000.0 - 0.5)
            .collect();
        let input = (0..COLS).map(|i| i as f32 / COLS as f32).collect();
        Self {
            table,
            weights,
            input,
        }
    }

    /// One unit of fixed work: random table probes, a filtered sequential
    /// scan and a small dense layer, the shapes of the executor's lookups,
    /// its scans and the Q-network.
    fn unit(&self, salt: u64) -> u64 {
        let table = black_box(&self.table);
        let mut x = salt;
        let mut acc = 0u64;
        for _ in 0..PROBES {
            x = splitmix(x);
            acc ^= table[x as usize & (TABLE_WORDS - 1)];
        }
        let start = (salt as usize * SCAN_WORDS) % (TABLE_WORDS - SCAN_WORDS);
        for &w in &table[start..start + SCAN_WORDS] {
            if w & 7 == salt & 7 {
                acc = acc.wrapping_add(w);
            }
        }
        let mut out = 0f32;
        for row in black_box(&self.weights).chunks_exact(COLS) {
            let dot: f32 = row.iter().zip(&self.input).map(|(w, v)| w * v).sum();
            out += dot.max(0.0);
        }
        acc ^ u64::from(out.to_bits())
    }

    /// Runs kernel units on `threads` threads at once for about `budget`;
    /// returns the median unit time in nanoseconds over every thread.
    pub fn burst(&self, threads: usize, budget: Duration) -> f64 {
        let mut times: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads.max(1))
                .map(|t| {
                    scope.spawn(move || {
                        let deadline = Instant::now() + budget;
                        let mut times = Vec::new();
                        let mut salt = t as u64;
                        while Instant::now() < deadline {
                            let t0 = Instant::now();
                            black_box(self.unit(salt));
                            times.push(t0.elapsed().as_nanos() as f64);
                            salt += threads as u64;
                        }
                        times
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("a calibration thread panicked"))
                .collect()
        });
        times.sort_by(|a, b| a.total_cmp(b));
        times[times.len() / 2]
    }
}

/// How fast the host ran during a measurement, from the bursts around it.
#[derive(Debug, Clone, PartialEq)]
pub struct Speed {
    /// Median over the bursts of each burst's median unit time (the mean of
    /// the middle two for an even count). A median, not a mean: a single
    /// burst that lands on a brief stall says little about the phase.
    pub unit_ns: f64,
    /// Each burst's median unit time, in order.
    pub bursts: Vec<f64>,
}

impl Speed {
    pub fn from_bursts(bursts: &[f64]) -> Self {
        let mut sorted = bursts.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let n = sorted.len();
        Self {
            unit_ns: (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0,
            bursts: bursts.to_vec(),
        }
    }

    /// Scales a wall-clock duration to the reference host's speed: a slow
    /// period (units slower than the reference) scales it down.
    pub fn normalise_time(&self, wall: f64) -> f64 {
        wall * REFERENCE_UNIT_NS / self.unit_ns
    }

    /// Scales a wall-clock rate to the reference host's speed.
    pub fn normalise_rate(&self, rate: f64) -> f64 {
        rate * self.unit_ns / REFERENCE_UNIT_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_the_median_burst_and_scales_both_ways() {
        let speed = Speed::from_bursts(&[30_000.0, 90_000.0, 20_000.0, 50_000.0, 40_000.0]);
        assert_eq!(speed.unit_ns, 40_000.0);
        assert_eq!(speed.bursts.len(), 5);
        let even = Speed::from_bursts(&[20_000.0, 90_000.0, 30_000.0, 10_000.0]);
        assert_eq!(even.unit_ns, 25_000.0);
        // A host at 1.6× the reference unit time is 1.6× slow.
        assert!((speed.normalise_time(1.6) - 1.0).abs() < 1e-12);
        assert!((speed.normalise_rate(100.0) - 160.0).abs() < 1e-9);
    }

    #[test]
    fn the_kernel_is_deterministic_and_a_burst_times_it() {
        let kernel = Kernel::new();
        assert_eq!(kernel.unit(7), kernel.unit(7));
        assert_ne!(kernel.unit(7), kernel.unit(8));
        assert!(kernel.burst(2, Duration::from_millis(20)) > 0.0);
    }
}
