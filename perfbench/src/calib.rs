//! A fixed reference computation that gauges how fast the host runs
//! during a run.
//!
//! The benchmark runs on a few cores of a shared host. There the same
//! work can run up to half again as slowly while other tenants load the
//! core or the memory system, and such spells last from seconds to
//! minutes, so two runs of identical work can differ by a third or more.
//! A [`Gauge`] runs short slices of a fixed computation between the
//! measured operations, all through the run, and the median slice time
//! against [`NOMINAL_SLICE_S`] gives how much slower than nominal the
//! host ran. The timed metrics are divided by [`Gauge::correction`] of
//! that slowdown, so that they read closer to seconds on the host the
//! benchmark was built on, at its usual speed; the uncorrected times and
//! the slowdown are printed beside them.
//!
//! The computation belongs to the benchmark and never changes with the
//! program under test, so a change to the program moves the corrected
//! times as it moves the wall times. Its work is a mix like the
//! program's: a sparse matrix-vector product with indirect loads (the
//! simplex's pricing and updates), ordered and hashed map inserts and
//! lookups that allocate (clustering, memo tables), and a sort. Its
//! working set, about 1 MB, stays in the core's own cache, as most of the
//! program's does: a gauge that streamed a few MB from the shared cache
//! slowed by 40% in spells that slowed the program by 10%.

use crate::inputs::Rng;
use crate::stats::median;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Rows of the sparse matrix; with [`ROW_NNZ`] its data is about 0.9 MB.
const ROWS: usize = 12_000;
/// Non-zeros per row.
const ROW_NNZ: usize = 6;
/// Matrix-vector products per slice.
const PRODUCTS: usize = 8;
/// Keys inserted into, and looked up in, each map per slice.
const MAP_KEYS: usize = 6_000;

/// Median slice time on the 2 vCPU Xeon (2.1 GHz) host the benchmark
/// was built on, in an unloaded spell.
pub const NOMINAL_SLICE_S: f64 = 0.003;

/// The data of the reference computation.
struct Kernel {
    cols: Vec<u32>,
    vals: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
    keys: Vec<u64>,
}

impl Kernel {
    /// Builds the computation's data from a fixed seed.
    fn new() -> Kernel {
        let mut rng = Rng::new(0x5EED, 0xCA11);
        let cols = (0..ROWS * ROW_NNZ)
            .map(|_| rng.below(ROWS) as u32)
            .collect();
        let unit = |r: &mut Rng| (r.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let vals = (0..ROWS * ROW_NNZ).map(|_| unit(&mut rng) - 0.5).collect();
        let x = (0..ROWS).map(|_| unit(&mut rng)).collect();
        let keys = (0..MAP_KEYS).map(|_| rng.next_u64()).collect();
        Kernel {
            cols,
            vals,
            x,
            y: vec![0.0; ROWS],
            keys,
        }
    }

    /// One slice of the fixed work; returns its wall time in seconds.
    fn slice(&mut self) -> f64 {
        let started = Instant::now();
        for _ in 0..PRODUCTS {
            for (row, y) in self.y.iter_mut().enumerate() {
                let span = row * ROW_NNZ..(row + 1) * ROW_NNZ;
                *y = self.cols[span.clone()]
                    .iter()
                    .zip(&self.vals[span])
                    .map(|(&c, &v)| v * self.x[c as usize])
                    .sum();
            }
            // Feed the product back so that no product can be skipped.
            let scale = 1.0 / (1.0 + self.y.iter().map(|v| v.abs()).sum::<f64>());
            for (x, y) in self.x.iter_mut().zip(&self.y) {
                *x = 0.5 * *x + scale * y.abs();
            }
        }
        let ordered: BTreeMap<u64, Vec<u64>> = self.keys.iter().map(|&k| (k, vec![k; 2])).collect();
        let hashed: HashMap<u64, usize> = self.keys.iter().map(|&k| (k, k as usize)).collect();
        let found = self
            .keys
            .iter()
            .rev()
            .filter(|k| ordered.get(k).is_some_and(|v| v[1] == **k) && hashed.contains_key(k))
            .count();
        let mut sorted = self.keys.clone();
        sorted.sort_unstable_by_key(|k| k.rotate_left((found % 64) as u32));
        black_box((&self.x, ordered, hashed, sorted));
        started.elapsed().as_secs_f64()
    }
}

/// Slice times gathered through one run.
pub struct Gauge {
    kernel: Kernel,
    slices: Vec<f64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge {
            kernel: Kernel::new(),
            slices: Vec::new(),
        }
    }

    /// Runs `n` slices and records their times.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            let t = self.kernel.slice();
            self.slices.push(t);
        }
    }

    /// Slices recorded so far.
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// How many times slower than nominal the host ran over the slices
    /// recorded so far (1 before any).
    pub fn slowdown(&self) -> f64 {
        median(&self.slices).map_or(1.0, |m| m / NOMINAL_SLICE_S)
    }

    /// The slowdown over the `n` slices recorded before [`Gauge::len`]
    /// read `mark` and the `n` recorded from then on (1 if there are none).
    pub fn slowdown_around(&self, mark: usize, n: usize) -> f64 {
        let end = (mark + n).min(self.slices.len());
        let start = mark.saturating_sub(n).min(end);
        median(&self.slices[start..end]).map_or(1.0, |m| m / NOMINAL_SLICE_S)
    }

    /// The factor a wall time measured at `slowdown` is divided by: its
    /// square root. How much a spell slows the program, against how much
    /// it slows the gauge, depends on what the other tenants run: under a
    /// memory-streaming neighbour on the other core both slowed about 1.45
    /// times, while in other spells the program hardly moved as the gauge
    /// did. Dividing by the full slowdown then adds the gauge's noise to
    /// the program's; the square root removes half of a shared slowdown
    /// and adds at most half of the gauge's own noise.
    pub fn correction(slowdown: f64) -> f64 {
        slowdown.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_work_is_the_same_every_time() {
        let (mut a, mut b) = (Kernel::new(), Kernel::new());
        assert_eq!(a.cols, b.cols);
        assert_eq!(a.keys, b.keys);
        for _ in 0..2 {
            assert!(a.slice() > 0.0);
            b.slice();
        }
        assert_eq!(a.x, b.x);
    }

    #[test]
    fn the_slowdown_is_the_median_slice_against_nominal() {
        let mut g = Gauge::new();
        assert_eq!(g.slowdown(), 1.0);
        g.slices = vec![NOMINAL_SLICE_S, 9.0, 2.0 * NOMINAL_SLICE_S];
        assert!((g.slowdown() - 2.0).abs() < 1e-12);
        assert_eq!(g.slowdown_around(0, 1), 1.0);
        assert!((g.slowdown_around(3, 1) - 2.0).abs() < 1e-12);
        assert_eq!(g.slowdown_around(9, 2), 1.0);
        assert_eq!(Gauge::correction(2.25), 1.5);
        g.sample(2);
        assert_eq!(g.len(), 5);
    }
}
