//! Order statistics, the run clock and the seeded generator.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process: the one time base
/// shared by spans, schedules and latencies.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Median of a sample (upper median for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}

/// The tail quantile a sample supports: the 99th percentile when at
/// least ten values lie beyond it, otherwise the highest percentile that
/// still leaves ten beyond. Returns `(value, percentile, sample count)`;
/// samples of ten or fewer report their maximum.
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    let p99 = ((n as f64 * 0.99).ceil() as usize).clamp(1, n) - 1;
    let idx = if n > 10 { p99.min(n - 11) } else { n - 1 };
    (v[idx], 100.0 * (idx + 1) as f64 / n as f64, n)
}

/// Lower quartile of a sample (the value a quarter of the way up, rounding
/// down); 0 when empty.
pub fn lower_quartile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len().saturating_sub(1) / 4).copied().unwrap_or(0.0)
}

/// The run's tail from per-slice tails: the lower quartile over slices of
/// each slice's [`tail`] value (with the median percentile), so the tail
/// is that of the calmer slices. A slow spell of the shared host lasts
/// seconds and sets a slice's tail wholly, often in half the slices of a
/// run; a tail the program causes shows in every slice.
pub fn tail_over_slices(tails: &[(f64, f64, usize)], samples: usize) -> (f64, f64, usize) {
    let p99: Vec<f64> = tails.iter().map(|t| t.0).collect();
    let pct: Vec<f64> = tails.iter().map(|t| t.1).collect();
    (lower_quartile(&p99), median(&pct), samples)
}

/// Latency figures robust to a slow spell of the host: `points` are
/// `(slice, value)`; each slice gets its own median and [`tail`]; returns
/// `(p50, (p99, percentile, samples))`, the p50 the median over slices of
/// the slice medians and the p99 by [`tail_over_slices`].
pub fn per_slice(points: &[(usize, f64)]) -> (f64, (f64, f64, usize)) {
    let mut slices: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(s, v) in points {
        slices.entry(s).or_default().push(v);
    }
    let meds: Vec<f64> = slices.values().map(|s| median(s)).collect();
    let tails: Vec<(f64, f64, usize)> = slices.values().map(|s| tail(s)).collect();
    (median(&meds), tail_over_slices(&tails, points.len()))
}

/// Calls `op(model)` round-robin over `times.len()` models for at least
/// `budget_ns` (and once per model), adding each call's duration in ms to
/// that model's samples.
pub fn time_round_robin(budget_ns: u64, times: &mut [Vec<f64>], mut op: impl FnMut(usize) -> u64) {
    let end = now_ns() + budget_ns;
    let mut i = 0;
    while now_ns() < end || i < times.len() {
        let m = i % times.len();
        times[m].push(op(m) as f64 / 1e6);
        i += 1;
    }
}

/// Fastest value of a sample; 0 when empty. For a fixed computation
/// this is its cost with the core to itself: the shared host alternates
/// between a fast and a ~1.6× slower mode many times a second, in a
/// share that drifts from minute to minute, so a median lands in either
/// mode (or on the gap between them) from run to run, while every run
/// catches some calls in the fast mode.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Geometric mean over models of each model's [`fastest`] time: the
/// models differ by orders of magnitude, so a pooled figure would sit on
/// the gap between two of them.
pub fn geomean_of_fastest(times: &[Vec<f64>]) -> f64 {
    geomean(&times.iter().map(|t| fastest(t)).collect::<Vec<_>>())
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// SplitMix64: every input the benchmark generates comes from one of
/// these, seeded from `--seed`, so a seed fixes the inputs exactly.
pub struct Rng(u64);

impl Rng {
    /// A stream for one purpose; `stream` keeps purposes independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}
