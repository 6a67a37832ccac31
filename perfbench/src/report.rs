//! Result collection: named metrics with units, operation counts, output
//! checks, and the summary statistics every workload shares.

use std::collections::BTreeMap;

use lrb_obs::histogram::bounds_of;
use lrb_obs::HistogramSnapshot;

/// Everything one run reports: metrics by name, operations attempted and
/// failed, and the outcome of each output check.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<String, (f64, &'static str)>,
    checks: Vec<(String, bool, String)>,
    /// Operations (requests, cycles, tours) issued across all phases.
    pub attempted: u64,
    /// Operations that failed, were refused or returned incorrect output.
    pub failed: u64,
}

impl Report {
    /// Record metric `name` (last write wins).
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// A recorded metric's value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.0)
    }

    /// Record one output check.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push((name.to_string(), ok, detail));
    }

    /// Add one phase's operation counts.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(|c| c.1)
    }

    /// Failed operations over attempted ones.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Print the human-readable table, then the one-line JSON result with
    /// exactly the metrics named in `wanted` (the last line of stdout).
    pub fn print(&self, workload: &str, wanted: &[(&str, &str)]) {
        println!("== perfbench workload {workload}");
        for (name, (value, unit)) in &self.metrics {
            println!("  {name:<36} {value:>16.4} {unit}");
        }
        println!(
            "  {:<36} {:>16.6} ratio ({} of {} ops)",
            "fail_ratio",
            self.fail_ratio(),
            self.failed,
            self.attempted
        );
        for (name, ok, detail) in &self.checks {
            println!(
                "  check {name:<30} {} {detail}",
                if *ok { "ok  " } else { "FAIL" }
            );
        }
        let mut fields = Vec::new();
        for (name, unit) in wanted {
            let value = match self.metrics.get(*name) {
                Some((value, _)) if value.is_finite() => *value,
                _ => panic!("metric {name} was not measured on {workload}"),
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        );
    }
}

/// The `q`-quantile of `values` (nearest rank on a sorted copy).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of each of `chunks` consecutive, equal slices of
/// `values`.
pub fn chunk_quantiles(values: &[f64], chunks: usize, q: f64) -> Vec<f64> {
    let size = values.len().div_ceil(chunks.max(1)).max(1);
    values.chunks(size).map(|c| quantile(c, q)).collect()
}

/// Where across a run's time windows its timings are read: a latency at
/// this quantile of the per-window values (the calmest fifth of windows), a
/// rate at one minus it. Interference from other tenants of the host comes
/// and goes within a run; the median window sits where calm and disturbed
/// windows meet, so it swings with how much of the run was disturbed, while
/// the calm end stays put.
pub const CALM: f64 = 0.2;

/// The [`CALM`] quantile over `values` of a time (lower is better).
pub fn calm_time(values: &[f64]) -> f64 {
    quantile(values, CALM)
}

/// The [`CALM`] quantile over `values` of a rate (higher is better).
pub fn calm_rate(values: &[f64]) -> f64 {
    quantile(values, 1.0 - CALM)
}

/// Sub-buckets per power of two in [`LatHist`]: 0.55 % resolution.
const SUB_BITS: u32 = 7;

/// Samples a [`LatHist`] keeps verbatim, for exact quantiles of small
/// windows.
const EXACT: usize = 4096;

/// A log-linear latency histogram (nanoseconds) whose memory does not grow
/// with the operation rate. It keeps the first [`EXACT`] values verbatim, so
/// quantiles of small windows are exact, and only beyond that allocates its
/// fixed-size buckets and interpolates within one.
#[derive(Debug, Clone, Default)]
pub struct LatHist {
    counts: Vec<u64>,
    total: u64,
    exact: Vec<f64>,
}

impl LatHist {
    fn bucket(value: u64) -> usize {
        if value < 1 << SUB_BITS {
            return value as usize;
        }
        let exp = 63 - value.leading_zeros();
        let shift = exp - SUB_BITS;
        (((shift + 1) as usize) << SUB_BITS) + ((value >> shift) as usize & ((1 << SUB_BITS) - 1))
    }

    fn bounds(index: usize) -> (f64, f64) {
        if index < 1 << SUB_BITS {
            return (index as f64, index as f64 + 1.0);
        }
        let shift = (index >> SUB_BITS) as u32 - 1;
        let sub = (index & ((1 << SUB_BITS) - 1)) as u64 | 1 << SUB_BITS;
        let lower = (sub << shift) as f64;
        (lower, lower + (1u64 << shift) as f64)
    }

    /// Count `value` in the buckets, allocating them (and counting the
    /// exact values kept so far) on first use.
    fn bucketed(&mut self, value: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; (64 - SUB_BITS as usize + 1) << SUB_BITS];
            for &kept in &self.exact {
                self.counts[Self::bucket(kept as u64)] += 1;
            }
        }
        self.counts[Self::bucket(value)] += 1;
    }

    /// Record one value.
    pub fn record(&mut self, value: u64) {
        if self.exact.len() < EXACT && self.counts.is_empty() {
            self.exact.push(value as f64);
        } else {
            self.bucketed(value);
        }
        self.total += 1;
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Add another histogram's values.
    pub fn merge(&mut self, other: &LatHist) {
        if other.counts.is_empty() {
            other.exact.iter().for_each(|&v| self.record(v as u64));
            return;
        }
        if self.counts.is_empty() {
            let mine = std::mem::replace(self, other.clone());
            mine.exact.iter().for_each(|&v| self.record(v as u64));
            return;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile, interpolated linearly inside its bucket (NaN when
    /// empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        if self.counts.is_empty() {
            return quantile(&self.exact, q);
        }
        let rank = (q * self.total as f64).clamp(1.0, self.total as f64);
        let mut seen = 0.0;
        for (index, &count) in self.counts.iter().enumerate() {
            if count > 0 && seen + count as f64 >= rank {
                let (lower, upper) = Self::bounds(index);
                return lower + (upper - lower) * (rank - seen) / count as f64;
            }
            seen += count as f64;
        }
        f64::NAN
    }
}

/// Operation outcomes of a phase bucketed into equal time windows, so that
/// each metric can be read at the [`CALM`] end of its per-window values.
#[derive(Debug, Clone)]
pub struct Windows {
    start: std::time::Instant,
    len: std::time::Duration,
    /// Latency per window.
    pub latency: Vec<LatHist>,
    /// Generator lateness per window.
    pub late: Vec<LatHist>,
    /// Draws completed per window.
    pub draws: Vec<u64>,
}

impl Windows {
    /// Equal windows of about `window_s` seconds covering `duration` from
    /// `start`.
    pub fn covering(
        start: std::time::Instant,
        duration: std::time::Duration,
        window_s: f64,
    ) -> Self {
        let count = (duration.as_secs_f64() / window_s).round().max(1.0) as u32;
        Self::new(start, duration / count, count as usize)
    }

    /// `count` windows of `len` from `start`.
    pub fn new(start: std::time::Instant, len: std::time::Duration, count: usize) -> Self {
        Self {
            start,
            len,
            latency: vec![LatHist::default(); count],
            late: vec![LatHist::default(); count],
            draws: vec![0; count],
        }
    }

    /// The window holding instant `t` (`None` outside the phase).
    pub fn at(&self, t: std::time::Instant) -> Option<usize> {
        let k =
            (t.checked_duration_since(self.start)?.as_secs_f64() / self.len.as_secs_f64()) as usize;
        (k < self.draws.len()).then_some(k)
    }

    /// Add another thread's windows (same start and length).
    pub fn merge(&mut self, other: &Windows) {
        for k in 0..self.draws.len() {
            self.latency[k].merge(&other.latency[k]);
            self.late[k].merge(&other.late[k]);
            self.draws[k] += other.draws[k];
        }
    }

    /// Append the windows of a later phase of the same kind (same window
    /// length), so that readings run over both.
    pub fn append(&mut self, other: Windows) {
        self.latency.extend(other.latency);
        self.late.extend(other.late);
        self.draws.extend(other.draws);
    }

    /// Draws per second of each window.
    fn rates(&self) -> Vec<f64> {
        self.draws
            .iter()
            .map(|&d| d as f64 / self.len.as_secs_f64())
            .collect()
    }

    /// Draws per second, at the [`CALM`] end over windows.
    pub fn draws_per_s(&self) -> f64 {
        calm_rate(&self.rates())
    }

    /// The `q`-quantile of each non-empty window, microseconds.
    fn per_window_us(hists: &[LatHist], q: f64) -> Vec<f64> {
        hists
            .iter()
            .filter(|h| h.count() > 0)
            .map(|h| h.quantile(q) / 1e3)
            .collect()
    }

    /// The latency `q`-quantile, microseconds, at the [`CALM`] end over
    /// windows.
    pub fn latency_us(&self, q: f64) -> f64 {
        calm_time(&Self::per_window_us(&self.latency, q))
    }

    /// Median over windows of the lateness `q`-quantile, microseconds (the
    /// generator's own lateness, read over the whole run).
    pub fn late_us(&self, q: f64) -> f64 {
        median(&Self::per_window_us(&self.late, q))
    }
}

/// The `q`-quantile of the values recorded into exported histograms
/// between two reads of them (`before[i]` and `after[i]` are one histogram,
/// e.g. one shard's), at the bucket midpoints the exporter reports. `None`
/// when nothing was recorded in between.
pub fn delta_quantile(
    before: &[HistogramSnapshot],
    after: &[HistogramSnapshot],
    q: f64,
) -> Option<f64> {
    let mut deltas = vec![0u64; lrb_obs::BUCKETS];
    for (b, a) in before.iter().zip(after) {
        for ((delta, x), y) in deltas.iter_mut().zip(a.counts()).zip(b.counts()) {
            *delta += x - y;
        }
    }
    let total: u64 = deltas.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for (index, count) in deltas.iter().enumerate() {
        seen += count;
        if seen >= rank {
            let (lower, upper) = bounds_of(index);
            let width = upper - lower;
            return Some(if width == 1 { lower } else { lower + width / 2 } as f64);
        }
    }
    None
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
