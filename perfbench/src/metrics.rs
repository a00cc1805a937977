//! Metric records and the order statistics the benchmark reports.

use std::time::Duration;

/// One reported number: value, unit and the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    /// Free-text qualifier printed beside the value (which percentile a
    /// tail is, which workload-specific metric a generic one stands for, ...).
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            samples,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted inside the measured window.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned wrong output.
    pub failed: u64,
    /// Human-readable descriptions of failed output checks.
    pub problems: Vec<String>,
    /// The `end_to_end` metrics of `BENCHMARK.json` (workload-neutral
    /// names, gated by their bounds).
    pub e2e: Vec<Metric>,
    /// Workload-specific medians, tails and rates, printed but not gated.
    pub named: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Free-form lines (check summaries, run shape).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed output check (at most a handful are kept
    /// verbatim; all are counted).
    pub fn problem(&mut self, what: impl Into<String>) {
        if self.problems.len() < 8 {
            self.problems.push(what.into());
        }
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile that has at least ten samples beyond it: the
/// eleventh-largest sample, at percentile `100 (n - 10) / n`. Below 20
/// samples that percentile would not reach the median, so the maximum
/// is reported instead (percentile 100).
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
}

pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 100.0,
        };
    }
    if n < 20 {
        return Tail {
            value: v[n - 1],
            percentile: 100.0,
        };
    }
    Tail {
        value: v[n - 11],
        percentile: 100.0 * (n - 10) as f64 / n as f64,
    }
}

impl Tail {
    pub fn label(&self, n: usize) -> String {
        if n < 20 {
            format!("max of {n} (fewer than 20 samples)")
        } else {
            format!("p{:.1}, 10 samples beyond", self.percentile)
        }
    }
}

/// The nearest-rank `p`-th percentile of `values`; 0 for no samples.
pub fn percentile(values: &[f64], p: usize) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    v[(p * v.len()).div_ceil(100).clamp(1, v.len()) - 1]
}

/// `p10/p25/p50/p75/p90` and mean of `values`, for the notes.
pub fn quantiles(values: &[f64]) -> String {
    if values.is_empty() {
        return String::new();
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    [10, 25, 50, 75, 90]
        .iter()
        .map(|&p| format!("p{p} {:.1}", percentile(values, p)))
        .chain(std::iter::once(format!("mean {mean:.1}")))
        .collect::<Vec<_>>()
        .join(", ")
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets this process's peak resident set to its current size, so a
/// later `peak_rss_mib` covers only what runs after this call. Where the
/// kernel does not support it the peak keeps covering the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert!((t.percentile - 90.0).abs() < 1e-9);
        assert_eq!(tail(&[1.0, 5.0]).value, 5.0);
        assert_eq!(percentile(&v, 25), 25.0);
        assert_eq!(percentile(&[7.0, 3.0, 5.0], 25), 3.0);
    }
}
