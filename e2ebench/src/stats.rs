//! Order statistics and the result line.

use std::fmt::Write as _;

/// The `q`-quantile (`0 < q <= 1`) of `samples` by the nearest-rank rule,
/// together with how many samples lie strictly beyond it. Sorts in place.
pub fn quantile(samples: &mut [f64], q: f64) -> Quantile {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    samples.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    let value = samples[rank - 1];
    Quantile {
        value,
        count: samples.len(),
        beyond: samples.iter().filter(|&&s| s > value).count(),
    }
}

/// The median of `samples`: the middle value, or the mean of the middle
/// two. Sorts in place.
pub fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

/// One quantile of a sample, with the sample count behind it.
#[derive(Debug, Clone, Copy)]
pub struct Quantile {
    pub value: f64,
    pub count: usize,
    pub beyond: usize,
}

impl Quantile {
    /// `"<value> (n=<count>, <beyond> beyond)"`, for the report.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "{:.4} {unit} (n={}, {} beyond)",
            self.value, self.count, self.beyond
        )
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The final line of standard output: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, metric) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{:?}` prints an f64 with every digit it has (and `1.0`, not `1`).
        let value = if metric.value.is_finite() {
            format!("{:?}", metric.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        );
    }
    out.push_str("}}");
    out
}
