//! Sample summaries and the report the benchmark prints.

use std::fmt::Write as _;
use std::time::Duration;

/// The `q`-quantile (`0 <= q <= 1`) of `values` by linear interpolation
/// between closest ranks; `0.0` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest percentile (to one decimal) that leaves at least ten of
/// `n` samples beyond it; `50.0` when `n` is too small for anything
/// higher. Fixed per workload from the scheduled op count, so a parent
/// and a change compare the same percentile.
pub fn tail_percentile(n: usize) -> f64 {
    if n <= 20 {
        return 50.0;
    }
    ((1.0 - 10.0 / n as f64) * 1000.0).floor() / 10.0
}

/// The tail of a sample: its `tail_percentile(n)` quantile. Returns the
/// value and the percentile used.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let pct = tail_percentile(values.len());
    (quantile(values, pct / 100.0), pct)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `num / den`, or `0.0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One named metric of the final report.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run produces: the gate counts, the metrics for the
/// requested mode, and free-form metadata printed before the result.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    pub meta: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn meta(&mut self, key: &str, value: impl ToString) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    /// Records a failed correctness gate or op.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metadata line: a JSON object of string values.
    pub fn meta_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{}: {}", json_str(k), json_str(v));
        }
        s.push('}');
        s
    }

    /// The result line: the last line the benchmark prints.
    pub fn result_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{}: {{\"value\": {:?}, \"unit\": {}}}",
                json_str(&m.name),
                value,
                json_str(m.unit)
            );
        }
        s.push_str("}}");
        s
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(30), 66.6);
        assert_eq!(tail_percentile(60), 83.3);
        assert_eq!(tail_percentile(2000), 99.5);
        for n in [21, 45, 97, 1000, 4321] {
            let p = tail_percentile(n);
            assert!(n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9, "{n}: {p}");
        }
    }

    #[test]
    fn tail_takes_the_highest_percentile_with_ten_beyond() {
        let v: Vec<f64> = (0..180).map(f64::from).collect();
        assert_eq!(tail(&v), (quantile(&v, 0.944), 94.4));
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("latency_ms", 1.5, "ms");
        assert_eq!(
            r.result_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
