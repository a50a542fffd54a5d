//! Exact order statistics over recorded samples, and the metric record
//! a run prints.

use std::fmt::Write as _;

/// The nearest-rank `q`-quantile of `sorted` (ascending): the smallest
/// sample with at least a `q` share of the samples at or below it. An
/// observed value, never a bucket bound. `None` when empty.
pub fn quantile<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `values` (nearest rank); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5).unwrap_or(0.0)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-round throughput and exact latency quantiles. A run reports the
/// median over its rounds, so one round disturbed by the machine moves
/// nothing.
#[derive(Default)]
pub struct Rounds {
    rates: Vec<f64>,
    p50_us: Vec<f64>,
    p90_us: Vec<f64>,
    p99_us: Vec<f64>,
    /// Latency samples over all rounds.
    pub samples: usize,
    /// Process CPU microseconds per operation, per round.
    cpu_us_per_op: Vec<f64>,
}

impl Rounds {
    /// Adds a round that completed `latencies_ns.len()` operations in
    /// `wall_s` seconds.
    pub fn add(&mut self, wall_s: f64, cpu_s: f64, latencies_ns: &mut [u64]) {
        self.cpu_us_per_op
            .push(ratio(cpu_s * 1e6, latencies_ns.len() as f64));
        latencies_ns.sort_unstable();
        let us = |q: f64| quantile(latencies_ns, q).unwrap_or(0) as f64 / 1e3;
        self.rates.push(ratio(latencies_ns.len() as f64, wall_s));
        self.p50_us.push(us(0.5));
        self.p90_us.push(us(0.9));
        self.p99_us.push(us(0.99));
        self.samples += latencies_ns.len();
    }

    /// Rounds added.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// Median per-round operations per second.
    pub fn rate(&self) -> f64 {
        median(&self.rates)
    }

    /// The wall-clock figures with their sample counts, as a JSON object
    /// for the run record.
    pub fn wall_json(&self) -> String {
        format!(
            "{{\"ops_per_s\": {}, \"latency_p50_us\": {}, \"latency_p90_us\": {}, \
             \"latency_p99_us\": {}, \"rounds\": {}, \"latency_samples\": {}}}",
            json_number(self.rate()),
            json_number(self.p50_us()),
            json_number(self.p90_us()),
            json_number(self.p99_us()),
            self.len(),
            self.samples
        )
    }

    /// Median per-round process CPU microseconds per completed operation.
    pub fn cpu_us_per_op(&self) -> f64 {
        median(&self.cpu_us_per_op)
    }

    /// Median per-round p50, p90 and p99 latency, in microseconds.
    pub fn p50_us(&self) -> f64 {
        median(&self.p50_us)
    }

    pub fn p90_us(&self) -> f64 {
        median(&self.p90_us)
    }

    pub fn p99_us(&self) -> f64 {
        median(&self.p99_us)
    }
}

/// Named metric values a run measured.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Records metric `name`.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` over exactly the
    /// `(name, unit)` pairs of `schema`, in its order and with every
    /// digit of each value. A metric the run did not record belongs to a
    /// layer its workload bypasses, and reads 0.
    pub fn to_json(&self, schema: &[(&str, &str)]) -> String {
        let mut out = String::from("{");
        for (i, (name, unit)) in schema.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = self.get(name).unwrap_or(0.0);
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number for `v` (Rust's shortest round-trip form; non-finite
/// values, which JSON cannot carry, become 0).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// A JSON string literal for `s`.
pub fn json_string(s: &str) -> String {
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
    fn nearest_rank_quantiles_are_samples() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(quantile(&v, 0.5), Some(5));
        assert_eq!(quantile(&v, 0.9), Some(9));
        assert_eq!(quantile(&v, 0.99), Some(10));
        assert_eq!(quantile(&v, 0.0), Some(1));
        assert_eq!(quantile::<u64>(&[], 0.5), None);
    }

    #[test]
    fn metrics_render_as_json() {
        let mut m = Metrics::default();
        m.put("b", 2.0);
        m.put("a", 1.5);
        assert_eq!(
            m.to_json(&[("a", "ms"), ("b", "s"), ("c", "count")]),
            "{\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"s\"}, \"c\": {\"value\": 0.0, \"unit\": \"count\"}}"
        );
    }
}
