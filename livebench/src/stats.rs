//! Percentiles, the metric table, and process resource counters.

/// A percentile as reported: the value, the percentile it actually is, and
/// how many samples it was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    pub value: f64,
    /// The percentile reported (0–100). Lower than the one asked for when
    /// the sample is too small to leave ten samples beyond it.
    pub pct: f64,
    pub n: usize,
}

/// Samples beyond a reported percentile that make it trustworthy.
const TAIL_SAMPLES: usize = 10;

/// The `q`-quantile (0–1, nearest rank) of `samples`, or the highest
/// percentile below it that still has at least ten samples beyond it. With
/// ten samples or fewer no percentile qualifies, and the minimum is
/// reported. An empty sample reports 0 with `n = 0`.
pub fn percentile(samples: &[f64], q: f64) -> Pct {
    let n = samples.len();
    if n == 0 {
        return Pct {
            value: 0.0,
            pct: 0.0,
            n: 0,
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * n as f64) - 1e-9).ceil().max(1.0) as usize;
    let idx = (rank - 1).min(n.saturating_sub(TAIL_SAMPLES + 1));
    Pct {
        value: sorted[idx],
        pct: 100.0 * (idx + 1) as f64 / n as f64,
        n,
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// One named result with its unit, plus how it was derived (percentile
/// and sample count, or a formula) for the human-readable report.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            note: String::new(),
        }
    }

    pub fn pct(name: impl Into<String>, p: Pct, unit: &'static str) -> Metric {
        let mut m = Metric::new(name, p.value, unit);
        m.note = format!("p{:.1} of n={}", p.pct, p.n);
        m
    }

    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }

    /// One report line: name, value, unit, and the sample count behind it.
    pub fn describe(&self) -> String {
        if self.note.is_empty() {
            format!("{:<44} {:>14.3} {}", self.name, self.value, self.unit)
        } else {
            format!(
                "{:<44} {:>14.3} {:<12} [{}]",
                self.name, self.value, self.unit, self.note
            )
        }
    }
}

/// Render the result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// `struct rusage` as laid out on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Process-wide CPU time (user + system, every thread) and peak resident
/// set size (the kernel's VmHWM), in microseconds and MiB.
pub fn process_usage() -> (f64, f64) {
    const RUSAGE_SELF: i32 = 0;
    let mut u = RUsage::default();
    // SAFETY: `u` is a valid, exclusively borrowed buffer with the layout of
    // `struct rusage` on 64-bit Linux; getrusage writes exactly one.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    if rc != 0 {
        return (0.0, 0.0);
    }
    let us = |tv: [i64; 2]| tv[0] as f64 * 1e6 + tv[1] as f64;
    (us(u.utime) + us(u.stime), u.maxrss_kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // shuffled 1..=n so the helper must sort
        (1..=n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn percentile_keeps_ten_samples_beyond() {
        // n = 1000: p99 is rank 990 and has exactly 10 samples beyond it
        let p = percentile(&ramp(1000), 0.99);
        assert_eq!((p.value, p.n), (990.0, 1000));
        assert!((p.pct - 99.0).abs() < 1e-9);

        // n = 500: p99 would leave 5 beyond; report p98 (10 beyond) instead
        let p = percentile(&ramp(500), 0.99);
        assert_eq!(p.value, 490.0);
        assert!((p.pct - 98.0).abs() < 1e-9);

        // n = 15: even the median leaves too few; rank 5 has 10 beyond
        let p = percentile(&ramp(15), 0.5);
        assert_eq!(p.value, 5.0);

        // the median of a large sample is untouched
        assert_eq!(percentile(&ramp(1001), 0.5).value, 501.0);

        // tiny and empty samples
        assert_eq!(percentile(&ramp(5), 0.99).value, 1.0);
        assert_eq!(percentile(&[], 0.5).n, 0);
    }

    #[test]
    fn every_percentile_prints_its_sample_count() {
        let m = Metric::pct("latency_p99_us", percentile(&ramp(500), 0.99), "us");
        let line = m.describe();
        assert!(line.contains("n=500"), "{line}");
        assert!(line.contains("p98.0"), "{line}");
        assert!(line.contains("latency_p99_us") && line.contains("us"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(true, 3, 0, &[Metric::new("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        // non-finite values never reach the JSON
        assert_eq!(Metric::new("x", f64::NAN, "us").value, 0.0);
    }

    #[test]
    fn process_usage_is_positive() {
        let (cpu, rss) = process_usage();
        assert!(cpu > 0.0 && rss > 0.0);
    }
}
