//! Metric collection, summary statistics and the one-line JSON result.

use std::fmt::Write as _;
use std::time::Duration;

/// Named metrics in the order they were recorded, each with its unit.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    entries: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    /// Record `name` (must be new) with its `unit`.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(self.get(name).is_none(), "metric {name} recorded twice");
        self.entries.push((name, value, unit));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
    }

    /// Append every entry of `other`.
    pub fn extend(&mut self, other: Metrics) {
        for (n, v, u) in other.entries {
            self.put(n, v, u);
        }
    }

    /// The metrics of `spec` in its order. A metric of `spec` that was not
    /// recorded reads 0 (its layer is idle on this workload); a recorded
    /// metric missing from `spec` or with another unit is an error.
    pub fn conform(&self, spec: &[(&'static str, &'static str)]) -> Result<Metrics, String> {
        for (n, _, u) in &self.entries {
            match spec.iter().find(|(sn, _)| sn == n) {
                None => return Err(format!("metric {n} is not declared")),
                Some((_, su)) if su != u => {
                    return Err(format!("metric {n} has unit {u}, declared {su}"))
                }
                Some(_) => {}
            }
        }
        let mut out = Metrics::default();
        for &(name, unit) in spec {
            out.put(name, self.get(name).unwrap_or(0.0), unit);
        }
        Ok(out)
    }

    /// Human-readable table, one metric per line.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for (n, v, u) in &self.entries {
            let _ = writeln!(s, "  {n:<30} {v:>16.6} {u}");
        }
        s
    }
}

/// The benchmark's verdict on one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every result matched its reference answer and nothing failed.
    pub correct: bool,
    /// Queries attempted (submitted or started) in the measured passes.
    pub attempted: u64,
    /// Errors, rejections, timeouts and wrong answers among them.
    pub failed: u64,
    /// The metrics of the requested kind (end-to-end or per-layer).
    pub metrics: Metrics,
}

impl Outcome {
    /// The verdict on `samples`, every query the run attempted, reporting
    /// `metrics`.
    pub fn new<'a>(samples: impl IntoIterator<Item = &'a Sample>, metrics: Metrics) -> Outcome {
        let (mut attempted, mut failed) = (0, 0);
        for s in samples {
            attempted += 1;
            failed += u64::from(!s.ok);
        }
        Outcome {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
        }
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.entries.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite JSON number with every digit `f64` carries (NaN and the
/// infinities, which JSON cannot hold, become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Percentile `p` in `[0, 1]` of `values`, linearly interpolated between
/// the closest ranks. Sorts `values`; 0 for an empty slice.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (rank - lo as f64)
}

/// Median of `values` (see [`percentile`]).
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Median latency of `samples`, ms.
pub fn p50_ms(samples: &[Sample]) -> f64 {
    let mut v: Vec<f64> = samples.iter().map(|s| ms(s.latency)).collect();
    median(&mut v)
}

/// How much slower the traced pass's median query was than the untraced
/// pass's: `traced p50 ÷ untraced p50 − 1`.
pub fn overhead_frac(traced: &[Sample], untraced: &[Sample]) -> f64 {
    p50_ms(traced) / p50_ms(untraced) - 1.0
}

/// Jiffies the machine's CPUs spent stolen by the hypervisor and in
/// total, from the `cpu` line of `/proc/stat` (zeros where it is absent).
pub fn cpu_steal_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .map(|rest| {
            rest.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Share of CPU time stolen between two [`cpu_steal_jiffies`] readings.
pub fn steal_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    after.0.saturating_sub(before.0) as f64 / total.max(1) as f64
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One query as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the query was submitted (closed loop) or due (open loop),
    /// from the start of its pass.
    pub start: Duration,
    /// Submission (or due time, open loop) to completion.
    pub latency: Duration,
    /// Submission (or due time) to the first result tuple.
    pub ttf: Duration,
    /// Result rows.
    pub rows: u64,
    /// Completed with the reference answer.
    pub ok: bool,
}

impl Sample {
    /// A sample whose `start` the loop driving it fills in.
    pub fn new(latency: Duration, ttf: Duration, rows: u64, ok: bool) -> Self {
        Sample {
            start: Duration::ZERO,
            latency,
            ttf,
            rows,
            ok,
        }
    }
}

/// Most stretches a pass is cut into.
pub const MAX_STRETCHES: usize = 40;
/// Fewest queries in a stretch.
pub const MIN_STRETCH: usize = 10;

fn mean_latency(w: &[Sample]) -> Duration {
    w.iter().map(|s| s.latency).sum::<Duration>() / w.len().max(1) as u32
}

/// Latency percentiles, time to first tuple and throughput of one stretch.
fn stretch_metrics(w: &[Sample], open_loop: bool) -> [f64; 6] {
    let ok: Vec<&Sample> = w.iter().filter(|s| s.ok).collect();
    let mut lat: Vec<f64> = ok.iter().map(|s| ms(s.latency)).collect();
    let mut ttf: Vec<f64> = ok.iter().map(|s| ms(s.ttf)).collect();
    let rows: u64 = ok.iter().map(|s| s.rows).sum();
    // Closed loop: the time the system spent on the queries (the client's
    // answer checks excluded). Open loop: first due time to last
    // completion.
    let busy = if open_loop {
        let first = w.iter().map(|s| s.start).min().unwrap_or_default();
        let last = w
            .iter()
            .map(|s| s.start + s.latency)
            .max()
            .unwrap_or_default();
        last.saturating_sub(first)
    } else {
        w.iter().map(|s| s.latency).sum()
    };
    let secs = busy.as_secs_f64().max(f64::MIN_POSITIVE);
    [
        percentile(&mut lat, 0.50),
        percentile(&mut lat, 0.90),
        percentile(&mut lat, 0.99),
        median(&mut ttf),
        rows as f64 / secs,
        ok.len() as f64 / secs,
    ]
}

/// The end-to-end metrics of one untraced pass: `samples` in the order
/// they were submitted, `slo` the latency limit of `slo_frac`, `setup_s`
/// the set-up times.
///
/// The pass is cut into up to [`MAX_STRETCHES`] stretches of equal query
/// count (at least [`MIN_STRETCH`] queries each). Latency, time to first
/// tuple and throughput are each the median, over the calmest quarter of
/// the stretches (lowest mean latency), of the stretch's own figure. On a
/// shared virtual machine another tenant's load (CPU steal) slows whole
/// seconds of a run; the calm stretches leave that out, while a slower
/// program slows them too. `slo_frac` counts every attempted query, and a
/// failed one as a miss.
pub fn end_to_end(
    setup_s: &mut [f64],
    samples: &[Sample],
    slo: Duration,
    open_loop: bool,
) -> Metrics {
    let count = (samples.len() / MIN_STRETCH).clamp(1, MAX_STRETCHES);
    let mut stretches: Vec<&[Sample]> = samples
        .chunks(samples.len().div_ceil(count).max(1))
        .collect();
    stretches.sort_by_key(|w| mean_latency(w));
    let calm: Vec<[f64; 6]> = stretches[..stretches.len().div_ceil(4)]
        .iter()
        .map(|w| stretch_metrics(w, open_loop))
        .collect();
    let across = |i: usize| {
        let mut v: Vec<f64> = calm.iter().map(|m| m[i]).collect();
        median(&mut v)
    };
    let within = samples.iter().filter(|s| s.ok && s.latency <= slo).count();

    let mut m = Metrics::default();
    m.put("setup_s", median(setup_s), "s");
    m.put("query_p50_ms", across(0), "ms");
    m.put("query_p90_ms", across(1), "ms");
    m.put("query_p99_ms", across(2), "ms");
    m.put("ttf_p50_ms", across(3), "ms");
    m.put("rows_per_s", across(4), "rows/s");
    m.put("qps", across(5), "1/s");
    m.put(
        "slo_frac",
        within as f64 / samples.len().max(1) as f64,
        "frac",
    );
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 1.0), 4.0);
        assert_eq!(percentile(&mut v, 0.5), 2.5);
    }

    #[test]
    fn json_line_has_exactly_the_four_keys() {
        let mut metrics = Metrics::default();
        metrics.put("query_p50_ms", 1.25, "ms");
        let line = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics,
        }
        .to_json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"query_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
