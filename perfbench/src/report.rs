//! Order statistics, memory readings and the one-line JSON result.

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a run prints as its last line.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // A non-finite value is a harness bug; print 0 rather than
                // emit JSON no parser accepts.
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `v` (sorted in place); 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(v, 0.5)
}

/// Nearest-rank quantile of an ascending slice; 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles a tail may be read at.
const TAIL_LADDER: [f64; 6] = [0.5, 0.75, 0.9, 0.99, 0.999, 0.9999];

/// The highest ladder percentile no higher than `cap` with at least ten
/// samples beyond it, as `(percentile, value)` over an ascending slice.
pub fn tail(sorted: &[f64], cap: f64) -> (f64, f64) {
    let n = sorted.len();
    let q = TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .filter(|&q| q <= cap)
        .find(|q| n.saturating_sub((q * n as f64).ceil() as usize) >= 10)
        .unwrap_or(0.5);
    (q * 100.0, quantile(sorted, q))
}

/// Reset the kernel's resident-set high-water mark for this process, so
/// the next [`peak_rss_mb`] covers only what runs after this call.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
