//! Small statistics and process helpers shared by every workload.

use std::time::Instant;

/// Nearest-rank percentile of an unsorted sample (`p` in `0..=1`);
/// `0.0` for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Arithmetic mean; `0.0` for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Microseconds elapsed since `t`.
pub fn micros(t: Instant) -> f64 {
    1e6 * t.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, secs(t))
}

/// The process's resident-set high-water mark (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Resets the resident-set high-water mark to the current RSS, so the
/// next [`peak_rss_mb`] reads the peak of what runs in between. Returns
/// `false` where the kernel does not support it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn status_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// The host this benchmark was tuned on slows down in spells of ten to
/// forty seconds, by up to 1.7x, and never speeds up: its noise is
/// one-sided. So a timing is summarised by the low decile of samples
/// spread across the whole run (the cost while the host is not
/// interfering), which repeats run to run where a median follows the
/// host's spells.
pub fn low_decile(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 10]
}

/// The high decile: [`low_decile`] for higher-is-better figures.
pub fn high_decile(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(9 * (sorted.len() - 1)).div_ceil(10)]
}

/// The low decile, over blocks spread across the run, of each block's
/// `p` percentile.
pub fn block_low_decile<'a>(blocks: impl IntoIterator<Item = &'a [f64]>, p: f64) -> f64 {
    let per_block: Vec<f64> = blocks.into_iter().map(|b| percentile(b, p)).collect();
    low_decile(&per_block)
}
