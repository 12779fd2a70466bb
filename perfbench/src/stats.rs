//! Order statistics over recorded samples, and the process's peak RSS.

/// The `p`-quantile (`0 ≤ p ≤ 1`) by nearest rank on a copy of `xs`;
/// `0.0` when `xs` is empty.
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// How many samples lie strictly above the `p`-quantile — the guide for
/// whether a tail percentile is supported by enough samples.
pub fn beyond(xs: &[f64], p: f64) -> usize {
    let q = quantile(xs, p);
    xs.iter().filter(|&&x| x > q).count()
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Milliseconds a fixed, allocation-free integer loop takes on this
/// machine right now: a reference for reading the other timings, since
/// a shared virtual CPU's speed drifts between runs.
pub fn reference_loop_ms() -> f64 {
    let t0 = std::time::Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..50_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}
