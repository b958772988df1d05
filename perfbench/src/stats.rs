//! Small numeric helpers and the process's peak memory.

use ipu_host::LatencyStats;
use serde_json::JsonValue;

/// Median of `v` (mean of the two middle values for an even count); 0 when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `v`; 0 when empty.
pub fn percentile(v: &mut [u64], p: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Percentile `p` of a latency histogram, interpolated within its log₂
/// bucket: `2^(b + f)`, where `f` is the requested rank's mid-position among
/// the bucket's samples, clamped into the recorded range. The histogram's
/// own `percentile_ns` reports the bucket midpoint, which moves in steps of
/// 2x as inputs vary; this estimate moves with the distribution.
pub fn interpolated_percentile_ns(stats: &LatencyStats, p: f64) -> f64 {
    let count = stats.count();
    if count == 0 {
        return 0.0;
    }
    let json = serde_json::to_string(stats).expect("LatencyStats serializes");
    let value: JsonValue = serde_json::from_str(&json).expect("LatencyStats JSON parses");
    let JsonValue::Object(fields) = value else {
        return stats.percentile_ns(p) as f64;
    };
    let buckets: Vec<u64> = match fields.iter().find(|(k, _)| k == "buckets") {
        Some((_, JsonValue::Array(b))) => b
            .iter()
            .map(|v| match v {
                JsonValue::UInt(n) => *n as u64,
                _ => 0,
            })
            .collect(),
        _ => return stats.percentile_ns(p) as f64,
    };
    let rank = ((p / 100.0) * count as f64).ceil().max(1.0);
    let mut seen = 0.0;
    for (b, &n) in buckets.iter().enumerate() {
        let n = n as f64;
        if n > 0.0 && seen + n >= rank {
            let f = (rank - seen - 0.5) / n;
            let v = (b as f64 + f).exp2();
            let lo = stats.min_ns().unwrap_or(0) as f64;
            return v.clamp(lo, stats.max_ns() as f64);
        }
        seen += n;
    }
    stats.max_ns() as f64
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the kernel
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&mut v, 99.0), 99);
        assert_eq!(percentile(&mut v, 100.0), 100);
        assert_eq!(percentile(&mut [7], 99.0), 7);
    }

    #[test]
    fn interpolated_percentile_stays_in_the_bucket_and_follows_the_rank() {
        let mut stats = LatencyStats::new();
        for ns in 1024..2048u64 {
            stats.record(ns);
        }
        let p50 = interpolated_percentile_ns(&stats, 50.0);
        let p99 = interpolated_percentile_ns(&stats, 99.0);
        assert!((1024.0..2048.0).contains(&p50) && p50 < p99 && p99 <= 2047.0);
        assert_eq!(interpolated_percentile_ns(&LatencyStats::new(), 99.0), 0.0);
    }
}
