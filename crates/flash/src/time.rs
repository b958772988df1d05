//! Simulation time base.
//!
//! All latencies and timestamps are integer nanoseconds (`Nanos`). Integer time
//! keeps event ordering exact and simulation results reproducible; the paper's
//! Table 2 gives latencies in milliseconds, converted with [`ms_to_ns`].

/// Simulated time or duration, in nanoseconds.
pub type Nanos = u64;

/// One microsecond in [`Nanos`].
pub const MICROSECOND: Nanos = 1_000;
/// One millisecond in [`Nanos`].
pub const MILLISECOND: Nanos = 1_000_000;
/// One second in [`Nanos`].
pub const SECOND: Nanos = 1_000_000_000;

/// Converts a millisecond figure (as printed in the paper's Table 2) to [`Nanos`].
///
/// Rounds to the nearest nanosecond, halves away from zero; panics in debug
/// builds on negative input.
#[inline]
pub fn ms_to_ns(ms: f64) -> Nanos {
    debug_assert!(ms >= 0.0, "latencies must be non-negative, got {ms}");
    round_to_nanos(ms * MILLISECOND as f64)
}

/// `ns.round() as Nanos` (halves away from zero, saturating at 0 and
/// `Nanos::MAX`) without calling `round`, which x86-64 has no instruction
/// for: every ECC decode pays this conversion. Truncates, then rounds up
/// when the remainder is at least 0.5.
#[inline]
fn round_to_nanos(ns: f64) -> Nanos {
    // For 0 <= ns < 2^52 the `i64` casts are single instructions and exact,
    // and so is the remainder; a negative `ns` ends at 0, as `round` and the
    // saturating cast would. From 2^52 on `ns` is a whole number (or
    // infinite or NaN), which the saturating cast returns as `round` would.
    if ns < (1u64 << 52) as f64 {
        let whole = ns as i64;
        let up = ns - whole as f64 >= 0.5;
        (whole + up as i64).max(0) as Nanos
    } else {
        ns as Nanos
    }
}

/// Converts [`Nanos`] back to fractional milliseconds for reporting.
#[inline]
pub fn ns_to_ms(ns: Nanos) -> f64 {
    ns as f64 / MILLISECOND as f64
}

/// Converts [`Nanos`] to fractional microseconds for reporting.
#[inline]
pub fn ns_to_us(ns: Nanos) -> f64 {
    ns as f64 / MICROSECOND as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ms_round_trips_table2_values() {
        // Every latency in the paper's Table 2 must survive the conversion.
        for &ms in &[0.025, 0.05, 0.0005, 0.0968, 0.3, 0.9, 10.0] {
            let ns = ms_to_ns(ms);
            assert!((ns_to_ms(ns) - ms).abs() < 1e-9, "{ms} ms mangled");
        }
    }

    #[test]
    fn sub_nanosecond_values_round() {
        assert_eq!(ms_to_ns(0.0000004), 0); // 0.4 ns rounds down
        assert_eq!(ms_to_ns(0.0000006), 1); // 0.6 ns rounds up
    }

    #[test]
    fn unit_constants_are_consistent() {
        assert_eq!(ms_to_ns(1.0), MILLISECOND);
        assert_eq!(ms_to_ns(1000.0), SECOND);
        assert_eq!(MILLISECOND / MICROSECOND, 1_000);
    }

    #[test]
    fn rounding_matches_f64_round() {
        let two52 = (1u64 << 52) as f64;
        let two64 = 2f64.powi(64);
        let mut cases = vec![
            0.0,
            // Adding 0.5 and truncating would round this up.
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            two52 - 0.5,
            two52,
            two52 + 1.0,
            two52 * 2.0 + 2.0,
            two64,
            two64 * 4.0,
            f64::MAX,
            f64::INFINITY,
            -0.4,
            -0.6,
            -5.3,
            -1e300,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        // Ties k + 0.5 across the range where halves are representable.
        for k in [3u64, 1_000_001, (1 << 40) + 7, (1 << 51) + 3] {
            cases.push(k as f64 + 0.5);
        }
        // A seeded SplitMix64 sweep over values and magnitudes.
        let mut x = 0x5EED_u64;
        for _ in 0..20_000 {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
            cases.push(unit * 10f64.powi((z % 24) as i32 - 2));
        }
        for ns in cases {
            assert_eq!(round_to_nanos(ns), ns.round() as Nanos, "{ns:e} ns");
        }
    }

    #[test]
    fn ns_to_us_scales() {
        assert!((ns_to_us(2_500) - 2.5).abs() < 1e-12);
    }
}
