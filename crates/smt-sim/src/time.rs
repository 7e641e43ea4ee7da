//! Simulated time.
//!
//! All simulation time is expressed in nanoseconds as a plain `u64`; a helper
//! converts to microseconds for reporting.

/// Simulated time / duration in nanoseconds.
pub type Nanos = u64;

/// One microsecond in [`Nanos`].
pub const MICROSECOND: Nanos = 1_000;

/// One millisecond in [`Nanos`].
pub const MILLISECOND: Nanos = 1_000_000;

/// One second in [`Nanos`].
pub const SECOND: Nanos = 1_000_000_000;

/// Converts nanoseconds to (floating point) microseconds for reporting.
pub fn to_micros(ns: Nanos) -> f64 {
    ns as f64 / MICROSECOND as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert!((to_micros(2500) - 2.5).abs() < 1e-9);
        assert_eq!(MILLISECOND, 1000 * MICROSECOND);
        assert_eq!(SECOND, 1000 * MILLISECOND);
    }
}
