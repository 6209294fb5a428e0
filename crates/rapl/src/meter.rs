//! The per-interval energy record the profiler and Table IV report.
//!
//! A [`Measurement`] is the difference of two simulated RAPL readings:
//! joules per domain plus the elapsed virtual time.

use serde::{Deserialize, Serialize};

/// An interval measurement: joules per domain plus elapsed time —
/// exactly the columns of the paper's Table IV ("Package", "CPU",
/// "Execution Time").
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Measurement {
    /// Package joules over the interval.
    pub package_j: f64,
    /// Core joules over the interval.
    pub core_j: f64,
    /// Uncore joules over the interval.
    pub uncore_j: f64,
    /// DRAM joules over the interval.
    pub dram_j: f64,
    /// Interval duration in seconds.
    pub seconds: f64,
}

impl Measurement {
    /// Sum of two measurements (for aggregating per-method records).
    pub fn accumulate(&mut self, other: &Measurement) {
        self.package_j += other.package_j;
        self.core_j += other.core_j;
        self.uncore_j += other.uncore_j;
        self.dram_j += other.dram_j;
        self.seconds += other.seconds;
    }

    /// Percentage improvement of `optimized` relative to `self` (the
    /// baseline) in package energy: `(base - opt) / base × 100`.
    /// This is the formula behind every improvement column in Table IV.
    pub fn improvement_pct(base: f64, optimized: f64) -> f64 {
        if base == 0.0 {
            0.0
        } else {
            (base - optimized) / base * 100.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_pct_matches_table4_formula() {
        // Random Forest: baseline 100 J → optimized 85.54 J = 14.46%.
        let pct = Measurement::improvement_pct(100.0, 85.54);
        assert!((pct - 14.46).abs() < 1e-9);
        assert_eq!(Measurement::improvement_pct(0.0, 5.0), 0.0);
    }

    #[test]
    fn accumulate_sums_componentwise() {
        let mut a = Measurement {
            package_j: 1.0,
            core_j: 0.5,
            uncore_j: 0.1,
            dram_j: 0.0,
            seconds: 2.0,
        };
        a.accumulate(&Measurement {
            package_j: 2.0,
            core_j: 1.0,
            uncore_j: 0.2,
            dram_j: 0.0,
            seconds: 3.0,
        });
        assert!((a.package_j - 3.0).abs() < 1e-12);
        assert!((a.seconds - 5.0).abs() < 1e-12);
    }
}
