//! Wrapping 32-bit energy counters and wrap-correct interval readers.
//!
//! RAPL energy-status counters are 32-bit and wrap roughly hourly at
//! laptop TDP (2³² counts of 15.3 µJ last about 64 minutes at 17 W).
//! The paper's evaluation repeats each classifier run ten times with
//! outlier replacement, easily spanning a wrap, so interval measurement
//! must be wrap-correct.

use crate::RaplUnits;

/// A simulated hardware energy counter for one domain.
///
/// Internally accumulates exact joules; exposes the truncated, wrapping
/// 32-bit raw view that real hardware exposes. Sub-unit residue is kept
/// (real RAPL accumulates energy in internal precision and exposes
/// quantized counts).
#[derive(Debug, Clone)]
pub struct EnergyCounter {
    units: RaplUnits,
    /// Total joules ever added (never wraps; simulator-internal).
    total_joules: f64,
    /// Raw counter offset at construction, so fresh counters don't all
    /// start at zero (real counters never do).
    start_offset: u32,
}

impl EnergyCounter {
    /// Create a counter with the given units, starting at `start_offset`
    /// raw counts (use a nonzero offset in tests to catch code that
    /// assumes counters start at zero).
    pub fn new(units: RaplUnits, start_offset: u32) -> Self {
        EnergyCounter {
            units,
            total_joules: 0.0,
            start_offset,
        }
    }

    /// Accrue energy.
    pub fn add_joules(&mut self, joules: f64) {
        debug_assert!(joules >= 0.0, "energy cannot decrease");
        self.total_joules += joules.max(0.0);
    }

    /// Total joules accrued since construction (simulator-internal view;
    /// not available on real hardware).
    pub fn total_joules(&self) -> f64 {
        self.total_joules
    }

    /// The raw, wrapping 32-bit counter value — exactly what a
    /// `rdmsr` of the energy-status MSR returns.
    pub fn read_raw(&self) -> u32 {
        let counts = self.units.joules_to_raw(self.total_joules);
        (self.start_offset as u64).wrapping_add(counts) as u32
    }
}

/// Wrap-correct interval reader over raw 32-bit counter samples.
///
/// Feed it successive raw readings; it accumulates total joules assuming
/// at most one wrap between consecutive samples (guaranteed if sampled
/// more often than the counter wraps).
#[derive(Debug, Clone)]
pub struct CounterReader {
    units: RaplUnits,
    last_raw: Option<u32>,
    accumulated_joules: f64,
    wraps_observed: u64,
}

impl CounterReader {
    /// Create a reader; the first [`CounterReader::update`] call
    /// establishes the baseline and contributes no energy.
    pub fn new(units: RaplUnits) -> Self {
        CounterReader {
            units,
            last_raw: None,
            accumulated_joules: 0.0,
            wraps_observed: 0,
        }
    }

    /// Feed a new raw sample; returns the joules elapsed since the
    /// previous sample (0.0 for the first).
    pub fn update(&mut self, raw: u32) -> f64 {
        let delta_counts = match self.last_raw {
            None => 0u64,
            Some(prev) => {
                if raw >= prev {
                    (raw - prev) as u64
                } else {
                    // Counter wrapped: distance through the wrap point.
                    self.wraps_observed += 1;
                    (raw as u64) + (u32::MAX as u64 + 1) - prev as u64
                }
            }
        };
        self.last_raw = Some(raw);
        let joules = self.units.raw_to_joules(delta_counts);
        self.accumulated_joules += joules;
        joules
    }

    /// Total joules accumulated across all updates.
    pub fn total_joules(&self) -> f64 {
        self.accumulated_joules
    }

    /// Number of counter wraps handled.
    pub fn wraps_observed(&self) -> u64 {
        self.wraps_observed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn units() -> RaplUnits {
        RaplUnits::default()
    }

    #[test]
    fn counter_quantizes_to_hardware_units() {
        let mut c = EnergyCounter::new(units(), 0);
        // Half an energy unit: raw view must still read 0.
        c.add_joules(units().joules_per_count() / 2.0);
        assert_eq!(c.read_raw(), 0);
        // Another half: now exactly one count.
        c.add_joules(units().joules_per_count() / 2.0);
        assert_eq!(c.read_raw(), 1);
    }

    #[test]
    fn counter_wraps_at_32_bits() {
        let offset = u32::MAX - 1;
        let mut c = EnergyCounter::new(units(), offset);
        c.add_joules(units().raw_to_joules(3));
        assert_eq!(c.read_raw(), 1); // (MAX-1) + 3 wraps to 1
    }

    #[test]
    fn reader_handles_single_wrap() {
        let mut r = CounterReader::new(units());
        r.update(u32::MAX - 10);
        let j = r.update(5); // wrapped: 16 counts elapsed
        assert!((j - units().raw_to_joules(16)).abs() < 1e-12);
        assert_eq!(r.wraps_observed(), 1);
    }

    #[test]
    fn reader_first_sample_contributes_nothing() {
        let mut r = CounterReader::new(units());
        assert_eq!(r.update(123456), 0.0);
        assert_eq!(r.total_joules(), 0.0);
    }

    #[test]
    fn reader_tracks_counter_through_many_wraps() {
        // Simulate a long run: add energy in chunks, sample often enough
        // that at most one wrap occurs per sample; reader total must match
        // the counter's exact total to within quantization.
        let mut c = EnergyCounter::new(units(), 0xDEAD_BEEF);
        let mut r = CounterReader::new(units());
        r.update(c.read_raw());
        let chunk = units().raw_to_joules(u32::MAX as u64 / 3);
        for _ in 0..10 {
            c.add_joules(chunk);
            r.update(c.read_raw());
        }
        let expect = chunk * 10.0;
        assert!(r.wraps_observed() >= 2);
        assert!((r.total_joules() - expect).abs() < units().joules_per_count() * 11.0);
    }

    proptest! {
        #[test]
        fn reader_total_matches_counter_total(
            offset: u32,
            chunks in proptest::collection::vec(0.0f64..50_000.0, 1..50),
        ) {
            let mut c = EnergyCounter::new(units(), offset);
            let mut r = CounterReader::new(units());
            r.update(c.read_raw());
            let mut exact = 0.0;
            for j in chunks {
                c.add_joules(j);
                exact += j;
                r.update(c.read_raw());
            }
            // Each sample can lose at most one unit to quantization.
            prop_assert!((r.total_joules() - exact).abs()
                < units().joules_per_count() * 51.0 + exact * 1e-12);
        }

        #[test]
        fn energy_is_monotone_in_raw_view_modulo_wrap(
            adds in proptest::collection::vec(0.0f64..10.0, 1..20)
        ) {
            // Short additions (< wrap interval): each raw reading advances
            // by the quantized amount, never decreases unless wrapping.
            let mut c = EnergyCounter::new(units(), 0);
            let mut prev = c.read_raw();
            for j in adds {
                c.add_joules(j);
                let now = c.read_raw();
                prop_assert!(now >= prev, "no wrap possible for small adds");
                prev = now;
            }
        }

        #[test]
        fn reader_is_wrap_correct_across_the_u32_boundary(
            below in 1u32..1_000,
            chunks in proptest::collection::vec(1u64..5_000, 1..20),
        ) {
            // Start the raw counter just below the wrap point so small
            // additions force a crossing, and check the reader both
            // detects the wrap exactly when the boundary is crossed and
            // loses at most quantization error through it.
            let u = units();
            let mut c = EnergyCounter::new(u, u32::MAX - below);
            let mut r = CounterReader::new(u);
            r.update(c.read_raw());
            let mut exact_counts = 0u64;
            for counts in chunks {
                c.add_joules(u.raw_to_joules(counts));
                exact_counts += counts;
                r.update(c.read_raw());
            }
            let expected_wraps = u64::from(exact_counts > below as u64);
            prop_assert_eq!(r.wraps_observed(), expected_wraps);
            // Per-sample floors telescope: total error ≤ one count.
            prop_assert!(
                (r.total_joules() - u.raw_to_joules(exact_counts)).abs()
                    <= u.joules_per_count() * 2.0,
                "reader {} vs exact {}",
                r.total_joules(),
                u.raw_to_joules(exact_counts)
            );
        }
    }
}
