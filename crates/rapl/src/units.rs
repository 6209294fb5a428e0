//! Decoding of `MSR_RAPL_POWER_UNIT`.
//!
//! RAPL counters are in *hardware units*; the unit register says how many
//! of them make a watt / joule / second. Getting this decoding wrong is the
//! classic RAPL bug (energy off by 2^16), so it is modelled explicitly and
//! property-tested.

use serde::{Deserialize, Serialize};

/// Decoded RAPL units.
///
/// Each field is the raw exponent `e`; the physical unit is `1 / 2^e`
/// (watts, joules, seconds respectively).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RaplUnits {
    /// Power unit exponent (bits 3:0). Default 3 → 1/8 W.
    pub power_exp: u8,
    /// Energy unit exponent (bits 12:8). Default 16 → 15.26 µJ.
    /// (Atom parts use 5; Haswell DRAM uses a fixed 2^-16 override.)
    pub energy_exp: u8,
    /// Time unit exponent (bits 19:16). Default 10 → 976 µs.
    pub time_exp: u8,
}

impl Default for RaplUnits {
    /// The values virtually all Core-family parts report, including the
    /// paper's i5-3317U.
    fn default() -> Self {
        RaplUnits {
            power_exp: 3,
            energy_exp: 16,
            time_exp: 10,
        }
    }
}

impl RaplUnits {
    /// Decode from the raw `MSR_RAPL_POWER_UNIT` value.
    pub fn from_msr(raw: u64) -> RaplUnits {
        RaplUnits {
            power_exp: (raw & 0xF) as u8,
            energy_exp: ((raw >> 8) & 0x1F) as u8,
            time_exp: ((raw >> 16) & 0xF) as u8,
        }
    }

    /// Encode back into the raw MSR layout.
    pub fn to_msr(self) -> u64 {
        (self.power_exp as u64 & 0xF)
            | ((self.energy_exp as u64 & 0x1F) << 8)
            | ((self.time_exp as u64 & 0xF) << 16)
    }

    /// Joules represented by one raw energy count.
    pub fn joules_per_count(self) -> f64 {
        1.0 / f64::from(1u32 << self.energy_exp)
    }

    /// Watts represented by one raw power count.
    pub fn watts_per_count(self) -> f64 {
        1.0 / f64::from(1u32 << self.power_exp)
    }

    /// Convert a raw energy counter value to joules.
    pub fn raw_to_joules(self, raw: u64) -> f64 {
        raw as f64 * self.joules_per_count()
    }

    /// Convert joules to raw counts (rounding down, as the hardware does —
    /// sub-unit energy accumulates internally, which the simulator models).
    pub fn joules_to_raw(self, joules: f64) -> u64 {
        (joules / self.joules_per_count()).floor().max(0.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_units_match_core_family() {
        let u = RaplUnits::default();
        assert!((u.joules_per_count() - 15.258789e-6).abs() < 1e-9);
        assert!((u.watts_per_count() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn default_msr_value_is_0xa1003() {
        // The exact raw value Core parts report.
        assert_eq!(RaplUnits::default().to_msr(), 0x000A_1003);
        assert_eq!(RaplUnits::from_msr(0x000A_1003), RaplUnits::default());
    }

    #[test]
    fn joules_roundtrip_within_one_count() {
        let u = RaplUnits::default();
        for j in [0.0, 1e-6, 0.5, 1.0, 100.0, 65536.0] {
            let raw = u.joules_to_raw(j);
            let back = u.raw_to_joules(raw);
            assert!(back <= j + 1e-12);
            assert!(j - back < u.joules_per_count() + 1e-12);
        }
    }

    proptest! {
        #[test]
        fn msr_roundtrip(power in 0u8..16, energy in 0u8..32, time in 0u8..16) {
            let u = RaplUnits { power_exp: power, energy_exp: energy, time_exp: time };
            prop_assert_eq!(RaplUnits::from_msr(u.to_msr()), u);
        }

        #[test]
        fn raw_to_joules_is_monotone(a in 0u64..1u64<<33, b in 0u64..1u64<<33) {
            let u = RaplUnits::default();
            if a <= b {
                prop_assert!(u.raw_to_joules(a) <= u.raw_to_joules(b));
            }
        }

        #[test]
        fn joules_to_raw_never_overshoots(j in 0.0f64..1e9) {
            let u = RaplUnits::default();
            prop_assert!(u.raw_to_joules(u.joules_to_raw(j)) <= j + 1e-9);
        }
    }
}
