//! RAPL MSR address map and the device trait.
//!
//! Addresses follow the Intel Software Developer's Manual, Vol. 4
//! (the same registers the paper's injected Javassist code reads through
//! `/dev/cpu/*/msr`).

use crate::{Domain, RaplError};

/// `MSR_RAPL_POWER_UNIT` — units for power (bits 3:0), energy (bits 12:8)
/// and time (bits 19:16). Read once, applied to every counter.
pub const MSR_RAPL_POWER_UNIT: u32 = 0x606;
/// Package energy-status counter (32 significant bits, wrapping).
pub const MSR_PKG_ENERGY_STATUS: u32 = 0x611;
/// Package power-info register (TDP, min/max power).
pub const MSR_PKG_POWER_INFO: u32 = 0x614;
/// DRAM energy-status counter.
pub const MSR_DRAM_ENERGY_STATUS: u32 = 0x619;
/// Power-plane-0 (cores) energy-status counter.
pub const MSR_PP0_ENERGY_STATUS: u32 = 0x639;
/// Power-plane-1 (uncore/graphics) energy-status counter.
pub const MSR_PP1_ENERGY_STATUS: u32 = 0x641;
/// Platform (PSys) energy-status counter (Skylake+).
pub const MSR_PLATFORM_ENERGY_STATUS: u32 = 0x64D;

/// A device exposing RAPL MSRs, implemented by the simulator
/// ([`crate::SimulatedRapl`]). The profiler's probes read energy only
/// through this register interface, never from the simulator's internal
/// joules, so they decode units and handle counter wraps as reader code
/// on real hardware must.
pub trait MsrDevice: Send + Sync {
    /// Read a 64-bit MSR by address.
    fn read_msr(&self, addr: u32) -> Result<u64, RaplError>;

    /// Decode the unit register. Default implementation reads
    /// [`MSR_RAPL_POWER_UNIT`] and parses the bit-fields.
    fn units(&self) -> Result<crate::RaplUnits, RaplError> {
        Ok(crate::RaplUnits::from_msr(
            self.read_msr(MSR_RAPL_POWER_UNIT)?,
        ))
    }

    /// Read a domain's raw (hardware-unit) energy counter.
    ///
    /// Per the SDM only the low 32 bits are significant; the default
    /// implementation masks accordingly, mirroring what correct reader
    /// code must do on real hardware.
    fn read_energy_raw(&self, domain: Domain) -> Result<u32, RaplError> {
        Ok((self.read_msr(domain.energy_status_msr())? & 0xFFFF_FFFF) as u32)
    }

    /// Read a domain's energy counter converted to joules.
    ///
    /// Note this is the *wrapping counter value* in joules, not total
    /// energy since boot; callers must difference two reads through a
    /// [`crate::CounterReader`] to measure an interval.
    fn read_energy_joules(&self, domain: Domain) -> Result<f64, RaplError> {
        let units = self.units()?;
        Ok(units.raw_to_joules(self.read_energy_raw(domain)? as u64))
    }
}

/// Package power-info fields (decoded from [`MSR_PKG_POWER_INFO`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerInfo {
    /// Thermal design power in watts.
    pub tdp_watts: f64,
    /// Minimum settable power limit in watts.
    pub min_watts: f64,
    /// Maximum settable power limit in watts.
    pub max_watts: f64,
}

impl PowerInfo {
    /// Decode from the raw MSR value using the given power unit.
    pub fn from_msr(raw: u64, watts_per_unit: f64) -> PowerInfo {
        let field = |shift: u32| ((raw >> shift) & 0x7FFF) as f64 * watts_per_unit;
        PowerInfo {
            tdp_watts: field(0),
            min_watts: field(16),
            max_watts: field(32),
        }
    }

    /// Encode into the raw MSR layout (inverse of [`PowerInfo::from_msr`]).
    pub fn to_msr(&self, watts_per_unit: f64) -> u64 {
        let enc = |w: f64| ((w / watts_per_unit).round() as u64) & 0x7FFF;
        enc(self.tdp_watts) | (enc(self.min_watts) << 16) | (enc(self.max_watts) << 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_match_sdm() {
        assert_eq!(MSR_RAPL_POWER_UNIT, 0x606);
        assert_eq!(MSR_PKG_ENERGY_STATUS, 0x611);
        assert_eq!(MSR_PP0_ENERGY_STATUS, 0x639);
        assert_eq!(MSR_PP1_ENERGY_STATUS, 0x641);
        assert_eq!(MSR_DRAM_ENERGY_STATUS, 0x619);
    }

    #[test]
    fn power_info_roundtrip() {
        let unit = 1.0 / 8.0; // default RAPL power unit: 1/8 W
        let info = PowerInfo {
            tdp_watts: 17.0,
            min_watts: 4.0,
            max_watts: 25.0,
        };
        let decoded = PowerInfo::from_msr(info.to_msr(unit), unit);
        assert!((decoded.tdp_watts - 17.0).abs() < 1e-9);
        assert!((decoded.min_watts - 4.0).abs() < 1e-9);
        assert!((decoded.max_watts - 25.0).abs() < 1e-9);
    }

    #[test]
    fn power_info_fields_are_15_bits() {
        let unit = 0.125;
        // 0x7FFF * 0.125 = 4095.875 W is the max encodable value.
        let info = PowerInfo {
            tdp_watts: 1e9,
            min_watts: 0.0,
            max_watts: 0.0,
        };
        let raw = info.to_msr(unit);
        assert_eq!(raw & !0x7FFF_u64, raw & 0xFFFF_FFFF_FFFF_0000 & raw); // nothing spills
        assert!(PowerInfo::from_msr(raw, unit).tdp_watts <= 4096.0);
    }
}
