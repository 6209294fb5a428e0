//! The simulated RAPL device.
//!
//! A [`SimulatedRapl`] owns one [`crate::EnergyCounter`] per domain.
//! Energy accrues from two sources, mirroring the standard CMOS
//! decomposition `P = P_static + P_dynamic`:
//!
//! * **Idle (static) power** — accrues with virtual time via
//!   [`SimulatedRapl::advance_seconds`], split between domains by the
//!   device profile's idle fractions.
//! * **Dynamic energy** — joules of *work*, reported by instrumented
//!   programs (the VM's per-opcode model, or the ML layer's operation
//!   counters) via [`SimulatedRapl::add_dynamic_energy`], split by the
//!   profile's dynamic fractions.
//!
//! The device is shared-state and thread-safe (`std::sync::Mutex`);
//! worker threads report energy concurrently during parallel training.

use crate::{
    counter::EnergyCounter, msr, power::DeviceProfile, Domain, MsrDevice, RaplError, RaplUnits,
};
use std::sync::Arc;
use std::sync::Mutex;

#[derive(Debug)]
struct SimState {
    counters: Vec<(Domain, EnergyCounter)>,
    /// Total dynamic joules ever reported (diagnostics).
    dynamic_joules: f64,
}

/// A simulated RAPL package (see module docs).
#[derive(Debug, Clone)]
pub struct SimulatedRapl {
    profile: Arc<DeviceProfile>,
    units: RaplUnits,
    state: Arc<Mutex<SimState>>,
}

impl SimulatedRapl {
    /// Create a device with the default Core-family units.
    pub fn new(profile: DeviceProfile) -> SimulatedRapl {
        let units = RaplUnits::default();
        profile
            .validate()
            .unwrap_or_else(|e| panic!("invalid device profile: {e}"));
        // Start counters at distinct nonzero offsets so consumers that
        // wrongly assume zero-based counters fail fast in tests.
        let counters = profile
            .domains
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                (
                    d,
                    EnergyCounter::new(units, 0x1000_0000u32.wrapping_mul(i as u32 + 1)),
                )
            })
            .collect();
        SimulatedRapl {
            profile: Arc::new(profile),
            units,
            state: Arc::new(Mutex::new(SimState {
                counters,
                dynamic_joules: 0.0,
            })),
        }
    }

    /// The device profile in force.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Let `dt` seconds of virtual time pass; idle power accrues on every
    /// domain.
    pub fn advance_seconds(&self, dt: f64) {
        assert!(dt >= 0.0, "time cannot run backwards");
        let idle_j = self.profile.idle_package_watts * dt;
        let mut st = self.state.lock().unwrap();
        for (d, c) in st.counters.iter_mut() {
            let share = match d {
                Domain::Package | Domain::Psys => 1.0,
                Domain::Core => self.profile.core_idle_fraction,
                Domain::Uncore => (1.0 - self.profile.core_idle_fraction) * 0.4,
                Domain::Dram => (1.0 - self.profile.core_idle_fraction) * 0.3,
            };
            c.add_joules(idle_j * share);
        }
    }

    /// Report `joules` of dynamic (work-proportional) energy. Split
    /// across domains by the profile's dynamic fractions; the package
    /// domain sees all of it (package ⊇ core ∪ uncore).
    pub fn add_dynamic_energy(&self, joules: f64) {
        assert!(joules >= 0.0, "energy cannot be negative");
        let mut st = self.state.lock().unwrap();
        st.dynamic_joules += joules;
        for (d, c) in st.counters.iter_mut() {
            let share = match d {
                Domain::Package | Domain::Psys => 1.0,
                Domain::Core => self.profile.core_dynamic_fraction,
                Domain::Uncore => self.profile.uncore_dynamic_fraction,
                Domain::Dram => self.profile.dram_dynamic_fraction,
            };
            c.add_joules(joules * share);
        }
    }

    /// Exact joules accrued on a domain since construction
    /// (simulator-internal; real hardware only exposes the raw counter).
    pub fn read_joules(&self, domain: Domain) -> f64 {
        let st = self.state.lock().unwrap();
        st.counters
            .iter()
            .find(|(d, _)| *d == domain)
            .map(|(_, c)| c.total_joules())
            .unwrap_or(0.0)
    }

    /// Total dynamic joules ever reported.
    pub fn total_dynamic_joules(&self) -> f64 {
        self.state.lock().unwrap().dynamic_joules
    }

    /// The units this device reports through `MSR_RAPL_POWER_UNIT`.
    pub fn units_struct(&self) -> RaplUnits {
        self.units
    }
}

impl MsrDevice for SimulatedRapl {
    fn read_msr(&self, addr: u32) -> Result<u64, RaplError> {
        if addr == msr::MSR_RAPL_POWER_UNIT {
            return Ok(self.units.to_msr());
        }
        if addr == msr::MSR_PKG_POWER_INFO {
            let info = msr::PowerInfo {
                tdp_watts: self.profile.tdp_watts,
                min_watts: self.profile.idle_package_watts,
                max_watts: self.profile.tdp_watts * 1.5,
            };
            return Ok(info.to_msr(self.units.watts_per_count()));
        }
        if let Some(domain) = Domain::from_energy_status_msr(addr) {
            let st = self.state.lock().unwrap();
            return st
                .counters
                .iter()
                .find(|(d, _)| *d == domain)
                .map(|(_, c)| c.read_raw() as u64)
                .ok_or(RaplError::UnsupportedDomain(domain));
        }
        Err(RaplError::UnknownRegister(addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> SimulatedRapl {
        SimulatedRapl::new(DeviceProfile::laptop_i5_3317u())
    }

    #[test]
    fn idle_power_accrues_with_time() {
        let d = dev();
        d.advance_seconds(10.0);
        let pkg = d.read_joules(Domain::Package);
        assert!((pkg - 32.0).abs() < 1e-9, "3.2 W × 10 s, got {pkg}");
        let core = d.read_joules(Domain::Core);
        assert!(core > 0.0 && core < pkg);
    }

    #[test]
    fn dynamic_energy_splits_by_profile() {
        let d = dev();
        d.add_dynamic_energy(10.0);
        assert!((d.read_joules(Domain::Package) - 10.0).abs() < 1e-9);
        assert!((d.read_joules(Domain::Core) - 8.2).abs() < 1e-9);
        assert!((d.read_joules(Domain::Uncore) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn package_dominates_subdomains() {
        let d = dev();
        d.advance_seconds(3.0);
        d.add_dynamic_energy(7.0);
        let pkg = d.read_joules(Domain::Package);
        assert!(d.read_joules(Domain::Core) <= pkg);
        assert!(d.read_joules(Domain::Core) + d.read_joules(Domain::Uncore) <= pkg + 1e-9);
    }

    #[test]
    fn msr_interface_reports_units_and_counters() {
        let d = dev();
        d.add_dynamic_energy(1.0);
        let units = d.units().unwrap();
        assert_eq!(units, RaplUnits::default());
        let j = d.read_energy_joules(Domain::Package).unwrap();
        // Raw counters start at a nonzero offset; convert the *offsetted*
        // reading — we can only check it's sane, not equal to 1.0.
        assert!(j >= 0.0);
    }

    #[test]
    fn interval_measured_through_msr_matches_added_energy() {
        let d = dev();
        let mut reader = crate::CounterReader::new(d.units().unwrap());
        reader.update(d.read_energy_raw(Domain::Package).unwrap());
        d.add_dynamic_energy(2.5);
        reader.update(d.read_energy_raw(Domain::Package).unwrap());
        assert!((reader.total_joules() - 2.5).abs() < 1e-4);
    }

    #[test]
    fn unknown_msr_errors() {
        assert!(matches!(
            dev().read_msr(0x1234),
            Err(RaplError::UnknownRegister(_))
        ));
    }

    #[test]
    fn dram_unsupported_on_client_part() {
        // i5-3317U exposes no DRAM domain: the MSR address is *known* but
        // the domain is absent from the register file.
        assert!(matches!(
            dev().read_msr(msr::MSR_DRAM_ENERGY_STATUS),
            Err(RaplError::UnsupportedDomain(Domain::Dram))
        ));
    }

    #[test]
    fn power_info_msr_reports_tdp() {
        let d = dev();
        let raw = d.read_msr(msr::MSR_PKG_POWER_INFO).unwrap();
        let info = msr::PowerInfo::from_msr(raw, d.units_struct().watts_per_count());
        assert!((info.tdp_watts - 17.0).abs() < 0.2);
    }

    #[test]
    fn concurrent_reporting_is_safe_and_lossless() {
        let d = dev();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let d = d.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        d.add_dynamic_energy(0.001);
                    }
                });
            }
        });
        assert!((d.total_dynamic_joules() - 8.0).abs() < 1e-9);
        assert!((d.read_joules(Domain::Package) - 8.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "time cannot run backwards")]
    fn negative_time_panics() {
        dev().advance_seconds(-1.0);
    }
}
