//! RAPL power domains.
//!
//! RAPL exposes energy counters per *domain*. The paper measures the
//! **package** domain (its injected reader) and reports both package and
//! "CPU" (core, i.e. PP0) improvements in Table IV, so both must be modelled.

use serde::{Deserialize, Serialize};

/// A RAPL power domain.
///
/// The hierarchy on client parts (like the paper's i5-3317U, an Ivy Bridge
/// mobile CPU) is:
///
/// ```text
/// Package ⊇ { Core (PP0), Uncore (PP1/graphics) } ; Dram is separate
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Domain {
    /// Whole processor package: cores, caches, integrated graphics,
    /// memory controller. This is what `perf stat -e power/energy-pkg/`
    /// and the paper's "Package" column report.
    Package,
    /// Power plane 0: the CPU cores. The paper's "CPU energy" column.
    Core,
    /// Power plane 1: uncore / integrated graphics (client parts only).
    Uncore,
    /// DRAM domain (server parts and some mobile parts).
    Dram,
    /// Platform (PSys) domain, Skylake and later. Not present on the
    /// paper's Ivy Bridge machine; included for completeness and used by
    /// the edge-device profiles.
    Psys,
}

impl Domain {
    /// All domains, in MSR-address order.
    pub const ALL: [Domain; 5] = [
        Domain::Package,
        Domain::Core,
        Domain::Uncore,
        Domain::Dram,
        Domain::Psys,
    ];

    /// Domains available on a client (laptop) part such as the paper's
    /// i5-3317U: package, core, uncore. DRAM RAPL is not exposed there.
    pub const CLIENT: [Domain; 3] = [Domain::Package, Domain::Core, Domain::Uncore];

    /// The MSR holding this domain's energy-status counter.
    pub fn energy_status_msr(self) -> u32 {
        match self {
            Domain::Package => crate::msr::MSR_PKG_ENERGY_STATUS,
            Domain::Core => crate::msr::MSR_PP0_ENERGY_STATUS,
            Domain::Uncore => crate::msr::MSR_PP1_ENERGY_STATUS,
            Domain::Dram => crate::msr::MSR_DRAM_ENERGY_STATUS,
            Domain::Psys => crate::msr::MSR_PLATFORM_ENERGY_STATUS,
        }
    }

    /// Inverse of [`Domain::energy_status_msr`].
    pub fn from_energy_status_msr(addr: u32) -> Option<Domain> {
        Domain::ALL
            .into_iter()
            .find(|d| d.energy_status_msr() == addr)
    }
}

impl std::fmt::Display for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Domain::Package => "package",
            Domain::Core => "core",
            Domain::Uncore => "uncore",
            Domain::Dram => "dram",
            Domain::Psys => "psys",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msr_roundtrip() {
        for d in Domain::ALL {
            assert_eq!(
                Domain::from_energy_status_msr(d.energy_status_msr()),
                Some(d)
            );
        }
    }

    #[test]
    fn unknown_msr_is_none() {
        assert_eq!(Domain::from_energy_status_msr(0x0), None);
        assert_eq!(Domain::from_energy_status_msr(0x606), None); // unit MSR, not a counter
    }

    #[test]
    fn client_set_is_subset_of_all() {
        for d in Domain::CLIENT {
            assert!(Domain::ALL.contains(&d));
        }
        assert!(!Domain::CLIENT.contains(&Domain::Dram));
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(Domain::Package.to_string(), "package");
        assert_eq!(Domain::Core.to_string(), "core");
    }
}
