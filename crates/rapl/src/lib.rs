//! # jepo-rapl — RAPL energy-measurement substrate
//!
//! The paper's profiler reads Intel *Running Average Power Limit* (RAPL)
//! machine-specific registers (MSRs) at method entry and exit to attribute
//! energy to Java methods, and uses the Linux `perf` tool (which reads the
//! same counters) for the WEKA evaluation. This crate reproduces that
//! substrate in three layers:
//!
//! 1. **Register level** ([`msr`], [`units`], [`counter`]) — the RAPL MSR
//!    address map, the `MSR_RAPL_POWER_UNIT` bit-field decoding, and the
//!    32-bit wrapping energy-status counters, bit-accurate to the Intel SDM.
//! 2. **Device level** ([`sim`], [`power`]) — a simulated RAPL package
//!    driven by an activity-based power model. It is the only energy
//!    source: nothing in the workspace reads real RAPL counters.
//! 3. **Measurement level** ([`probe`], [`activity`], [`meter`]) — the
//!    wrap-correct [`CounterProbe`] that spans and profiler probes read
//!    through, the operation-count cost model that converts instrumented
//!    work into joules, and the per-interval [`Measurement`] record.
//!
//! ## Why a simulator?
//!
//! Reading RAPL MSRs requires ring-0 access (or the `powercap` sysfs tree),
//! which is unavailable in most containers and on non-Intel hosts. The
//! simulator preserves every property the paper's tooling depends on:
//! energy is monotone, counters wrap at 32 bits, readings are in hardware
//! units that must be scaled by `MSR_RAPL_POWER_UNIT`, and the package
//! domain dominates core + uncore + DRAM. Dynamic energy accrues from the
//! *work the profiled program actually performs* (instruction counts fed
//! through [`activity::CostModel`]), so relative comparisons — the only
//! quantity the paper reports — are meaningful.
//!
//! ## Quick example
//!
//! ```
//! use jepo_rapl::{SimulatedRapl, Domain, power::DeviceProfile};
//!
//! let rapl = SimulatedRapl::new(DeviceProfile::laptop_i5_3317u());
//! let before = rapl.read_joules(Domain::Package);
//! rapl.advance_seconds(0.1);                     // idle power accrues
//! rapl.add_dynamic_energy(0.5);                  // work performed
//! let after = rapl.read_joules(Domain::Package);
//! assert!(after > before);
//! ```

pub mod activity;
pub mod counter;
pub mod domain;
pub mod error;
pub mod meter;
pub mod msr;
pub mod power;
pub mod probe;
pub mod sim;
pub mod units;

pub use activity::{CostModel, OpCategory, OpCounter, OpSnapshot, Scoreboard};
pub use counter::{CounterReader, EnergyCounter};
pub use domain::Domain;
pub use error::RaplError;
pub use meter::Measurement;
pub use msr::MsrDevice;
pub use power::DeviceProfile;
pub use probe::CounterProbe;
pub use sim::SimulatedRapl;
pub use units::RaplUnits;
