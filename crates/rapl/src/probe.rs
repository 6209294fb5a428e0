//! The `jepo-trace` energy-probe adapter — spans read RAPL through here.
//!
//! A span's energy delta is the difference of two cumulative
//! [`jepo_trace::EnergyProbe::total_joules`] readings. The naive way to
//! implement that over RAPL — differencing two raw 32-bit energy-status
//! reads — silently loses `2³² × joules_per_count` whenever the counter
//! wraps inside the span (roughly hourly at laptop TDP, well within a
//! long Table IV run). [`CounterProbe`] therefore routes every raw MSR
//! read through the wrap-aware [`CounterReader`], so a wrap mid-span
//! yields the correct delta (see the wrap-forcing test below).

use crate::{CounterReader, Domain, MsrDevice, RaplError};
use jepo_trace::EnergyProbe;
use std::sync::Mutex;

/// Wrap-correct cumulative energy probe over one domain of an
/// [`MsrDevice`].
pub struct CounterProbe<D: MsrDevice> {
    device: D,
    domain: Domain,
    reader: Mutex<CounterReader>,
}

impl<D: MsrDevice> CounterProbe<D> {
    /// Build a probe; the construction-time read establishes the
    /// baseline, so `total_joules` starts at 0.
    pub fn new(device: D, domain: Domain) -> Result<CounterProbe<D>, RaplError> {
        let units = device.units()?;
        let mut reader = CounterReader::new(units);
        reader.update(device.read_energy_raw(domain)?);
        Ok(CounterProbe {
            device,
            domain,
            reader: Mutex::new(reader),
        })
    }
}

impl<D: MsrDevice> EnergyProbe for CounterProbe<D> {
    fn total_joules(&self) -> f64 {
        let mut reader = self.reader.lock().unwrap();
        if let Ok(raw) = self.device.read_energy_raw(self.domain) {
            reader.update(raw);
            let reg = jepo_trace::Registry::global();
            if reg.is_enabled() {
                reg.counter("rapl.probe_reads").incr();
            }
        }
        reader.total_joules()
    }
}

/// Package-domain probe over a (cheaply cloned, state-shared)
/// [`crate::SimulatedRapl`] — what the VM binds around instrumented runs.
pub fn package_probe(
    sim: &crate::SimulatedRapl,
) -> Result<CounterProbe<crate::SimulatedRapl>, RaplError> {
    CounterProbe::new(sim.clone(), Domain::Package)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviceProfile, RaplUnits, SimulatedRapl};
    use jepo_trace::{bind_probe, span, Tracer};
    use std::sync::Arc;

    #[test]
    fn probe_baseline_is_zero_and_monotone() {
        let sim = SimulatedRapl::new(DeviceProfile::laptop_i5_3317u());
        let probe = package_probe(&sim).unwrap();
        assert_eq!(probe.total_joules(), 0.0);
        sim.add_dynamic_energy(1.5);
        let a = probe.total_joules();
        assert!((a - 1.5).abs() < 1e-4, "{a}");
        sim.add_dynamic_energy(0.5);
        assert!(probe.total_joules() >= a);
    }

    /// Satellite bugfix test: force a 32-bit counter wrap *inside* an
    /// open span and check the recorded delta is the energy actually
    /// spent, not the garbage a raw end-minus-start difference gives.
    #[test]
    fn wrap_inside_a_span_yields_the_correct_delta() {
        let sim = SimulatedRapl::new(DeviceProfile::laptop_i5_3317u());
        let units: RaplUnits = sim.units_struct();
        // The package counter starts at raw offset 0x1000_0000; joules
        // to the wrap point from there:
        let to_wrap = units.raw_to_joules((u32::MAX as u64 + 1) - 0x1000_0000);
        let spend = to_wrap + 100.0; // crosses the wrap mid-span
        let probe = Arc::new(package_probe(&sim).unwrap());

        let tracer = Tracer::new();
        tracer.enable();
        {
            let _t = tracer.track("wrap-test");
            let _p = bind_probe(probe.clone());
            let _s = span("long-span");
            // Cross the wrap in two chunks so the reader (≤1 wrap per
            // sample) sees the boundary, as a real sampler would.
            sim.add_dynamic_energy(to_wrap - 50.0);
            probe.total_joules(); // mid-span sample
            sim.add_dynamic_energy(150.0);
        }
        let json = tracer.export_chrome(false);
        let stats = jepo_trace::validate::validate_chrome(&json).unwrap();
        assert_eq!(stats.spans, 1);
        let got = stats.total_package_j;
        assert!(
            (got - spend).abs() < 1.0,
            "wrap-corrected span delta {got} J, spent {spend} J"
        );
        // Sanity: the delta is far larger than what a wrap-oblivious
        // raw difference could report (the post-wrap residue alone).
        let naive_max = units.raw_to_joules(u32::MAX as u64) - to_wrap;
        assert!(got > naive_max, "{got} vs naive ceiling {naive_max}");
    }

    #[test]
    fn reader_observes_the_wrap() {
        let sim = SimulatedRapl::new(DeviceProfile::laptop_i5_3317u());
        let units = sim.units_struct();
        let probe = package_probe(&sim).unwrap();
        let to_wrap = units.raw_to_joules((u32::MAX as u64 + 1) - 0x1000_0000);
        sim.add_dynamic_energy(to_wrap + 10.0);
        let total = probe.total_joules();
        assert!((total - (to_wrap + 10.0)).abs() < 1.0, "{total}");
        assert_eq!(probe.reader.lock().unwrap().wraps_observed(), 1);
    }
}
