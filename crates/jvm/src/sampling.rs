//! Virtual-time sampling profiler support — the statistical alternative
//! to the §VII enter/exit instrumentation.
//!
//! The instrumented profiler charges every method boundary (a flush plus
//! an energy read per enter/exit — the +14% Table IV overhead in
//! BENCH_telemetry.json). The sampling mode instead snapshots the frame
//! stack at *safepoints* — branch/call ops in the legacy and decoded
//! loops, block boundaries in the IR tier (where segments already cut) —
//! whenever the interpreter's **virtual clock** crosses a configurable
//! interval boundary. Each interval's energy delta is attributed to the
//! stack observed at the interval's end (self = leaf frame, inclusive =
//! every unique method on the stack, so recursion counts a method once
//! per sample).
//!
//! Because the pacing clock is the deterministic virtual clock (not wall
//! time), sampled attribution is bit-identical across runs, `--jobs`
//! counts, and host load — the property the determinism suite enforces.
//!
//! ## Calibration
//!
//! The sampler's own work is not free: every snapshot walks the frame
//! stack and records a sample. That cost is charged to the scoreboard
//! (`2 + depth` Load-category counts per snapshot — the stack walk plus
//! bookkeeping), so sampled runs honestly include profiler self-energy
//! exactly like a real sampling profiler perturbs RAPL. Since the charge
//! is deterministic, the calibration step can account it *exactly*:
//! [`SampleSet::calibration_j`] is the precise joule total the profiler
//! itself consumed, and aggregation subtracts it proportionally from
//! per-method attributions (clamped at zero), reporting both raw and
//! calibrated joules.

use crate::class::MethodId;
use std::collections::HashMap;

/// Default cap on retained samples; crossings beyond it are counted as
/// dropped (surfaced via the `profiler.dropped` metric) instead of
/// growing memory without bound.
pub const DEFAULT_MAX_SAMPLES: usize = 1 << 20;

/// Scoreboard counts charged per snapshot beyond the per-frame walk.
pub(crate) const SAMPLE_BASE_CHARGES: u64 = 2;

/// Sampling configuration for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingConfig {
    /// Virtual seconds between samples (> 0).
    pub interval_s: f64,
    /// Retained-sample cap; crossings past it count as drops.
    pub max_samples: usize,
}

impl SamplingConfig {
    /// Config from a microsecond interval (clamped to ≥ 1 µs).
    pub fn from_interval_us(interval_us: u64) -> SamplingConfig {
        SamplingConfig {
            interval_s: (interval_us.max(1)) as f64 * 1e-6,
            max_samples: DEFAULT_MAX_SAMPLES,
        }
    }
}

/// One retained stack sample: the energy/time delta since the previous
/// sample, attributed to `stack`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Index into [`SampleSet::stacks`].
    pub stack: u32,
    /// Interval boundaries crossed at this safepoint (≥ 1; > 1 when a
    /// long-running op span crossed several boundaries at once).
    pub weight: u32,
    /// Package joules since the previous sample (raw, incl. profiler).
    pub package_j: f64,
    /// Core joules since the previous sample.
    pub core_j: f64,
    /// Virtual seconds since the previous sample.
    pub seconds: f64,
    /// Virtual timestamp (seconds since run start) of the snapshot.
    pub at_s: f64,
}

/// Everything one sampled run produced.
#[derive(Debug, Clone, Default)]
pub struct SampleSet {
    /// Interned stacks (outermost frame first); samples index into this.
    pub stacks: Vec<Vec<MethodId>>,
    /// Retained samples in virtual-time order.
    pub samples: Vec<Sample>,
    /// Total interval boundaries crossed (retained + dropped weight).
    pub taken: u64,
    /// Boundaries crossed after the retained-sample cap was hit.
    pub dropped: u64,
    /// Exact joules the sampler itself charged (stack walks).
    pub calibration_j: f64,
    /// Exact virtual seconds the sampler itself charged.
    pub calibration_s: f64,
    /// The configured interval, echoed for reports.
    pub interval_s: f64,
}

impl SampleSet {
    /// Sum of raw attributed package joules across retained samples.
    pub fn raw_total_j(&self) -> f64 {
        self.samples.iter().map(|s| s.package_j).sum()
    }

    /// Raw total minus the profiler's own energy, clamped at zero.
    pub fn calibrated_total_j(&self) -> f64 {
        (self.raw_total_j() - self.calibration_j).max(0.0)
    }
}

/// Live sampler state inside one [`crate::interp::Interp`] run.
pub(crate) struct SamplingState {
    pub(crate) cfg: SamplingConfig,
    /// Virtual timestamp of the next sample boundary.
    pub(crate) next_sample_s: f64,
    /// Energy/time at the previous sample (delta baseline).
    pub(crate) last_j: f64,
    pub(crate) last_core_j: f64,
    pub(crate) last_s: f64,
    /// Stack → id interner (ids are insertion-ordered, deterministic).
    stack_ids: HashMap<Vec<MethodId>, u32>,
    scratch: Vec<MethodId>,
    pub(crate) set: SampleSet,
}

impl SamplingState {
    pub(crate) fn new(cfg: SamplingConfig) -> SamplingState {
        SamplingState {
            cfg,
            next_sample_s: cfg.interval_s,
            last_j: 0.0,
            last_core_j: 0.0,
            last_s: 0.0,
            stack_ids: HashMap::new(),
            scratch: Vec::with_capacity(32),
            set: SampleSet {
                interval_s: cfg.interval_s,
                ..SampleSet::default()
            },
        }
    }

    /// Record one snapshot of `frames` (method ids, outermost first) at
    /// virtual state `(pkg_j, core_j, secs)`, covering every interval
    /// boundary at or before `secs`. Returns the snapshot's frame depth
    /// so the caller can charge the walk cost.
    pub(crate) fn record(
        &mut self,
        frames: impl Iterator<Item = MethodId>,
        pkg_j: f64,
        core_j: f64,
        secs: f64,
    ) -> u64 {
        let mut weight = 0u32;
        while secs >= self.next_sample_s {
            weight += 1;
            self.next_sample_s += self.cfg.interval_s;
        }
        debug_assert!(weight > 0, "record called before a boundary");
        self.scratch.clear();
        self.scratch.extend(frames);
        let depth = self.scratch.len() as u64;
        self.set.taken += weight as u64;
        if self.set.samples.len() >= self.cfg.max_samples {
            self.set.dropped += weight as u64;
        } else {
            let id = match self.stack_ids.get(&self.scratch) {
                Some(&id) => id,
                None => {
                    let id = self.set.stacks.len() as u32;
                    self.stack_ids.insert(self.scratch.clone(), id);
                    self.set.stacks.push(self.scratch.clone());
                    id
                }
            };
            self.set.samples.push(Sample {
                stack: id,
                weight,
                package_j: pkg_j - self.last_j,
                core_j: core_j - self.last_core_j,
                seconds: secs - self.last_s,
                at_s: secs,
            });
        }
        self.last_j = pkg_j;
        self.last_core_j = core_j;
        self.last_s = secs;
        depth
    }
}

/// Per-method aggregation of a [`SampleSet`] — the sampling analogue of
/// [`crate::MethodEnergyRecord`].
#[derive(Debug, Clone, PartialEq)]
pub struct SampledMethodRecord {
    /// Qualified method name.
    pub name: String,
    /// Samples where this method was the leaf frame.
    pub self_samples: u64,
    /// Samples where this method appeared anywhere on the stack
    /// (recursion folded: counted once per sample).
    pub incl_samples: u64,
    /// Raw package joules attributed with this method as leaf.
    pub self_package_j: f64,
    /// Raw package joules attributed with this method on-stack.
    pub incl_package_j: f64,
    /// Core joules attributed with this method on-stack.
    pub incl_core_j: f64,
    /// Virtual seconds attributed with this method on-stack.
    pub incl_seconds: f64,
    /// Inclusive joules after proportional calibration subtraction.
    pub calibrated_incl_j: f64,
    /// Self joules after proportional calibration subtraction.
    pub calibrated_self_j: f64,
}

/// Fold a sample set into per-method records, sorted by descending
/// inclusive energy (ties broken by name — fully deterministic).
///
/// Calibration: the profiler's exactly-known self-energy
/// (`set.calibration_j`) is subtracted proportionally — each method
/// keeps the fraction `(raw_total - calibration) / raw_total` of its raw
/// attribution, clamped at zero — so calibrated totals never go
/// negative and still sum to `raw_total - calibration`.
pub fn aggregate_samples(
    set: &SampleSet,
    name_of: impl Fn(MethodId) -> String,
) -> Vec<SampledMethodRecord> {
    use std::collections::BTreeMap;
    struct Acc {
        self_samples: u64,
        incl_samples: u64,
        self_j: f64,
        incl_j: f64,
        incl_core_j: f64,
        incl_s: f64,
    }
    let mut by_method: BTreeMap<MethodId, Acc> = BTreeMap::new();
    let mut uniq: Vec<MethodId> = Vec::with_capacity(32);
    for s in &set.samples {
        let stack = &set.stacks[s.stack as usize];
        let Some(&leaf) = stack.last() else { continue };
        {
            let a = by_method.entry(leaf).or_insert(Acc {
                self_samples: 0,
                incl_samples: 0,
                self_j: 0.0,
                incl_j: 0.0,
                incl_core_j: 0.0,
                incl_s: 0.0,
            });
            a.self_samples += s.weight as u64;
            a.self_j += s.package_j;
        }
        // Fold: each method counted once per sample however often it
        // recurs on the stack (flamegraph-folding semantics).
        uniq.clear();
        for &m in stack {
            if !uniq.contains(&m) {
                uniq.push(m);
            }
        }
        for &m in &uniq {
            let a = by_method.entry(m).or_insert(Acc {
                self_samples: 0,
                incl_samples: 0,
                self_j: 0.0,
                incl_j: 0.0,
                incl_core_j: 0.0,
                incl_s: 0.0,
            });
            a.incl_samples += s.weight as u64;
            a.incl_j += s.package_j;
            a.incl_core_j += s.core_j;
            a.incl_s += s.seconds;
        }
    }
    let raw_total = set.raw_total_j();
    let cal_factor = if raw_total > 0.0 {
        ((raw_total - set.calibration_j) / raw_total).max(0.0)
    } else {
        1.0
    };
    let mut records: Vec<SampledMethodRecord> = by_method
        .into_iter()
        .map(|(mid, a)| SampledMethodRecord {
            name: name_of(mid),
            self_samples: a.self_samples,
            incl_samples: a.incl_samples,
            self_package_j: a.self_j,
            incl_package_j: a.incl_j,
            incl_core_j: a.incl_core_j,
            incl_seconds: a.incl_s,
            calibrated_incl_j: (a.incl_j * cal_factor).max(0.0),
            calibrated_self_j: (a.self_j * cal_factor).max(0.0),
        })
        .collect();
    records.sort_by(|a, b| {
        b.incl_package_j
            .total_cmp(&a.incl_package_j)
            .then_with(|| a.name.cmp(&b.name))
    });
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_with(stacks: Vec<Vec<MethodId>>, samples: Vec<Sample>) -> SampleSet {
        SampleSet {
            stacks,
            taken: samples.iter().map(|s| s.weight as u64).sum(),
            samples,
            dropped: 0,
            calibration_j: 0.0,
            calibration_s: 0.0,
            interval_s: 1e-4,
        }
    }

    fn sample(stack: u32, j: f64) -> Sample {
        Sample {
            stack,
            weight: 1,
            package_j: j,
            core_j: j * 0.5,
            seconds: j,
            at_s: 0.0,
        }
    }

    #[test]
    fn recursion_is_folded_once_per_sample() {
        // Stack [0, 1, 0]: method 0 recurses; inclusive counts it once.
        let set = set_with(vec![vec![0, 1, 0]], vec![sample(0, 2.0)]);
        let recs = aggregate_samples(&set, |m| format!("m{m}"));
        let m0 = recs.iter().find(|r| r.name == "m0").unwrap();
        assert_eq!(m0.incl_samples, 1);
        assert_eq!(m0.self_samples, 1); // leaf is the recursive frame
        assert!((m0.incl_package_j - 2.0).abs() < 1e-12);
        let m1 = recs.iter().find(|r| r.name == "m1").unwrap();
        assert_eq!(m1.incl_samples, 1);
        assert_eq!(m1.self_samples, 0);
    }

    #[test]
    fn calibration_subtracts_proportionally_and_clamps() {
        let mut set = set_with(
            vec![vec![0], vec![0, 1]],
            vec![sample(0, 3.0), sample(1, 1.0)],
        );
        set.calibration_j = 1.0; // of raw_total 4.0 → keep 3/4
        let recs = aggregate_samples(&set, |m| format!("m{m}"));
        let m0 = recs.iter().find(|r| r.name == "m0").unwrap();
        assert!((m0.incl_package_j - 4.0).abs() < 1e-12);
        assert!((m0.calibrated_incl_j - 3.0).abs() < 1e-12);
        assert!((set.calibrated_total_j() - 3.0).abs() < 1e-12);
        // Over-calibration clamps at zero rather than going negative.
        set.calibration_j = 10.0;
        let recs = aggregate_samples(&set, |m| format!("m{m}"));
        assert!(recs.iter().all(|r| r.calibrated_incl_j == 0.0));
        assert_eq!(set.calibrated_total_j(), 0.0);
    }

    #[test]
    fn sort_is_by_descending_inclusive_energy_then_name() {
        let set = set_with(
            vec![vec![0], vec![1], vec![2]],
            vec![sample(0, 1.0), sample(1, 5.0), sample(2, 1.0)],
        );
        let recs = aggregate_samples(&set, |m| format!("m{m}"));
        let names: Vec<&str> = recs.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["m1", "m0", "m2"]);
    }

    #[test]
    fn record_crosses_multiple_boundaries_with_one_weighted_sample() {
        let mut st = SamplingState::new(SamplingConfig {
            interval_s: 1.0,
            max_samples: 4,
        });
        let depth = st.record([7u32, 8u32].into_iter(), 10.0, 5.0, 3.5);
        assert_eq!(depth, 2);
        assert_eq!(st.set.taken, 3); // boundaries at 1.0, 2.0, 3.0
        assert_eq!(st.set.samples.len(), 1);
        assert_eq!(st.set.samples[0].weight, 3);
        assert!((st.set.samples[0].package_j - 10.0).abs() < 1e-12);
        assert_eq!(st.set.stacks[0], vec![7, 8]);
        // Cap: further crossings count as drops.
        for k in 0..6 {
            st.record([7u32].into_iter(), 10.0 + k as f64, 5.0, 4.5 + k as f64);
        }
        assert_eq!(st.set.samples.len(), 4);
        assert!(st.set.dropped > 0);
        assert_eq!(
            st.set.taken,
            st.set.samples.iter().map(|s| s.weight as u64).sum::<u64>() + st.set.dropped
        );
    }
}
