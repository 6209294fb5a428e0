//! The efficiency-profile kernel — the controlled analogue of applying
//! JEPO's suggestions to WEKA.
//!
//! Every classifier routes its hot loops through a [`Kernel`]. The
//! kernel does two things per primitive:
//!
//! 1. **counts operations** — into a thread-local [`jepo_rapl::Scoreboard`]
//!    flushed in bulk to a shared striped [`jepo_rapl::OpCounter`] — with
//!    the category the active [`EfficiencyProfile`] implies (e.g. a
//!    multiply counts `DoubleMul` under the baseline profile and
//!    `FloatMul` under the optimized one; an attribute-matrix scan
//!    counts cache misses under column order), and
//! 2. **computes the value** with matching numerics: the optimized
//!    profile rounds through `f32`, which is what produces the genuine
//!    accuracy drops of Table IV when the paper demotes `double` to
//!    `float`.
//!
//! The experiment harness converts the counts to joules/seconds with the
//! calibrated cost/latency models and reports them to the simulated RAPL
//! device, closing the loop to Table IV.

use jepo_rapl::{OpCategory, OpCounter, Scoreboard};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Floating-point width the code computes in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Precision {
    /// `double` everywhere — WEKA as shipped.
    F64,
    /// `float` after JEPO's primitive-type suggestion (precision loss).
    F32,
}

/// Traversal order of the instance/attribute matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Layout {
    /// Instance-major scans of attribute-major work: strided, cache-hostile.
    ColMajor,
    /// Scans match storage order: sequential, cache-friendly.
    RowMajor,
}

/// The set of code-level choices JEPO's suggestions flip.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EfficiencyProfile {
    /// Float width (Table I: primitive data types).
    pub precision: Precision,
    /// Matrix traversal order (Table I: array traversal).
    pub layout: Layout,
    /// `System.arraycopy` vs manual loops (Table I: arrays copy).
    pub bulk_copy: bool,
    /// `StringBuilder.append` vs `+` for model reports (Table I:
    /// string concatenation).
    pub builder_strings: bool,
    /// Shared mutable ("static") counters touched in hot loops vs local
    /// accumulation (Table I: static keyword).
    pub static_counters: bool,
    /// `%` hashing vs bitmask (Table I: arithmetic operators).
    pub modulus_hash: bool,
    /// Ternary-operator-style selects vs branches (Table I: ternary).
    pub ternary_selects: bool,
}

impl EfficiencyProfile {
    /// WEKA as shipped — before JEPO's suggestions.
    pub fn baseline() -> EfficiencyProfile {
        EfficiencyProfile {
            precision: Precision::F64,
            layout: Layout::ColMajor,
            bulk_copy: false,
            builder_strings: false,
            static_counters: true,
            modulus_hash: true,
            ternary_selects: true,
        }
    }

    /// WEKA after applying every JEPO suggestion.
    pub fn optimized() -> EfficiencyProfile {
        EfficiencyProfile {
            precision: Precision::F32,
            layout: Layout::RowMajor,
            bulk_copy: true,
            builder_strings: true,
            static_counters: false,
            modulus_hash: false,
            ternary_selects: false,
        }
    }

    /// Optimized except one dimension kept at baseline — for the
    /// ablation bench ("which suggestion buys what").
    pub fn optimized_except(dim: &str) -> EfficiencyProfile {
        let mut p = EfficiencyProfile::optimized();
        let b = EfficiencyProfile::baseline();
        match dim {
            "precision" => p.precision = b.precision,
            "layout" => p.layout = b.layout,
            "bulk_copy" => p.bulk_copy = b.bulk_copy,
            "builder_strings" => p.builder_strings = b.builder_strings,
            "static_counters" => p.static_counters = b.static_counters,
            "modulus_hash" => p.modulus_hash = b.modulus_hash,
            "ternary_selects" => p.ternary_selects = b.ternary_selects,
            _ => panic!("unknown ablation dimension `{dim}`"),
        }
        p
    }

    /// Names accepted by [`EfficiencyProfile::optimized_except`].
    pub const DIMENSIONS: [&'static str; 7] = [
        "precision",
        "layout",
        "bulk_copy",
        "builder_strings",
        "static_counters",
        "modulus_hash",
        "ternary_selects",
    ];
}

/// Counted numeric kernel shared by all classifiers.
///
/// Accounting is two-tier: every hot-path method bumps a **local
/// scoreboard** (a plain non-atomic [`Scoreboard`] cell array), and the
/// accumulated block flushes in bulk into the kernel's stripe of the
/// shared striped [`OpCounter`] — on [`Kernel::flush`], on every
/// [`Kernel::snapshot`]/[`Kernel::take_snapshot`], and on `Drop`. A
/// `clone` starts a fresh scoreboard on its own stripe slot, so clones
/// handed to worker threads never contend on a cache line; because every
/// tier is a sum of `u64` increments, totals are exact for any clone
/// count, flush order, or thread schedule.
///
/// The scoreboard makes `Kernel` deliberately `!Sync` (a scoreboard
/// belongs to one thread); it stays `Send`, so the pattern is "clone,
/// move the clone into the worker, let its drop flush".
pub struct Kernel {
    profile: EfficiencyProfile,
    counter: Arc<OpCounter>,
    slot: usize,
    board: Scoreboard,
}

impl Clone for Kernel {
    fn clone(&self) -> Kernel {
        Kernel {
            profile: self.profile,
            counter: self.counter.clone(),
            slot: self.counter.assign_slot(),
            board: Scoreboard::new(),
        }
    }
}

impl Drop for Kernel {
    /// Unflushed scoreboard counts are never lost: the kernel flushes
    /// them to the shared counter when it goes out of scope.
    fn drop(&mut self) {
        self.flush();
    }
}

impl Kernel {
    /// Kernel with a fresh counter.
    pub fn new(profile: EfficiencyProfile) -> Kernel {
        Kernel::with_counter(profile, Arc::new(OpCounter::new()))
    }

    /// Kernel sharing an existing counter (the experiment harness owns it).
    pub fn with_counter(profile: EfficiencyProfile, counter: Arc<OpCounter>) -> Kernel {
        let slot = counter.assign_slot();
        Kernel {
            profile,
            counter,
            slot,
            board: Scoreboard::new(),
        }
    }

    /// The active profile.
    pub fn profile(&self) -> EfficiencyProfile {
        self.profile
    }

    /// The shared counter.
    ///
    /// Reading it directly sees only *flushed* counts; use
    /// [`Kernel::snapshot`] (or drop the clones first) when local
    /// scoreboards may still hold work.
    pub fn counter(&self) -> Arc<OpCounter> {
        self.counter.clone()
    }

    /// Flush this kernel's local scoreboard into its stripe of the
    /// shared counter. Clones flush themselves (on their own drop or
    /// explicit `flush`); counts never transfer between scoreboards.
    pub fn flush(&self) {
        self.counter.add_slab(self.slot, &self.board.drain());
    }

    /// Flush, then snapshot the shared counter.
    pub fn snapshot(&self) -> jepo_rapl::OpSnapshot {
        self.flush();
        self.counter.snapshot()
    }

    /// Flush, then drain the shared counter (snapshot + reset).
    pub fn take_snapshot(&self) -> jepo_rapl::OpSnapshot {
        self.flush();
        self.counter.take()
    }

    /// Charge `n` operations of an explicit category (neutral overhead
    /// classifiers account outside the arithmetic helpers).
    #[inline]
    pub fn charge(&self, cat: OpCategory, n: u64) {
        self.board.bump_n(cat, n);
    }

    /// A no-cost kernel for tests that don't care about energy.
    pub fn silent() -> Kernel {
        Kernel::new(EfficiencyProfile::optimized())
    }

    // --- precision -------------------------------------------------------

    /// The RNG seed a classifier actually uses. The paper's `long` →
    /// `int` demotion truncates WEKA's `Random(long seed)` to 32 bits,
    /// which re-seeds the stream — the mechanism behind Random Tree's
    /// 0.48-point and SMO's 0.17-point accuracy drops in Table IV
    /// (a *different* random model, not a worse algorithm).
    pub fn effective_seed(&self, seed: u64) -> u64 {
        match self.profile.precision {
            Precision::F64 => seed,
            Precision::F32 => (seed as u32) as u64 ^ 0x9E37_79B9,
        }
    }

    /// Round through the active float width (identity under F64).
    #[inline]
    pub fn quantize(&self, x: f64) -> f64 {
        match self.profile.precision {
            Precision::F64 => x,
            Precision::F32 => x as f32 as f64,
        }
    }

    #[inline]
    fn alu(&self) -> OpCategory {
        match self.profile.precision {
            Precision::F64 => OpCategory::DoubleAlu,
            Precision::F32 => OpCategory::FloatAlu,
        }
    }

    #[inline]
    fn mul_cat(&self) -> OpCategory {
        match self.profile.precision {
            Precision::F64 => OpCategory::DoubleMul,
            Precision::F32 => OpCategory::FloatMul,
        }
    }

    #[inline]
    fn div_cat(&self) -> OpCategory {
        match self.profile.precision {
            Precision::F64 => OpCategory::DoubleDiv,
            Precision::F32 => OpCategory::FloatDiv,
        }
    }

    // --- arithmetic --------------------------------------------------------

    /// Counted add.
    #[inline]
    pub fn add(&self, a: f64, b: f64) -> f64 {
        self.board.bump(self.alu());
        self.quantize(a + b)
    }

    /// Counted subtract.
    #[inline]
    pub fn sub(&self, a: f64, b: f64) -> f64 {
        self.board.bump(self.alu());
        self.quantize(a - b)
    }

    /// Counted multiply.
    #[inline]
    pub fn mul(&self, a: f64, b: f64) -> f64 {
        self.board.bump(self.mul_cat());
        self.quantize(a * b)
    }

    /// Counted divide.
    #[inline]
    pub fn div(&self, a: f64, b: f64) -> f64 {
        self.board.bump(self.div_cat());
        self.quantize(a / b)
    }

    /// Counted natural log (transcendental ≈ divide cost). Follows the
    /// active precision like [`Kernel::div`]: the `double`→`float`
    /// demotion reaches `Math.log` call sites too.
    #[inline]
    pub fn ln(&self, a: f64) -> f64 {
        self.board.bump(self.div_cat());
        self.quantize(a.ln())
    }

    /// Counted exp (precision-following, as [`Kernel::ln`]).
    #[inline]
    pub fn exp(&self, a: f64) -> f64 {
        self.board.bump(self.div_cat());
        self.quantize(a.exp())
    }

    /// Profile-neutral per-element overhead of any vector loop: bounds
    /// checks, index arithmetic, loop control — the JVM work JEPO's
    /// suggestions cannot touch. This is what keeps the Table IV
    /// improvements in the paper's single-digit range instead of the
    /// raw per-op ratios.
    #[inline]
    fn charge_elem_overhead(&self, n: u64) {
        self.board.bump_n(OpCategory::ArrayIndex, 2 * n);
        self.board.bump_n(OpCategory::Branch, n);
        self.board.bump_n(OpCategory::IntAlu, 2 * n);
    }

    /// Profile-*independent* floating work (library routines JEPO's
    /// rewrites never touched, e.g. WEKA Logistic's optimizer core).
    pub fn raw_flops(&self, adds: u64, muls: u64) {
        self.board.bump_n(OpCategory::DoubleAlu, adds);
        self.board.bump_n(OpCategory::DoubleMul, muls);
        self.board.bump_n(OpCategory::Load, adds + muls);
        self.charge_elem_overhead((adds + muls) / 2);
    }

    /// Neutral cost of sorting `n` values (split search pre-sorting):
    /// `n log2 n` compare/move pairs.
    pub fn charge_sort(&self, n: usize) {
        if n < 2 {
            return;
        }
        let work = (n as f64 * (n as f64).log2()) as u64;
        self.board.bump_n(OpCategory::IntAlu, work);
        self.board.bump_n(OpCategory::Load, work);
        self.board.bump_n(OpCategory::Store, work / 2);
        self.board.bump_n(OpCategory::Branch, work);
    }

    /// Counted dot product.
    pub fn dot(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len() as u64;
        self.charge_elem_overhead(n);
        self.board.bump_n(self.mul_cat(), n);
        self.board.bump_n(self.alu(), n);
        self.board.bump_n(OpCategory::Load, 2 * n);
        let mut s = 0.0;
        for (x, y) in a.iter().zip(b) {
            s += x * y;
        }
        self.quantize(s)
    }

    /// Counted squared Euclidean distance.
    pub fn squared_distance(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len() as u64;
        self.charge_elem_overhead(n);
        self.board.bump_n(self.mul_cat(), n);
        self.board.bump_n(self.alu(), 2 * n);
        self.board.bump_n(OpCategory::Load, 2 * n);
        let mut s = 0.0;
        for (x, y) in a.iter().zip(b) {
            let d = x - y;
            s += d * d;
        }
        self.quantize(s)
    }

    /// Counted `y += alpha * x`.
    pub fn axpy(&self, alpha: f64, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), y.len());
        let n = x.len() as u64;
        self.charge_elem_overhead(n);
        self.board.bump_n(self.mul_cat(), n);
        self.board.bump_n(self.alu(), n);
        self.board.bump_n(OpCategory::Load, n);
        self.board.bump_n(OpCategory::Store, n);
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi = self.quantize(*yi + alpha * xi);
        }
    }

    // --- memory traffic -----------------------------------------------------

    /// Charge an attribute-wise scan of `rows × 1` values out of a
    /// row-major instance matrix with `row_bytes` bytes per row.
    ///
    /// Under [`Layout::ColMajor`] (WEKA's attribute-indexed inner loops
    /// over instance-major storage) each access strides a whole row:
    /// once the matrix exceeds L1 every access misses. Under
    /// [`Layout::RowMajor`] (restructured scan) accesses are sequential:
    /// one miss per cache line.
    pub fn charge_attribute_scan(&self, rows: usize, row_bytes: usize) {
        let rows_u = rows as u64;
        // Per-row neutral work: the `instance(i).value(attr)` call chain,
        // bounds checks and loop control — untouched by any suggestion.
        self.board.bump_n(OpCategory::ArrayIndex, rows_u);
        self.board.bump_n(OpCategory::Call, rows_u);
        self.board.bump_n(OpCategory::IntAlu, 2 * rows_u);
        match self.profile.layout {
            Layout::ColMajor => {
                let matrix_bytes = rows * row_bytes;
                if matrix_bytes > 32 * 1024 {
                    // Strided but constant-stride: the hardware
                    // prefetcher hides ~80% of the would-be misses.
                    self.board.bump_n(OpCategory::CacheMiss, rows_u / 5);
                    self.board.bump_n(OpCategory::Load, rows_u - rows_u / 5);
                } else {
                    // Fits in L1: one miss per line on first touch.
                    self.board.bump_n(OpCategory::CacheMiss, rows_u / 8);
                    self.board.bump_n(OpCategory::Load, rows_u - rows_u / 8);
                }
            }
            Layout::RowMajor => {
                let per_line = (64 / 8) as u64;
                self.board.bump_n(OpCategory::CacheMiss, rows_u / per_line);
                self.board
                    .bump_n(OpCategory::Load, rows_u - rows_u / per_line);
            }
        }
    }

    /// Charge a sequential pass over `n` values (always cache-friendly).
    pub fn charge_sequential_scan(&self, n: usize) {
        let n = n as u64;
        self.board.bump_n(OpCategory::Load, n);
        self.board.bump_n(OpCategory::CacheMiss, n / 8);
    }

    /// Copy a slice, counted as manual per-element copy or bulk
    /// `arraycopy` depending on the profile.
    pub fn copy(&self, src: &[f64], dst: &mut Vec<f64>) {
        dst.clear();
        dst.extend_from_slice(src);
        let n = src.len() as u64;
        if self.profile.bulk_copy {
            self.board.bump_n(OpCategory::ArrayCopyBulk, n);
        } else {
            self.board.bump_n(OpCategory::ArrayCopyElem, n);
            self.board.bump_n(OpCategory::ArrayIndex, 2 * n);
        }
    }

    // --- Table I incidentals --------------------------------------------------

    /// Touch the shared progress/statistics counters `n` times — static
    /// fields in baseline WEKA, locals after the static-keyword fix.
    #[inline]
    pub fn bump_counters(&self, n: u64) {
        if self.profile.static_counters {
            self.board.bump_n(OpCategory::StaticAccess, n);
        } else {
            self.board.bump_n(OpCategory::FieldAccess, n);
        }
    }

    /// Hash a value into `buckets` (power of two). `%` under the
    /// baseline profile, bitmask after the modulus suggestion.
    #[inline]
    pub fn hash_bucket(&self, h: u64, buckets: usize) -> usize {
        debug_assert!(buckets.is_power_of_two());
        if self.profile.modulus_hash {
            self.board.bump(OpCategory::Modulus);
            (h % buckets as u64) as usize
        } else {
            self.board.bump(OpCategory::IntAlu);
            (h & (buckets as u64 - 1)) as usize
        }
    }

    /// Numeric select: ternary-style under baseline, branch after the
    /// suggestion.
    #[inline]
    pub fn select(&self, cond: bool, a: f64, b: f64) -> f64 {
        if self.profile.ternary_selects {
            self.board.bump(OpCategory::Select);
        } else {
            self.board.bump(OpCategory::Branch);
        }
        if cond {
            a
        } else {
            b
        }
    }

    /// Build a model-report string from parts — `+` concatenation in
    /// baseline WEKA's `toString`/logging, `StringBuilder` after.
    pub fn build_report(&self, parts: &[&str]) -> String {
        if self.profile.builder_strings {
            self.board.bump_n(OpCategory::SbAppend, parts.len() as u64);
            let mut out = String::new();
            for p in parts {
                out.push_str(p);
            }
            out
        } else {
            self.board
                .bump_n(OpCategory::StringConcat, parts.len() as u64);
            let mut out = String::new();
            for p in parts {
                // Concatenation semantics: each `+` builds a fresh string.
                out = format!("{out}{p}");
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jepo_rapl::CostModel;

    fn joules(k: &Kernel) -> f64 {
        // `snapshot()` flushes the local scoreboard first.
        CostModel::paper_calibrated().joules_for(&k.snapshot())
    }

    #[test]
    fn baseline_and_optimized_differ_on_every_dimension() {
        let b = EfficiencyProfile::baseline();
        let o = EfficiencyProfile::optimized();
        assert_ne!(b.precision, o.precision);
        assert_ne!(b.layout, o.layout);
        assert_ne!(b.bulk_copy, o.bulk_copy);
        assert_ne!(b.builder_strings, o.builder_strings);
        assert_ne!(b.static_counters, o.static_counters);
        assert_ne!(b.modulus_hash, o.modulus_hash);
        assert_ne!(b.ternary_selects, o.ternary_selects);
    }

    #[test]
    fn optimized_except_restores_one_dimension() {
        for dim in EfficiencyProfile::DIMENSIONS {
            let p = EfficiencyProfile::optimized_except(dim);
            assert_ne!(p, EfficiencyProfile::optimized(), "{dim} unchanged");
        }
    }

    #[test]
    #[should_panic(expected = "unknown ablation dimension")]
    fn unknown_dimension_panics() {
        EfficiencyProfile::optimized_except("wibble");
    }

    #[test]
    fn f32_quantization_loses_precision() {
        let base = Kernel::new(EfficiencyProfile::baseline());
        let opt = Kernel::new(EfficiencyProfile::optimized());
        let x = 0.1f64 + 1e-12;
        assert_eq!(base.quantize(x), x);
        assert_ne!(opt.quantize(x), x);
    }

    #[test]
    fn dot_product_value_is_correct() {
        let k = Kernel::silent();
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        assert!((k.dot(&a, &b) - 32.0).abs() < 1e-6);
        assert!((k.squared_distance(&a, &b) - 27.0).abs() < 1e-6);
    }

    #[test]
    fn baseline_scan_costs_more_energy_for_big_matrices() {
        let base = Kernel::new(EfficiencyProfile::baseline());
        let opt = Kernel::new(EfficiencyProfile::optimized());
        // 10,000 rows × 64 bytes ≫ L1. The prefetcher-aware model still
        // leaves the strided baseline measurably more expensive.
        base.charge_attribute_scan(10_000, 64);
        opt.charge_attribute_scan(10_000, 64);
        assert!(
            joules(&base) > joules(&opt) * 1.15,
            "{} vs {}",
            joules(&base),
            joules(&opt)
        );
    }

    #[test]
    fn small_matrix_scans_are_cheap_either_way() {
        let base = Kernel::new(EfficiencyProfile::baseline());
        let opt = Kernel::new(EfficiencyProfile::optimized());
        base.charge_attribute_scan(100, 64);
        opt.charge_attribute_scan(100, 64);
        assert!(joules(&base) < joules(&opt) * 3.0);
    }

    #[test]
    fn copy_strategy_changes_cost_not_result() {
        let base = Kernel::new(EfficiencyProfile::baseline());
        let opt = Kernel::new(EfficiencyProfile::optimized());
        let src = vec![1.0; 1000];
        let mut d1 = Vec::new();
        let mut d2 = Vec::new();
        base.copy(&src, &mut d1);
        opt.copy(&src, &mut d2);
        assert_eq!(d1, d2);
        assert!(joules(&base) > joules(&opt) * 5.0);
    }

    #[test]
    fn static_counters_dominate_baseline_costs() {
        let base = Kernel::new(EfficiencyProfile::baseline());
        let opt = Kernel::new(EfficiencyProfile::optimized());
        base.bump_counters(1000);
        opt.bump_counters(1000);
        assert!(joules(&base) > joules(&opt) * 100.0);
    }

    #[test]
    fn hash_and_select_work_identically() {
        let base = Kernel::new(EfficiencyProfile::baseline());
        let opt = Kernel::new(EfficiencyProfile::optimized());
        for h in [0u64, 7, 63, 64, 1000] {
            assert_eq!(base.hash_bucket(h, 64), opt.hash_bucket(h, 64));
        }
        assert_eq!(base.select(true, 1.0, 2.0), 1.0);
        assert_eq!(opt.select(false, 1.0, 2.0), 2.0);
    }

    #[test]
    fn report_building_matches_but_costs_differ() {
        let base = Kernel::new(EfficiencyProfile::baseline());
        let opt = Kernel::new(EfficiencyProfile::optimized());
        let parts = ["J48 ", "pruned tree", ": 42 leaves"];
        assert_eq!(base.build_report(&parts), opt.build_report(&parts));
        assert!(joules(&base) > joules(&opt) * 2.0);
    }

    #[test]
    fn kernel_is_shareable_across_threads() {
        // Clones move into workers; each drop-flushes its scoreboard
        // into its own stripe, so the shared counter sees every op.
        let k = Kernel::new(EfficiencyProfile::optimized());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let k = k.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        k.add(1.0, 2.0);
                    }
                });
            }
        });
        let snap = k.counter().snapshot();
        assert_eq!(snap.get(OpCategory::FloatAlu), 4000);
    }

    #[test]
    fn dropping_an_unflushed_kernel_never_loses_counts() {
        let k = Kernel::new(EfficiencyProfile::baseline());
        let counter = k.counter();
        let clone = k.clone();
        clone.add(1.0, 2.0);
        clone.mul(2.0, 3.0);
        k.bump_counters(5);
        // Nothing flushed yet: the shared counter is still empty.
        assert_eq!(counter.snapshot().total_ops(), 0);
        drop(clone);
        assert_eq!(counter.snapshot().get(OpCategory::DoubleAlu), 1);
        assert_eq!(counter.snapshot().get(OpCategory::DoubleMul), 1);
        drop(k);
        assert_eq!(counter.snapshot().get(OpCategory::StaticAccess), 5);
    }

    #[test]
    fn snapshot_flushes_the_local_scoreboard() {
        let k = Kernel::new(EfficiencyProfile::baseline());
        k.add(1.0, 2.0);
        k.charge(OpCategory::Call, 3);
        // Direct counter read misses unflushed scoreboard work…
        assert_eq!(k.counter().snapshot().total_ops(), 0);
        // …but the kernel-level snapshot flushes first.
        let snap = k.snapshot();
        assert_eq!(snap.get(OpCategory::DoubleAlu), 1);
        assert_eq!(snap.get(OpCategory::Call), 3);
        // take_snapshot drains.
        assert_eq!(k.take_snapshot().total_ops(), 4);
        assert_eq!(k.snapshot().total_ops(), 0);
    }

    #[test]
    fn ln_and_exp_follow_the_precision_profile() {
        let base = Kernel::new(EfficiencyProfile::baseline());
        let opt = Kernel::new(EfficiencyProfile::optimized());
        base.ln(2.0);
        base.exp(1.0);
        opt.ln(2.0);
        opt.exp(1.0);
        let bs = base.snapshot();
        let os = opt.snapshot();
        assert_eq!(bs.get(OpCategory::DoubleDiv), 2);
        assert_eq!(bs.get(OpCategory::FloatDiv), 0);
        assert_eq!(os.get(OpCategory::FloatDiv), 2);
        assert_eq!(os.get(OpCategory::DoubleDiv), 0);
    }
}
