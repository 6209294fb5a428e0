//! Activity-based energy accounting: operation categories, cost models,
//! and lock-free operation counters.
//!
//! Real RAPL integrates the power drawn by the instructions a program
//! executes. The simulator gets the same signal explicitly: instrumented
//! code (the bytecode VM, or the ML layer's numeric kernels) counts
//! operations by category into an [`OpCounter`], and a [`CostModel`]
//! converts counts into joules which are flushed to the simulated device.
//!
//! The default cost model is **calibrated against Table I of the paper**:
//! the per-category ratios reproduce the paper's reported worst-case
//! component ratios (e.g. modulus ≈ 17× a plain ALU op, static variable
//! access ≈ 178× an instance field access, string `+` ≈ 9× a
//! `StringBuilder.append`). Absolute values are nanojoule-scale figures
//! plausible for an interpreted JVM on a laptop-class core; the paper only
//! reports ratios, so only ratios matter.

use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Categories of work instrumented code may report.
///
/// One counter slot exists per category; categories deliberately mirror
/// the Java components of Table I so the microbenchmarks of
/// `bench --bin table1` can exercise them one at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(usize)]
pub enum OpCategory {
    /// 32-bit integer add/sub/bitwise/compare.
    IntAlu,
    /// 64-bit integer add/sub/bitwise/compare.
    LongAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide.
    IntDiv,
    /// Integer remainder (`%`) — the paper's most expensive operator.
    Modulus,
    /// 32-bit float add/sub.
    FloatAlu,
    /// 64-bit float add/sub.
    DoubleAlu,
    /// 32-bit float multiply.
    FloatMul,
    /// 64-bit float multiply.
    DoubleMul,
    /// 32-bit float divide.
    FloatDiv,
    /// 64-bit float divide.
    DoubleDiv,
    /// Narrow-type (byte/short/char) ALU op — costs more than `int` on a
    /// JVM because of mandatory widening/narrowing, per Table I's
    /// "int is the most energy-efficient primitive".
    NarrowAlu,
    /// Load from memory that hits cache.
    Load,
    /// Store to memory.
    Store,
    /// A cache miss (modelled by the VM's cache simulator; column-major
    /// traversal of a 2-D array generates many of these — Table I's 793%).
    CacheMiss,
    /// Conditional branch, predicted.
    Branch,
    /// Ternary/conditional-move style select — costlier than a plain
    /// branch in the paper's measurements (+37%).
    Select,
    /// Method invocation.
    Call,
    /// Method return.
    Return,
    /// Object allocation.
    Alloc,
    /// Boxing a primitive into a wrapper object.
    Box,
    /// Unboxing a wrapper.
    Unbox,
    /// Non-`Integer` wrapper overhead surcharge (Table I: Integer is the
    /// most efficient wrapper).
    WrapperSurcharge,
    /// Instance field read/write.
    FieldAccess,
    /// `static` field read/write — the paper's 17,700% outlier.
    StaticAccess,
    /// Array element access bounds-check + address computation.
    ArrayIndex,
    /// Manual element-by-element array copy (per element).
    ArrayCopyElem,
    /// Bulk `System.arraycopy` (per element).
    ArrayCopyBulk,
    /// `String` `+` concatenation (per operation).
    StringConcat,
    /// `StringBuilder.append` (per operation).
    SbAppend,
    /// `String.equals` (per call).
    StringEquals,
    /// `String.compareTo` (per call) — 33% over `equals`.
    StringCompareTo,
    /// Loading a plain decimal literal constant.
    ConstDecimal,
    /// Loading a scientific-notation decimal literal constant — cheaper
    /// per Table I ("scientific notation results in lower energy").
    ConstScientific,
    /// Constructing + throwing an exception.
    ExceptionThrow,
    /// Entering a `try` region (cheap).
    TryEnter,
}

impl OpCategory {
    /// Every category, in discriminant order.
    pub const ALL: [OpCategory; 36] = [
        OpCategory::IntAlu,
        OpCategory::LongAlu,
        OpCategory::IntMul,
        OpCategory::IntDiv,
        OpCategory::Modulus,
        OpCategory::FloatAlu,
        OpCategory::DoubleAlu,
        OpCategory::FloatMul,
        OpCategory::DoubleMul,
        OpCategory::FloatDiv,
        OpCategory::DoubleDiv,
        OpCategory::NarrowAlu,
        OpCategory::Load,
        OpCategory::Store,
        OpCategory::CacheMiss,
        OpCategory::Branch,
        OpCategory::Select,
        OpCategory::Call,
        OpCategory::Return,
        OpCategory::Alloc,
        OpCategory::Box,
        OpCategory::Unbox,
        OpCategory::WrapperSurcharge,
        OpCategory::FieldAccess,
        OpCategory::StaticAccess,
        OpCategory::ArrayIndex,
        OpCategory::ArrayCopyElem,
        OpCategory::ArrayCopyBulk,
        OpCategory::StringConcat,
        OpCategory::SbAppend,
        OpCategory::StringEquals,
        OpCategory::StringCompareTo,
        OpCategory::ConstDecimal,
        OpCategory::ConstScientific,
        OpCategory::ExceptionThrow,
        OpCategory::TryEnter,
    ];

    /// Number of categories (size of counter arrays).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable index of this category.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Joules-per-operation table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostModel {
    /// Nanojoules per operation, indexed by [`OpCategory::index`].
    nanojoules: Vec<f64>,
}

impl CostModel {
    /// The paper-calibrated model (see module docs for provenance).
    pub fn paper_calibrated() -> CostModel {
        let mut nj = vec![0.0; OpCategory::COUNT];
        let mut set = |c: OpCategory, v: f64| nj[c.index()] = v;
        set(OpCategory::IntAlu, 1.0);
        set(OpCategory::LongAlu, 1.7);
        set(OpCategory::IntMul, 3.0);
        set(OpCategory::IntDiv, 14.0);
        // "Modulus consumes up to 1,620% more energy than other
        // arithmetic operators" → 17.2× the IntAlu baseline.
        set(OpCategory::Modulus, 17.2);
        set(OpCategory::FloatAlu, 1.8);
        set(OpCategory::DoubleAlu, 2.2);
        set(OpCategory::FloatMul, 3.0);
        set(OpCategory::DoubleMul, 3.6);
        set(OpCategory::FloatDiv, 16.0);
        set(OpCategory::DoubleDiv, 20.0);
        set(OpCategory::NarrowAlu, 1.55);
        set(OpCategory::Load, 1.2);
        set(OpCategory::Store, 1.5);
        // DRAM access energy dwarfs an ALU op; this drives the 793%
        // column-traversal penalty through the VM's cache model.
        set(OpCategory::CacheMiss, 62.0);
        set(OpCategory::Branch, 0.8);
        // "Ternary operator consumes up to 37% more energy than
        // if-then-else statement": calibrated so a whole ternary
        // assignment (load + compare + branch + const + join + store)
        // costs ≈ 1.37× the equivalent if-then-else statement.
        set(OpCategory::Select, 1.9);
        set(OpCategory::Call, 6.0);
        set(OpCategory::Return, 3.0);
        set(OpCategory::Alloc, 42.0);
        set(OpCategory::Box, 26.0);
        set(OpCategory::Unbox, 7.0);
        set(OpCategory::WrapperSurcharge, 9.0);
        set(OpCategory::FieldAccess, 1.4);
        // "static keyword consumes up to 17,700% more energy" → 178×
        // an instance field access.
        set(OpCategory::StaticAccess, 1.4 * 178.0);
        set(OpCategory::ArrayIndex, 1.1);
        set(OpCategory::ArrayCopyElem, 2.6);
        set(OpCategory::ArrayCopyBulk, 0.35);
        set(OpCategory::StringConcat, 230.0);
        set(OpCategory::SbAppend, 26.0);
        set(OpCategory::StringEquals, 12.0);
        // "compareTo consumes up to 33% more energy than equals".
        set(OpCategory::StringCompareTo, 16.0);
        set(OpCategory::ConstDecimal, 1.9);
        set(OpCategory::ConstScientific, 1.3);
        set(OpCategory::ExceptionThrow, 640.0);
        set(OpCategory::TryEnter, 0.2);
        CostModel { nanojoules: nj }
    }

    /// A uniform model (every op costs `nj` nanojoules) — useful as an
    /// ablation baseline showing how much of Table IV's improvement
    /// depends on cost heterogeneity.
    pub fn uniform(nj: f64) -> CostModel {
        CostModel {
            nanojoules: vec![nj; OpCategory::COUNT],
        }
    }

    /// Nanojoules for one operation of `cat`.
    #[inline]
    pub fn nanojoules(&self, cat: OpCategory) -> f64 {
        self.nanojoules[cat.index()]
    }

    /// Joules for a full counter snapshot.
    pub fn joules_for(&self, counts: &OpSnapshot) -> f64 {
        OpCategory::ALL
            .iter()
            .map(|&c| counts.get(c) as f64 * self.nanojoules(c) * 1e-9)
            .sum()
    }
}

/// A point-in-time copy of an [`OpCounter`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpSnapshot {
    counts: Vec<u64>,
}

impl OpSnapshot {
    /// Count for one category.
    pub fn get(&self, cat: OpCategory) -> u64 {
        self.counts.get(cat.index()).copied().unwrap_or(0)
    }

    /// Total operations across all categories.
    pub fn total_ops(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Add another snapshot's counts into this one (worker-counter
    /// merging: addition commutes, so any merge order yields the same
    /// totals as one shared counter would).
    pub fn merge(&mut self, other: &OpSnapshot) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Iterate non-zero categories.
    pub fn nonzero(&self) -> impl Iterator<Item = (OpCategory, u64)> + '_ {
        OpCategory::ALL
            .iter()
            .map(|&c| (c, self.get(c)))
            .filter(|&(_, n)| n > 0)
    }
}

/// A thread-local (non-atomic) operation scoreboard.
///
/// The batching half of the two-tier accounting scheme: hot paths bump a
/// plain [`Cell`] slot (one machine add, no RMW, no cache-line
/// ping-pong) and the accumulated block of counts is flushed in bulk
/// into a shared [`OpCounter`] stripe at coarse-grained points (drop,
/// explicit flush, snapshot). `Cell` makes the type `!Sync`, which is
/// exactly the contract: a scoreboard belongs to one thread; the striped
/// counter is the cross-thread rendezvous.
#[derive(Debug)]
pub struct Scoreboard {
    counts: [Cell<u64>; OpCategory::COUNT],
}

impl Default for Scoreboard {
    fn default() -> Self {
        Scoreboard::new()
    }
}

impl Scoreboard {
    /// New zeroed scoreboard.
    pub fn new() -> Scoreboard {
        Scoreboard {
            counts: std::array::from_fn(|_| Cell::new(0)),
        }
    }

    /// Record one operation of `cat`.
    #[inline]
    pub fn bump(&self, cat: OpCategory) {
        self.bump_n(cat, 1);
    }

    /// Record `n` operations of `cat`.
    #[inline]
    pub fn bump_n(&self, cat: OpCategory, n: u64) {
        let c = &self.counts[cat.index()];
        c.set(c.get().wrapping_add(n));
    }

    /// Current count for one category.
    #[inline]
    pub fn get(&self, cat: OpCategory) -> u64 {
        self.counts[cat.index()].get()
    }

    /// Non-destructive copy of all counts.
    pub fn counts(&self) -> [u64; OpCategory::COUNT] {
        std::array::from_fn(|i| self.counts[i].get())
    }

    /// Copy all counts out and reset the scoreboard to zero.
    pub fn drain(&self) -> [u64; OpCategory::COUNT] {
        std::array::from_fn(|i| self.counts[i].replace(0))
    }

    /// Total operations currently recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(Cell::get).sum()
    }
}

/// One cache-line-aligned lane of a striped [`OpCounter`].
///
/// The alignment guarantees two workers flushing to *different* stripes
/// never write the same cache line, eliminating the false sharing that
/// made the original single-array counter a parallel scaling wall.
#[derive(Debug)]
#[repr(align(64))]
struct Stripe {
    counts: [AtomicU64; OpCategory::COUNT],
}

impl Stripe {
    fn zeroed() -> Stripe {
        Stripe {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A lock-free, shareable operation counter, striped per worker slot.
///
/// Counting uses relaxed atomics: counts from concurrent workers may
/// interleave arbitrarily but never get lost, which is all energy
/// accounting needs (c.f. *Rust Atomics and Locks*, ch. 2 — statistics
/// counters are the canonical relaxed-ordering use case).
///
/// Internally the counter is an array of cache-line-aligned stripes.
/// Each producer (a [`Scoreboard`] owner) takes a stripe slot via
/// [`OpCounter::assign_slot`] and flushes whole count blocks with
/// [`OpCounter::add_slab`]; [`OpCounter::snapshot`] sums the stripes.
/// Because every path is a sum of `u64` increments, the totals are
/// *exact* — identical for any stripe count, slot assignment, or flush
/// interleaving — which is what keeps parallel Table IV output
/// bit-identical to sequential.
#[derive(Debug)]
pub struct OpCounter {
    stripes: Box<[Stripe]>,
    next_slot: AtomicUsize,
}

impl Default for OpCounter {
    fn default() -> Self {
        OpCounter::new()
    }
}

impl OpCounter {
    /// New zeroed counter with one stripe per available core (rounded up
    /// to a power of two, capped at 16).
    pub fn new() -> OpCounter {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        OpCounter::striped(cores.min(16))
    }

    /// New zeroed counter with at least `slots` stripes (rounded up to a
    /// power of two so slot assignment is a mask).
    pub fn striped(slots: usize) -> OpCounter {
        let n = slots.max(1).next_power_of_two();
        OpCounter {
            stripes: (0..n).map(|_| Stripe::zeroed()).collect(),
            next_slot: AtomicUsize::new(0),
        }
    }

    /// Number of stripes.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// Claim a stripe slot for a new producer (round-robin). One atomic
    /// RMW per *producer lifetime*, not per operation.
    pub fn assign_slot(&self) -> usize {
        self.next_slot.fetch_add(1, Ordering::Relaxed) & (self.stripes.len() - 1)
    }

    /// Record `n` operations of `cat` (unbatched compatibility path:
    /// one atomic RMW on stripe 0 — prefer a [`Scoreboard`] +
    /// [`OpCounter::add_slab`] in hot loops).
    #[inline]
    pub fn add(&self, cat: OpCategory, n: u64) {
        self.stripes[0].counts[cat.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Record a single operation of `cat`.
    #[inline]
    pub fn incr(&self, cat: OpCategory) {
        self.add(cat, 1);
    }

    /// Bulk-add a drained scoreboard block into stripe `slot`. Zero
    /// entries are skipped, so a flush costs at most one relaxed RMW per
    /// *touched category*, amortized over the whole batch.
    pub fn add_slab(&self, slot: usize, counts: &[u64; OpCategory::COUNT]) {
        let stripe = &self.stripes[slot & (self.stripes.len() - 1)];
        for (i, &n) in counts.iter().enumerate() {
            if n > 0 {
                stripe.counts[i].fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Snapshot current counts (sum over stripes).
    pub fn snapshot(&self) -> OpSnapshot {
        let mut counts = vec![0u64; OpCategory::COUNT];
        for stripe in self.stripes.iter() {
            for (a, c) in counts.iter_mut().zip(&stripe.counts) {
                *a += c.load(Ordering::Relaxed);
            }
        }
        OpSnapshot { counts }
    }

    /// Reset all counts to zero, returning the pre-reset snapshot.
    pub fn take(&self) -> OpSnapshot {
        let mut counts = vec![0u64; OpCategory::COUNT];
        for stripe in self.stripes.iter() {
            for (a, c) in counts.iter_mut().zip(&stripe.counts) {
                *a += c.swap(0, Ordering::Relaxed);
            }
        }
        OpSnapshot { counts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn all_categories_have_unique_indices() {
        let mut seen = std::collections::HashSet::new();
        for c in OpCategory::ALL {
            assert!(seen.insert(c.index()), "duplicate index for {c:?}");
            assert!(c.index() < OpCategory::COUNT);
        }
        assert_eq!(seen.len(), OpCategory::COUNT);
    }

    #[test]
    fn paper_model_reproduces_table1_ratios() {
        let m = CostModel::paper_calibrated();
        let r = |a: OpCategory, b: OpCategory| m.nanojoules(a) / m.nanojoules(b);
        // Modulus vs other arithmetic: up to 1,620% more → 17.2×.
        assert!((r(OpCategory::Modulus, OpCategory::IntAlu) - 17.2).abs() < 0.01);
        // static vs instance field: up to 17,700% more → 178×.
        assert!((r(OpCategory::StaticAccess, OpCategory::FieldAccess) - 178.0).abs() < 0.5);
        // compareTo vs equals: up to 33% more.
        assert!((r(OpCategory::StringCompareTo, OpCategory::StringEquals) - 1.333).abs() < 0.01);
        // String + vs StringBuilder.append: much lower for append.
        assert!(r(OpCategory::StringConcat, OpCategory::SbAppend) > 5.0);
        // arraycopy beats a manual loop per element.
        assert!(r(OpCategory::ArrayCopyElem, OpCategory::ArrayCopyBulk) > 5.0);
        // Scientific-notation constants are cheaper.
        assert!(m.nanojoules(OpCategory::ConstScientific) < m.nanojoules(OpCategory::ConstDecimal));
        // int is the cheapest primitive ALU.
        for c in [
            OpCategory::LongAlu,
            OpCategory::FloatAlu,
            OpCategory::DoubleAlu,
            OpCategory::NarrowAlu,
        ] {
            assert!(m.nanojoules(c) > m.nanojoules(OpCategory::IntAlu), "{c:?}");
        }
    }

    #[test]
    fn joules_for_sums_categories() {
        let m = CostModel::uniform(2.0); // 2 nJ per op
        let ctr = OpCounter::new();
        ctr.add(OpCategory::IntAlu, 500);
        ctr.add(OpCategory::Load, 500);
        let j = m.joules_for(&ctr.snapshot());
        assert!((j - 1000.0 * 2.0e-9).abs() < 1e-15);
    }

    #[test]
    fn take_resets() {
        let ctr = OpCounter::new();
        ctr.incr(OpCategory::Call);
        let snap = ctr.take();
        assert_eq!(snap.get(OpCategory::Call), 1);
        assert_eq!(ctr.snapshot().total_ops(), 0);
    }

    #[test]
    fn concurrent_counting_is_lossless() {
        let ctr = std::sync::Arc::new(OpCounter::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let ctr = ctr.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        ctr.incr(OpCategory::IntAlu);
                    }
                });
            }
        });
        assert_eq!(ctr.snapshot().get(OpCategory::IntAlu), 80_000);
    }

    #[test]
    fn scoreboard_accumulates_and_drains() {
        let sb = Scoreboard::new();
        sb.bump(OpCategory::IntAlu);
        sb.bump_n(OpCategory::DoubleMul, 41);
        assert_eq!(sb.get(OpCategory::DoubleMul), 41);
        assert_eq!(sb.total(), 42);
        let counts = sb.drain();
        assert_eq!(counts[OpCategory::IntAlu.index()], 1);
        assert_eq!(counts[OpCategory::DoubleMul.index()], 41);
        assert_eq!(sb.total(), 0, "drain resets");
    }

    #[test]
    fn add_slab_lands_in_the_requested_stripe_and_sums_globally() {
        let ctr = OpCounter::striped(4);
        assert_eq!(ctr.stripe_count(), 4);
        let mut slab = [0u64; OpCategory::COUNT];
        slab[OpCategory::Load.index()] = 7;
        for slot in 0..ctr.stripe_count() {
            ctr.add_slab(slot, &slab);
        }
        // Out-of-range slots wrap instead of panicking.
        ctr.add_slab(ctr.stripe_count() + 1, &slab);
        assert_eq!(ctr.snapshot().get(OpCategory::Load), 7 * 5);
    }

    #[test]
    fn slot_assignment_round_robins_over_a_power_of_two() {
        let ctr = OpCounter::striped(3); // rounds up to 4
        assert_eq!(ctr.stripe_count(), 4);
        let slots: Vec<usize> = (0..8).map(|_| ctr.assign_slot()).collect();
        assert_eq!(slots, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    proptest! {
        /// The exactness contract behind the parallel Table IV runner:
        /// a striped counter's snapshot equals the arithmetic sum of
        /// every increment, no matter how many jepo-pool workers flush
        /// scoreboard slabs into it concurrently.
        #[test]
        fn striped_snapshot_is_exact_under_concurrent_pool_writers(
            per_worker in proptest::collection::vec(
                proptest::collection::vec((0usize..OpCategory::COUNT, 0u64..500), 1..12),
                1..6,
            ),
            stripes in 1usize..8,
        ) {
            let ctr = OpCounter::striped(stripes);
            // Each worker drains its adds through a thread-local
            // scoreboard into its own assigned stripe, exactly as a
            // Kernel flush does.
            jepo_pool::parallel_map(&per_worker, 0, |_, adds| {
                let slot = ctr.assign_slot();
                let sb = Scoreboard::new();
                for &(i, n) in adds {
                    sb.bump_n(OpCategory::ALL[i], n);
                }
                ctr.add_slab(slot, &sb.drain());
            });
            let mut expect = vec![0u64; OpCategory::COUNT];
            for adds in &per_worker {
                for &(i, n) in adds {
                    expect[i] += n;
                }
            }
            let snap = ctr.snapshot();
            for (i, &n) in expect.iter().enumerate() {
                prop_assert_eq!(snap.get(OpCategory::ALL[i]), n);
            }
        }
    }

    proptest! {
        #[test]
        fn joules_scale_linearly_with_counts(n in 0u64..1_000_000) {
            let m = CostModel::paper_calibrated();
            let ctr = OpCounter::new();
            ctr.add(OpCategory::DoubleMul, n);
            let j = m.joules_for(&ctr.snapshot());
            prop_assert!((j - n as f64 * 3.6e-9).abs() < 1e-12 + j * 1e-12);
        }

        #[test]
        fn snapshot_total_equals_sum_of_adds(
            adds in proptest::collection::vec((0usize..OpCategory::COUNT, 0u64..1000), 0..64)
        ) {
            let ctr = OpCounter::new();
            let mut expect = 0u64;
            for (i, n) in adds {
                ctr.add(OpCategory::ALL[i], n);
                expect += n;
            }
            prop_assert_eq!(ctr.snapshot().total_ops(), expect);
        }
    }
}
