//! Opcode → energy-category mapping and the latency model.
//!
//! Energy and time are tracked separately because the paper reports them
//! separately (Table IV: package %, CPU %, execution-time %), and they do
//! not improve in lockstep — energy-disproportionate operations (static
//! access, boxed wrappers) shrink energy more than time.

use crate::opcode::{ArithOp, MathFn, NumTy, Op};
use jepo_rapl::OpCategory;

/// Per-operation latency in nanoseconds, indexed like the cost model.
///
/// Derived from the calibrated energy model by dividing by a nominal
/// dynamic power, then adjusted for the categories the paper observed to
/// be energy-heavy but not proportionally slow. The net effect matches
/// Table IV's shape: time improvements trail energy improvements by
/// 1–3 points.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    ns: Vec<f64>,
}

impl LatencyModel {
    /// Latency model paired with
    /// [`jepo_rapl::CostModel::paper_calibrated`].
    pub fn paper_calibrated() -> LatencyModel {
        let cost = jepo_rapl::CostModel::paper_calibrated();
        // Nominal dynamic power ≈ 4 W: latency_ns = energy_nJ / 4.
        let mut ns: Vec<f64> = OpCategory::ALL
            .iter()
            .map(|&c| cost.nanojoules(c) / 4.0)
            .collect();
        // Energy-disproportionate categories: consume power (high
        // switching activity / stalled-but-powered pipelines) faster
        // than wall-clock. Their latency is lower than energy/4W.
        let mut adjust = |c: OpCategory, factor: f64| {
            ns[c.index()] *= factor;
        };
        adjust(OpCategory::StaticAccess, 0.6);
        adjust(OpCategory::Box, 0.8);
        adjust(OpCategory::WrapperSurcharge, 0.7);
        adjust(OpCategory::StringConcat, 0.85);
        adjust(OpCategory::ExceptionThrow, 0.9);
        LatencyModel { ns }
    }

    /// Uniform latency (ablation).
    pub fn uniform(ns_per_op: f64) -> LatencyModel {
        LatencyModel {
            ns: vec![ns_per_op; OpCategory::COUNT],
        }
    }

    /// Nanoseconds for one op of `cat`.
    #[inline]
    pub fn nanos(&self, cat: OpCategory) -> f64 {
        self.ns[cat.index()]
    }

    /// Seconds for a counter snapshot.
    pub fn seconds_for(&self, snap: &jepo_rapl::activity::OpSnapshot) -> f64 {
        snap.nonzero()
            .map(|(c, n)| n as f64 * self.nanos(c) * 1e-9)
            .sum()
    }
}

/// Primary energy category for an executed opcode.
///
/// Some opcodes charge extra categories at runtime (cache misses, the
/// per-element cost of `ArrayCopy`); those are added by the interpreter.
/// Returns `None` for zero-cost pseudo-ops.
pub fn category_for(op: &Op) -> Option<OpCategory> {
    Some(match op {
        Op::Const(_) => OpCategory::IntAlu, // materialize constant
        Op::ConstDecimal { scientific, .. } => {
            if *scientific {
                OpCategory::ConstScientific
            } else {
                OpCategory::ConstDecimal
            }
        }
        Op::ConstStr(_) => OpCategory::Load,
        Op::LoadLocal(_) => OpCategory::Load,
        Op::StoreLocal(_) => OpCategory::Store,
        Op::GetField(_) | Op::PutField(_) => OpCategory::FieldAccess,
        Op::GetStatic(_) | Op::PutStatic(_) => OpCategory::StaticAccess,
        Op::Arith(op, ty) => arith_category(*op, *ty),
        Op::Cmp(_, ty) => {
            if ty.is_integral() {
                OpCategory::IntAlu
            } else if *ty == NumTy::I64 {
                OpCategory::LongAlu
            } else if *ty == NumTy::F32 {
                OpCategory::FloatAlu
            } else {
                OpCategory::DoubleAlu
            }
        }
        Op::RefCmp(_) => OpCategory::IntAlu,
        Op::Neg(ty) | Op::BitNot(ty) => {
            if ty.is_integral() {
                OpCategory::IntAlu
            } else if *ty == NumTy::I64 {
                OpCategory::LongAlu
            } else if *ty == NumTy::F32 {
                OpCategory::FloatAlu
            } else {
                OpCategory::DoubleAlu
            }
        }
        Op::Not => OpCategory::IntAlu,
        Op::Convert { to, .. } => {
            if matches!(to, NumTy::I8 | NumTy::I16 | NumTy::Ch) {
                OpCategory::NarrowAlu
            } else {
                OpCategory::IntAlu
            }
        }
        Op::Jump(_) | Op::JumpIfFalse(_) | Op::JumpIfTrue(_) => OpCategory::Branch,
        Op::TernaryJoin => OpCategory::Select,
        Op::Call { .. } | Op::CallVirtual { .. } => OpCategory::Call,
        Op::Return | Op::ReturnVoid => OpCategory::Return,
        Op::NewObject(_) => OpCategory::Alloc,
        Op::NewArray { .. } => OpCategory::Alloc,
        Op::ArrLoad(_) => OpCategory::ArrayIndex, // + Load + maybe CacheMiss
        Op::ArrStore(_) => OpCategory::ArrayIndex,
        Op::ArrLen => OpCategory::Load,
        Op::ArrayCopy => OpCategory::Call, // + per-element ArrayCopyBulk
        Op::StrConcat => OpCategory::StringConcat,
        Op::SbNew => OpCategory::Alloc,
        Op::SbAppend => OpCategory::SbAppend,
        Op::SbToString => OpCategory::Alloc,
        Op::StrEquals => OpCategory::StringEquals,
        Op::StrCompareTo => OpCategory::StringCompareTo,
        Op::StrLength | Op::StrCharAt => OpCategory::Load,
        Op::Box(_) => OpCategory::Box, // + WrapperSurcharge for non-Integer
        Op::Unbox => OpCategory::Unbox,
        Op::Throw => OpCategory::ExceptionThrow,
        Op::TryEnter { .. } => OpCategory::TryEnter,
        Op::TryExit => OpCategory::TryEnter,
        Op::Dup | Op::Pop | Op::Swap => OpCategory::IntAlu,
        Op::Print { .. } => OpCategory::Call,
        Op::Math(f) => math_category(*f),
        Op::TimeMillis => OpCategory::Call,
        Op::InstanceOfChk(_) => OpCategory::IntAlu,
        Op::ProfileEnter(_) | Op::ProfileExit(_) => return None,
        Op::Nop => return None,
    })
}

/// Precomputed pc-indexed category table for a method body.
///
/// The interpreter charges each executed instruction by indexing this
/// table instead of re-running the [`category_for`] match on every
/// dispatch — the table is built once per method when an interpreter is
/// constructed, amortizing the categorization over the whole run (the
/// scoreboard analogue of batching counter *reads*; cf. the per-op
/// accounting rework in `jepo-ml`).
pub fn category_table(code: &[Op]) -> Box<[Option<OpCategory>]> {
    code.iter().map(category_for).collect()
}

fn arith_category(op: ArithOp, ty: NumTy) -> OpCategory {
    match (op, ty) {
        (ArithOp::Rem, _) => OpCategory::Modulus,
        (ArithOp::Div, t) if t.is_integral() || t == NumTy::I64 => OpCategory::IntDiv,
        (ArithOp::Div, NumTy::F32) => OpCategory::FloatDiv,
        (ArithOp::Div, _) => OpCategory::DoubleDiv,
        (ArithOp::Mul, NumTy::F32) => OpCategory::FloatMul,
        (ArithOp::Mul, NumTy::F64) => OpCategory::DoubleMul,
        (ArithOp::Mul, _) => OpCategory::IntMul,
        (_, NumTy::I8 | NumTy::I16 | NumTy::Ch) => OpCategory::NarrowAlu,
        (_, NumTy::I64) => OpCategory::LongAlu,
        (_, NumTy::F32) => OpCategory::FloatAlu,
        (_, NumTy::F64) => OpCategory::DoubleAlu,
        _ => OpCategory::IntAlu,
    }
}

fn math_category(f: MathFn) -> OpCategory {
    match f {
        MathFn::Sqrt | MathFn::Log | MathFn::Exp | MathFn::Pow => OpCategory::DoubleDiv,
        MathFn::Abs | MathFn::Min | MathFn::Max | MathFn::Floor | MathFn::Ceil => {
            OpCategory::DoubleAlu
        }
    }
}

/// Extra per-element cost when the array element access crosses into
/// memory modelled by the cache: hit adds a [`OpCategory::Load`], miss
/// adds [`OpCategory::CacheMiss`].
pub fn array_access_extra(hit: bool) -> OpCategory {
    if hit {
        OpCategory::Load
    } else {
        OpCategory::CacheMiss
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modulus_maps_to_its_own_category_for_every_type() {
        for ty in [NumTy::I32, NumTy::I64, NumTy::F64] {
            assert_eq!(
                category_for(&Op::Arith(ArithOp::Rem, ty)),
                Some(OpCategory::Modulus)
            );
        }
    }

    #[test]
    fn static_vs_field_access_categories() {
        assert_eq!(
            category_for(&Op::GetStatic(0)),
            Some(OpCategory::StaticAccess)
        );
        assert_eq!(
            category_for(&Op::GetField(0)),
            Some(OpCategory::FieldAccess)
        );
    }

    #[test]
    fn scientific_constants_are_cheaper_category() {
        let sci = category_for(&Op::ConstDecimal {
            value: 1e3,
            float32: false,
            scientific: true,
        });
        let plain = category_for(&Op::ConstDecimal {
            value: 1000.0,
            float32: false,
            scientific: false,
        });
        assert_eq!(sci, Some(OpCategory::ConstScientific));
        assert_eq!(plain, Some(OpCategory::ConstDecimal));
    }

    #[test]
    fn category_table_matches_per_op_categorization() {
        let code = vec![
            Op::Const(crate::value::Value::Int(1)),
            Op::Nop,
            Op::Arith(ArithOp::Rem, NumTy::I32),
            Op::ProfileEnter(0),
            Op::GetStatic(0),
        ];
        let table = category_table(&code);
        assert_eq!(table.len(), code.len());
        for (op, &cached) in code.iter().zip(table.iter()) {
            assert_eq!(cached, category_for(op));
        }
        assert_eq!(table[2], Some(OpCategory::Modulus));
        assert_eq!(table[1], None);
    }

    #[test]
    fn profiling_ops_are_free() {
        assert_eq!(category_for(&Op::ProfileEnter(0)), None);
        assert_eq!(category_for(&Op::ProfileExit(0)), None);
        assert_eq!(category_for(&Op::Nop), None);
    }

    #[test]
    fn every_real_op_has_a_category() {
        use crate::opcode::ArrayElem;
        use crate::value::Value;
        let ops = vec![
            Op::Const(Value::Int(1)),
            Op::ConstStr("x".into()),
            Op::LoadLocal(0),
            Op::StoreLocal(0),
            Op::Arith(ArithOp::Add, NumTy::I32),
            Op::Cmp(crate::opcode::CmpOp::Lt, NumTy::F64),
            Op::Jump(0),
            Op::TernaryJoin,
            Op::Call { method: 0, argc: 0 },
            Op::Return,
            Op::NewObject(0),
            Op::NewArray {
                elem: ArrayElem::Num(NumTy::I32),
                dims: 1,
            },
            Op::ArrLoad(ArrayElem::Num(NumTy::F64)),
            Op::ArrayCopy,
            Op::StrConcat,
            Op::SbAppend,
            Op::StrEquals,
            Op::StrCompareTo,
            Op::Box("Integer"),
            Op::Unbox,
            Op::Throw,
            Op::TryEnter {
                handler: 0,
                class: "*".into(),
            },
            Op::Math(MathFn::Sqrt),
            Op::Print {
                newline: true,
                has_arg: true,
            },
        ];
        for op in ops {
            assert!(category_for(&op).is_some(), "{op:?} has no category");
        }
    }

    #[test]
    fn latency_model_trails_energy_for_static_access() {
        let cost = jepo_rapl::CostModel::paper_calibrated();
        let lat = LatencyModel::paper_calibrated();
        // energy ratio static/field = 178; latency ratio must be smaller.
        let e_ratio =
            cost.nanojoules(OpCategory::StaticAccess) / cost.nanojoules(OpCategory::FieldAccess);
        let t_ratio = lat.nanos(OpCategory::StaticAccess) / lat.nanos(OpCategory::FieldAccess);
        assert!(t_ratio < e_ratio);
        assert!(t_ratio > 1.0, "static access is still slower");
    }

    #[test]
    fn seconds_for_sums_latencies() {
        let lat = LatencyModel::uniform(10.0); // 10 ns/op
        let ctr = jepo_rapl::OpCounter::new();
        ctr.add(OpCategory::IntAlu, 1_000_000);
        let s = lat.seconds_for(&ctr.snapshot());
        assert!((s - 0.01).abs() < 1e-12);
    }

    #[test]
    fn narrow_types_cost_more_than_int() {
        // byte/short arithmetic lands in NarrowAlu which is pricier.
        assert_eq!(
            category_for(&Op::Arith(ArithOp::Add, NumTy::I8)),
            Some(OpCategory::NarrowAlu)
        );
        assert_eq!(
            category_for(&Op::Arith(ArithOp::Add, NumTy::I32)),
            Some(OpCategory::IntAlu)
        );
    }
}
