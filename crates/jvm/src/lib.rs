//! # jepo-jvm — bytecode VM with energy accounting
//!
//! JEPO's profiler measures energy *per Java method* by injecting
//! RAPL-reading probes "at the start and end of each method" into
//! bytecode (via Javassist). Reproducing that requires an execution
//! substrate in which (a) Java-subset programs actually run, (b) every
//! executed operation has an energy cost, and (c) bytecode can be
//! instrumented after compilation. This crate is that substrate:
//!
//! * [`opcode`] — a stack-machine instruction set shaped like JVM
//!   bytecode (typed arithmetic, locals, fields, statics, arrays, string
//!   operations, exceptions, calls), plus the two profiling pseudo-ops
//!   the instrumentation pass injects.
//! * [`compiler`] — compiles [`jepo_jlang`] ASTs to bytecode with a small
//!   type checker (numeric promotion, `String +` detection, overload
//!   resolution by arity).
//! * [`interp`] — the interpreter: frames, operand stack, heap with a
//!   set-associative L1 cache model (column-major 2-D traversal misses,
//!   row-major hits — the mechanism behind Table I's 793%), exception
//!   unwinding, and per-opcode energy/latency accounting through
//!   [`jepo_rapl::OpCategory`].
//! * [`instrument`] — the Javassist analogue: a post-compilation pass
//!   inserting `ProfileEnter`/`ProfileExit` around every method body,
//!   including before every `return` and around thrown exceptions.
//! * [`energy`] — maps opcodes to cost categories and defines the
//!   latency model that turns operation counts into virtual execution
//!   time (so "Execution Time Improvement" in Table IV is measurable).
//!
//! ```
//! use jepo_jvm::Vm;
//!
//! let src = "class Main {
//!     public static void main(String[] args) {
//!         int s = 0;
//!         for (int i = 0; i < 100; i++) { s += i; }
//!         System.out.println(s);
//!     }
//! }";
//! let mut vm = Vm::from_source(src).unwrap();
//! let run = vm.run_main().unwrap();
//! assert_eq!(run.stdout.trim(), "4950");
//! assert!(run.energy.package_j > 0.0);
//! ```

pub mod class;
pub mod compiler;
pub mod decode;
pub mod energy;
pub mod error;
pub mod heap;
pub mod instrument;
pub mod interp;
pub mod ir;
pub mod opcode;
pub mod sampling;
pub mod value;
pub mod vm;

pub use class::{ClassId, MethodId, Program};
pub use compiler::compile_project;
pub use decode::{decode, DecodedProgram};
pub use energy::LatencyModel;
pub use error::VmError;
pub use instrument::instrument_all;
pub use interp::{Interp, RunOutcome};
pub use opcode::{NumTy, Op};
pub use sampling::{Sample, SampleSet, SampledMethodRecord, SamplingConfig};
pub use value::Value;
pub use vm::{Dispatch, MethodEnergyRecord, Vm};
