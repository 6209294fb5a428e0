//! The Javassist analogue: post-compilation probe injection.
//!
//! §VII: "To measure the energy, it injects energy and time measurement
//! code at the start and end of each method in the project." This pass
//! rewrites each method's bytecode to
//!
//! ```text
//! ProfileEnter(m)
//! <original body, with ProfileExit(m) inserted before every return>
//! ```
//!
//! Because insertion shifts instruction indices, every jump target and
//! `TryEnter` handler pc is remapped — the same relocation work Javassist
//! performs on real JVM bytecode.

use crate::class::{MethodId, Program};
use crate::opcode::Op;

/// Instrument every method of the program (in place).
/// Returns the number of probes inserted.
pub fn instrument_all(program: &mut Program) -> usize {
    let mut probes = 0;
    for mid in 0..program.methods.len() {
        probes += instrument_method(program, mid as MethodId);
    }
    probes
}

fn instrument_method(program: &mut Program, mid: MethodId) -> usize {
    let code = &program.methods[mid as usize].code;
    if code.iter().any(|op| matches!(op, Op::ProfileEnter(_))) {
        return 0; // already instrumented — idempotent like JEPOInsert
    }
    let old = code.clone();
    // offset[i] = new index of old instruction i.
    let mut offset = Vec::with_capacity(old.len());
    let mut new_len = 1usize; // leading ProfileEnter
    for op in &old {
        offset.push(new_len as u32);
        new_len += match op {
            Op::Return | Op::ReturnVoid => 2, // ProfileExit + return
            _ => 1,
        };
    }
    let remap = |t: u32| -> u32 { offset.get(t as usize).copied().unwrap_or(new_len as u32) };
    let mut out = Vec::with_capacity(new_len);
    out.push(Op::ProfileEnter(mid));
    let mut probes = 1;
    for op in old {
        match op {
            Op::Jump(t) => out.push(Op::Jump(remap(t))),
            Op::JumpIfFalse(t) => out.push(Op::JumpIfFalse(remap(t))),
            Op::JumpIfTrue(t) => out.push(Op::JumpIfTrue(remap(t))),
            Op::TryEnter { handler, class } => out.push(Op::TryEnter {
                handler: remap(handler),
                class,
            }),
            Op::Return => {
                out.push(Op::ProfileExit(mid));
                probes += 1;
                out.push(Op::Return);
            }
            Op::ReturnVoid => {
                out.push(Op::ProfileExit(mid));
                probes += 1;
                out.push(Op::ReturnVoid);
            }
            other => out.push(other),
        }
    }
    program.methods[mid as usize].code = out;
    probes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile_source;

    fn program(src: &str) -> Program {
        compile_source(src).unwrap()
    }

    #[test]
    fn probes_wrap_every_method() {
        let mut p = program(
            "class A { static int f(int x) { if (x > 0) return 1; return 2; }
                       static void g() { } }",
        );
        let probes = instrument_all(&mut p);
        // f: 1 enter + 2 returns (+ implicit fall-off return) ; g: 1 enter + returns
        assert!(probes >= 6, "got {probes}");
        for m in &p.methods {
            assert!(matches!(m.code[0], Op::ProfileEnter(_)), "{}", m.qualified);
            // Every Return/ReturnVoid is preceded by a ProfileExit.
            for (i, op) in m.code.iter().enumerate() {
                if matches!(op, Op::Return | Op::ReturnVoid) {
                    assert!(
                        matches!(m.code[i - 1], Op::ProfileExit(_)),
                        "{} return at {i} unguarded",
                        m.qualified
                    );
                }
            }
        }
    }

    #[test]
    fn instrumentation_is_idempotent() {
        let mut p = program("class A { static void g() { } }");
        let first = instrument_all(&mut p);
        let size = p.code_size();
        let second = instrument_all(&mut p);
        assert!(first > 0);
        assert_eq!(second, 0);
        assert_eq!(p.code_size(), size);
    }

    #[test]
    fn jump_targets_survive_instrumentation() {
        // Run a loop before and after instrumentation: output must match.
        let src = "class M { public static void main(String[] a) {
            int s = 0;
            for (int i = 0; i < 10; i++) { if (i % 3 == 0) continue; s += i; }
            System.out.println(s);
        } }";
        let plain = run_stdout(src, false);
        let instrumented = run_stdout(src, true);
        assert_eq!(plain, instrumented);
        assert_eq!(plain.trim(), "27");
    }

    #[test]
    fn try_handlers_survive_instrumentation() {
        let src = "class M { public static void main(String[] a) {
            try { int[] x = new int[1]; x[5] = 0; }
            catch (Exception e) { System.out.println(\"ok\"); }
        } }";
        assert_eq!(run_stdout(src, true).trim(), "ok");
    }

    #[test]
    fn profile_events_recorded_per_execution() {
        let src = "class M {
            static int work(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }
            public static void main(String[] a) {
                work(10); work(1000); work(10);
            } }";
        let mut p = program(src);
        instrument_all(&mut p);
        let sim = std::sync::Arc::new(jepo_rapl::SimulatedRapl::new(
            jepo_rapl::DeviceProfile::laptop_i5_3317u(),
        ));
        let mut interp = crate::interp::Interp::new(&p, sim);
        interp.run_clinits().unwrap();
        interp
            .run_method(p.main.unwrap(), vec![crate::Value::Null])
            .unwrap();
        let out = interp.finish(None);
        let works: Vec<_> = out.profile.iter().filter(|e| e.name == "M.work").collect();
        assert_eq!(works.len(), 3, "one event per execution");
        // The big execution dominates.
        assert!(works[1].package_j > works[0].package_j * 10.0);
        assert!(works[1].seconds > works[0].seconds);
        // main's inclusive energy covers its callees.
        let main_ev = out.profile.iter().find(|e| e.name == "M.main").unwrap();
        assert!(main_ev.package_j >= works.iter().map(|w| w.package_j).sum::<f64>() * 0.99);
    }

    fn run_stdout(src: &str, instrument: bool) -> String {
        let mut p = program(src);
        if instrument {
            instrument_all(&mut p);
        }
        let sim = std::sync::Arc::new(jepo_rapl::SimulatedRapl::new(
            jepo_rapl::DeviceProfile::laptop_i5_3317u(),
        ));
        let mut interp = crate::interp::Interp::new(&p, sim);
        interp.run_clinits().unwrap();
        interp
            .run_method(p.main.unwrap(), vec![crate::Value::Null])
            .unwrap();
        interp.finish(None).stdout
    }
}
