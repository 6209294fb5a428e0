//! Differential tests: the pre-decoded engine **and** the register-IR
//! tier must be **bit-identical** to the legacy `Vec<Op>` engine in
//! every observable — stdout, return value, instruction count, cache
//! statistics, energy joules (compared as raw `f64` bits), and profile
//! events. The energy model is driven by op counts, so any divergence
//! here would silently corrupt every Table II–IV number; these tests
//! are the enforcement mechanism the optimized engines ship under.

/// The engines that must agree with `Dispatch::Legacy` bit-for-bit.
const OPTIMIZED: [Dispatch; 2] = [Dispatch::Decoded, Dispatch::Ir];

use jepo_jvm::interp::RunOutcome;
use jepo_jvm::{Dispatch, Vm, VmError};
use proptest::prelude::*;

fn run_with(src: &str, dispatch: Dispatch, instrument: bool) -> Result<RunOutcome, VmError> {
    let mut vm = Vm::from_source(src)
        .unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"))
        .with_dispatch(dispatch)
        .with_fuel(100_000_000);
    if instrument {
        vm.instrument();
    }
    vm.run_main()
}

fn assert_outcomes_eq(l: &RunOutcome, d: &RunOutcome, ctx: &str) {
    assert_eq!(l.stdout, d.stdout, "stdout diverged: {ctx}");
    assert_eq!(l.ret, d.ret, "return value diverged: {ctx}");
    assert_eq!(l.ops_executed, d.ops_executed, "op count diverged: {ctx}");
    assert_eq!(l.cache_hits, d.cache_hits, "cache hits diverged: {ctx}");
    assert_eq!(
        l.cache_misses, d.cache_misses,
        "cache misses diverged: {ctx}"
    );
    for (name, a, b) in [
        ("package_j", l.energy.package_j, d.energy.package_j),
        ("core_j", l.energy.core_j, d.energy.core_j),
        ("uncore_j", l.energy.uncore_j, d.energy.uncore_j),
        ("dram_j", l.energy.dram_j, d.energy.dram_j),
        ("seconds", l.energy.seconds, d.energy.seconds),
    ] {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "energy `{name}` diverged ({a} vs {b}): {ctx}"
        );
    }
    assert_eq!(
        l.profile.len(),
        d.profile.len(),
        "profile event count diverged: {ctx}"
    );
    for (i, (a, b)) in l.profile.iter().zip(&d.profile).enumerate() {
        assert_eq!(a.method, b.method, "profile[{i}].method: {ctx}");
        assert_eq!(a.name, b.name, "profile[{i}].name: {ctx}");
        assert_eq!(
            a.package_j.to_bits(),
            b.package_j.to_bits(),
            "profile[{i}].package_j: {ctx}"
        );
        assert_eq!(
            a.core_j.to_bits(),
            b.core_j.to_bits(),
            "profile[{i}].core_j: {ctx}"
        );
        assert_eq!(
            a.seconds.to_bits(),
            b.seconds.to_bits(),
            "profile[{i}].seconds: {ctx}"
        );
    }
}

/// Run `src` through all engines, plain and instrumented, and demand
/// identical outcomes (or identical errors).
fn assert_identical(src: &str) {
    for instrument in [false, true] {
        let legacy = run_with(src, Dispatch::Legacy, instrument);
        for engine in OPTIMIZED {
            let other = run_with(src, engine, instrument);
            let ctx = format!("engine={engine:?} instrument={instrument}");
            match (&legacy, &other) {
                (Ok(l), Ok(d)) => assert_outcomes_eq(l, d, &ctx),
                (Err(l), Err(d)) => {
                    assert_eq!(format!("{l:?}"), format!("{d:?}"), "errors diverged: {ctx}")
                }
                _ => panic!(
                    "engines disagree on success ({ctx}): legacy={:?} other={:?}",
                    legacy.as_ref().map(|o| &o.stdout),
                    other.as_ref().map(|o| &o.stdout)
                ),
            }
        }
    }
}

#[test]
fn arithmetic_loops_and_doubles() {
    assert_identical(
        "class M {
            public static void main(String[] a) {
                int s = 0; long l = 1; double d = 0.5;
                for (int i = 1; i < 200; i++) {
                    s += i % 7; l *= 3; l %= 1000003; d = d * 1.01 + i / 3.0;
                }
                System.out.println(s); System.out.println(l); System.out.println(d);
                System.out.println(5 / 2); System.out.println(5.0 / 2);
                System.out.println(-s); System.out.println(~s);
            }
        }",
    );
}

#[test]
fn virtual_dispatch_mono_and_polymorphic_sites() {
    // The same call site sees Base, then Derived, then Base again —
    // exercising inline-cache hit, miss, and re-fill transitions.
    assert_identical(
        "class Base {
            int f(int x) { return x + 1; }
            int g() { return 10; }
        }
        class Derived extends Base {
            int f(int x) { return x * 2; }
        }
        class M {
            public static void main(String[] a) {
                Base[] objs = new Base[6];
                for (int i = 0; i < 6; i++) {
                    if (i % 3 == 0) { objs[i] = new Derived(); } else { objs[i] = new Base(); }
                }
                int acc = 0;
                for (int r = 0; r < 50; r++) {
                    for (int i = 0; i < 6; i++) { acc += objs[i].f(i) + objs[i].g(); }
                }
                System.out.println(acc);
            }
        }",
    );
}

#[test]
fn strings_builders_and_string_switch() {
    assert_identical(
        "class M {
            public static void main(String[] a) {
                String s = \"hello\" + \" \" + \"world\" + 42 + true + 'x' + 1.5;
                System.out.println(s);
                System.out.println(s.length());
                System.out.println(s.charAt(4));
                System.out.println(s.equals(\"hello\"));
                System.out.println(\"abc\".compareTo(\"abd\"));
                StringBuilder sb = new StringBuilder();
                for (int i = 0; i < 10; i++) { sb.append(i).append(\",\"); }
                System.out.println(sb.toString());
                String k = \"beta\";
                switch (k) {
                    case \"alpha\": System.out.println(1); break;
                    case \"beta\": System.out.println(2); break;
                    default: System.out.println(0);
                }
            }
        }",
    );
}

#[test]
fn exceptions_typed_catches_finally_and_rethrow() {
    assert_identical(
        "class M {
            static int f(int n) {
                try {
                    if (n == 0) { throw new RuntimeException(\"zero\"); }
                    if (n == 1) { throw new IllegalStateException(\"one\"); }
                    return n;
                } catch (IllegalStateException e) {
                    return -1;
                } finally {
                    System.out.println(\"fin \" + n);
                }
            }
            public static void main(String[] a) {
                for (int i = 0; i < 3; i++) {
                    try {
                        System.out.println(f(i));
                    } catch (RuntimeException e) {
                        System.out.println(\"caught \" + e.getMessage());
                    }
                }
                try {
                    try { throw new Exception(\"inner\"); }
                    catch (Exception e) { throw new RuntimeException(\"re: \" + e.getMessage()); }
                } catch (Exception e) { System.out.println(e.getMessage()); }
            }
        }",
    );
}

#[test]
fn uncaught_exception_errors_identically() {
    assert_identical(
        "class M {
            static void boom() { throw new IllegalArgumentException(\"no handler\"); }
            public static void main(String[] a) { boom(); }
        }",
    );
}

#[test]
fn vm_exceptions_bounds_npe_arithmetic() {
    assert_identical(
        "class P { int v; }
        class M {
            public static void main(String[] a) {
                int[] xs = new int[3];
                try { int y = xs[5]; } catch (Exception e) { System.out.println(e.getMessage()); }
                P p = null;
                try { int y = p.v; } catch (Exception e) { System.out.println(\"npe\"); }
                try { int y = 1 / 0; } catch (Exception e) { System.out.println(e.getMessage()); }
                try { int[] b = new int[0 - 4]; } catch (Exception e) { System.out.println(\"neg\"); }
            }
        }",
    );
}

#[test]
fn instanceof_across_all_receiver_kinds() {
    assert_identical(
        "class Animal { }
        class Dog extends Animal { }
        class M {
            public static void main(String[] a) {
                Object s = \"str\";
                Object d = new Dog();
                Object an = new Animal();
                Object boxed = Integer.valueOf(3);
                int[] arr = new int[2];
                System.out.println(s instanceof String);
                System.out.println(d instanceof Animal);
                System.out.println(d instanceof Dog);
                System.out.println(an instanceof Dog);
                System.out.println(boxed instanceof Integer);
                System.out.println(boxed instanceof Number);
                for (int i = 0; i < 20; i++) {
                    Object o = i % 2 == 0 ? (Object) new Dog() : (Object) new Animal();
                    System.out.println(o instanceof Dog);
                }
            }
        }",
    );
}

#[test]
fn boxing_wrappers_and_parse_intrinsics() {
    assert_identical(
        "class M {
            public static void main(String[] a) {
                Integer i = 40;
                Double d = 2.5;
                Long l = 7L;
                System.out.println(i + 2);
                System.out.println(d * 2);
                System.out.println(l + 1);
                System.out.println(Integer.parseInt(\" 123 \"));
                System.out.println(Double.parseDouble(\"2.75\"));
                try { Integer.parseInt(\"xyz\"); }
                catch (Exception e) { System.out.println(\"bad: \" + e.getMessage()); }
            }
        }",
    );
}

#[test]
fn arrays_2d_arraycopy_and_foreach() {
    assert_identical(
        "class M {
            public static void main(String[] a) {
                int[][] m = new int[4][5];
                for (int i = 0; i < 4; i++) {
                    for (int j = 0; j < 5; j++) { m[i][j] = i * 10 + j; }
                }
                int s = 0;
                for (int[] row : m) { for (int v : row) { s += v; } }
                System.out.println(s);
                int[] src = new int[]{1, 2, 3, 4, 5};
                int[] dst = new int[5];
                System.arraycopy(src, 1, dst, 0, 3);
                for (int v : dst) { System.out.print(v); }
                System.out.println();
            }
        }",
    );
}

#[test]
fn recursion_statics_and_clinit() {
    assert_identical(
        "class C {
            static int calls = 0;
            static int fib(int n) {
                calls++;
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
        }
        class M {
            public static void main(String[] a) {
                System.out.println(C.fib(15));
                System.out.println(C.calls);
            }
        }",
    );
}

#[test]
fn exception_tostring_and_time() {
    assert_identical(
        "class M {
            public static void main(String[] a) {
                Exception e = new RuntimeException(\"msg\");
                System.out.println(e.toString());
                System.out.println(e.getMessage());
                long t = System.currentTimeMillis();
                System.out.println(t >= 0);
            }
        }",
    );
}

#[test]
fn out_of_fuel_errors_identically() {
    let src = "class M { public static void main(String[] a) { while (true) { } } }";
    for dispatch in [Dispatch::Legacy, Dispatch::Decoded, Dispatch::Ir] {
        let mut vm = Vm::from_source(src)
            .unwrap()
            .with_dispatch(dispatch)
            .with_fuel(10_000);
        assert!(
            matches!(vm.run_main(), Err(VmError::OutOfFuel)),
            "{dispatch:?}"
        );
    }
}

/// One monomorphic virtual call site, called 100 times.
const MONOMORPHIC_CALLS: &str = "class B { int f() { return 1; } }
    class M {
        public static void main(String[] a) {
            B b = new B();
            int s = 0;
            for (int i = 0; i < 100; i++) { s += b.f(); }
            System.out.println(s);
        }
    }";

#[test]
fn decoded_reports_inline_cache_traffic() {
    let src = MONOMORPHIC_CALLS;
    let out = run_with(src, Dispatch::Decoded, false).unwrap();
    assert_eq!(out.ic_hits + out.ic_misses, 100, "one IC probe per call");
    assert!(out.ic_hits >= 99, "monomorphic site should hit after fill");
    let legacy = run_with(src, Dispatch::Legacy, false).unwrap();
    assert_eq!(legacy.ic_hits, 0);
    assert_eq!(legacy.ic_misses, 0);
    // The IR tier devirtualizes the site but still drives the inline
    // cache, so its IC traffic matches the decoded engine exactly.
    let ir = run_with(src, Dispatch::Ir, false).unwrap();
    assert_eq!(ir.ic_hits, out.ic_hits, "IR IC hits");
    assert_eq!(ir.ic_misses, out.ic_misses, "IR IC misses");
}

/// A VM handed every prepared form still runs the engine its dispatch
/// names: Legacy probes no inline cache, and all three agree bit for bit.
#[test]
fn prepared_forms_run_the_requested_engine() {
    let mut prep = Vm::from_source(MONOMORPHIC_CALLS).unwrap();
    let (decoded, ir) = prep.shared_forms();
    assert!(decoded.is_some() && ir.is_some());
    let run = |dispatch| {
        Vm::from_prepared(prep.program().clone(), decoded.clone(), ir.clone(), false)
            .with_dispatch(dispatch)
            .run_main()
            .unwrap()
    };
    let legacy = run(Dispatch::Legacy);
    assert_eq!(
        (legacy.ic_hits, legacy.ic_misses),
        (0, 0),
        "Legacy has no IC"
    );
    for dispatch in OPTIMIZED {
        let out = run(dispatch);
        assert_eq!(out.ic_hits + out.ic_misses, 100, "{dispatch:?}");
        assert_outcomes_eq(&legacy, &out, &format!("prepared {dispatch:?}"));
    }
}

// ---- generative differential ------------------------------------------

/// Arithmetic expression over `x`, `y`, and the loop counter, rendered
/// as Java source. Division/modulus keep a `+ 1` guard on the divisor
/// so generated programs exercise real arithmetic, while genuinely
/// division-throwing programs are covered by the fixed battery above.
fn expr_src(ops: &[(u8, i32)]) -> String {
    let mut s = String::from("x");
    for (op, k) in ops {
        let k = k.rem_euclid(97);
        match op % 6 {
            0 => s = format!("({s} + {k})"),
            1 => s = format!("({s} - y)"),
            2 => s = format!("({s} * {})", k % 7),
            3 => s = format!("({s} / ({} + 1))", k % 13),
            4 => s = format!("({s} % ({} + 3))", k % 11),
            _ => s = format!("({s} + y * {})", k % 5),
        }
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random straight-line/looping methods with virtual calls, string
    /// building, and a caught exception, pushed through compile →
    /// decode → both executors. Everything observable must match.
    #[test]
    fn random_programs_are_bit_identical(
        base_ops in proptest::collection::vec((0u8..6, 0i32..1000), 1..6),
        derived_ops in proptest::collection::vec((0u8..6, 0i32..1000), 1..6),
        helper_ops in proptest::collection::vec((0u8..6, 0i32..1000), 1..6),
        iters in 1usize..40,
        pick in 0u8..4,
        throw_at in 0usize..50,
    ) {
        let base = expr_src(&base_ops);
        let derived = expr_src(&derived_ops);
        let helper = expr_src(&helper_ops);
        let src = format!(
            "class Base {{
                int f(int x, int y) {{ return {base}; }}
            }}
            class Derived extends Base {{
                int f(int x, int y) {{ return {derived}; }}
            }}
            class M {{
                static int helper(int x, int y) {{ return {helper}; }}
                public static void main(String[] a) {{
                    int acc = 0;
                    Base o; Base p;
                    if ({pick} % 2 == 0) {{ o = new Base(); }} else {{ o = new Derived(); }}
                    if ({pick} % 3 == 0) {{ p = new Derived(); }} else {{ p = new Base(); }}
                    StringBuilder sb = new StringBuilder();
                    for (int i = 0; i < {iters}; i++) {{
                        acc += o.f(i, acc) + p.f(acc, i) + helper(i, acc);
                        if (i == {throw_at}) {{
                            try {{ throw new RuntimeException(\"t\" + i); }}
                            catch (Exception e) {{ acc += e.getMessage().length(); }}
                        }}
                        if (i % 5 == 0) {{ sb.append(acc % 100).append('.'); }}
                    }}
                    System.out.println(acc);
                    System.out.println(sb.toString());
                }}
            }}"
        );
        let legacy = run_with(&src, Dispatch::Legacy, true);
        for engine in OPTIMIZED {
            let other = run_with(&src, engine, true);
            match (&legacy, &other) {
                (Ok(l), Ok(d)) => assert_outcomes_eq(l, d, &format!("random program ({engine:?})")),
                (Err(l), Err(d)) => prop_assert_eq!(format!("{l:?}"), format!("{d:?}")),
                _ => prop_assert!(false, "engines disagree on success ({:?}):\n{}", engine, src),
            }
        }
    }
}
