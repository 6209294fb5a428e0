//! VM integration tests: complete Java-subset programs with known
//! outputs — the kind of code JEPO's users would profile.

use jepo_jvm::{Dispatch, Vm, VmError};

fn run(src: &str) -> String {
    let mut vm = Vm::from_source(src).unwrap_or_else(|e| panic!("{e}"));
    vm.run_main().unwrap_or_else(|e| panic!("{e}")).stdout
}

#[test]
fn bubble_sort() {
    let out = run("class Sort {
            static void bubble(int[] a) {
                for (int i = 0; i < a.length - 1; i++) {
                    for (int j = 0; j < a.length - 1 - i; j++) {
                        if (a[j] > a[j + 1]) {
                            int t = a[j];
                            a[j] = a[j + 1];
                            a[j + 1] = t;
                        }
                    }
                }
            }
            public static void main(String[] args) {
                int[] a = new int[]{5, 2, 9, 1, 7, 3};
                bubble(a);
                StringBuilder sb = new StringBuilder();
                for (int v : a) { sb.append(v).append(\" \"); }
                System.out.println(sb.toString());
            }
        }");
    assert_eq!(out.trim(), "1 2 3 5 7 9");
}

#[test]
fn sieve_of_eratosthenes() {
    let out = run("class Sieve {
            public static void main(String[] args) {
                int n = 50;
                boolean[] composite = new boolean[n + 1];
                int count = 0;
                for (int i = 2; i <= n; i++) {
                    if (!composite[i]) {
                        count++;
                        for (int j = i * i; j <= n; j += i) { composite[j] = true; }
                    }
                }
                System.out.println(count);
            }
        }");
    assert_eq!(out.trim(), "15"); // primes ≤ 50
}

#[test]
fn matrix_multiply() {
    let out = run("class MatMul {
            public static void main(String[] args) {
                int n = 8;
                double[][] a = new double[n][n];
                double[][] b = new double[n][n];
                for (int i = 0; i < n; i++) {
                    for (int j = 0; j < n; j++) {
                        a[i][j] = i + j;
                        b[i][j] = i == j ? 1.0 : 0.0;
                    }
                }
                double[][] c = new double[n][n];
                for (int i = 0; i < n; i++)
                    for (int k = 0; k < n; k++)
                        for (int j = 0; j < n; j++)
                            c[i][j] += a[i][k] * b[k][j];
                double trace = 0;
                for (int i = 0; i < n; i++) trace += c[i][i];
                System.out.println(trace);
            }
        }");
    // identity multiply: trace of a = Σ 2i = 56.
    assert_eq!(out.trim(), "56.0");
}

#[test]
fn gcd_recursion_and_modulus() {
    let out = run("class Gcd {
            static int gcd(int a, int b) { return b == 0 ? a : gcd(b, a % b); }
            public static void main(String[] args) {
                System.out.println(gcd(1071, 462));
                System.out.println(gcd(17, 5));
            }
        }");
    assert_eq!(out.trim(), "21\n1");
}

#[test]
fn string_processing() {
    let out = run("class Words {
            public static void main(String[] args) {
                String s = \"energy\";
                int vowels = 0;
                for (int i = 0; i < s.length(); i++) {
                    char c = s.charAt(i);
                    if (c == 'a' || c == 'e' || c == 'i' || c == 'o' || c == 'u') vowels++;
                }
                System.out.println(vowels);
                System.out.println(s + \"-efficient\");
            }
        }");
    assert_eq!(out.trim(), "2\nenergy-efficient");
}

#[test]
fn exception_driven_control_flow() {
    let out = run("class Parse {
            static int tryParse(String s, int fallback) {
                try { return Integer.parseInt(s); }
                catch (NumberFormatException e) { return fallback; }
            }
            public static void main(String[] args) {
                System.out.println(tryParse(\"42\", -1));
                System.out.println(tryParse(\"oops\", -1));
                System.out.println(tryParse(\" 7 \", -1));
            }
        }");
    assert_eq!(out.trim(), "42\n-1\n7");
}

#[test]
fn nested_try_rethrow() {
    let out = run("class Nest {
            public static void main(String[] args) {
                try {
                    try {
                        throw new RuntimeException(\"inner\");
                    } catch (RuntimeException e) {
                        System.out.println(\"caught-\" + e.getMessage());
                        throw new RuntimeException(\"outer\");
                    }
                } catch (RuntimeException e) {
                    System.out.println(\"again-\" + e.getMessage());
                }
            }
        }");
    assert_eq!(out.trim(), "caught-inner\nagain-outer");
}

#[test]
fn polymorphic_shapes() {
    let out = run("class Shape {
            double area() { return 0.0; }
        }
        class Square extends Shape {
            double side;
            Square(double s) { side = s; }
            double area() { return side * side; }
        }
        class Circle extends Shape {
            double r;
            Circle(double r) { this.r = r; }
            double area() { return 3.14159 * r * r; }
        }
        class Main {
            public static void main(String[] args) {
                Shape a = new Square(3.0);
                Shape b = new Circle(1.0);
                System.out.println(a.area() + b.area() > 12.0);
                System.out.println(a instanceof Square);
                System.out.println(b instanceof Square);
            }
        }");
    assert_eq!(out.trim(), "true\ntrue\nfalse");
}

#[test]
fn fixed_point_iteration_with_doubles() {
    // Newton's method for sqrt(2): checks double precision in the VM.
    let out = run("class Newton {
            public static void main(String[] args) {
                double x = 1.0;
                for (int i = 0; i < 20; i++) { x = 0.5 * (x + 2.0 / x); }
                double err = Math.abs(x * x - 2.0);
                System.out.println(err < 1.0e-12);
            }
        }");
    assert_eq!(out.trim(), "true");
}

#[test]
fn runtime_error_reports_method() {
    let mut vm = Vm::from_source(
        "class Crash {
            static int deep(int n) { int[] a = new int[1]; return a[n]; }
            public static void main(String[] args) { deep(5); }
        }",
    )
    .unwrap();
    match vm.run_main() {
        Err(VmError::Runtime { message, method }) => {
            assert!(message.contains("ArrayIndexOutOfBounds"), "{message}");
            assert!(method.contains("Crash"), "{method}");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn energy_of_matmul_orders_match_table1() {
    // kij vs jki loop orders of the same multiply: the cache model must
    // price the column-hostile order higher — the Table I mechanism on
    // real numeric code, not a microbenchmark.
    let kij = "class M { public static void main(String[] a) {
        int n = 64;
        double[][] x = new double[n][n]; double[][] y = new double[n][n];
        double[][] z = new double[n][n];
        for (int k = 0; k < n; k++)
            for (int i = 0; i < n; i++)
                for (int j = 0; j < n; j++)
                    z[i][j] += x[i][k] * y[k][j];
    } }";
    let jki = "class M { public static void main(String[] a) {
        int n = 64;
        double[][] x = new double[n][n]; double[][] y = new double[n][n];
        double[][] z = new double[n][n];
        for (int j = 0; j < n; j++)
            for (int k = 0; k < n; k++)
                for (int i = 0; i < n; i++)
                    z[i][j] += x[i][k] * y[k][j];
    } }";
    let energy = |src: &str| {
        let mut vm = Vm::from_source(src).unwrap();
        vm.run_main().unwrap().energy.package_j
    };
    let fast = energy(kij);
    let slow = energy(jki);
    assert!(slow > fast, "jki {slow} must cost more than kij {fast}");
}

#[test]
fn instrumented_matmul_attributes_energy_to_hot_method() {
    let src = "class M {
        static double[][] mul(double[][] x, double[][] y, int n) {
            double[][] z = new double[n][n];
            for (int i = 0; i < n; i++)
                for (int k = 0; k < n; k++)
                    for (int j = 0; j < n; j++)
                        z[i][j] += x[i][k] * y[k][j];
            return z;
        }
        static void setup(double[][] m, int n) {
            for (int i = 0; i < n; i++) for (int j = 0; j < n; j++) m[i][j] = i - j;
        }
        public static void main(String[] args) {
            int n = 24;
            double[][] x = new double[n][n];
            double[][] y = new double[n][n];
            setup(x, n);
            setup(y, n);
            mul(x, y, n);
        }
    }";
    let mut vm = Vm::from_source(src).unwrap();
    vm.instrument();
    let out = vm.run_main().unwrap();
    let records = Vm::aggregate_profile(&out.profile);
    let mul = records.iter().find(|r| r.name == "M.mul").unwrap();
    let setup = records.iter().find(|r| r.name == "M.setup").unwrap();
    assert!(
        mul.total_package_j > setup.total_package_j * 3.0,
        "O(n^3) beats O(n^2): {} vs {}",
        mul.total_package_j,
        setup.total_package_j
    );
}

/// Each level of a recursion is one execution, closed by its own exit
/// only: `f(3)` records four `Main.f` executions, each level's
/// inclusive energy adding its own loop to the one below, and the
/// outermost nearly all of `Main.main`'s.
#[test]
fn instrumented_recursion_records_every_level() {
    let src = "class Main {
        static int f(int n) {
            int s = 0;
            if (n > 0) { s = f(n - 1); }
            for (int i = 0; i < 2000; i++) { s += i % 7; }
            return s;
        }
        public static void main(String[] args) {
            System.out.println(f(3));
        }
    }";
    for dispatch in [Dispatch::Legacy, Dispatch::Decoded, Dispatch::Ir] {
        let mut vm = Vm::from_source(src).unwrap().with_dispatch(dispatch);
        vm.instrument();
        let out = vm.run_main().unwrap();
        let records = Vm::aggregate_profile(&out.profile);
        let f = records.iter().find(|r| r.name == "Main.f").unwrap();
        let main = records.iter().find(|r| r.name == "Main.main").unwrap();
        let levels: Vec<f64> = f.per_execution.iter().map(|&(j, _)| j).collect();
        assert_eq!(levels.len(), 4, "{dispatch:?}: one execution per level");
        assert!(
            levels[0] > 0.0 && levels.windows(2).all(|w| w[1] - w[0] > levels[0] / 2.0),
            "{dispatch:?}: each level must add its own loop: {levels:?}"
        );
        let (outer, whole) = (levels[3], main.total_package_j);
        assert!(
            outer <= whole && outer > whole * 0.95,
            "{dispatch:?}: outermost f {outer} vs main {whole}"
        );
    }
}
