//! Statistics for the measurement protocol: Tukey's method (§VIII cites
//! Tukey's *Exploratory Data Analysis* for outlier detection).

/// Arithmetic mean (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `(Q1, median, Q3)` by the linear-interpolation convention.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(!xs.is_empty(), "quartiles of empty sample");
    // `total_cmp`: NaN samples would otherwise land wherever the sort's
    // comparison order happened to leave them, making the percentile
    // depend on input order; the total order pins NaN above +inf.
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let q = |p: f64| -> f64 {
        let h = (v.len() as f64 - 1.0) * p;
        let lo = h.floor() as usize;
        let hi = h.ceil() as usize;
        v[lo] + (h - lo as f64) * (v[hi] - v[lo])
    };
    (q(0.25), q(0.5), q(0.75))
}

/// Tukey fences: `(lower, upper)` = `Q1 − k·IQR, Q3 + k·IQR` with the
/// conventional `k = 1.5`.
pub fn tukey_fences(xs: &[f64]) -> (f64, f64) {
    let (q1, _, q3) = quartiles(xs);
    let iqr = q3 - q1;
    (q1 - 1.5 * iqr, q3 + 1.5 * iqr)
}

/// Indices of Tukey outliers in a sample.
pub fn tukey_outliers(xs: &[f64]) -> Vec<usize> {
    if xs.len() < 4 {
        return Vec::new(); // quartiles are meaningless below 4 points
    }
    let (lo, hi) = tukey_fences(xs);
    xs.iter()
        .enumerate()
        .filter(|(_, &x)| x < lo || x > hi)
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_of_known_samples() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn quartiles_of_known_sample() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let (q1, med, q3) = quartiles(&xs);
        assert_eq!(med, 5.0);
        assert_eq!(q1, 3.0);
        assert_eq!(q3, 7.0);
    }

    #[test]
    fn tukey_flags_the_spike() {
        let xs = [10.0, 10.2, 9.9, 10.1, 10.0, 25.0, 10.05, 9.95];
        let out = tukey_outliers(&xs);
        assert_eq!(out, vec![5]);
    }

    #[test]
    fn clean_sample_has_no_outliers() {
        let xs = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8];
        assert!(tukey_outliers(&xs).is_empty());
    }

    #[test]
    fn quartiles_with_nan_are_input_order_independent() {
        // A poisoned sample (NaN joule reading) must yield the same
        // quartiles no matter how the input was ordered: `total_cmp`
        // pins NaN above +inf, so the finite quartiles stay finite and
        // stable.
        let a = [1.0, f64::NAN, 3.0, 2.0, 4.0];
        let b = [4.0, 2.0, 3.0, f64::NAN, 1.0];
        let (a1, a2, a3) = quartiles(&a);
        let (b1, b2, b3) = quartiles(&b);
        assert_eq!(a1.to_bits(), b1.to_bits());
        assert_eq!(a2.to_bits(), b2.to_bits());
        assert_eq!(a3.to_bits(), b3.to_bits());
        assert_eq!((a1, a2, a3), (2.0, 3.0, 4.0));
    }

    #[test]
    fn tiny_samples_are_never_outliers() {
        assert!(tukey_outliers(&[1.0, 100.0]).is_empty());
        assert!(tukey_outliers(&[1.0, 2.0, 100.0]).is_empty());
    }

    proptest! {
        #[test]
        fn quartiles_are_ordered(xs in proptest::collection::vec(-1e6..1e6f64, 1..50)) {
            let (q1, med, q3) = quartiles(&xs);
            prop_assert!(q1 <= med + 1e-9);
            prop_assert!(med <= q3 + 1e-9);
        }

        #[test]
        fn fences_bracket_the_iqr(xs in proptest::collection::vec(-1e3..1e3f64, 4..50)) {
            let (lo, hi) = tukey_fences(&xs);
            let (q1, _, q3) = quartiles(&xs);
            prop_assert!(lo <= q1 && q3 <= hi);
        }

        #[test]
        fn removing_outliers_converges(mut xs in proptest::collection::vec(0.0..100.0f64, 6..30)) {
            // Repeatedly dropping Tukey outliers must terminate.
            for _ in 0..100 {
                let out = tukey_outliers(&xs);
                if out.is_empty() {
                    break;
                }
                for &i in out.iter().rev() {
                    xs.remove(i);
                }
            }
            prop_assert!(tukey_outliers(&xs).is_empty() || xs.len() < 4);
        }
    }
}
