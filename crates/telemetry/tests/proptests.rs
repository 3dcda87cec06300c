//! Property tests of the histogram through its public API: what a
//! snapshot exports must be exact where it claims to be and inside the
//! recorded range where it is bucketed.

use cc_telemetry::AtomicHistogram;
use proptest::prelude::*;

/// Count, sum and max are exact; every percentile lies within the
/// recorded `[min, max]`.
fn totals_exact(values: &[u64]) -> TestCaseResult {
    let h = AtomicHistogram::new();
    for &v in values {
        h.record(v);
    }
    let s = h.summary();
    let (min, max) = (*values.iter().min().unwrap(), *values.iter().max().unwrap());
    prop_assert_eq!(s.count, values.len() as u64);
    prop_assert_eq!(s.sum, values.iter().sum::<u64>());
    prop_assert_eq!(s.max, max);
    for p in [s.p50, s.p90, s.p99] {
        prop_assert!(p >= min && p <= max, "{} outside [{}, {}]", p, min, max);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn histogram_totals_exact(values in proptest::collection::vec(0u64..1_000_000, 1..300)) {
        totals_exact(&values)?;
    }
}

/// A case the real proptest once shrank a failure to: one value, 9.
#[test]
fn histogram_totals_exact_for_a_single_nine() {
    totals_exact(&[9]).unwrap();
}
