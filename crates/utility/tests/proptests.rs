//! Property tests for the utility classes: the non-increasing contract and
//! inverse consistency, for every class.

use proptest::prelude::*;
use rush_utility::{LatestTime, TimeUtility};

fn any_utility() -> impl Strategy<Value = TimeUtility> {
    prop_oneof![
        (1.0f64..5000.0, 0.1f64..10.0, 0.001f64..2.0)
            .prop_map(|(b, w, beta)| TimeUtility::linear(b, w, beta).unwrap()),
        (1.0f64..5000.0, 0.1f64..10.0, 0.001f64..2.0)
            .prop_map(|(b, w, beta)| TimeUtility::sigmoid(b, w, beta).unwrap()),
        (0.1f64..10.0).prop_map(|w| TimeUtility::constant(w).unwrap()),
        (1.0f64..5000.0, 0.1f64..10.0).prop_map(|(b, w)| TimeUtility::step(b, w).unwrap()),
    ]
}

proptest! {
    /// U is non-increasing and bounded by [inf, sup] everywhere.
    #[test]
    fn non_increasing_and_bounded(u in any_utility(), ts in prop::collection::vec(0.0f64..10_000.0, 2..32)) {
        let mut sorted = ts.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = f64::INFINITY;
        for &t in &sorted {
            let v = u.utility(t);
            prop_assert!(v <= prev + 1e-9, "increased at t={t}");
            prop_assert!(v <= u.sup() + 1e-9);
            prop_assert!(v + 1e-9 >= u.inf());
            prev = v;
        }
    }

    /// latest_time(L) is consistent: U(latest) ≥ L and U just after < L
    /// (for strictly decreasing classes).
    #[test]
    fn inverse_consistency(u in any_utility(), frac in 0.05f64..0.95) {
        let level = u.inf() + (u.sup() - u.inf()) * frac;
        if level <= u.inf() + 1e-12 {
            return Ok(());
        }
        match u.latest_time(level) {
            LatestTime::At(t) => {
                prop_assert!(u.utility(t) + 1e-6 >= level,
                    "U({t}) = {} < level {level}", u.utility(t));
                prop_assert!(u.utility(t + 1.0) <= level + 1e-6,
                    "one slot later still attains the level");
            }
            LatestTime::Always => {
                prop_assert!(u.utility(1e9) + 1e-9 >= level);
            }
            LatestTime::Never => {
                prop_assert!(level > u.sup() - 1e-9);
            }
        }
    }
}
