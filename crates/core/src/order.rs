//! Total orderings over floats where a NaN *loses*.
//!
//! Every ranking in the query path — predicate ordering, frontier sweeps,
//! constraint selection — compares costs, accuracies, or throughputs that
//! are arithmetic products of calibration and simulation. A degenerate
//! input (an empty split, a zero-image scenario, an `INFINITY/INFINITY`
//! rank) can turn any of them into NaN, and `partial_cmp(..).expect(..)`
//! would then panic mid-query. These helpers define *total* orderings in
//! which NaN is simply the worst possible measurement: it sorts after every
//! real value in an ascending sort, never wins a `max_by`, and never wins a
//! `min_by` — the malformed candidate is demoted instead of aborting the
//! plan.
//!
//! Two totalizations are provided, differing only in where NaN goes:
//!
//! * [`nan_last`] — NaN above `+∞`. Use for ascending sorts ("cheapest
//!   first, unmeasurable last") and for `min_by` ("closest match wins, NaN
//!   loses").
//! * [`nan_lowest`] — NaN below `-∞`. Use for `max_by` ("best wins, NaN
//!   loses") and, with arguments swapped, for descending sorts.
//!
//! Both are consistent with `==`/`<` on non-NaN values and order NaNs among
//! themselves by [`f64::total_cmp`] (so the ordering stays total and
//! antisymmetric even with NaNs of both signs in play).

use std::cmp::Ordering;

macro_rules! nan_orderings {
    ($nan_last:ident, $nan_lowest:ident, $t:ty) => {
        /// Ascending total order with every NaN greater than `+∞`.
        #[inline]
        pub fn $nan_last(a: $t, b: $t) -> Ordering {
            match (a.is_nan(), b.is_nan()) {
                (false, false) => a.total_cmp(&b),
                (true, false) => Ordering::Greater,
                (false, true) => Ordering::Less,
                (true, true) => a.total_cmp(&b),
            }
        }

        /// Ascending total order with every NaN less than `-∞`.
        #[inline]
        pub fn $nan_lowest(a: $t, b: $t) -> Ordering {
            match (a.is_nan(), b.is_nan()) {
                (false, false) => a.total_cmp(&b),
                (true, false) => Ordering::Less,
                (false, true) => Ordering::Greater,
                (true, true) => a.total_cmp(&b),
            }
        }
    };
}

nan_orderings!(nan_last, nan_lowest, f64);
nan_orderings!(nan_last_f32, nan_lowest_f32, f32);

#[cfg(test)]
mod tests {
    use super::*;

    const WEIRD: [f64; 7] = [
        f64::NAN,
        f64::NEG_INFINITY,
        -1.0,
        0.0,
        1.0,
        f64::INFINITY,
        f64::NAN,
    ];

    #[test]
    fn nan_last_sorts_nan_to_the_end() {
        let mut v = WEIRD;
        v.sort_by(|a, b| nan_last(*a, *b));
        assert_eq!(v[0], f64::NEG_INFINITY);
        assert_eq!(v[4], f64::INFINITY);
        assert!(v[5].is_nan() && v[6].is_nan());
    }

    #[test]
    fn nan_lowest_sorts_nan_to_the_front() {
        let mut v = WEIRD;
        v.sort_by(|a, b| nan_lowest(*a, *b));
        assert!(v[0].is_nan() && v[1].is_nan());
        assert_eq!(v[2], f64::NEG_INFINITY);
        assert_eq!(v[6], f64::INFINITY);
    }

    #[test]
    fn nan_never_wins_a_selection() {
        let vals = [f64::NAN, 2.0, 1.0, f64::NAN];
        let max = vals
            .iter()
            .copied()
            .max_by(|a, b| nan_lowest(*a, *b))
            .unwrap();
        assert_eq!(max, 2.0);
        let min = vals
            .iter()
            .copied()
            .min_by(|a, b| nan_last(*a, *b))
            .unwrap();
        assert_eq!(min, 1.0);
    }

    #[test]
    fn orderings_are_total_and_antisymmetric() {
        for &a in &WEIRD {
            for &b in &WEIRD {
                assert_eq!(nan_last(a, b), nan_last(b, a).reverse());
                assert_eq!(nan_lowest(a, b), nan_lowest(b, a).reverse());
                assert_eq!(
                    nan_last_f32(a as f32, b as f32),
                    nan_last_f32(b as f32, a as f32).reverse()
                );
                assert_eq!(
                    nan_lowest_f32(a as f32, b as f32),
                    nan_lowest_f32(b as f32, a as f32).reverse()
                );
            }
        }
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the oracle: on real values the total orders must agree with partial_cmp"
    )]
    fn agrees_with_partial_cmp_on_real_values() {
        for &a in &[-3.0, 0.0, 7.5, f64::INFINITY] {
            for &b in &[-3.0, 0.0, 7.5, f64::INFINITY] {
                assert_eq!(nan_last(a, b), a.partial_cmp(&b).unwrap());
                assert_eq!(nan_lowest(a, b), a.partial_cmp(&b).unwrap());
            }
        }
    }
}
