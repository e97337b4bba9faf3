//! Chebyshev (L∞) distance — the metric of Definition 1.

use super::check_same_length;
use crate::error::Result;
use crate::verify::LANES;

/// Full Chebyshev distance `d(a, b) = max_i |a_i - b_i|`.
///
/// # Errors
///
/// Returns an error if the sequences are empty or differ in length.
pub fn chebyshev(a: &[f64], b: &[f64]) -> Result<f64> {
    check_same_length(a, b)?;
    Ok(max_abs_diff(a, b))
}

/// `max_i |a_i − b_i|` over the common prefix of two slices (0 when it is
/// empty): the infallible kernel under [`chebyshev`], reduced in
/// [`LANES`]-wide chunks whose lanes accumulate independently (a
/// slice-chunk form the compiler auto-vectorises) instead of one
/// latency-bound running maximum.  A `NaN` difference never raises the
/// maximum.  Callers that hold equal-length slices by construction (fixed
/// windows of one buffer) use it directly.
#[inline]
#[must_use]
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    let mut lanes = [0.0_f64; LANES];
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    for (xs, ys) in (&mut ac).zip(&mut bc) {
        for k in 0..LANES {
            let d = (xs[k] - ys[k]).abs();
            lanes[k] = if d > lanes[k] { d } else { lanes[k] };
        }
    }
    let mut max = lanes
        .iter()
        .fold(0.0_f64, |m, &d| if d > m { d } else { m });
    for (x, y) in ac.remainder().iter().zip(bc.remainder()) {
        let d = (x - y).abs();
        max = if d > max { d } else { max };
    }
    max
}

/// Early-abandoning Chebyshev distance.
///
/// Returns `Some(distance)` if the distance is at most `threshold`, and `None`
/// as soon as a single pointwise difference exceeds `threshold` (the remaining
/// positions are not examined).  Panics in debug builds if the slices differ
/// in length.
#[must_use]
pub fn chebyshev_bounded(a: &[f64], b: &[f64], threshold: f64) -> Option<f64> {
    debug_assert_eq!(a.len(), b.len());
    let mut max = 0.0_f64;
    for (x, y) in a.iter().zip(b) {
        let d = (x - y).abs();
        if d > threshold {
            return None;
        }
        if d > max {
            max = d;
        }
    }
    Some(max)
}

/// Returns `true` iff `a` and `b` are twins with respect to `threshold`, i.e.
/// `max_i |a_i - b_i| <= threshold`, abandoning at the first violation.
#[must_use]
pub fn chebyshev_within(a: &[f64], b: &[f64], threshold: f64) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).all(|(x, y)| (x - y).abs() <= threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::TsError;

    #[test]
    fn basic_distance() {
        assert_eq!(chebyshev(&[1.0, 2.0, 3.0], &[1.5, 0.0, 3.0]).unwrap(), 2.0);
        assert_eq!(chebyshev(&[0.0], &[0.0]).unwrap(), 0.0);
    }

    #[test]
    fn symmetric_and_non_negative() {
        let a = [1.0, -5.0, 3.25];
        let b = [2.0, 7.0, 3.0];
        let d1 = chebyshev(&a, &b).unwrap();
        let d2 = chebyshev(&b, &a).unwrap();
        assert_eq!(d1, d2);
        assert!(d1 >= 0.0);
    }

    #[test]
    fn errors_on_bad_input() {
        assert_eq!(chebyshev(&[], &[]), Err(TsError::EmptySequence));
        assert_eq!(
            chebyshev(&[1.0], &[1.0, 2.0]),
            Err(TsError::LengthMismatch { left: 1, right: 2 })
        );
    }

    #[test]
    fn bounded_matches_full_when_within() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [1.2, 1.8, 3.4, 3.9];
        let full = chebyshev(&a, &b).unwrap();
        assert_eq!(chebyshev_bounded(&a, &b, 0.5), Some(full));
        assert_eq!(chebyshev_bounded(&a, &b, full), Some(full));
    }

    #[test]
    fn bounded_abandons_when_exceeded() {
        let a = [0.0, 0.0, 0.0];
        let b = [0.1, 5.0, 0.1];
        assert_eq!(chebyshev_bounded(&a, &b, 1.0), None);
    }

    #[test]
    fn within_is_inclusive() {
        let a = [0.0, 0.0];
        let b = [1.0, -1.0];
        assert!(chebyshev_within(&a, &b, 1.0));
        assert!(!chebyshev_within(&a, &b, 0.999_999));
    }
}
