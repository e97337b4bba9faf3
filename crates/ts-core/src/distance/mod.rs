//! Distance functions between equal-length sequences.
//!
//! The twin subsequence search problem is defined on the **Chebyshev (L∞)
//! distance**; the Euclidean (L2) distance and generic Lp norms are provided
//! for the baselines and for validating the `ε' = ε·√l` relation of §3.1.

mod chebyshev;
mod dtw;
mod euclidean;
mod lp;

pub use chebyshev::{chebyshev, chebyshev_bounded, chebyshev_within, max_abs_diff};
pub use dtw::{dtw, dtw_unconstrained};
pub use euclidean::{euclidean, euclidean_squared, euclidean_within};
pub use lp::{lp_distance, minkowski};

use crate::error::{Result, TsError};

/// Validates that two sequences are non-empty and equally long.
pub(crate) fn check_same_length(a: &[f64], b: &[f64]) -> Result<()> {
    if a.is_empty() || b.is_empty() {
        return Err(TsError::EmptySequence);
    }
    if a.len() != b.len() {
        return Err(TsError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    Ok(())
}

/// The distance measures supported by the workspace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Metric {
    /// Chebyshev / L∞ distance (the twin-search metric).
    Chebyshev,
    /// Euclidean / L2 distance.
    Euclidean,
    /// Generic Minkowski Lp distance with the given exponent `p >= 1`.
    Lp(f64),
}

impl Metric {
    /// Evaluates the metric on two equal-length sequences.
    ///
    /// # Errors
    ///
    /// Returns an error if the sequences are empty or differ in length, or if
    /// an `Lp` exponent below 1 is used.
    pub fn distance(&self, a: &[f64], b: &[f64]) -> Result<f64> {
        match self {
            Metric::Chebyshev => chebyshev(a, b),
            Metric::Euclidean => euclidean(a, b),
            Metric::Lp(p) => lp_distance(a, b, *p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_dispatch() {
        let a = [0.0, 0.0, 0.0];
        let b = [3.0, 4.0, 0.0];
        assert_eq!(Metric::Chebyshev.distance(&a, &b).unwrap(), 4.0);
        assert_eq!(Metric::Euclidean.distance(&a, &b).unwrap(), 5.0);
        assert!((Metric::Lp(1.0).distance(&a, &b).unwrap() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn check_same_length_errors() {
        assert_eq!(check_same_length(&[], &[1.0]), Err(TsError::EmptySequence));
        assert_eq!(
            check_same_length(&[1.0], &[1.0, 2.0]),
            Err(TsError::LengthMismatch { left: 1, right: 2 })
        );
        assert!(check_same_length(&[1.0], &[2.0]).is_ok());
    }
}
