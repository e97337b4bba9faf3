//! Minimum Bounding Time Series (MBTS) — the envelope used by TS-Index nodes.
//!
//! An MBTS `B = (B^u, B^l)` encloses a set of equal-length sequences by
//! recording the maximum (`B^u`) and minimum (`B^l`) value at every timestamp
//! (Definition 2).  Two distances drive the TS-Index:
//!
//! * [`Mbts::distance_to_sequence`] — Equation (2), the Chebyshev-style gap
//!   between a sequence and the envelope (0 where the sequence lies inside).
//! * [`Mbts::distance_to_mbts`] — Equation (3), the gap between two envelopes
//!   (0 where they overlap at a timestamp).
//!
//! Lemma 1 of the paper follows directly: if a node's MBTS is farther than `ε`
//! from the query, no sequence inside the node can be a twin of the query.
//!
//! [`Mbts`] is the owned convenience type with plain scalar methods; the
//! TS-Index keeps its envelopes in the flat layout of [`packed`] and runs the
//! bounded slice kernels defined there, which the property tests hold equal
//! to these methods bit for bit.

pub mod packed;

use crate::error::{Result, TsError};

/// A pointwise upper/lower envelope over a set of equal-length sequences.
#[derive(Debug, Clone, PartialEq)]
pub struct Mbts {
    upper: Vec<f64>,
    lower: Vec<f64>,
}

impl Mbts {
    /// Creates an MBTS that encloses exactly one sequence (upper = lower =
    /// the sequence itself).
    ///
    /// # Errors
    ///
    /// Returns [`TsError::EmptySequence`] for an empty sequence.
    pub fn from_sequence(values: &[f64]) -> Result<Self> {
        if values.is_empty() {
            return Err(TsError::EmptySequence);
        }
        Ok(Self {
            upper: values.to_vec(),
            lower: values.to_vec(),
        })
    }

    /// Creates an MBTS enclosing every sequence in `sequences`.
    ///
    /// # Errors
    ///
    /// Returns an error if `sequences` is empty, any sequence is empty, or the
    /// lengths differ.
    pub fn from_sequences<S: AsRef<[f64]>>(sequences: &[S]) -> Result<Self> {
        let mut iter = sequences.iter();
        let first = iter.next().ok_or(TsError::EmptySequence)?;
        let mut mbts = Self::from_sequence(first.as_ref())?;
        for s in iter {
            mbts.expand_with_sequence(s.as_ref())?;
        }
        Ok(mbts)
    }

    /// Creates an MBTS from explicit bounds.
    ///
    /// # Errors
    ///
    /// Returns an error if the bounds are empty, differ in length, or the
    /// lower bound exceeds the upper bound anywhere.
    pub fn from_bounds(upper: Vec<f64>, lower: Vec<f64>) -> Result<Self> {
        if upper.is_empty() {
            return Err(TsError::EmptySequence);
        }
        if upper.len() != lower.len() {
            return Err(TsError::LengthMismatch {
                left: upper.len(),
                right: lower.len(),
            });
        }
        if upper.iter().zip(&lower).any(|(u, l)| l > u) {
            return Err(TsError::InvalidParameter(
                "MBTS lower bound exceeds upper bound".into(),
            ));
        }
        Ok(Self { upper, lower })
    }

    /// Number of timestamps covered by the envelope.
    #[must_use]
    pub fn len(&self) -> usize {
        self.upper.len()
    }

    /// Returns `true` if the envelope covers no timestamps.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.upper.is_empty()
    }

    /// The upper bounding time series `B^u`.
    #[must_use]
    pub fn upper(&self) -> &[f64] {
        &self.upper
    }

    /// The lower bounding time series `B^l`.
    #[must_use]
    pub fn lower(&self) -> &[f64] {
        &self.lower
    }

    /// Returns `true` iff `values` lies fully inside the envelope.
    #[must_use]
    pub fn contains(&self, values: &[f64]) -> bool {
        values.len() == self.len()
            && values
                .iter()
                .zip(self.lower.iter().zip(&self.upper))
                .all(|(v, (l, u))| *v >= *l && *v <= *u)
    }

    /// Equation (2): the distance between a sequence `S` and this MBTS —
    /// the largest amount by which `S` escapes the envelope at any timestamp,
    /// or 0 if `S` lies inside.
    ///
    /// Panics in debug builds if the lengths differ.
    #[must_use]
    pub fn distance_to_sequence(&self, values: &[f64]) -> f64 {
        debug_assert_eq!(values.len(), self.len());
        let mut max = 0.0_f64;
        for ((&v, &u), &l) in values.iter().zip(&self.upper).zip(&self.lower) {
            let d = if v > u {
                v - u
            } else if v < l {
                l - v
            } else {
                0.0
            };
            if d > max {
                max = d;
            }
        }
        max
    }

    /// Early-abandoning form of [`Self::distance_to_sequence`]: returns `true`
    /// as soon as the gap at some timestamp exceeds `threshold` (i.e. the node
    /// can be pruned for a query with threshold `threshold`), `false` if the
    /// full distance is within the threshold.
    ///
    /// This is the check used on the hot path of Algorithm 1 (§5.3).
    #[must_use]
    pub fn exceeds_threshold(&self, values: &[f64], threshold: f64) -> bool {
        debug_assert_eq!(values.len(), self.len());
        for ((&v, &u), &l) in values.iter().zip(&self.upper).zip(&self.lower) {
            let d = if v > u {
                v - u
            } else if v < l {
                l - v
            } else {
                0.0
            };
            if d > threshold {
                return true;
            }
        }
        false
    }

    /// Equation (3): the distance between two MBTS — the largest gap between
    /// the envelopes at any timestamp, or 0 if they overlap everywhere.
    ///
    /// Panics in debug builds if the lengths differ.
    #[must_use]
    pub fn distance_to_mbts(&self, other: &Mbts) -> f64 {
        debug_assert_eq!(self.len(), other.len());
        let mut max = 0.0_f64;
        for i in 0..self.len() {
            let d = if self.lower[i] > other.upper[i] {
                self.lower[i] - other.upper[i]
            } else if self.upper[i] < other.lower[i] {
                other.lower[i] - self.upper[i]
            } else {
                0.0
            };
            if d > max {
                max = d;
            }
        }
        max
    }

    /// Expands the envelope so it also encloses `values`.
    ///
    /// # Errors
    ///
    /// Returns [`TsError::LengthMismatch`] if the lengths differ.
    pub fn expand_with_sequence(&mut self, values: &[f64]) -> Result<()> {
        if values.len() != self.len() {
            return Err(TsError::LengthMismatch {
                left: self.len(),
                right: values.len(),
            });
        }
        for ((&v, u), l) in values
            .iter()
            .zip(self.upper.iter_mut())
            .zip(self.lower.iter_mut())
        {
            if v > *u {
                *u = v;
            }
            if v < *l {
                *l = v;
            }
        }
        Ok(())
    }

    /// Expands the envelope so it also encloses `other`.
    ///
    /// # Errors
    ///
    /// Returns [`TsError::LengthMismatch`] if the lengths differ.
    pub fn expand_with_mbts(&mut self, other: &Mbts) -> Result<()> {
        if other.len() != self.len() {
            return Err(TsError::LengthMismatch {
                left: self.len(),
                right: other.len(),
            });
        }
        for i in 0..self.len() {
            if other.upper[i] > self.upper[i] {
                self.upper[i] = other.upper[i];
            }
            if other.lower[i] < self.lower[i] {
                self.lower[i] = other.lower[i];
            }
        }
        Ok(())
    }

    /// The increase in total envelope "area" (`Σ_i (upper_i − lower_i)`)
    /// that enclosing `values` would cause.  Used by the TS-Index split
    /// heuristic: a sequence is assigned to the sibling whose MBTS grows
    /// least (§5.2).
    #[must_use]
    pub fn expansion_for_sequence(&self, values: &[f64]) -> f64 {
        debug_assert_eq!(values.len(), self.len());
        let mut expansion = 0.0_f64;
        for ((&v, &u), &l) in values.iter().zip(&self.upper).zip(&self.lower) {
            if v > u {
                expansion += v - u;
            } else if v < l {
                expansion += l - v;
            }
        }
        expansion
    }

    /// The increase in total envelope area that enclosing `other` would cause.
    #[must_use]
    pub fn expansion_for_mbts(&self, other: &Mbts) -> f64 {
        debug_assert_eq!(other.len(), self.len());
        let mut expansion = 0.0_f64;
        for i in 0..self.len() {
            if other.upper[i] > self.upper[i] {
                expansion += other.upper[i] - self.upper[i];
            }
            if other.lower[i] < self.lower[i] {
                expansion += self.lower[i] - other.lower[i];
            }
        }
        expansion
    }

    /// Total envelope area `Σ_i (upper_i − lower_i)`; a tightness measure used
    /// in diagnostics and ablation benches.
    #[must_use]
    pub fn area(&self) -> f64 {
        self.upper.iter().zip(&self.lower).map(|(u, l)| u - l).sum()
    }

    /// Approximate heap memory consumed by this envelope, in bytes.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        (self.upper.capacity() + self.lower.capacity()) * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mbts() -> Mbts {
        Mbts::from_sequences(&[
            vec![1.0, 5.0, 3.0],
            vec![2.0, 4.0, 1.0],
            vec![0.0, 6.0, 2.0],
        ])
        .unwrap()
    }

    #[test]
    fn construction_from_sequences() {
        let m = sample_mbts();
        assert_eq!(m.upper(), &[2.0, 6.0, 3.0]);
        assert_eq!(m.lower(), &[0.0, 4.0, 1.0]);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
    }

    #[test]
    fn construction_errors() {
        assert!(Mbts::from_sequence(&[]).is_err());
        let empty: Vec<Vec<f64>> = vec![];
        assert!(Mbts::from_sequences(&empty).is_err());
        assert!(Mbts::from_sequences(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(Mbts::from_bounds(vec![1.0], vec![2.0]).is_err());
        assert!(Mbts::from_bounds(vec![1.0, 2.0], vec![0.0]).is_err());
        assert!(Mbts::from_bounds(vec![], vec![]).is_err());
        assert!(Mbts::from_bounds(vec![1.0, 3.0], vec![0.0, 2.0]).is_ok());
    }

    #[test]
    fn contains_enclosed_sequences() {
        let seqs = [
            vec![1.0, 5.0, 3.0],
            vec![2.0, 4.0, 1.0],
            vec![0.0, 6.0, 2.0],
        ];
        let m = Mbts::from_sequences(&seqs).unwrap();
        for s in &seqs {
            assert!(m.contains(s));
            assert_eq!(m.distance_to_sequence(s), 0.0);
        }
        assert!(!m.contains(&[3.0, 5.0, 2.0]));
        assert!(!m.contains(&[1.0, 5.0]));
    }

    #[test]
    fn distance_to_sequence_equation_2() {
        let m = sample_mbts(); // upper [2,6,3], lower [0,4,1]
                               // Above the envelope at t0 by 1.5, inside elsewhere.
        assert_eq!(m.distance_to_sequence(&[3.5, 5.0, 2.0]), 1.5);
        // Below at t1 by 2.0 and above at t2 by 0.5 -> max is 2.0.
        assert_eq!(m.distance_to_sequence(&[1.0, 2.0, 3.5]), 2.0);
    }

    #[test]
    fn exceeds_threshold_matches_distance() {
        let m = sample_mbts();
        let q = [3.5, 2.0, 2.0]; // distance = max(1.5, 2.0, 0) = 2.0
        assert_eq!(m.distance_to_sequence(&q), 2.0);
        assert!(m.exceeds_threshold(&q, 1.9));
        assert!(!m.exceeds_threshold(&q, 2.0));
        assert!(!m.exceeds_threshold(&q, 5.0));
    }

    #[test]
    fn distance_to_mbts_equation_3() {
        let a = Mbts::from_bounds(vec![2.0, 2.0], vec![1.0, 1.0]).unwrap();
        let b = Mbts::from_bounds(vec![5.0, 1.5], vec![4.0, 0.5]).unwrap();
        // Gap at t0: 4.0 - 2.0 = 2.0; overlap at t1 -> 0.
        assert_eq!(a.distance_to_mbts(&b), 2.0);
        assert_eq!(b.distance_to_mbts(&a), 2.0);
        // An envelope overlaps itself.
        assert_eq!(a.distance_to_mbts(&a), 0.0);
    }

    #[test]
    fn expansion_and_expand() {
        let mut m = Mbts::from_sequence(&[1.0, 1.0]).unwrap();
        assert_eq!(m.area(), 0.0);
        assert_eq!(m.expansion_for_sequence(&[2.0, 0.5]), 1.5);
        m.expand_with_sequence(&[2.0, 0.5]).unwrap();
        assert_eq!(m.upper(), &[2.0, 1.0]);
        assert_eq!(m.lower(), &[1.0, 0.5]);
        assert_eq!(m.area(), 1.5);
        // Already enclosed -> zero expansion.
        assert_eq!(m.expansion_for_sequence(&[1.5, 0.75]), 0.0);
        assert!(m.expand_with_sequence(&[1.0]).is_err());
    }

    #[test]
    fn expand_with_mbts() {
        let mut a = Mbts::from_bounds(vec![2.0, 2.0], vec![1.0, 1.0]).unwrap();
        let b = Mbts::from_bounds(vec![3.0, 1.5], vec![2.5, 0.0]).unwrap();
        assert_eq!(a.expansion_for_mbts(&b), 1.0 + 1.0);
        a.expand_with_mbts(&b).unwrap();
        assert_eq!(a.upper(), &[3.0, 2.0]);
        assert_eq!(a.lower(), &[1.0, 0.0]);
        let c = Mbts::from_sequence(&[0.0]).unwrap();
        assert!(a.expand_with_mbts(&c).is_err());
    }

    #[test]
    fn lemma_1_holds_for_enclosed_twins() {
        // If S is enclosed by B and Q ~eps S, then d(Q, B) <= eps (Lemma 1).
        let seqs = [
            vec![0.0, 1.0, 2.0, 1.0],
            vec![0.5, 1.5, 1.5, 0.5],
            vec![-0.5, 0.5, 2.5, 1.5],
        ];
        let m = Mbts::from_sequences(&seqs).unwrap();
        let eps = 0.3;
        let s = &seqs[1];
        let q: Vec<f64> = s.iter().map(|v| v + 0.29).collect();
        assert!(crate::twin::are_twins(&q, s, eps));
        assert!(m.distance_to_sequence(&q) <= eps);
    }

    #[test]
    fn memory_accounting_is_positive() {
        let m = sample_mbts();
        assert!(m.memory_bytes() >= 2 * 3 * std::mem::size_of::<f64>());
    }
}
