//! Candidate verification with *reordering early abandoning* (§3.2).
//!
//! Verification checks whether a candidate subsequence really is a twin of the
//! query.  A plain left-to-right scan abandons at the first timestamp whose
//! difference exceeds `ε`; the UCR-suite style optimisation re-orders the
//! comparison so that the query positions with the largest absolute
//! (z-normalised) values — the ones least likely to match — are checked first.
//!
//! Two kernels implement the twin check:
//!
//! * the **scalar** kernel ([`Verifier::is_twin_counted`]) compares one
//!   position at a time and abandons at the first violation.  It is the
//!   reference the equivalence tests compare against;
//!   [`crate::pipeline::Pipeline`] never calls it;
//! * the **blockwise** kernel ([`Verifier::is_twin_blockwise_counted`]), the
//!   one the pipeline runs,
//!   peels the first [`BLOCK`] positions one comparison at a time — the
//!   reordered plan front-loads the most-discriminating positions, so the
//!   common reject still costs one comparison — then processes the rest in
//!   fixed blocks of [`BLOCK`] positions, max-reducing `|q_i − c_i|` across
//!   [`LANES`]-wide chunks (a plain slice-chunk form the compiler
//!   auto-vectorises — no `std::simd`) and branching once per block.  It
//!   accepts/rejects identically to the scalar kernel; only the *reported
//!   abandon depth* beyond the first block is block-granular.
//!
//! The verifier borrows the query slice — constructing one performs no copy of
//! the query values, so the `TwinQuery` built by a search wrapper is the only
//! materialisation of the query in the whole pipeline.

use crate::distance::max_abs_diff;

/// Number of positions the blockwise kernel examines between abandon checks.
pub const BLOCK: usize = 16;

/// Chunk width of the inner max-reduction in the blockwise kernel.  Eight
/// `f64` lanes span one cache line and map onto 2–4 vector registers on every
/// x86-64/aarch64 baseline the workspace targets.
pub const LANES: usize = 8;

/// A reusable verification plan for a fixed query: a borrowed view of the
/// query values plus the index order in which candidate positions are
/// compared.
#[derive(Debug, Clone)]
pub struct Verifier<'q> {
    query: &'q [f64],
    /// Positions of the query sorted by decreasing `|q_i|`.
    order: Vec<u32>,
    /// `query[order[j]]` — the query gathered into comparison order so the
    /// hot loop reads it contiguously.  Empty when the order is the identity
    /// (the sequential plan reads `query` directly).
    ordered: Vec<f64>,
}

impl<'q> Verifier<'q> {
    /// Builds a verifier for `query` using reordering early abandoning: the
    /// positions with the largest absolute query values are compared first.
    #[must_use]
    pub fn new(query: &'q [f64]) -> Self {
        let mut order: Vec<u32> = (0..query.len() as u32).collect();
        order.sort_by(|&a, &b| {
            let va = query[a as usize].abs();
            let vb = query[b as usize].abs();
            vb.partial_cmp(&va).unwrap_or(std::cmp::Ordering::Equal)
        });
        let ordered = if order.windows(2).all(|w| w[0] < w[1]) {
            Vec::new() // the sort was a no-op: use the sequential fast path
        } else {
            order.iter().map(|&i| query[i as usize]).collect()
        };
        Self {
            query,
            order,
            ordered,
        }
    }

    /// Builds a verifier that compares positions left-to-right (no
    /// reordering).  Used by the ablation bench that measures the value of
    /// reordering.
    #[must_use]
    pub fn new_sequential(query: &'q [f64]) -> Self {
        Self {
            query,
            order: (0..query.len() as u32).collect(),
            ordered: Vec::new(),
        }
    }

    /// The query this verifier was built for.
    #[must_use]
    pub fn query(&self) -> &'q [f64] {
        self.query
    }

    /// Query length.
    #[must_use]
    pub fn len(&self) -> usize {
        self.query.len()
    }

    /// Returns `true` if the query is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.query.is_empty()
    }

    /// The comparison order (indices into the query).
    #[must_use]
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Returns `true` when the comparison order is the identity (either built
    /// with [`Self::new_sequential`], or the reordering sort was a no-op).
    #[must_use]
    pub fn is_sequential(&self) -> bool {
        self.ordered.is_empty()
    }

    /// Returns `true` iff `candidate` is a twin of the query w.r.t.
    /// `epsilon`, visiting positions in the precomputed order and abandoning
    /// at the first violation.
    ///
    /// Panics in debug builds if the candidate length differs from the query.
    #[must_use]
    pub fn is_twin(&self, candidate: &[f64], epsilon: f64) -> bool {
        self.is_twin_counted(candidate, epsilon).0
    }

    /// Like [`Self::is_twin`] but also reports how many positions were
    /// examined before accepting/abandoning — used by query statistics and the
    /// verification-cost ablation.
    #[must_use]
    pub fn is_twin_counted(&self, candidate: &[f64], epsilon: f64) -> (bool, usize) {
        debug_assert_eq!(candidate.len(), self.query.len());
        if self.ordered.is_empty() {
            for (checked, (q, c)) in self.query.iter().zip(candidate).enumerate() {
                if (q - c).abs() > epsilon {
                    return (false, checked + 1);
                }
            }
        } else {
            for (checked, (&q, &i)) in self.ordered.iter().zip(&self.order).enumerate() {
                if (q - candidate[i as usize]).abs() > epsilon {
                    return (false, checked + 1);
                }
            }
        }
        (true, self.query.len())
    }

    /// Blockwise variant of [`Self::is_twin`]: same accept/reject answer,
    /// one abandon branch per [`BLOCK`] positions.
    #[must_use]
    pub fn is_twin_blockwise(&self, candidate: &[f64], epsilon: f64) -> bool {
        self.is_twin_blockwise_counted(candidate, epsilon).0
    }

    /// Blockwise early-abandoning twin check: the **first** [`BLOCK`]
    /// positions are peeled one comparison at a time (the reordered plan
    /// front-loads the most-discriminating positions there, so almost every
    /// reject costs a single comparison, exactly like the scalar kernel);
    /// surviving candidates continue in blocks of [`BLOCK`] positions, each
    /// max-reduced in [`LANES`]-wide chunks with one abandon branch per
    /// block.  The boolean answer is identical to [`Self::is_twin_counted`];
    /// the reported examined-position count is exact inside the peeled first
    /// block and rounded up to the end of the abandoning block afterwards.
    #[must_use]
    pub fn is_twin_blockwise_counted(&self, candidate: &[f64], epsilon: f64) -> (bool, usize) {
        debug_assert_eq!(candidate.len(), self.query.len());
        let n = self.query.len();
        let first = BLOCK.min(n);
        if self.ordered.is_empty() {
            for (checked, (q, c)) in self.query[..first]
                .iter()
                .zip(&candidate[..first])
                .enumerate()
            {
                if (q - c).abs() > epsilon {
                    return (false, checked + 1);
                }
            }
            let mut start = first;
            while start < n {
                let end = (start + BLOCK).min(n);
                if max_abs_diff(&self.query[start..end], &candidate[start..end]) > epsilon {
                    return (false, end);
                }
                start = end;
            }
        } else {
            for (checked, (&q, &i)) in self.ordered[..first]
                .iter()
                .zip(&self.order[..first])
                .enumerate()
            {
                if (q - candidate[i as usize]).abs() > epsilon {
                    return (false, checked + 1);
                }
            }
            // The comparison order only matters for *early* abandons, and the
            // peel above has already harvested those; survivors are rescanned
            // in plain position order so the max-reduction runs over
            // contiguous slices (vectorizable, no gathers).  Re-checking the
            // peeled positions is a small constant price for that.
            let mut start = 0;
            while start < n {
                let end = (start + BLOCK).min(n);
                if max_abs_diff(&self.query[start..end], &candidate[start..end]) > epsilon {
                    return (false, (first + end).min(n));
                }
                start = end;
            }
        }
        (true, n)
    }

    /// The exact Chebyshev distance between the query and `candidate`
    /// (no abandoning); useful for top-k extensions and tests.
    #[must_use]
    pub fn chebyshev(&self, candidate: &[f64]) -> f64 {
        debug_assert_eq!(candidate.len(), self.query.len());
        max_abs_diff(self.query, candidate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_sorts_by_absolute_value() {
        let q = [0.1, -3.0, 2.0, 0.0];
        let v = Verifier::new(&q);
        assert_eq!(v.order(), &[1, 2, 0, 3]);
        assert_eq!(v.len(), 4);
        assert!(!v.is_empty());
        assert!(!v.is_sequential());
        assert_eq!(v.query(), &[0.1, -3.0, 2.0, 0.0]);
    }

    #[test]
    fn sequential_order_is_identity() {
        let q = [5.0, 1.0, 3.0];
        let v = Verifier::new_sequential(&q);
        assert_eq!(v.order(), &[0, 1, 2]);
        assert!(v.is_sequential());
    }

    #[test]
    fn reordering_noop_takes_sequential_fast_path() {
        // |q| already strictly decreasing: the sort keeps the identity order.
        let q = [9.0, -7.0, 4.0, 1.0];
        let v = Verifier::new(&q);
        assert_eq!(v.order(), &[0, 1, 2, 3]);
        assert!(v.is_sequential());
    }

    #[test]
    fn is_twin_agrees_with_direct_chebyshev() {
        let q = [0.5, -1.0, 2.0, 0.0, 1.5];
        let v = Verifier::new(&q);
        let close: Vec<f64> = q.iter().map(|x| x + 0.2).collect();
        let far: Vec<f64> = q
            .iter()
            .enumerate()
            .map(|(i, x)| x + if i == 3 { 1.0 } else { 0.0 })
            .collect();
        assert!(v.is_twin(&close, 0.25));
        assert!(!v.is_twin(&close, 0.1));
        assert!(!v.is_twin(&far, 0.5));
        assert!(v.is_twin(&far, 1.0));
        assert!((v.chebyshev(&close) - 0.2).abs() < 1e-12);
        assert_eq!(v.chebyshev(&far), 1.0);
    }

    #[test]
    fn counted_abandons_early_on_reordered_mismatch() {
        // Query has a big spike at position 2; candidate differs only there.
        let q = [0.0, 0.0, 10.0, 0.0, 0.0];
        let v = Verifier::new(&q);
        let mut c = q.to_vec();
        c[2] = 0.0;
        let (ok, checked) = v.is_twin_counted(&c, 1.0);
        assert!(!ok);
        assert_eq!(checked, 1, "the spike position must be checked first");

        let seq = Verifier::new_sequential(&q);
        let (ok2, checked2) = seq.is_twin_counted(&c, 1.0);
        assert!(!ok2);
        assert_eq!(checked2, 3, "sequential order reaches the spike third");
    }

    #[test]
    fn counted_full_scan_on_accept() {
        let q = [1.0, 2.0, 3.0];
        let v = Verifier::new(&q);
        let (ok, checked) = v.is_twin_counted(&[1.1, 2.1, 2.9], 0.2);
        assert!(ok);
        assert_eq!(checked, 3);
    }

    #[test]
    fn reordering_and_sequential_agree_on_result() {
        let q: Vec<f64> = (0..50).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let reordered = Verifier::new(&q);
        let sequential = Verifier::new_sequential(&q);
        for shift in [0.0, 0.4, 0.9, 1.7] {
            let cand: Vec<f64> = q
                .iter()
                .enumerate()
                .map(|(i, x)| x + shift * if i % 2 == 0 { 1.0 } else { -1.0 })
                .collect();
            for eps in [0.1, 0.5, 1.0, 2.0] {
                assert_eq!(
                    reordered.is_twin(&cand, eps),
                    sequential.is_twin(&cand, eps),
                    "orders must agree for eps={eps} shift={shift}"
                );
            }
        }
    }

    #[test]
    fn blockwise_matches_scalar_on_both_orders() {
        // Lengths straddling the LANES and BLOCK boundaries, shifts straddling
        // every epsilon: the blockwise kernel must answer exactly like the
        // scalar one for both comparison plans.
        for n in [1, 7, 8, 9, 15, 16, 17, 31, 32, 100] {
            let q: Vec<f64> = (0..n).map(|i| ((i * 31) % 11) as f64 - 5.0).collect();
            for (label, v) in [
                ("reordered", Verifier::new(&q)),
                ("sequential", Verifier::new_sequential(&q)),
            ] {
                for shift in [0.0, 0.3, 0.8, 1.5, 4.0] {
                    let cand: Vec<f64> = q
                        .iter()
                        .enumerate()
                        .map(|(i, x)| x + shift * if i % 3 == 0 { 1.0 } else { -0.5 })
                        .collect();
                    for eps in [0.05, 0.3, 0.85, 1.6, 10.0] {
                        assert_eq!(
                            v.is_twin_blockwise(&cand, eps),
                            v.is_twin(&cand, eps),
                            "{label}: kernels disagree for n={n} eps={eps} shift={shift}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn blockwise_counted_is_block_granular() {
        // 40 positions, violation at index 20: the scalar kernel abandons at
        // 21 positions checked, the blockwise kernel at the end of the second
        // block (32), and both do a full scan on accept.
        let q = vec![0.0; 40];
        let mut c = q.clone();
        c[20] = 5.0;
        let v = Verifier::new_sequential(&q);
        assert_eq!(v.is_twin_counted(&c, 1.0), (false, 21));
        assert_eq!(v.is_twin_blockwise_counted(&c, 1.0), (false, 2 * BLOCK));
        assert_eq!(v.is_twin_blockwise_counted(&q, 1.0), (true, 40));
    }

    #[test]
    fn blockwise_first_block_abandons_at_exact_depth() {
        // Violations inside the peeled first block report the exact scalar
        // depth, not a block-rounded one.
        let q = vec![0.0; 40];
        for hit in [0usize, 5, BLOCK - 1] {
            let mut c = q.clone();
            c[hit] = 5.0;
            let v = Verifier::new_sequential(&q);
            assert_eq!(v.is_twin_blockwise_counted(&c, 1.0), (false, hit + 1));
            assert_eq!(v.is_twin_counted(&c, 1.0), (false, hit + 1));
        }
    }

    #[test]
    fn nan_candidate_never_abandons_in_either_kernel() {
        // `NaN - x` is NaN and `NaN > eps` is false, so a NaN difference can
        // never trigger an abandon; both kernels must agree on that.
        let q = [1.0, 2.0, 3.0, 4.0, 5.0];
        let c = [1.0, f64::NAN, 3.0, 4.0, 5.0];
        for v in [Verifier::new(&q), Verifier::new_sequential(&q)] {
            assert!(v.is_twin(&c, 0.1));
            assert!(v.is_twin_blockwise(&c, 0.1));
        }
    }
}
