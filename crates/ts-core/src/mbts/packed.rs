//! Packed MBTS envelopes and the slice kernels over them.
//!
//! An owned [`Mbts`] keeps its two bounds in two heap vectors; a tree that
//! holds thousands of envelopes stores them **packed** instead, one
//! fixed-length slot of [`packed_len`]`(l) = 2·l` values per envelope inside
//! one flat buffer.  Inside a slot the bounds are interleaved in blocks of
//! [`LANES`] timestamps — the block's upper bounds, then its lower bounds —
//! so everything a block check needs sits in two adjacent cache lines and an
//! early abandon touches only the head of the slot:
//!
//! ```text
//! | u0 … u7 | l0 … l7 | u8 … u15 | l8 … l15 | … | u96 … u99 | l96 … l99 |
//! ```
//!
//! (the last block holds the `l mod LANES` left-over timestamps, uppers first).
//!
//! Every kernel here is a plain function over slices, infallible, and
//! **bit-for-bit equal** to the scalar [`Mbts`] method it replaces — the
//! scalar methods stay as the reference the property tests compare against.
//! The per-timestamp gap is computed without branches over one block of
//! lanes (a slice-chunk form the compiler auto-vectorises) and reduced to the
//! block maximum; sums run in timestamp order, because floating-point
//! addition is not associative and the TS-Index compares expansions for
//! equality.  Lengths are a construction invariant of the caller
//! (`envelope.len() == 2 · values.len()`), checked in debug builds only.
//!
//! `NaN` never raises a gap: a `NaN` query value (or bound) counts as *inside*
//! the envelope at that timestamp, exactly as in the scalar methods, whose
//! `v > u` / `v < l` comparisons are both false for `NaN`.

use super::Mbts;
use crate::error::{Result, TsError};

/// Timestamps per block: eight `f64` lanes span one cache line per bound.
pub const LANES: usize = 8;

/// Length of the packed form of an envelope over `len` timestamps.
#[must_use]
pub const fn packed_len(len: usize) -> usize {
    2 * len
}

/// Splits one block of a packed envelope into its upper and lower halves.
#[inline(always)]
fn halves(block: &[f64]) -> (&[f64], &[f64]) {
    block.split_at(block.len() / 2)
}

#[inline(always)]
fn halves_mut(block: &mut [f64]) -> (&mut [f64], &mut [f64]) {
    block.split_at_mut(block.len() / 2)
}

/// `a` if it is positive, else `+0.0` (also for `NaN`).
#[inline(always)]
fn positive(a: f64) -> f64 {
    if a > 0.0 {
        a
    } else {
        0.0
    }
}

/// `max(a, b)` that keeps `a` when `b` is `NaN` or equal.
#[inline(always)]
fn raise(a: f64, b: f64) -> f64 {
    if b > a {
        b
    } else {
        a
    }
}

/// Equation (2) at one timestamp: how far `v` escapes `[l, u]`, `+0.0` inside.
#[inline(always)]
fn gap(v: f64, u: f64, l: f64) -> f64 {
    raise(positive(v - u), l - v)
}

/// Writes the envelope of the single sequence `values` (upper = lower =
/// `values`) into `envelope`.
pub fn pack_sequence(values: &[f64], envelope: &mut [f64]) {
    debug_assert_eq!(envelope.len(), packed_len(values.len()));
    for (v, block) in values.chunks(LANES).zip(envelope.chunks_mut(2 * LANES)) {
        let (u, l) = halves_mut(block);
        u.copy_from_slice(v);
        l.copy_from_slice(v);
    }
}

/// The fused bounded scan behind [`bounded_distance`] and
/// [`bounded_distance_expansion`]: distance (Equation 2) and, when
/// `EXPANSION`, the area expansion of `values` against `envelope`, giving up
/// as soon as the running distance exceeds `bound`.
#[inline(always)]
fn scan<const EXPANSION: bool>(
    mut values: &[f64],
    mut envelope: &[f64],
    bound: f64,
) -> Option<(f64, f64)> {
    debug_assert_eq!(envelope.len(), packed_len(values.len()));
    // One running maximum per lane; every gap is a non-negative number
    // (never `NaN`), so the order the maxima are taken in does not matter.
    let mut lanes = [0.0_f64; LANES];
    let mut expansion = 0.0_f64;
    while let (Some((v, values_rest)), Some((u, lower))) = (
        values.split_first_chunk::<LANES>(),
        envelope.split_first_chunk::<LANES>(),
    ) {
        let Some((l, envelope_rest)) = lower.split_first_chunk::<LANES>() else {
            break;
        };
        let mut gaps = [0.0_f64; LANES];
        let mut beyond = false;
        let mut outside = false;
        for k in 0..LANES {
            let g = gap(v[k], u[k], l[k]);
            gaps[k] = g;
            lanes[k] = raise(lanes[k], g);
            beyond |= g > bound;
            outside |= g > 0.0;
        }
        if beyond {
            return None;
        }
        // A block inside the envelope adds only zeros (`x + 0.0 == x` for
        // the non-negative sum here); the others add in timestamp order.
        if EXPANSION && outside {
            for g in gaps {
                expansion += g;
            }
        }
        values = values_rest;
        envelope = envelope_rest;
    }
    let mut distance = lanes.iter().fold(0.0_f64, |m, &g| raise(m, g));
    let (u, l) = halves(envelope);
    for ((&v, &u), &l) in values.iter().zip(u).zip(l) {
        let g = gap(v, u, l);
        distance = raise(distance, g);
        if EXPANSION {
            expansion += g;
        }
    }
    if distance > bound {
        return None;
    }
    Some((distance, expansion))
}

/// Equation (2) with early abandoning: the distance between `values` and the
/// packed `envelope` if it is at most `bound`, `None` as soon as the gap at
/// some timestamp exceeds `bound` (strictly).
///
/// With `bound = ε` this is the Lemma 1 pruning check of Algorithm 1:
/// `None` means no sequence inside the envelope can be a twin of `values`.
/// Equals [`Mbts::distance_to_sequence`] bit for bit when `Some`.
#[must_use]
pub fn bounded_distance(values: &[f64], envelope: &[f64], bound: f64) -> Option<f64> {
    scan::<false>(values, envelope, bound).map(|(distance, _)| distance)
}

/// [`bounded_distance`] fused with the area expansion enclosing `values`
/// would cause: `Some((distance, expansion))`, equal bit for bit to
/// ([`Mbts::distance_to_sequence`], [`Mbts::expansion_for_sequence`]), or
/// `None` once the distance exceeds `bound`.
///
/// The TS-Index descent scores a child with `bound` = the best distance seen
/// so far: a child that is abandoned is strictly farther than the best and
/// can never be chosen, a child that ties survives with its exact expansion.
#[must_use]
pub fn bounded_distance_expansion(
    values: &[f64],
    envelope: &[f64],
    bound: f64,
) -> Option<(f64, f64)> {
    scan::<true>(values, envelope, bound)
}

/// The increase in total area that enclosing `values` would cause to the
/// packed `envelope` ([`Mbts::expansion_for_sequence`]), summed in timestamp
/// order.
#[must_use]
pub fn sequence_expansion(envelope: &[f64], values: &[f64]) -> f64 {
    debug_assert_eq!(envelope.len(), packed_len(values.len()));
    let mut expansion = 0.0_f64;
    for (v, block) in values.chunks(LANES).zip(envelope.chunks(2 * LANES)) {
        let (u, l) = halves(block);
        for ((&v, &u), &l) in v.iter().zip(u).zip(l) {
            expansion += gap(v, u, l);
        }
    }
    expansion
}

/// Expands the packed `envelope` so it also encloses `values`
/// ([`Mbts::expand_with_sequence`]).
pub fn expand_with_sequence(envelope: &mut [f64], values: &[f64]) {
    debug_assert_eq!(envelope.len(), packed_len(values.len()));
    for (v, block) in values.chunks(LANES).zip(envelope.chunks_mut(2 * LANES)) {
        let (u, l) = halves_mut(block);
        for ((&v, u), l) in v.iter().zip(u).zip(l) {
            *u = raise(*u, v);
            if v < *l {
                *l = v;
            }
        }
    }
}

/// Expands the packed `envelope` so it also encloses `other`
/// ([`Mbts::expand_with_mbts`]).
pub fn expand_with_envelope(envelope: &mut [f64], other: &[f64]) {
    debug_assert_eq!(envelope.len(), other.len());
    for (block, other) in envelope.chunks_mut(2 * LANES).zip(other.chunks(2 * LANES)) {
        let (u, l) = halves_mut(block);
        let (ou, ol) = halves(other);
        for (u, &ou) in u.iter_mut().zip(ou) {
            *u = raise(*u, ou);
        }
        for (l, &ol) in l.iter_mut().zip(ol) {
            if ol < *l {
                *l = ol;
            }
        }
    }
}

/// Equation (3): the largest gap between two packed envelopes, `0` where
/// they overlap ([`Mbts::distance_to_mbts`]).  Lanes accumulate
/// independently; a maximum does not depend on the order it is taken in.
#[must_use]
pub fn envelope_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0_f64; LANES];
    for (a, b) in a.chunks(2 * LANES).zip(b.chunks(2 * LANES)) {
        let (au, al) = halves(a);
        let (bu, bl) = halves(b);
        for (k, lane) in lanes.iter_mut().enumerate().take(au.len()) {
            *lane = raise(*lane, raise(positive(al[k] - bu[k]), bl[k] - au[k]));
        }
    }
    lanes.iter().fold(0.0_f64, |m, &d| raise(m, d))
}

/// The increase in total area that enclosing `other` would cause to
/// `envelope` ([`Mbts::expansion_for_mbts`]), summed in timestamp order.
#[must_use]
pub fn envelope_expansion(envelope: &[f64], other: &[f64]) -> f64 {
    debug_assert_eq!(envelope.len(), other.len());
    let mut expansion = 0.0_f64;
    for (block, other) in envelope.chunks(2 * LANES).zip(other.chunks(2 * LANES)) {
        let (u, l) = halves(block);
        let (ou, ol) = halves(other);
        for (((u, l), ou), ol) in u.iter().zip(l).zip(ou).zip(ol) {
            expansion += positive(ou - u);
            expansion += positive(l - ol);
        }
    }
    expansion
}

/// `true` unless `inner` escapes `outer` at some timestamp (upper above
/// upper, or lower below lower).
#[must_use]
pub fn encloses(outer: &[f64], inner: &[f64]) -> bool {
    debug_assert_eq!(outer.len(), inner.len());
    outer
        .chunks(2 * LANES)
        .zip(inner.chunks(2 * LANES))
        .all(|(outer, inner)| {
            let (ou, ol) = halves(outer);
            let (iu, il) = halves(inner);
            !iu.iter().zip(ou).any(|(i, o)| i > o) && !il.iter().zip(ol).any(|(i, o)| i < o)
        })
}

/// Total area `Σ_i (upper_i − lower_i)` of a packed envelope
/// ([`Mbts::area`]), summed in timestamp order.
#[must_use]
pub fn area(envelope: &[f64]) -> f64 {
    envelope
        .chunks(2 * LANES)
        .flat_map(|block| {
            let (u, l) = halves(block);
            u.iter().zip(l).map(|(u, l)| u - l)
        })
        .sum()
}

impl Mbts {
    /// Writes this envelope in packed form into `envelope`
    /// (`packed_len(self.len())` values).
    pub fn pack_into(&self, envelope: &mut [f64]) {
        debug_assert_eq!(envelope.len(), packed_len(self.len()));
        for ((u, l), block) in self
            .upper
            .chunks(LANES)
            .zip(self.lower.chunks(LANES))
            .zip(envelope.chunks_mut(2 * LANES))
        {
            let (bu, bl) = halves_mut(block);
            bu.copy_from_slice(u);
            bl.copy_from_slice(l);
        }
    }

    /// Reads an owned envelope back out of its packed form.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty or odd-length slot and for bounds
    /// [`Mbts::from_bounds`] rejects.
    pub fn from_packed(envelope: &[f64]) -> Result<Self> {
        if !envelope.len().is_multiple_of(2) {
            return Err(TsError::InvalidParameter(
                "packed MBTS must hold an even number of values".into(),
            ));
        }
        let mut upper = Vec::with_capacity(envelope.len() / 2);
        let mut lower = Vec::with_capacity(envelope.len() / 2);
        for block in envelope.chunks(2 * LANES) {
            let (u, l) = halves(block);
            upper.extend_from_slice(u);
            lower.extend_from_slice(l);
        }
        Self::from_bounds(upper, lower)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 19-timestamp envelope (two full blocks and a remainder of three)
    /// and its packed form.
    fn sample() -> (Mbts, Vec<f64>) {
        let a: Vec<f64> = (0..19).map(|i| (i as f64 * 0.7).sin() * 3.0).collect();
        let b: Vec<f64> = (0..19)
            .map(|i| (i as f64 * 0.4).cos() * 2.0 + 0.5)
            .collect();
        let mbts = Mbts::from_sequences(&[a, b]).unwrap();
        let mut packed = vec![0.0; packed_len(19)];
        mbts.pack_into(&mut packed);
        (mbts, packed)
    }

    #[test]
    fn layout_interleaves_blocks_of_lanes() {
        let upper: Vec<f64> = (0..10).map(|i| 100.0 + i as f64).collect();
        let lower: Vec<f64> = (0..10).map(f64::from).collect();
        let mbts = Mbts::from_bounds(upper, lower).unwrap();
        let mut packed = vec![0.0; packed_len(10)];
        mbts.pack_into(&mut packed);
        assert_eq!(&packed[..8], &mbts.upper()[..8]);
        assert_eq!(&packed[8..16], &mbts.lower()[..8]);
        assert_eq!(&packed[16..18], &mbts.upper()[8..]);
        assert_eq!(&packed[18..], &mbts.lower()[8..]);
        assert_eq!(Mbts::from_packed(&packed).unwrap(), mbts);
        assert!(Mbts::from_packed(&packed[..3]).is_err());
        assert!(Mbts::from_packed(&[]).is_err());
    }

    #[test]
    fn pack_sequence_is_a_degenerate_envelope() {
        let values: Vec<f64> = (0..11).map(|i| f64::from(i) - 4.5).collect();
        let mut packed = vec![0.0; packed_len(11)];
        pack_sequence(&values, &mut packed);
        assert_eq!(
            Mbts::from_packed(&packed).unwrap(),
            Mbts::from_sequence(&values).unwrap()
        );
        assert_eq!(area(&packed), 0.0);
    }

    #[test]
    fn bounded_scan_matches_scalar_and_abandons_strictly() {
        let (mbts, packed) = sample();
        let q: Vec<f64> = (0..19).map(|i| (i as f64 * 0.3).sin() * 4.0).collect();
        let d = mbts.distance_to_sequence(&q);
        let e = mbts.expansion_for_sequence(&q);
        assert!(d > 0.0);
        assert_eq!(
            bounded_distance_expansion(&q, &packed, f64::INFINITY),
            Some((d, e))
        );
        // Strict: a bound equal to the distance does not abandon.
        assert_eq!(bounded_distance_expansion(&q, &packed, d), Some((d, e)));
        assert_eq!(bounded_distance(&q, &packed, d), Some(d));
        assert_eq!(bounded_distance(&q, &packed, d * 0.999), None);
        assert_eq!(bounded_distance_expansion(&q, &packed, 0.0), None);
        // A sequence inside the envelope is at distance 0 for every bound
        // that is not negative.
        let inside = mbts.lower().to_vec();
        assert_eq!(
            bounded_distance_expansion(&inside, &packed, 0.0),
            Some((0.0, 0.0))
        );
        assert_eq!(bounded_distance(&inside, &packed, -1.0), None);
    }

    #[test]
    fn nan_query_value_counts_as_inside() {
        let (mbts, packed) = sample();
        let mut q = mbts.upper().to_vec();
        q[3] = f64::NAN;
        q[17] = f64::NAN;
        assert_eq!(mbts.distance_to_sequence(&q), 0.0);
        assert_eq!(
            bounded_distance_expansion(&q, &packed, 0.0),
            Some((0.0, 0.0))
        );
    }

    #[test]
    fn expansion_kernels_match_scalar() {
        let (mut mbts, mut packed) = sample();
        let q: Vec<f64> = (0..19).map(|i| (i as f64 * 1.3).cos() * 5.0).collect();
        assert_eq!(
            sequence_expansion(&packed, &q),
            mbts.expansion_for_sequence(&q)
        );
        expand_with_sequence(&mut packed, &q);
        mbts.expand_with_sequence(&q).unwrap();
        assert_eq!(Mbts::from_packed(&packed).unwrap(), mbts);
        assert_eq!(area(&packed), mbts.area());

        let other = Mbts::from_sequences(&[
            (0..19)
                .map(|i| f64::from(i) * 0.5 - 2.0)
                .collect::<Vec<_>>(),
            (0..19).map(|i| 6.0 - f64::from(i) * 0.25).collect(),
        ])
        .unwrap();
        let mut other_packed = vec![0.0; packed_len(19)];
        other.pack_into(&mut other_packed);
        assert_eq!(
            envelope_distance(&packed, &other_packed),
            mbts.distance_to_mbts(&other)
        );
        assert_eq!(
            envelope_expansion(&packed, &other_packed),
            mbts.expansion_for_mbts(&other)
        );
        assert!(!encloses(&packed, &other_packed));
        expand_with_envelope(&mut packed, &other_packed);
        mbts.expand_with_mbts(&other).unwrap();
        assert_eq!(Mbts::from_packed(&packed).unwrap(), mbts);
        assert!(encloses(&packed, &other_packed));
        assert_eq!(envelope_distance(&packed, &other_packed), 0.0);
    }
}
