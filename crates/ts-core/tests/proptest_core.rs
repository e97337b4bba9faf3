//! Property-based tests for the core primitives: metric axioms, the
//! Chebyshev↔Euclidean threshold relation, MBTS invariants, SAX/PAA bounds and
//! verification equivalence.

use proptest::collection::vec;
use proptest::prelude::*;
use ts_core::distance::{chebyshev, chebyshev_within, euclidean, lp_distance};
use ts_core::mbts::{packed, Mbts};
use ts_core::normalize::znormalize;
use ts_core::paa::paa;
use ts_core::sax::{Breakpoints, SaxWord};
use ts_core::stats::{mean, rolling_mean, rolling_mean_std, std_dev};
use ts_core::twin::{are_twins, euclidean_threshold_for};
use ts_core::verify::Verifier;

fn finite_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    vec(-1e6_f64..1e6_f64, len)
}

fn paired_vecs() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (2usize..64).prop_flat_map(|n| (vec(-1e3_f64..1e3_f64, n..=n), vec(-1e3_f64..1e3_f64, n..=n)))
}

proptest! {
    #[test]
    fn chebyshev_is_a_metric((a, b) in paired_vecs()) {
        let d_ab = chebyshev(&a, &b).unwrap();
        let d_ba = chebyshev(&b, &a).unwrap();
        prop_assert!(d_ab >= 0.0);
        prop_assert!((d_ab - d_ba).abs() < 1e-9);
        prop_assert_eq!(chebyshev(&a, &a).unwrap(), 0.0);
    }

    #[test]
    fn chebyshev_triangle_inequality(n in 2usize..32,
                                     seed_a in vec(-100.0_f64..100.0, 32),
                                     seed_b in vec(-100.0_f64..100.0, 32),
                                     seed_c in vec(-100.0_f64..100.0, 32)) {
        let a = &seed_a[..n];
        let b = &seed_b[..n];
        let c = &seed_c[..n];
        let ab = chebyshev(a, b).unwrap();
        let bc = chebyshev(b, c).unwrap();
        let ac = chebyshev(a, c).unwrap();
        prop_assert!(ac <= ab + bc + 1e-9);
    }

    #[test]
    fn chebyshev_bounds_euclidean((a, b) in paired_vecs()) {
        let cheb = chebyshev(&a, &b).unwrap();
        let euc = euclidean(&a, &b).unwrap();
        let l = a.len() as f64;
        prop_assert!(cheb <= euc + 1e-9);
        prop_assert!(euc <= cheb * l.sqrt() + 1e-9);
    }

    #[test]
    fn twins_imply_euclidean_threshold((a, b) in paired_vecs(), eps in 0.01_f64..100.0) {
        // No false negatives under the eps' = eps * sqrt(l) relation (§3.1).
        if are_twins(&a, &b, eps) {
            let ed = euclidean(&a, &b).unwrap();
            prop_assert!(ed <= euclidean_threshold_for(eps, a.len()) + 1e-9);
        }
    }

    #[test]
    fn chebyshev_within_matches_full_distance((a, b) in paired_vecs(), eps in 0.0_f64..2000.0) {
        let within = chebyshev_within(&a, &b, eps);
        let full = chebyshev(&a, &b).unwrap();
        prop_assert_eq!(within, full <= eps);
    }

    #[test]
    fn lp_is_monotone_nonincreasing_in_p((a, b) in paired_vecs()) {
        let p1 = lp_distance(&a, &b, 1.0).unwrap();
        let p2 = lp_distance(&a, &b, 2.0).unwrap();
        let p4 = lp_distance(&a, &b, 4.0).unwrap();
        let pinf = lp_distance(&a, &b, f64::INFINITY).unwrap();
        prop_assert!(p2 <= p1 + 1e-6);
        prop_assert!(p4 <= p2 + 1e-6);
        prop_assert!(pinf <= p4 + 1e-6);
    }

    #[test]
    fn znormalize_has_zero_mean_unit_std(v in finite_vec(4..128)) {
        let z = znormalize(&v);
        prop_assert!(mean(&z).abs() < 1e-6);
        let s = std_dev(&z);
        // Constant inputs z-normalise to all-zeros (std 0), otherwise unit std.
        prop_assert!(s.abs() < 1e-6 || (s - 1.0).abs() < 1e-6);
    }

    #[test]
    fn rolling_stats_match_naive(v in finite_vec(8..200), w in 1usize..16) {
        prop_assume!(w <= v.len());
        let means = rolling_mean(&v, w);
        let both = rolling_mean_std(&v, w);
        prop_assert_eq!(means.len(), v.len() - w + 1);
        // Tolerance scales with magnitude: the rolling sum-of-squares variance
        // suffers catastrophic cancellation when |values| is large relative to
        // the spread, which is exactly why the two-pass form exists for tests.
        let max_abs = v.iter().fold(1.0_f64, |m, x| m.max(x.abs()));
        let tol = 1e-7 * max_abs;
        for i in 0..means.len() {
            let window = &v[i..i + w];
            prop_assert!((means[i] - mean(window)).abs() < tol);
            prop_assert!((both[i].0 - mean(window)).abs() < tol);
            prop_assert!((both[i].1 - std_dev(window)).abs() < tol.max(1e-6 * max_abs));
        }
    }

    #[test]
    fn paa_values_lie_within_min_max(v in finite_vec(4..128), m in 1usize..16) {
        prop_assume!(m <= v.len());
        let p = paa(&v, m).unwrap();
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(p.len(), m);
        for x in p {
            prop_assert!(x >= lo - 1e-6 && x <= hi + 1e-6);
        }
    }

    #[test]
    fn twins_have_close_paa_means((a, b) in paired_vecs(), eps in 0.01_f64..50.0, m in 1usize..8) {
        // Segment-wise mean property behind the iSAX pruning rule (§4.2).
        prop_assume!(m <= a.len());
        if are_twins(&a, &b, eps) {
            let pa = paa(&a, m).unwrap();
            let pb = paa(&b, m).unwrap();
            for (x, y) in pa.iter().zip(&pb) {
                prop_assert!((x - y).abs() <= eps + 1e-9);
            }
        }
    }

    #[test]
    fn sax_symbol_ranges_contain_their_means(v in finite_vec(8..64), m in 1usize..8) {
        prop_assume!(m <= v.len());
        let z = znormalize(&v);
        let bp = Breakpoints::gaussian(16).unwrap();
        let means = paa(&z, m).unwrap();
        let word = SaxWord::from_paa(&means, &bp);
        for (mean_val, &symbol) in means.iter().zip(word.symbols()) {
            let (lo, hi) = bp.symbol_range(symbol);
            prop_assert!(*mean_val >= lo && *mean_val <= hi);
        }
    }

    #[test]
    fn mbts_encloses_all_members(seqs in vec(vec(-100.0_f64..100.0, 8..=8), 1..12)) {
        let m = Mbts::from_sequences(&seqs).unwrap();
        for s in &seqs {
            prop_assert!(m.contains(s));
            prop_assert_eq!(m.distance_to_sequence(s), 0.0);
        }
        for i in 0..8 {
            prop_assert!(m.lower()[i] <= m.upper()[i]);
        }
    }

    #[test]
    fn mbts_lemma_1(seqs in vec(vec(-50.0_f64..50.0, 10..=10), 1..8),
                    offsets in vec(-0.5_f64..0.5, 10..=10),
                    pick in 0usize..8) {
        // Build a query that is a twin of one indexed sequence; Lemma 1 says
        // the node's MBTS distance to the query cannot exceed eps.
        let eps = 0.5;
        let m = Mbts::from_sequences(&seqs).unwrap();
        let s = &seqs[pick % seqs.len()];
        let q: Vec<f64> = s.iter().zip(&offsets).map(|(v, o)| v + o).collect();
        prop_assert!(are_twins(&q, s, eps));
        prop_assert!(m.distance_to_sequence(&q) <= eps + 1e-9);
    }

    #[test]
    fn mbts_distance_lower_bounds_member_chebyshev(
        seqs in vec(vec(-50.0_f64..50.0, 6..=6), 1..8),
        q in vec(-60.0_f64..60.0, 6..=6)
    ) {
        // d(Q, B) is a lower bound of the Chebyshev distance from Q to any
        // enclosed sequence — the filtering guarantee of the TS-Index.
        let m = Mbts::from_sequences(&seqs).unwrap();
        let bound = m.distance_to_sequence(&q);
        for s in &seqs {
            let d = chebyshev(&q, s).unwrap();
            prop_assert!(bound <= d + 1e-9);
        }
    }

    #[test]
    fn mbts_expansion_consistency(seqs in vec(vec(-50.0_f64..50.0, 6..=6), 1..6),
                                  extra in vec(-60.0_f64..60.0, 6..=6)) {
        let mut m = Mbts::from_sequences(&seqs).unwrap();
        let before = m.area();
        let predicted = m.expansion_for_sequence(&extra);
        m.expand_with_sequence(&extra).unwrap();
        prop_assert!((m.area() - (before + predicted)).abs() < 1e-6);
        prop_assert!(m.contains(&extra));
    }

    // The packed kernels the TS-Index runs are the scalar `Mbts` methods, bit
    // for bit, at every length 1..=130 (every remainder of the 8-lane block),
    // for hostile query values, and with the abandon strictly beyond `bound`.
    #[test]
    fn packed_sequence_kernels_equal_scalar_mbts(
        members in vec(vec(-50.0_f64..50.0, 130..=130), 1..5),
        query in vec(-60.0_f64..60.0, 130..=130),
        hostile in vec(0u32..24, 130..=130),
    ) {
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // A few timestamps of the query become NaN / +inf / -inf.
        let query: Vec<f64> = query
            .iter()
            .zip(&hostile)
            .map(|(&v, &kind)| match kind {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => v,
            })
            .collect();
        for len in 1..=130usize {
            let sliced: Vec<&[f64]> = members.iter().map(|m| &m[..len]).collect();
            let mbts = Mbts::from_sequences(&sliced).unwrap();
            let mut envelope = vec![0.0; packed::packed_len(len)];
            mbts.pack_into(&mut envelope);
            prop_assert_eq!(&Mbts::from_packed(&envelope).unwrap(), &mbts);

            // Hostile queries on even lengths, the finite ones on odd.
            let q: Vec<f64> = if len % 2 == 0 {
                query[..len].to_vec()
            } else {
                query[..len].iter().map(|v| if v.is_finite() { *v } else { 0.25 }).collect()
            };
            let distance = mbts.distance_to_sequence(&q);
            let expansion = mbts.expansion_for_sequence(&q);
            prop_assert_eq!(
                packed::sequence_expansion(&envelope, &q).to_bits(),
                expansion.to_bits()
            );

            let mut bounds = vec![0.0, f64::INFINITY, distance, -1.0];
            if distance > 0.0 && distance.is_finite() {
                // The largest bound that must still abandon.
                bounds.push(f64::from_bits(distance.to_bits() - 1));
                bounds.push(distance / 2.0);
                bounds.push(distance * 2.0);
            }
            for bound in bounds {
                let fused = packed::bounded_distance_expansion(&q, &envelope, bound);
                let plain = packed::bounded_distance(&q, &envelope, bound);
                // Abandoned exactly when the true distance exceeds the bound.
                prop_assert_eq!(fused.is_none(), distance > bound, "len {} bound {}", len, bound);
                prop_assert_eq!(plain.is_none(), distance > bound);
                prop_assert_eq!(
                    mbts.exceeds_threshold(&q, bound),
                    distance > bound,
                    "the scalar early-abandon check agrees"
                );
                if let Some((d, e)) = fused {
                    prop_assert_eq!(d.to_bits(), distance.to_bits(), "len {} bound {}", len, bound);
                    prop_assert_eq!(e.to_bits(), expansion.to_bits(), "len {} bound {}", len, bound);
                    prop_assert_eq!(plain.map(f64::to_bits), Some(distance.to_bits()));
                }
            }

            // A NaN query timestamp counts as inside the envelope: it changes
            // neither result (docs/verification.md).
            let mut with_nan = q.clone();
            with_nan[len / 2] = f64::NAN;
            let mut without = q.clone();
            without[len / 2] = mbts.upper()[len / 2];
            prop_assert_eq!(
                packed::bounded_distance_expansion(&with_nan, &envelope, f64::INFINITY)
                    .map(|(d, e)| (d.to_bits(), e.to_bits())),
                packed::bounded_distance_expansion(&without, &envelope, f64::INFINITY)
                    .map(|(d, e)| (d.to_bits(), e.to_bits()))
            );

            // Expanding by a sequence; a sequence's own envelope.
            let mut expanded = mbts.clone();
            expanded.expand_with_sequence(&q).unwrap();
            packed::expand_with_sequence(&mut envelope, &q);
            let unpacked = Mbts::from_packed(&envelope).unwrap();
            prop_assert_eq!(bits(unpacked.upper()), bits(expanded.upper()));
            prop_assert_eq!(bits(unpacked.lower()), bits(expanded.lower()));
            let finite = &members[0][..len];
            packed::pack_sequence(finite, &mut envelope);
            prop_assert_eq!(
                &Mbts::from_packed(&envelope).unwrap(),
                &Mbts::from_sequence(finite).unwrap()
            );
        }
    }

    #[test]
    fn packed_envelope_kernels_equal_scalar_mbts(
        members_a in vec(vec(-50.0_f64..50.0, 130..=130), 1..4),
        members_b in vec(vec(-50.0_f64..50.0, 130..=130), 1..4),
        shift in -120.0_f64..120.0,
    ) {
        for len in 1..=130usize {
            let a = Mbts::from_sequences(
                &members_a.iter().map(|m| &m[..len]).collect::<Vec<_>>()
            ).unwrap();
            // Shifted so the pair ranges from nested to far apart.
            let b = Mbts::from_sequences(
                &members_b
                    .iter()
                    .map(|m| m[..len].iter().map(|v| v + shift).collect::<Vec<f64>>())
                    .collect::<Vec<_>>()
            ).unwrap();
            let mut pa = vec![0.0; packed::packed_len(len)];
            let mut pb = vec![0.0; packed::packed_len(len)];
            a.pack_into(&mut pa);
            b.pack_into(&mut pb);

            prop_assert_eq!(
                packed::envelope_distance(&pa, &pb).to_bits(),
                a.distance_to_mbts(&b).to_bits()
            );
            prop_assert_eq!(
                packed::envelope_distance(&pb, &pa).to_bits(),
                b.distance_to_mbts(&a).to_bits()
            );
            prop_assert_eq!(
                packed::envelope_expansion(&pa, &pb).to_bits(),
                a.expansion_for_mbts(&b).to_bits()
            );
            prop_assert_eq!(packed::area(&pa).to_bits(), a.area().to_bits());
            let enclosed = (0..len)
                .all(|i| b.upper()[i] <= a.upper()[i] && b.lower()[i] >= a.lower()[i]);
            prop_assert_eq!(packed::encloses(&pa, &pb), enclosed);

            let mut union = a.clone();
            union.expand_with_mbts(&b).unwrap();
            packed::expand_with_envelope(&mut pa, &pb);
            prop_assert_eq!(&Mbts::from_packed(&pa).unwrap(), &union);
            prop_assert!(packed::encloses(&pa, &pb));
            prop_assert_eq!(packed::envelope_expansion(&pa, &pb), 0.0);
        }
    }

    #[test]
    fn verifier_orders_agree((a, b) in paired_vecs(), eps in 0.0_f64..100.0) {
        let reordered = Verifier::new(&a);
        let sequential = Verifier::new_sequential(&a);
        prop_assert_eq!(reordered.is_twin(&b, eps), sequential.is_twin(&b, eps));
        prop_assert_eq!(reordered.is_twin(&b, eps), are_twins(&a, &b, eps));
        prop_assert!((reordered.chebyshev(&b) - chebyshev(&a, &b).unwrap()).abs() < 1e-12);
    }
}
