//! Property tests for the unified verification pipeline: for random series
//! and deliberately messy candidate sets (duplicated, unsorted, with
//! adjacent overlapping windows), `Pipeline::verify_into` must answer
//! exactly like naive per-candidate verification on **every** store backend;
//! every method on every backend must agree with a brute-force scan; and a
//! coalesced run on the block-cached store must cost exactly one physical
//! read per uncached block.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::collection::vec as pvec;
use proptest::prelude::*;

use ts_core::pipeline::{CandidateSet, Pipeline, VerifyOptions};
use ts_core::verify::Verifier;
use ts_storage::{
    plan_verify_options, write_series, BlockCacheConfig, BlockCachedSeries, DiskSeries,
    InMemorySeries, MmapSeries, PerSubsequenceNormalized, Result as StorageResult,
};
use twin_search::{are_twins, Engine, EngineConfig, Method, Normalization, SeriesStore, StoreKind};

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A temporary series file, removed on drop.
struct TempSeries {
    path: std::path::PathBuf,
}

impl TempSeries {
    fn write(values: &[f64]) -> Self {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "twin_pipeline_it_{}_{}.bin",
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        write_series(&path, values).unwrap();
        Self { path }
    }
}

impl Drop for TempSeries {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// A strategy producing a series of 200–500 smooth-ish values (random walk
/// steps bounded to keep Chebyshev thresholds meaningful).
fn series_strategy() -> impl Strategy<Value = Vec<f64>> {
    (200usize..500, pvec(-1.0_f64..1.0, 500)).prop_map(|(n, steps)| {
        let mut x = 0.0;
        steps
            .into_iter()
            .take(n)
            .map(|s| {
                x += s;
                x
            })
            .collect()
    })
}

/// Naive reference: sort + dedup, then one window read and one scalar
/// Chebyshev check per candidate.
fn naive_verify(values: &[f64], query: &[f64], epsilon: f64, candidates: &[u32]) -> Vec<usize> {
    let mut sorted: Vec<u32> = candidates.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let verifier = Verifier::new(query);
    sorted
        .into_iter()
        .map(|p| p as usize)
        .filter(|&p| verifier.is_twin(&values[p..p + query.len()], epsilon))
        .collect()
}

/// Runs the pipeline over `store` and returns the accepted positions.
fn pipeline_verify<S: SeriesStore>(
    store: &S,
    query: &[f64],
    epsilon: f64,
    candidates: &[u32],
) -> StorageResult<(Vec<usize>, usize)> {
    let pipeline = Pipeline::new(query, epsilon);
    let mut set = CandidateSet::new();
    set.extend_from_slice(candidates);
    let mut out = Vec::new();
    let report = pipeline.verify_into(
        &mut set,
        |start, buf| store.read_range_into(start, buf),
        VerifyOptions::exhaustive(false).with_coalesce(store.range_reads_are_slices()),
        &mut out,
    )?;
    Ok((out, report.runs))
}

/// Naive reference for the per-subsequence regime: one normalised
/// window-sized read through the store per candidate, then a scalar check.
fn naive_normalized_verify<S: SeriesStore>(
    store: &PerSubsequenceNormalized<S>,
    query: &[f64],
    epsilon: f64,
    candidates: &[u32],
) -> Vec<usize> {
    let mut sorted: Vec<u32> = candidates.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let verifier = Verifier::new(query);
    let mut buf = vec![0.0; query.len()];
    sorted
        .into_iter()
        .map(|p| p as usize)
        .filter(|&p| {
            store.read_into(p, &mut buf).unwrap();
            verifier.is_twin(&buf, epsilon)
        })
        .collect()
}

/// The shipped path for the per-subsequence regime: coalesced **raw** run
/// reads with in-pipeline rolling normalisation.
fn rolling_pipeline_verify<S: SeriesStore>(
    store: &PerSubsequenceNormalized<S>,
    query: &[f64],
    epsilon: f64,
    candidates: &[u32],
) -> StorageResult<(Vec<usize>, usize, usize)> {
    let pipeline = Pipeline::new(query, epsilon);
    let mut set = CandidateSet::new();
    set.extend_from_slice(candidates);
    let mut out = Vec::new();
    let options = plan_verify_options(store, VerifyOptions::exhaustive(false));
    assert!(options.coalesce && options.rolling_norm);
    let report = pipeline.verify_into(
        &mut set,
        |start, buf| store.read_raw_range_into(start, buf),
        options,
        &mut out,
    )?;
    Ok((out, report.runs, report.verified))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole equivalence: the run-coalescing pipeline answers exactly
    /// like per-candidate verification on every backend, for candidate sets
    /// containing duplicates, unsorted positions and adjacent overlapping
    /// windows.
    #[test]
    fn pipeline_matches_naive_on_every_backend(
        values in series_strategy(),
        raw_candidates in pvec(0usize..100_000, 1..80),
        len_frac in 0.05_f64..0.3,
        query_frac in 0.0_f64..1.0,
        eps in 0.05_f64..1.5,
    ) {
        let n = values.len();
        let len = ((n as f64 * len_frac) as usize).clamp(4, n / 2);
        let max_start = n - len;
        // Duplicates arise from the modulo fold; adjacent overlapping
        // windows are added explicitly next to every candidate.
        let mut candidates: Vec<u32> = raw_candidates
            .iter()
            .map(|&c| (c % (max_start + 1)) as u32)
            .collect();
        for i in 0..candidates.len() {
            let next = (candidates[i] as usize + 1).min(max_start) as u32;
            candidates.push(next);
        }
        let q_start = (query_frac * max_start as f64) as usize;
        let query = values[q_start..q_start + len].to_vec();

        let expected = naive_verify(&values, &query, eps, &candidates);

        let mem = InMemorySeries::new(values.clone()).unwrap();
        let (got, runs) = pipeline_verify(&mem, &query, eps, &candidates).unwrap();
        prop_assert_eq!(&got, &expected, "memory");
        // Dedup happened: never more runs than distinct candidates.
        let mut distinct = candidates.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert!(runs <= distinct.len());

        let file = TempSeries::write(&values);
        let disk = DiskSeries::open(&file.path).unwrap();
        prop_assert_eq!(&pipeline_verify(&disk, &query, eps, &candidates).unwrap().0, &expected, "disk");
        let cached = BlockCachedSeries::open(&file.path).unwrap();
        prop_assert_eq!(&pipeline_verify(&cached, &query, eps, &candidates).unwrap().0, &expected, "disk-cached");
        let mapped = MmapSeries::open(&file.path).unwrap();
        prop_assert_eq!(&pipeline_verify(&mapped, &query, eps, &candidates).unwrap().0, &expected, "mmap");
    }

    /// Rolling-statistics equivalence (the Fig. 6 regime): verifying through
    /// a `PerSubsequenceNormalized` store with coalesced raw run reads and
    /// in-pipeline rolling normalisation answers exactly like naive
    /// per-candidate reads of store-normalised windows — on every file
    /// backend, including constant (std = 0) windows.
    #[test]
    fn rolling_normalisation_matches_per_window_reads_on_every_backend(
        values in series_strategy(),
        raw_candidates in pvec(0usize..100_000, 1..60),
        len_frac in 0.05_f64..0.25,
        query_frac in 0.0_f64..1.0,
        eps in 0.05_f64..1.5,
        const_frac in 0.0_f64..1.0,
    ) {
        let mut values = values;
        let n = values.len();
        // A constant stretch exercises the std = 0 windows of both paths.
        let c_start = (const_frac * (n - 40) as f64) as usize;
        for v in &mut values[c_start..c_start + 40] {
            *v = 3.25;
        }
        let len = ((n as f64 * len_frac) as usize).clamp(4, n / 2);
        let max_start = n - len;
        let mut candidates: Vec<u32> = raw_candidates
            .iter()
            .map(|&c| (c % (max_start + 1)) as u32)
            .collect();
        for i in 0..candidates.len() {
            let next = (candidates[i] as usize + 1).min(max_start) as u32;
            candidates.push(next);
        }
        // Candidates overlapping the constant stretch, always.
        for p in c_start.saturating_sub(2)..(c_start + 4).min(max_start + 1) {
            candidates.push(p as u32);
        }
        let q_start = (query_frac * max_start as f64) as usize;
        let query = ts_core::normalize::znormalize(&values[q_start..q_start + len]);

        let mem = PerSubsequenceNormalized::new(InMemorySeries::new(values.clone()).unwrap());
        let expected = naive_normalized_verify(&mem, &query, eps, &candidates);

        let file = TempSeries::write(&values);
        let (got, runs, verified) =
            rolling_pipeline_verify(&mem, &query, eps, &candidates).unwrap();
        prop_assert_eq!(&got, &expected, "memory");
        // The adjacent pairs injected above guarantee coalescing bites.
        prop_assert!(runs < verified, "runs {} vs verified {}", runs, verified);

        let disk = PerSubsequenceNormalized::new(DiskSeries::open(&file.path).unwrap());
        prop_assert_eq!(
            &rolling_pipeline_verify(&disk, &query, eps, &candidates).unwrap().0,
            &expected, "disk"
        );
        let cached = PerSubsequenceNormalized::new(BlockCachedSeries::open(&file.path).unwrap());
        prop_assert_eq!(
            &rolling_pipeline_verify(&cached, &query, eps, &candidates).unwrap().0,
            &expected, "disk-cached"
        );
        let mapped = PerSubsequenceNormalized::new(MmapSeries::open(&file.path).unwrap());
        prop_assert_eq!(
            &rolling_pipeline_verify(&mapped, &query, eps, &candidates).unwrap().0,
            &expected, "mmap"
        );
    }

    /// Every method on every store kind agrees with a brute-force scan of
    /// the raw values — the end-to-end byte-identical-results guarantee.
    #[test]
    fn every_method_matches_brute_force_on_every_store(
        values in series_strategy(),
        query_frac in 0.0_f64..1.0,
        eps in 0.1_f64..1.0,
    ) {
        let len = (values.len() / 8).clamp(8, 64);
        let max_start = values.len() - len;
        let q_start = (query_frac * max_start as f64) as usize;
        let query = values[q_start..q_start + len].to_vec();
        let expected: Vec<usize> = (0..=max_start)
            .filter(|&p| are_twins(&query, &values[p..p + len], eps))
            .collect();
        for method in Method::ALL {
            for kind in StoreKind::ALL {
                let engine = Engine::build(
                    &values,
                    EngineConfig::new(method, len)
                        .with_normalization(Normalization::None)
                        .with_store(kind),
                )
                .unwrap();
                prop_assert_eq!(
                    &engine.search(&query, eps).unwrap(),
                    &expected,
                    "{} on {}", method, kind
                );
            }
        }
    }
}

/// A coalesced run on the block-cached store costs exactly one physical read
/// per block it covers (cold cache), not one per candidate window.
#[test]
fn coalesced_run_costs_one_physical_read_per_uncached_block() {
    let block_values = 256usize;
    let values: Vec<f64> = (0..4096).map(|i| f64::from(i % 97) * 0.1).collect();
    let file = TempSeries::write(&values);
    let store = BlockCachedSeries::open_with(
        &file.path,
        BlockCacheConfig::new()
            .with_block_values(block_values)
            .with_capacity_blocks(64),
    )
    .unwrap();

    let len = 64usize;
    let first = 500usize;
    let last = 539usize;
    let query = values[first..first + len].to_vec();
    let pipeline = Pipeline::new(&query, f64::INFINITY);
    let mut set = CandidateSet::new();
    for p in first..=last {
        set.push(p as u32);
    }
    let mut out = Vec::new();
    let before = store.physical_reads();
    let report = pipeline
        .verify_into(
            &mut set,
            |start, buf| store.read_range_into(start, buf),
            VerifyOptions::exhaustive(false),
            &mut out,
        )
        .unwrap();
    let span = last + len - first;
    let expected_blocks = (last + len - 1) / block_values - first / block_values + 1;
    assert_eq!(report.runs, 1, "overlapping windows coalesce into one run");
    assert_eq!(report.verified, last - first + 1);
    assert_eq!(out.len(), last - first + 1, "ε = ∞ accepts everything");
    assert_eq!(
        store.physical_reads() - before,
        expected_blocks as u64,
        "one {span}-value run over {block_values}-value blocks"
    );

    // Re-verifying the same run is served entirely from the cache.
    let mut set = CandidateSet::new();
    for p in first..=last {
        set.push(p as u32);
    }
    let before = store.physical_reads();
    out.clear();
    pipeline
        .verify_into(
            &mut set,
            |start, buf| store.read_range_into(start, buf),
            VerifyOptions::exhaustive(false),
            &mut out,
        )
        .unwrap();
    assert_eq!(
        store.physical_reads(),
        before,
        "warm cache: zero physical reads"
    );
}

/// The acceptance criterion for rolling normalisation: a disk-backed
/// `PerSubsequenceNormalized` store answers a coalesced run through the
/// raw-range path at exactly one physical read per uncached block —
/// normalisation no longer forces one read per candidate window.
#[test]
fn normalized_coalesced_run_costs_one_physical_read_per_uncached_block() {
    let block_values = 256usize;
    let values: Vec<f64> = (0..4096)
        .map(|i| (f64::from(i) * 0.013).sin() + f64::from(i % 97) * 0.1)
        .collect();
    let file = TempSeries::write(&values);
    let store = PerSubsequenceNormalized::new(
        BlockCachedSeries::open_with(
            &file.path,
            BlockCacheConfig::new()
                .with_block_values(block_values)
                .with_capacity_blocks(64),
        )
        .unwrap(),
    );

    let len = 64usize;
    let first = 500usize;
    let last = 539usize;
    let query = ts_core::normalize::znormalize(&values[first..first + len]);
    let pipeline = Pipeline::new(&query, f64::INFINITY);
    let options = plan_verify_options(&store, VerifyOptions::exhaustive(false));
    assert!(
        options.coalesce,
        "normalised store opts back into coalescing"
    );
    assert!(
        options.rolling_norm,
        "… via in-pipeline rolling normalisation"
    );

    let mut set = CandidateSet::new();
    for p in first..=last {
        set.push(p as u32);
    }
    let mut out = Vec::new();
    let before = store.inner().physical_reads();
    let report = pipeline
        .verify_into(
            &mut set,
            |start, buf| store.read_raw_range_into(start, buf),
            options,
            &mut out,
        )
        .unwrap();
    let expected_blocks = (last + len - 1) / block_values - first / block_values + 1;
    assert_eq!(report.runs, 1, "overlapping windows coalesce into one run");
    assert_eq!(report.verified, last - first + 1);
    assert_eq!(out.len(), last - first + 1, "ε = ∞ accepts everything");
    assert_eq!(
        store.inner().physical_reads() - before,
        expected_blocks as u64,
        "one raw range read per uncached block, despite normalisation"
    );

    // And the answer matches naive per-window reads of normalised windows.
    let candidates: Vec<u32> = (first..=last).map(|p| p as u32).collect();
    assert_eq!(
        out,
        naive_normalized_verify(&store, &query, f64::INFINITY, &candidates)
    );
}
