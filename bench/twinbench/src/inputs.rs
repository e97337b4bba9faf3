//! Inputs: the dataset fixtures and everything `--seed` draws.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ts_data::{eeg_like, insect_like, GeneratorConfig};

use crate::spec::{Dataset, Workload, CHUNK, DATASET_SEED, WINDOW};

/// SplitMix64 step: decorrelates the streams drawn from one `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub const SALT_QUERIES: u64 = 1;
pub const SALT_KV_QUERIES: u64 = 2;
pub const SALT_STREAM: u64 = 3;
pub const SALT_PROBES: u64 = 4;
pub const SALT_READS: u64 = 5;
pub const SALT_READ_PROBES: u64 = 6;

fn generate(dataset: Dataset, len: usize, seed: u64) -> Vec<f64> {
    let config = GeneratorConfig::new(len, seed);
    match dataset {
        Dataset::Eeg => eeg_like(config),
        Dataset::Insect => insect_like(config),
    }
}

/// The workload's indexed series: a fixture, the same for every seed (see
/// [`DATASET_SEED`]).
pub fn dataset(workload: &Workload) -> Vec<f64> {
    generate(workload.dataset, workload.points, DATASET_SEED)
}

/// The seeded stream the ingest and serve phases append, `chunks` appends
/// long, from the same generator family as the dataset.
pub fn append_stream(workload: &Workload, seed: u64, chunks: usize) -> Vec<f64> {
    generate(workload.dataset, chunks * CHUNK, mix(seed, SALT_STREAM))
}

/// `count` seeded window starts in a series of `series_len` points, one
/// per stratum: the valid starts are cut into `count` equal ranges and the
/// seed draws one start inside each, then shuffles the order.  Every seed
/// covers every region of the series (calm stretches and high-amplitude
/// episodes cost very different query times), so the query mix, and with it
/// every latency median, changes far less from seed to seed than with
/// `count` independent draws, while every single query still follows the
/// seed.
pub fn stratified_positions(series_len: usize, count: usize, seed: u64) -> Vec<usize> {
    let starts = series_len - WINDOW + 1;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut positions: Vec<usize> = (0..count)
        .map(|i| {
            let (lo, hi) = (i * starts / count, (i + 1) * starts / count);
            if hi > lo {
                rng.gen_range(lo..hi)
            } else {
                lo.min(starts - 1)
            }
        })
        .collect();
    // Fisher-Yates: the order of issue must not follow the series.
    for i in (1..positions.len()).rev() {
        positions.swap(i, rng.gen_range(0..=i));
    }
    positions
}

/// Seeded window starts inside the tenants' base prefix: probes over the
/// base stay valid whatever has been appended since.
pub fn probe_positions(workload: &Workload, seed: u64, count: usize) -> Vec<usize> {
    stratified_positions(workload.base_points, count, mix(seed, SALT_PROBES))
}

/// The probes of the read rounds, drawn apart from the mixed ops' probes.
pub fn read_probe_positions(workload: &Workload, seed: u64, count: usize) -> Vec<usize> {
    stratified_positions(workload.base_points, count, mix(seed, SALT_READ_PROBES))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_other_inputs() {
        let w = &WORKLOADS[3];
        assert_eq!(append_stream(w, 7, 5), append_stream(w, 7, 5));
        assert_ne!(append_stream(w, 7, 5), append_stream(w, 8, 5));
        assert_eq!(probe_positions(w, 7, 50), probe_positions(w, 7, 50));
        assert_ne!(probe_positions(w, 7, 50), probe_positions(w, 8, 50));
        assert_eq!(append_stream(w, 7, 5).len(), 5 * CHUNK);
        assert!(probe_positions(w, 7, 50)
            .iter()
            .all(|&p| p + WINDOW <= w.base_points));
    }

    #[test]
    fn stratified_positions_cover_the_series_and_follow_the_seed() {
        let positions = stratified_positions(10_000, 99, 3);
        assert_eq!(positions.len(), 99);
        assert!(positions.iter().all(|&p| p + WINDOW <= 10_000));
        let mut sorted = positions.clone();
        sorted.sort_unstable();
        assert_ne!(sorted, positions, "the order of issue is shuffled");
        // One start per stratum of 100 valid starts.
        assert!(sorted
            .iter()
            .enumerate()
            .all(|(i, &p)| p / 100 == i || p == 9_900));
        assert_ne!(positions, stratified_positions(10_000, 99, 4));
        assert_eq!(positions, stratified_positions(10_000, 99, 3));
        // More draws than starts: still valid starts.
        assert!(stratified_positions(WINDOW + 3, 10, 1)
            .iter()
            .all(|&p| p < 4));
    }

    #[test]
    fn the_dataset_is_a_fixture_of_the_workload() {
        for w in &WORKLOADS {
            let series = dataset(w);
            assert_eq!(series.len(), w.points);
            assert!(w.base_points <= w.points);
            assert!(series.iter().all(|v| v.is_finite()));
        }
        assert_eq!(dataset(&WORKLOADS[0]), dataset(&WORKLOADS[0]));
        assert_ne!(dataset(&WORKLOADS[0])[..100], dataset(&WORKLOADS[1])[..100]);
    }

    #[test]
    fn mixed_seeds_differ_per_salt() {
        assert_ne!(mix(42, SALT_QUERIES), mix(42, SALT_STREAM));
        assert_ne!(mix(42, SALT_QUERIES), mix(43, SALT_QUERIES));
    }
}
