//! # ts-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (§6) on the synthetic stand-in datasets:
//!
//! | Paper artefact | Regenerated by |
//! |---|---|
//! | Table 1 / Table 2 (parameter grids) | `cargo run -p ts-bench --bin exp_params` |
//! | §1 intro experiment + Figure 1 | `exp_intro` |
//! | Figure 4 (query time vs ε, z-normalised) | `exp_fig4` + `benches/fig4_epsilon.rs` |
//! | Figure 5 (query time vs subsequence length) | `exp_fig5` + `benches/fig5_length.rs` |
//! | Figure 6 (ε, per-subsequence z-normalisation) | `exp_fig6` + `benches/fig6_znorm_subsequence.rs` |
//! | Figure 7 (ε, raw values) | `exp_fig7` + `benches/fig7_raw.rs` |
//! | Figure 8 (memory footprint, build time) | `exp_fig8` + `benches/fig8_build.rs` |
//! | design ablations (beyond the paper) | `benches/ablations.rs` |
//! | streaming ingestion (beyond the paper) | `exp_stream` → `BENCH_stream.json` |
//! | multi-tenant daemon (beyond the paper) | `exp_serve` → `BENCH_serve.json` |
//!
//! Every binary accepts `--full` (paper-scale series lengths) and
//! `--scale=<N>` (divide the paper lengths by `N`); the default scale keeps a
//! full sweep under a few minutes on a laptop.  The absolute numbers will not
//! match a 32-core Java testbed, but the *shapes* the paper reports — who
//! wins, by how much, where the curves bend — are preserved, and
//! `EXPERIMENTS.md` records both.
//!
//! The `exp_fig4` … `exp_fig8` binaries additionally write machine-readable
//! `BENCH_fig4.json` … `BENCH_fig8.json` (per-method timings plus the
//! aggregated [`twin_search::SearchStats`]) into the working directory, so
//! the repository records a perf trajectory PR-over-PR; see [`FigureReport`]
//! and the [`json`] module.  `exp_fig4` runs its disk-backed sweep once per
//! file-backed store backend (`disk`, `disk-cached`, `mmap` — every row
//! carries a `store` label) and appends a `parallel_verification` record, so
//! the JSON also tracks how each store serves the random-verification read
//! path and whether the parallel traversal actually scales past one worker.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use std::time::Instant;

use ts_data::generators::{eeg_like, insect_like, GeneratorConfig};
use twin_search::{
    Dataset, Engine, EngineConfig, Method, Normalization, QueryWorkload, SearchStats, StoreKind,
    TwinQuery,
};

use json::JsonValue;

/// Default divisor applied to the paper's dataset lengths so the harness
/// finishes quickly on a laptop (`--full` sets it to 1).
pub const DEFAULT_SCALE: usize = 8;

/// Number of queries per workload used by the harness binaries.  The paper
/// uses 100; the default here trades a little statistical smoothing for a
/// much shorter run (`--full` restores 100).
pub const DEFAULT_QUERIES: usize = 30;

/// Command-line options shared by every harness binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HarnessOptions {
    /// Divide the paper's dataset lengths by this factor.
    pub scale: usize,
    /// Number of queries per workload.
    pub queries: usize,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        Self {
            scale: DEFAULT_SCALE,
            queries: DEFAULT_QUERIES,
        }
    }
}

impl HarnessOptions {
    /// Parses `--full`, `--scale=N` and `--queries=N` from the process
    /// arguments; everything else is ignored.
    #[must_use]
    pub fn from_args() -> Self {
        Self::from_arg_list(std::env::args().skip(1))
    }

    /// Parses options from an explicit argument list (testable form of
    /// [`HarnessOptions::from_args`]).
    pub fn from_arg_list<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut options = Self::default();
        for arg in args {
            if arg == "--full" {
                options.scale = 1;
                options.queries = 100;
            } else if let Some(v) = arg.strip_prefix("--scale=") {
                if let Ok(scale) = v.parse::<usize>() {
                    options.scale = scale.max(1);
                }
            } else if let Some(v) = arg.strip_prefix("--queries=") {
                if let Ok(q) = v.parse::<usize>() {
                    options.queries = q.max(1);
                }
            }
        }
        options
    }

    /// The generated length of `dataset` under this scale.
    ///
    /// The Insect dataset (64k points) is never scaled down — it is already
    /// laptop-sized and scaling it would make the index-free sweepline look
    /// artificially competitive.  Only the 1.8M-point EEG dataset shrinks.
    #[must_use]
    pub fn dataset_len(&self, dataset: Dataset) -> usize {
        match dataset {
            Dataset::Insect => dataset.paper_len(),
            Dataset::Eeg => (dataset.paper_len() / self.scale).max(2_000),
        }
    }
}

/// Generates the synthetic stand-in for `dataset` at the configured scale.
#[must_use]
pub fn generate(dataset: Dataset, options: &HarnessOptions) -> Vec<f64> {
    let len = options.dataset_len(dataset);
    match dataset {
        Dataset::Insect => insect_like(GeneratorConfig::new(len, 0xBEE)),
        Dataset::Eeg => eeg_like(GeneratorConfig::new(len, 0xEE6)),
    }
}

/// One measured cell of a figure: a method, the swept parameter value, the
/// average query time, the average result count and the aggregated
/// execution statistics over the whole workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Method name (matches the paper's legend).
    pub method: &'static str,
    /// Store backend label the engine read from (`memory`, `disk`,
    /// `disk-cached`, `mmap`).
    pub store: &'static str,
    /// The swept parameter value (ε or l depending on the figure).
    pub parameter: f64,
    /// Average query time in milliseconds.
    pub avg_query_ms: f64,
    /// Average number of twins found per query.
    pub avg_matches: f64,
    /// Execution statistics summed over every query of the workload.
    pub stats: SearchStats,
}

impl Measurement {
    /// The measurement as a JSON object (counts are workload totals; the
    /// filter/verify split is reported in milliseconds).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("method", JsonValue::Str(self.method.to_string())),
            ("store", JsonValue::Str(self.store.to_string())),
            ("parameter", JsonValue::Num(self.parameter)),
            ("avg_query_ms", JsonValue::Num(self.avg_query_ms)),
            ("avg_matches", JsonValue::Num(self.avg_matches)),
            (
                "stats",
                JsonValue::obj(vec![
                    (
                        "candidates_generated",
                        JsonValue::Int(self.stats.candidates_generated as u64),
                    ),
                    (
                        "candidates_verified",
                        JsonValue::Int(self.stats.candidates_verified as u64),
                    ),
                    (
                        "nodes_visited",
                        JsonValue::Int(self.stats.nodes_visited as u64),
                    ),
                    (
                        "nodes_pruned",
                        JsonValue::Int(self.stats.nodes_pruned as u64),
                    ),
                    (
                        "filter_ms",
                        JsonValue::Num(self.stats.filter_time.as_secs_f64() * 1e3),
                    ),
                    (
                        "verify_ms",
                        JsonValue::Num(self.stats.verify_time.as_secs_f64() * 1e3),
                    ),
                ]),
            ),
        ])
    }
}

/// Measures `engine` over `workload` at threshold `epsilon`: returns the
/// average query time in milliseconds, the average match count, and the
/// execution statistics summed over the whole workload.
///
/// The timed pass runs *uninstrumented* count-only queries (no stats
/// collection, queries pre-built outside the timer) so `avg_query_ms`
/// measures the plain query path a real caller pays; the statistics come
/// from a second, untimed pass over the same queries.
#[must_use]
pub fn measure_queries(
    engine: &Engine,
    workload: &QueryWorkload,
    epsilon: f64,
) -> (f64, f64, SearchStats) {
    let queries: Vec<TwinQuery> = workload
        .iter()
        .map(|query| TwinQuery::new(query.to_vec(), epsilon).count_only())
        .collect();
    let mut matches = 0usize;
    let started = Instant::now();
    for query in &queries {
        matches += engine
            .execute(query)
            .expect("workload queries are valid")
            .match_count;
    }
    let elapsed = started.elapsed();
    // Separate stats pass, outside the timer (per-leaf clock reads and the
    // instrumentation bookkeeping must not pollute avg_query_ms).
    let mut stats = SearchStats::default();
    for query in queries {
        let outcome = engine
            .execute(&query.collect_stats())
            .expect("workload queries are valid");
        stats.merge(outcome.stats.expect("stats requested"));
    }
    let n = workload.count().max(1) as f64;
    (elapsed.as_secs_f64() * 1e3 / n, matches as f64 / n, stats)
}

/// Measures one engine over `workload` at threshold `epsilon`, printing the
/// row (labelled with the swept `parameter`, which is ε itself for the
/// epsilon-sweep figures and the subsequence length for Figure 5) before
/// returning it.
#[must_use]
pub fn measure_row(
    engine: &Engine,
    workload: &QueryWorkload,
    parameter: f64,
    epsilon: f64,
) -> Measurement {
    let (avg_query_ms, avg_matches, stats) = measure_queries(engine, workload, epsilon);
    let row = Measurement {
        method: engine.method().name(),
        store: engine.config().store.label(),
        parameter,
        avg_query_ms,
        avg_matches,
        stats,
    };
    print_row(&row);
    row
}

/// Measures every engine at every ε of `grid` over the same workload,
/// printing each row as it is produced.  This is the shared accumulation
/// loop of the epsilon-sweep binaries (`exp_fig4`, `exp_fig6`, `exp_fig7`);
/// the returned rows slot directly into a [`DatasetReport`].
#[must_use]
pub fn measure_grid(
    engines: &[Engine],
    workload: &QueryWorkload,
    grid: &[f64],
) -> Vec<Measurement> {
    grid.iter()
        .flat_map(|&epsilon| {
            engines
                .iter()
                .map(move |engine| measure_row(engine, workload, epsilon, epsilon))
        })
        .collect()
}

/// Builds one engine per method for the given series and parameters, with
/// the prepared series behind the readahead disk store (the sweep default;
/// see [`build_engines_with_store`]).
///
/// Methods that are inapplicable under the requested normalisation (KV-Index
/// with per-subsequence z-normalisation) are silently skipped, mirroring the
/// paper's Figure 6 which omits KV-Index.
#[must_use]
pub fn build_engines(
    series: &[f64],
    methods: &[Method],
    subsequence_len: usize,
    normalization: Normalization,
) -> Vec<Engine> {
    build_engines_with_store(
        series,
        methods,
        subsequence_len,
        normalization,
        StoreKind::Disk,
    )
}

/// [`build_engines`] with an explicit store backend choice.  Disk-backed
/// stores reproduce the paper's setup: only the index lives in memory;
/// candidate verification pays a file read, served by the chosen backend.
#[must_use]
pub fn build_engines_with_store(
    series: &[f64],
    methods: &[Method],
    subsequence_len: usize,
    normalization: Normalization,
    store: StoreKind,
) -> Vec<Engine> {
    methods
        .iter()
        .filter(|m| {
            normalization != Normalization::PerSubsequence
                || m.supports_per_subsequence_normalization()
        })
        .map(|&method| {
            let config = EngineConfig::new(method, subsequence_len)
                .with_normalization(normalization)
                .with_store(store);
            Engine::build(series, config).expect("benchmark series are valid")
        })
        .collect()
}

/// Prints a figure header in a stable, grep-friendly format.
pub fn print_header(figure: &str, dataset: Dataset, options: &HarnessOptions, extra: &str) {
    println!(
        "== {figure} | dataset={} (synthetic stand-in, {} points, scale 1/{}) | {extra}",
        dataset.name(),
        options.dataset_len(dataset),
        options.scale,
    );
    println!(
        "{:<11} {:<12} {:>12} {:>16} {:>14} {:>12} {:>12}",
        "method", "store", "param", "avg query (ms)", "avg matches", "candidates", "pruned"
    );
}

/// Prints one measurement row.
pub fn print_row(m: &Measurement) {
    println!(
        "{:<11} {:<12} {:>12} {:>16.3} {:>14.1} {:>12} {:>12}",
        m.method,
        m.store,
        m.parameter,
        m.avg_query_ms,
        m.avg_matches,
        m.stats.candidates_generated,
        m.stats.nodes_pruned,
    );
}

/// The per-dataset slice of a figure report.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetReport {
    /// Dataset name (matches the paper's tables).
    pub dataset: String,
    /// Generated series length at the measured scale.
    pub series_len: usize,
    /// One measurement per (method, parameter) cell.
    pub rows: Vec<Measurement>,
}

/// A machine-readable figure report, persisted as `BENCH_<figure>.json` so
/// the repository records a perf trajectory PR-over-PR.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureReport {
    /// Figure identifier (`fig4` … `fig8`).
    pub figure: String,
    /// Human-readable description of what is swept.
    pub title: String,
    /// Scale divisor the series lengths were generated with.
    pub scale: usize,
    /// Queries per workload.
    pub queries: usize,
    /// One entry per dataset.
    pub datasets: Vec<DatasetReport>,
    /// Additional figure-specific top-level JSON sections (e.g. the
    /// parallel-verification scaling record of `exp_fig4`).
    pub extras: Vec<(String, JsonValue)>,
}

impl FigureReport {
    /// Creates an empty report for `figure` under the given harness options.
    #[must_use]
    pub fn new(figure: &str, title: &str, options: &HarnessOptions) -> Self {
        Self {
            figure: figure.to_string(),
            title: title.to_string(),
            scale: options.scale,
            queries: options.queries,
            datasets: Vec::new(),
            extras: Vec::new(),
        }
    }

    /// The report as a JSON value.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("figure", JsonValue::Str(self.figure.clone())),
            ("title", JsonValue::Str(self.title.clone())),
            ("scale", JsonValue::Int(self.scale as u64)),
            ("queries", JsonValue::Int(self.queries as u64)),
            (
                "datasets",
                JsonValue::Arr(
                    self.datasets
                        .iter()
                        .map(|d| {
                            JsonValue::obj(vec![
                                ("dataset", JsonValue::Str(d.dataset.clone())),
                                ("series_len", JsonValue::Int(d.series_len as u64)),
                                (
                                    "rows",
                                    JsonValue::Arr(
                                        d.rows.iter().map(Measurement::to_json).collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        for (key, value) in &self.extras {
            fields.push((key.as_str(), value.clone()));
        }
        JsonValue::obj(fields)
    }

    /// Writes `BENCH_<figure>.json` to the current directory and reports the
    /// path on stdout (failures are reported but not fatal: the printed
    /// tables remain the primary output).
    pub fn write(&self) {
        match json::write_bench_json(&self.figure, &self.to_json()) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write BENCH_{}.json: {e}", self.figure),
        }
    }
}

/// Per-sample latencies (milliseconds) rendered as a JSON object carrying
/// the mean *and* the tail percentiles — benchmark records report p50/p95/p99
/// alongside means so tail regressions are visible, not averaged away.
#[must_use]
pub fn latency_summary_json(samples_ms: &[f64]) -> JsonValue {
    let summary = ts_core::stats::LatencySummary::from_samples(samples_ms);
    JsonValue::obj(vec![
        ("count", JsonValue::Int(summary.count as u64)),
        ("mean_ms", JsonValue::Num(summary.mean)),
        ("min_ms", JsonValue::Num(summary.min)),
        ("p50_ms", JsonValue::Num(summary.p50)),
        ("p95_ms", JsonValue::Num(summary.p95)),
        ("p99_ms", JsonValue::Num(summary.p99)),
        ("max_ms", JsonValue::Num(summary.max)),
    ])
}

/// The epsilon grid of Table 1 for the requested normalisation regime.
#[must_use]
pub fn epsilon_grid(dataset: Dataset, normalization: Normalization) -> &'static [f64] {
    match normalization {
        Normalization::None => dataset.epsilons_raw(),
        _ => dataset.epsilons_normalized(),
    }
}

/// The default epsilon of Table 1 for the requested normalisation regime.
#[must_use]
pub fn default_epsilon(dataset: Dataset, normalization: Normalization) -> f64 {
    match normalization {
        Normalization::None => dataset.default_epsilon_raw(),
        _ => dataset.default_epsilon_normalized(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_parsing() {
        let def = HarnessOptions::from_arg_list(Vec::<String>::new());
        assert_eq!(def, HarnessOptions::default());

        let full = HarnessOptions::from_arg_list(vec!["--full".to_string()]);
        assert_eq!(full.scale, 1);
        assert_eq!(full.queries, 100);

        let scaled = HarnessOptions::from_arg_list(vec![
            "--scale=16".to_string(),
            "--queries=5".to_string(),
            "--unknown".to_string(),
        ]);
        assert_eq!(scaled.scale, 16);
        assert_eq!(scaled.queries, 5);

        let bad = HarnessOptions::from_arg_list(vec![
            "--scale=0".to_string(),
            "--queries=abc".to_string(),
        ]);
        assert_eq!(bad.scale, 1);
        assert_eq!(bad.queries, DEFAULT_QUERIES);
    }

    #[test]
    fn dataset_scaling() {
        let options = HarnessOptions {
            scale: 8,
            queries: 10,
        };
        // Insect is never scaled: it is already small.
        assert_eq!(options.dataset_len(Dataset::Insect), 64_436);
        assert_eq!(options.dataset_len(Dataset::Eeg), 1_801_999 / 8);
        // The floor keeps tiny scales usable for the EEG stand-in.
        let huge_scale = HarnessOptions {
            scale: 1_000_000,
            queries: 1,
        };
        assert_eq!(huge_scale.dataset_len(Dataset::Eeg), 2_000);
    }

    #[test]
    fn epsilon_grids_match_table_1() {
        assert_eq!(
            epsilon_grid(Dataset::Eeg, Normalization::WholeSeries),
            &[0.1, 0.2, 0.3, 0.4, 0.5]
        );
        assert_eq!(
            epsilon_grid(Dataset::Insect, Normalization::None),
            &[50.0, 100.0, 150.0, 200.0, 250.0]
        );
        assert_eq!(
            default_epsilon(Dataset::Eeg, Normalization::WholeSeries),
            0.3
        );
        assert_eq!(default_epsilon(Dataset::Insect, Normalization::None), 150.0);
    }

    #[test]
    fn end_to_end_measurement_small() {
        // A miniature end-to-end run of the harness machinery.
        let options = HarnessOptions {
            scale: 1_000_000,
            queries: 3,
        };
        let series = generate(Dataset::Eeg, &options);
        assert_eq!(series.len(), 2_000);
        let engines = build_engines(&series, &Method::ALL, 100, Normalization::WholeSeries);
        assert_eq!(engines.len(), 4);
        let workload = QueryWorkload::sample(
            engines[0].store(),
            100,
            options.queries,
            1,
            Normalization::WholeSeries,
        )
        .unwrap();
        let mut results = Vec::new();
        for engine in &engines {
            let (ms, matches, stats) = measure_queries(engine, &workload, 1.0);
            assert!(ms >= 0.0);
            assert!(matches >= 1.0, "each query matches at least itself");
            assert!(
                stats.candidates_verified as f64 >= matches * workload.count() as f64,
                "every reported match was verified"
            );
            assert!(stats.candidates_verified <= stats.candidates_generated);
            results.push(matches);
        }
        // All methods agree on the average number of matches.
        for m in &results[1..] {
            assert!((m - results[0]).abs() < 1e-9);
        }
        // Per-subsequence regime drops KV-Index.
        let engines_psn = build_engines(&series, &Method::ALL, 100, Normalization::PerSubsequence);
        assert_eq!(engines_psn.len(), 3);
    }

    #[test]
    fn figure_report_round_trip() {
        let options = HarnessOptions {
            scale: 1_000_000,
            queries: 2,
        };
        let series = generate(Dataset::Eeg, &options);
        let engines = build_engines(&series, &Method::ALL, 100, Normalization::WholeSeries);
        let workload = QueryWorkload::sample(
            engines[0].store(),
            100,
            options.queries,
            1,
            Normalization::WholeSeries,
        )
        .unwrap();

        let mut report = FigureReport::new("fig_test", "unit-test figure", &options);
        let mut rows = Vec::new();
        for engine in &engines {
            let (avg_query_ms, avg_matches, stats) = measure_queries(engine, &workload, 0.3);
            rows.push(Measurement {
                method: engine.method().name(),
                store: engine.config().store.label(),
                parameter: 0.3,
                avg_query_ms,
                avg_matches,
                stats,
            });
        }
        report.datasets.push(DatasetReport {
            dataset: Dataset::Eeg.name().to_string(),
            series_len: series.len(),
            rows,
        });

        let rendered = report.to_json().render();
        // All four method names appear in the emitted JSON, with stats.
        for method in Method::ALL {
            assert!(
                rendered.contains(&format!("\"method\":\"{}\"", method.name())),
                "{rendered}"
            );
        }
        for key in [
            "\"figure\":\"fig_test\"",
            "\"store\":\"disk\"",
            "\"candidates_generated\":",
            "\"candidates_verified\":",
            "\"nodes_visited\":",
            "\"nodes_pruned\":",
            "\"filter_ms\":",
            "\"verify_ms\":",
        ] {
            assert!(rendered.contains(key), "missing {key} in {rendered}");
        }
    }

    #[test]
    fn latency_summary_json_reports_tails() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let rendered = latency_summary_json(&samples).render();
        assert!(rendered.contains("\"count\":100"), "{rendered}");
        assert!(rendered.contains("\"mean_ms\":50.5"), "{rendered}");
        assert!(rendered.contains("\"p50_ms\":50.5"), "{rendered}");
        assert!(rendered.contains("\"p95_ms\":95.05"), "{rendered}");
        assert!(rendered.contains("\"p99_ms\":99.01"), "{rendered}");
        let empty = latency_summary_json(&[]).render();
        assert!(empty.contains("\"count\":0"), "{empty}");
    }

    #[test]
    fn figure_report_extras_are_emitted_at_top_level() {
        let options = HarnessOptions {
            scale: 64,
            queries: 5,
        };
        let mut report = FigureReport::new("fig_extra", "extras", &options);
        report.extras.push((
            "parallel_verification".to_string(),
            JsonValue::Arr(vec![JsonValue::obj(vec![
                ("store", JsonValue::Str("disk-cached".into())),
                ("threads_used", JsonValue::Int(4)),
            ])]),
        ));
        let rendered = report.to_json().render();
        assert!(
            rendered.contains("\"parallel_verification\":["),
            "{rendered}"
        );
        assert!(rendered.contains("\"threads_used\":4"), "{rendered}");
    }
}
