//! `twinbench`: the repository's benchmark.
//!
//! ```text
//! twinbench --workload <name> [--seed <u64>] [--seconds <n>] [--trace [0|1]]
//! twinbench --list
//! twinbench --emit-benchmark-json
//! ```
//!
//! One run generates the workload's inputs from the seed, measures it from
//! outside through the crates' public functions, checks every answer, and
//! prints every metric by name with its unit; the last line of standard
//! output is the result as one JSON object.  See `README.md`.

mod ingest_phase;
mod inputs;
mod layers;
mod oracle;
mod query_phase;
mod rig;
mod rounds;
mod run;
mod serve_phase;
mod spec;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use rig::{BoxError, Ctx};
use run::RunOutput;

/// A run longer than this (at the nominal `--seconds`) breaks the total
/// the driver allows for all runs: fail loudly instead of reporting.
const RUN_CAP_FACTOR: f64 = 3.0;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

enum Command {
    Run(Args),
    List,
    EmitBenchmarkJson,
}

fn usage() -> String {
    let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: twinbench --workload <{}> [--seed <u64>] [--seconds <1..60>] [--trace [0|1]]\n       twinbench --list | --emit-benchmark-json",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = spec::NOMINAL_SECONDS;
    let mut traced = false;
    let mut i = 0;
    let value = |i: usize, flag: &str| {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--list" => return Ok(Command::List),
            "--emit-benchmark-json" => return Ok(Command::EmitBenchmarkJson),
            "--workload" => {
                workload = Some(value(i, "--workload")?);
                i += 1;
            }
            "--seed" => {
                seed = value(i, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
                i += 1;
            }
            "--seconds" => {
                seconds = value(i, "--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
                i += 1;
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    traced = false;
                    i += 1;
                }
                Some("1") => {
                    traced = true;
                    i += 1;
                }
                // Bare `--trace`, as the issue's command line writes it.
                _ => traced = true,
            },
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    let workload = workload.ok_or("--workload is required")?;
    if spec::workload(&workload).is_none() {
        return Err(format!("unknown workload '{workload}'"));
    }
    Ok(Command::Run(Args {
        workload,
        seed,
        seconds,
        traced,
    }))
}

/// The package's `out/` directory, relative to the working directory when
/// it lies below it: unix-socket paths are limited to about 100 bytes, and
/// the driver's checkout may sit under a long absolute path.
fn out_dir() -> PathBuf {
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    let relative = std::env::current_dir()
        .ok()
        .and_then(|cwd| package.strip_prefix(cwd).ok().map(Path::to_path_buf));
    relative
        .unwrap_or_else(|| package.to_path_buf())
        .join("out")
}

/// Per-run root of every temporary file, socket and tenant directory;
/// removed when dropped, also on an error or a panic.
struct RunRoot(PathBuf);

impl RunRoot {
    fn create() -> std::io::Result<Self> {
        // Unique per process, and per call inside the test binary.
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let root = out_dir().join(format!("run-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(RunRoot(root))
    }
}

impl Drop for RunRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn json_number(value: f64) -> String {
    assert!(value.is_finite(), "a metric must be a finite number");
    format!("{value}")
}

fn result_line(output: &RunOutput) -> String {
    let metrics: Vec<String> = output
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        output.failed == 0,
        output.attempted,
        output.failed,
        metrics.join(", ")
    )
}

fn run(args: &Args) -> Result<ExitCode, BoxError> {
    let started = Instant::now();
    let workload = spec::workload(&args.workload).expect("validated by parse_args");
    let root = RunRoot::create()?;
    // `PreparedStore` writes file-backed series under the temp dir: keep
    // them inside the run root.  Set before any thread exists.
    std::env::set_var("TMPDIR", std::fs::canonicalize(&root.0)?);
    let ctx = Ctx {
        workload,
        seed: args.seed,
        scale: args.seconds as f64 / spec::NOMINAL_SECONDS as f64,
        traced: args.traced,
        root: root.0.clone(),
        raw: inputs::dataset(workload),
    };
    let output = run::run(&ctx)?;
    drop(root);

    if let Some(json) = &output.trace_json {
        let path = out_dir().join(format!("trace-{}.json", workload.name));
        std::fs::write(&path, json)?;
        println!("trace written to {}", path.display());
    }
    let run_s = started.elapsed().as_secs_f64();
    println!(
        "workload {} seed {} seconds {} trace {}",
        workload.name, args.seed, args.seconds, args.traced as u8
    );
    print!("{}", output.notes);
    for m in &output.metrics {
        println!("{:<46} {:>18} {}", m.name, json_number(m.value), m.unit);
    }
    println!(
        "ops_attempted {} ops_failed {}",
        output.attempted, output.failed
    );
    println!("run_s {run_s:.3}");
    let cap = RUN_CAP_FACTOR * args.seconds as f64;
    if run_s > cap {
        eprintln!("twinbench: the run took {run_s:.1} s, more than the {cap:.0} s cap; no result reported");
        return Ok(ExitCode::FAILURE);
    }
    println!("{}", result_line(&output));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Command::List) => {
            print!("{}", spec::list());
            ExitCode::SUCCESS
        }
        Ok(Command::EmitBenchmarkJson) => {
            print!("{}", spec::benchmark_json());
            ExitCode::SUCCESS
        }
        Ok(Command::Run(args)) => match run(&args) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("twinbench: {e}");
                ExitCode::FAILURE
            }
        },
        Err(message) => {
            eprintln!("twinbench: {message}\n{}", usage());
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::Rig;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_driver_and_the_issue_command_lines() {
        let driver = strings(&[
            "--workload",
            "serve_mixed",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "0",
        ]);
        let Ok(Command::Run(args)) = parse_args(&driver) else {
            panic!("driver form")
        };
        assert_eq!(
            (args.workload.as_str(), args.seed, args.seconds, args.traced),
            ("serve_mixed", 7, 20, false)
        );
        let bare = strings(&["--workload", "eeg_selective", "--trace"]);
        let Ok(Command::Run(args)) = parse_args(&bare) else {
            panic!("bare --trace")
        };
        assert_eq!(
            (args.seed, args.seconds, args.traced),
            (42, spec::NOMINAL_SECONDS, true)
        );
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--seed", "1"])).is_err());
        assert!(parse_args(&strings(&["--workload", "serve_mixed", "--seconds", "0"])).is_err());
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let output = RunOutput {
            attempted: 10,
            failed: 0,
            metrics: vec![run::Metric {
                name: "setup_s".into(),
                unit: "s",
                value: 0.8127,
            }],
            notes: String::new(),
            trace_json: None,
        };
        assert_eq!(
            result_line(&output),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    /// A cut-down workload: a few thousand points, a few dozen ops.
    fn tiny() -> &'static spec::Workload {
        Box::leak(Box::new(spec::Workload {
            points: 6_000,
            queries: 48,
            base_points: 3_000,
            read_probes: 24,
            unix_ops: 96,
            tcp_ops: 8,
            ts_appends: 24,
            isax_appends: 48,
            ..*spec::workload("serve_mixed").expect("serve_mixed")
        }))
    }

    fn tiny_ctx(root: &RunRoot, seed: u64, traced: bool) -> Ctx {
        Ctx {
            workload: tiny(),
            seed,
            scale: 1.0,
            traced,
            root: root.0.clone(),
            raw: inputs::dataset(tiny()),
        }
    }

    /// A whole run, untraced and traced: every metric of `BENCHMARK.json`
    /// comes out, finite and non-zero where it is gated, and nothing fails.
    #[test]
    fn a_whole_run_prints_every_metric_and_fails_no_op() {
        let root = RunRoot::create().expect("run root");
        let untraced = run::run(&tiny_ctx(&root, 11, false)).expect("untraced run");
        assert_eq!(untraced.failed, 0);
        assert!(untraced.attempted > 500);
        let names: Vec<&str> = untraced.metrics.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
        assert!(untraced
            .metrics
            .iter()
            .all(|m| m.value.is_finite() && m.value > 0.0));
        assert!(untraced.trace_json.is_none());

        let traced = run::run(&tiny_ctx(&root, 11, true)).expect("traced run");
        assert_eq!(traced.failed, 0);
        let names: Vec<String> = traced.metrics.iter().map(|m| m.name.clone()).collect();
        let expected: Vec<String> = spec::per_layer().into_iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
        assert!(traced.metrics.iter().all(|m| m.value.is_finite()));
        let unattributed = traced
            .metrics
            .iter()
            .find(|m| m.name == "trace.unattributed_pct")
            .expect("listed");
        assert!(
            unattributed.value < 5.0,
            "layer self-times must sum to the wall-clock within 5 %"
        );
        assert!(traced
            .trace_json
            .expect("trace file contents")
            .contains("\"spans\": ["));
    }

    /// Exact-count metrics must repeat bit for bit at one seed, and the
    /// seed must change the queries: in-process repetitions of the query phase.
    #[test]
    fn exact_counts_repeat_at_one_seed_and_queries_follow_the_seed() {
        let root = RunRoot::create().expect("run root");
        let run_once = |seed: u64, tag: &str| {
            let ctx = tiny_ctx(&root, seed, true);
            let rig = Rig::build(&ctx, tag).expect("rig");
            let mut ops = query_phase::Ops::default();
            let mut recorder = trace::Recorder::new();
            let mut phase = query_phase::QueryPhase::new(&ctx, &rig.lanes, &rig.regimes, &mut ops);
            for _ in 0..spec::SLICES {
                phase.advance(Some(&mut recorder), &mut ops);
            }
            let result = phase.finish();
            let first_query = rig.regimes[0].queries[0].values().to_vec();
            let counts: Vec<(usize, usize, usize, u64)> = result
                .lanes
                .iter()
                .map(|l| {
                    (
                        l.trace.stats.nodes_visited,
                        l.trace.stats.candidates_generated,
                        l.trace.stats.candidates_verified,
                        l.trace.matches,
                    )
                })
                .collect();
            Rig::teardown(rig);
            assert_eq!(ops.failed, 0);
            (counts, result.index_bytes, first_query)
        };
        let a = run_once(5, "a");
        let b = run_once(5, "b");
        let c = run_once(6, "c");
        assert!(
            a.0.iter().any(|counts| counts.0 > 0),
            "the traced rounds collected statistics"
        );
        assert_eq!(
            a.0, b.0,
            "exact counts differ between two repetitions at one seed"
        );
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
        assert_ne!(a.2, c.2, "another seed must draw other queries");
    }
}
