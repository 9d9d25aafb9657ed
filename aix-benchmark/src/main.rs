//! `aix-benchmark`: end-to-end and per-layer timings of the aging-induced
//! approximation pipeline, with every output checked.
//!
//! ```text
//! aix-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!               [--spans FILE] [--json FILE]
//! ```
//!
//! Each workload runs in a child process of its own, started with every
//! `AIX_*` variable removed, so peak memory is per workload and nothing
//! exported in the shell changes what is measured. All files go into a
//! per-run directory under `.bench_tmp/` in the working directory, removed
//! at exit. See `README.md` for the workloads and metrics.

mod aging_sim;
mod bench;
mod explore;
mod pipeline;
mod stats;
mod trace;

use bench::{measure, Outcome, Run, Size};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Every workload, in the order a full run measures them.
const WORKLOADS: [&str; 4] = ["paper-pipeline", "library-warm", "aging-sim", "explore"];

/// Seconds of repetitions per run unless `--seconds` says otherwise.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str =
    "usage: aix-benchmark [--workload paper-pipeline|library-warm|aging-sim|explore] \
                     [--seed N] [--seconds S] [--trace 0|1] [--spans FILE] [--json FILE]";

/// Runs one workload in this process.
fn run_workload(name: &str, run: &Run) -> Outcome {
    match name {
        "paper-pipeline" => measure::<pipeline::PaperPipeline>("paper-pipeline", run),
        "library-warm" => measure::<pipeline::LibraryWarm>("library-warm", run),
        "aging-sim" => measure::<aging_sim::AgingSim>("aging-sim", run),
        "explore" => measure::<explore::Explore>("explore", run),
        other => unreachable!("workload `{other}` was validated"),
    }
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    spans: Option<PathBuf>,
    json: Option<PathBuf>,
    /// Internal: the run directory of the parent process; its presence
    /// makes this process the child that measures `workload`.
    run_dir: Option<PathBuf>,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut parsed = Args::default();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => {
                    parsed.workload = Some(value)
                }
                "--seed" => parsed.seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => {
                    let seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0);
                    parsed.seconds = Some(seconds.ok_or_else(bad)?);
                }
                "--trace" if matches!(value.as_str(), "0" | "1") => parsed.trace = value == "1",
                "--spans" => parsed.spans = Some(value.into()),
                "--json" => parsed.json = Some(value.into()),
                "--run-dir" => parsed.run_dir = Some(value.into()),
                "--workload" | "--trace" => return Err(bad()),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if parsed.spans.is_some() {
            parsed.trace = true;
        }
        Ok(parsed)
    }

    fn run(&self, dir: PathBuf) -> Run {
        Run {
            size: Size::Paper,
            seed: self.seed.unwrap_or(1),
            seconds: self.seconds.unwrap_or(DEFAULT_SECONDS),
            trace: self.trace,
            dir,
        }
    }
}

/// A directory removed, with everything in it, when dropped.
struct TempDir(PathBuf);

impl TempDir {
    /// A fresh directory under `.bench_tmp/` in the working directory.
    fn new(name: &str) -> std::io::Result<Self> {
        let path = Path::new(".bench_tmp").join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run uses `.bench_tmp/`.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("aix-benchmark: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.run_dir {
        Some(dir) => child(&args, dir),
        None => parent(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(error) => {
            eprintln!("aix-benchmark: {error}");
            ExitCode::FAILURE
        }
    }
}

/// Measures each requested workload in a child process and collects the
/// optional span and JSON files. Returns whether every child passed.
fn parent(args: &Args) -> Result<bool, Box<dyn std::error::Error>> {
    let run_dir = TempDir::new("run")?;
    let workloads: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let run = args.run(run_dir.0.clone());
    let mut passed = true;
    for workload in &workloads {
        let mut command = Command::new(std::env::current_exe()?);
        command
            .args(["--workload", workload, "--run-dir"])
            .arg(&run_dir.0);
        command.args([
            "--seed",
            &run.seed.to_string(),
            "--seconds",
            &run.seconds.to_string(),
        ]);
        command.args(["--trace", if run.trace { "1" } else { "0" }]);
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("AIX_") {
                command.env_remove(key);
            }
        }
        passed &= command.status()?.success();
    }
    if let Some(path) = &args.spans {
        let mut spans = String::new();
        for workload in &workloads {
            spans.push_str(&std::fs::read_to_string(
                run_dir.0.join(format!("{workload}.spans.jsonl")),
            )?);
        }
        std::fs::write(path, spans)?;
    }
    if let Some(path) = &args.json {
        let records: Vec<String> = workloads
            .iter()
            .map(|w| std::fs::read_to_string(run_dir.0.join(format!("{w}.record"))))
            .collect::<Result<_, _>>()?;
        let document = format!(
            "{{\"schema\":\"aix-benchmark/v1\",\"commit\":{},\"cpus\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"workloads\":[{}]}}\n",
            aix_obs::Value::from(commit()),
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            run.seed,
            run.seconds,
            run.trace,
            records.join(",")
        );
        std::fs::write(path, document)?;
    }
    Ok(passed)
}

/// Measures one workload, prints its report with the result object as
/// the last line, and leaves the record and spans for the parent.
fn child(args: &Args, run_dir: &Path) -> Result<bool, Box<dyn std::error::Error>> {
    let workload = args
        .workload
        .as_deref()
        .ok_or("the child needs --workload")?;
    let scratch = run_dir.join(workload);
    let outcome = run_workload(workload, &args.run(scratch.clone()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::write(run_dir.join(format!("{workload}.record")), outcome.record())?;
    std::fs::write(
        run_dir.join(format!("{workload}.spans.jsonl")),
        &outcome.spans,
    )?;
    print!("{}", outcome.report());
    println!("{}", outcome.json());
    Ok(outcome.correct())
}

/// The commit being measured, or `unknown` outside a git checkout.
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::time::SystemTime;

    fn test_run(name: &str, trace: bool) -> (TempDir, Run) {
        let dir = TempDir::new(&format!("test-{name}-{trace}")).unwrap();
        let run = Run {
            size: Size::Test,
            seed: 3,
            seconds: 0.0,
            trace,
            dir: dir.0.clone(),
        };
        (dir, run)
    }

    fn passes(name: &str, trace: bool) {
        let (_dir, run) = test_run(name, trace);
        let outcome = run_workload(name, &run);
        assert!(outcome.correct(), "{name}: {}", outcome.report());
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
        if trace {
            let coverage = outcome.metrics.iter().find(|m| m.name == "trace.coverage");
            let coverage = coverage.expect("a traced run reports its coverage").value;
            assert!(coverage >= 0.9, "{name}: layers cover {coverage}");
        } else {
            assert_eq!(names, ["rep_ms", "setup_s", "peak_rss_mb"]);
            assert!(outcome.metrics.iter().all(|m| m.value > 0.0));
        }
    }

    #[test]
    fn paper_pipeline_passes_every_check() {
        passes("paper-pipeline", false);
        passes("paper-pipeline", true);
    }

    #[test]
    fn library_warm_passes_every_check() {
        passes("library-warm", false);
        passes("library-warm", true);
    }

    #[test]
    fn aging_sim_passes_every_check() {
        passes("aging-sim", false);
        passes("aging-sim", true);
    }

    #[test]
    fn explore_passes_every_check() {
        passes("explore", false);
        passes("explore", true);
    }

    /// Name, length and modification time of every file under `dir`.
    fn snapshot(dir: &Path) -> BTreeMap<PathBuf, (u64, Option<SystemTime>)> {
        let mut files = BTreeMap::new();
        let Ok(entries) = std::fs::read_dir(dir) else {
            return files;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                files.extend(snapshot(&path));
            } else if let Ok(meta) = entry.metadata() {
                files.insert(path, (meta.len(), meta.modified().ok()));
            }
        }
        files
    }

    #[test]
    fn a_run_leaves_the_repository_out_directory_unchanged() {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../out");
        let before = snapshot(&out);
        let (dir, run) = test_run("paper-pipeline-hermetic", false);
        assert!(run_workload("paper-pipeline", &run).correct());
        drop(dir);
        assert_eq!(before, snapshot(&out));
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let parse = |line: &str| Args::parse(line.split_whitespace().map(str::to_owned));
        let args = parse("--workload explore --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(args.workload.as_deref(), Some("explore"));
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (Some(7), Some(2.5), true)
        );
        assert!(
            parse("--spans s.jsonl").unwrap().trace,
            "--spans implies tracing"
        );
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds -1",
            "--seed x",
            "--seed",
            "--frobnicate 1",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` must be rejected");
        }
    }
}
