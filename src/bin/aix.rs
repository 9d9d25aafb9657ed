//! `aix` — command-line driver for the aging-induced-approximations
//! workspace: characterize components, run the microarchitecture flow,
//! verify guarantees, measure error rates and export EDA artifacts
//! without writing any code.
//!
//! ```text
//! aix import netlist.v [more.edif ...] [--emit verilog|edif|dot] [--out FILE]
//! aix characterize --kind adder --width 16 [--effort medium] [--out FILE]
//! aix explore --kind adder --width 32 [--years 10] [--budget 96] [--seed 1]
//! aix flow [--years 10] [--stress worst|balanced] [--library FILE]
//!          [--verify off|warn|degrade|failfast]
//! aix verify [--library FILE] [--samples N] [--seed N] [--policy failfast]
//! aix error-rate --kind adder --width 32 [--years 10] [--vectors 4000]
//! aix quality --truncation 9 [--width 176 --height 144]
//! aix export [--out-dir out]
//! aix help
//! ```

use aix::aging::{AgingModel, AgingScenario, Lifetime};
use aix::arith::ComponentSpec;
use aix::cells::{degradation_to_text, to_liberty, DegradationAwareLibrary, Library};
use aix::core::{
    characterize_imported, contain_panic, fsutil::write_atomic, idct_design, load_imported,
    parse_timeout, verify_imported, AixError, ApproxLibrary, CampaignStatus,
    CharacterizationConfig, CharacterizationEngine, ComponentKind, EngineOptions, EngineReport,
    ImportedConfig,
};
use aix::dct::DatapathPrecision;
use aix::explore::ExploreConfig;
use aix::faults::{FaultPlan, FaultStage};
use aix::netlist::{to_dot, to_edif, to_verilog};
use aix::sim::{measure_errors, OperandSource, SignedNormalOperands};
use aix::sta::{analyze, to_sdf, NetDelays};
use aix::synth::Effort;
use aix::verify::{
    apply_aging_approximations_verified, verify_library, Perturbation, VerifyConfig, VerifyError,
    VerifyPolicy,
};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let Some(command) = args.next() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // `trace` takes a positional action (`summarize`) before its flags;
    // `import` takes positional netlist files before its flags.
    let action = match command.as_str() {
        "trace" => args.next(),
        _ => None,
    };
    let mut files = Vec::new();
    if command == "import" {
        while let Some(next) = args.peek() {
            if next.starts_with("--") {
                break;
            }
            files.push(args.next().expect("peeked"));
        }
    }
    let options = parse_options(args);
    let result = configure_observability(&command, &options).and_then(|_| {
        let result = match command.as_str() {
            "import" => import_files(&files, &options),
            "characterize" => characterize(&options),
            "explore" => explore(&options),
            "flow" => flow(&options),
            "verify" => verify(&options),
            "error-rate" => error_rate(&options),
            "quality" => quality(&options),
            "export" => export(&options),
            "trace" => trace(action.as_deref(), &options),
            "help" | "--help" | "-h" => {
                println!("{USAGE}");
                Ok(ExitCode::SUCCESS)
            }
            other => {
                eprintln!("aix: unknown command `{other}`\n{USAGE}");
                return Ok(ExitCode::FAILURE);
            }
        };
        // Dropping the recorder closes the trace file; announce it last so
        // the path is the final stderr line of a traced run.
        if let Some(recorder) = aix::obs::uninstall() {
            if let Some(path) = recorder.path() {
                aix::obs::progress!("trace written to {}", path.display());
            }
        }
        result
    });
    match result {
        Ok(code) => code,
        Err(error) => {
            eprintln!("aix: {error}");
            ExitCode::FAILURE
        }
    }
}

/// Installs the quiet flag and the global trace recorder before the
/// command runs. Each setting is its flag, else its variable: `--quiet`
/// (`AIX_QUIET`), `--trace[=FILE]` (`AIX_TRACE`) and `AIX_TRACE_TIMINGS`,
/// which has no flag.
fn configure_observability(
    command: &str,
    options: &HashMap<String, String>,
) -> Result<(), AixError> {
    let setting = |flag: &str, var: &str| {
        get(options, flag)
            .map(str::to_owned)
            .or_else(|| std::env::var(var).ok())
    };
    if setting("--quiet", "AIX_QUIET").is_some_and(|value| switch(&value)) {
        aix::obs::set_quiet(true);
    }
    // `trace summarize` reads traces, it must not record one of its own;
    // `help` has nothing to trace.
    if matches!(command, "trace" | "help" | "--help" | "-h") {
        return Ok(());
    }
    let path = match setting("--trace", "AIX_TRACE").as_deref().map(str::trim) {
        Some("1" | "true") => default_trace_path(),
        Some(path) if switch(path) => PathBuf::from(path),
        _ => return Ok(()),
    };
    let timings = std::env::var("AIX_TRACE_TIMINGS").map_or(true, |value| switch(&value));
    let recorder = aix::obs::Recorder::to_file(&path, command, timings)
        .map_err(|e| AixError::io(path.display().to_string(), e))?;
    aix::obs::install(recorder);
    Ok(())
}

/// An on/off setting's value: empty, `0`, `false` and `off` (any case)
/// are off, anything else is on.
fn switch(value: &str) -> bool {
    !matches!(
        value.trim().to_ascii_lowercase().as_str(),
        "" | "0" | "false" | "off"
    )
}

/// The default trace location: one file per run, named after the wall
/// clock and process so concurrent runs never collide.
fn default_trace_path() -> PathBuf {
    let seconds = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|elapsed| elapsed.as_secs())
        .unwrap_or(0);
    PathBuf::from(format!(
        "out/trace/run-{seconds}-{}.jsonl",
        std::process::id()
    ))
}

const USAGE: &str = "\
usage: aix <command> [--key value ...]

commands:
  import        FILE... [--emit verilog|edif|dot] [--out FILE] [--fault SPEC]
                                  parse structural Verilog (.v/.sv) or EDIF
                                  2.0.0 (.edif/.edf) netlists, map every
                                  instance onto the cell library (with alias
                                  resolution), validate, and print one
                                  summary line per design; --emit re-exports
                                  the imported netlist (--out writes it to a
                                  file). Failures name the position as
                                  `file:line:col: message`. Exit code: 0 all
                                  imported, 2 some failed, 1 none did.
                                  Imported designs feed the full pipeline via
                                  `--netlist FILE` on characterize, explore,
                                  flow and verify
  characterize  --kind adder|multiplier|mac --width N [--effort area|medium|ultra]
                [--out FILE] [--jobs N] [--cache DIR] [--no-cache]
                [--fault SPEC]
                                  characterize a component and print/store the
                                  aging-induced approximation library row;
                                  runs on N workers (0 = auto, also AIX_JOBS)
                                  over the persistent cache (default out/cache,
                                  also AIX_CACHE; wall time and counters appended
                                  to out/BENCH_characterize.json). Failed jobs are
                                  quarantined and reported; finished jobs are
                                  cached, so a rerun redoes only the failures.
                                  Exit code: 0 complete, 2 partial, 1 empty.
                                  --fault injects deterministic faults (panic,
                                  io, delay; also AIX_FAULT) for harness tests.
                                  --netlist FILE sweeps truncations of an
                                  imported design instead (with --years,
                                  --stress, --vectors, --seed, --max-cut)
  explore       --kind adder|multiplier|mac --width N [--years N]
                [--stress worst|balanced] [--budget N] [--seed N]
                [--vectors N] [--deadline SECS] [--jobs N] [--fault SPEC]
                [--out FILE] [--export-verilog DIR]
                                  search gate-level approximation variants
                                  (lower-OR adders, approximate full adders,
                                  speculative segments, column-pruned
                                  multipliers, approximate merges) against the
                                  aged clock and print the Pareto front of
                                  (error, aged slack, gate count). The clock
                                  is the exact component's own aged delay.
                                  Deterministic for a fixed seed: reports are
                                  byte-identical for any --jobs count. --out
                                  writes the JSON report; --export-verilog
                                  writes one netlist per front point. Exit
                                  code: 0 complete, 2 partial
                                  (quarantines/deadline), 1 empty.
                                  --netlist FILE explores the truncation
                                  front of an imported design instead
  flow          [--years N] [--stress worst|balanced] [--library FILE]
                [--verify off|warn|degrade|failfast] [--samples N] [--seed N]
                [--jobs N] [--cache DIR] [--no-cache]
                                  run the Fig. 6 flow on the IDCT design,
                                  optionally gated by Monte-Carlo verification.
                                  --netlist FILE runs activity -> aged STA ->
                                  Eq. 2 precision selection on an imported
                                  design instead
  verify        [--library FILE] [--samples N] [--seed N] [--margin PS]
                [--sigma-global F] [--sigma-gate F] [--vectors N]
                [--policy off|warn|degrade|failfast] [--jobs N] [--cache DIR]
                                  adversarially re-validate every library entry;
                                  exits non-zero iff a failfast violation is
                                  found. --netlist FILE Monte-Carlo checks the
                                  Eq. 2 margin of an imported design instead
  error-rate    --kind adder|multiplier --width N [--years N] [--vectors N]
                                  measure timing-error probability at the fresh clock
  quality       --truncation N [--width W --height H]
                                  PSNR/SSIM of the test sequences at a datapath precision
                                  (N in 0..=31 bits, W and H in 8..=4096 pixels)
  export        [--out-dir DIR]   write Liberty, degradation tables, Verilog,
                                  DOT and SDF artifacts
  trace         summarize [--file FILE] [--strict] [--no-record]
                                  render the per-stage latency/counter table of
                                  a recorded JSONL trace (newest under
                                  out/trace/ unless --file names one) and
                                  append a machine-readable summary record to
                                  out/BENCH_characterize.json
  help                            show this message

settings: a flag, else its variable (`--jobs` is AIX_JOBS, 0 = auto; likewise
AIX_CACHE, AIX_FAULT, AIX_TRACE, AIX_QUIET), else the default; `off`
disables the cache. A malformed value is an error naming its flag or variable

global flags (any command):
  --trace[=FILE]                  record a structured JSONL event trace
                                  (default out/trace/run-<ts>-<pid>.jsonl;
                                  also AIX_TRACE=1|PATH). Set
                                  AIX_TRACE_TIMINGS=off to drop elapsed_us
                                  fields for byte-reproducible traces
  --quiet                         silence progress chatter on stderr (also
                                  AIX_QUIET=1); errors still print";

type CliResult = Result<ExitCode, AixError>;

fn parse_options(args: impl Iterator<Item = String>) -> HashMap<String, String> {
    let mut options = HashMap::new();
    let mut key: Option<String> = None;
    for arg in args {
        if let Some(stripped) = arg.strip_prefix("--") {
            if let Some(pending) = key.take() {
                options.insert(pending, String::from("true"));
            }
            match stripped.split_once('=') {
                Some((k, v)) => {
                    options.insert(k.to_owned(), v.to_owned());
                }
                None => key = Some(stripped.to_owned()),
            }
        } else if let Some(pending) = key.take() {
            options.insert(pending, arg);
        }
    }
    if let Some(pending) = key.take() {
        options.insert(pending, String::from("true"));
    }
    options
}

/// Looks up `flag` (given with its leading dashes) in the parsed options.
fn get<'o>(options: &'o HashMap<String, String>, flag: &str) -> Option<&'o str> {
    options
        .get(flag.trim_start_matches('-'))
        .map(String::as_str)
}

/// A required option's value, or [`AixError::MissingOption`] naming it.
fn require<'o>(
    options: &'o HashMap<String, String>,
    flag: &'static str,
) -> Result<&'o str, AixError> {
    get(options, flag).ok_or(AixError::MissingOption { flag })
}

/// Parses an optional flag's value, defaulting when absent; a value that
/// fails to parse yields [`AixError::InvalidOption`] naming the flag.
fn parse_or<T: FromStr>(
    options: &HashMap<String, String>,
    flag: &'static str,
    default: T,
    expected: &'static str,
) -> Result<T, AixError> {
    match get(options, flag) {
        None => Ok(default),
        Some(value) => value.parse().map_err(|_| AixError::InvalidOption {
            flag,
            value: value.to_owned(),
            expected,
        }),
    }
}

/// [`parse_or`] for a count that must be positive: zero is an
/// [`AixError::InvalidOption`] naming the flag too.
fn parse_positive(
    options: &HashMap<String, String>,
    flag: &'static str,
    default: usize,
    expected: &'static str,
) -> Result<usize, AixError> {
    match parse_or(options, flag, default, expected)? {
        0 => Err(AixError::InvalidOption {
            flag,
            value: String::from("0"),
            expected,
        }),
        count => Ok(count),
    }
}

/// `flag`'s `value` as a number in `range`; anything else is an
/// [`AixError::InvalidOption`] naming the flag and stating `expected`.
fn parse_in<T: FromStr + PartialOrd>(
    flag: &'static str,
    value: &str,
    range: RangeInclusive<T>,
    expected: &'static str,
) -> Result<T, AixError> {
    match value.parse() {
        Ok(number) if range.contains(&number) => Ok(number),
        _ => Err(AixError::InvalidOption {
            flag,
            value: value.to_owned(),
            expected,
        }),
    }
}

fn parse_kind(options: &HashMap<String, String>) -> Result<ComponentKind, AixError> {
    let value = require(options, "--kind")?;
    value.parse().map_err(|_| AixError::InvalidOption {
        flag: "--kind",
        value: value.to_owned(),
        expected: "adder|multiplier|mac",
    })
}

fn parse_effort(options: &HashMap<String, String>) -> Result<Effort, AixError> {
    match get(options, "--effort").unwrap_or("ultra") {
        "area" => Ok(Effort::Area),
        "medium" => Ok(Effort::Medium),
        "ultra" => Ok(Effort::Ultra),
        other => Err(AixError::InvalidOption {
            flag: "--effort",
            value: other.to_owned(),
            expected: "area|medium|ultra",
        }),
    }
}

fn parse_scenario(options: &HashMap<String, String>) -> Result<AgingScenario, AixError> {
    let years: f64 = parse_or(options, "--years", 10.0, "a number of years")?;
    let lifetime = Lifetime::try_from_years(years).map_err(|_| AixError::InvalidOption {
        flag: "--years",
        value: years.to_string(),
        expected: "a finite, non-negative number of years",
    })?;
    match get(options, "--stress").unwrap_or("worst") {
        "worst" => Ok(AgingScenario::worst_case(lifetime)),
        "balanced" => Ok(AgingScenario::balanced(lifetime)),
        other => Err(AixError::InvalidOption {
            flag: "--stress",
            value: other.to_owned(),
            expected: "worst|balanced",
        }),
    }
}

fn parse_policy(
    options: &HashMap<String, String>,
    flag: &'static str,
    default: VerifyPolicy,
) -> Result<VerifyPolicy, AixError> {
    match get(options, flag) {
        None => Ok(default),
        Some(value) => value.parse().map_err(|_| AixError::InvalidOption {
            flag,
            value: value.to_owned(),
            expected: "off|warn|degrade|failfast",
        }),
    }
}

fn parse_verify_config(options: &HashMap<String, String>) -> Result<VerifyConfig, AixError> {
    let defaults = VerifyConfig::default();
    Ok(VerifyConfig {
        samples: parse_or(options, "--samples", defaults.samples, "a positive integer")?,
        perturbation: Perturbation {
            global_sigma: parse_or(
                options,
                "--sigma-global",
                defaults.perturbation.global_sigma,
                "a relative sigma like 0.03",
            )?,
            gate_sigma: parse_or(
                options,
                "--sigma-gate",
                defaults.perturbation.gate_sigma,
                "a relative sigma like 0.01",
            )?,
        },
        seed: parse_or(options, "--seed", defaults.seed, "an unsigned integer")?,
        margin_target_ps: parse_or(
            options,
            "--margin",
            defaults.margin_target_ps,
            "a margin in picoseconds",
        )?,
        sim_vectors: parse_or(options, "--vectors", defaults.sim_vectors, "a vector count")?,
        max_degrade_steps: parse_or(
            options,
            "--max-degrade",
            defaults.max_degrade_steps,
            "a step count",
        )?,
    })
}

/// Engine scheduling, cache and fault-injection options, resolved by
/// [`EngineOptions::resolve`]: each setting is its flag, else its
/// environment variable, else its default, and a malformed value is an
/// error naming the one that supplied it. `--no-cache` is `--cache off`.
fn parse_engine_options(options: &HashMap<String, String>) -> Result<EngineOptions, AixError> {
    EngineOptions::resolve(
        |flag| match flag {
            "--cache" if get(options, "--no-cache").is_some() => Some(String::from("off")),
            _ => get(options, flag).map(str::to_owned),
        },
        |var| std::env::var(var).ok(),
    )
}

/// The path of the machine-readable characterization benchmark log.
const BENCH_LOG: &str = "out/BENCH_characterize.json";

/// Appends one pre-rendered single-line JSON record (which must start with
/// `{"label"` to survive future rewrites) to the benchmark log at `path`
/// (created if absent), under `plan`. The file is a JSON object with a
/// `runs` array, one record per run: comparing the wall-clock of
/// consecutive engine records shows the cold-versus-warm cache trajectory.
/// The rewrite is atomic (temp file + rename), so concurrent or killed
/// runs cannot tear the log.
fn append_bench_json(path: &Path, record: String, plan: Option<&FaultPlan>) -> std::io::Result<()> {
    // Existing records are one per line; carry them over verbatim.
    let mut records: Vec<String> = match std::fs::read_to_string(path) {
        Ok(text) => text
            .lines()
            .map(str::trim)
            .filter(|line| line.starts_with("{\"label\""))
            .map(|line| line.trim_end_matches(',').to_owned())
            .collect(),
        Err(_) => Vec::new(),
    };
    records.push(record);
    let mut out = String::from("{\n  \"schema\": \"aix-bench-characterize/v1\",\n  \"runs\": [\n");
    for (index, record) in records.iter().enumerate() {
        let comma = if index + 1 < records.len() { "," } else { "" };
        let _ = writeln!(out, "    {record}{comma}");
    }
    out.push_str("  ]\n}\n");
    write_atomic(path, &out, plan)
}

/// Records a run of `engine` in `out/BENCH_characterize.json`, under the
/// engine's fault plan, and echoes the per-stage summary. The record is a
/// log of the run, not its result: a failed append is a warning naming the
/// file, and the command's output and exit code still follow the campaign.
fn record_engine_run(label: &str, report: &EngineReport, engine: &CharacterizationEngine) {
    aix::obs::progress!("# engine: {}", report.summary());
    let (record, plan) = (
        report.to_json_record(label),
        engine.options().faults.as_deref(),
    );
    if let Err(error) = append_bench_json(Path::new(BENCH_LOG), record, plan) {
        eprintln!("aix: warning: engine run not recorded in {BENCH_LOG}: {error}");
    }
}

/// `aix trace <action>`: operations over recorded JSONL traces.
fn trace(action: Option<&str>, options: &HashMap<String, String>) -> CliResult {
    match action {
        Some("summarize") => trace_summarize(options),
        Some(other) => Err(AixError::InvalidOption {
            flag: "trace",
            value: other.to_owned(),
            expected: "summarize",
        }),
        None => Err(AixError::MissingOption {
            flag: "trace summarize",
        }),
    }
}

/// Renders the per-stage latency/counter table of a trace file (newest
/// `out/trace/run-*.jsonl` unless `--file` names one) and appends the
/// machine-readable summary record to `out/BENCH_characterize.json`.
fn trace_summarize(options: &HashMap<String, String>) -> CliResult {
    let strict = get(options, "--strict").is_some();
    let path = match get(options, "--file") {
        Some(path) => PathBuf::from(path),
        None => latest_trace_path()?,
    };
    let summary = aix::obs::TraceSummary::read_file(&path, strict)
        .map_err(|error| summary_error(&path, error))?;
    print!("{}", summary.render_table());
    if get(options, "--no-record").is_none() {
        let faults = parse_engine_options(options)?.faults;
        append_bench_json(
            Path::new(BENCH_LOG),
            summary.to_json_record(),
            faults.as_deref(),
        )
        .map_err(|e| AixError::io(BENCH_LOG, e))?;
        aix::obs::progress!("summary recorded in {BENCH_LOG}");
    }
    Ok(ExitCode::SUCCESS)
}

/// The most recently modified `.jsonl` file under `out/trace/`.
fn latest_trace_path() -> Result<PathBuf, AixError> {
    let dir = PathBuf::from("out/trace");
    let no_trace = || {
        AixError::io(
            dir.display().to_string(),
            std::io::Error::new(
                std::io::ErrorKind::NotFound,
                "no trace files found; run a command with --trace first or pass --file",
            ),
        )
    };
    let entries = std::fs::read_dir(&dir).map_err(|_| no_trace())?;
    let mut newest: Option<(std::time::SystemTime, PathBuf)> = None;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_none_or(|ext| ext != "jsonl") {
            continue;
        }
        let modified = entry
            .metadata()
            .and_then(|meta| meta.modified())
            .unwrap_or(std::time::UNIX_EPOCH);
        if newest.as_ref().is_none_or(|(time, _)| modified >= *time) {
            newest = Some((modified, path));
        }
    }
    newest.map(|(_, path)| path).ok_or_else(no_trace)
}

/// Maps a trace-summary failure onto the CLI error taxonomy, keeping the
/// offending file in the message.
fn summary_error(path: &std::path::Path, error: aix::obs::SummaryError) -> AixError {
    match error {
        aix::obs::SummaryError::Io(source) => AixError::io(path.display().to_string(), source),
        other => AixError::io(
            path.display().to_string(),
            std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
        ),
    }
}

fn read_library(path: &str) -> Result<ApproxLibrary, AixError> {
    let text = std::fs::read_to_string(path).map_err(|e| AixError::io(path, e))?;
    ApproxLibrary::from_text(&text).map_err(|e| AixError::library_file(path, e))
}

/// `aix import FILE...`: parse structural Verilog/EDIF netlists, map the
/// instances onto the cell library, validate, and summarize (or re-emit)
/// each design. Exit code: 0 all imported, 2 some failed, 1 none did.
fn import_files(files: &[String], options: &HashMap<String, String>) -> CliResult {
    if files.is_empty() {
        return Err(AixError::MissingOption { flag: "FILE" });
    }
    let emit = match get(options, "--emit") {
        None => None,
        Some(format @ ("verilog" | "edif" | "dot")) => Some(format.to_owned()),
        Some(other) => {
            return Err(AixError::InvalidOption {
                flag: "--emit",
                value: other.to_owned(),
                expected: "verilog|edif|dot",
            })
        }
    };
    if get(options, "--out").is_some() && files.len() > 1 {
        return Err(AixError::InvalidOption {
            flag: "--out",
            value: get(options, "--out").unwrap_or_default().to_owned(),
            expected: "a single input file when --out is given",
        });
    }
    let faults = parse_engine_options(options)?.faults;
    let cells = Arc::new(Library::nangate45_like());
    let mut imported = 0usize;
    let mut failed = 0usize;
    for file in files {
        // Guard each file like an engine job: an injected (or genuine)
        // panic quarantines the file instead of crashing the CLI.
        let result = contain_panic(|| {
            if let Some(plan) = &faults {
                plan.probe(FaultStage::Import, file);
            }
            load_imported(file, &cells)
        });
        match result {
            Err(panic) => {
                failed += 1;
                eprintln!("aix: import QUARANTINED: {file}: {panic}");
            }
            Ok(Err(error)) => {
                failed += 1;
                eprintln!("aix: import FAILED: {error}");
            }
            Ok(Ok(netlist)) => {
                imported += 1;
                let stats = netlist.stats();
                println!(
                    "{file}: `{}` {} gate(s), {} net(s), {} input(s), {} output(s), {:.1} um2",
                    netlist.name(),
                    stats.gate_count,
                    stats.net_count,
                    stats.input_count,
                    stats.output_count,
                    stats.area_um2
                );
                if let Some(format) = &emit {
                    let text = match format.as_str() {
                        "verilog" => to_verilog(&netlist),
                        "edif" => to_edif(&netlist),
                        _ => to_dot(&netlist),
                    };
                    match get(options, "--out") {
                        Some(path) => {
                            std::fs::write(path, text).map_err(|e| AixError::io(path, e))?;
                            println!("written to {path}");
                        }
                        None => print!("{text}"),
                    }
                }
            }
        }
    }
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else if imported > 0 {
        ExitCode::from(2)
    } else {
        ExitCode::FAILURE
    })
}

/// The shared `--netlist` pipeline parameters (`--years`, `--stress`,
/// `--vectors`, `--seed`, `--max-cut`).
fn parse_imported_config(options: &HashMap<String, String>) -> Result<ImportedConfig, AixError> {
    let mut config = ImportedConfig::default();
    config.scenario = parse_scenario(options)?;
    config.vectors = parse_or(options, "--vectors", config.vectors, "a vector count")?;
    config.seed = parse_or(options, "--seed", config.seed, "an unsigned integer")?;
    if let Some(value) = get(options, "--max-cut") {
        let cut: u32 = value.parse().map_err(|_| AixError::InvalidOption {
            flag: "--max-cut",
            value: value.to_owned(),
            expected: "a truncation depth in bits",
        })?;
        config.max_cut = Some(cut);
    }
    Ok(config)
}

/// `aix characterize --netlist FILE`: the truncation sweep of an imported
/// design, rendered like a library characterization.
fn characterize_netlist(path: &str, options: &HashMap<String, String>) -> CliResult {
    let cells = Arc::new(Library::nangate45_like());
    let netlist = load_imported(path, &cells)?;
    let config = parse_imported_config(options)?;
    let report = characterize_imported(&netlist, &AgingModel::calibrated(), &config)?;
    let text = report.render();
    if let Some(out) = get(options, "--out") {
        std::fs::write(out, &text).map_err(|e| AixError::io(out, e))?;
        println!("written to {out}");
    } else {
        print!("{text}");
    }
    Ok(ExitCode::SUCCESS)
}

/// `aix explore --netlist FILE`: the Pareto front of the imported design's
/// truncation sweep on (error, aged delay, gate count).
fn explore_netlist(path: &str, options: &HashMap<String, String>) -> CliResult {
    let cells = Arc::new(Library::nangate45_like());
    let netlist = load_imported(path, &cells)?;
    let config = parse_imported_config(options)?;
    let report = characterize_imported(&netlist, &AgingModel::calibrated(), &config)?;
    println!(
        "{:>4} {:>7} {:>10} {:>9} {:>8}  candidate",
        "cut", "gates", "aged [ps]", "slack", "err [%]"
    );
    for v in report.pareto_front() {
        println!(
            "{:>4} {:>7} {:>10.1} {:>+9.1} {:>8.2}  {}_cut{}",
            v.cut, v.gates, v.aged_ps, v.slack_ps, v.error_percent, report.design, v.cut
        );
    }
    println!(
        "# clock {:.3} ps under {}; {} variant(s) evaluated",
        report.clock_ps,
        report.scenario,
        report.variants.len()
    );
    Ok(ExitCode::SUCCESS)
}

/// `aix flow --netlist FILE`: activity → aged STA → Eq. 2 precision
/// selection on an imported design.
fn flow_netlist(path: &str, options: &HashMap<String, String>) -> CliResult {
    let cells = Arc::new(Library::nangate45_like());
    let netlist = load_imported(path, &cells)?;
    let config = parse_imported_config(options)?;
    let report = characterize_imported(&netlist, &AgingModel::calibrated(), &config)?;
    println!(
        "imported design `{}` constraint {:.1} ps under {}:",
        report.design, report.clock_ps, report.scenario
    );
    match report.required_cut() {
        Some(cut) => {
            let v = &report.variants[cut as usize];
            println!(
                "  {:<12} aged {:>7.1} ps  slack {:>+6.1}%  -> cut {} LSB(s) \
                 ({} gates, err {:.2}%)",
                report.design,
                v.aged_ps,
                100.0 * v.slack_ps / report.clock_ps,
                cut,
                v.gates,
                v.error_percent
            );
            println!("validation: timing MET");
            Ok(ExitCode::SUCCESS)
        }
        None => {
            println!("validation: timing VIOLATED (no truncation compensates the aging)");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// `aix verify --netlist FILE`: Monte-Carlo margin check of the Eq. 2
/// selection under perturbed per-gate aging.
fn verify_netlist(path: &str, options: &HashMap<String, String>) -> CliResult {
    let policy = parse_policy(options, "--policy", VerifyPolicy::FailFast)?;
    let cells = Arc::new(Library::nangate45_like());
    let netlist = load_imported(path, &cells)?;
    let config = parse_imported_config(options)?;
    let samples = parse_or(
        options,
        "--samples",
        NonZeroUsize::new(24).expect("24 is not zero"),
        "a positive sample count",
    )?;
    let sigma: f64 = parse_or(options, "--sigma-gate", 0.03, "a relative delay spread")?;
    let seed: u64 = parse_or(options, "--seed", 42, "an unsigned integer")?;
    let outcome = verify_imported(
        &netlist,
        &AgingModel::calibrated(),
        &config,
        samples,
        sigma,
        seed,
    )?;
    match outcome {
        None => {
            eprintln!(
                "aix: imported design `{}` is not compensable under {}",
                netlist.name(),
                config.scenario
            );
            Ok(ExitCode::FAILURE)
        }
        Some(verify) => {
            println!(
                "imported `{}` cut {}: {} of {} sample(s) met the clock \
                 (worst margin {:+.1} ps) — {}",
                netlist.name(),
                verify.cut,
                verify.samples - verify.failures,
                verify.samples,
                verify.worst_margin_ps,
                if verify.passed() { "PASS" } else { "FAIL" }
            );
            if !verify.passed() && policy == VerifyPolicy::FailFast {
                eprintln!("aix: verification failed under failfast policy");
                return Ok(ExitCode::FAILURE);
            }
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn characterize(options: &HashMap<String, String>) -> CliResult {
    if let Some(path) = get(options, "--netlist") {
        return characterize_netlist(path, options);
    }
    let kind = parse_kind(options)?;
    let width = parse_in(
        "--width",
        require(options, "--width")?,
        1..=64,
        "an operand width in 1..=64 bits",
    )?;
    let cells = Arc::new(Library::nangate45_like());
    let mut config = CharacterizationConfig::paper_default(kind, width);
    config.effort = parse_effort(options)?;
    let engine = CharacterizationEngine::new(Arc::clone(&cells), parse_engine_options(options)?);
    let campaign = engine.characterize_campaign(std::slice::from_ref(&config));
    record_engine_run(
        &format!("characterize {kind} {width}"),
        &campaign.report,
        &engine,
    );
    for failure in &campaign.failures {
        eprintln!("aix: job FAILED: {failure}");
    }
    let library = campaign.library();
    let text = library.to_text();
    if let Some(path) = get(options, "--out") {
        std::fs::write(path, &text).map_err(|e| AixError::io(path, e))?;
        println!("written to {path}");
    } else {
        print!("{text}");
    }
    // The Eq. 2 summary needs the fresh full-precision anchor, which a
    // partial campaign may lack — it is only meaningful when complete.
    if campaign.status() == CampaignStatus::Complete {
        let characterization = library.get(kind, width).expect("complete campaign");
        for scenario in [
            AgingScenario::worst_case(Lifetime::YEARS_1),
            AgingScenario::worst_case(Lifetime::YEARS_10),
        ] {
            match characterization.required_precision(scenario) {
                Some(p) => println!(
                    "# Eq. 2 under {scenario}: precision {p}b ({} bits truncated)",
                    width - p
                ),
                None => println!("# Eq. 2 under {scenario}: not compensable"),
            }
        }
    }
    match campaign.status() {
        CampaignStatus::Complete => Ok(ExitCode::SUCCESS),
        CampaignStatus::Partial => {
            eprintln!(
                "aix: campaign PARTIAL: {} of {} job(s) failed; \
                 rerun to redo only the failures (the cache serves the rest)",
                campaign.failures.len(),
                campaign.report.synth_planned
            );
            Ok(ExitCode::from(2))
        }
        CampaignStatus::Empty => {
            eprintln!(
                "aix: campaign EMPTY: all {} job(s) failed",
                campaign.failures.len()
            );
            Ok(ExitCode::FAILURE)
        }
    }
}

/// `aix explore`: aging-aware approximation search. Builds variant
/// netlists, scores them for functional error and aged delay, and prints
/// the Pareto front of (error, aged slack, gate count).
fn explore(options: &HashMap<String, String>) -> CliResult {
    if let Some(path) = get(options, "--netlist") {
        return explore_netlist(path, options);
    }
    let kind = parse_kind(options)?;
    let width = parse_in(
        "--width",
        require(options, "--width")?,
        1..=32,
        "an operand width in 1..=32 bits",
    )?;
    let engine = parse_engine_options(options)?;
    let mut config = ExploreConfig::new(kind, width);
    config.scenario = parse_scenario(options)?;
    config.seed = parse_or(options, "--seed", config.seed, "an unsigned integer")?;
    config.budget = parse_positive(
        options,
        "--budget",
        config.budget,
        "a positive candidate budget",
    )?;
    config.vectors = parse_positive(
        options,
        "--vectors",
        config.vectors,
        "a positive vector count",
    )?;
    config.jobs = engine.resolved_jobs();
    config.faults = engine.faults;
    if let Some(value) = get(options, "--deadline") {
        let deadline = parse_timeout(value).map_err(|expected| AixError::InvalidOption {
            flag: "--deadline",
            value: value.to_owned(),
            expected,
        })?;
        config.deadline = deadline.map(|budget| std::time::Instant::now() + budget);
    }

    let cells = Arc::new(Library::nangate45_like());
    let outcome = aix::explore::explore(&cells, &config)?;

    print!("{}", outcome.table());
    println!(
        "# clock {:.3} ps under {}; {} evaluated, {} skipped, {} quarantined",
        outcome.clock_ps,
        outcome.scenario,
        outcome.evaluated,
        outcome.skipped,
        outcome.quarantined.len(),
    );
    if let Some(path) = get(options, "--out") {
        let mut report = outcome.to_json();
        report.push('\n');
        std::fs::write(path, report).map_err(|e| AixError::io(path, e))?;
        println!("report written to {path}");
    }
    if let Some(dir) = get(options, "--export-verilog") {
        let dir = PathBuf::from(dir);
        std::fs::create_dir_all(&dir).map_err(|e| AixError::io(dir.display().to_string(), e))?;
        for point in &outcome.front {
            let optimized = point.candidate.build_optimized(&cells)?;
            let path = dir.join(format!("{}.v", point.candidate.label()));
            std::fs::write(&path, to_verilog(&optimized))
                .map_err(|e| AixError::io(path.display().to_string(), e))?;
        }
        println!(
            "{} netlist(s) written to {}",
            outcome.front.len(),
            dir.display()
        );
    }
    for q in &outcome.quarantined {
        eprintln!("aix: candidate QUARANTINED: {}: {}", q.label, q.reason);
    }
    match outcome.status() {
        CampaignStatus::Complete => Ok(ExitCode::SUCCESS),
        CampaignStatus::Partial => {
            eprintln!(
                "aix: search PARTIAL: {} candidate(s) quarantined{}",
                outcome.quarantined.len(),
                if outcome.cancelled {
                    "; deadline hit"
                } else {
                    ""
                }
            );
            Ok(ExitCode::from(2))
        }
        CampaignStatus::Empty => {
            eprintln!("aix: search EMPTY: no candidate survived evaluation");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn flow(options: &HashMap<String, String>) -> CliResult {
    if let Some(path) = get(options, "--netlist") {
        return flow_netlist(path, options);
    }
    let scenario = parse_scenario(options)?;
    let policy = parse_policy(options, "--verify", VerifyPolicy::Off)?;
    let verify_config = parse_verify_config(options)?;
    let cells = Arc::new(Library::nangate45_like());
    let model = AgingModel::calibrated();
    let library = match get(options, "--library") {
        Some(path) => read_library(path)?,
        None => {
            aix::obs::progress!(
                "(no --library given: characterizing the IDCT components, well under a second)"
            );
            let engine =
                CharacterizationEngine::new(Arc::clone(&cells), parse_engine_options(options)?);
            let configs: Vec<CharacterizationConfig> = [
                (ComponentKind::Multiplier, 32),
                (ComponentKind::Adder, 32),
                (ComponentKind::Adder, 16),
            ]
            .map(|(kind, width)| CharacterizationConfig::paper_default(kind, width))
            .into();
            let (library, report) = engine.characterize_all(&configs)?;
            record_engine_run("flow idct-library", &report, &engine);
            library
        }
    };
    let design = idct_design(&cells, Effort::Ultra)?;
    let verified = match apply_aging_approximations_verified(
        &cells,
        &design,
        &library,
        &model,
        scenario,
        policy,
        &verify_config,
    ) {
        Ok(verified) => verified,
        Err(VerifyError::Aix(e)) => return Err(e),
        Err(e @ (VerifyError::GuaranteeViolated { .. } | VerifyError::Unrepairable { .. })) => {
            eprintln!("aix: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let plan = &verified.plan;
    println!(
        "design `{}` constraint {:.1} ps under {scenario} (verify: {policy}):",
        design.name(),
        plan.constraint_ps
    );
    for block in &plan.blocks {
        println!(
            "  {:<12} aged {:>7.1} ps  slack {:>+6.1}%  -> precision {}b (-{} bits)",
            block.name,
            block.aged_delay_ps,
            block.relative_slack * 100.0,
            block.precision,
            block.truncated_bits()
        );
    }
    for verification in &verified.blocks {
        if verification.degraded_bits() > 0 {
            println!(
                "  {:<12} degraded {} extra bit(s): {}b -> {}b (worst margin {:+.1} ps)",
                verification.name,
                verification.degraded_bits(),
                verification.planned_precision,
                verification.final_precision,
                verification.stats.min_ps
            );
        }
    }
    for warning in verified.warnings() {
        aix::obs::warn!(
            "block `{}` misses its margin target by {:.1} ps at precision {}b",
            warning.name,
            -warning.stats.min_ps,
            warning.final_precision
        );
    }
    let validation = plan.validate(&cells, design.effort(), &model)?;
    println!(
        "validation: timing {}",
        if validation.timing_met {
            "MET"
        } else {
            "VIOLATED"
        }
    );
    Ok(ExitCode::SUCCESS)
}

fn verify(options: &HashMap<String, String>) -> CliResult {
    if let Some(path) = get(options, "--netlist") {
        return verify_netlist(path, options);
    }
    let policy = parse_policy(options, "--policy", VerifyPolicy::FailFast)?;
    let config = parse_verify_config(options)?;
    let cells = Arc::new(Library::nangate45_like());
    let model = AgingModel::calibrated();
    let library = match get(options, "--library") {
        Some(path) => read_library(path)?,
        None => {
            aix::obs::progress!("(no --library given: characterizing a quick demo library)");
            let engine =
                CharacterizationEngine::new(Arc::clone(&cells), parse_engine_options(options)?);
            let configs: Vec<CharacterizationConfig> =
                [ComponentKind::Adder, ComponentKind::Multiplier]
                    .map(|kind| CharacterizationConfig::quick(kind, 16))
                    .into();
            let (library, report) = engine.characterize_all(&configs)?;
            record_engine_run("verify demo-library", &report, &engine);
            library
        }
    };
    let report = verify_library(&cells, &library, &model, &config)?;
    print!("{}", report.render());
    if policy == VerifyPolicy::FailFast && !report.all_passed() {
        eprintln!("aix: verification failed under failfast policy");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn error_rate(options: &HashMap<String, String>) -> CliResult {
    let kind = parse_kind(options)?;
    // Signed operand sampling needs a sign bit inside the 64-bit word.
    let width = parse_in(
        "--width",
        get(options, "--width").unwrap_or("32"),
        1..=63,
        "an operand width in 1..=63 bits",
    )?;
    let vectors = parse_positive(options, "--vectors", 4000, "a positive vector count")?;
    let scenario = parse_scenario(options)?;
    let cells = Arc::new(Library::nangate45_like());
    let model = AgingModel::calibrated();
    let netlist = kind.synthesize(&cells, ComponentSpec::full(width), parse_effort(options)?)?;
    let clock = analyze(&netlist, &NetDelays::fresh(&netlist))?.max_delay_ps();
    let aged = NetDelays::aged(&netlist, &model, scenario);
    let padding = netlist.inputs().len() - 2 * width;
    let stats = measure_errors(
        &netlist,
        &aged,
        clock,
        SignedNormalOperands::for_width(width, 1).vectors_with_zeros(vectors, padding),
    )?;
    println!(
        "{kind}-{width} at fresh clock {clock:.1} ps under {scenario}: \
         {:.2}% erroneous outputs ({} of {} vectors, mean |error| {:.1})",
        stats.error_percent(),
        stats.erroneous,
        stats.vectors,
        stats.mean_abs_error
    );
    Ok(ExitCode::SUCCESS)
}

fn quality(options: &HashMap<String, String>) -> CliResult {
    // The datapath is 32 bits wide and SSIM compares 8x8 windows.
    let truncation = parse_in(
        "--truncation",
        require(options, "--truncation")?,
        0..=31,
        "a truncated-bit count in 0..=31",
    )?;
    let width = parse_in(
        "--width",
        get(options, "--width").unwrap_or("176"),
        8..=4096,
        "a frame width in 8..=4096 pixels",
    )?;
    let height = parse_in(
        "--height",
        get(options, "--height").unwrap_or("144"),
        8..=4096,
        "a frame height in 8..=4096 pixels",
    )?;
    let results =
        aix::core::evaluate_sequences(DatapathPrecision::new(truncation, 0), width, height);
    println!(
        "{:<10} {:>10} {:>10} {:>8}",
        "sequence", "PSNR [dB]", "exact", "SSIM"
    );
    for r in &results {
        println!(
            "{:<10} {:>10.1} {:>10.1} {:>8.3}",
            r.sequence.label(),
            r.psnr_db,
            r.exact_psnr_db,
            r.ssim
        );
    }
    println!(
        "{:<10} {:>10.1}",
        "average",
        aix::core::average_psnr_db(&results)
    );
    Ok(ExitCode::SUCCESS)
}

fn export(options: &HashMap<String, String>) -> CliResult {
    let dir = get(options, "--out-dir").unwrap_or("out");
    std::fs::create_dir_all(dir).map_err(|e| AixError::io(dir, e))?;
    let write = |path: String, contents: String| -> Result<(), AixError> {
        std::fs::write(&path, contents).map_err(|e| AixError::io(path, e))
    };
    let cells = Arc::new(Library::nangate45_like());
    let model = AgingModel::calibrated();
    write(format!("{dir}/aix_45nm.lib"), to_liberty(&cells))?;
    let aged = DegradationAwareLibrary::generate(&cells, &model, Lifetime::YEARS_10);
    write(
        format!("{dir}/aix_45nm_aged10y.tbl"),
        degradation_to_text(&cells, &aged),
    )?;
    let adder = ComponentKind::Adder.synthesize(&cells, ComponentSpec::full(16), Effort::Ultra)?;
    write(format!("{dir}/adder16_ultra.v"), to_verilog(&adder))?;
    write(format!("{dir}/adder16_ultra.dot"), to_dot(&adder))?;
    write(
        format!("{dir}/adder16_ultra_fresh.sdf"),
        to_sdf(&adder, &NetDelays::fresh(&adder), "fresh"),
    )?;
    write(
        format!("{dir}/adder16_ultra_aged10y.sdf"),
        to_sdf(
            &adder,
            &NetDelays::aged(
                &adder,
                &model,
                AgingScenario::worst_case(Lifetime::YEARS_10),
            ),
            "aged-10y-worst",
        ),
    )?;
    println!("artifacts written to {dir}/");
    for name in [
        "aix_45nm.lib",
        "aix_45nm_aged10y.tbl",
        "adder16_ultra.v",
        "adder16_ultra.dot",
        "adder16_ultra_fresh.sdf",
        "adder16_ultra_aged10y.sdf",
    ] {
        println!("  {dir}/{name}");
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_record_json_accumulates_runs() {
        let dir = std::env::temp_dir().join(format!("aix-bench-json-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("BENCH_characterize.json");
        let report = EngineReport {
            jobs: 2,
            wall_ms: 12.5,
            ..EngineReport::default()
        };
        append_bench_json(&path, report.to_json_record("cold"), None).unwrap();
        append_bench_json(&path, report.to_json_record("warm \"quoted\""), None).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"schema\": \"aix-bench-characterize/v1\""));
        assert_eq!(text.matches("{\"label\"").count(), 2);
        assert!(text.contains("\"label\":\"cold\""));
        assert!(text.contains("warm \\\"quoted\\\""));
        assert!(text.contains("\"wall_ms\":12.500"));
        assert!(text.contains("\"job_failures\":0"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
