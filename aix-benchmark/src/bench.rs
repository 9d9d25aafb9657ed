//! The measurement loop every workload shares: repeated set-up, timed
//! repetitions, output checks, and the result lines.

use crate::stats::{beyond, median, percentile};
use crate::trace::{Metric, Tracer};
use aix_obs::{render_object, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Errors any public entry point of the measured crates can return.
pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// How often a run sets its workload up; `setup_s` is the median.
const SETUPS: usize = 3;

/// Fewest timed repetitions of each kind (untraced, traced) per run.
const MIN_REPS: usize = 3;

/// Problem sizes: the paper's, which the benchmark measures, and a small
/// one that lets unit tests run every workload end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The paper's components and vector counts.
    Paper,
    /// A few-bit version of every input, for tests.
    #[cfg_attr(not(test), allow(dead_code))]
    Test,
}

/// What one repetition produced.
#[derive(Debug)]
pub struct Rep {
    /// Timed phases and their seconds; the repetition's time is their sum.
    pub phases: Vec<(&'static str, f64)>,
    /// Named outputs, compared byte for byte against the first repetition
    /// and, where one exists, the golden file of the same name.
    pub outputs: Vec<(&'static str, String)>,
}

/// One workload: inputs made once per set-up, then repeated identically.
pub trait Workload: Sized {
    /// Whether the inputs depend on the seed. Golden files of a seeded
    /// workload hold the outputs for seed 1.
    const SEEDED: bool;

    /// Makes the inputs. `dir` is an empty directory the workload may use.
    fn setup(size: Size, seed: u64, dir: &Path) -> Result<Self>;

    /// One repetition through the public entry points, untraced.
    fn rep(&mut self, checks: &mut Checks) -> Result<Rep>;

    /// The same repetition broken into the public calls it is made of,
    /// each wrapped in a span. Its outputs must equal [`Workload::rep`]'s.
    fn rep_traced(&mut self, tracer: &mut Tracer, checks: &mut Checks) -> Result<Rep>;
}

/// One measurement run of one workload.
#[derive(Debug, Clone)]
pub struct Run {
    /// Problem size.
    pub size: Size,
    /// Input seed.
    pub seed: u64,
    /// Seconds of repetitions to measure.
    pub seconds: f64,
    /// Whether to interleave traced repetitions and report layers.
    pub trace: bool,
    /// Scratch directory, removed by the caller.
    pub dir: PathBuf,
}

/// Counts output checks and keeps the reference outputs.
#[derive(Debug)]
pub struct Checks {
    /// Directory and file suffix of the golden files, when they apply.
    golden: Option<(PathBuf, &'static str)>,
    update_golden: bool,
    reference: BTreeMap<&'static str, String>,
    /// Checks made.
    pub attempted: usize,
    /// Checks failed, errors included.
    pub failed: usize,
}

impl Checks {
    fn new(golden: Option<(PathBuf, &'static str)>) -> Self {
        Self {
            golden,
            update_golden: std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1"),
            reference: BTreeMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Counts one check; a failure is reported on standard error.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("check failed: {}", what());
            }
        }
    }

    fn error(&mut self, context: &str, error: &dyn std::error::Error) {
        self.check(false, || format!("{context}: {error}"));
    }

    /// Compares each output with the first repetition's; the first
    /// repetition's outputs are compared with the golden files instead.
    fn outputs(&mut self, rep: &Rep) {
        for (name, text) in &rep.outputs {
            if let Some(reference) = self.reference.get(name) {
                let same = reference == text;
                self.check(same, || format!("{name} differs from the first repetition"));
                continue;
            }
            self.reference.insert(name, text.clone());
            let Some((dir, suffix)) = &self.golden else {
                continue;
            };
            let path = dir.join(format!("{name}{suffix}.txt"));
            if self.update_golden {
                if let Err(error) = std::fs::write(&path, text) {
                    self.error(&format!("writing {}", path.display()), &error);
                }
                continue;
            }
            let same = std::fs::read_to_string(&path).is_ok_and(|golden| golden == *text);
            self.check(same, || format!("{name} differs from {}", path.display()));
        }
    }
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Checks made and failed.
    pub attempted: usize,
    /// Checks failed, errors included.
    pub failed: usize,
    /// The metrics the run reports: end to end untraced, per layer traced.
    pub metrics: Vec<Metric>,
    /// Further human-readable lines: phases, tail percentiles, the layer table.
    pub details: Vec<Metric>,
    /// The per-layer table of a traced run.
    pub table: String,
    /// The spans of a traced run, as JSON lines.
    pub spans: String,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The human-readable report: one `<workload> <metric> <value> <unit>`
    /// line per metric with its sample count, then the layer table.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for m in self.details.iter().chain(&self.metrics) {
            let _ = writeln!(
                out,
                "{} {} {} {} n={}",
                self.workload, m.name, m.value, m.unit, m.samples
            );
        }
        out.push_str(&self.table);
        out
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let body = render_object(&[
                    ("value", Value::from(m.value)),
                    ("unit", Value::from(m.unit)),
                ]);
                format!("{}:{body}", Value::from(m.name.as_str()))
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// The result object with the sample count of every metric, for the
    /// `--json` document.
    pub fn record(&self) -> String {
        let samples: Vec<(&str, Value)> = self
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), Value::from(m.samples)))
            .collect();
        format!(
            "{{\"workload\":{},\"result\":{},\"samples\":{}}}",
            Value::from(self.workload),
            self.json(),
            render_object(&samples)
        )
    }
}

/// Sets `W` up, times its repetitions for `run.seconds`, checks every
/// output and summarizes.
pub fn measure<W: Workload>(workload: &'static str, run: &Run) -> Outcome {
    let golden = (run.size == Size::Paper && (!W::SEEDED || run.seed == 1)).then(|| {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden");
        (dir, if W::SEEDED { "-seed1" } else { "" })
    });
    let mut checks = Checks::new(golden);
    let mut outcome = Outcome {
        workload,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        details: Vec::new(),
        table: String::new(),
        spans: String::new(),
    };
    let mut tracer = Tracer::default();
    if let Err(error) = measure_into::<W>(run, &mut checks, &mut tracer, &mut outcome) {
        checks.error(workload, error.as_ref());
    }
    if run.trace {
        outcome.table = tracer.table(workload);
        outcome.spans = tracer.jsonl(workload);
    }
    outcome.attempted = checks.attempted;
    outcome.failed = checks.failed;
    outcome.details.push(Metric {
        name: "failed_frac".to_owned(),
        value: checks.failed as f64 / checks.attempted.max(1) as f64,
        unit: "frac",
        samples: checks.attempted,
    });
    outcome
}

fn measure_into<W: Workload>(
    run: &Run,
    checks: &mut Checks,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> Result<()> {
    // Each set-up makes the inputs afresh and runs one untimed warm-up
    // repetition, so caches fill and lazy initialization ends before the
    // clock starts. A traced run reports no set-up time and sets up once.
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for index in 0..if run.trace { 1 } else { SETUPS } {
        let start = Instant::now();
        let mut workload = W::setup(run.size, run.seed, &run.dir.join(format!("setup-{index}")))?;
        let warm_up = workload.rep(checks)?;
        setup_s.push(start.elapsed().as_secs_f64());
        checks.outputs(&warm_up);
        prepared = Some(workload);
    }
    let mut workload = prepared.expect("at least one set-up ran");

    let mut rep_s = Vec::new();
    let mut phases: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let min_reps = if run.trace { 2 * MIN_REPS } else { MIN_REPS };
    let start = Instant::now();
    let mut index = 0;
    while index < min_reps || start.elapsed().as_secs_f64() < run.seconds {
        // A traced run alternates untraced and traced repetitions, so the
        // tracing overhead is read under the same conditions.
        let rep = if run.trace && index % 2 == 1 {
            tracer.rep(index, |t| workload.rep_traced(t, checks))
        } else {
            workload.rep(checks)
        };
        index += 1;
        let rep = match rep {
            Ok(rep) => rep,
            Err(error) => {
                checks.error("repetition", error.as_ref());
                continue;
            }
        };
        checks.outputs(&rep);
        if !rep.phases.is_empty() {
            rep_s.push(rep.phases.iter().map(|(_, s)| s).sum());
        }
        for (phase, seconds) in rep.phases {
            phases.entry(phase).or_default().push(seconds);
        }
    }
    if rep_s.is_empty() {
        return Err("no repetition completed".into());
    }

    let metric = |name: &str, value: f64, unit, samples| Metric {
        name: name.to_owned(),
        value,
        unit,
        samples,
    };
    if run.trace {
        let untraced = median(&rep_s);
        let traced = tracer.rep_seconds();
        outcome.metrics = tracer.layer_metrics();
        outcome.metrics.push(metric(
            "trace.overhead_frac",
            (median(&traced) - untraced) / untraced,
            "frac",
            traced.len(),
        ));
        outcome.metrics.push(metric(
            "trace.coverage",
            tracer.coverage(),
            "frac",
            traced.len(),
        ));
        return Ok(());
    }
    if phases.len() > 1 {
        for (phase, seconds) in &phases {
            outcome
                .details
                .push(metric(phase, median(seconds), "s", seconds.len()));
        }
    }
    for q in [90.0, 99.0] {
        if beyond(rep_s.len(), q) >= 10 {
            let ms: Vec<f64> = rep_s.iter().map(|s| s * 1e3).collect();
            outcome.details.push(metric(
                &format!("rep_p{q}_ms"),
                percentile(&ms, q),
                "ms",
                ms.len(),
            ));
        }
    }
    outcome
        .metrics
        .push(metric("rep_ms", median(&rep_s) * 1e3, "ms", rep_s.len()));
    outcome
        .metrics
        .push(metric("setup_s", median(&setup_s), "s", setup_s.len()));
    outcome
        .metrics
        .push(metric("peak_rss_mb", peak_rss_mb()?, "MB", 1));
    Ok(())
}

/// The process's peak resident set size (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}
