//! `paper-pipeline` and `library-warm`: building the library of
//! aging-induced approximations and applying it with the Fig. 6 flow.

use crate::bench::{Checks, Rep, Result, Size, Workload};
use crate::trace::Tracer;
use aix_aging::{AgingModel, AgingScenario};
use aix_arith::{
    build_adder, build_mac, build_multiplier, AdderKind, ComponentSpec, MultiplierKind,
};
use aix_cells::Library;
use aix_core::{
    apply_aging_approximations, idct_design, ApproxLibrary, CharacterizationConfig,
    CharacterizationEngine, CharacterizationEntry, CharacterizationScenario,
    ComponentCharacterization, ComponentKind, EngineOptions, EngineReport, MicroarchDesign,
    IDCT_BLOCK_NAMES,
};
use aix_netlist::{Netlist, NetlistError};
use aix_sta::{analyze, NetDelays};
use aix_synth::{optimize, recover_area, size_for_performance, Effort};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Operand widths of the library's components: the wide adder, multiplier
/// and MAC, and the narrow rounding adder.
fn widths(size: Size) -> (usize, usize) {
    match size {
        Size::Paper => (32, 16),
        Size::Test => (6, 4),
    }
}

/// The paper's library: every component at the wide width plus the narrow
/// adder, each with `CharacterizationConfig::paper_default` (`ultra`
/// effort, 11 precisions, 13 scenarios).
fn library_configs(size: Size) -> Vec<CharacterizationConfig> {
    let (wide, narrow) = widths(size);
    let mut configs: Vec<CharacterizationConfig> = ComponentKind::ALL
        .iter()
        .map(|&kind| CharacterizationConfig::paper_default(kind, wide))
        .collect();
    configs.push(CharacterizationConfig::paper_default(
        ComponentKind::Adder,
        narrow,
    ));
    configs
}

fn engine(cells: &Arc<Library>, cache_dir: &Path) -> CharacterizationEngine {
    let options = EngineOptions {
        cache_dir: Some(cache_dir.to_owned()),
        ..EngineOptions::sequential()
    };
    CharacterizationEngine::new(Arc::clone(cells), options)
}

/// Cold library build, text round trip and the Fig. 6 flow on the IDCT
/// for the 13 paper scenarios.
#[derive(Debug)]
pub struct PaperPipeline {
    cells: Arc<Library>,
    model: AgingModel,
    configs: Vec<CharacterizationConfig>,
    design: MicroarchDesign,
    dir: PathBuf,
    reps: usize,
}

impl Workload for PaperPipeline {
    const SEEDED: bool = false;

    fn setup(size: Size, _seed: u64, dir: &Path) -> Result<Self> {
        let cells = Arc::new(Library::nangate45_like());
        let design = match size {
            Size::Paper => idct_design(&cells, Effort::Ultra)?,
            Size::Test => {
                // The IDCT's three blocks, at the test widths.
                let (wide, narrow) = widths(size);
                let mut design = MicroarchDesign::new("idct", Effort::Ultra);
                let kinds = [
                    ComponentKind::Multiplier,
                    ComponentKind::Adder,
                    ComponentKind::Adder,
                ];
                for ((name, kind), width) in
                    IDCT_BLOCK_NAMES.iter().zip(kinds).zip([wide, wide, narrow])
                {
                    design.add_block(&cells, *name, kind, width)?;
                }
                design
            }
        };
        Ok(Self {
            cells,
            model: AgingModel::calibrated(),
            configs: library_configs(size),
            design,
            dir: dir.to_owned(),
            reps: 0,
        })
    }

    fn rep(&mut self, checks: &mut Checks) -> Result<Rep> {
        // Every build gets an empty cache directory, so each job misses
        // and writes its cache file, as a user's first build does.
        self.reps += 1;
        let cache = self.dir.join(format!("cache-{}", self.reps));
        let start = Instant::now();
        let (library, _) = engine(&self.cells, &cache).characterize_all(&self.configs)?;
        let text = library.to_text();
        let build_s = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let parsed = ApproxLibrary::from_text(&text)?;
        let eq2 = eq2_table(&parsed, self.scenarios());
        let mut plans = String::new();
        for &scenario in self.scenarios() {
            let plan = apply_aging_approximations(&self.design, &parsed, &self.model, scenario)?;
            let report = plan.validate(&self.cells, Effort::Ultra, &self.model)?;
            write_plan(&mut plans, &plan, &report);
        }
        let flow_s = start.elapsed().as_secs_f64();

        std::fs::remove_dir_all(&cache)?;
        check_eq2(checks, &parsed, &eq2);
        Ok(Rep {
            phases: vec![("library_build_s", build_s), ("idct_flow_s", flow_s)],
            outputs: vec![("library", text), ("idct-plans", plans)],
        })
    }

    fn rep_traced(&mut self, t: &mut Tracer, checks: &mut Checks) -> Result<Rep> {
        // The engine's work, job by job: `Synthesizer::finish` at `ultra`
        // step by step, then aged STA per scenario, quantized to the
        // library's 6 decimals as the engine stores it.
        let mut library = ApproxLibrary::new();
        for config in &self.configs {
            let mut characterization =
                ComponentCharacterization::new(config.kind, config.width, config.effort);
            for &precision in &config.precisions {
                let netlist = synthesize_ultra(
                    t,
                    &self.cells,
                    config.kind,
                    ComponentSpec::new(config.width, precision)?,
                )?;
                for &scenario in &config.scenarios {
                    let delays = t.span("sta.delays", |_| {
                        NetDelays::aged(&netlist, &self.model, scenario)
                    });
                    t.count("sta.delays", "nets", netlist.net_count());
                    let timing = t.span("sta.analyze", |_| analyze(&netlist, &delays))?;
                    t.count("sta.analyze", "gates", netlist.gate_count());
                    characterization.add_entry(CharacterizationEntry {
                        precision,
                        scenario: scenario.into(),
                        delay_ps: format!("{:.6}", timing.max_delay_ps()).parse()?,
                    });
                }
            }
            // Insertion enforces the delay-vs-precision monotonicity.
            t.span("core.library", |_| library.insert(characterization));
        }
        let text = t.span("core.library", |_| library.to_text());
        t.count("core.library", "bytes", text.len());

        let parsed = t.span("core.library", |_| ApproxLibrary::from_text(&text))?;
        t.count("core.library", "bytes", text.len());
        let eq2 = t.span("core.eq2", |_| eq2_table(&parsed, self.scenarios()));
        let mut plans = String::new();
        for &scenario in self.scenarios() {
            let plan = t.span("core.microarch", |_| {
                apply_aging_approximations(&self.design, &parsed, &self.model, scenario)
            })?;
            let report = t.span("core.microarch", |_| {
                plan.validate(&self.cells, Effort::Ultra, &self.model)
            })?;
            write_plan(&mut plans, &plan, &report);
        }
        check_eq2(checks, &parsed, &eq2);
        Ok(Rep {
            phases: Vec::new(),
            outputs: vec![("library", text), ("idct-plans", plans)],
        })
    }
}

impl PaperPipeline {
    /// The 13 paper scenarios, shared by every config.
    fn scenarios(&self) -> &[AgingScenario] {
        &self.configs[0].scenarios
    }
}

/// What `Synthesizer` does at `Effort::Ultra`, one public call at a time:
/// the fast architecture, cleanup, timing-driven sizing, area recovery.
fn synthesize_ultra(
    t: &mut Tracer,
    cells: &Arc<Library>,
    kind: ComponentKind,
    spec: ComponentSpec,
) -> std::result::Result<Netlist, NetlistError> {
    let built = t.span("arith", |_| match kind {
        ComponentKind::Adder => build_adder(cells, AdderKind::CarrySelect, spec),
        ComponentKind::Multiplier => build_multiplier(cells, MultiplierKind::Wallace, spec),
        ComponentKind::Mac => build_mac(cells, spec),
    })?;
    t.count("arith", "gates", built.gate_count());
    let mut netlist = t.span("synth.optimize", |_| optimize(&built))?;
    t.count(
        "synth.optimize",
        "gates_removed",
        built.gate_count().saturating_sub(netlist.gate_count()),
    );
    let sized = t.span("synth.sizing", |_| {
        size_for_performance(&mut netlist, NetDelays::fresh, 400)
    })?;
    t.count("synth.sizing", "iterations", sized.iterations);
    t.count("synth.sizing", "upsized", sized.upsized_gates);
    let recovered = t.span("synth.area_recovery", |_| {
        recover_area(&mut netlist, NetDelays::fresh, sized.final_delay_ps, 25)
    })?;
    t.count(
        "synth.area_recovery",
        "downsized",
        recovered.downsized_gates,
    );
    netlist.validate()?;
    Ok(netlist)
}

/// Eq. 2 on every library row: the precision each component needs under
/// each scenario, `None` when no characterized precision suffices.
type Eq2Row = (ComponentKind, usize, AgingScenario, Option<usize>);

fn eq2_table(library: &ApproxLibrary, scenarios: &[AgingScenario]) -> Vec<Eq2Row> {
    library
        .iter()
        .flat_map(|c| {
            scenarios
                .iter()
                .map(move |&s| (c.kind(), c.width(), s, c.required_precision(s)))
        })
        .collect()
}

/// t(Aging, K) ≤ t(noAging, N) < t(Aging, K+1) whenever K < N.
fn check_eq2(checks: &mut Checks, library: &ApproxLibrary, rows: &[Eq2Row]) {
    for &(kind, width, scenario, precision) in rows {
        let Some(k) = precision.filter(|&k| k < width) else {
            continue;
        };
        let c = library
            .get(kind, width)
            .expect("rows come from the library");
        let constraint = c.fresh_full_delay_ps();
        let at = |p| c.delay_ps(p, CharacterizationScenario::from(scenario));
        let holds = at(k).is_some_and(|d| d <= constraint + 1e-9)
            && at(k + 1).is_some_and(|d| constraint < d);
        checks.check(holds, || {
            format!("Eq. 2 fails for {kind}-{width} under {scenario} at K={k}")
        });
    }
}

fn write_plan(
    out: &mut String,
    plan: &aix_core::ApproximationPlan,
    report: &aix_core::ValidationReport,
) {
    for (block, (_, aged_ps)) in plan.blocks.iter().zip(&report.aged_delays_ps) {
        let _ = writeln!(
            out,
            "{} {} precision={} aged_ps={aged_ps:.6} timing_met={}",
            plan.scenario, block.name, block.precision, report.timing_met
        );
    }
}

/// The same four-config build as `paper-pipeline`, served from a cache
/// that set-up filled, then rendered.
#[derive(Debug)]
pub struct LibraryWarm {
    cells: Arc<Library>,
    configs: Vec<CharacterizationConfig>,
    cache: PathBuf,
}

impl Workload for LibraryWarm {
    const SEEDED: bool = false;

    fn setup(size: Size, _seed: u64, dir: &Path) -> Result<Self> {
        let cells = Arc::new(Library::nangate45_like());
        let configs = library_configs(size);
        let cache = dir.join("cache");
        engine(&cells, &cache).characterize_all(&configs)?;
        Ok(Self {
            cells,
            configs,
            cache,
        })
    }

    fn rep(&mut self, checks: &mut Checks) -> Result<Rep> {
        let start = Instant::now();
        let (library, report) = engine(&self.cells, &self.cache).characterize_all(&self.configs)?;
        let text = library.to_text();
        let seconds = start.elapsed().as_secs_f64();
        check_all_hits(checks, &report);
        Ok(Rep {
            phases: vec![("library_warm_s", seconds)],
            outputs: vec![("library", text)],
        })
    }

    fn rep_traced(&mut self, t: &mut Tracer, checks: &mut Checks) -> Result<Rep> {
        let (library, report) = t.span("core.engine", |_| {
            engine(&self.cells, &self.cache).characterize_all(&self.configs)
        })?;
        t.count("core.engine", "cache_hits", report.cache_hits);
        t.count("core.engine", "cache_misses", report.cache_misses);
        t.count("core.engine", "retries", report.job_retries);
        let text = t.span("core.library", |_| library.to_text());
        t.count("core.library", "bytes", text.len());
        check_all_hits(checks, &report);
        Ok(Rep {
            phases: Vec::new(),
            outputs: vec![("library", text)],
        })
    }
}

fn check_all_hits(checks: &mut Checks, report: &EngineReport) {
    checks.check(
        report.synth_executed == 0 && report.cache_misses == 0,
        || format!("warm build missed the cache: {}", report.summary()),
    );
}
