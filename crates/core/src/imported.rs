//! The aging→approximation pipeline on *imported* netlists.
//!
//! Synthesized components go through [`crate::CharacterizationEngine`],
//! which knows their generator and can rebuild any precision variant from
//! a [`crate::CharacterizationConfig`]. An imported netlist is an opaque
//! gate-level design — there is no generator to re-run — so this module
//! re-derives the same paper quantities directly from the structure:
//!
//! 1. group the primary inputs back into operand buses (`a[0]`, `a[1]`, …
//!    belong to bus `a`; a scalar input is a one-bit bus),
//! 2. form precision variants by tying the lowest `cut` bits of every
//!    multi-bit bus to constant 0 and re-optimizing (the same LSB
//!    truncation the paper applies to RTL components),
//! 3. score each variant: gate count, aged critical path under the chosen
//!    scenario, and functional error against the original on shared
//!    deterministic stimuli,
//! 4. apply Eq. 2 — the deepest truncation whose aged delay still meets
//!    the design's own fresh clock — to pick the compensating precision.
//!
//! `aix characterize|explore|flow --netlist FILE` all print views of the
//! [`ImportedReport`] this produces, and `aix verify --netlist` Monte-Carlo
//! perturbs the aged delays of the selected variant to stress the margin.

use crate::error::AixError;
use aix_aging::{AgingModel, AgingScenario, Lifetime};
use aix_cells::Library;
use aix_netlist::{import_netlist, GateSink, ImportFormat, NetDriver, NetId, Netlist};
use aix_sim::reference_outputs;
use aix_sta::{analyze, NetDelays};
use aix_synth::Planner;
use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::path::Path;
use std::sync::Arc;

/// Reads and imports a structural netlist file, choosing the format from
/// the extension (falling back to content sniffing).
///
/// # Errors
///
/// [`AixError::Io`] when the file cannot be read, [`AixError::Import`]
/// (which renders as `path:line:col: message`) when it does not parse or
/// map onto the cell library.
pub fn load_imported(path: &str, cells: &Arc<Library>) -> Result<Netlist, AixError> {
    let source = std::fs::read_to_string(path).map_err(|e| AixError::io(path, e))?;
    let format =
        ImportFormat::from_path(Path::new(path)).unwrap_or_else(|| ImportFormat::detect(&source));
    let mut netlist =
        import_netlist(&source, format, cells).map_err(|e| AixError::import(path, e))?;
    // An anonymous EDIF/Verilog top keeps its module name; make sure the
    // report has something to print even for pathological inputs.
    if netlist.name().is_empty() {
        netlist.set_name("imported");
    }
    Ok(netlist)
}

/// One operand bus recovered from the primary-input names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputBus {
    /// Bus base name (`a` for inputs `a[0]`, `a[1]`, …).
    pub name: String,
    /// Member nets in bit order, index 0 first (the LSB by convention).
    pub bits: Vec<NetId>,
}

impl InputBus {
    /// Bus width in bits.
    pub fn width(&self) -> usize {
        self.bits.len()
    }
}

/// Splits a port name into its bus base and bit index: `a[3]` (the form
/// EDIF renames preserve) and its Verilog-sanitized twin `a_3_` both map
/// to `("a", 3)`. Anything else is a scalar at index 0.
fn bus_bit(name: &str) -> (String, u32) {
    if let Some((base, index)) = name.strip_suffix(']').and_then(|s| s.rsplit_once('[')) {
        if let Ok(index) = index.parse::<u32>() {
            return (base.to_owned(), index);
        }
    }
    if let Some((base, index)) = name.strip_suffix('_').and_then(|s| s.rsplit_once('_')) {
        if !base.is_empty() && !index.is_empty() && index.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(index) = index.parse::<u32>() {
                return (base.to_owned(), index);
            }
        }
    }
    (name.to_owned(), 0)
}

/// Groups the primary inputs into buses by the `name[index]` convention
/// both exporters and the importer preserve (including its sanitized
/// `name_index_` Verilog spelling). Inputs without an index form one-bit
/// buses. Buses appear in first-occurrence order; members are sorted by
/// index.
pub fn input_buses(netlist: &Netlist) -> Vec<InputBus> {
    let mut buses: Vec<(String, Vec<(u32, NetId)>)> = Vec::new();
    for (position, &net) in netlist.inputs().iter().enumerate() {
        let fallback = format!("in{position}");
        let name = netlist.net(net).name.as_deref().unwrap_or(&fallback);
        let (base, index) = bus_bit(name);
        match buses.iter_mut().find(|(b, _)| *b == base) {
            Some((_, bits)) => bits.push((index, net)),
            None => buses.push((base, vec![(index, net)])),
        }
    }
    buses
        .into_iter()
        .map(|(name, mut bits)| {
            bits.sort_by_key(|&(index, _)| index);
            InputBus {
                name,
                bits: bits.into_iter().map(|(_, net)| net).collect(),
            }
        })
        .collect()
}

/// Builds the precision variant that ties the lowest `cut` bits of every
/// multi-bit input bus to constant 0, then constant-propagates and sweeps
/// dead gates. The primary-input interface is preserved bit for bit (cut
/// inputs stay declared, they just no longer reach any gate), so original
/// and variant accept identical stimulus vectors.
///
/// # Errors
///
/// Propagates netlist-construction errors; a validated import never fails.
pub fn truncate_imported(netlist: &Netlist, cut: u32) -> Result<Netlist, AixError> {
    // The tied netlist goes straight into the optimizer's planner, which
    // folds the tied cones as the gates arrive.
    let mut planner = Planner::new(netlist.name(), Arc::clone(netlist.library()));
    tie_into(netlist, cut, &mut planner)?;
    planner.finish().map_err(AixError::Netlist)
}

/// Writes `netlist` into `sink` with the lowest `cut` bits of every
/// multi-bit input bus tied to constant 0, gates in topological order.
fn tie_into<S: GateSink>(netlist: &Netlist, cut: u32, sink: &mut S) -> Result<(), AixError> {
    let mut tied: Vec<bool> = vec![false; netlist.net_count()];
    for bus in input_buses(netlist) {
        if bus.width() < 2 {
            continue;
        }
        let keep = bus.width().saturating_sub(cut as usize).max(1);
        for &net in &bus.bits[..bus.width() - keep] {
            tied[net.index()] = true;
        }
    }

    let mut net_map: Vec<Option<NetId>> = vec![None; netlist.net_count()];
    for &input in netlist.inputs() {
        let name = netlist
            .net(input)
            .name
            .clone()
            .unwrap_or_else(|| format!("in{}", input.index()));
        let new = sink.add_input(name);
        net_map[input.index()] = Some(if tied[input.index()] {
            sink.constant(false)
        } else {
            new
        });
    }
    let resolve = |sink: &mut S, map: &[Option<NetId>], net: NetId| match netlist.net(net).driver {
        NetDriver::Constant(value) => sink.constant(value),
        _ => map[net.index()].expect("topological order maps fanin first"),
    };
    for gate_id in netlist.topological_order().map_err(AixError::Netlist)? {
        let gate = netlist.gate(gate_id);
        let inputs: Vec<NetId> = gate
            .inputs
            .iter()
            .map(|&net| resolve(sink, &net_map, net))
            .collect();
        let outputs = sink
            .add_gate(gate.cell, &inputs)
            .map_err(AixError::Netlist)?;
        for (&old, &new) in gate.outputs.iter().zip(&outputs) {
            net_map[old.index()] = Some(new);
        }
    }
    for (name, net) in netlist.outputs() {
        let mapped = resolve(sink, &net_map, *net);
        sink.mark_output(name.clone(), mapped);
    }
    Ok(())
}

/// Deterministic LCG stimuli covering every primary input.
fn stimuli(inputs: usize, vectors: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut state = seed.wrapping_mul(2) | 1;
    (0..vectors)
        .map(|_| {
            (0..inputs)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 33) & 1 == 1
                })
                .collect()
        })
        .collect()
}

/// Functional (zero-delay) error of a variant's outputs `approx` against
/// the original's `golden`, both per shared stimulus vector in stimulus
/// order: erroneous-vector fraction plus magnitude statistics, weighting
/// output bit `i` by `2^i` (saturated beyond 63 outputs).
fn functional_error(golden: &[Vec<bool>], approx: &[Vec<bool>]) -> (f64, f64, f64) {
    let mut erroneous = 0usize;
    let mut sum_abs = 0.0f64;
    let mut max_abs = 0.0f64;
    for (golden, approx) in golden.iter().zip(approx) {
        if golden != approx {
            erroneous += 1;
            let mut diff = 0.0f64;
            for (bit, (g, a)) in golden.iter().zip(approx).enumerate() {
                if g != a {
                    diff += 2.0f64.powi(bit.min(63) as i32);
                }
            }
            sum_abs += diff;
            max_abs = max_abs.max(diff);
        }
    }
    let count = golden.len().max(1) as f64;
    (100.0 * erroneous as f64 / count, sum_abs / count, max_abs)
}

/// Parameters of the imported-design pipeline.
#[derive(Debug, Clone)]
pub struct ImportedConfig {
    /// Aging scenario the variants are timed under.
    pub scenario: AgingScenario,
    /// Stimulus vectors for the functional-error comparison.
    pub vectors: usize,
    /// Stimulus seed.
    pub seed: u64,
    /// Deepest truncation to sweep; `None` derives it from the narrowest
    /// multi-bit bus.
    pub max_cut: Option<u32>,
}

impl Default for ImportedConfig {
    fn default() -> Self {
        ImportedConfig {
            scenario: AgingScenario::worst_case(Lifetime::YEARS_10),
            vectors: 512,
            seed: 42,
            max_cut: None,
        }
    }
}

/// One precision variant of an imported design.
#[derive(Debug, Clone)]
pub struct ImportedVariant {
    /// LSBs tied to 0 on every multi-bit input bus.
    pub cut: u32,
    /// Gate count after constant propagation and dead-gate sweeping.
    pub gates: usize,
    /// Critical path under the report's aging scenario, in ps.
    pub aged_ps: f64,
    /// Slack against the design's own fresh clock, in ps (positive meets).
    pub slack_ps: f64,
    /// Fraction of stimulus vectors with any wrong output bit, percent.
    pub error_percent: f64,
    /// Mean absolute output error, weighting bit `i` by `2^i`.
    pub mean_abs_error: f64,
    /// Largest absolute output error observed.
    pub max_abs_error: f64,
}

impl ImportedVariant {
    /// Eq. 2 test: does this variant's aged path meet the fresh clock?
    pub fn meets_clock(&self) -> bool {
        self.slack_ps >= 0.0
    }
}

/// The full truncation sweep of one imported design.
#[derive(Debug, Clone)]
pub struct ImportedReport {
    /// Design (module) name from the imported file.
    pub design: String,
    /// Recovered operand buses as `(name, width)`.
    pub buses: Vec<(String, usize)>,
    /// The design's own fresh critical path — the clock Eq. 2 runs against.
    pub clock_ps: f64,
    /// Aging scenario of the `aged_ps` column.
    pub scenario: AgingScenario,
    /// Variants in increasing truncation order; `variants[0]` is exact.
    pub variants: Vec<ImportedVariant>,
}

impl ImportedReport {
    /// Eq. 2: the *shallowest* truncation whose aged path meets the fresh
    /// clock — the highest precision that still compensates the aging.
    /// `None` when no truncation does.
    pub fn required_cut(&self) -> Option<u32> {
        self.variants
            .iter()
            .find(|v| v.meets_clock())
            .map(|v| v.cut)
    }

    /// The variants no other variant dominates on
    /// (error, aged delay, gates) — all three minimized.
    pub fn pareto_front(&self) -> Vec<&ImportedVariant> {
        self.variants
            .iter()
            .filter(|v| {
                !self.variants.iter().any(|other| {
                    (other.error_percent <= v.error_percent
                        && other.aged_ps <= v.aged_ps
                        && other.gates <= v.gates)
                        && (other.error_percent < v.error_percent
                            || other.aged_ps < v.aged_ps
                            || other.gates < v.gates)
                })
            })
            .collect()
    }

    /// Renders the sweep as the same fixed-width table style the other
    /// commands print.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let buses: Vec<String> = self
            .buses
            .iter()
            .map(|(name, width)| format!("{name}[{width}]"))
            .collect();
        let _ = writeln!(
            out,
            "imported design `{}`: buses {}; fresh clock {:.1} ps under {}",
            self.design,
            buses.join(" "),
            self.clock_ps,
            self.scenario
        );
        let _ = writeln!(
            out,
            "{:>4} {:>7} {:>10} {:>9} {:>8} {:>12}  eq2",
            "cut", "gates", "aged [ps]", "slack", "err [%]", "mean |err|"
        );
        for v in &self.variants {
            let _ = writeln!(
                out,
                "{:>4} {:>7} {:>10.1} {:>+9.1} {:>8.2} {:>12.1}  {}",
                v.cut,
                v.gates,
                v.aged_ps,
                v.slack_ps,
                v.error_percent,
                v.mean_abs_error,
                if v.meets_clock() { "meets" } else { "misses" }
            );
        }
        match self.required_cut() {
            Some(cut) => {
                let _ = writeln!(
                    out,
                    "# Eq. 2 under {}: cut {cut} LSB(s) per bus compensates the aged clock",
                    self.scenario
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "# Eq. 2 under {}: not compensable at any truncation",
                    self.scenario
                );
            }
        }
        out
    }
}

/// Runs the truncation sweep on an imported design: exact first, then one
/// variant per additional LSB cut, each timed under `config.scenario` and
/// scored for functional error against the exact design.
///
/// # Errors
///
/// Propagates netlist and STA failures.
pub fn characterize_imported(
    netlist: &Netlist,
    model: &AgingModel,
    config: &ImportedConfig,
) -> Result<ImportedReport, AixError> {
    let buses = input_buses(netlist);
    let widest_cut = buses
        .iter()
        .filter(|bus| bus.width() >= 2)
        .map(|bus| bus.width() as u32 - 1)
        .min()
        .unwrap_or(0);
    let max_cut = config.max_cut.unwrap_or(widest_cut).min(widest_cut);
    let clock_ps = analyze(netlist, &NetDelays::fresh(netlist))
        .map_err(AixError::Netlist)?
        .max_delay_ps();
    let vectors = stimuli(netlist.inputs().len(), config.vectors, config.seed);
    let golden = reference_outputs(netlist, &vectors).map_err(AixError::Netlist)?;

    let mut variants = Vec::with_capacity(max_cut as usize + 1);
    for cut in 0..=max_cut {
        let variant = truncate_imported(netlist, cut)?;
        let aged = NetDelays::aged(&variant, model, config.scenario);
        let aged_ps = analyze(&variant, &aged)
            .map_err(AixError::Netlist)?
            .max_delay_ps();
        let approx = reference_outputs(&variant, &vectors).map_err(AixError::Netlist)?;
        let (error_percent, mean_abs_error, max_abs_error) = functional_error(&golden, &approx);
        variants.push(ImportedVariant {
            cut,
            gates: variant.gate_count(),
            aged_ps,
            slack_ps: clock_ps - aged_ps,
            error_percent,
            mean_abs_error,
            max_abs_error,
        });
    }
    Ok(ImportedReport {
        design: netlist.name().to_owned(),
        buses: buses
            .into_iter()
            .map(|bus| (bus.name.clone(), bus.width()))
            .collect(),
        clock_ps,
        scenario: config.scenario,
        variants,
    })
}

/// Monte-Carlo margin check of one imported variant: every sampled
/// perturbation multiplies each gate's aged delay by a log-uniform factor
/// in `[1-sigma, 1+sigma]`, and the perturbed critical path must still
/// meet the fresh clock.
#[derive(Debug, Clone)]
pub struct ImportedVerify {
    /// The verified truncation (Eq. 2's pick).
    pub cut: u32,
    /// Samples drawn.
    pub samples: usize,
    /// Samples whose perturbed path missed the clock.
    pub failures: usize,
    /// Worst margin over all samples, in ps (negative = violated).
    pub worst_margin_ps: f64,
}

impl ImportedVerify {
    /// Whether every sample met the clock.
    pub fn passed(&self) -> bool {
        self.failures == 0
    }
}

/// Verifies the Eq. 2 selection of `report` against `samples` perturbed
/// aging outcomes with relative gate-delay spread `sigma`.
///
/// # Errors
///
/// Propagates netlist and STA failures.
pub fn verify_imported(
    netlist: &Netlist,
    model: &AgingModel,
    config: &ImportedConfig,
    samples: NonZeroUsize,
    sigma: f64,
    seed: u64,
) -> Result<Option<ImportedVerify>, AixError> {
    let report = characterize_imported(netlist, model, config)?;
    let Some(cut) = report.required_cut() else {
        return Ok(None);
    };
    let variant = truncate_imported(netlist, cut)?;
    let aged = NetDelays::aged(&variant, model, config.scenario);
    let mut state = seed.wrapping_mul(2) | 1;
    let mut failures = 0usize;
    let mut worst = f64::INFINITY;
    for _ in 0..samples.get() {
        let mut factors = vec![1.0f64; variant.gate_count()];
        for factor in &mut factors {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let uniform = (state >> 11) as f64 / (1u64 << 53) as f64;
            *factor = 1.0 + sigma * (2.0 * uniform - 1.0);
        }
        let perturbed = aged.scaled_by_gate(&variant, |gate| factors[gate]);
        let delay = analyze(&variant, &perturbed)
            .map_err(AixError::Netlist)?
            .max_delay_ps();
        let margin = report.clock_ps - delay;
        worst = worst.min(margin);
        if margin < 0.0 {
            failures += 1;
        }
    }
    Ok(Some(ImportedVerify {
        cut,
        samples: samples.get(),
        failures,
        worst_margin_ps: worst,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aix_arith::{build_adder, AdderKind, ComponentSpec};
    use aix_netlist::to_verilog;
    use aix_sim::oracle;

    fn lib() -> Arc<Library> {
        Arc::new(Library::nangate45_like())
    }

    fn imported_adder(width: usize) -> (Arc<Library>, Netlist) {
        let cells = lib();
        let adder =
            build_adder(&cells, AdderKind::RippleCarry, ComponentSpec::full(width)).unwrap();
        let text = to_verilog(&adder);
        let imported = aix_netlist::import_verilog(&text, &cells).unwrap();
        (cells, imported)
    }

    #[test]
    fn buses_are_recovered_from_input_names() {
        let (_, netlist) = imported_adder(8);
        let buses = input_buses(&netlist);
        let shape: Vec<(String, usize)> =
            buses.iter().map(|b| (b.name.clone(), b.width())).collect();
        // RCA inputs: a[8], b[8] plus the carry-in scalar.
        assert!(shape.contains(&("a".into(), 8)), "{shape:?}");
        assert!(shape.contains(&("b".into(), 8)), "{shape:?}");
    }

    #[test]
    fn truncation_preserves_the_interface_and_sheds_gates() {
        let (_, netlist) = imported_adder(8);
        let exact = truncate_imported(&netlist, 0).unwrap();
        let cut = truncate_imported(&netlist, 4).unwrap();
        assert_eq!(netlist.inputs().len(), cut.inputs().len());
        assert_eq!(netlist.outputs().len(), cut.outputs().len());
        assert!(
            cut.gate_count() < exact.gate_count(),
            "cutting 4 LSBs must remove logic: {} vs {}",
            cut.gate_count(),
            exact.gate_count()
        );
    }

    /// The planner-fed variant is the one `optimize` builds from the tied
    /// netlist, byte for byte.
    #[test]
    fn truncation_matches_optimizing_the_tied_netlist() {
        let (_, netlist) = imported_adder(8);
        for cut in 0..=8 {
            let mut tied = Netlist::new(netlist.name(), Arc::clone(netlist.library()));
            tie_into(&netlist, cut, &mut tied).unwrap();
            let expected = aix_synth::optimize(&tied).unwrap();
            let variant = truncate_imported(&netlist, cut).unwrap();
            assert_eq!(to_verilog(&variant), to_verilog(&expected), "cut {cut}");
            assert_eq!(variant.net_count(), expected.net_count(), "cut {cut}");
        }
    }

    #[test]
    fn sweep_is_monotone_and_eq2_consistent() {
        let (_, netlist) = imported_adder(8);
        let model = AgingModel::calibrated();
        let config = ImportedConfig {
            vectors: 128,
            ..ImportedConfig::default()
        };
        let report = characterize_imported(&netlist, &model, &config).unwrap();
        assert_eq!(report.variants[0].cut, 0);
        assert!(
            report.variants[0].error_percent == 0.0,
            "the exact variant must be error-free"
        );
        for pair in report.variants.windows(2) {
            assert!(
                pair[1].error_percent >= pair[0].error_percent,
                "error must not shrink with deeper cuts"
            );
            assert!(
                pair[1].aged_ps <= pair[0].aged_ps + 1e-9,
                "constant propagation must never lengthen the aged path"
            );
        }
        if let Some(cut) = report.required_cut() {
            let chosen = &report.variants[cut as usize];
            assert!(chosen.meets_clock());
        }
        let rendered = report.render();
        assert!(rendered.contains("Eq. 2"), "{rendered}");
    }

    /// The packed error columns equal, bit for bit, the same statistics
    /// summed vector by vector over scalar `Netlist::eval` outputs.
    #[test]
    fn error_columns_match_a_scalar_recomputation() {
        let cells = lib();
        let rca8 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus/rca8.v");
        let designs = [
            load_imported(rca8, &cells).unwrap(),
            build_adder(&cells, AdderKind::KoggeStone, ComponentSpec::full(8)).unwrap(),
        ];
        let config = ImportedConfig::default();
        for netlist in &designs {
            let report =
                characterize_imported(netlist, &AgingModel::calibrated(), &config).unwrap();
            assert!(report.variants.len() > 1, "{}", netlist.name());
            let vectors = stimuli(netlist.inputs().len(), config.vectors, config.seed);
            for variant in &report.variants {
                let truncated = truncate_imported(netlist, variant.cut).unwrap();
                let (mut erroneous, mut sum_abs, mut max_abs) = (0usize, 0.0f64, 0.0f64);
                for vector in &vectors {
                    let golden = oracle::eval(netlist, vector).unwrap();
                    let approx = oracle::eval(&truncated, vector).unwrap();
                    if golden != approx {
                        erroneous += 1;
                        let mut diff = 0.0f64;
                        for (bit, (g, a)) in golden.iter().zip(&approx).enumerate() {
                            if g != a {
                                diff += 2.0f64.powi(bit.min(63) as i32);
                            }
                        }
                        sum_abs += diff;
                        max_abs = max_abs.max(diff);
                    }
                }
                let count = vectors.len() as f64;
                let label = format!("{} cut {}", netlist.name(), variant.cut);
                assert_eq!(
                    variant.error_percent.to_bits(),
                    (100.0 * erroneous as f64 / count).to_bits(),
                    "{label}"
                );
                assert_eq!(
                    variant.mean_abs_error.to_bits(),
                    (sum_abs / count).to_bits(),
                    "{label}"
                );
                assert_eq!(
                    variant.max_abs_error.to_bits(),
                    max_abs.to_bits(),
                    "{label}"
                );
            }
            assert!(report.variants.iter().any(|v| v.mean_abs_error > 0.0));
        }
    }

    #[test]
    fn verify_samples_report_margins() {
        let (_, netlist) = imported_adder(8);
        let model = AgingModel::calibrated();
        let config = ImportedConfig {
            vectors: 64,
            ..ImportedConfig::default()
        };
        let verify = verify_imported(
            &netlist,
            &model,
            &config,
            NonZeroUsize::new(8).unwrap(),
            0.02,
            7,
        )
        .unwrap()
        .expect("an 8-bit adder truncation compensates 10y aging");
        assert_eq!(verify.samples, 8);
        assert!(verify.worst_margin_ps.is_finite());
    }

    #[test]
    fn one_sample_reports_its_own_margin() {
        // `samples` is a `NonZeroUsize`: a run of zero samples that
        // reports a pass cannot be asked for, so the worst margin is
        // always a measured one.
        let (_, netlist) = imported_adder(8);
        let model = AgingModel::calibrated();
        let config = ImportedConfig {
            vectors: 64,
            ..ImportedConfig::default()
        };
        let verify = verify_imported(&netlist, &model, &config, NonZeroUsize::MIN, 0.0, 7)
            .unwrap()
            .expect("an 8-bit adder truncation compensates 10y aging");
        let clock_ps = characterize_imported(&netlist, &model, &config)
            .unwrap()
            .clock_ps;
        let variant = truncate_imported(&netlist, verify.cut).unwrap();
        let aged = NetDelays::aged(&variant, &model, config.scenario);
        let delay = analyze(&variant, &aged).unwrap().max_delay_ps();
        assert_eq!(verify.samples, 1);
        assert_eq!(verify.worst_margin_ps, clock_ps - delay);
    }
}
