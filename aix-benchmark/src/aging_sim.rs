//! `aging-sim`: timed simulation of the Fig. 1 netlists under aging, and
//! actual-case stress extraction on the Wallace multiplier.

use crate::bench::{Checks, Rep, Result, Size, Workload};
use crate::trace::Tracer;
use aix_aging::{AgingModel, AgingScenario, Lifetime};
use aix_arith::{AdderKind, ComponentSpec, MultiplierKind};
use aix_cells::Library;
use aix_core::{actual_case_delays, idct_operand_trace, ActualCaseStress, StimulusKind};
use aix_image::Sequence;
use aix_netlist::{bus_from_u64, Netlist};
use aix_sim::{
    measure_errors, stress_pairs, Activity, ErrorStats, OperandSource, SignedNormalOperands,
};
use aix_sta::{analyze, NetDelays, StressSource};
use aix_synth::{Effort, Synthesizer};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The paper's motivational scenarios (Fig. 1).
fn scenarios() -> [AgingScenario; 4] {
    [
        AgingScenario::balanced(Lifetime::YEARS_1),
        AgingScenario::balanced(Lifetime::YEARS_10),
        AgingScenario::worst_case(Lifetime::YEARS_1),
        AgingScenario::worst_case(Lifetime::YEARS_10),
    ]
}

/// Stimuli of the actual-case stress extraction.
const STIMULI: [(&str, StimulusKind); 2] = [
    ("normal", StimulusKind::NormalDistribution),
    ("idct-akiyo", StimulusKind::IdctTrace(Sequence::Akiyo)),
];

/// Index of the Wallace multiplier in [`AgingSim::netlists`].
const WALLACE: usize = 2;

#[derive(Debug)]
pub struct AgingSim {
    model: AgingModel,
    width: usize,
    seed: u64,
    /// Vectors per error measurement.
    vectors: usize,
    /// Vectors per stress extraction.
    stress_vectors: usize,
    /// The four Fig. 1 netlists at `ultra`, named.
    netlists: Vec<(&'static str, Netlist)>,
}

impl Workload for AgingSim {
    const SEEDED: bool = true;

    fn setup(size: Size, seed: u64, _dir: &Path) -> Result<Self> {
        let (width, vectors, stress_vectors) = match size {
            Size::Paper => (32, 4096, 16384),
            Size::Test => (8, 256, 512),
        };
        let synth = Synthesizer::new(Arc::new(Library::nangate45_like()), Effort::Ultra);
        let spec = ComponentSpec::full(width);
        let netlists = vec![
            ("adder-carry-select", synth.adder(spec)?),
            (
                "adder-kogge-stone",
                synth.adder_with(AdderKind::KoggeStone, spec)?,
            ),
            ("multiplier-wallace", synth.multiplier(spec)?),
            (
                "multiplier-wallace-prefix",
                synth.multiplier_with(MultiplierKind::WallacePrefix, spec)?,
            ),
        ];
        Ok(Self {
            model: AgingModel::calibrated(),
            width,
            seed,
            vectors,
            stress_vectors,
            netlists,
        })
    }

    fn rep(&mut self, _checks: &mut Checks) -> Result<Rep> {
        let start = Instant::now();
        let mut out = String::new();
        for (index, (name, netlist)) in self.netlists.iter().enumerate() {
            let clock_ps = analyze(netlist, &NetDelays::fresh(netlist))?.max_delay_ps();
            for scenario in scenarios() {
                let delays = NetDelays::aged(netlist, &self.model, scenario);
                let stats = measure_errors(netlist, &delays, clock_ps, self.stimuli(index))?;
                write_stats(&mut out, name, scenario, &stats);
            }
        }
        let (name, netlist) = &self.netlists[WALLACE];
        for (label, kind) in STIMULI {
            let stress = ActualCaseStress::extract(
                netlist,
                kind,
                self.width,
                self.stress_vectors,
                self.seed,
            )?;
            for years in 1..=10 {
                let lifetime = Lifetime::from_years(f64::from(years));
                let delays = actual_case_delays(netlist, &stress, &self.model, lifetime);
                let delay_ps = analyze(netlist, &delays)?.max_delay_ps();
                let _ = writeln!(out, "{name} actual {label} {years}y delay_ps={delay_ps:.6}");
            }
        }
        Ok(Rep {
            phases: vec![("aged_sim_s", start.elapsed().as_secs_f64())],
            outputs: vec![("error-stats", out)],
        })
    }

    fn rep_traced(&mut self, t: &mut Tracer, _checks: &mut Checks) -> Result<Rep> {
        let mut out = String::new();
        for (index, (name, netlist)) in self.netlists.iter().enumerate() {
            let fresh = t.span("sta.delays", |_| NetDelays::fresh(netlist));
            t.count("sta.delays", "nets", netlist.net_count());
            let clock_ps = t
                .span("sta.analyze", |_| analyze(netlist, &fresh))?
                .max_delay_ps();
            t.count("sta.analyze", "gates", netlist.gate_count());
            for scenario in scenarios() {
                let delays = t.span("sta.delays", |_| {
                    NetDelays::aged(netlist, &self.model, scenario)
                });
                t.count("sta.delays", "nets", netlist.net_count());
                let stats = t.span("sim.timed", |_| {
                    measure_errors(netlist, &delays, clock_ps, self.stimuli(index))
                })?;
                t.count("sim.timed", "vectors", stats.vectors as usize);
                t.count("sim.timed", "error_vectors", stats.erroneous as usize);
                write_stats(&mut out, name, scenario, &stats);
            }
        }
        // `ActualCaseStress::extract` split into its two public calls.
        let (name, netlist) = &self.netlists[WALLACE];
        for (label, kind) in STIMULI {
            let stimuli = self.stress_stimuli(kind);
            let vectors = stimuli.len();
            let activity = t.span("sim.packed", |_| Activity::collect(netlist, stimuli))?;
            t.count("sim.packed", "vectors", vectors);
            let pairs = t.span("sim.stress", |_| stress_pairs(netlist, &activity));
            for years in 1..=10 {
                let lifetime = Lifetime::from_years(f64::from(years));
                let stress = StressSource::PerGate(pairs.clone());
                let delays = t.span("sta.delays", |_| {
                    NetDelays::aged_with_stress(netlist, &self.model, &stress, lifetime)
                });
                t.count("sta.delays", "nets", netlist.net_count());
                let delay_ps = t
                    .span("sta.analyze", |_| analyze(netlist, &delays))?
                    .max_delay_ps();
                t.count("sta.analyze", "gates", netlist.gate_count());
                let _ = writeln!(out, "{name} actual {label} {years}y delay_ps={delay_ps:.6}");
            }
        }
        Ok(Rep {
            phases: Vec::new(),
            outputs: vec![("error-stats", out)],
        })
    }
}

impl AgingSim {
    /// Seeded signed-normal operands for netlist `index`, as Fig. 1 draws
    /// them: one stream per netlist.
    fn stimuli(&self, index: usize) -> impl Iterator<Item = Vec<bool>> {
        SignedNormalOperands::for_width(self.width, self.seed + index as u64).vectors(self.vectors)
    }

    /// The stimuli `ActualCaseStress::extract` makes for `kind` on a
    /// netlist whose only inputs are the two operand buses.
    fn stress_stimuli(&self, kind: StimulusKind) -> Vec<Vec<bool>> {
        match kind {
            StimulusKind::NormalDistribution => {
                SignedNormalOperands::for_width(self.width, self.seed)
                    .vectors(self.stress_vectors)
                    .collect()
            }
            StimulusKind::IdctTrace(sequence) => idct_operand_trace(sequence, self.stress_vectors)
                .into_iter()
                .map(|(a, b)| {
                    let mut vector = bus_from_u64(a, self.width);
                    vector.extend(bus_from_u64(b, self.width));
                    vector
                })
                .collect(),
        }
    }
}

fn write_stats(out: &mut String, name: &str, scenario: AgingScenario, stats: &ErrorStats) {
    let _ = writeln!(
        out,
        "{name} {scenario} vectors={} erroneous={} wrong_bits={} mean_abs_error={} max_abs_error={}",
        stats.vectors, stats.erroneous, stats.wrong_bits, stats.mean_abs_error, stats.max_abs_error
    );
}
