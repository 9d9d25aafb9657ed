//! `explore`: aging-aware approximation searches over unsized netlists.

use crate::bench::{Checks, Rep, Result, Size, Workload};
use crate::trace::Tracer;
use aix_aging::AgingModel;
use aix_cells::Library;
use aix_core::{CampaignStatus, ComponentKind};
use aix_explore::{explore, ExploreConfig, ExploreOutcome, ScoreContext};
use aix_sim::Activity;
use aix_sta::{analyze, NetDelays};
use aix_synth::optimize;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug)]
pub struct Explore {
    cells: Arc<Library>,
    /// One search per config: sequential, no score cache.
    searches: Vec<ExploreConfig>,
}

impl Workload for Explore {
    const SEEDED: bool = true;

    fn setup(size: Size, seed: u64, _dir: &Path) -> Result<Self> {
        let (wide, narrow, budget) = match size {
            Size::Paper => (32, 16, 1000),
            Size::Test => (8, 4, 40),
        };
        let plan = [
            (ComponentKind::Adder, wide, budget),
            (ComponentKind::Multiplier, narrow, budget),
            (ComponentKind::Mac, narrow, budget / 2),
        ];
        let searches = plan
            .into_iter()
            .map(|(kind, width, budget)| ExploreConfig {
                seed,
                budget,
                ..ExploreConfig::new(kind, width)
            })
            .collect();
        Ok(Self {
            cells: Arc::new(Library::nangate45_like()),
            searches,
        })
    }

    fn rep(&mut self, checks: &mut Checks) -> Result<Rep> {
        let start = Instant::now();
        let outcomes = self
            .searches
            .iter()
            .map(|config| explore(&self.cells, config))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        let seconds = start.elapsed().as_secs_f64();
        Ok(Rep {
            phases: vec![("explore_s", seconds)],
            outputs: vec![("fronts", fronts(checks, &outcomes))],
        })
    }

    fn rep_traced(&mut self, t: &mut Tracer, checks: &mut Checks) -> Result<Rep> {
        let model = AgingModel::calibrated();
        let mut outcomes = Vec::new();
        for config in &self.searches {
            let outcome = t.span("explore", |_| explore(&self.cells, config))?;
            t.count("explore", "evaluated", outcome.evaluated);
            t.count("explore", "front_points", outcome.front.len());
            // Each front point once more through the calls that scored it,
            // which must reproduce its gate count and aged delay exactly.
            let (stimuli, _) =
                ScoreContext::stimuli_for(config.kind, config.width, config.vectors, config.seed);
            for point in &outcome.front {
                let built = t.span("arith", |_| point.candidate.build(&self.cells))?;
                t.count("arith", "gates", built.gate_count());
                let netlist = t.span("synth.optimize", |_| optimize(&built))?;
                t.count(
                    "synth.optimize",
                    "gates_removed",
                    built.gate_count().saturating_sub(netlist.gate_count()),
                );
                t.span("sim.packed", |_| {
                    Activity::collect(&netlist, stimuli.iter().cloned())
                })?;
                t.count("sim.packed", "vectors", stimuli.len());
                let delays = t.span("sta.delays", |_| {
                    NetDelays::aged(&netlist, &model, config.scenario)
                });
                t.count("sta.delays", "nets", netlist.net_count());
                let aged_ps = t
                    .span("sta.analyze", |_| analyze(&netlist, &delays))?
                    .max_delay_ps();
                t.count("sta.analyze", "gates", netlist.gate_count());
                let same = aged_ps.to_bits() == point.score.aged_delay_ps.to_bits()
                    && netlist.stats().gate_count == point.score.gate_count;
                checks.check(same, || {
                    format!(
                        "re-scoring {} disagrees with the front",
                        point.candidate.label()
                    )
                });
            }
            outcomes.push(outcome);
        }
        Ok(Rep {
            phases: Vec::new(),
            outputs: vec![("fronts", fronts(checks, &outcomes))],
        })
    }
}

/// One report line per search; every search must complete.
fn fronts(checks: &mut Checks, outcomes: &[ExploreOutcome]) -> String {
    let mut out = String::new();
    for outcome in outcomes {
        checks.check(outcome.status() == CampaignStatus::Complete, || {
            format!(
                "explore {}-{} did not complete",
                outcome.kind, outcome.width
            )
        });
        out.push_str(&outcome.to_json());
        out.push('\n');
    }
    out
}
