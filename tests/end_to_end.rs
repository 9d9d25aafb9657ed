//! End-to-end integration: characterize → persist → reload → apply at the
//! microarchitecture level → validate, across crate boundaries.

use aix::aging::{AgingModel, AgingScenario, Lifetime};
use aix::cells::Library;
use aix::core::{
    apply_aging_approximations, characterize_component, ApproxLibrary, CharacterizationConfig,
    ComponentKind, MicroarchDesign,
};
use aix::synth::Effort;
use std::sync::Arc;

fn quick_library(cells: &Arc<Library>, width: usize, effort: Effort) -> ApproxLibrary {
    let mut library = ApproxLibrary::new();
    for kind in [ComponentKind::Adder, ComponentKind::Multiplier] {
        let config = CharacterizationConfig {
            kind,
            width,
            precisions: (width / 2..=width).rev().collect(),
            scenarios: vec![
                AgingScenario::Fresh,
                AgingScenario::worst_case(Lifetime::YEARS_1),
                AgingScenario::worst_case(Lifetime::YEARS_10),
            ],
            effort,
        };
        library.insert(characterize_component(cells, &config).expect("characterization"));
    }
    library
}

#[test]
fn characterize_persist_reload_apply_validate() {
    let cells = Arc::new(Library::nangate45_like());
    let effort = Effort::Medium;
    let library = quick_library(&cells, 12, effort);

    // Persist and reload through the text artifact.
    let dir = std::env::temp_dir().join("aix-e2e-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("library.txt");
    std::fs::write(&path, library.to_text()).expect("write artifact");
    let reloaded =
        ApproxLibrary::from_text(&std::fs::read_to_string(&path).expect("read artifact"))
            .expect("parse artifact");
    assert_eq!(reloaded.len(), library.len());

    // Apply the reloaded library to a design.
    let mut design = MicroarchDesign::new("e2e", effort);
    design
        .add_block(&cells, "multiplier", ComponentKind::Multiplier, 12)
        .expect("synthesis");
    design
        .add_block(&cells, "adder", ComponentKind::Adder, 12)
        .expect("synthesis");
    let model = AgingModel::calibrated();
    let scenario = AgingScenario::worst_case(Lifetime::YEARS_10);
    let plan = apply_aging_approximations(&design, &reloaded, &model, scenario).expect("flow");
    assert!(
        plan.has_approximations(),
        "10-year worst-case aging must force some approximation"
    );

    // Validate: the approximated design meets the fresh constraint while aged.
    let report = plan.validate(&cells, effort, &model).expect("validation");
    assert!(report.timing_met, "{report:?}");
}

#[test]
fn lifetime_sweep_needs_monotonically_more_truncation() {
    let cells = Arc::new(Library::nangate45_like());
    let effort = Effort::Medium;
    let config = CharacterizationConfig {
        kind: ComponentKind::Adder,
        width: 12,
        precisions: (4..=12).rev().collect(),
        scenarios: [0.5, 1.0, 2.0, 5.0, 10.0]
            .iter()
            .map(|&y| AgingScenario::worst_case(Lifetime::from_years(y)))
            .chain(std::iter::once(AgingScenario::Fresh))
            .collect(),
        effort,
    };
    let characterization = characterize_component(&cells, &config).expect("characterization");
    let mut last_precision = usize::MAX;
    for years in [0.5, 1.0, 2.0, 5.0, 10.0] {
        let scenario = AgingScenario::worst_case(Lifetime::from_years(years));
        let precision = characterization
            .required_precision(scenario)
            .expect("compensable within 8 truncated bits");
        assert!(
            precision <= last_precision,
            "longer lifetimes cannot need less truncation ({years}y: {precision} vs {last_precision})"
        );
        last_precision = precision;
    }
    assert!(last_precision < 12, "10 years must require truncation");
}

#[test]
fn balanced_stress_needs_no_more_truncation_than_worst() {
    let cells = Arc::new(Library::nangate45_like());
    let config = CharacterizationConfig {
        kind: ComponentKind::Multiplier,
        width: 12,
        precisions: (4..=12).rev().collect(),
        scenarios: vec![
            AgingScenario::Fresh,
            AgingScenario::balanced(Lifetime::YEARS_10),
            AgingScenario::worst_case(Lifetime::YEARS_10),
        ],
        effort: Effort::Medium,
    };
    let characterization = characterize_component(&cells, &config).expect("characterization");
    let balanced = characterization
        .required_precision(AgingScenario::balanced(Lifetime::YEARS_10))
        .expect("compensable");
    let worst = characterization
        .required_precision(AgingScenario::worst_case(Lifetime::YEARS_10))
        .expect("compensable");
    assert!(
        balanced >= worst,
        "balanced ({balanced}b) must keep at least as much precision as worst case ({worst}b)"
    );
}
