//! Integration tests of campaign fault tolerance: injected panics fail
//! only their job, at any job count, and the all-or-nothing entry points
//! report the incomplete campaign.

use aix_core::{
    CampaignStatus, CharacterizationConfig, CharacterizationEngine, ComponentKind, EngineOptions,
};
use aix_cells::Library;
use aix_faults::{FaultMode, FaultPlan, FaultSpec, FaultStage};
use std::sync::Arc;

fn cells() -> Arc<Library> {
    Arc::new(Library::nangate45_like())
}

/// The engine's synthesis fault site for one planned job.
fn synth_site(config: &CharacterizationConfig, precision: usize) -> String {
    format!(
        "{}-w{}-p{}-{}",
        config.kind, config.width, precision, config.effort
    )
}

/// Finds a seed whose panic spec fires on some but not all of the
/// campaign's synthesis sites — so a run under it is deterministically
/// partial.
fn partial_panic_plan(config: &CharacterizationConfig) -> (Arc<FaultPlan>, Vec<usize>) {
    for seed in 0..10_000u64 {
        let spec = FaultSpec {
            mode: FaultMode::Panic,
            probability: 0.5,
            seed,
            stage: Some(FaultStage::Synth),
            delay_ms: 0,
        };
        let doomed: Vec<usize> = config
            .precisions
            .iter()
            .copied()
            .filter(|&p| spec.fires(FaultStage::Synth, &synth_site(config, p)))
            .collect();
        if !doomed.is_empty() && doomed.len() < config.precisions.len() {
            let plan: FaultPlan = format!("panic:p=0.5,seed={seed},stage=synth")
                .parse()
                .unwrap();
            return (Arc::new(plan), doomed);
        }
    }
    unreachable!("some seed under 10000 yields a partial failure set");
}

#[test]
fn injected_panic_fails_only_that_job_at_any_job_count() {
    let config = CharacterizationConfig::quick(ComponentKind::Adder, 10);
    let (plan, doomed) = partial_panic_plan(&config);

    let clean = CharacterizationEngine::new(cells(), EngineOptions::sequential())
        .characterize_campaign(std::slice::from_ref(&config));
    assert_eq!(clean.status(), CampaignStatus::Complete);
    let healthy_reference = clean.library().to_text();

    let mut partial_texts = Vec::new();
    for jobs in [1, 4] {
        let options = EngineOptions {
            jobs,
            faults: Some(Arc::clone(&plan)),
            ..EngineOptions::sequential()
        };
        let campaign = CharacterizationEngine::new(cells(), options)
            .characterize_campaign(std::slice::from_ref(&config));
        assert_eq!(campaign.status(), CampaignStatus::Partial, "jobs={jobs}");
        assert_eq!(campaign.report.job_failures, doomed.len());

        // Exactly the doomed jobs are quarantined, each naming its
        // (kind, width, precision) and carrying the panic message.
        let mut failed_precisions: Vec<usize> =
            campaign.failures.iter().map(|f| f.precision).collect();
        failed_precisions.sort_unstable();
        let mut expected = doomed.clone();
        expected.sort_unstable();
        assert_eq!(failed_precisions, expected, "jobs={jobs}");
        for failure in &campaign.failures {
            assert_eq!(failure.kind, ComponentKind::Adder);
            assert_eq!(failure.width, 10);
            assert_eq!(failure.stage, "synth");
            assert!(failure.reason.contains("injected fault"), "{failure}");
            assert!(failure.to_string().contains("adder w10"));
        }

        // The healthy jobs still produced entries.
        let entries = campaign.characterizations[0].entries().len();
        assert_eq!(
            entries,
            (config.precisions.len() - doomed.len()) * config.scenarios.len()
        );
        partial_texts.push(campaign.library().to_text());
    }
    // Partial output is deterministic across job counts, and a strict
    // subset of the clean library's lines.
    assert_eq!(partial_texts[0], partial_texts[1]);
    for line in partial_texts[0].lines().filter(|l| l.contains("entry")) {
        assert!(healthy_reference.contains(line));
    }
}

#[test]
fn all_or_nothing_entry_points_surface_campaign_incomplete() {
    let config = CharacterizationConfig::quick(ComponentKind::Adder, 10);
    let (plan, doomed) = partial_panic_plan(&config);
    let options = EngineOptions {
        faults: Some(plan),
        ..EngineOptions::sequential()
    };
    let err = CharacterizationEngine::new(cells(), options)
        .characterize(&config)
        .unwrap_err();
    let text = err.to_string();
    assert!(text.contains("campaign incomplete"), "{text}");
    assert!(text.contains(&format!("{} of {}", doomed.len(), config.precisions.len())));
    assert!(text.contains("adder w10"), "first failure names the job: {text}");
}

#[test]
fn a_cached_rerun_finishes_a_partial_campaign_to_identical_bytes() {
    let configs = vec![
        CharacterizationConfig::quick(ComponentKind::Adder, 10),
        CharacterizationConfig::quick(ComponentKind::Multiplier, 6),
    ];
    let (plan, _) = partial_panic_plan(&configs[0]);
    let reference = CharacterizationEngine::new(cells(), EngineOptions::sequential())
        .characterize_campaign(&configs)
        .library()
        .to_text();

    for jobs in [1, 4] {
        let dir = std::env::temp_dir()
            .join(format!("aix-faults-test-rerun-j{jobs}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = |faults| EngineOptions {
            jobs,
            cache_dir: Some(dir.clone()),
            faults,
        };
        let first = CharacterizationEngine::new(cells(), options(Some(Arc::clone(&plan))))
            .characterize_campaign(&configs);
        assert_eq!(first.status(), CampaignStatus::Partial, "jobs={jobs}");
        let doomed = first.failures.len();

        // The rerun serves every finished job from the cache and
        // synthesizes only the quarantined ones.
        let rerun = CharacterizationEngine::new(cells(), options(None))
            .characterize_campaign(&configs);
        assert_eq!(rerun.status(), CampaignStatus::Complete, "jobs={jobs}");
        assert_eq!(rerun.report.synth_executed, doomed);
        assert_eq!(rerun.report.cache_misses, doomed);
        assert_eq!(rerun.report.cache_hits, first.report.synth_planned - doomed);
        assert_eq!(rerun.library().to_text(), reference, "jobs={jobs}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
