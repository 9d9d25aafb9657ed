//! Integration tests of campaign fault tolerance: injected panics fail
//! only their job, transient I/O faults retry to success, hung jobs are
//! quarantined by the watchdog, and an interrupted campaign resumes from
//! the write-ahead journal to byte-identical output.

use aix_core::{
    CampaignStatus, CharacterizationConfig, CharacterizationEngine, ComponentKind, EngineOptions,
};
use aix_cells::Library;
use aix_faults::{FaultMode, FaultPlan, FaultSpec, FaultStage};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn cells() -> Arc<Library> {
    Arc::new(Library::nangate45_like())
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aix-faults-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The engine's synthesis fault site for one planned job.
fn synth_site(config: &CharacterizationConfig, precision: usize) -> String {
    format!(
        "{}-w{}-p{}-{}",
        config.kind, config.width, precision, config.effort
    )
}

/// Finds a seed whose panic spec fires on some but not all of the
/// campaign's synthesis sites at attempt 1 — so a run under it is
/// deterministically partial.
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
            .filter(|&p| spec.fires(FaultStage::Synth, &synth_site(config, p), 1))
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
fn transient_injected_io_faults_retry_to_a_complete_campaign() {
    let config = CharacterizationConfig::quick(ComponentKind::Adder, 8);
    // A seed where at least one synthesis site fires at attempt 1 and
    // every firing site clears within two retries.
    let sites: Vec<String> = config
        .precisions
        .iter()
        .map(|&p| synth_site(&config, p))
        .collect();
    let seed = (0..10_000u64)
        .find(|&seed| {
            let spec = FaultSpec {
                mode: FaultMode::Io,
                probability: 0.6,
                seed,
                stage: Some(FaultStage::Synth),
                delay_ms: 0,
            };
            let firing: Vec<&String> = sites
                .iter()
                .filter(|s| spec.fires(FaultStage::Synth, s, 1))
                .collect();
            !firing.is_empty()
                && firing.iter().all(|s| {
                    !spec.fires(FaultStage::Synth, s, 2) || !spec.fires(FaultStage::Synth, s, 3)
                })
        })
        .expect("a recoverable seed exists");
    let plan: Arc<FaultPlan> = Arc::new(
        format!("io:p=0.6,seed={seed},stage=synth")
            .parse()
            .unwrap(),
    );

    let reference = CharacterizationEngine::new(cells(), EngineOptions::sequential())
        .characterize_campaign(std::slice::from_ref(&config));
    let options = EngineOptions {
        retries: 2,
        backoff_ms: 0,
        faults: Some(plan),
        ..EngineOptions::sequential()
    };
    let campaign = CharacterizationEngine::new(cells(), options)
        .characterize_campaign(std::slice::from_ref(&config));
    assert_eq!(campaign.status(), CampaignStatus::Complete);
    assert!(campaign.report.job_retries > 0, "retries were exercised");
    assert_eq!(
        campaign.library().to_text(),
        reference.library().to_text(),
        "retried jobs produce byte-identical output"
    );
}

#[test]
fn watchdog_quarantines_every_hung_sta_job() {
    let config = CharacterizationConfig::quick(ComponentKind::Adder, 4);
    let plan: Arc<FaultPlan> = Arc::new("delay:p=1,ms=300,stage=sta".parse().unwrap());
    let options = EngineOptions {
        job_timeout: Some(Duration::from_millis(40)),
        faults: Some(plan),
        ..EngineOptions::sequential()
    };
    let campaign = CharacterizationEngine::new(cells(), options)
        .characterize_campaign(std::slice::from_ref(&config));
    assert_eq!(campaign.status(), CampaignStatus::Empty);
    assert_eq!(campaign.report.job_failures, config.precisions.len());
    for failure in &campaign.failures {
        assert_eq!(failure.stage, "sta");
        assert!(failure.scenario.is_some(), "STA failures name the scenario");
        assert!(failure.reason.contains("timed out"), "{failure}");
    }
    assert!(campaign.library().to_text().is_empty() || campaign.characterizations[0].entries().is_empty());
}

#[test]
fn interrupted_campaign_resumes_from_journal_to_identical_bytes() {
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
        let dir = fresh_dir(&format!("resume-j{jobs}"));
        // First run: journal on, cache off, panics injected → partial.
        let faulted = EngineOptions {
            jobs,
            journal_dir: Some(dir.clone()),
            faults: Some(Arc::clone(&plan)),
            ..EngineOptions::sequential()
        };
        let first = CharacterizationEngine::new(cells(), faulted).characterize_campaign(&configs);
        assert_eq!(first.status(), CampaignStatus::Partial, "jobs={jobs}");
        let done_jobs =
            first.report.synth_planned - first.failures.len();

        // The journal exists, is write-ahead formatted, and records both
        // completions and failures.
        let journal_files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(journal_files.len(), 1);
        let journal_text = std::fs::read_to_string(&journal_files[0]).unwrap();
        assert!(journal_text.starts_with("aix-journal v1"));
        assert!(journal_text.contains("\nplan "));
        assert!(journal_text.contains("\ndone "));
        assert!(journal_text.contains("\nfailed "));

        // Resume without faults: completed jobs are served from the
        // journal (cache is off), the quarantined ones are retried.
        let resumed_options = EngineOptions {
            jobs,
            journal_dir: Some(dir.clone()),
            resume: true,
            ..EngineOptions::sequential()
        };
        let resumed =
            CharacterizationEngine::new(cells(), resumed_options).characterize_campaign(&configs);
        assert_eq!(resumed.status(), CampaignStatus::Complete, "jobs={jobs}");
        assert_eq!(resumed.report.journal_hits, done_jobs);
        assert_eq!(
            resumed.report.synth_executed,
            first.failures.len(),
            "only the previously failed jobs re-run"
        );
        assert_eq!(
            resumed.library().to_text(),
            reference,
            "jobs={jobs}: resumed output is byte-identical to uninterrupted"
        );

        // A further resume is a no-op: everything journal-hits.
        let again_options = EngineOptions {
            jobs,
            journal_dir: Some(dir.clone()),
            resume: true,
            ..EngineOptions::sequential()
        };
        let again =
            CharacterizationEngine::new(cells(), again_options).characterize_campaign(&configs);
        assert_eq!(again.report.synth_executed, 0);
        assert_eq!(again.report.journal_hits, again.report.synth_planned);
        assert_eq!(again.library().to_text(), reference);

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A campaign journal written by an earlier build, byte for byte: three of
/// the four jobs done, one quarantined.
const V1_JOURNAL: &str = "\
aix-journal v1
campaign faad0ac42c9fa441
plan 4
failed daa1aa50f0f50efc synth 1 synth site `adder-w8-p8-medium`: injected fault: I/O error at synth site `adder-w8-p8-medium` (attempt 1)
done 10dc4f206090f12e 6 fresh 202.100000
done 10dc4f206090f12e 6 wc:10 236.039805
done 10c41f6c3898fd00 4 fresh 128.700000
done 10c41f6c3898fd00 4 wc:10 150.324592
done 8e976476a0986289 1 fresh 25.000000
done 8e976476a0986289 1 wc:10 29.215240
";

#[test]
fn a_journal_written_by_an_earlier_build_resumes_with_the_same_hits() {
    let dir = fresh_dir("v1");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("campaign-faad0ac42c9fa441.journal"), V1_JOURNAL).unwrap();
    let config = CharacterizationConfig::quick(ComponentKind::Adder, 8);
    let resumed = CharacterizationEngine::new(
        cells(),
        EngineOptions {
            journal_dir: Some(dir.clone()),
            resume: true,
            ..EngineOptions::sequential()
        },
    )
    .characterize_campaign(std::slice::from_ref(&config));
    assert_eq!(resumed.status(), CampaignStatus::Complete);
    assert_eq!(resumed.report.journal_hits, 3);
    assert_eq!(
        resumed.report.synth_executed, 1,
        "only the quarantined job re-runs"
    );
    let reference = CharacterizationEngine::new(cells(), EngineOptions::sequential())
        .characterize_campaign(std::slice::from_ref(&config));
    assert_eq!(resumed.library().to_text(), reference.library().to_text());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_ignores_journals_of_other_campaigns() {
    let dir = fresh_dir("isolation");
    let narrow = CharacterizationConfig::quick(ComponentKind::Adder, 8);
    let wide = CharacterizationConfig::quick(ComponentKind::Adder, 10);
    let options = |resume| EngineOptions {
        journal_dir: Some(dir.clone()),
        resume,
        ..EngineOptions::sequential()
    };
    let first = CharacterizationEngine::new(cells(), options(false))
        .characterize_campaign(std::slice::from_ref(&narrow));
    assert_eq!(first.status(), CampaignStatus::Complete);

    // A different campaign must not be served from the narrow journal,
    // with or without resume.
    let other = CharacterizationEngine::new(cells(), options(true))
        .characterize_campaign(std::slice::from_ref(&wide));
    assert_eq!(other.report.journal_hits, 0);
    assert_eq!(other.report.synth_executed, wide.precisions.len());

    // Without `resume`, even the same campaign starts fresh.
    let no_resume = CharacterizationEngine::new(cells(), options(false))
        .characterize_campaign(std::slice::from_ref(&narrow));
    assert_eq!(no_resume.report.journal_hits, 0);
    assert_eq!(no_resume.report.synth_executed, narrow.precisions.len());

    let _ = std::fs::remove_dir_all(&dir);
}
