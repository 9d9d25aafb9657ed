//! Pins every value the workspace derives from its 64-bit FNV-1a hash:
//! cache keys, campaign and job fingerprints, fault decisions, verification
//! seeds and retry jitter. Caches, journals and fault-injection seeds
//! written by one build are only reusable by the next if none of these
//! move, so each is asserted against a literal.
//!
//! Fingerprints the engine and the search keep private are read back from
//! the file names they key on disk.

use aix::aging::AgingScenario;
use aix::cells::Library;
use aix::core::{
    decorrelated_backoff_ms, CharacterizationConfig, CharacterizationEngine, ComponentKind,
    EngineOptions,
};
use aix::explore::{explore, seed_candidates, ExploreConfig};
use aix::faults::{FaultMode, FaultSpec, FaultStage};
use aix::synth::Effort;
use aix::verify::entry_rng;
use rand::RngCore;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aix-hash-pins-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The 16 hex digits between `prefix` and `suffix` in the one file name of
/// `dir` that has both.
fn keyed_file(dir: &Path, prefix: &str, suffix: &str) -> String {
    let names: Vec<String> = std::fs::read_dir(dir)
        .expect("keyed directory")
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            Some(name.strip_prefix(prefix)?.strip_suffix(suffix)?.to_owned())
        })
        .collect();
    assert_eq!(names.len(), 1, "one `{prefix}…{suffix}` file in {}", dir.display());
    names.into_iter().next().unwrap()
}

/// The journal file name of a campaign over `configs`: its fingerprint.
fn campaign_fingerprint(tag: &str, configs: &[CharacterizationConfig]) -> (String, PathBuf) {
    let dir = scratch(tag);
    let mut options = EngineOptions::sequential();
    options.cache_dir = Some(dir.join("cache"));
    options.journal_dir = Some(dir.join("journal"));
    let engine = CharacterizationEngine::new(Arc::new(Library::nangate45_like()), options);
    let campaign = engine.characterize_campaign(configs);
    assert!(campaign.failures.is_empty(), "{:?}", campaign.failures);
    (keyed_file(&dir.join("journal"), "campaign-", ".journal"), dir)
}

fn fault_grid() -> String {
    let mut bits = String::new();
    for (mode, probability, seed) in [
        (FaultMode::Panic, 0.5, 2),
        (FaultMode::Io, 0.3, 11),
        (FaultMode::Delay, 0.7, 0),
    ] {
        let spec = FaultSpec {
            mode,
            probability,
            seed,
            stage: None,
            delay_ms: 0,
        };
        for stage in [FaultStage::Synth, FaultStage::Sta, FaultStage::Cache] {
            for site in ["adder-w16-p12-ultra", "journal", ""] {
                for attempt in 0..3 {
                    bits.push(if spec.fires(stage, site, attempt) { '1' } else { '0' });
                }
            }
        }
        bits.push(' ');
    }
    bits
}

#[test]
fn hash_derived_values_are_pinned() {
    let cells = Library::nangate45_like();

    // The engine's fingerprint base is the fingerprint of an empty
    // campaign.
    let (base, base_dir) = campaign_fingerprint("base", &[]);

    let config = CharacterizationConfig {
        kind: ComponentKind::Adder,
        width: 16,
        precisions: vec![12],
        scenarios: vec![AgingScenario::Fresh],
        effort: Effort::Ultra,
    };
    let (campaign, job_dir) = campaign_fingerprint("job", &[config]);
    let job = keyed_file(&job_dir.join("cache"), "adder-w16-p12-ultra-", ".lib");

    // The search's cache key reaches disk as the file name of the first
    // seed candidate's score.
    let explore_dir = scratch("explore");
    let mut search = ExploreConfig::new(ComponentKind::Adder, 8);
    search.budget = 1;
    search.vectors = 64;
    search.cache_dir = Some(explore_dir.clone());
    let outcome = explore(&Arc::new(Library::nangate45_like()), &search).expect("explore");
    assert_eq!(outcome.evaluated, 1);
    let search_key = keyed_file(&explore_dir, "explore_", ".json");
    let candidate = seed_candidates(ComponentKind::Multiplier, 8)[0].fingerprint(0x5eed_0123);

    let mut verify_seed = entry_rng(42, "entry");

    let pins: [(&str, String, &str); 9] = [
        (
            "Library::content_hash",
            format!("{:016x}", cells.content_hash()),
            "cb678ef8067096bb",
        ),
        ("engine fingerprint base", base, "6c846ba15ea2f665"),
        ("job adder-w16-p12-ultra", job, "9fc0776c07632ac7"),
        ("campaign adder-w16-p12-ultra fresh", campaign, "b24f6b8bf83c46be"),
        ("Candidate::fingerprint", format!("{candidate:016x}"), "6beeb5ecc5380916"),
        ("explore cache key", search_key, "bc68ac7305fa5d8d"),
        (
            "FaultSpec::fires grid",
            fault_grid(),
            "001000001111111000001110001 \
             000000000110001111000011000 \
             111111110100101101111010111 ",
        ),
        (
            "entry_rng(42, entry)",
            format!("{:016x}", verify_seed.next_u64()),
            "cf3fee2148b9faa1",
        ),
        (
            "decorrelated_backoff_ms",
            decorrelated_backoff_ms(10, 5_000, 400, "adder-w16-p12-ultra", 3).to_string(),
            "875",
        ),
    ];
    let mut report = String::new();
    for (name, got, want) in &pins {
        if got != want {
            writeln!(report, "{name}: got {got:?}, pinned {want:?}").unwrap();
        }
    }
    assert!(report.is_empty(), "hash-derived values moved:\n{report}");
    for dir in [base_dir, job_dir, explore_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
