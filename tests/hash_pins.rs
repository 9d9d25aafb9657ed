//! Pins every value the workspace derives from its 64-bit FNV-1a hash:
//! cache keys, job fingerprints, fault decisions and verification seeds.
//! Caches and fault-injection seeds written by one build are only reusable
//! by the next if none of these move, so each is asserted against a
//! literal.
//!
//! Fingerprints the engine and the search keep private are read back from
//! the file names they key on disk.

use aix::aging::AgingScenario;
use aix::cells::Library;
use aix::core::{CharacterizationConfig, CharacterizationEngine, ComponentKind, EngineOptions};
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

/// Characterizes `config` into a fresh cache directory, which it returns.
fn cached_campaign(tag: &str, config: CharacterizationConfig) -> PathBuf {
    let dir = scratch(tag);
    let mut options = EngineOptions::sequential();
    options.cache_dir = Some(dir.clone());
    let engine = CharacterizationEngine::new(Arc::new(Library::nangate45_like()), options);
    let campaign = engine.characterize_campaign(&[config]);
    assert!(campaign.failures.is_empty(), "{:?}", campaign.failures);
    dir
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
            // The sites are those of the grid's first literal, so the pinned
            // bits are that literal's decisions for each site.
            for site in ["adder-w16-p12-ultra", "journal", ""] {
                bits.push(if spec.fires(stage, site) { '1' } else { '0' });
            }
        }
        bits.push(' ');
    }
    bits
}

#[test]
fn hash_derived_values_are_pinned() {
    let cells = Library::nangate45_like();

    let config = CharacterizationConfig {
        kind: ComponentKind::Adder,
        width: 16,
        precisions: vec![12],
        scenarios: vec![AgingScenario::Fresh],
        effort: Effort::Ultra,
    };
    let job_dir = cached_campaign("job", config);
    let job = keyed_file(&job_dir, "adder-w16-p12-ultra-", ".lib");

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

    let pins: [(&str, String, &str); 6] = [
        (
            "Library::content_hash",
            format!("{:016x}", cells.content_hash()),
            "cb678ef8067096bb",
        ),
        ("job adder-w16-p12-ultra", job, "9fc0776c07632ac7"),
        ("Candidate::fingerprint", format!("{candidate:016x}"), "6beeb5ecc5380916"),
        ("explore cache key", search_key, "bc68ac7305fa5d8d"),
        (
            "FaultSpec::fires grid",
            fault_grid(),
            "000110010 000101010 111000111 ",
        ),
        (
            "entry_rng(42, entry)",
            format!("{:016x}", verify_seed.next_u64()),
            "cf3fee2148b9faa1",
        ),
    ];
    let mut report = String::new();
    for (name, got, want) in &pins {
        if got != want {
            writeln!(report, "{name}: got {got:?}, pinned {want:?}").unwrap();
        }
    }
    assert!(report.is_empty(), "hash-derived values moved:\n{report}");
    for dir in [job_dir, explore_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
