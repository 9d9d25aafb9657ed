//! Integration tests of the parallel, persistently cached
//! characterization engine: determinism across job counts, warm-cache
//! synthesis skipping, and graceful fallback on corrupted or stale cache
//! entries.

use aix_cells::Library;
use aix_core::{
    ApproxLibrary, CharacterizationConfig, CharacterizationEngine, ComponentKind, EngineOptions,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn cells() -> Arc<Library> {
    Arc::new(Library::nangate45_like())
}

/// A unique, empty cache directory per test.
fn fresh_cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aix-engine-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn engine(jobs: usize, cache_dir: Option<&Path>) -> CharacterizationEngine {
    CharacterizationEngine::new(
        cells(),
        EngineOptions {
            jobs,
            cache_dir: cache_dir.map(Path::to_path_buf),
            ..EngineOptions::sequential()
        },
    )
}

fn library_text(library: &ApproxLibrary) -> String {
    library.to_text()
}

#[test]
fn jobs_one_and_many_are_byte_identical() {
    let configs = vec![
        CharacterizationConfig::quick(ComponentKind::Adder, 10),
        CharacterizationConfig::quick(ComponentKind::Multiplier, 6),
    ];
    let (sequential, _) = engine(1, None).characterize_all(&configs).unwrap();
    for jobs in [2, 4, 7] {
        let (parallel, report) = engine(jobs, None).characterize_all(&configs).unwrap();
        assert_eq!(
            library_text(&sequential),
            library_text(&parallel),
            "jobs={jobs} must produce byte-identical library text"
        );
        assert_eq!(report.jobs, jobs);
    }
}

#[test]
fn warm_cache_skips_all_synthesis_and_is_byte_identical() {
    let dir = fresh_cache_dir("warm");
    let config = CharacterizationConfig::quick(ComponentKind::Adder, 10);

    let (cold, cold_report) = engine(1, Some(&dir)).characterize(&config).unwrap();
    assert_eq!(cold_report.synth_executed, config.precisions.len());
    assert_eq!(cold_report.cache_hits, 0);
    assert_eq!(cold_report.cache_misses, config.precisions.len());

    let (warm, warm_report) = engine(1, Some(&dir)).characterize(&config).unwrap();
    assert_eq!(
        warm_report.synth_executed, 0,
        "warm run must skip synthesis"
    );
    assert_eq!(warm_report.sta_executed, 0, "warm run must skip STA");
    assert_eq!(warm_report.cache_hits, config.precisions.len());
    assert_eq!(warm_report.cache_misses, 0);
    assert_eq!(cold, warm, "cold and warm characterizations must be equal");

    // Byte-identity of the serialized library, cold vs warm and vs
    // parallel-warm.
    let as_text = |c: &aix_core::ComponentCharacterization| {
        let mut lib = ApproxLibrary::new();
        lib.insert(c.clone());
        lib.to_text()
    };
    assert_eq!(as_text(&cold), as_text(&warm));
    let (warm_parallel, _) = engine(4, Some(&dir)).characterize(&config).unwrap();
    assert_eq!(as_text(&cold), as_text(&warm_parallel));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_and_stale_cache_entries_fall_back_to_resynthesis() {
    let dir = fresh_cache_dir("corrupt");
    let config = CharacterizationConfig::quick(ComponentKind::Adder, 8);
    let (cold, _) = engine(1, Some(&dir)).characterize(&config).unwrap();

    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert_eq!(files.len(), config.precisions.len());

    // Corrupt one file by truncation, one with a garbage header, and make
    // one stale by zeroing the fingerprint in its key line.
    let truncated = &files[0];
    let original = std::fs::read_to_string(truncated).unwrap();
    std::fs::write(truncated, &original[..original.len() / 2]).unwrap();

    let garbage = &files[1];
    std::fs::write(garbage, "not a cache file at all\n").unwrap();

    let stale = &files[2];
    let text = std::fs::read_to_string(stale).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let key_fields: Vec<&str> = lines[1].split_whitespace().collect();
    let doctored = format!(
        "{} {} {} {} {} {}",
        key_fields[0],
        key_fields[1],
        key_fields[2],
        key_fields[3],
        key_fields[4],
        "0000000000000000",
    );
    lines[1] = doctored;
    std::fs::write(stale, lines.join("\n") + "\n").unwrap();

    let (recovered, report) = engine(1, Some(&dir)).characterize(&config).unwrap();
    assert_eq!(
        report.synth_executed, 3,
        "the three damaged entries re-synthesize; the intact ones hit"
    );
    assert_eq!(report.cache_hits, config.precisions.len() - 3);
    assert_eq!(report.cache_misses, 3);
    assert_eq!(cold, recovered, "damaged cache never changes results");

    // The re-synthesis also repaired the cache: a further run is all hits.
    let (_, repaired) = engine(1, Some(&dir)).characterize(&config).unwrap();
    assert_eq!(repaired.synth_executed, 0);
    assert_eq!(repaired.cache_hits, config.precisions.len());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn partial_scenario_coverage_counts_as_miss_and_extends_the_entry() {
    let dir = fresh_cache_dir("partial");
    let mut narrow = CharacterizationConfig::quick(ComponentKind::Adder, 8);
    narrow.scenarios.truncate(1); // fresh only
    let (_, first) = engine(1, Some(&dir)).characterize(&narrow).unwrap();
    assert_eq!(first.cache_misses, narrow.precisions.len());

    // The full quick config needs a scenario the cache does not cover yet:
    // a miss, recomputed, and the union written back.
    let full = CharacterizationConfig::quick(ComponentKind::Adder, 8);
    let (from_extended, second) = engine(1, Some(&dir)).characterize(&full).unwrap();
    assert_eq!(second.cache_hits, 0);
    assert_eq!(second.cache_misses, full.precisions.len());

    let (from_warm, third) = engine(1, Some(&dir)).characterize(&full).unwrap();
    assert_eq!(third.cache_hits, full.precisions.len());
    assert_eq!(from_extended, from_warm);

    // The narrow request is still served from the extended entries.
    let (_, narrow_again) = engine(1, Some(&dir)).characterize(&narrow).unwrap();
    assert_eq!(narrow_again.cache_hits, narrow.precisions.len());

    // And the uncached result matches byte-for-byte: cached delays
    // round-trip through the same 6-decimal format the library serializes.
    let (uncached, _) = engine(1, None).characterize(&full).unwrap();
    let as_text = |c: &aix_core::ComponentCharacterization| {
        let mut lib = ApproxLibrary::new();
        lib.insert(c.clone());
        lib.to_text()
    };
    assert_eq!(as_text(&uncached), as_text(&from_warm));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_is_keyed_by_effort() {
    use aix_synth::Effort;
    let dir = fresh_cache_dir("effort");
    let mut medium = CharacterizationConfig::quick(ComponentKind::Adder, 8);
    medium.effort = Effort::Medium;
    let mut area = medium.clone();
    area.effort = Effort::Area;

    let (_, first) = engine(1, Some(&dir)).characterize(&medium).unwrap();
    assert_eq!(first.cache_hits, 0);
    // A different effort must never be served from the medium entries.
    let (_, other) = engine(1, Some(&dir)).characterize(&area).unwrap();
    assert_eq!(other.cache_hits, 0);
    assert_eq!(other.synth_executed, area.precisions.len());

    let _ = std::fs::remove_dir_all(&dir);
}
