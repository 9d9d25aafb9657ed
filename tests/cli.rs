//! End-to-end tests of the `aix` command-line tool: spawn the real binary
//! and check its observable behaviour.

mod common;

use common::{aix, corpus};

#[test]
fn help_lists_every_command() {
    let output = aix().arg("help").output().expect("spawn aix");
    assert!(output.status.success());
    let text = String::from_utf8_lossy(&output.stdout);
    for command in [
        "import",
        "characterize",
        "explore",
        "flow",
        "verify",
        "error-rate",
        "quality",
        "export",
    ] {
        assert!(text.contains(command), "help must mention `{command}`");
    }
}

#[test]
fn unknown_command_fails_with_usage() {
    let output = aix().arg("frobnicate").output().expect("spawn aix");
    assert!(!output.status.success());
    let text = String::from_utf8_lossy(&output.stderr);
    assert!(text.contains("unknown command"));
    assert!(text.contains("usage:"));
}

#[test]
fn characterize_emits_a_parseable_library() {
    let dir = std::env::temp_dir().join("aix-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = dir.join("adder8.txt");
    let output = aix()
        .args([
            "characterize",
            "--kind",
            "adder",
            "--width",
            "8",
            "--effort",
            "medium",
            "--out",
        ])
        .arg(&out)
        .output()
        .expect("spawn aix");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(&out).expect("library written");
    let library = aix::core::ApproxLibrary::from_text(&text).expect("parseable artifact");
    assert!(library.get(aix::core::ComponentKind::Adder, 8).is_some());
    // The summary lines report Eq. 2 outcomes.
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("Eq. 2"));
}

#[test]
fn explore_prints_a_front_and_writes_the_report() {
    let dir = std::env::temp_dir().join(format!("aix-cli-explore-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let run = |jobs: &str| {
        let out = dir.join(format!("front-j{jobs}.json"));
        let output = aix()
            .args([
                "explore",
                "--kind",
                "adder",
                "--width",
                "8",
                "--budget",
                "24",
                "--vectors",
                "256",
                "--no-cache",
                "--jobs",
                jobs,
                "--out",
            ])
            .arg(&out)
            .output()
            .expect("spawn aix");
        assert!(
            output.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let report = std::fs::read_to_string(&out).expect("report written");
        (String::from_utf8_lossy(&output.stdout).into_owned(), report)
    };
    let (stdout, report) = run("1");
    assert!(stdout.contains("candidate"), "front table header missing");
    assert!(
        stdout.contains("add-csel_8b_lo0_afa0_seg0"),
        "exact anchor missing"
    );
    assert!(report.contains("\"status\":\"complete\""));
    assert!(report.contains("\"front\":["));
    assert_eq!(
        run("4").1,
        report,
        "the report is byte-identical for any job count"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--export-verilog` writes each front point's netlist as the search
/// scored it: the optimized netlist of the candidate its file is named
/// after.
#[test]
fn explore_exports_the_optimized_netlist_of_each_front_point() {
    use aix::cells::Library;
    use aix::core::ComponentKind;
    use aix::explore::{seed_candidates, Candidate};
    use std::collections::HashMap;
    use std::sync::Arc;

    let mut command = aix();
    let dir = command
        .get_current_dir()
        .expect("scratch directory")
        .join("front");
    let output = command
        .args([
            "explore",
            "--kind",
            "adder",
            "--width",
            "6",
            "--budget",
            "8",
            "--no-cache",
            "--export-verilog",
        ])
        .arg(&dir)
        .output()
        .expect("spawn aix");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    // Every candidate a budget of 8 can reach: the seeds and the
    // neighbourhoods of the first generations.
    let mut by_label: HashMap<String, Candidate> = HashMap::new();
    let mut frontier = seed_candidates(ComponentKind::Adder, 6);
    for _ in 0..3 {
        let mut next = Vec::new();
        for candidate in frontier {
            if by_label.insert(candidate.label(), candidate).is_none() {
                next.extend(candidate.neighbors());
            }
        }
        frontier = next;
    }
    let library = Arc::new(Library::nangate45_like());
    let mut exported = 0;
    for entry in std::fs::read_dir(&dir).expect("export directory") {
        let path = entry.expect("directory entry").path();
        let label = path
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("UTF-8 file name");
        let candidate = by_label
            .get(label)
            .unwrap_or_else(|| panic!("unknown label {label}"));
        let expected =
            aix::synth::optimize(&candidate.build(&library).expect("builds")).expect("optimizes");
        let written = std::fs::read_to_string(&path).expect("exported Verilog");
        assert_eq!(written, aix::netlist::to_verilog(&expected), "{label}");
        exported += 1;
    }
    assert!(
        exported > 0,
        "the front exports at least the exact candidate"
    );
}

#[test]
fn explore_quarantines_injected_faults_and_exits_partial() {
    let output = aix()
        .args([
            "explore",
            "--kind",
            "adder",
            "--width",
            "8",
            "--budget",
            "24",
            "--vectors",
            "256",
            "--no-cache",
            "--fault",
            "panic:p=0.3,seed=9,stage=synth",
        ])
        .output()
        .expect("spawn aix");
    assert_eq!(
        output.status.code(),
        Some(2),
        "injected faults must yield the partial exit code; stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("QUARANTINED"), "stderr: {stderr}");
    assert!(stderr.contains("search PARTIAL"), "stderr: {stderr}");
    // Survivors still form a front.
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.lines().count() > 2, "partial front must still print");
}

#[test]
fn contained_panics_are_reported_once_without_a_panic_message() {
    // A panic the job guard contains is reported as its job's failure
    // only: it never reaches the panic hook, whose `panicked at` message
    // (and backtrace) would repeat it.
    let output = aix()
        .args(["characterize", "--kind", "adder", "--width", "8", "--quiet"])
        .args(["--fault", "panic:p=0.4,seed=7,stage=synth"])
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("spawn aix");
    assert_eq!(output.status.code(), Some(2), "a partial campaign exits 2");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("job FAILED"), "stderr: {stderr}");
    assert_eq!(
        stderr.matches("campaign PARTIAL").count(),
        1,
        "stderr: {stderr}"
    );
    assert!(
        stderr
            .lines()
            .all(|line| line.contains("job FAILED") || line.contains("campaign PARTIAL")),
        "--quiet prints only the failure report: {stderr}"
    );

    let output = aix()
        .args([
            "explore", "--kind", "adder", "--width", "8", "--budget", "24",
        ])
        .args([
            "--vectors",
            "256",
            "--no-cache",
            "--fault",
            "panic:p=0.3,seed=9,stage=synth",
        ])
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("spawn aix");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("QUARANTINED"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked at"), "stderr: {stderr}");
}

#[test]
fn explore_honors_a_deadline_mid_search() {
    // Every evaluation sleeps 100 ms first, one at a time, so half a second
    // scores at most five of the 21 generation-zero seeds however fast the
    // build is: the deadline token must cut the search short, and the
    // partially explored front must still be reported. A candidate already
    // started always finishes, so the front is never empty.
    let output = aix()
        .args([
            "explore",
            "--kind",
            "adder",
            "--width",
            "12",
            "--budget",
            "1000000",
            "--vectors",
            "256",
            "--jobs",
            "1",
            "--no-cache",
            "--deadline",
            "0.5",
            "--fault",
            "delay:p=1,ms=100,stage=synth",
        ])
        .output()
        .expect("spawn aix");
    assert_eq!(
        output.status.code(),
        Some(2),
        "a mid-search deadline must yield the partial exit code; stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("deadline hit"), "stderr: {stderr}");
}

#[test]
fn explore_rejects_zero_vectors_and_zero_budget() {
    // With no stimuli every candidate would score zero error and evict the
    // exact baseline from the front; a zero budget scores nothing at all.
    for flag in ["--vectors", "--budget"] {
        let output = aix()
            .args(["explore", "--kind", "adder", "--width", "8", "--no-cache"])
            .args([flag, "0"])
            .output()
            .expect("spawn aix");
        assert!(!output.status.success(), "{flag} 0 must be rejected");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(flag), "{flag} unnamed: {stderr}");
        assert!(output.stdout.is_empty(), "{flag} 0 must not print a front");
    }
}

#[test]
fn out_of_range_widths_and_zero_vectors_name_the_flag() {
    // Each once panicked (exit 101) or ran a campaign of failing jobs.
    let cases = [
        ("characterize --kind adder --width 0", "--width"),
        ("characterize --kind adder --width 65", "--width"),
        ("error-rate --kind adder --width 0", "--width"),
        ("error-rate --kind adder --width 65", "--width"),
        ("error-rate --kind adder --width 8 --vectors 0", "--vectors"),
    ];
    for (command, flag) in cases {
        let output = aix()
            .args(command.split_whitespace())
            .arg("--no-cache")
            .output()
            .expect("spawn aix");
        let code = output.status.code();
        assert!(
            code.is_some_and(|code| code != 0 && code != 101),
            "`{command}` must fail cleanly, got {code:?}"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(flag),
            "`{command}` must name {flag}: {stderr}"
        );
        assert!(output.stdout.is_empty(), "`{command}` must print no result");
    }
}

#[test]
fn quality_and_verify_reject_bad_counts_naming_the_flag() {
    // The quality cases once panicked (exit 101); a zero sample count ran
    // one sample, or none at all and reported a pass.
    let rca8 = corpus("rca8.v");
    let cases = [
        (vec!["quality", "--truncation", "32"], "--truncation"),
        (
            vec!["quality", "--truncation", "3", "--width", "0"],
            "--width",
        ),
        (
            vec!["quality", "--truncation", "3", "--height", "0"],
            "--height",
        ),
        (
            vec![
                "quality",
                "--truncation",
                "3",
                "--width",
                "8",
                "--height",
                "7",
            ],
            "--height",
        ),
        (vec!["verify", "--samples", "0"], "--samples"),
        (
            vec!["verify", "--netlist", &rca8, "--samples", "0"],
            "--samples",
        ),
    ];
    for (args, flag) in cases {
        let output = aix().args(&args).output().expect("spawn aix");
        let command = args.join(" ");
        assert_eq!(output.status.code(), Some(1), "`{command}` must exit 1");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(flag),
            "`{command}` must name {flag}: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "`{command}` panicked: {stderr}"
        );
    }
}

#[test]
fn explore_leaves_the_filesystem_alone() {
    // No cache flag and no AIX_CACHE: the search keeps nothing on disk, so
    // its working directory stays empty.
    let mut command = aix();
    command.env_remove("AIX_CACHE");
    let dir = command
        .get_current_dir()
        .expect("scratch directory")
        .to_owned();
    let output = command
        .args([
            "explore", "--kind", "adder", "--width", "6", "--budget", "8",
        ])
        .output()
        .expect("spawn aix");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let left: Vec<_> = std::fs::read_dir(&dir)
        .expect("scratch directory")
        .map(|entry| entry.expect("entry").path())
        .collect();
    assert!(left.is_empty(), "explore wrote {left:?}");
}

#[test]
fn missing_required_flag_is_a_clean_error() {
    let output = aix().args(["characterize"]).output().expect("spawn aix");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("--kind is required"));
}

/// Writes a quick honest 12-bit adder library to a temp file and returns
/// its path.
fn quick_library_file(name: &str) -> std::path::PathBuf {
    use aix::core::{characterize_component, ApproxLibrary, CharacterizationConfig, ComponentKind};
    let cells = std::sync::Arc::new(aix::cells::Library::nangate45_like());
    let mut library = ApproxLibrary::new();
    library.insert(
        characterize_component(
            &cells,
            &CharacterizationConfig::quick(ComponentKind::Adder, 12),
        )
        .expect("characterize"),
    );
    let dir = std::env::temp_dir().join("aix-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, library.to_text()).expect("write library");
    path
}

#[test]
fn verify_report_is_deterministic_per_seed() {
    let library = quick_library_file("verify-seed.txt");
    let run = |seed: &str| {
        let output = aix()
            .args(["verify", "--samples", "8", "--seed", seed, "--library"])
            .arg(&library)
            .output()
            .expect("spawn aix");
        assert!(
            output.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8_lossy(&output.stdout).into_owned()
    };
    let first = run("11");
    let second = run("11");
    assert_eq!(
        first, second,
        "same seed must reproduce the identical report"
    );
    assert!(first.contains("seed 11"));
    assert!(first.contains("PASS"));
    let other = run("12");
    assert_ne!(first, other, "a different seed must draw different samples");
}

#[test]
fn verify_exits_nonzero_on_corrupted_library_under_failfast() {
    let honest = quick_library_file("verify-corrupt.txt");
    // Corrupt the artifact: claim full precision meets the guarantee under
    // 10-year worst-case aging by copying the fresh delay over the aged one.
    let text = std::fs::read_to_string(&honest).expect("read library");
    let fresh_delay = text
        .lines()
        .find_map(|l| l.strip_prefix("entry 12 fresh "))
        .expect("fresh full-precision entry")
        .to_owned();
    let corrupted: String = text
        .lines()
        .map(|l| {
            if l.starts_with("entry 12 wc:10 ") {
                format!("entry 12 wc:10 {fresh_delay}\n")
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    let path = std::env::temp_dir().join("aix-cli-test/verify-corrupted.txt");
    std::fs::write(&path, corrupted).expect("write corrupted library");

    let nominal = [
        "--samples",
        "1",
        "--sigma-global",
        "0",
        "--sigma-gate",
        "0",
        "--vectors",
        "0",
    ];
    let output = aix()
        .arg("verify")
        .args(nominal)
        .arg("--library")
        .arg(&path)
        .output()
        .expect("spawn aix");
    assert!(
        !output.status.success(),
        "failfast must exit non-zero on a violated guarantee"
    );
    assert!(String::from_utf8_lossy(&output.stdout).contains("FAIL"));

    // The same campaign under --policy warn reports but exits zero.
    let output = aix()
        .arg("verify")
        .args(nominal)
        .args(["--policy", "warn", "--library"])
        .arg(&path)
        .output()
        .expect("spawn aix");
    assert!(output.status.success());
    assert!(String::from_utf8_lossy(&output.stdout).contains("FAIL"));
}

#[test]
fn bad_option_values_name_the_flag() {
    let output = aix()
        .args(["verify", "--samples", "banana"])
        .output()
        .expect("spawn aix");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("--samples") && stderr.contains("banana"),
        "error must name the flag and value: {stderr}"
    );

    let output = aix()
        .args(["flow", "--verify", "sometimes"])
        .output()
        .expect("spawn aix");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--verify") && stderr.contains("sometimes"));

    let output = aix()
        .args(["error-rate", "--kind", "frobnicator"])
        .output()
        .expect("spawn aix");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--kind") && stderr.contains("frobnicator"));
}

#[test]
fn garbage_env_jobs_is_rejected_like_the_flag() {
    let base = [
        "characterize",
        "--kind",
        "adder",
        "--width",
        "4",
        "--no-cache",
    ];
    let output = aix()
        .args(base)
        .env("AIX_JOBS", "three")
        .output()
        .expect("spawn aix");
    assert!(!output.status.success());
    let env_stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(
        env_stderr.contains("AIX_JOBS") && env_stderr.contains("three"),
        "a garbage environment value must be diagnosed, not ignored: {env_stderr}"
    );

    // The same value through the flag earns the same treatment.
    let output = aix()
        .args(base)
        .args(["--jobs", "three"])
        .output()
        .expect("spawn aix");
    assert!(!output.status.success());
    let flag_stderr = String::from_utf8_lossy(&output.stderr);
    assert!(flag_stderr.contains("--jobs") && flag_stderr.contains("three"));

    // `0` means auto from either source.
    let by_var = aix()
        .args(base)
        .env("AIX_JOBS", "0")
        .output()
        .expect("spawn aix")
        .status;
    let by_flag = aix()
        .args(base)
        .args(["--jobs", "0"])
        .output()
        .expect("spawn aix")
        .status;
    assert!(
        by_var.success() && by_flag.success(),
        "AIX_JOBS=0 and --jobs 0 mean auto"
    );
}

#[test]
fn removed_serve_fault_stage_is_rejected_naming_the_remaining_stages() {
    let base = [
        "characterize",
        "--kind",
        "adder",
        "--width",
        "4",
        "--no-cache",
    ];
    let output = aix()
        .args(base)
        .args(["--fault", "io:stage=serve"])
        .output()
        .expect("spawn aix");
    assert_eq!(output.status.code(), Some(1));
    let flag_stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    let output = aix()
        .args(base)
        .env("AIX_FAULT", "io:stage=serve")
        .output()
        .expect("spawn aix");
    assert_eq!(output.status.code(), Some(1));
    let env_stderr = String::from_utf8_lossy(&output.stderr);
    for (source, stderr) in [
        ("--fault", flag_stderr.as_str()),
        ("AIX_FAULT", &env_stderr),
    ] {
        assert!(
            stderr.contains(source) && stderr.contains("io:stage=serve"),
            "the error must name {source} and its value: {stderr}"
        );
        assert!(
            stderr.contains("stage=synth|sta|cache|import,"),
            "the error must list the remaining stages: {stderr}"
        );
    }
}

#[test]
fn a_failed_bench_log_write_is_only_a_warning() {
    // Every write through the atomic-write path fails, the bench log's
    // included: the campaign still completes, the library is printed and
    // the exit code follows the campaign. The spec acts the same through
    // the flag and through the variable.
    let spec = "shortwrite:p=1,stage=cache";
    for by_flag in [true, false] {
        let mut command = aix();
        command.args([
            "characterize",
            "--kind",
            "adder",
            "--width",
            "8",
            "--cache",
            "C",
        ]);
        if by_flag {
            command.args(["--fault", spec]);
        } else {
            command.env("AIX_FAULT", spec);
        }
        let output = command.output().expect("spawn aix");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
        assert!(
            stderr.contains("warning") && stderr.contains("out/BENCH_characterize.json"),
            "the warning must name the bench log: {stderr}"
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        let library = aix::core::ApproxLibrary::from_text(&stdout).expect("library printed");
        assert!(library.get(aix::core::ComponentKind::Adder, 8).is_some());
    }
}

/// Every file in the cache directory `C` under `root`, by name, with its
/// bytes. The process-id suffix of a temp file (`x.tmp.<pid>`) reads as
/// `x.tmp.PID`, so the files two processes leave compare equal.
fn cache_tree(root: &std::path::Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    let mut files = std::collections::BTreeMap::new();
    for entry in std::fs::read_dir(root.join("C")).into_iter().flatten() {
        let path = entry.expect("directory entry").path();
        let name = path
            .file_name()
            .expect("file name")
            .to_string_lossy()
            .into_owned();
        let name = match name.rsplit_once(".tmp.") {
            Some((stem, pid)) if pid.bytes().all(|b| b.is_ascii_digit()) => {
                format!("{stem}.tmp.PID")
            }
            _ => name,
        };
        files.insert(name, std::fs::read(&path).expect("read file"));
    }
    files
}

#[test]
fn one_fault_spec_writes_the_same_trees_through_the_flag_and_the_variable() {
    let precisions =
        aix::core::CharacterizationConfig::paper_default(aix::core::ComponentKind::Adder, 8)
            .precisions;
    let (seed, doomed) = partial_panic_seed(8, &precisions);
    let dir = std::env::temp_dir().join(format!("aix-cli-one-plan-{}", std::process::id()));
    // (spec, exit code, cache files written): the torn writes leave none,
    // the partial run caches its survivors.
    for (spec, code, cached) in [
        (String::from("shortwrite:p=1,stage=cache"), 0, 0),
        (
            format!("panic:p=0.5,seed={seed},stage=synth"),
            2,
            precisions.len() - doomed,
        ),
    ] {
        let run = |by_flag: bool| {
            let root = dir.join(if by_flag { "flag" } else { "var" });
            let _ = std::fs::remove_dir_all(&root);
            let mut command = aix();
            command.args(["characterize", "--kind", "adder", "--width", "8", "--cache"]);
            command.arg(root.join("C"));
            if by_flag {
                command.args(["--fault", &spec]);
            } else {
                command.env("AIX_FAULT", &spec);
            }
            let output = command.output().expect("spawn aix");
            let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
            (output.status.code(), stdout, cache_tree(&root))
        };
        let (by_flag, by_var) = (run(true), run(false));
        let names = |files: &std::collections::BTreeMap<String, Vec<u8>>| {
            files.keys().cloned().collect::<Vec<_>>()
        };
        assert_eq!(by_flag.0, Some(code), "`{spec}` exit code");
        assert_eq!(
            (by_flag.0, &by_flag.1, names(&by_flag.2)),
            (by_var.0, &by_var.1, names(&by_var.2)),
            "`{spec}`: exit code, stdout or file names differ"
        );
        assert!(by_flag.2 == by_var.2, "`{spec}`: file bytes differ");
        let written = by_flag
            .2
            .keys()
            .filter(|name| name.ends_with(".lib"))
            .count();
        assert_eq!(written, cached, "`{spec}`: cache files written");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_is_an_unknown_command() {
    for args in [&["serve"][..], &["serve", "status"]] {
        let output = aix().args(args).output().expect("spawn aix");
        assert_eq!(output.status.code(), Some(1));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("unknown command `serve`"), "{stderr}");
    }
}

/// The first seed whose `panic:p=0.5,stage=synth` spec fires on some but
/// not all synthesis jobs of `characterize --kind adder --width W` (its
/// precisions are given), and how many jobs it fails.
fn partial_panic_seed(width: usize, precisions: &[usize]) -> (u64, usize) {
    use aix::faults::{FaultMode, FaultSpec, FaultStage};
    (0..10_000u64)
        .map(|seed| {
            let spec = FaultSpec {
                mode: FaultMode::Panic,
                probability: 0.5,
                seed,
                stage: Some(FaultStage::Synth),
                delay_ms: 0,
            };
            let doomed = precisions
                .iter()
                .filter(|p| spec.fires(FaultStage::Synth, &format!("adder-w{width}-p{p}-ultra")))
                .count();
            (seed, doomed)
        })
        .find(|&(_, doomed)| doomed > 0 && doomed < precisions.len())
        .expect("a partial seed exists")
}

#[test]
fn injected_faults_quarantine_jobs_and_resume_is_byte_identical() {
    let dir = std::env::temp_dir().join(format!("aix-cli-fault-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (seed, doomed) = partial_panic_seed(4, &[1, 2, 3, 4]);

    let characterize = |extra: &[String], out: &std::path::Path| {
        let mut cmd = aix();
        cmd.args(["characterize", "--kind", "adder", "--width", "4"]);
        cmd.args(extra);
        cmd.arg("--out").arg(out);
        cmd.output().expect("spawn aix")
    };
    let cache_flag = format!("--cache={}", dir.join("cache").display());

    let reference = dir.join("ref.txt");
    let output = characterize(&["--no-cache".into()], &reference);
    assert!(output.status.success(), "fault-free run completes");

    // Faulted run: the partial exit code, a failure report naming the
    // jobs, and the survivors cached.
    let partial = dir.join("part.txt");
    let output = characterize(
        &[
            cache_flag.clone(),
            format!("--fault=panic:p=0.5,seed={seed},stage=synth"),
        ],
        &partial,
    );
    assert_eq!(output.status.code(), Some(2), "partial campaigns exit 2");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("job FAILED") && stderr.contains("adder w4"),
        "failures are reported by job: {stderr}"
    );
    assert!(
        stderr.contains("rerun"),
        "the report suggests a rerun: {stderr}"
    );
    assert_eq!(stderr.matches("job FAILED").count(), doomed, "{stderr}");

    // A plain rerun without faults: the cache serves the survivors, only
    // the quarantined jobs are synthesized, and the bytes match the
    // reference.
    let rerun = dir.join("rerun.txt");
    let output = characterize(&[cache_flag], &rerun);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "stderr: {stderr}");
    assert!(
        stderr.contains(&format!(
            "4 synth planned, {doomed} executed ({} cache hit / {doomed} miss)",
            4 - doomed
        )),
        "only the quarantined jobs re-run: {stderr}"
    );
    let reference_text = std::fs::read_to_string(&reference).expect("reference");
    let rerun_text = std::fs::read_to_string(&rerun).expect("rerun");
    assert_eq!(
        rerun_text, reference_text,
        "the rerun's output is byte-identical to the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_library_file_error_names_the_path() {
    let output = aix()
        .args(["verify", "--library", "/nonexistent/lib.txt"])
        .output()
        .expect("spawn aix");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("/nonexistent/lib.txt"));
}

#[test]
fn import_summarizes_and_reemits_corpus_designs() {
    let dir = std::env::temp_dir().join(format!("aix-cli-import-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let reemitted = dir.join("rca8.edif");
    let output = aix()
        .args(["import", &corpus("rca8.v"), "--emit", "edif", "--out"])
        .arg(&reemitted)
        .output()
        .expect("spawn aix");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("`rca8` 8 gate(s)"),
        "summary line: {stdout}"
    );

    // The re-emitted EDIF imports and re-emits as Verilog, and that
    // Verilog imports too, closing the cross-format loop.
    let back = dir.join("rca8-back.v");
    let output = aix()
        .arg("import")
        .arg(&reemitted)
        .args(["--emit", "verilog", "--out"])
        .arg(&back)
        .output()
        .expect("spawn aix");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let output = aix().arg("import").arg(&back).output().expect("spawn aix");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(String::from_utf8_lossy(&output.stdout).contains("`rca8` 8 gate(s)"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn import_errors_name_file_line_and_column() {
    let dir = std::env::temp_dir().join("aix-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("broken.v");
    std::fs::write(&path, "module broken(a;\n").expect("write");
    let output = aix().arg("import").arg(&path).output().expect("spawn aix");
    assert_eq!(output.status.code(), Some(1), "nothing imported exits 1");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("broken.v:1:16:"),
        "errors must carry file:line:col: {stderr}"
    );
}

#[test]
fn import_exits_partial_when_some_files_fail() {
    let dir = std::env::temp_dir().join("aix-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("broken2.v");
    std::fs::write(&path, "module broken(\n").expect("write");
    let output = aix()
        .args(["import", &corpus("full_adder.v")])
        .arg(&path)
        .output()
        .expect("spawn aix");
    assert_eq!(
        output.status.code(),
        Some(2),
        "a mixed batch exits 2; stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(String::from_utf8_lossy(&output.stdout).contains("full_adder"));
}

#[test]
fn import_fault_probe_quarantines_the_file() {
    // A certain-fire import-stage panic: the file is quarantined (not a
    // crash), and with no survivors the exit code is 1.
    let output = aix()
        .args([
            "import",
            &corpus("full_adder.v"),
            "--fault",
            "panic:p=1,seed=3,stage=import",
        ])
        .output()
        .expect("spawn aix");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("QUARANTINED"), "stderr: {stderr}");

    // The same plan scoped to another stage leaves the import untouched.
    let output = aix()
        .args([
            "import",
            &corpus("full_adder.v"),
            "--fault",
            "panic:p=1,seed=3,stage=synth",
        ])
        .output()
        .expect("spawn aix");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn a_contained_import_panic_prints_only_its_quarantine_line() {
    // The per-file guard contains the panic like a campaign job's: the
    // panic hook stays silent, so neither a `panicked at` message nor a
    // backtrace precedes the file's one report line.
    let output = aix()
        .args(["import", &corpus("full_adder.v")])
        .args(["--fault", "panic:p=1,seed=3,stage=import"])
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("spawn aix");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "stderr: {stderr}");
    assert!(
        lines[0].starts_with("aix: import QUARANTINED: "),
        "stderr: {stderr}"
    );
}

/// The acceptance loop: the full aging flow (activity → aged STA → Eq. 2
/// precision selection) completes on one imported Verilog and one
/// imported EDIF corpus design.
#[test]
fn flow_completes_on_imported_corpus_designs() {
    for netlist in [corpus("rca8.v"), corpus("rca4.edif")] {
        let output = aix()
            .args(["flow", "--netlist", &netlist, "--vectors", "64"])
            .output()
            .expect("spawn aix");
        assert!(
            output.status.success(),
            "{netlist} stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains("timing MET"), "{netlist}: {stdout}");
        assert!(stdout.contains("cut"), "{netlist}: {stdout}");
    }
}

#[test]
fn verify_netlist_reports_margins_and_honors_policy() {
    let output = aix()
        .args([
            "verify",
            "--netlist",
            &corpus("rca8.v"),
            "--vectors",
            "64",
            "--samples",
            "8",
        ])
        .output()
        .expect("spawn aix");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("PASS") && stdout.contains("margin"),
        "{stdout}"
    );
}

#[test]
fn error_rate_reports_percentage() {
    let output = aix()
        .args([
            "error-rate",
            "--kind",
            "adder",
            "--width",
            "12",
            "--effort",
            "medium",
            "--vectors",
            "200",
            "--years",
            "10",
        ])
        .output()
        .expect("spawn aix");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("erroneous outputs"));
    assert!(stdout.contains("10y(WC)"));
}
