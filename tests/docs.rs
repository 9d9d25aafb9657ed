//! README's engine-settings table lists exactly the settings that
//! `EngineOptions::resolve` reads: each row's flag and variable.

use aix::core::EngineOptions;
use std::cell::RefCell;

/// The `(flag, variable)` pairs `resolve` looks up, in lookup order. No
/// flag is set, so every variable is looked up too.
fn resolved_settings() -> Vec<(String, String)> {
    let flags = RefCell::new(Vec::new());
    let vars = RefCell::new(Vec::new());
    EngineOptions::resolve(
        |flag| {
            flags.borrow_mut().push(flag.to_owned());
            None
        },
        |var| {
            vars.borrow_mut().push(var.to_owned());
            None
        },
    )
    .expect("defaults resolve");
    let (flags, vars) = (flags.into_inner(), vars.into_inner());
    assert_eq!(
        flags.len(),
        vars.len(),
        "every flag has a variable: {flags:?} {vars:?}"
    );
    flags.into_iter().zip(vars).collect()
}

/// The `(flag, variable)` pairs of README's engine-settings table: the
/// first word of each row's first two cells, backticks stripped.
fn readme_settings() -> Vec<(String, String)> {
    let readme = include_str!("../README.md");
    let header = "| flag | variable | value | default |";
    let table = readme
        .split_once(header)
        .expect("README has the settings table")
        .1;
    table
        .lines()
        .skip(2) // the rest of the header line, then the separator row
        .take_while(|line| line.starts_with('|'))
        .map(|row| {
            let cell = |index: usize| {
                let text = row.split('|').nth(index).expect("a cell").trim();
                let word = text.trim_matches('`').split_whitespace().next();
                word.unwrap_or_default().to_owned()
            };
            (cell(1), cell(2))
        })
        .collect()
}

#[test]
fn readme_settings_table_lists_exactly_what_resolve_reads() {
    let resolved = resolved_settings();
    assert!(!resolved.is_empty());
    assert_eq!(readme_settings(), resolved);
}
