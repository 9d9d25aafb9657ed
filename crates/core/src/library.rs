//! The library of aging-induced approximations (paper Fig. 3a).
//!
//! Collects [`ComponentCharacterization`]s so that a microarchitecture flow
//! can later look up, for every RTL component, the precision reduction that
//! compensates its aging — without any further gate-level work. A simple
//! line-oriented text format makes the library a persistent artifact, like
//! the degradation-aware cell library the paper builds on.

use crate::{
    CharacterizationEntry, CharacterizationScenario, ComponentCharacterization, ComponentKind,
};
use aix_aging::{AgingScenario, Lifetime, StressCondition, StressFactor};
use aix_synth::Effort;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// A persistent collection of component characterizations, keyed by
/// `(kind, width)`.
///
/// # Examples
///
/// ```
/// use aix_core::{characterize_component, ApproxLibrary, CharacterizationConfig, ComponentKind};
/// use aix_cells::Library;
/// use std::sync::Arc;
///
/// let cells = Arc::new(Library::nangate45_like());
/// let mut lib = ApproxLibrary::new();
/// lib.insert(characterize_component(
///     &cells,
///     &CharacterizationConfig::quick(ComponentKind::Adder, 16),
/// )?);
/// let text = lib.to_text();
/// let back = ApproxLibrary::from_text(&text)?;
/// assert_eq!(back.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ApproxLibrary {
    components: BTreeMap<(ComponentKind, usize), ComponentCharacterization>,
}

/// Error produced while parsing the library text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLibraryError {
    line: usize,
    message: String,
}

impl fmt::Display for ParseLibraryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseLibraryError {}

impl ApproxLibrary {
    /// An empty library.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of characterizations held.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Inserts (or replaces) a characterization. Synthesis monotonicity
    /// (delay never increases as precision drops) is enforced on insertion,
    /// so every consumer sees a well-formed delay-vs-precision curve.
    pub fn insert(&mut self, mut characterization: ComponentCharacterization) {
        characterization.enforce_synthesis_monotonicity();
        self.components.insert(
            (characterization.kind(), characterization.width()),
            characterization,
        );
    }

    /// Looks a characterization up by component kind and width.
    pub fn get(&self, kind: ComponentKind, width: usize) -> Option<&ComponentCharacterization> {
        self.components.get(&(kind, width))
    }

    /// Iterates over the held characterizations.
    pub fn iter(&self) -> impl Iterator<Item = &ComponentCharacterization> {
        self.components.values()
    }

    /// Serializes the library to its line-oriented text format.
    pub fn to_text(&self) -> String {
        let mut out = String::from("aix-approx-library v1\n");
        for c in self.components.values() {
            let _ = writeln!(out, "component {} {} {}", c.kind(), c.width(), c.effort());
            for e in c.entries() {
                let _ = writeln!(
                    out,
                    "entry {} {} {:.6}",
                    e.precision,
                    scenario_token(e.scenario),
                    e.delay_ps
                );
            }
        }
        out
    }

    /// Parses the text format produced by [`to_text`](Self::to_text).
    ///
    /// # Errors
    ///
    /// Returns [`ParseLibraryError`] with the offending line on any syntax
    /// or semantic problem.
    pub fn from_text(text: &str) -> Result<Self, ParseLibraryError> {
        let err = |line: usize, message: &str| ParseLibraryError {
            line,
            message: message.to_owned(),
        };
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, header)) if header.trim() == "aix-approx-library v1" => {}
            _ => return Err(err(1, "missing `aix-approx-library v1` header")),
        }
        let mut library = ApproxLibrary::new();
        let mut current: Option<ComponentCharacterization> = None;
        let mut declared: BTreeMap<(ComponentKind, usize), usize> = BTreeMap::new();
        for (index, raw) in lines {
            let line_no = index + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split_whitespace();
            match fields.next() {
                Some("component") => {
                    if let Some(done) = current.take() {
                        library.insert(done);
                    }
                    let kind: ComponentKind = fields
                        .next()
                        .ok_or_else(|| err(line_no, "component kind missing"))?
                        .parse()
                        .map_err(|_| err(line_no, "unknown component kind"))?;
                    let width: usize = fields
                        .next()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| err(line_no, "bad component width"))?;
                    let effort: Effort = fields
                        .next()
                        .ok_or_else(|| err(line_no, "component effort missing"))?
                        .parse()
                        .map_err(|_| err(line_no, "unknown effort"))?;
                    if let Some(first_line) = declared.insert((kind, width), line_no) {
                        return Err(err(
                            line_no,
                            &format!(
                                "duplicate `component {kind} {width}` record \
                                 (first declared at line {first_line}); merging would \
                                 silently overwrite the earlier characterization"
                            ),
                        ));
                    }
                    current = Some(ComponentCharacterization::new(kind, width, effort));
                }
                Some("entry") => {
                    let c = current
                        .as_mut()
                        .ok_or_else(|| err(line_no, "entry before any component"))?;
                    let precision: usize = fields
                        .next()
                        .and_then(|p| p.parse().ok())
                        .ok_or_else(|| err(line_no, "bad precision"))?;
                    let scenario = parse_scenario(
                        fields
                            .next()
                            .ok_or_else(|| err(line_no, "scenario missing"))?,
                    )
                    .ok_or_else(|| err(line_no, "unknown scenario token"))?;
                    let delay_ps: f64 = fields
                        .next()
                        .and_then(|d| d.parse().ok())
                        .ok_or_else(|| err(line_no, "bad delay"))?;
                    c.add_entry(CharacterizationEntry {
                        precision,
                        scenario,
                        delay_ps,
                    });
                }
                Some(other) => {
                    return Err(err(line_no, &format!("unknown record `{other}`")));
                }
                None => {}
            }
        }
        if let Some(done) = current.take() {
            library.insert(done);
        }
        Ok(library)
    }
}

pub(crate) fn scenario_token(scenario: CharacterizationScenario) -> String {
    match scenario {
        CharacterizationScenario::Uniform(AgingScenario::Fresh) => "fresh".to_owned(),
        CharacterizationScenario::Uniform(AgingScenario::Aged { stress, lifetime }) => match stress
        {
            StressCondition::Worst => format!("wc:{}", lifetime.years()),
            StressCondition::Balanced => format!("bal:{}", lifetime.years()),
            StressCondition::Uniform(s) => {
                format!("uniform:{}:{}", s.value(), lifetime.years())
            }
        },
        CharacterizationScenario::ActualNormal(lt) => format!("acnd:{}", lt.years()),
        CharacterizationScenario::ActualIdct(lt) => format!("acidct:{}", lt.years()),
    }
}

pub(crate) fn parse_scenario(token: &str) -> Option<CharacterizationScenario> {
    if token == "fresh" {
        return Some(CharacterizationScenario::Uniform(AgingScenario::Fresh));
    }
    let mut parts = token.split(':');
    let tag = parts.next()?;
    match tag {
        "wc" | "bal" | "acnd" | "acidct" => {
            let lifetime = Lifetime::try_from_years(parts.next()?.parse().ok()?).ok()?;
            Some(match tag {
                "wc" => CharacterizationScenario::Uniform(AgingScenario::worst_case(lifetime)),
                "bal" => CharacterizationScenario::Uniform(AgingScenario::balanced(lifetime)),
                "acnd" => CharacterizationScenario::ActualNormal(lifetime),
                _ => CharacterizationScenario::ActualIdct(lifetime),
            })
        }
        "uniform" => {
            let stress = StressFactor::new(parts.next()?.parse().ok()?).ok()?;
            let lifetime = Lifetime::try_from_years(parts.next()?.parse().ok()?).ok()?;
            Some(CharacterizationScenario::Uniform(AgingScenario::Aged {
                stress: StressCondition::Uniform(stress),
                lifetime,
            }))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_characterization() -> ComponentCharacterization {
        let mut c = ComponentCharacterization::new(ComponentKind::Adder, 16, Effort::Ultra);
        for (precision, scenario, delay) in [
            (16, CharacterizationScenario::FRESH, 300.0),
            (
                16,
                CharacterizationScenario::worst_case(Lifetime::YEARS_10),
                348.0,
            ),
            (
                12,
                CharacterizationScenario::worst_case(Lifetime::YEARS_10),
                295.0,
            ),
            (
                12,
                CharacterizationScenario::ActualNormal(Lifetime::YEARS_10),
                280.0,
            ),
        ] {
            c.add_entry(CharacterizationEntry {
                precision,
                scenario,
                delay_ps: delay,
            });
        }
        c
    }

    #[test]
    fn insert_and_lookup() {
        let mut lib = ApproxLibrary::new();
        assert!(lib.is_empty());
        lib.insert(sample_characterization());
        assert_eq!(lib.len(), 1);
        assert!(lib.get(ComponentKind::Adder, 16).is_some());
        assert!(lib.get(ComponentKind::Adder, 32).is_none());
        assert!(lib.get(ComponentKind::Mac, 16).is_none());
    }

    #[test]
    fn text_roundtrip_preserves_everything() {
        let mut lib = ApproxLibrary::new();
        lib.insert(sample_characterization());
        let text = lib.to_text();
        let back = ApproxLibrary::from_text(&text).unwrap();
        let original = lib.get(ComponentKind::Adder, 16).unwrap();
        let parsed = back.get(ComponentKind::Adder, 16).unwrap();
        assert_eq!(original.entries().len(), parsed.entries().len());
        for (a, b) in original.entries().iter().zip(parsed.entries()) {
            assert_eq!(a.precision, b.precision);
            assert!((a.delay_ps - b.delay_ps).abs() < 1e-6);
            assert_eq!(scenario_token(a.scenario), scenario_token(b.scenario));
        }
        assert_eq!(parsed.effort(), Effort::Ultra);
    }

    #[test]
    fn duplicate_component_records_are_rejected_naming_both_lines() {
        let text = "aix-approx-library v1\n\
                    component adder 16 ultra\n\
                    entry 16 fresh 300.0\n\
                    component mac 8 medium\n\
                    entry 8 fresh 120.0\n\
                    component adder 16 ultra\n\
                    entry 16 fresh 999.0\n";
        let error = ApproxLibrary::from_text(text).unwrap_err();
        let message = error.to_string();
        assert!(message.contains("line 6"), "{message}");
        assert!(message.contains("line 2"), "{message}");
        assert!(message.contains("duplicate"), "{message}");
        assert!(message.contains("adder 16"), "{message}");
        // Distinct (kind, width) pairs still coexist.
        let ok = "aix-approx-library v1\n\
                  component adder 16 ultra\nentry 16 fresh 300.0\n\
                  component adder 32 ultra\nentry 32 fresh 600.0\n";
        assert_eq!(ApproxLibrary::from_text(ok).unwrap().len(), 2);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ApproxLibrary::from_text("not a library").is_err());
        assert!(
            ApproxLibrary::from_text("aix-approx-library v1\nentry 3 fresh 1.0").is_err(),
            "entry before component"
        );
        assert!(ApproxLibrary::from_text("aix-approx-library v1\nbogus record").is_err());
        assert!(ApproxLibrary::from_text(
            "aix-approx-library v1\ncomponent adder 16 ultra\nentry x fresh 1.0"
        )
        .is_err());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text =
            "aix-approx-library v1\n\n# comment\ncomponent mac 8 medium\nentry 8 fresh 100.0\n";
        let lib = ApproxLibrary::from_text(text).unwrap();
        assert_eq!(lib.len(), 1);
        let c = lib.get(ComponentKind::Mac, 8).unwrap();
        assert_eq!(c.entries().len(), 1);
    }

    #[test]
    fn scenario_tokens_roundtrip() {
        for scenario in [
            CharacterizationScenario::FRESH,
            CharacterizationScenario::worst_case(Lifetime::YEARS_1),
            CharacterizationScenario::Uniform(AgingScenario::balanced(Lifetime::YEARS_10)),
            CharacterizationScenario::Uniform(AgingScenario::Aged {
                stress: StressCondition::Uniform(StressFactor::new(0.3).unwrap()),
                lifetime: Lifetime::from_years(5.0),
            }),
            CharacterizationScenario::ActualNormal(Lifetime::YEARS_10),
            CharacterizationScenario::ActualIdct(Lifetime::YEARS_1),
        ] {
            let token = scenario_token(scenario);
            let parsed = parse_scenario(&token).unwrap();
            assert_eq!(scenario_token(parsed), token);
        }
    }
}
