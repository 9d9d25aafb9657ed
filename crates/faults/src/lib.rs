//! Deterministic infrastructure fault injection.
//!
//! `aix-verify` injects faults into the *netlist* to measure how observable
//! a guarantee violation would be in silicon. This crate aims the same idea
//! at the *infrastructure*: seeded, reproducible faults inside the
//! synthesis, STA and cache paths of a characterization campaign, so the
//! engine's own failure handling — panic isolation, quarantine, atomic
//! writes and the cache that lets a plain rerun finish the quarantined
//! jobs — is itself testable.
//!
//! A [`FaultPlan`] is parsed from the `--fault` CLI flag or, when the flag
//! is absent, the `AIX_FAULT` environment variable (flag, else variable,
//! else no plan; a malformed value is an error naming the flag or the
//! variable it came from). This crate reads neither: the caller resolves
//! the plan once and passes it to every fault site, so one spec acts on
//! the same sites however it is given. The grammar:
//!
//! ```text
//! plan      = spec (";" spec)*
//! spec      = mode [":" param ("," param)*]
//! mode      = "panic" | "io" | "delay" | "shortwrite" | "enospc"
//! param     = "p=" FLOAT        probability in [0, 1]   (default 1)
//!           | "seed=" INT       decision seed           (default 0)
//!           | "stage=" STAGE    synth | sta | cache | import
//!                               (default: all)
//!           | "ms=" INT         delay duration, ms      (default 10)
//! ```
//!
//! For example `panic:p=0.05,seed=7` panics in roughly 5 % of fault sites,
//! and `io:p=0.5,seed=3,stage=cache;delay:p=0.1,ms=50` combines an I/O
//! fault in the cache path with a scheduling delay everywhere.
//!
//! Whether a fault fires depends **only** on `(seed, stage, site)` — never
//! on wall-clock, thread scheduling or iteration order — so a run under a
//! given plan is exactly reproducible at any job count.

use aix_obs::{fnv1a, FNV_OFFSET};
use std::fmt;
use std::str::FromStr;
use std::time::Duration;

/// What an injected fault does at the site it fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Panic, as a buggy or resource-exhausted job would.
    Panic,
    /// Surface an `std::io::Error` (the shape of a cache I/O failure or a
    /// filesystem hiccup).
    Io,
    /// Sleep for the spec's `ms`, modelling a slow job, so deadline tests
    /// can outlast their budget on any host.
    Delay,
    /// A write that persists only a prefix of its bytes before failing —
    /// the torn-write shape atomic-rename persistence must mask.
    ShortWrite,
    /// A write refused up front, as a full disk (`ENOSPC`) would.
    Enospc,
}

impl FaultMode {
    fn token(self) -> &'static str {
        match self {
            FaultMode::Panic => "panic",
            FaultMode::Io => "io",
            FaultMode::Delay => "delay",
            FaultMode::ShortWrite => "shortwrite",
            FaultMode::Enospc => "enospc",
        }
    }

    /// Whether this mode surfaces as an `std::io::Error` (rather than a
    /// panic or a delay).
    fn is_io(self) -> bool {
        matches!(
            self,
            FaultMode::Io | FaultMode::ShortWrite | FaultMode::Enospc
        )
    }
}

/// How an injected fault corrupts one atomic-write site; returned by
/// [`FaultPlan::write_fault`] for write paths that can emulate the failure
/// faithfully (persist a prefix, then fail) instead of merely erroring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Persist only a prefix of the payload, then fail the write.
    Short,
    /// Fail before writing anything, like a full disk.
    Enospc,
}

/// The infrastructure path a fault site belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultStage {
    /// Component synthesis.
    Synth,
    /// Static timing analysis.
    Sta,
    /// The persistent characterization cache (reads and writes).
    Cache,
    /// The netlist import front-end (`aix import` / `--netlist`).
    Import,
}

impl FaultStage {
    /// Stable lower-case token used by the grammar and in site hashes.
    pub fn token(self) -> &'static str {
        match self {
            FaultStage::Synth => "synth",
            FaultStage::Sta => "sta",
            FaultStage::Cache => "cache",
            FaultStage::Import => "import",
        }
    }
}

impl fmt::Display for FaultStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// One parsed fault specification.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// What firing does.
    pub mode: FaultMode,
    /// Probability a site fires, in `[0, 1]`.
    pub probability: f64,
    /// Seed of the per-site decision hash.
    pub seed: u64,
    /// Restrict to one stage; `None` fires on every stage.
    pub stage: Option<FaultStage>,
    /// Sleep duration for [`FaultMode::Delay`], in milliseconds.
    pub delay_ms: u64,
}

impl FaultSpec {
    /// Whether this spec fires at `(stage, site)`. Pure function of the
    /// spec and its arguments.
    pub fn fires(&self, stage: FaultStage, site: &str) -> bool {
        if self.stage.is_some_and(|s| s != stage) {
            return false;
        }
        if self.probability <= 0.0 {
            return false;
        }
        if self.probability >= 1.0 {
            return true;
        }
        let mut hash = FNV_OFFSET ^ self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        hash = fnv1a(hash, self.mode.token().as_bytes());
        hash = fnv1a(hash, stage.token().as_bytes());
        hash = fnv1a(hash, site.as_bytes());
        // The fixed `1` keeps every decision where earlier builds, which
        // numbered job attempts from 1, put it.
        hash = fnv1a(hash, &1u64.to_le_bytes());
        // Map the hash to [0, 1) with 20 bits of resolution.
        let unit = (hash >> 44) as f64 / (1u64 << 20) as f64;
        unit < self.probability
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:p={},seed={}", self.mode.token(), self.probability, self.seed)?;
        if let Some(stage) = self.stage {
            write!(f, ",stage={stage}")?;
        }
        if self.mode == FaultMode::Delay {
            write!(f, ",ms={}", self.delay_ms)?;
        }
        Ok(())
    }
}

/// A parsed fault plan (`--fault` / `AIX_FAULT`): the fault specs to
/// evaluate at every site.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

/// Error produced by parsing a malformed fault specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFaultError {
    what: String,
}

impl ParseFaultError {
    fn new(what: impl Into<String>) -> Self {
        Self { what: what.into() }
    }
}

/// What a fault plan looks like, for diagnostics.
pub const GRAMMAR: &str = "`mode[:p=F,seed=N,stage=synth|sta|cache|import,ms=N]` \
     with mode panic|io|delay|shortwrite|enospc, `;`-separated";

impl fmt::Display for ParseFaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: expected {GRAMMAR}", self.what)
    }
}

impl std::error::Error for ParseFaultError {}

impl FromStr for FaultPlan {
    type Err = ParseFaultError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut specs = Vec::new();
        for part in s.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (mode_token, params) = match part.split_once(':') {
                Some((m, p)) => (m.trim(), Some(p)),
                None => (part, None),
            };
            let mode = match mode_token {
                "panic" => FaultMode::Panic,
                "io" => FaultMode::Io,
                "delay" => FaultMode::Delay,
                "shortwrite" => FaultMode::ShortWrite,
                "enospc" => FaultMode::Enospc,
                other => return Err(ParseFaultError::new(format!("unknown fault mode `{other}`"))),
            };
            let mut spec = FaultSpec {
                mode,
                probability: 1.0,
                seed: 0,
                stage: None,
                delay_ms: 10,
            };
            for param in params.into_iter().flat_map(|p| p.split(',')) {
                let param = param.trim();
                if param.is_empty() {
                    continue;
                }
                let Some((key, value)) = param.split_once('=') else {
                    return Err(ParseFaultError::new(format!("malformed parameter `{param}`")));
                };
                match key.trim() {
                    "p" => {
                        let p: f64 = value.parse().map_err(|_| {
                            ParseFaultError::new(format!("bad probability `{value}`"))
                        })?;
                        if !(0.0..=1.0).contains(&p) {
                            return Err(ParseFaultError::new(format!(
                                "probability `{value}` outside [0, 1]"
                            )));
                        }
                        spec.probability = p;
                    }
                    "seed" => {
                        spec.seed = value
                            .parse()
                            .map_err(|_| ParseFaultError::new(format!("bad seed `{value}`")))?;
                    }
                    "stage" => {
                        spec.stage = Some(match value.trim() {
                            "synth" => FaultStage::Synth,
                            "sta" => FaultStage::Sta,
                            "cache" => FaultStage::Cache,
                            "import" => FaultStage::Import,
                            other => {
                                return Err(ParseFaultError::new(format!(
                                    "unknown stage `{other}`"
                                )))
                            }
                        });
                    }
                    "ms" => {
                        spec.delay_ms = value
                            .parse()
                            .map_err(|_| ParseFaultError::new(format!("bad delay `{value}`")))?;
                    }
                    other => {
                        return Err(ParseFaultError::new(format!("unknown parameter `{other}`")))
                    }
                }
            }
            specs.push(spec);
        }
        if specs.is_empty() {
            return Err(ParseFaultError::new("empty fault specification"));
        }
        Ok(FaultPlan { specs })
    }
}

/// Re-renders every spec, `;`-separated, in a form `FromStr` reparses.
impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (index, spec) in self.specs.iter().enumerate() {
            if index > 0 {
                f.write_str(";")?;
            }
            write!(f, "{spec}")?;
        }
        Ok(())
    }
}

impl FaultPlan {
    /// The parsed specs, in declaration order.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Evaluates every spec at `(stage, site)`. Delay faults sleep
    /// and evaluation continues; the first firing panic fault panics with a
    /// message naming the site; the first firing I/O fault returns an
    /// injected [`std::io::Error`].
    ///
    /// # Errors
    ///
    /// Returns the injected error when an `io` spec fires.
    ///
    /// # Panics
    ///
    /// Panics when a `panic` spec fires — by design; callers isolate jobs
    /// with `catch_unwind`.
    pub fn check(&self, stage: FaultStage, site: &str) -> Result<(), std::io::Error> {
        for spec in &self.specs {
            if !spec.fires(stage, site) {
                continue;
            }
            match spec.mode {
                FaultMode::Delay => {
                    std::thread::sleep(Duration::from_millis(spec.delay_ms));
                }
                FaultMode::Panic => panic!("injected fault: panic at {stage} site `{site}`"),
                FaultMode::Io => {
                    return Err(std::io::Error::other(format!(
                        "injected fault: I/O error at {stage} site `{site}`"
                    )))
                }
                FaultMode::ShortWrite => {
                    return Err(std::io::Error::other(format!(
                        "injected fault: short write at {stage} site `{site}`"
                    )))
                }
                FaultMode::Enospc => {
                    return Err(std::io::Error::other(format!(
                        "injected fault: no space left at {stage} site `{site}`"
                    )))
                }
            }
        }
        Ok(())
    }

    /// Like [`check`](Self::check), for call sites with no error channel
    /// (deep inside synthesis): honours panic and delay specs, ignores
    /// the I/O-flavoured specs.
    pub fn probe(&self, stage: FaultStage, site: &str) {
        for spec in &self.specs {
            if spec.mode.is_io() || !spec.fires(stage, site) {
                continue;
            }
            match spec.mode {
                FaultMode::Delay => {
                    std::thread::sleep(Duration::from_millis(spec.delay_ms));
                }
                FaultMode::Panic => panic!("injected fault: panic at {stage} site `{site}`"),
                FaultMode::Io | FaultMode::ShortWrite | FaultMode::Enospc => {
                    unreachable!("filtered above")
                }
            }
        }
    }

    /// The write corruption, if any, to apply at an atomic-write site:
    /// the first firing `shortwrite`/`enospc` spec decides. Write paths
    /// use this to emulate the failure faithfully (persist a prefix of the
    /// temp file, or refuse up front) rather than merely returning an
    /// error after a clean write.
    pub fn write_fault(&self, stage: FaultStage, site: &str) -> Option<WriteFault> {
        self.specs.iter().find_map(|spec| {
            let fault = match spec.mode {
                FaultMode::ShortWrite => WriteFault::Short,
                FaultMode::Enospc => WriteFault::Enospc,
                _ => return None,
            };
            spec.fires(stage, site).then_some(fault)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_roundtrips_and_rejects_garbage() {
        let plan: FaultPlan = "panic:p=0.05,seed=7".parse().unwrap();
        assert_eq!(plan.specs().len(), 1);
        assert_eq!(plan.specs()[0].mode, FaultMode::Panic);
        assert!((plan.specs()[0].probability - 0.05).abs() < 1e-12);
        assert_eq!(plan.specs()[0].seed, 7);

        let multi: FaultPlan = "io:p=0.5,seed=3,stage=cache;delay:ms=50,stage=sta"
            .parse()
            .unwrap();
        assert_eq!(multi.specs().len(), 2);
        assert_eq!(multi.specs()[0].stage, Some(FaultStage::Cache));
        assert_eq!(multi.specs()[1].mode, FaultMode::Delay);
        assert_eq!(multi.specs()[1].delay_ms, 50);

        // Display re-renders a parseable form.
        let again: FaultPlan = multi.to_string().parse().unwrap();
        assert_eq!(again, multi);

        for bad in [
            "",
            "explode",
            "panic:p=1.5",
            "panic:p=nope",
            "io:stage=everywhere",
            "delay:ms=soon",
            "panic:frequency=1",
            "panic:p",
        ] {
            assert!(bad.parse::<FaultPlan>().is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn decisions_are_deterministic_and_probability_scaled() {
        let spec = FaultSpec {
            mode: FaultMode::Panic,
            probability: 0.3,
            seed: 11,
            stage: None,
            delay_ms: 0,
        };
        let mut fired = 0usize;
        for site in 0..1000 {
            let name = format!("synth adder-w16-p{site}");
            let a = spec.fires(FaultStage::Synth, &name);
            let b = spec.fires(FaultStage::Synth, &name);
            assert_eq!(a, b, "same inputs, same decision");
            fired += usize::from(a);
        }
        // 30 % nominal over 1000 deterministic sites; allow a generous band.
        assert!((200..=400).contains(&fired), "fired {fired}/1000");

        // Different seeds make different decisions somewhere.
        let other = FaultSpec { seed: 12, ..spec };
        assert!((0..1000).any(|site| {
            let name = format!("synth adder-w16-p{site}");
            spec.fires(FaultStage::Synth, &name) != other.fires(FaultStage::Synth, &name)
        }));
    }

    #[test]
    fn stage_filter_and_edge_probabilities() {
        let spec = FaultSpec {
            mode: FaultMode::Io,
            probability: 1.0,
            seed: 0,
            stage: Some(FaultStage::Cache),
            delay_ms: 0,
        };
        assert!(spec.fires(FaultStage::Cache, "x"));
        assert!(!spec.fires(FaultStage::Synth, "x"));
        let never = FaultSpec {
            probability: 0.0,
            stage: None,
            ..spec
        };
        assert!(!never.fires(FaultStage::Cache, "x"));
    }

    #[test]
    fn check_surfaces_io_and_probe_ignores_it() {
        let plan: FaultPlan = "io:p=1".parse().unwrap();
        let err = plan.check(FaultStage::Synth, "site").unwrap_err();
        assert!(err.to_string().contains("injected fault"));
        plan.probe(FaultStage::Synth, "site"); // must not panic or error
    }

    #[test]
    fn write_fault_modes_parse_probe_and_fire() {
        let plan: FaultPlan = "shortwrite:p=1,stage=import;enospc:seed=4,stage=cache"
            .parse()
            .unwrap();
        assert_eq!(plan.specs()[0].mode, FaultMode::ShortWrite);
        assert_eq!(plan.specs()[1].mode, FaultMode::Enospc);
        assert_eq!(plan.specs()[1].stage, Some(FaultStage::Cache));
        let again: FaultPlan = plan.to_string().parse().unwrap();
        assert_eq!(again, plan);

        // write_fault() reports the emulation shape; stage filters apply.
        assert_eq!(
            plan.write_fault(FaultStage::Import, "adder.v"),
            Some(WriteFault::Short)
        );
        assert_eq!(
            plan.write_fault(FaultStage::Cache, "lib.txt"),
            Some(WriteFault::Enospc)
        );
        assert_eq!(plan.write_fault(FaultStage::Synth, "x"), None);

        // At guard sites the same specs surface as I/O errors,
        // and probe (no error channel) ignores them.
        let err = plan.check(FaultStage::Import, "adder.v").unwrap_err();
        assert!(err.to_string().contains("short write"));
        let err = plan.check(FaultStage::Cache, "lib.txt").unwrap_err();
        assert!(err.to_string().contains("no space left"));
        plan.probe(FaultStage::Import, "adder.v");
        plan.probe(FaultStage::Cache, "lib.txt");

        // An io-only plan offers no write emulation.
        let io: FaultPlan = "io:p=1".parse().unwrap();
        assert_eq!(io.write_fault(FaultStage::Cache, "x"), None);
    }

    #[test]
    fn cache_stage_fires_independently_of_other_stages() {
        let spec = FaultSpec {
            mode: FaultMode::Panic,
            probability: 1.0,
            seed: 0,
            stage: Some(FaultStage::Cache),
            delay_ms: 0,
        };
        assert!(spec.fires(FaultStage::Cache, "lib.txt"));
        for stage in [FaultStage::Synth, FaultStage::Sta, FaultStage::Import] {
            assert!(!spec.fires(stage, "lib.txt"));
        }
    }

    #[test]
    fn import_stage_parses_and_fires_independently() {
        let plan: FaultPlan = "panic:p=1,stage=import".parse().unwrap();
        assert_eq!(plan.specs()[0].stage, Some(FaultStage::Import));
        let again: FaultPlan = plan.to_string().parse().unwrap();
        assert_eq!(again, plan);
        let spec = &plan.specs()[0];
        assert!(spec.fires(FaultStage::Import, "adder.v"));
        for stage in [FaultStage::Synth, FaultStage::Sta, FaultStage::Cache] {
            assert!(!spec.fires(stage, "adder.v"));
        }
    }

    #[test]
    fn removed_connection_modes_are_rejected_naming_the_remaining_modes() {
        for spec in ["stall:p=1", "connrefused:p=1"] {
            let err = spec.parse::<FaultPlan>().unwrap_err().to_string();
            let mode = spec.split(':').next().unwrap();
            assert!(
                err.contains(&format!("unknown fault mode `{mode}`")),
                "{err}"
            );
            assert!(
                err.contains("mode panic|io|delay|shortwrite|enospc,"),
                "{err}"
            );
        }
    }

    #[test]
    fn removed_serve_stage_is_rejected_naming_the_remaining_stages() {
        let err = "io:stage=serve".parse::<FaultPlan>().unwrap_err().to_string();
        assert!(err.contains("unknown stage `serve`"), "{err}");
        assert!(err.contains("stage=synth|sta|cache|import,"), "{err}");
    }

    #[test]
    fn check_panics_on_panic_spec() {
        let plan: FaultPlan = "panic:p=1,stage=sta".parse().unwrap();
        assert!(plan.check(FaultStage::Synth, "site").is_ok());
        let caught = std::panic::catch_unwind(|| {
            let _ = plan.check(FaultStage::Sta, "site");
        });
        assert!(caught.is_err());
    }
}
